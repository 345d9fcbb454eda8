"""Acceptance gate: every criterion at its stated size and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion. Populations are seeded and deterministic; any failure prints
the criterion line before the assertion detail.
"""

import json
import time

import numpy as np

import spectralorder as so


def _report(num, desc, body):
    try:
        body()
    except BaseException:
        print(f"[FAIL] criterion {num}: {desc}")
        raise
    print(f"[PASS] criterion {num}: {desc}")


def _spec(seed, dim, kind, count, spread=0.1):
    return so.InstanceSpec(dim=dim, seed=seed, kind=kind, count=count, spectrum_spread=spread)


def _population(master, cases, kind, counts=(2, 3, 4), dims=(2, 3, 4, 5, 6, 7, 8)):
    for i in range(cases):
        seed = so.case_seed(master, i)
        dim = dims[i % len(dims)]
        count = counts[i % len(counts)]
        yield i, seed, so.gen_instances(_spec(seed, dim, kind, count))


def test_criterion_01_route_agreement_sup():
    def body():
        t_start = time.perf_counter()
        worst = 0.0
        for i, seed, mats in _population(101, 200, "positive"):
            t_case = time.perf_counter()
            dev = so.operator_norm(
                so.shifted_power_sup(mats, delta=0.0) - so.spectral_sup(mats)
            )
            worst = max(worst, dev)
            assert dev < 1e-6, f"case {i} (seed {seed}): deviation {dev:.3e}"
            assert time.perf_counter() - t_case < 2.0, f"case {i} exceeded 2 s"
        total = time.perf_counter() - t_start
        assert total < 300.0, f"full run took {total:.1f} s"
        print(f"  sup-route worst deviation {worst:.2e} over 200 sets in {total:.1f} s")

    _report(1, "power-mean supremum agrees with the lattice route (< 1e-6)", body)


def test_criterion_02_route_agreement_inf():
    def body():
        worst = 0.0
        for i, seed, mats in _population(202, 200, "positive_definite"):
            dev = so.operator_norm(
                so.inverse_power_inf(mats, delta=0.0) - so.spectral_inf(mats)
            )
            worst = max(worst, dev)
            assert dev < 1e-6, f"case {i} (seed {seed}): deviation {dev:.3e}"
            pair = mats[:2]
            harm = so.harmonic_pair_inf(pair[0], pair[1])
            ref = so.inverse_power_inf(pair, delta=0.0, normalize=True)
            assert np.array_equal(harm.entries, ref.entries), f"case {i}: iterates differ"
        print(f"  inf-route worst deviation {worst:.2e} over 200 sets")

    _report(2, "inverse power-mean infimum agrees with the lattice route (< 1e-6)", body)


def test_criterion_03_delta_invariance():
    def body():
        worst = 0.0
        for i, seed, mats in _population(303, 100, "positive"):
            floor = so.delta_floor(mats)
            answers = [
                so.shifted_power_sup(mats, delta=floor - off) for off in (0.0, 1.0, 10.0)
            ]
            for a in answers:
                for b in answers:
                    dev = so.operator_norm(a - b)
                    worst = max(worst, dev)
                    assert dev < 1e-6, f"case {i} (seed {seed}): spread {dev:.3e}"
        print(f"  worst pairwise spread over admissible shifts {worst:.2e}")

    _report(3, "admissible shifts share one limit (pairwise < 1e-6 on 100 sets)", body)


def test_criterion_04_order_implication():
    def body():
        dims = (2, 3, 4, 5, 6)
        loewner_hits = 0
        for i in range(1000):
            seed = so.case_seed(404, i)
            dim = dims[i % len(dims)]
            x, r = so.gen_instances(_spec(seed, dim, "generic", 2))
            u = so.spectral_sup([x, r])
            assert so.spectral_leq(x, u).holds, f"case {i}: sup is not an upper bound"
            assert so.loewner_leq(x, u), f"case {i} (seed {seed}): Loewner failed"
            loewner_hits += 1
            probe = so.monotone_probe(x, u, probes=24, seed=seed)
            assert not probe.refuted, f"case {i} (seed {seed}): refuted by {probe.witness}"
        assert loewner_hits == 1000
        print("  1000/1000 Loewner confirmations, 0 monotone-probe refutations")

    _report(4, "spectral order implies Loewner order; probes never refute true pairs", body)


def test_criterion_05_loewner_spectral_gap():
    def body():
        x = so.make_hermitian([[1, 0], [0, 0]])
        y = so.make_hermitian([[1.5, 0.5], [0.5, 0.5]])
        assert so.loewner_leq(x, y)
        assert not so.spectral_leq(x, y).holds
        probe = so.power_order_probe(x, y)
        assert probe.refuted and probe.witness == "power n=2"

        dims = (2, 3, 4, 5, 6)
        gap_pairs = 0
        first = None
        for i in range(10_000):
            seed = so.case_seed(505, i)
            dim = dims[i % len(dims)]
            base = so.gen_instances(_spec(seed, dim, "positive", 1))[0]
            rng = np.random.default_rng(so.case_seed(seed, 1))
            vec = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            vec /= np.linalg.norm(vec)
            bumped = base + so.HermitianMatrix(0.5 * np.outer(vec, vec.conj()))
            # independent oracle: PSD check on the pair and on its squares
            diff = np.linalg.eigvalsh(bumped.entries - base.entries)
            assert diff[0] >= -1e-9, f"case {i}: bump pair lost the Loewner order"
            sq = np.linalg.eigvalsh(
                bumped.entries @ bumped.entries - base.entries @ base.entries
            )
            if sq[0] < -1e-9 * (1.0 + abs(sq[-1])):
                gap_pairs += 1
                if first is None:
                    first = (base, bumped, i)
        assert gap_pairs >= 1, "no Loewner-but-not-spectral pair found in 10000 draws"
        base, bumped, idx = first
        assert not so.spectral_leq(base, bumped).holds, f"square oracle lied at case {idx}"
        print(f"  gap pairs found: {gap_pairs}/10000 (squares-PSD oracle)")

    _report(5, "the Loewner-vs-spectral gap exists and is detected", body)


def test_criterion_06_commuting_equivalence():
    def body():
        worst = 0.0
        for i, seed, mats in _population(606, 200, "commuting_family", dims=(2, 3, 4, 5, 6)):
            for mode, route in (("sup", so.spectral_sup), ("inf", so.spectral_inf)):
                dev = so.operator_norm(so.commuting_oracle(mats, mode) - route(mats))
                worst = max(worst, dev)
                assert dev < 1e-8, f"case {i} (seed {seed}, {mode}): deviation {dev:.3e}"
        print(f"  worst oracle deviation {worst:.2e} over 200 commuting families")

    _report(6, "commuting families: joint-eigenbasis oracle matches both routes (< 1e-8)", body)


def test_criterion_07_projection_lattice():
    def body():
        dims = (2, 3, 4, 5, 6, 7, 8)
        worst_route = 0.0
        worst_oracle = 0.0
        for i in range(500):
            seed = so.case_seed(707, i)
            dim = dims[i % len(dims)]
            p = so.Projection(so.gen_instances(_spec(seed, dim, "projection", 1))[0])
            q = so.Projection(
                so.gen_instances(_spec(so.case_seed(seed, 9), dim, "projection", 1))[0]
            )
            join = so.proj_join([p, q])
            meet = so.proj_meet([p, q])
            dev_sup = so.operator_norm(so.spectral_sup([p.matrix, q.matrix]) - join.matrix)
            dev_inf = so.operator_norm(so.spectral_inf([p.matrix, q.matrix]) - meet.matrix)
            worst_route = max(worst_route, dev_sup, dev_inf)
            assert max(dev_sup, dev_inf) < 1e-8, f"case {i} (seed {seed})"
            oracle = so.alternating_meet_oracle(p, q)
            dev_o = so.operator_norm(oracle.matrix - meet.matrix)
            worst_oracle = max(worst_oracle, dev_o)
            assert dev_o < 1e-7, f"case {i} (seed {seed}): oracle deviation {dev_o:.3e}"
        for k_idx, klass in enumerate(so.OPERATOR_CLASSES):
            for i in range(200):
                seed = so.case_seed(808 + k_idx, i)
                dim = 2 + i % 5
                count = 2 + i % 2
                if klass == "unit_ball":
                    raw = so.gen_instances(_spec(seed, dim, "generic", count))
                    mats = [m * (0.97 / max(0.97, so.operator_norm(m))) for m in raw]
                else:
                    kind = {"positive": "positive", "effect": "effect", "projection": "projection"}[klass]
                    mats = so.gen_instances(_spec(seed, dim, kind, count))
                report = so.membership_closure_check(mats, klass)
                assert report.passed, f"{klass} case {i} (seed {seed}): {report.failures}"
        print(
            f"  route/lattice worst {worst_route:.2e}, alternating-oracle worst "
            f"{worst_oracle:.2e}; closure passed for all four classes x 200 sets"
        )

    _report(7, "projection pairs: lattice = spectral routes; closure holds for all classes", body)


def test_criterion_08_vigier_chains():
    def body():
        for i in range(50):
            seed = so.case_seed(909, i)
            for direction in ("decreasing", "increasing"):
                chain = so.gen_monotone_chain(seed, dim=4, length=20, direction=direction)
                report = so.vigier_check(chain)
                assert report.ok, f"chain {i} ({direction}, seed {seed}): {report.failures}"
        print("  50 chains x 2 directions: limit = last element, distances monotone")

    _report(8, "monotone chains attain their limit at the last element (< 1e-8)", body)


def test_criterion_09_orthogonal_formulas():
    def body():
        worst = 0.0
        for i in range(100):
            seed = so.case_seed(1010, i)
            count = 2 + i % 3
            dim = min(12, max(count, 4 + i % 9))
            mats = so.gen_instances(_spec(seed, dim, "orthogonal_family", count))
            dev_sup = so.operator_norm(so.orthogonal_sup(mats) - so.spectral_sup(mats))
            dev_inf = so.operator_norm(so.orthogonal_inf(mats) - so.spectral_inf(mats))
            worst = max(worst, dev_sup, dev_inf)
            assert max(dev_sup, dev_inf) < 1e-8, f"case {i} (seed {seed})"
        print(f"  worst deviation {worst:.2e} over 100 orthogonal families")

    _report(9, "orthogonal families: positive/negative-part sums match the lattice (< 1e-8)", body)


def test_criterion_10_affine_covariance():
    def body():
        combos = ((0.5, -1.0), (0.5, 3.0), (2.0, -1.0), (2.0, 3.0))
        worst = 0.0
        for i, seed, mats in _population(1111, 200, "generic", dims=(2, 3, 4, 5)):
            alpha, beta = combos[i % 4]
            eye = so.identity(mats[0].dim)
            mapped = so.affine_image(mats, alpha, beta)
            for route in (so.spectral_sup, so.spectral_inf):
                dev = so.operator_norm(route(mapped) - (alpha * route(mats) + beta * eye))
                worst = max(worst, dev)
                assert dev < 1e-7, f"case {i} (seed {seed}): deviation {dev:.3e}"
        print(f"  worst covariance residual {worst:.2e} over 200 sets")

    _report(10, "suprema and infima commute with positive affine maps (< 1e-7)", body)


def test_criterion_11_determinism():
    def body():
        for suite in so.SUITE_IDS:
            spec = so.InstanceSpec(dim=3, seed=1234)
            first = so.run_suite(suite, spec, cases=8)
            second = so.run_suite(suite, spec, cases=8)
            assert first.ok and second.ok, f"suite {suite} failed"
            a = json.dumps(first.to_dict(), sort_keys=True)
            b = json.dumps(second.to_dict(), sort_keys=True)
            assert a == b, f"suite {suite} report not byte-identical"
        print(f"  {len(so.SUITE_IDS)} suites byte-identical across reruns (timing excluded)")

    _report(11, "suite reports are byte-identical across reruns with one seed", body)
