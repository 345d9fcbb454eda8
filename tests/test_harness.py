import numpy as np
import pytest

import spectralorder as so
from spectralorder import errors


def h(rows):
    return so.make_hermitian(np.asarray(rows, dtype=complex))


def gen(seed, dim=4, kind="generic", count=1, spread=0.1):
    return so.gen_instances(
        so.InstanceSpec(dim=dim, seed=seed, kind=kind, count=count, spectrum_spread=spread)
    )


class TestGenInstances:
    def test_reproducible(self):
        a = gen(12, kind="positive", count=2)
        b = gen(12, kind="positive", count=2)
        for x, y in zip(a, b):
            assert np.array_equal(x.entries, y.entries)

    def test_generic_gap_request(self):
        m = gen(7, dim=5, spread=0.25)[0]
        gaps = np.diff(so.eigensystem(m).eigenvalues)
        assert np.all(gaps >= 0.25 - 1e-9)

    def test_positive_is_psd(self):
        m = gen(3, kind="positive")[0]
        assert so.eigensystem(m).eigenvalues[0] >= -1e-12

    def test_positive_definite_floor(self):
        m = gen(4, kind="positive_definite", spread=0.1)[0]
        assert so.eigensystem(m).eigenvalues[0] >= 0.1 - 1e-9

    def test_projection_is_idempotent(self):
        m = gen(5, dim=2, kind="projection")[0]
        assert so.is_projection(m)

    def test_effect_spectrum_in_unit_interval(self):
        w = so.eigensystem(gen(6, kind="effect")[0]).eigenvalues
        assert np.all(w >= -1e-12) and np.all(w <= 1.0 + 1e-12)

    def test_commuting_family_commutators(self):
        mats = gen(8, kind="commuting_family", count=3)
        for i in range(3):
            for j in range(i + 1, 3):
                comm = mats[i].entries @ mats[j].entries - mats[j].entries @ mats[i].entries
                assert np.linalg.norm(comm, 2) < 1e-10

    def test_orthogonal_family_products(self):
        mats = gen(9, dim=6, kind="orthogonal_family", count=3)
        for i in range(3):
            for j in range(i + 1, 3):
                assert np.linalg.norm(mats[i].entries @ mats[j].entries, 2) < 1e-10

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dim": 0, "seed": 1},
            {"dim": 2, "seed": 1, "count": 0},
            {"dim": 2, "seed": 1, "kind": "bogus"},
            {"dim": 2, "seed": 1, "kind": "orthogonal_family", "count": 3},
            {"dim": 2, "seed": 1, "spectrum_spread": 0.0},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(errors.InvalidSpecError):
            so.InstanceSpec(**kwargs)


class TestCaseSeed:
    def test_deterministic_and_distinct(self):
        seeds = [so.case_seed(99, i) for i in range(100)]
        assert seeds == [so.case_seed(99, i) for i in range(100)]
        assert len(set(seeds)) == 100


class TestMonotoneProbe:
    def test_true_pairs_never_refuted(self):
        for seed in range(20):
            x, r = gen(seed, count=2)
            u = so.spectral_sup([x, r])
            verdict = so.monotone_probe(x, u, probes=20, seed=seed)
            assert not verdict.refuted, verdict.witness

    def test_gap_fixture_refuted(self):
        x = h([[1, 0], [0, 0]])
        y = h([[1.5, 0.5], [0.5, 0.5]])
        verdict = so.monotone_probe(x, y)
        assert verdict.refuted
        assert verdict.status == "refuted"

    def test_self_comparison_consistent(self):
        m = gen(2)[0]
        assert so.monotone_probe(m, m).status == "consistent"

    @pytest.mark.parametrize("probes", [0, -20])
    def test_rejects_non_positive_probe_count(self, probes):
        m = gen(2)[0]
        with pytest.raises(errors.InvalidParameterError):
            so.monotone_probe(m, m, probes=probes)


class TestPowerOrderProbe:
    def test_commuting_dominance_holds(self):
        verdict = so.power_order_probe(h(np.diag([1.0, 2.0])), h(np.diag([2.0, 3.0])), 5)
        assert not verdict.refuted

    def test_gap_fixture_refuted_at_two(self):
        x = h([[1, 0], [0, 0]])
        y = h([[1.5, 0.5], [0.5, 0.5]])
        verdict = so.power_order_probe(x, y, 2)
        assert verdict.refuted and verdict.witness == "power n=2"

    def test_identity_shift_holds(self):
        x = gen(4, kind="positive")[0]
        verdict = so.power_order_probe(x, x + so.identity(4), 4)
        assert not verdict.refuted

    def test_rejects_non_positive(self):
        with pytest.raises(errors.NotPositiveError):
            so.power_order_probe(h(np.diag([-1.0, 1.0])), so.identity(2), 2)


class TestCommutingOracle:
    def test_diagonal_sup(self):
        out = so.commuting_oracle([h(np.diag([1.0, 3.0])), h(np.diag([2.0, 2.0]))], "sup")
        assert np.allclose(out.entries, np.diag([2.0, 3.0]), atol=1e-12)

    def test_diagonal_inf(self):
        out = so.commuting_oracle([h(np.diag([1.0, 3.0])), h(np.diag([2.0, 2.0]))], "inf")
        assert np.allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_lattice_routes(self, seed):
        mats = gen(seed, kind="commuting_family", count=3)
        assert so.operator_norm(so.commuting_oracle(mats, "sup") - so.spectral_sup(mats)) < 1e-8
        assert so.operator_norm(so.commuting_oracle(mats, "inf") - so.spectral_inf(mats)) < 1e-8

    def test_degenerate_blocks_refined(self):
        # first matrix scalar, second splits the block
        a = so.identity(3)
        b = h(np.diag([1.0, 2.0, 3.0]))
        out = so.commuting_oracle([a, b], "sup")
        assert np.allclose(out.entries, np.diag([1.0, 2.0, 3.0]), atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_oracle_triangle(self, seed):
        # lattice route, joint-eigenbasis oracle, and the power-mean limit
        # all land on the same matrix for commuting PSD families
        raw = gen(seed, kind="commuting_family", count=2)
        lift = 0.05 - so.delta_floor(raw)
        mats = [m + lift * so.identity(4) for m in raw]
        lattice = so.spectral_sup(mats)
        oracle = so.commuting_oracle(mats, "sup")
        limit = so.shifted_power_sup(mats, delta=0.0)
        assert so.operator_norm(lattice - oracle) < 1e-6
        assert so.operator_norm(lattice - limit) < 1e-6

    def test_rejects_noncommuting(self):
        with pytest.raises(errors.NotCommutingError):
            so.commuting_oracle([h([[1, 0], [0, 0]]), h([[0.5, 0.5], [0.5, 0.5]])], "sup")


class TestChains:
    def test_decreasing_chain_verdicts(self):
        chain = so.gen_monotone_chain(seed=1, dim=4, length=6, direction="decreasing")
        for a, b in zip(chain, chain[1:]):
            assert so.spectral_leq(b, a).holds

    def test_increasing_chain_verdicts(self):
        chain = so.gen_monotone_chain(seed=2, dim=4, length=6, direction="increasing")
        for a, b in zip(chain, chain[1:]):
            assert so.spectral_leq(a, b).holds

    def test_rejects_short_chain(self):
        with pytest.raises(errors.InvalidSpecError):
            so.gen_monotone_chain(seed=1, dim=3, length=1)


class TestVigierCheck:
    def test_scalar_chain(self):
        chain = [(1.0 / k) * so.identity(3) for k in range(1, 8)]
        report = so.vigier_check(chain)
        assert report.ok and report.direction == "decreasing"
        assert so.operator_norm(report.limit - chain[-1]) < 1e-10

    @pytest.mark.parametrize("direction", ["decreasing", "increasing"])
    def test_seeded_chain(self, direction):
        chain = so.gen_monotone_chain(seed=5, dim=4, length=10, direction=direction)
        report = so.vigier_check(chain)
        assert report.ok, report.failures
        assert report.direction == direction

    def test_rejects_non_monotone(self):
        x, y = gen(3, count=2)
        with pytest.raises(errors.NotMonotoneError):
            so.vigier_check([x, y, x])


class TestRunSuite:
    @pytest.mark.parametrize("suite", so.SUITE_IDS)
    def test_all_suites_pass(self, suite):
        report = so.run_suite(suite, so.InstanceSpec(dim=3, seed=7), cases=6)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.cases_run == 6

    def test_unknown_suite(self):
        with pytest.raises(errors.UnknownSuiteError):
            so.run_suite("bogus_suite", so.InstanceSpec(dim=3, seed=7), cases=5)

    def test_deterministic_reports(self):
        a = so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=11), cases=5)
        b = so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=11), cases=5)
        assert a.to_dict(include_timing=False) == b.to_dict(include_timing=False)

    def test_tolerance_misconfiguration_aborts(self):
        # a psd_tol below rounding noise makes the lattice construction
        # abort loudly instead of masking the misconfiguration
        tol = so.Tolerances(cluster_tol=1e-8, psd_tol=1e-30)
        with pytest.raises(errors.InternalLatticeError):
            so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=1), cases=2, tol=tol)
