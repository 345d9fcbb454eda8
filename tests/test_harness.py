import re

import numpy as np
import pytest

import spectralorder as so
from spectralorder import core, errors, family, harness, lattice, limits, projections


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
            {"dim": 2, "seed": 1, "spectrum_spread": float("inf")},
            {"dim": 2, "seed": 1, "spectrum_spread": float("nan")},
            {"dim": 2.5, "seed": 1},
            {"dim": 2, "seed": 1, "count": 1.5},
            {"dim": 2, "seed": 1.5},
            {"dim": True, "seed": 1},
            {"dim": 2, "seed": False},
        ],
    )
    def test_invalid_specs(self, kwargs):
        with pytest.raises(errors.InvalidSpecError):
            so.InstanceSpec(**kwargs)

    def test_rejects_negative_seed(self):
        # The spec checks its seed once, so gen_instances never sees one below 0.
        with pytest.raises(errors.InvalidSpecError, match="seed must be >= 0"):
            so.InstanceSpec(dim=2, seed=-1)


class TestCaseSeed:
    def test_deterministic_and_distinct(self):
        seeds = [so.case_seed(99, i) for i in range(100)]
        assert seeds == [so.case_seed(99, i) for i in range(100)]
        assert len(set(seeds)) == 100

    def test_accepts_numpy_integers(self):
        assert so.case_seed(np.int64(99), np.uint8(3)) == so.case_seed(99, 3)

    @pytest.mark.parametrize(
        "master, index", [(1.9, 0), (True, 0), (-1, 0), (1, -1), (1, 1.0), (np.float64(2.0), 0)]
    )
    def test_rejects_non_integer_or_negative(self, master, index):
        with pytest.raises(errors.InvalidSpecError, match="case seeds"):
            so.case_seed(master, index)

    @pytest.mark.parametrize("seed", [1.9, True, -1])
    def test_chain_seed_goes_through_it(self, seed):
        with pytest.raises(errors.InvalidSpecError, match="case seeds"):
            so.gen_monotone_chain(seed, 2, 3)

    def test_suite_master_seed_goes_through_it(self):
        # InstanceSpec refuses a negative seed; one forced past that check
        # still meets case_seed's.
        spec = so.InstanceSpec(dim=2, seed=1)
        object.__setattr__(spec, "seed", -1)
        with pytest.raises(errors.InvalidSpecError, match="case seeds"):
            so.run_suite("order_laws", spec, cases=1)


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

    def test_decomposes_each_operand_once(self, monkeypatch):
        x, y = gen(4, dim=8, count=2)
        p, q = gen(4, dim=8, kind="positive", count=2)
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert so.monotone_probe(x, y, probes=24).probes_run == 24
        assert len(calls) == 2
        calls.clear()
        so.power_order_probe(p, q)
        assert len(calls) == 2

    def test_one_eigvalsh_per_probe(self, monkeypatch):
        x, r = gen(4, dim=8, count=2)
        u = so.spectral_sup([x, r])
        p = gen(4, dim=8, kind="positive")[0]
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting_eigvalsh(a):
            calls.append(a.shape)
            return eigvalsh(a)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting_eigvalsh)
        # one stacked eigvalsh per probe call, over all of its functions
        verdict = so.monotone_probe(x, u, probes=24)
        assert not verdict.refuted and verdict.probes_run == 24
        assert calls == [(24, 8, 8)]
        calls.clear()
        assert not so.power_order_probe(p, p + so.identity(8)).refuted
        assert calls == [(4, 8, 8)]

    @pytest.mark.parametrize("probes", [0, -20])
    def test_rejects_non_positive_probe_count(self, probes):
        m = gen(2)[0]
        with pytest.raises(errors.InvalidParameterError):
            so.monotone_probe(m, m, probes=probes)

    @pytest.mark.parametrize("kwargs", [{"probes": 2.5}, {"seed": 1.5}, {"probes": True}])
    def test_rejects_non_integers(self, kwargs):
        m = gen(2)[0]
        with pytest.raises(errors.InvalidParameterError, match="integers"):
            so.monotone_probe(m, m, **kwargs)

    def test_rejects_negative_seed(self):
        m = gen(2)[0]
        with pytest.raises(errors.InvalidParameterError, match="seed"):
            so.monotone_probe(m, m, seed=-1)


def _reference_functions(wx, wy, scale, probes, seed):
    """The probe family on the unit-scale spectra as scalar maps, evaluated one
    eigenvalue at a time; hinge knots are named in the operands' units."""
    vals = np.sort(np.concatenate([wx, wy]))
    lo, hi = float(vals[0]), float(vals[-1])
    mid = 0.5 * (lo + hi)
    fns = [("identity", lambda s: s)]
    knots = list(vals) + [0.5 * (a + b) for a, b in zip(vals, vals[1:])]
    for t in knots:
        t = float(t)
        fns.append((f"hinge(t={t * scale:.6g})", lambda s, t=t: max(s - t, 0.0)))
    for k in (3, 5):
        fns.append((f"odd_power(k={k})", lambda s, k=k: (s - mid) ** k))
    rng = np.random.default_rng(seed)
    while len(fns) < probes:
        a = float(rng.uniform(0.1, 1.0))
        ts = rng.uniform(lo, hi, size=3)
        cs = rng.uniform(0.1, 1.0, size=3)
        fns.append(
            (
                f"piecewise_linear(seed draw {len(fns)})",
                lambda s, a=a, ts=ts, cs=cs: a * s + float(np.sum(cs * np.maximum(s - ts, 0.0))),
            )
        )
    return fns[:probes]


def _reference_leq(wx, ux, wy, uy, f, tol):
    """f(x) <= f(y) for one scalar map on the unit-scale spectra, through
    HermitianMatrix and one eigvalsh, with the slack's unit 1."""
    mapped = []
    for w, u in ((wx, ux), (wy, uy)):
        vals = np.array([float(f(float(v))) for v in w])
        mapped.append((so.HermitianMatrix((u * vals) @ u.conj().T), float(np.max(np.abs(vals)))))
    (fx, norm_fx), (fy, norm_fy) = mapped
    lam_min = float(np.linalg.eigvalsh(fy.entries - fx.entries)[0])
    return lam_min >= -tol.psd_tol * (1.0 + norm_fx + norm_fy)


def _reference_verdicts(x, y, seed, tol=so.DEFAULT_TOL):
    """Both probes run one function at a time, in order, stopping at the first
    failure, on x / s and y / s with s the power-of-two scale of their largest
    |eigenvalue|."""
    ex, ey = so.eigensystem(x), so.eigensystem(y)
    scale = core._scale(max(abs(es.eigenvalues[i]) for es in (ex, ey) for i in (0, -1)))
    spectra = (ex.eigenvalues / scale, ex.eigenvectors, ey.eigenvalues / scale, ey.eigenvectors)
    fns = _reference_functions(spectra[0], spectra[2], scale, 24, seed)
    mono = so.ProbeVerdict(refuted=False, probes_run=24)
    for name, f in fns:
        if not _reference_leq(*spectra, f, tol):
            mono = so.ProbeVerdict(refuted=True, witness=name, probes_run=24)
            break
    power = so.ProbeVerdict(refuted=False, probes_run=4)
    for n in range(1, 5):
        if not _reference_leq(*spectra, lambda s, n=n: max(s, 0.0) ** n, tol):
            power = so.ProbeVerdict(refuted=True, witness=f"power n={n}", probes_run=n)
            break
    return mono, power


def _probe_pairs(dim, seed, kind):
    """Ordered, reversed, unrelated, Loewner-only and shifted pairs."""
    x, r = gen(seed, dim=dim, kind=kind, count=2)
    up = so.spectral_sup([x, r])
    half = 0.5 * so.identity(dim)
    pairs = [(x, up), (up, x), (x, r), (x, x + 0.1 * r), (x, x + half), (x + half, x)]
    if kind == "generic":
        pairs.append((x, x - half))
    return pairs


class TestBatchedProbeMatchesLoop:
    """The stacked probes give the verdicts of testing one function at a time."""

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    @pytest.mark.parametrize("scale", [1e-9, 1.0, 1e9])
    @pytest.mark.parametrize("kind", ["generic", "positive_definite"])
    def test_same_verdicts(self, dim, scale, kind):
        seed = 100 * dim + (kind != "generic")
        for i, (x, y) in enumerate(_probe_pairs(dim, seed, kind)):
            x, y = scale * x, scale * y
            mono, power = _reference_verdicts(x, y, seed + i)
            assert so.monotone_probe(x, y, probes=24, seed=seed + i) == mono
            if kind != "generic":
                assert so.power_order_probe(x, y) == power

    def test_huge_scale_refutes_before_power_overflow(self):
        x, y = gen(1, dim=4, count=2)
        verdict = so.monotone_probe(1e100 * x, 1e100 * y)
        assert verdict.refuted and verdict.witness == "identity"
        p, q = gen(1, dim=4, kind="positive", count=2)
        assert so.power_order_probe(1e100 * p, 1e100 * q).witness == "power n=1"

    def test_powers_do_not_overflow_at_huge_scale(self):
        # odd_power(k=5) and power n=4 of the raw spectra overflow at 1e100;
        # at unit scale they do not, and the verdicts are those at scale 1
        x = gen(2, dim=3)[0]
        assert so.monotone_probe(1e100 * x, 1e100 * x) == so.monotone_probe(x, x)
        p = gen(2, dim=3, kind="positive")[0]
        assert so.power_order_probe(1e100 * p, 1e100 * p) == so.power_order_probe(p, p)


class TestScaleFreeVerdicts:
    """The probes run on x / s and y / s, so scaling both operands by a > 0
    moves no verdict: hinge knots scale by a, and these pairs have none."""

    @pytest.mark.parametrize("a", [1e-9, 1e-6, 1e9, 1e100])
    def test_monotone_probe_on_an_ordered_pair(self, a):
        x, r = gen(3, dim=3, count=2)
        y = so.spectral_sup([x, r])
        assert so.monotone_probe(a * x, a * y) == so.monotone_probe(x, y)

    @pytest.mark.parametrize("a", [1e-9, 1e-6, 1e9, 1e100])
    def test_power_probe_on_a_loewner_only_pair(self, a):
        p, q = gen(3, dim=3, kind="positive_definite", count=2)
        y = p + 0.1 * q
        unit = so.power_order_probe(p, y)
        assert unit.refuted and unit.witness == "power n=3"
        assert so.power_order_probe(a * p, a * y) == unit


class TestPowerOrderProbe:
    def test_commuting_dominance_holds(self):
        verdict = so.power_order_probe(h(np.diag([1.0, 2.0])), h(np.diag([2.0, 3.0])))
        assert not verdict.refuted

    def test_gap_fixture_refuted_at_two(self):
        x = h([[1, 0], [0, 0]])
        y = h([[1.5, 0.5], [0.5, 0.5]])
        verdict = so.power_order_probe(x, y)
        assert verdict.refuted and verdict.witness == "power n=2"

    def test_identity_shift_holds(self):
        x = gen(4, kind="positive")[0]
        verdict = so.power_order_probe(x, x + so.identity(4))
        assert not verdict.refuted

    def test_rejects_non_positive(self):
        with pytest.raises(errors.NotPositiveError):
            so.power_order_probe(h(np.diag([-1.0, 1.0])), so.identity(2))

    def test_psd_rule_is_loewner_leq_from_zero(self):
        # lambda_min = -2.5e-9 lies outside psd_tol * (u + ||x||) = 2e-9,
        # the slack of loewner_leq(0, x) and of the positive class
        x = h(np.diag([-2.5e-9, 1.0]))
        assert not so.loewner_leq(so.zero(2), x)
        with pytest.raises(errors.NotPositiveError):
            so.power_order_probe(x, so.identity(2))


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

    def test_rejects_noncommuting(self, a=1.0):
        with pytest.raises(errors.NotCommutingError):
            so.commuting_oracle([a * h([[1, 0], [0, 0]]), a * h([[0.5, 0.5], [0.5, 0.5]])], "sup")

    @pytest.mark.parametrize("a", (1e-6, 1e-9))
    def test_rejects_noncommuting_at_small_scale(self, a):
        self.test_rejects_noncommuting(a)

    def test_rejects_empty_family(self):
        with pytest.raises(errors.EmptySetError):
            so.commuting_oracle([], "sup")

    @pytest.mark.parametrize("mode", ["max", "SUP", None])
    def test_rejects_unknown_mode(self, mode):
        pair = [h(np.diag([1.0, 3.0])), h(np.diag([2.0, 2.0]))]
        for mats in (pair, []):  # before any work: the empty set is not reached
            with pytest.raises(errors.InvalidParameterError, match="mode"):
                so.commuting_oracle(mats, mode)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [1e-200, 1e-160, 1e155, 1e200])
    def test_check_is_scale_free(self, a):
        # x y - y x of two such elements overflows or underflows; each is
        # taken over its power-of-two scale first, so every family still
        # answers a times its unit-scale answer and a generic pair is still
        # refused.
        for seed in range(20):
            mats = gen(seed, dim=3, kind="commuting_family", count=2)
            for mode in ("sup", "inf"):
                want = so.commuting_oracle(mats, mode)
                got = so.commuting_oracle([a * m for m in mats], mode)
                assert so.operator_norm((1.0 / a) * got - want) <= 1e-8 * so.operator_norm(want)
        x, y = gen(0, dim=3, kind="generic", count=2)
        with pytest.raises(errors.NotCommutingError):
            so.commuting_oracle([a * x, a * y], "sup")


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
        with pytest.raises(errors.InvalidSpecError, match="integer"):
            so.gen_monotone_chain(seed=1, dim=3, length=2.5)


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

    def test_every_failure_can_fire(self, monkeypatch):
        # the first element as the "infimum" of a decreasing chain bounds no
        # later element, is far from the last, and moves away along the chain
        chain = so.gen_monotone_chain(3, 3, 4)
        monkeypatch.setattr(harness, "spectral_inf", lambda mats, tol: mats[0])
        report = so.vigier_check(chain)
        assert not report.ok and report.direction == "decreasing"
        for message in ("limit does not bound element ", "limit differs from last element by ",
                        "distance to limit increased at step "):
            assert any(f.startswith(message) for f in report.failures), (message, report.failures)


class TestRunSuite:
    @pytest.mark.parametrize("suite", so.SUITE_IDS)
    def test_all_suites_pass(self, suite):
        report = so.run_suite(suite, so.InstanceSpec(dim=3, seed=7), cases=6)
        assert report.ok, [f.to_dict() for f in report.failures]
        assert report.cases_run == 6

    @pytest.mark.parametrize("cases", [2.5, True])
    def test_rejects_non_integer_case_count(self, cases):
        with pytest.raises(errors.InvalidSpecError, match="cases"):
            so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=7), cases=cases)

    @pytest.mark.parametrize("spread", [1e-3, 1e3, 1e5, 1e6])
    def test_order_laws_pass_at_any_spread(self, spread):
        # the spread sets x's scale, and the antisymmetry distance follows it
        report = so.run_suite("order_laws", so.InstanceSpec(dim=4, seed=7, spectrum_spread=spread), cases=6)
        assert report.ok, [f.to_dict() for f in report.failures]

    @pytest.mark.parametrize("spread", [1e-9, 1e-6, 1e-3, 0.1, 10.0, 1e3, 1e6, 1e9])
    @pytest.mark.parametrize("suite", so.SUITE_IDS)
    def test_every_suite_passes_at_any_spread(self, suite, spread):
        # agreement bounds follow the scale of each case's inputs, which the
        # spread sets; at 1e6 the inputs' eigenvalues agree to about the
        # cluster width, and at 1e9 rounding at the inputs' scale exceeds an
        # absolute bound
        report = so.run_suite(suite, so.InstanceSpec(dim=4, seed=0, spectrum_spread=spread), cases=12)
        assert report.ok, [f.to_dict() for f in report.failures]

    @pytest.mark.parametrize("cluster_tol", [1e-14, 1e-6, 1e-4, 1e-3])
    def test_order_laws_pass_at_any_cluster_width(self, cluster_tol):
        # the near antisymmetry perturbation stays below both the cluster
        # width and the containment threshold, the far one follows the width
        tol = so.Tolerances(cluster_tol=cluster_tol)
        report = so.run_suite("order_laws", so.InstanceSpec(dim=4, seed=7), cases=6, tol=tol)
        assert report.ok, [f.to_dict() for f in report.failures]

    def test_unknown_suite(self):
        with pytest.raises(errors.UnknownSuiteError):
            so.run_suite("bogus_suite", so.InstanceSpec(dim=3, seed=7), cases=5)

    def test_deterministic_reports(self):
        a = so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=11), cases=5)
        b = so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=11), cases=5)
        assert a.to_dict() == b.to_dict()

    def test_tolerance_misconfiguration_aborts(self):
        # a psd_tol below rounding noise makes the lattice construction
        # abort loudly instead of masking the misconfiguration
        tol = so.Tolerances(cluster_tol=1e-8, psd_tol=1e-30)
        with pytest.raises(errors.InternalLatticeError):
            so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=1), cases=2, tol=tol)

    @pytest.mark.parametrize("psd_tol", [0.0, 1e-17])
    @pytest.mark.parametrize("dim", [3, 4, 8])
    def test_misconfigured_psd_tol_is_a_numerical_failure(self, dim, psd_tol):
        # the walk's own basis is checked, so the abort is InternalLatticeError
        # (exit 3) at every dimension, never reconstruct's input error
        tol = so.Tolerances(psd_tol=psd_tol)
        with pytest.raises(errors.InternalLatticeError):
            so.run_suite("order_laws", so.InstanceSpec(dim=dim, seed=0), cases=2, tol=tol)


def _plus(fn, by):
    """``fn`` with its answer off by ``by`` times the identity."""

    def wrong(*args, **kwargs):
        out = fn(*args, **kwargs)
        return out + by * so.identity(out.dim)

    return wrong


class _Verdict:
    """A spectral_leq verdict fixed in advance."""

    def __init__(self, holds):
        self.holds = holds

    def __bool__(self):
        return self.holds


def _leq(holds):
    return lambda *args, **kwargs: _Verdict(holds)


def _loewner(holds):
    return lambda *args, **kwargs: holds


def _delta_dependent_sup(mats, delta, tol):
    """The shifted power route with an error that grows with the shift."""
    out = limits.shifted_power_sup(mats, delta=delta, tol=tol)
    return out + (1e-3 * delta) * so.identity(out.dim)


SUP_UP, SUP_DOWN = _plus(lattice.spectral_sup, 1e-3), _plus(lattice.spectral_sup, -1e-3)
INF_UP, INF_DOWN = _plus(lattice.spectral_inf, 1e-3), _plus(lattice.spectral_inf, -1e-3)
# wrong projection meets: zero, the first argument, and the meet of the first two only
MEET_ZERO = lambda ps, tol: family.Projection(so.zero(ps[0].dim))  # noqa: E731
MEET_FIRST = lambda ps, tol: ps[0]  # noqa: E731
MEET_TWO = lambda ps, tol: projections.proj_meet(ps[:2], tol)  # noqa: E731
LOEWNER_NOT = lambda x, y, tol: not core.loewner_leq(x, y, tol)  # noqa: E731

DEV = r"^deviation \d\.\d{3}e[+-]\d+$"
AFFINE_DEV = r"^alpha=\S+, beta=\S+, deviation \d\.\d{3}e[+-]\d+$"

# (suite, wrong bindings of spectralorder.harness unless a module is named,
# tolerances, {property that must then fail: pattern its witness matches, or None})
WRONG_ANSWERS = [
    ("order_laws", {"spectral_sup": SUP_UP}, None,
     {"idempotence": DEV, "duality": DEV, "associativity": DEV}),
    ("order_laws", {"spectral_sup": SUP_DOWN}, None,
     {"upper_bound": None, "order_implication": None, "transitivity": None, "idempotence": DEV,
      "duality": DEV, "associativity": DEV, "loewner_consistency": None}),
    ("order_laws", {"spectral_leq": _leq(False)}, None,
     {"reflexivity": None, "upper_bound": None, "transitivity": None,
      "antisymmetry": "^sub-cluster perturbation changed the verdict$"}),
    ("order_laws", {"loewner_leq": _loewner(False)}, None,
     {"order_implication": None, "loewner_consistency": None}),
    # both verdicts then hold for a perturbation ten times the bound 2 d cluster_tol
    ("order_laws", {"spectral_leq": _leq(True)}, None,
     {"antisymmetry": r"^both verdicts hold at distance \d\.\d{3}e[+-]\d+$"}),
    ("sup_inf_routes", {"spectral_sup": SUP_UP}, None, {"route_agreement_sup": DEV}),
    ("sup_inf_routes", {"spectral_inf": INF_UP}, None,
     {"route_agreement_inf": DEV, "route_agreement_harmonic": DEV}),
    ("sup_inf_routes", {"harmonic_pair_inf": _plus(limits.harmonic_pair_inf, 1e-3)}, None,
     {"route_agreement_harmonic": DEV}),
    ("sup_inf_routes", {"shifted_power_sup": _delta_dependent_sup}, None,
     {"delta_invariance": DEV}),
    ("sublattice_closure", {"lattice.spectral_inf": _plus(lattice.spectral_inf, -2.0)}, None,
     {f"closure_{klass}": "inf left class" for klass in lattice.OPERATOR_CLASSES}),
    ("vigier", {"spectral_sup": SUP_UP, "spectral_inf": INF_DOWN}, None,
     {"vigier_decreasing": "limit differs", "vigier_increasing": "limit differs"}),
    ("monotone_characterization", {"spectral_sup": SUP_DOWN}, None,
     {"probe_soundness": "^true pair refuted by "}),
    ("monotone_characterization", {"loewner_leq": _loewner(False)}, None, {"bump_loewner": None}),
    # every gap is then missed, so the cross-case search reports too
    ("monotone_characterization", {"spectral_leq": _leq(True)}, None,
     {"power_probe_soundness": None, "gap_search": None}),
    ("orthogonal", {"spectral_sup": SUP_UP}, None, {"orthogonal_sup": DEV}),
    ("orthogonal", {"spectral_inf": INF_UP}, None, {"orthogonal_inf": DEV}),
    ("affine_covariance", {"spectral_sup": SUP_UP}, None, {"affine_sup": AFFINE_DEV}),
    ("affine_covariance", {"spectral_inf": INF_UP}, None, {"affine_inf": AFFINE_DEV}),
    ("projection_lattice_laws", {"proj_meet": projections.proj_join}, None,
     {"absorption": DEV, "lattice_bounds": None, "alternating_oracle": DEV,
      "projection_specialization": "^inf/meet deviation "}),
    ("projection_lattice_laws", {"proj_meet": MEET_ZERO}, None,
     {"meet_idempotent": DEV, "alternating_oracle": DEV, "projection_specialization": None}),
    ("projection_lattice_laws", {"proj_meet": MEET_FIRST}, None,
     {"meet_commutative": DEV, "alternating_oracle": DEV, "projection_specialization": None}),
    ("projection_lattice_laws", {"proj_meet": MEET_TWO}, None, {"meet_associative": DEV}),
    ("projection_lattice_laws", {"loewner_leq": LOEWNER_NOT}, None,
     {"projection_order_equivalence": None}),
    ("projection_lattice_laws", {"proj_join": projections.proj_meet}, None,
     {"absorption": DEV, "lattice_bounds": None, "projection_specialization": "^sup/join deviation "}),
]


class TestSuitePropertiesCanFail:
    """Each suite property reports a library answer made wrong on purpose,
    so none can silently become unfailable."""

    @staticmethod
    def _run(monkeypatch, suite, wrong, tol=None):
        for name, fn in wrong.items():
            monkeypatch.setattr(f"spectralorder.{name if '.' in name else 'harness.' + name}", fn)
        spec = so.InstanceSpec(dim=3, seed=7)
        return so.run_suite(suite, spec, cases=8, tol=tol or so.DEFAULT_TOL)

    @pytest.mark.parametrize(
        "suite, wrong, tol, expected",
        WRONG_ANSWERS,
        ids=[f"{w[0]}-{'+'.join(w[1])}-{i}" for i, w in enumerate(WRONG_ANSWERS)],
    )
    def test_wrong_answer_is_reported(self, monkeypatch, suite, wrong, tol, expected):
        report = self._run(monkeypatch, suite, wrong, tol)
        assert {f.prop for f in report.failures} == set(expected)
        for f in report.failures:
            if expected[f.prop] is not None:
                assert re.search(expected[f.prop], f.witness), (f.prop, f.witness)

    def test_every_suite_is_covered(self):
        assert {w[0] for w in WRONG_ANSWERS} == set(so.SUITE_IDS)

    def test_gap_missed_by_the_power_probe_still_counts(self, monkeypatch):
        # the spectral comparison alone then finds every gap; with it always
        # holding as well, only the cross-case search reports, at the last case
        never = lambda *args, **kwargs: so.ProbeVerdict(refuted=False)  # noqa: E731
        suite = "monotone_characterization"
        assert self._run(monkeypatch, suite, {"power_order_probe": never}).ok
        report = self._run(monkeypatch, suite, {"power_order_probe": never, "spectral_leq": _leq(True)})
        assert [(f.case_index, f.prop) for f in report.failures] == [(7, "gap_search")]
        assert report.failures[0].seed == so.case_seed(7, 7)
