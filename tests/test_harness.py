import numpy as np
import pytest

import spectralorder as so
from spectralorder import core, errors


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
        so.power_order_probe(p, q, max_power=4)
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
        assert not so.power_order_probe(p, p + so.identity(8), max_power=4).refuted
        assert calls == [(4, 8, 8)]

    @pytest.mark.parametrize("probes", [0, -20])
    def test_rejects_non_positive_probe_count(self, probes):
        m = gen(2)[0]
        with pytest.raises(errors.InvalidParameterError):
            so.monotone_probe(m, m, probes=probes)


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
                assert so.power_order_probe(x, y, max_power=4) == power

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

    @pytest.mark.parametrize("max_power", [0, -3])
    def test_rejects_non_positive_max_power(self, max_power):
        with pytest.raises(errors.InvalidParameterError):
            so.power_order_probe(so.identity(2), so.identity(2), max_power)


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
        assert a.to_dict() == b.to_dict()

    def test_tolerance_misconfiguration_aborts(self):
        # a psd_tol below rounding noise makes the lattice construction
        # abort loudly instead of masking the misconfiguration
        tol = so.Tolerances(cluster_tol=1e-8, psd_tol=1e-30)
        with pytest.raises(errors.InternalLatticeError):
            so.run_suite("order_laws", so.InstanceSpec(dim=3, seed=1), cases=2, tol=tol)
