import json

import numpy as np
import pytest

import spectralorder as so
from spectralorder import errors, limits
from spectralorder.cli import main, matrices_to_document
from spectralorder.limits import _graded_root_pairs


def h(rows):
    return so.make_hermitian(np.asarray(rows, dtype=complex))


def gen(seed, dim=4, kind="positive", count=1):
    return so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind=kind, count=count))


# scales at which an absolute tolerance used to accept or reject wrongly
SMALL_SCALES = (1e-6, 1e-9)

A13 = h(np.diag([1.0, 3.0]))
B22 = h(np.diag([2.0, 2.0]))


def iterate_at(mats, n, **kwargs):
    for k, it in so.power_sup_iterates(mats, **kwargs):
        if k == n:
            return it
    raise AssertionError(f"exponent {n} not in schedule")


class TestExponentLadder:
    def test_ladder_doubles_up_to_the_cap(self, monkeypatch):
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 5)
        iterates = so.power_sup_iterates(gen(2, count=2))
        ladder = [n for n, _ in iterates]
        assert ladder == [1, 2, 4, 8, 16, 32]


class TestDeltaFloor:
    def test_commuting_pair(self):
        assert so.delta_floor([A13, B22]) == pytest.approx(1.0)

    def test_negative_identity(self):
        assert so.delta_floor([-so.identity(3)]) == pytest.approx(-1.0)

    def test_matches_eigensolver(self):
        mats = gen(5, kind="generic", count=2)
        expected = min(so.eigensystem(m).eigenvalues[0] for m in mats)
        assert so.delta_floor(mats) == pytest.approx(expected)

    def test_empty_rejected(self):
        with pytest.raises(errors.EmptySetError):
            so.delta_floor([])


class TestGradedRootEngine:
    @pytest.mark.parametrize("inv_exponent", [1.0, 0.5])
    def test_matches_dense_functional_calculus(self, inv_exponent):
        rng = np.random.default_rng(7)
        vecs = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        vecs /= np.linalg.norm(vecs, axis=0)
        log_w = rng.uniform(-3.0, 0.0, 6)
        logs, cols = _graded_root_pairs(log_w, vecs, inv_exponent, limits._residual_tables(vecs))
        assert np.linalg.norm(cols.conj().T @ cols - np.eye(cols.shape[1])) < 1e-12
        dense = so.HermitianMatrix((vecs * np.exp(log_w)) @ vecs.conj().T)
        want = so.functional_calculus(dense, lambda s: max(s, 0.0) ** inv_exponent)
        got = so.HermitianMatrix((cols * np.exp(logs)) @ cols.conj().T)
        assert so.operator_norm(got - want) <= 1e-12 * so.operator_norm(want)

    @pytest.mark.parametrize("inv_exponent", [1.0, 0.5])
    def test_exact_on_orthogonal_factors_across_windows(self, inv_exponent):
        # Weights 50 apart put each factor in its own scale window.
        q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4)))
        log_w = np.array([0.0, -50.0, -100.0, -150.0])
        logs, cols = _graded_root_pairs(log_w, q, inv_exponent, limits._residual_tables(q))
        assert np.allclose(logs, inv_exponent * log_w, rtol=0.0, atol=1e-12)
        assert np.allclose(np.abs(q.T @ cols), np.eye(4), rtol=0.0, atol=1e-12)

    def test_factors_in_a_subspace_give_its_rank(self):
        vecs = np.zeros((4, 3), dtype=complex)
        vecs[:2] = [[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]]
        log_w = np.array([0.0, -1.0, -2.0])
        logs, cols = _graded_root_pairs(log_w, vecs, 1.0, limits._residual_tables(vecs))
        assert logs.shape == (2,) and cols.shape == (4, 2)

    @pytest.mark.parametrize("dim,count", [(6, 10), (8, 3)])
    @pytest.mark.parametrize("n", [1, 64])
    def test_weight_ordered_qr_gives_the_dense_eigenpairs(self, dim, count, n):
        # the engine on (sorted weights, R) with columns mapped by Q, against
        # the engine on the dense factors: the same root, F > d and F < d
        rng = np.random.default_rng(11)
        vecs = rng.standard_normal((dim, count)) + 1j * rng.standard_normal((dim, count))
        vecs /= np.linalg.norm(vecs, axis=0)
        log_w = n * np.log(rng.uniform(0.1, 1.0, count))
        order = np.argsort(-log_w, kind="stable")
        q, r = np.linalg.qr(vecs[:, order])
        logs, cols = _graded_root_pairs(log_w[order], r, 1.0 / n, limits._residual_tables(r))
        dense_logs, dense_cols = _graded_root_pairs(log_w, vecs, 1.0 / n, limits._residual_tables(vecs))
        assert np.allclose(np.sort(logs), np.sort(dense_logs), rtol=0.0, atol=1e-12)
        got = ((q @ cols) * np.exp(logs)) @ (q @ cols).conj().T
        want = (dense_cols * np.exp(dense_logs)) @ dense_cols.conj().T
        assert np.linalg.norm(got - want, 2) <= 1e-12 * np.linalg.norm(want, 2)

    def test_projection_factors_below_full_rank_keep_their_rank(self, monkeypatch):
        # two rank-2 projections in d = 8: F = 4 < d, so Q is 8 x 4, and every
        # iterate (P1^n + P2^n)^(1/n) = (P1 + P2)^(1/n) has rank 4
        rng = np.random.default_rng(5)
        raw = rng.standard_normal((2, 8, 2)) + 1j * rng.standard_normal((2, 8, 2))
        qs = [np.linalg.qr(a)[0] for a in raw]
        eigs = [(np.ones(2), q) for q in qs]
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 10)
        for n, logs, cols in limits._power_mean_roots(eigs, False, 1.0):
            assert cols.shape == (8, 4) and logs.shape == (4,)
            assert np.linalg.norm(cols.conj().T @ cols - np.eye(4)) < 1e-12
        join = so.spectral_sup([so.HermitianMatrix(q @ q.conj().T) for q in qs])
        assert so.operator_norm(so.HermitianMatrix(cols @ cols.conj().T) - join) < 1e-12

    def test_ladder_calls_equal_fresh_calls(self, monkeypatch):
        # a partial window rotates the rows it leaves behind on a private
        # copy: the R and the tables that the whole ladder shares stay as
        # they were, so every exponent sees what a fresh call would
        mats = gen(1, dim=16, kind="positive_definite", count=3)
        eigs = [(1.0 / es.eigenvalues, es.eigenvectors) for es in map(so.eigensystem, mats)]
        shared, calls, partial = [], [], []
        engine, eigh = limits._graded_root_pairs, limits._eigh

        def recorded_engine(log_weights, vectors, inv_exponent, tables):
            if not shared:  # R and its tables before any window ran
                shared.extend((vectors, tables, vectors.copy(), [t.copy() for t in tables]))
            out = engine(log_weights, vectors, inv_exponent, tables)
            calls.append((log_weights, inv_exponent, out))
            return out

        def recorded_eigh(a):
            g, u = eigh(a)
            partial.append(np.count_nonzero(g >= limits._KEEP_RATIO * g[-1]) < g.size)
            return g, u

        monkeypatch.setattr(limits, "_graded_root_pairs", recorded_engine)
        monkeypatch.setattr(limits, "_eigh", recorded_eigh)
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 12)
        assert len(list(limits._power_mean_roots(eigs, False, -1.0))) == 13
        assert any(partial)
        r, tables, r_before, tables_before = shared
        assert np.array_equal(r, r_before) and all(map(np.array_equal, tables, tables_before))
        for k in (6, 12):
            log_weights, inv_exponent, (logs, cols) = calls[k]
            assert inv_exponent == -1.0 / 2**k
            fresh_logs, fresh_cols = engine(
                log_weights, r_before, inv_exponent, limits._residual_tables(r_before)
            )
            assert np.array_equal(logs, fresh_logs) and np.array_equal(cols, fresh_cols)


class TestCostModel:
    def test_one_qr_per_run(self, monkeypatch):
        calls = []
        qr = np.linalg.qr

        def counted_qr(a):
            calls.append(a.shape)
            return qr(a)

        monkeypatch.setattr(np.linalg, "qr", counted_qr)
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 12)
        iterates = list(so.power_sup_iterates(gen(1, dim=8, count=3)))
        assert len(iterates) == 13 and len(calls) == 1

    def test_no_norm_call_per_window(self, monkeypatch):
        # residual norms are read from the ladder's suffix-sum table, and
        # only rows that a partial window rotated are summed again
        calls = []
        norm = np.linalg.norm

        def counted_norm(*args, **kwargs):
            calls.append(args[0].shape)
            return norm(*args, **kwargs)

        systems = map(so.eigensystem, gen(1, dim=8, count=3))
        eigs = [(es.eigenvalues, es.eigenvectors) for es in systems]
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 12)
        monkeypatch.setattr(np.linalg, "norm", counted_norm)
        ladder = list(limits._power_mean_roots(eigs, False, 1.0))
        assert len(ladder) == 13 and not calls

    @pytest.mark.parametrize("delta", [0.0, None])
    def test_windows_take_only_the_leading_rows(self, monkeypatch, delta):
        # factors sorted by weight leave a few rows per window in R; dense
        # factors would give a 32 x 32 window at every iterate. A one-row
        # window is its own eigenpair and never reaches the eigensolver.
        sizes = []
        eigh = limits._eigh

        def recorded_eigh(a):
            sizes.append(a.shape[0])
            return eigh(a)

        monkeypatch.setattr(limits, "_eigh", recorded_eigh)
        mats = gen(1, dim=32, count=3)
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 20)
        for n, _ in so.power_sup_iterates(mats, delta=delta):
            if n < 2**20:
                sizes.clear()
        assert sizes and 2 <= min(sizes) and max(sizes) <= 4


class TestExtrapolatedStop:
    @pytest.mark.parametrize("c", [0.7, 3.0])
    def test_scalar_closed_form(self, c):
        # x = y = c I with zero shift: A_n = c 2^(1/n), error c ln2 / n + O(1/n^2)
        x = c * so.identity(3)
        limit, trace = limits.run_schedule(so.power_sup_iterates([x, x], delta=0.0), "sup")
        assert so.operator_norm(limit - x) <= 1e-9 * c
        plain_stop = next(
            n
            for n in (2**k for k in range(1, 49))
            if c * (2.0 ** (1.0 / n) * (2.0 ** (1.0 / n) - 1.0))
            < limits._STOP_TOL * (1.0 + c * 2.0 ** (1.0 / n))
        )
        assert trace[-1][0] < plain_stop

    def test_pinned_stop_exponent(self):
        mats = gen(1, dim=8, count=3)
        limit, trace = limits.run_schedule(so.power_sup_iterates(mats, delta=0.0), "sup")
        assert trace[-1][0] <= 2**20
        assert so.operator_norm(limit - so.spectral_sup(mats)) < 1e-6

    def test_singleton_returns_its_input(self):
        m = gen(3, kind="generic")[0]
        limit, trace = limits.run_schedule(so.power_sup_iterates([m]), "sup")
        assert [n for n, _, _ in trace] == [2, 4]
        assert so.operator_norm(limit - m) < 1e-11 * (1.0 + so.operator_norm(m))

    def test_trace_records_are_norms_of_the_iterate_differences(self):
        # the stacked eigvalsh gives each residual bit for bit as _norm would
        iterates = list(so.power_sup_iterates(gen(1, dim=8, count=3), delta=0.0))
        limit, trace = limits.run_schedule(iter(iterates), "sup")
        a = [it.entries for _, it in iterates]
        ext = [None] + [a[k] + (a[k] - a[k - 1]) for k in range(1, len(a))]
        for k, (n, residual, ext_residual) in enumerate(trace, start=1):
            assert n == iterates[k][0]
            assert residual == limits._norm(a[k] - a[k - 1])
            assert ext_residual == (None if k == 1 else limits._norm(ext[k] - ext[k - 1]))
        assert np.array_equal(limit.entries, ext[len(trace)])

    def test_no_convergence_carries_extrapolant_residuals(self, monkeypatch):
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 3)
        with pytest.raises(errors.NoConvergenceError) as exc:
            so.shifted_power_sup(gen(3, count=2))
        ext = [e for _, _, e in exc.value.trace]
        assert ext[0] is None and len(ext) == 3
        assert all(e > 0.0 for e in ext[1:])


SCALES = [10.0**e for e in range(-12, 13, 3)]


class TestScaleSweep:
    """a * mats for a from 1e-12 to 1e12: the limit is a * (the unit-scale
    lattice answer) within 1e-6 relative."""

    MATS = gen(1, dim=6, kind="positive_definite", count=3)

    @pytest.mark.parametrize("a", SCALES)
    @pytest.mark.parametrize("shift", ["floor", "zero"])
    def test_shifted_sup(self, a, shift):
        scaled = [a * m for m in self.MATS]
        out = so.shifted_power_sup(scaled, delta=None if shift == "floor" else 0.0)
        want = a * so.spectral_sup(self.MATS)
        assert so.operator_norm(out - want) <= 1e-6 * so.operator_norm(want)

    @pytest.mark.parametrize("a", SCALES)
    def test_inverse_inf_default_shift(self, a):
        out = so.inverse_power_inf([a * m for m in self.MATS])
        want = a * so.spectral_inf(self.MATS)
        assert so.operator_norm(out - want) <= 1e-6 * so.operator_norm(want)

    def test_shifted_sup_near_the_float_maximum(self, tmp_path, capsys):
        # the unit saturates at 2**1023 instead of overflowing
        scaled = [5e307 * m for m in self.MATS]
        want = so.spectral_sup(scaled)
        out = so.shifted_power_sup(scaled)
        assert so.operator_norm(out - want) <= 1e-6 * so.operator_norm(want)
        path = tmp_path / "huge.json"
        doc = matrices_to_document([(f"m{i}", m) for i, m in enumerate(scaled)])
        path.write_text(json.dumps(doc))
        assert main(["limits", "--input", str(path), "--formula", "shifted"]) == 0
        assert "Traceback" not in capsys.readouterr().err

    def test_shift_slack_is_relative_below_unit_scale(self):
        # 5e-10 above the floor is 500 times the set's scale: the shifted
        # elements are far from PSD, not within rounding of it
        scaled = [1e-12 * m for m in self.MATS]
        with pytest.raises(errors.DeltaTooLargeError):
            so.shifted_power_sup(scaled, delta=so.delta_floor(scaled) + 5e-10)

    @pytest.mark.parametrize("a", SCALES)
    def test_rejects_shift_that_rounds_the_spectrum_away(self, a):
        # the unit-scale rejections of the shifted and inverse tests, scaled:
        # the check is relative too
        scaled = [a * m for m in self.MATS]
        with pytest.raises(errors.DeltaTooLargeError):
            so.shifted_power_sup(scaled, delta=so.delta_floor(scaled) - a * 1e17)
        with pytest.raises(errors.DeltaTooLargeError):
            so.inverse_power_inf(scaled, delta=a * 1e17)


class TestUnitScaleGenerators:
    """The power routes run on the eigenvalues over the power of two s of the
    largest |eigenvalue|, so their default shifts are scale-free."""

    @pytest.mark.parametrize("a", [1e16, 1e17, 1e20])
    def test_default_inverse_shift_survives_large_scales(self, a):
        # the shift s - lambda_min lifts the binding eigenvalue to s, which
        # rounding cannot erase however large the set
        far = []
        for seed in range(20):
            mats = [a * m for m in gen(seed, dim=3, kind="generic", count=2)]
            want = so.spectral_inf(mats)
            err = so.operator_norm(so.inverse_power_inf(mats) - want)
            if err > 1e-6 * so.operator_norm(want):
                far.append((seed, err))
        assert not far

    @pytest.mark.parametrize("k", [-40, -3, 3, 40])
    def test_iterates_scale_with_the_inputs(self, k):
        a = 2.0**k
        rows = [
            (so.power_sup_iterates, gen(4, dim=5, kind="generic", count=3)),
            (so.power_inf_iterates, gen(4, dim=5, kind="positive_definite", count=3)),
        ]
        for iterates, mats in rows:
            pairs = zip(iterates(mats), iterates([a * m for m in mats]), strict=True)
            for (n, it), (n_a, it_a) in pairs:
                assert n_a == n
                want = a * it.entries
                assert limits._norm(it_a.entries - want) <= 1e-13 * limits._norm(want), n


def float_max_pair(low):
    """X = diag(low, 1.5e308) and R X R^T, R a plane rotation by 0.3."""
    c, s = np.cos(0.3), np.sin(0.3)
    rot = np.array([[c, -s], [s, c]])
    x = np.diag([low, 1.5e308])
    return so.HermitianMatrix(x), so.HermitianMatrix(rot @ x @ rot.T)


class TestFloatMaximum:
    """Sets whose power-mean iterates would overflow, though their answer,
    1.5e308 I for the sup, is representable: a typed refusal, never a bare
    ValueError or an overflow traceback, through the library and the CLI."""

    @pytest.mark.parametrize("low", [-1e308, 1e308])
    def test_sup_routes_refuse(self, low):
        mats = list(float_max_pair(low))
        with pytest.raises(errors.FloatRangeError, match="overflows the float range"):
            so.shifted_power_sup(mats)
        # kato's zero shift is inadmissible on the indefinite pair
        kato = errors.FloatRangeError if low > 0 else errors.DeltaTooLargeError
        with pytest.raises(kato):
            so.shifted_power_sup(mats, delta=0.0)

    def test_inverse_route(self):
        # a shift of 1.5e308 makes the indefinite pair invertible; at unit
        # scale neither the shift nor the iterates overflow
        mats = list(float_max_pair(-1e308))
        want = so.spectral_inf(mats)
        out = so.inverse_power_inf(mats, delta=1.5e308)
        assert so.operator_norm(out - want) <= 1e-6 * so.operator_norm(want)
        # the positive pair's inverse iterates stay below its largest eigenvalue
        mats = list(float_max_pair(1e308))
        want = so.spectral_inf(mats)
        assert so.operator_norm(so.inverse_power_inf(mats) - want) <= 1e-6 * so.operator_norm(want)

    @pytest.mark.parametrize("low", [-1e308, 1e308])
    @pytest.mark.parametrize("formula", ["shifted", "kato"])
    def test_cli_exit_code(self, tmp_path, capsys, low, formula):
        path = tmp_path / "top.json"
        doc = matrices_to_document(list(zip("xy", float_max_pair(low))))
        path.write_text(json.dumps(doc))
        code = main(["limits", "--input", str(path), "--formula", formula])
        err = capsys.readouterr().err
        want = "DeltaTooLargeError" if formula == "kato" and low < 0 else "FloatRangeError"
        assert code == (2 if want == "DeltaTooLargeError" else 3)
        assert err.startswith(f"error: {want}: ") and err.count("\n") == 1


class TestIteratesRunByHand:
    """The float-maximum sets iterated outside run_schedule: the generators
    themselves raise FloatRangeError, with no overflow warning."""

    @pytest.mark.parametrize("low,delta", [(-1e308, None), (1e308, None), (1e308, 0.0)])
    def test_sup_iterates(self, low, delta):
        with pytest.raises(errors.FloatRangeError, match="overflows the float range"):
            for _ in so.power_sup_iterates(list(float_max_pair(low)), delta=delta):
                pass

    def test_inverse_iterates(self):
        # run at unit scale, the indefinite pair's inverse iterates stay in range
        mats = list(float_max_pair(-1e308))
        want = so.spectral_inf(mats)
        for _, it in so.power_inf_iterates(mats, delta=1.5e308):
            pass
        assert so.operator_norm(it - want) <= 1e-6 * so.operator_norm(want)


CENSUS_ROWS = {
    "kato": ("positive", lambda m: so.power_sup_iterates(m, delta=0.0), so.spectral_sup),
    "inverse": ("positive_definite", so.power_inf_iterates, so.spectral_inf),
    "floor_shift": ("generic", so.power_sup_iterates, so.spectral_sup),
    "commuting": ("commuting_family", so.power_sup_iterates, so.spectral_sup),
    "projection": ("projection", so.power_sup_iterates, so.spectral_sup),
}


class TestIterateCensus:
    """Every iterate A_n, n = 2**6..2**24, is within about c/n of the lattice
    answer, c the constant of Kato's 1/n rate (4 to 9 on these sets): no
    iterate carries a spurious eigenvalue that the stopping rule would have
    to outlast."""

    @pytest.mark.parametrize("row", sorted(CENSUS_ROWS))
    def test_no_iterate_is_far_off(self, row):
        kind, iterates, lattice_route = CENSUS_ROWS[row]
        bad = []
        for dim in (8, 16):
            for count in (2, 3):
                for seed in (1, 2):
                    mats = gen(seed, dim=dim, kind=kind, count=count)
                    ref = lattice_route(mats)
                    scale = max(1.0, so.operator_norm(ref))
                    for n, it in iterates(mats):
                        if n > 2**24:
                            break
                        err = so.operator_norm(it - ref) / scale
                        if n >= 2**6 and err * n > 100.0:
                            bad.append((dim, count, seed, n, err))
        assert not bad


class TestNonFiniteShift:
    """A NaN or infinite shift is a bad parameter, refused before any
    eigendecomposition, on both power routes."""

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("route", [so.shifted_power_sup, so.inverse_power_inf])
    def test_refused_before_decomposing(self, monkeypatch, route, delta):
        def decomposed(m):
            raise AssertionError("a shift check ran after an eigendecomposition")

        monkeypatch.setattr(limits, "eigensystem", decomposed)
        with pytest.raises(errors.InvalidParameterError, match="shift must be finite"):
            route([A13, B22], delta=delta)


class TestShiftedPowerSup:
    def test_equal_scalars_need_no_factor(self):
        # The default shift is the common eigenvalue, so every shifted
        # eigenvalue is zero and the engine gets no factor at all.
        c = 2.5 * so.identity(3)
        assert np.array_equal(so.shifted_power_sup([c, c]).entries, c.entries)

    def test_rejects_shift_that_rounds_the_spectrum_away(self):
        mats = gen(1, dim=6, kind="positive_definite", count=3)
        with pytest.raises(errors.DeltaTooLargeError):
            so.shifted_power_sup(mats, delta=so.delta_floor(mats) - 1e17)

    def test_commuting_limit(self):
        out = so.shifted_power_sup([A13, B22], delta=0.0)
        assert np.allclose(out.entries, np.diag([2.0, 3.0]), atol=1e-7)

    def test_scalar_closed_form_iterate(self):
        # with delta = 0: A_n = diag((1 + 2^n)^(1/n), (3^n + 2^n)^(1/n))
        it = iterate_at([A13, B22], 4, delta=0.0)
        assert it.entries[0, 0].real == pytest.approx((1 + 2**4) ** 0.25, abs=1e-10)
        assert it.entries[1, 1].real == pytest.approx((3**4 + 2**4) ** 0.25, abs=1e-10)

    def test_projection_pair_converges_to_identity(self):
        p = h(np.diag([1.0, 0.0]))
        q = h([[0.5, 0.5], [0.5, 0.5]])
        out = so.shifted_power_sup([p, q], delta=0.0)
        assert so.operator_norm(out - so.identity(2)) < 1e-6

    def test_singleton_exact_at_every_exponent(self):
        m = gen(3, kind="generic")[0]
        for n, it in so.power_sup_iterates([m], delta=so.delta_floor([m]) - 2.0):
            assert so.operator_norm(it - m) < 1e-11
            if n >= 8:
                break

    def test_no_convergence_carries_last_iterate(self, monkeypatch):
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 3)
        with pytest.raises(errors.NoConvergenceError) as exc:
            so.shifted_power_sup(gen(3, count=2))
        assert isinstance(exc.value.last_iterate, so.HermitianMatrix)
        assert [n for n, _, _ in exc.value.trace] == [2, 4, 8]

    def test_rejects_delta_above_floor(self):
        with pytest.raises(errors.DeltaTooLargeError):
            so.shifted_power_sup([A13, B22], delta=1.5)

    def test_default_delta_is_floor(self):
        mats = gen(8, count=2)
        default = so.shifted_power_sup(mats)
        explicit = so.shifted_power_sup(mats, delta=so.delta_floor(mats))
        assert np.array_equal(default.entries, explicit.entries)

    @pytest.mark.parametrize("seed", range(6))
    def test_route_agreement(self, seed):
        mats = gen(seed, count=3)
        dev = so.operator_norm(so.shifted_power_sup(mats, delta=0.0) - so.spectral_sup(mats))
        assert dev < 1e-6

    def test_delta_invariance(self):
        mats = gen(13, count=3)
        floor = so.delta_floor(mats)
        answers = [so.shifted_power_sup(mats, delta=floor - off) for off in (0.0, 1.0, 10.0)]
        scale = 1.0 + so.operator_norm(answers[0])
        for a in answers:
            for b in answers:
                assert so.operator_norm(a - b) <= 2.0 * limits._STOP_TOL * scale

    def test_scaling_identity(self):
        mats = gen(4, count=2)
        scaled = [3.0 * m for m in mats]
        lhs = iterate_at(scaled, 8, delta=0.0)
        rhs = 3.0 * iterate_at(mats, 8, delta=0.0)
        assert so.operator_norm(lhs - rhs) < 1e-10

    def test_normalize_per_iterate_identity(self):
        # A_raw - A_norm = (1 - c^(-1/n)) (A_raw - delta I) exactly
        mats = gen(5, count=3)
        raw = iterate_at(mats, 8, delta=0.0)
        norm = iterate_at(mats, 8, delta=0.0, normalize=True)
        expected = (1.0 - 3.0 ** (-1.0 / 8.0)) * raw
        assert so.operator_norm((raw - norm) - expected) < 1e-12

    def test_normalize_same_limit(self):
        mats = gen(6, count=3)
        a = so.shifted_power_sup(mats, delta=0.0)
        b = so.shifted_power_sup(mats, delta=0.0, normalize=True)
        assert so.operator_norm(a - b) < 1e-7

    def test_monotone_scalar_sequences_commuting(self):
        # commuting PSD: each joint eigenvalue sequence (sum lam^n)^(1/n)
        # decreases toward the max
        raw = gen(7, kind="commuting_family", count=2)
        lift = 0.1 - so.delta_floor(raw)
        mats = [m + lift * so.identity(4) for m in raw]
        prev = None
        for n, it in so.power_sup_iterates(mats, delta=0.0):
            vals = so.eigensystem(it).eigenvalues
            if prev is not None:
                assert np.all(vals <= prev + 1e-10)
            prev = vals
            if n >= 64:
                break


class TestInversePowerInf:
    def test_commuting_limit(self, a=1.0):
        out = so.inverse_power_inf([a * A13, a * B22], delta=0.0)
        assert np.allclose(out.entries, a * np.diag([1.0, 2.0]), atol=1e-7 * a)

    @pytest.mark.parametrize("a", SMALL_SCALES)
    def test_commuting_limit_at_small_scale(self, a):
        self.test_commuting_limit(a)

    def test_singleton_exact(self):
        m = gen(2, kind="positive_definite")[0]
        out = so.inverse_power_inf([m], delta=1.0)
        assert so.operator_norm(out - m) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_route_agreement_within_forty_doublings(self, monkeypatch, seed, a=1.0):
        monkeypatch.setattr(limits, "_MAX_DOUBLINGS", 40)
        mats = [a * m for m in gen(seed, kind="positive_definite", count=2)]
        out = so.inverse_power_inf(mats, delta=0.0)
        assert so.operator_norm(out - so.spectral_inf(mats)) < 1e-6 * a

    @pytest.mark.parametrize("a", SMALL_SCALES)
    @pytest.mark.parametrize("seed", range(6))
    def test_route_agreement_at_small_scale(self, monkeypatch, seed, a):
        self.test_route_agreement_within_forty_doublings(monkeypatch, seed, a)

    def test_rejects_shift_that_rounds_the_spectrum_away(self):
        mats = gen(1, dim=6, kind="positive_definite", count=3)
        with pytest.raises(errors.DeltaTooLargeError):
            so.inverse_power_inf(mats, delta=1e17)

    def test_rejects_singular_shift(self, a=1.0):
        with pytest.raises(errors.NotInvertibleError):
            so.inverse_power_inf([a * h(np.diag([0.0, 1.0]))], delta=0.0)

    @pytest.mark.parametrize("a", SMALL_SCALES)
    def test_rejects_singular_shift_at_small_scale(self, a):
        self.test_rejects_singular_shift(a)

    def test_default_delta_reaches_unit_floor(self):
        mats = [h(np.diag([-2.0, 1.0]))]
        # default shift is max(0, s - floor) = 4 with s = 2, so x + delta I
        # has lambda_min exactly s
        out = so.inverse_power_inf(mats)
        assert so.operator_norm(out - mats[0]) < 1e-9


class TestHarmonicPairInf:
    def test_identity_pair(self):
        out = so.harmonic_pair_inf(so.identity(3), so.identity(3))
        assert so.operator_norm(out - so.identity(3)) < 1e-9

    def test_commuting_min(self, a=1.0):
        out = so.harmonic_pair_inf(a * h(np.diag([1.0, 4.0])), a * h(np.diag([4.0, 1.0])))
        assert np.allclose(out.entries, a * np.eye(2), atol=1e-7 * a)

    @pytest.mark.parametrize("a", SMALL_SCALES)
    def test_commuting_min_at_small_scale(self, a):
        self.test_commuting_min(a)

    @pytest.mark.parametrize("a", (1.0,) + SMALL_SCALES)
    def test_route_agreement(self, a):
        x, y = (a * m for m in gen(3, kind="positive_definite", count=2))
        out = so.harmonic_pair_inf(x, y)
        assert so.operator_norm(out - so.spectral_inf([x, y])) < 1e-6 * a

    def test_first_iterate_is_harmonic_mean(self):
        x, y = gen(9, kind="positive_definite", count=2)
        for n, it in so.power_inf_iterates([x, y], delta=0.0, normalize=True):
            assert n == 1
            hm = 2.0 * np.linalg.inv(
                np.linalg.inv(x.entries) + np.linalg.inv(y.entries)
            )
            assert np.allclose(it.entries, hm, atol=1e-10)
            break

    def test_same_iterates_as_normalized_inverse(self):
        x, y = gen(10, kind="positive_definite", count=2)
        a = so.harmonic_pair_inf(x, y)
        b = so.inverse_power_inf([x, y], delta=0.0, normalize=True)
        assert np.array_equal(a.entries, b.entries)

    def test_rejects_non_invertible(self, a=1.0):
        with pytest.raises(errors.NotInvertibleError):
            so.harmonic_pair_inf(a * h(np.diag([0.0, 1.0])), a * so.identity(2))

    @pytest.mark.parametrize("a", SMALL_SCALES)
    def test_rejects_non_invertible_at_small_scale(self, a):
        self.test_rejects_non_invertible(a)


class TestOrthogonalFormulas:
    X_BLOCKS = h(np.diag([1.0, -2.0, 0.0, 0.0]))
    Y_BLOCKS = h(np.diag([0.0, 0.0, 3.0, -1.0]))

    def test_block_sup(self):
        out = so.orthogonal_sup([self.X_BLOCKS, self.Y_BLOCKS])
        assert np.allclose(out.entries, np.diag([1.0, 0.0, 3.0, 0.0]), atol=1e-12)

    def test_block_inf(self):
        out = so.orthogonal_inf([self.X_BLOCKS, self.Y_BLOCKS])
        assert np.allclose(out.entries, np.diag([0.0, -2.0, 0.0, -1.0]), atol=1e-12)

    def test_projection_minus_orthogonal_projection(self):
        p = h(np.diag([1.0, 0.0]))
        q = h(np.diag([0.0, 1.0]))
        out = so.orthogonal_sup([p, -1.0 * q])
        assert np.allclose(out.entries, p.entries, atol=1e-12)
        out_inf = so.orthogonal_inf([p, q])
        assert np.allclose(out_inf.entries, 0.0, atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_lattice_routes(self, seed):
        mats = gen(seed, dim=6, kind="orthogonal_family", count=3)
        assert so.operator_norm(so.orthogonal_sup(mats) - so.spectral_sup(mats)) < 1e-8
        assert so.operator_norm(so.orthogonal_inf(mats) - so.spectral_inf(mats)) < 1e-8

    def test_rejects_overlapping(self, a=1.0):
        with pytest.raises(errors.NotOrthogonalError) as exc:
            so.orthogonal_sup([a * so.identity(2), a * h(np.diag([1.0, 0.0]))])
        assert "||x y||" in str(exc.value)

    @pytest.mark.parametrize("a", SMALL_SCALES)
    def test_rejects_overlapping_at_small_scale(self, a):
        self.test_rejects_overlapping(a)

    @pytest.mark.parametrize("a", (1.0,) + SMALL_SCALES)
    def test_rejects_generic_pair(self, a):
        x, y = gen(0, kind="generic", count=2)
        with pytest.raises(errors.NotOrthogonalError):
            so.orthogonal_sup([a * x, a * y])

    def test_rejects_singleton(self):
        with pytest.raises(errors.TooFewElementsError):
            so.orthogonal_sup([so.identity(2)])

    @pytest.mark.parametrize("a", [1e-200, 1e-160, 1e155, 1e200])
    def test_check_is_scale_free(self, a):
        # x y of two such elements overflows or underflows; each is taken
        # over its power-of-two scale first, so the family still answers
        # and a generic pair is still refused.
        mats = [a * m for m in gen(1, dim=4, kind="orthogonal_family", count=2)]
        for formula, lattice_op in ((so.orthogonal_sup, so.spectral_sup), (so.orthogonal_inf, so.spectral_inf)):
            want = lattice_op(mats)
            assert so.operator_norm(formula(mats) - want) <= 1e-12 * so.operator_norm(want)
        x, y = gen(0, kind="generic", count=2)
        with pytest.raises(errors.NotOrthogonalError):
            so.orthogonal_sup([a * x, a * y])
