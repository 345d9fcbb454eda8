import numpy as np
import pytest

import spectralorder as so
from spectralorder import errors, limits
from spectralorder.limits import _graded_root_pairs


def h(rows):
    return so.make_hermitian(np.asarray(rows, dtype=complex))


def gen(seed, dim=4, kind="positive", count=1):
    return so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind=kind, count=count))


A13 = h(np.diag([1.0, 3.0]))
B22 = h(np.diag([2.0, 2.0]))


def iterate_at(mats, n, **kwargs):
    for k, it in so.power_sup_iterates(mats, **kwargs):
        if k == n:
            return it
    raise AssertionError(f"exponent {n} not in schedule")


class TestExponentLadder:
    def test_ladder_doubles_up_to_the_cap(self):
        iterates = so.power_sup_iterates(gen(2, count=2), tol=so.Tolerances(max_power_doublings=5))
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
        logs, cols = _graded_root_pairs(log_w, vecs, inv_exponent)
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
        logs, cols = _graded_root_pairs(log_w, q, inv_exponent)
        assert np.allclose(logs, inv_exponent * log_w, rtol=0.0, atol=1e-12)
        assert np.allclose(np.abs(q.T @ cols), np.eye(4), rtol=0.0, atol=1e-12)

    def test_factors_in_a_subspace_give_its_rank(self):
        vecs = np.zeros((4, 3), dtype=complex)
        vecs[:2] = [[1.0, 0.0, 0.6], [0.0, 1.0, 0.8]]
        logs, cols = _graded_root_pairs(np.array([0.0, -1.0, -2.0]), vecs, 1.0)
        assert logs.shape == (2,) and cols.shape == (4, 2)


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

    def test_no_convergence_carries_last_iterate(self):
        with pytest.raises(errors.NoConvergenceError) as exc:
            so.shifted_power_sup(gen(3, count=2), tol=so.Tolerances(max_power_doublings=3))
        assert isinstance(exc.value.last_iterate, so.HermitianMatrix)
        assert [n for n, _ in exc.value.trace] == [2, 4, 8]

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
    def test_commuting_limit(self):
        out = so.inverse_power_inf([A13, B22], delta=0.0)
        assert np.allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-7)

    def test_singleton_exact(self):
        m = gen(2, kind="positive_definite")[0]
        out = so.inverse_power_inf([m], delta=1.0)
        assert so.operator_norm(out - m) < 1e-9

    @pytest.mark.parametrize("seed", range(6))
    def test_route_agreement_within_forty_doublings(self, seed):
        mats = gen(seed, kind="positive_definite", count=2)
        out = so.inverse_power_inf(mats, delta=0.0, tol=so.Tolerances(max_power_doublings=40))
        assert so.operator_norm(out - so.spectral_inf(mats)) < 1e-6

    def test_rejects_shift_that_rounds_the_spectrum_away(self):
        mats = gen(1, dim=6, kind="positive_definite", count=3)
        with pytest.raises(errors.DeltaTooLargeError):
            so.inverse_power_inf(mats, delta=1e17)

    def test_rejects_singular_shift(self):
        with pytest.raises(errors.NotInvertibleError):
            so.inverse_power_inf([h(np.diag([0.0, 1.0]))], delta=0.0)

    def test_default_delta_reaches_unit_floor(self):
        mats = [h(np.diag([-2.0, 1.0]))]
        # default shift is max(0, 1 - floor) = 3, so x + delta I has
        # lambda_min exactly 1
        out = so.inverse_power_inf(mats)
        assert so.operator_norm(out - mats[0]) < 1e-9


class TestHarmonicPairInf:
    def test_identity_pair(self):
        out = so.harmonic_pair_inf(so.identity(3), so.identity(3))
        assert so.operator_norm(out - so.identity(3)) < 1e-9

    def test_commuting_min(self):
        out = so.harmonic_pair_inf(h(np.diag([1.0, 4.0])), h(np.diag([4.0, 1.0])))
        assert np.allclose(out.entries, np.eye(2), atol=1e-7)

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

    def test_rejects_non_invertible(self):
        with pytest.raises(errors.NotInvertibleError):
            so.harmonic_pair_inf(h(np.diag([0.0, 1.0])), so.identity(2))


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

    def test_rejects_overlapping(self):
        with pytest.raises(errors.NotOrthogonalError) as exc:
            so.orthogonal_sup([so.identity(2), h(np.diag([1.0, 0.0]))])
        assert "||x y||" in str(exc.value)

    def test_rejects_singleton(self):
        with pytest.raises(errors.TooFewElementsError):
            so.orthogonal_sup([so.identity(2)])
