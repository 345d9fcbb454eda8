import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spectralorder as so
from spectralorder import errors
from spectralorder.family import SpectralFamily, cluster_values


def h(rows):
    return so.make_hermitian(np.asarray(rows, dtype=complex))


GAP_X = h([[1, 0], [0, 0]])
GAP_Y = h([[1.5, 0.5], [0.5, 0.5]])  # Loewner-above GAP_X but not spectral-above


class TestClusterValues:
    def test_merges_near_ties(self):
        reps = cluster_values([1.0, 1.0 + 1e-12, 2.0], 1e-8)
        assert np.allclose(reps, [1.0, 2.0])

    def test_keeps_separated(self):
        reps = cluster_values([0.0, 0.5, 1.0], 1e-8)
        assert np.allclose(reps, [0.0, 0.5, 1.0])


class TestSpectralFamilyOf:
    def test_diagonal(self):
        sf = so.spectral_family_of(h([[1, 0], [0, 2]]))
        assert np.allclose(sf.breakpoints, [1.0, 2.0])
        assert np.allclose(sf.projections[0].entries, np.diag([1.0, 0.0]))
        assert np.allclose(sf.projections[1].entries, np.eye(2))

    def test_identity_single_breakpoint(self):
        sf = so.spectral_family_of(so.identity(4))
        assert sf.breakpoints.shape == (1,)
        assert sf.breakpoints[0] == pytest.approx(1.0)
        assert np.allclose(sf.projections[0].entries, np.eye(4))

    def test_offdiagonal_projections(self):
        sf = so.spectral_family_of(h([[0, 1], [1, 0]]))
        assert np.allclose(sf.breakpoints, [-1.0, 1.0])
        assert np.allclose(sf.projections[0].entries, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-12)
        assert np.allclose(sf.projections[1].entries, np.eye(2))

    def test_monotone_ranks(self):
        m = so.gen_instances(so.InstanceSpec(dim=6, seed=4, kind="generic"))[0]
        sf = so.spectral_family_of(m)
        ranks = [p.rank for p in sf.projections]
        assert ranks == sorted(ranks)
        assert ranks[0] >= 1 and ranks[-1] == 6


class TestEvaluateAt:
    def test_between_breakpoints(self):
        sf = so.spectral_family_of(h([[1, 0], [0, 2]]))
        assert np.allclose(so.evaluate_at(sf, 1.5).entries, np.diag([1.0, 0.0]))

    def test_below_spectrum_is_zero(self):
        m = so.gen_instances(so.InstanceSpec(dim=3, seed=7, kind="generic"))[0]
        sf = so.spectral_family_of(m)
        p = so.evaluate_at(sf, -so.operator_norm(m) - 1.0)
        assert np.allclose(p.entries, 0.0)

    def test_right_continuous_at_breakpoint(self):
        sf = so.spectral_family_of(h([[1, 0], [0, 2]]))
        assert np.allclose(so.evaluate_at(sf, 1.0).entries, np.diag([1.0, 0.0]))

    def test_above_spectrum_is_identity(self):
        sf = so.spectral_family_of(h([[1, 0], [0, 2]]))
        assert np.allclose(so.evaluate_at(sf, 99.0).entries, np.eye(2))


class TestReconstruct:
    def test_identity_family(self):
        sf = SpectralFamily(np.array([1.0]), np.eye(3), np.array([3]))
        assert np.allclose(so.reconstruct(sf).entries, np.eye(3))

    def test_round_trip_diagonal(self):
        m = h([[1, 0], [0, 2]])
        assert so.operator_norm(so.reconstruct(so.spectral_family_of(m)) - m) < 1e-12

    def test_round_trip_seeded(self):
        m = so.gen_instances(so.InstanceSpec(dim=6, seed=123, kind="generic"))[0]
        back = so.reconstruct(so.spectral_family_of(m))
        assert np.linalg.norm(back.entries - m.entries) < 1e-9

    def test_rejects_family_not_ending_at_identity(self):
        sf = SpectralFamily(np.array([0.0]), np.eye(2), np.array([1]))
        with pytest.raises(errors.InvalidFamilyError):
            so.reconstruct(sf)

    def test_rejects_non_monotone_family(self):
        # values (identity, p, identity) with p of rank 1
        with pytest.raises(errors.InvalidFamilyError):
            SpectralFamily(np.array([0.0, 1.0, 2.0]), np.eye(2), np.array([2, 1, 2]))

    def test_rejects_non_orthonormal_vectors(self):
        sf = SpectralFamily(np.array([0.0, 1.0]), np.array([[1.0, 1.0], [0.0, 1.0]]), np.array([1, 2]))
        with pytest.raises(errors.InvalidFamilyError, match="orthonormal"):
            so.reconstruct(sf)


class TestSpectralFamilyConstructor:
    @pytest.mark.parametrize(
        "breakpoints, vectors, ranks",
        [
            pytest.param([], np.eye(2), [], id="no-breakpoint"),
            pytest.param([[0.0, 1.0]], np.eye(2), [[1, 2]], id="breakpoints-not-1d"),
            pytest.param([0.0, 1.0], np.eye(2), [2], id="length-mismatch"),
            pytest.param([0.0, 1.0], np.eye(2), [1.0, 2.0], id="float-ranks"),
            pytest.param([0.0, 1.0], np.eye(3)[:, :2], [1, 2], id="non-square-vectors"),
            pytest.param([1.0, 1.0], np.eye(2), [1, 2], id="repeated-breakpoint"),
            pytest.param([1.0, 0.0], np.eye(2), [1, 2], id="descending-breakpoints"),
            pytest.param([0.0, np.nan], np.eye(2), [1, 2], id="nan-breakpoint"),
            pytest.param([0.0, 1.0], np.eye(2), [0, 2], id="first-rank-zero"),
            pytest.param([0.0, 1.0], np.eye(2), [1, 1], id="rank-not-rising"),
            pytest.param([0.0, 1.0], np.eye(2), [1, 3], id="rank-above-dim"),
        ],
    )
    def test_rejects_broken_invariant(self, breakpoints, vectors, ranks):
        with pytest.raises(errors.InvalidFamilyError):
            SpectralFamily(np.array(breakpoints), vectors, np.array(ranks))

    def test_fields_are_read_only(self):
        vectors = np.eye(2, dtype=complex)
        sf = SpectralFamily(np.array([0.0, 1.0]), vectors, np.array([1, 2]))
        for a in (sf.breakpoints, sf.vectors, sf.ranks):
            with pytest.raises(ValueError):
                a[0] = 0
        assert vectors.flags.writeable  # the caller's array is not frozen


class TestSpectralLeq:
    def test_commuting_pair_holds(self):
        v = so.spectral_leq(h([[1, 0], [0, 2]]), h([[2, 0], [0, 3]]))
        assert v.holds and v.witness_lambda is None

    def test_loewner_spectral_gap_fixture(self):
        assert so.loewner_leq(GAP_X, GAP_Y)
        v = so.spectral_leq(GAP_X, GAP_Y)
        assert not v.holds
        # smallest eigenvalue of GAP_Y is (2 - sqrt(2))/2; the failure must
        # show up there, before the spectra agree again at lambda >= 1
        assert 0.5 * (2 - np.sqrt(2)) - 1e-9 <= v.witness_lambda < 1.0
        assert v.defect > 0

    def test_reflexive(self):
        m = so.gen_instances(so.InstanceSpec(dim=5, seed=3, kind="generic"))[0]
        assert so.spectral_leq(m, m).holds

    def test_antisymmetry_at_tolerance(self):
        m = so.gen_instances(so.InstanceSpec(dim=4, seed=17, kind="generic"))[0]
        y = m + so.HermitianMatrix(np.full((4, 4), 1e-13))
        assert so.spectral_leq(m, y).holds and so.spectral_leq(y, m).holds
        assert so.operator_norm(m - y) <= 2 * 4 * so.DEFAULT_TOL.cluster_tol

    def test_projection_order_equivalence(self):
        # restricted to projections the spectral and Loewner orders coincide
        for seed in range(30):
            p = so.gen_instances(so.InstanceSpec(dim=4, seed=seed, kind="projection"))[0]
            q = so.gen_instances(so.InstanceSpec(dim=4, seed=seed + 1000, kind="projection"))[0]
            assert so.spectral_leq(p, q).holds == so.loewner_leq(p, q)

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatchError):
            so.spectral_leq(h([[1]]), so.identity(2))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 6))
    def test_spectral_implies_loewner(self, seed, dim):
        x, r = so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind="generic", count=2))
        u = so.spectral_sup([x, r])
        assert so.spectral_leq(x, u).holds
        assert so.loewner_leq(x, u)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
    def test_affine_covariance_of_verdict(self, seed, dim):
        x, y = so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind="generic", count=2))
        u = so.spectral_sup([x, y])
        eye = so.identity(dim)
        for a, b in ((2.0, -1.0), (0.5, 3.0)):
            assert so.spectral_leq(a * x + b * eye, a * u + b * eye).holds
        assert so.spectral_leq(y, x).holds == so.spectral_leq(
            2.0 * y + eye, 2.0 * x + eye
        ).holds

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 6))
    def test_round_trip_property(self, seed, dim):
        m = so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind="generic"))[0]
        back = so.reconstruct(so.spectral_family_of(m))
        assert so.operator_norm(back - m) < 1e-9


def dense_leq(x, y, tol=so.DEFAULT_TOL):
    """Reference for spectral_leq: the dense family values on the merged
    grid and the defect ||p - q p|| of each pair of them."""
    sf_x, sf_y = so.spectral_family_of(x, tol), so.spectral_family_of(y, tol)
    grid = cluster_values(
        np.concatenate([sf_x.breakpoints, sf_y.breakpoints]), tol.cluster_tol
    )
    for lam in grid:
        p = so.evaluate_at(sf_y, lam + tol.cluster_tol).entries
        q = so.evaluate_at(sf_x, lam + tol.cluster_tol).entries
        defect = float(np.linalg.norm(p - q @ p, 2))
        if defect > 10.0 * tol.psd_tol:
            return False, float(lam), defect
    return True, None, None


def seeded_pairs():
    for seed in range(6):
        for kind in ("generic", "positive", "projection"):
            dim = 3 + seed
            x, r = so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind=kind, count=2))
            half = 0.5 * so.identity(dim)
            yield x, so.spectral_sup([x, r])
            yield so.spectral_inf([x, r]), x
            yield x, x + half
            yield x, r
            yield r, x
            yield x, x - half


def rotated(dim, plane, angle):
    """diag(1, ..., dim) with its eigenbasis turned by ``angle`` in the
    coordinate plane (plane, plane + 1)."""
    u = np.eye(dim)
    c, s = np.cos(angle), np.sin(angle)
    u[plane : plane + 2, plane : plane + 2] = [[c, -s], [s, c]]
    return so.HermitianMatrix(u @ np.diag(np.arange(1.0, dim + 1)) @ u.T)


class TestCompactComparison:
    def test_matches_dense_reference(self):
        outcomes = set()
        for x, y in seeded_pairs():
            v = so.spectral_leq(x, y)
            holds, witness, defect = dense_leq(x, y)
            outcomes.add(holds)
            assert v.holds == holds
            assert v.witness_lambda == witness
            if not holds:
                assert abs(v.defect - defect) <= 1e-12
        assert outcomes == {True, False}

    def test_holding_pair_needs_no_exact_norm(self, monkeypatch):
        # Every block of a holding pair is roundoff, so the Frobenius screen
        # settles each grid point without an SVD.
        x, r = so.gen_instances(so.InstanceSpec(dim=16, seed=8, kind="generic", count=2))
        top = so.spectral_sup([x, r])
        exact = []
        norm = np.linalg.norm

        def counting_norm(a, ord=None, **kwargs):
            if ord == 2:
                exact.append(a.shape)
            return norm(a, ord, **kwargs)

        monkeypatch.setattr(np.linalg, "norm", counting_norm)
        assert so.spectral_leq(x, top).holds
        assert so.spectral_leq(r, top).holds
        assert exact == []

    @pytest.mark.parametrize(
        "angle, psd_tol, holds",
        [
            (1.2e-8, 1e-9, False),
            (0.8e-8, 1e-9, True),
            (1e-7, 0.99e-8, False),
            (1e-7, 1.01e-8, True),
        ],
    )
    def test_violation_next_to_threshold(self, angle, psd_tol, holds):
        # x = diag(1..6); y turns the eigenvectors of 3 and 4 by ``angle``,
        # so the only violation is at lambda = 3, with defect sin(angle),
        # one block of the cross-Gram matrix beside blocks of exact zeros.
        tol = so.Tolerances(psd_tol=psd_tol)
        v = so.spectral_leq(rotated(6, 0, 0.0), rotated(6, 2, angle), tol)
        assert v.holds == holds
        assert dense_leq(rotated(6, 0, 0.0), rotated(6, 2, angle), tol)[0] == holds
        if not holds:
            assert v.witness_lambda == pytest.approx(3.0)
            assert abs(v.defect - np.sin(angle)) <= 1e-12


class TestBorderline:
    def test_flags_gap_inside_band(self):
        # max|lambda| in (0.5, 1] puts the width at cluster_tol: 5e-8 is five widths
        x = h(np.diag([0.5, 0.5 + 5e-8]))
        assert so.borderline_gap(x, x)

    def test_clean_spectra_not_flagged(self):
        x = h(np.diag([0.0, 1.0]))
        y = h(np.diag([2.0, 3.0]))
        assert not so.borderline_gap(x, y)

    def test_flags_chained_cluster(self):
        # 20 eigenvalues 0.9 * cluster_tol apart (max|lambda| in (0.5, 1], so
        # the width is cluster_tol) merge into one cluster 1.7e-7 wide: no
        # single gap is borderline, the chain is.
        x = h(np.diag(0.5 + 0.9e-8 * np.arange(20)))
        y = float(np.mean(np.diag(x.entries).real)) * so.identity(20)
        assert so.spectral_leq(x, y).holds and so.spectral_leq(y, x).holds
        assert so.borderline_gap(x, y)

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatchError):
            so.borderline_gap(so.identity(2), so.identity(3))


class TestProjectionType:
    def test_rank_and_complement(self):
        p = so.Projection(h([[1, 0], [0, 0]]))
        assert p.rank == 1

    def test_is_projection(self):
        assert so.is_projection(so.identity(3))
        assert so.is_projection(so.zero(3))
        assert not so.is_projection(h([[0.3, 0], [0, 1.0]]))
