import dataclasses

import numpy as np
import pytest

import spectralorder as so
from spectralorder import errors, harness, limits


def h(rows):
    return so.make_hermitian(np.asarray(rows, dtype=complex))


def eig2(m):
    # independent 2x2 oracle: eigenvalues from trace and determinant
    tr = float(np.real(m[0, 0] + m[1, 1]))
    det = float(np.real(m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]))
    disc = np.sqrt(max(tr * tr - 4.0 * det, 0.0))
    return (tr - disc) / 2.0, (tr + disc) / 2.0


# scales at which an absolute tolerance used to accept what it rejects at one
SMALL_SCALES = (1e-6, 1e-9)


class TestMakeHermitian:
    def test_diagonal_passthrough(self):
        m = h([[1, 0], [0, 2]])
        assert np.allclose(m.entries, np.diag([1.0, 2.0]))

    def test_conjugate_transpose_fixed_point(self):
        m = h([[0, 1j], [-1j, 0]])
        assert np.allclose(m.entries, [[0, 1j], [-1j, 0]])

    def test_strictly_upper_triangular_rejected(self, a=1.0):
        with pytest.raises(errors.NotHermitianError) as exc:
            so.make_hermitian(a * np.array([[0, 1], [0, 0]]))
        assert "(0,1)" in str(exc.value)

    @pytest.mark.parametrize("a", SMALL_SCALES)
    def test_strictly_upper_triangular_rejected_at_small_scale(self, a):
        self.test_strictly_upper_triangular_rejected(a)

    def test_non_square_rejected(self):
        with pytest.raises(errors.NonSquareError):
            so.make_hermitian([[1, 2, 3], [4, 5, 6]])

    def test_empty_rejected(self):
        with pytest.raises(errors.NonSquareError):
            so.make_hermitian(np.zeros((0, 0)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_non_finite_rejected(self, bad):
        # checked before the asymmetry test, which NaN comparisons pass
        with pytest.raises(errors.NonFiniteError):
            so.make_hermitian([[bad, 0], [0, 1]])

    def test_symmetrization_idempotent_exactly(self):
        rng = np.random.default_rng(3)
        raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        raw = (raw + raw.conj().T) / 2 + 1e-10 * rng.standard_normal((4, 4))
        once = so.make_hermitian(raw)
        twice = so.make_hermitian(once.entries)
        assert np.array_equal(once.entries, twice.entries)

    def test_dim_one_allowed(self):
        assert h([[5]]).dim == 1

    def test_large_scale_roundoff_accepted(self):
        # G G* with entries near 1.5e19: its asymmetry is roundoff, far
        # above an absolute cluster_tol but tiny relative to the entries.
        rng = np.random.default_rng(11)
        g = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
        raw = g @ g.conj().T
        raw *= 1.5e19 / np.max(np.abs(raw))
        assert np.max(np.abs(raw - raw.conj().T)) > so.DEFAULT_TOL.cluster_tol
        assert np.array_equal(so.make_hermitian(raw).entries, so.HermitianMatrix(raw).entries)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_asymmetry_near_float_maximum_is_finite(self):
        # a - a* would overflow; its halves do not, so the refusal reports a number
        with pytest.raises(errors.NotHermitianError) as exc:
            so.make_hermitian([[0, 1.7e308], [-1.7e308, 0]])
        assert "= 1.700e+308 at entries (0,1)/(1,0)" in str(exc.value)


class TestEigensystem:
    def test_sorts_ascending(self):
        es = so.eigensystem(h([[3, 0], [0, 1]]))
        assert np.allclose(es.eigenvalues, [1.0, 3.0])
        # eigenvectors are the permuted identity up to phase
        assert np.allclose(np.abs(es.eigenvectors), [[0, 1], [1, 0]])

    def test_symmetric_offdiagonal(self):
        es = so.eigensystem(h([[0, 1], [1, 0]]))
        assert np.allclose(es.eigenvalues, [-1.0, 1.0])
        assert np.allclose(np.abs(es.eigenvectors), np.full((2, 2), 1 / np.sqrt(2)))

    def test_seeded_reconstruction_residual(self):
        m = so.gen_instances(so.InstanceSpec(dim=5, seed=42, kind="generic"))[0]
        es = so.eigensystem(m)
        rebuilt = (es.eigenvectors * es.eigenvalues) @ es.eigenvectors.conj().T
        assert np.linalg.norm(rebuilt - m.entries) < 1e-10

    def test_unitary_eigenvectors(self):
        m = so.gen_instances(so.InstanceSpec(dim=6, seed=1, kind="generic"))[0]
        u = so.eigensystem(m).eigenvectors
        assert np.allclose(u.conj().T @ u, np.eye(6), atol=1e-12)


class TestEigenFailure:
    """A backend non-convergence surfaces as EigenFailureError (exit 3) on
    every route, never as a bare LinAlgError."""

    @pytest.fixture(autouse=True)
    def failing_eigh(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "eigvalsh", fail)

    def test_proj_meet(self):
        # The validation's eigendecomposition also yields the kernel bases.
        p = so.Projection(so.identity(2))
        with pytest.raises(errors.EigenFailureError):
            so.proj_meet([p, p])

    def test_graded_root_engine(self):
        with pytest.raises(errors.EigenFailureError):
            vectors = np.eye(2)
            limits._graded_root_pairs(np.zeros(2), vectors, 1.0, limits._residual_tables(vectors))

    @pytest.mark.parametrize("kind", ["generic", "positive"])
    def test_instance_generator(self, kind):
        with pytest.raises(errors.EigenFailureError):
            so.gen_instances(so.InstanceSpec(dim=3, seed=0, kind=kind))

    def test_commuting_oracle(self):
        with pytest.raises(errors.EigenFailureError):
            harness._refine_blocks(np.eye(2), [np.eye(2)], 1e-8)

    @pytest.mark.parametrize("op", [so.spectral_sup, so.spectral_inf], ids=["spectral_sup", "spectral_inf"])
    def test_lattice_route(self, op):
        with pytest.raises(errors.EigenFailureError):
            op([h([[1, 0], [0, 2]]), h([[3, 1], [1, 4]])])


class TestSvdFailure:
    """A backend SVD failure surfaces as EigenFailureError, 2-norms included
    (numpy computes them by an SVD)."""

    @pytest.fixture(autouse=True)
    def failing_svd(self, monkeypatch):
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(np.linalg, "svd", fail)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: so.spectral_leq(h([[1, 0], [0, 0]]), h([[1.5, 0.5], [0.5, 0.5]])),
            lambda: so.proj_leq(so.Projection(h([[1, 0], [0, 0]])), so.Projection(h([[0.5, 0.5], [0.5, 0.5]]))),
            lambda: so.orthogonal_sup([h([[1, 0], [0, 0]]), h([[0, 0], [0, 2]])]),
            lambda: so.alternating_meet_oracle(so.Projection(so.identity(2)), so.Projection(so.identity(2))),
            lambda: so.commuting_oracle([h([[1, 0], [0, 2]]), h([[3, 0], [0, 4]])], "sup"),
            lambda: so.proj_meet([so.Projection(h([[1, 0], [0, 0]])), so.Projection(h([[0.5, 0.5], [0.5, 0.5]]))]),
            lambda: so.proj_join([so.Projection(h([[1, 0], [0, 0]])), so.Projection(h([[0.5, 0.5], [0.5, 0.5]]))]),
            lambda: so.spectral_sup([h([[1, 0], [0, 2]]), h([[3, 1], [1, 4]])]),
        ],
        ids=[
            "spectral_leq", "proj_leq", "orthogonal_sup", "alternating_meet", "commuting_oracle",
            "proj_meet", "proj_join", "spectral_sup",
        ],
    )
    def test_raises_eigen_failure(self, call):
        with pytest.raises(errors.EigenFailureError):
            call()


class TestLoewner:
    def test_commuting_dominance(self):
        assert so.loewner_leq(h([[1, 0], [0, 2]]), h([[2, 0], [0, 3]]))

    def test_noncommuting_psd_difference(self):
        x = h([[1, 0], [0, 0]])
        y = h([[1.5, 0.5], [0.5, 0.5]])
        lo, hi = eig2(y.entries - x.entries)
        assert lo >= -1e-12 and np.isclose(hi, 1.0)
        assert so.loewner_leq(x, y)

    def test_indefinite_difference(self):
        x = h([[1, 1], [1, 1]])
        y = h([[2, 0], [0, 1]])
        lo, _ = eig2(y.entries - x.entries)
        assert lo < -0.1
        assert not so.loewner_leq(x, y)

    def test_reflexive(self):
        m = so.gen_instances(so.InstanceSpec(dim=4, seed=9, kind="generic"))[0]
        assert so.loewner_leq(m, m)

    def test_antisymmetry_at_tolerance(self):
        m = so.gen_instances(so.InstanceSpec(dim=3, seed=2, kind="generic"))[0]
        bump = np.full((3, 3), 1e-13)
        y = m + so.HermitianMatrix(bump)
        assert so.loewner_leq(m, y) and so.loewner_leq(y, m)
        assert so.operator_norm(m - y) <= 2 * 3 * 1e-9 * (1 + 2 * so.operator_norm(m))

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatchError):
            so.loewner_leq(h([[1]]), h([[1, 0], [0, 1]]))


class TestFunctionalCalculus:
    def test_sqrt(self):
        out = so.functional_calculus(h([[1, 0], [0, 4]]), np.sqrt)
        assert np.allclose(out.entries, np.diag([1.0, 2.0]))

    def test_identity_map(self):
        m = so.gen_instances(so.InstanceSpec(dim=4, seed=4, kind="generic"))[0]
        out = so.functional_calculus(m, lambda s: s)
        assert so.operator_norm(out - m) < 1e-12

    def test_positive_part_of_offdiagonal(self):
        # positive part of [[0,1],[1,0]] projects onto the +1 eigenvector
        out = so.functional_calculus(h([[0, 1], [1, 0]]), lambda s: max(s, 0.0))
        assert np.allclose(out.entries, [[0.5, 0.5], [0.5, 0.5]], atol=1e-12)

    def test_spectral_mapping(self):
        m = so.gen_instances(so.InstanceSpec(dim=5, seed=8, kind="generic"))[0]
        f = lambda s: s**3 - 2.0 * s
        mapped = np.sort([f(v) for v in so.eigensystem(m).eigenvalues])
        got = so.eigensystem(so.functional_calculus(m, f)).eigenvalues
        assert np.allclose(got, mapped, atol=1e-9)


class TestParts:
    def test_positive_part_diagonal(self):
        assert np.allclose(so.positive_part(h([[1, 0], [0, -2]])).entries, np.diag([1.0, 0.0]))

    def test_psd_fixed_point(self):
        m = so.gen_instances(so.InstanceSpec(dim=4, seed=6, kind="positive"))[0]
        assert so.operator_norm(so.positive_part(m) - m) < 1e-12

    def test_bounds(self):
        m = so.gen_instances(so.InstanceSpec(dim=4, seed=5, kind="generic"))[0]
        plus = so.positive_part(m)
        assert so.loewner_leq(m, plus)
        assert so.loewner_leq(so.zero(4), plus)

    def test_decomposition(self):
        m = so.gen_instances(so.InstanceSpec(dim=4, seed=11, kind="generic"))[0]
        diff = so.positive_part(m) - so.negative_part(m)
        assert so.operator_norm(diff - m) < 1e-12


class TestOperatorNorm:
    def test_diagonal(self):
        assert so.operator_norm(h([[1, 0], [0, -3]])) == pytest.approx(3.0)

    def test_zero(self):
        assert so.operator_norm(so.zero(3)) == 0.0

    def test_offdiagonal(self):
        assert so.operator_norm(h([[0, 2], [2, 0]])) == pytest.approx(2.0)


class TestTolerances:
    def test_defaults_valid(self):
        t = so.Tolerances()
        assert t.cluster_tol > 0 and t.psd_tol >= 0
        assert so.Tolerances(max_power_doublings=1000).max_power_doublings == 1000
        assert so.Tolerances(max_power_doublings=np.int64(3)).max_power_doublings == 3

    def test_fields(self):
        names = [f.name for f in dataclasses.fields(so.Tolerances)]
        assert names == ["cluster_tol", "psd_tol", "max_power_doublings"]

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"cluster_tol": 0.0},
            {"cluster_tol": float("inf")},
            {"psd_tol": -1e-3},
            {"psd_tol": float("nan")},
            {"max_power_doublings": 0},
            # 2**k times the largest log-ratio of two positive doubles overflows past k = 1013
            {"max_power_doublings": 1001},
            {"psd_tol": float("inf")},
            {"max_power_doublings": 2.7},
            {"max_power_doublings": 3.0},
            {"max_power_doublings": True},
        ],
    )
    def test_rejects_bad_fields(self, kwargs):
        with pytest.raises(ValueError):
            so.Tolerances(**kwargs)


class TestPairCheckMessage:
    """A structure-oracle refusal reports ||product|| / (||x|| ||y||), which
    reads the same at every scale."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("a", [1e-200, 1.0, 1e200])
    def test_relative_size_at_every_scale(self, a):
        x, y = so.gen_instances(so.InstanceSpec(dim=3, seed=0, kind="generic", count=2))
        norm = lambda m: np.linalg.norm(m, 2)  # noqa: E731
        size = norm(x.entries) * norm(y.entries)
        for refuse, product in (
            (so.orthogonal_sup, x.entries @ y.entries),
            (lambda ms: so.commuting_oracle(ms, "sup"), x.entries @ y.entries - y.entries @ x.entries),
        ):
            with pytest.raises((errors.NotOrthogonalError, errors.NotCommutingError)) as exc:
                refuse([a * x, a * y])
            reported = float(str(exc.value).rstrip(")").rsplit(" = ", 1)[1])
            assert reported == pytest.approx(norm(product) / size, rel=1e-3)


class TestBareConstructorNonFinite:
    """The constructor itself rejects NaN and infinity, so no operation can
    reach a verdict on such a matrix, whichever way it was built."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
    def test_constructor_rejects(self, bad):
        with pytest.raises(errors.NonFiniteError):
            so.HermitianMatrix(np.array([[bad, 0], [0, 1]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize(
        "op",
        [so.spectral_leq, lambda x, y: so.spectral_sup([x, y]), so.loewner_leq],
        ids=["spectral_leq", "spectral_sup", "loewner_leq"],
    )
    def test_operations_raise(self, op, bad):
        raw = np.array([[bad, 0], [0, 1]])
        with pytest.raises(errors.NonFiniteError):
            op(so.HermitianMatrix(raw), so.HermitianMatrix(raw))

    def test_overflowing_arithmetic_raises(self):
        big = so.HermitianMatrix(np.array([[1e308, 1e308], [1e308, -1e308]]))
        assert np.array_equal(big.entries, [[1e308, 1e308], [1e308, -1e308]])
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(errors.NonFiniteError):
            big * 10.0


class TestSpectrumBeyondTheFloatRange:
    """Finite entries whose largest eigenvalue, about 3.1e308, is not a
    float: every route refuses with a typed error instead of answering
    from an infinite eigenvalue."""

    BIG = so.HermitianMatrix(np.array([[1.7e308, 1.7e308], [1.7e308, 1e308]]))

    @pytest.mark.parametrize(
        "op",
        [
            lambda m: so.monotone_probe(m, m),
            lambda m: so.spectral_leq(m, m),
            lambda m: so.borderline_gap(m, m),
            lambda m: so.loewner_leq(m, m),
            lambda m: so.spectral_sup([m, m]),
            lambda m: so.shifted_power_sup([m, m]),
        ],
        ids=[
            "monotone_probe", "spectral_leq", "borderline_gap",
            "loewner_leq", "spectral_sup", "shifted_power_sup",
        ],
    )
    def test_refused(self, op):
        with pytest.raises(errors.FloatRangeError, match="exceeds the float range"):
            op(self.BIG)


class TestArithmetic:
    def test_add_sub_scale(self):
        a = h([[1, 0], [0, 2]])
        b = h([[0, 1], [1, 0]])
        assert np.allclose((a + b).entries, [[1, 1], [1, 2]])
        assert np.allclose((a - b).entries, [[1, -1], [-1, 2]])
        assert np.allclose((2.0 * a).entries, np.diag([2.0, 4.0]))
        assert np.allclose((-a).entries, np.diag([-1.0, -2.0]))

    def test_entries_immutable(self):
        a = h([[1, 0], [0, 2]])
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0
