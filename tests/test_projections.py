import numpy as np
import pytest

import spectralorder as so
from spectralorder import errors

from near_alignment import NEAR_ANGLES, near_aligned_pair


def h(rows):
    return so.make_hermitian(np.asarray(rows, dtype=complex))


def proj(rows):
    return so.Projection(h(rows))


P_E1 = proj([[1, 0], [0, 0]])
P_DIAGLINE = proj([[0.5, 0.5], [0.5, 0.5]])


def seeded_pair(seed, dim=4):
    p = so.Projection(so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind="projection"))[0])
    q = so.Projection(so.gen_instances(so.InstanceSpec(dim=dim, seed=seed + 500, kind="projection"))[0])
    return p, q


class TestProjLeq:
    def test_zero_below_everything(self):
        assert so.proj_leq(so.Projection.zero(2), P_DIAGLINE)

    def test_below_identity(self):
        assert so.proj_leq(P_E1, so.Projection.identity(2))

    def test_distinct_lines_incomparable(self):
        assert not so.proj_leq(P_E1, P_DIAGLINE)
        # defect is the sine of the principal angle: 1/sqrt(2) here
        from spectralorder.family import range_defect

        assert range_defect(P_E1, P_DIAGLINE) == pytest.approx(1 / np.sqrt(2))

    @pytest.mark.parametrize(
        "op",
        [
            lambda p, q: so.proj_leq(p, q),
            lambda p, q: so.proj_meet([p, q]),
            lambda p, q: so.proj_join([p, q]),
        ],
        ids=["proj_leq", "proj_meet", "proj_join"],
    )
    def test_rejects_non_projection(self, op):
        with pytest.raises(errors.NotProjectionError):
            op(so.Projection(h([[0.5, 0], [0, 0]])), P_E1)

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatchError):
            so.proj_leq(so.Projection.identity(2), so.Projection.identity(3))


class TestMeetJoin:
    def test_meet_idempotent(self):
        out = so.proj_meet([P_DIAGLINE, P_DIAGLINE])
        assert np.allclose(out.entries, P_DIAGLINE.entries, atol=1e-12)

    def test_distinct_lines_meet_trivially(self):
        out = so.proj_meet([P_E1, P_DIAGLINE])
        assert np.allclose(out.entries, 0.0, atol=1e-12)

    def test_commuting_meet_is_entrywise_min(self):
        a = proj(np.diag([1, 1, 0]))
        b = proj(np.diag([0, 1, 1]))
        assert np.allclose(so.proj_meet([a, b]).entries, np.diag([0.0, 1.0, 0.0]), atol=1e-12)

    def test_join_with_zero(self):
        out = so.proj_join([P_DIAGLINE, so.Projection.zero(2)])
        assert np.allclose(out.entries, P_DIAGLINE.entries, atol=1e-12)

    def test_distinct_lines_join_spans(self):
        out = so.proj_join([P_E1, P_DIAGLINE])
        assert np.allclose(out.entries, np.eye(2), atol=1e-12)

    def test_commuting_join_is_entrywise_max(self):
        a = proj(np.diag([1, 0, 0]))
        b = proj(np.diag([0, 1, 0]))
        assert np.allclose(so.proj_join([a, b]).entries, np.diag([1.0, 1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(15))
    def test_lattice_laws_seeded(self, seed):
        p, q = seeded_pair(seed)
        r = so.Projection(
            so.gen_instances(so.InstanceSpec(dim=4, seed=seed + 900, kind="projection"))[0]
        )
        meet_pq = so.proj_meet([p, q])
        # commutative
        assert np.allclose(meet_pq.entries, so.proj_meet([q, p]).entries, atol=1e-10)
        # associative: nested against flat
        flat = so.proj_meet([p, q, r])
        nested = so.proj_meet([meet_pq, r])
        assert np.allclose(flat.entries, nested.entries, atol=1e-10)
        # absorption
        absorbed = so.proj_join([p, meet_pq])
        assert np.allclose(absorbed.entries, p.entries, atol=1e-10)
        # bounds
        join_pq = so.proj_join([p, q])
        assert so.proj_leq(meet_pq, p) and so.proj_leq(p, join_pq)
        # De Morgan cross-check through complements
        eye = so.identity(p.dim)
        meet_of_complements = so.proj_meet([so.Projection(eye - p.matrix), so.Projection(eye - q.matrix)])
        dual = eye - meet_of_complements.matrix
        assert np.allclose(dual.entries, join_pq.entries, atol=1e-10)

    def test_meet_rejects_empty(self):
        with pytest.raises(errors.NotProjectionError):
            so.proj_meet([])


class TestAlternatingOracle:
    def test_fixed_point_immediately(self):
        out = so.alternating_meet_oracle(P_DIAGLINE, P_DIAGLINE)
        assert np.allclose(out.entries, P_DIAGLINE.entries, atol=1e-10)

    def test_distinct_lines_decay_to_zero(self):
        # p q p has top eigenvalue 1/2 on the relevant subspace, so the
        # squared iterates decay geometrically to the zero projection
        out = so.alternating_meet_oracle(P_E1, P_DIAGLINE, iters=60)
        assert so.operator_norm(out.matrix) < 1e-8

    def test_commuting_single_step(self):
        a = proj(np.diag([1, 1, 0]))
        b = proj(np.diag([0, 1, 1]))
        out = so.alternating_meet_oracle(a, b)
        assert np.allclose(out.entries, np.diag([0.0, 1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_agrees_with_meet(self, seed):
        p, q = seeded_pair(seed)
        oracle = so.alternating_meet_oracle(p, q, iters=60)
        meet = so.proj_meet([p, q])
        assert so.operator_norm(oracle.matrix - meet.matrix) <= 10 * so.DEFAULT_TOL.conv_tol

    def test_no_convergence_reports_residual(self):
        theta = 1e-2  # slow geometric rate (1 - theta^2)^(2^j), cap hit at 2 squarings
        w = np.array([np.cos(theta), np.sin(theta)])
        q = so.Projection(h(np.outer(w, w)))
        with pytest.raises(errors.NoConvergenceError) as exc:
            so.alternating_meet_oracle(P_E1, q, iters=2)
        assert exc.value.residual > 0
        assert exc.value.last_iterate is not None


class TestNearAlignment:
    """Subspaces a small rotation apart: the meet lies below and the join
    above both inputs under proj_leq at every angle. A containment rule on
    the eigenvalues of the sum (quadratic in the angle) gave, below about
    1e-4, a meet of rank one in neither line and a join containing neither."""

    @pytest.mark.parametrize("theta", NEAR_ANGLES)
    @pytest.mark.parametrize("dim", (2, 8))
    def test_meet_below_and_join_above_every_input(self, dim, theta):
        # The spectral projections of X and U X U*, at each rank below dim.
        fx, fy = (so.spectral_family_of(m) for m in near_aligned_pair(dim, theta))
        for rank in range(1, dim):
            ps = [so.Projection.onto(f.vectors[:, :rank], dim) for f in (fx, fy)]
            meet, join = so.proj_meet(ps), so.proj_join(ps)
            for p in ps:
                assert so.proj_leq(meet, p) and so.proj_leq(p, join), rank
