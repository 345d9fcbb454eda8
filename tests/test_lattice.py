import numpy as np
import pytest

import spectralorder as so
from spectralorder import errors
from spectralorder import family, lattice, projections
from spectralorder.core import _scale
from spectralorder.family import cluster_values

from near_alignment import NEAR_ANGLES, near_aligned_pair


def h(rows):
    return so.make_hermitian(np.asarray(rows, dtype=complex))


def gen(seed, dim=4, kind="generic", count=1):
    return so.gen_instances(so.InstanceSpec(dim=dim, seed=seed, kind=kind, count=count))


A13 = h(np.diag([1.0, 3.0]))
B22 = h(np.diag([2.0, 2.0]))
P_E1 = h([[1, 0], [0, 0]])
P_DIAG = h([[0.5, 0.5], [0.5, 0.5]])


def dense_lattice(mats, mode, tol=so.DEFAULT_TOL):
    """The paper's definition, independent of lattice_family: every input
    family evaluated at the top of each merged cluster, where it counts the
    whole cluster, combined by the projection meet, and rebuilt as
    sum lambda_i (P_i - P_{i-1}), lambda_i the cluster's largest value. The
    infimum is -sup(-x), so it reads each cluster at its smallest value."""
    if mode == "inf":
        return -dense_lattice([-m for m in mats], "sup", tol)
    families = [so.spectral_family_of(m, tol) for m in mats]
    vals = np.sort(np.concatenate([f.breakpoints for f in families]))
    cut = np.flatnonzero(np.diff(vals) > tol.cluster_tol * _scale(np.abs(vals).max()))
    out = np.zeros((mats[0].dim,) * 2, dtype=complex)
    prev = np.zeros_like(out)
    for high in vals[np.r_[cut, vals.size - 1]]:
        p = so.proj_meet([so.evaluate_at(f, high) for f in families], tol).entries
        out += high * (p - prev)
        prev = p
    return out


class TestSupInfExamples:
    def test_commuting_sup_is_max(self):
        assert np.allclose(so.spectral_sup([A13, B22]).entries, np.diag([2.0, 3.0]), atol=1e-10)

    def test_commuting_inf_is_min(self):
        assert np.allclose(so.spectral_inf([A13, B22]).entries, np.diag([1.0, 2.0]), atol=1e-10)

    def test_singleton_echo(self):
        m = gen(9)[0]
        assert so.operator_norm(so.spectral_sup([m]) - m) < 1e-10
        assert so.operator_norm(so.spectral_inf([m]) - m) < 1e-10

    def test_projection_pair_sup_is_join(self):
        assert np.allclose(so.spectral_sup([P_E1, P_DIAG]).entries, np.eye(2), atol=1e-10)

    def test_projection_pair_inf_is_meet(self):
        assert np.allclose(so.spectral_inf([P_E1, P_DIAG]).entries, 0.0, atol=1e-10)

    def test_empty_set_rejected(self):
        with pytest.raises(errors.EmptySetError):
            so.spectral_sup([])

    def test_dim_mismatch(self):
        with pytest.raises(errors.DimMismatchError):
            so.spectral_sup([so.identity(2), so.identity(3)])


class TestLatticeProperties:
    @pytest.mark.parametrize("seed", range(10))
    def test_bound_property(self, seed):
        mats = gen(seed, count=3)
        sup = so.spectral_sup(mats)
        inf = so.spectral_inf(mats)
        for m in mats:
            assert so.spectral_leq(m, sup).holds
            assert so.spectral_leq(inf, m).holds
            # consistency with the Loewner world
            assert so.loewner_leq(inf, m) and so.loewner_leq(m, sup)

    @pytest.mark.parametrize("seed", range(6))
    def test_least_bound_against_constructed(self, seed):
        mats = gen(seed, count=2)
        bigger = so.spectral_sup(mats + gen(seed + 77, count=1))
        assert so.spectral_leq(so.spectral_sup(mats), bigger).holds

    def test_idempotence(self):
        m = gen(21)[0]
        assert so.operator_norm(so.spectral_sup([m, m]) - m) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_duality(self, seed):
        mats = gen(seed, count=3)
        dual = -so.spectral_sup([-m for m in mats])
        assert so.operator_norm(so.spectral_inf(mats) - dual) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_partition_associativity(self, seed):
        mats = gen(seed, count=4)
        whole = so.spectral_sup(mats)
        split = so.spectral_sup(
            [so.spectral_sup(mats[:2]), so.spectral_sup(mats[2:])]
        )
        assert so.operator_norm(whole - split) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_projection_specialization(self, seed):
        p, q = (gen(seed + k, kind="projection")[0] for k in (0, 1000))
        pj, qj = so.Projection(p), so.Projection(q)
        assert so.operator_norm(so.spectral_sup([p, q]) - so.proj_join([pj, qj]).matrix) < 1e-8
        assert so.operator_norm(so.spectral_inf([p, q]) - so.proj_meet([pj, qj]).matrix) < 1e-8


class TestLatticeFamily:
    @pytest.mark.parametrize("kind", ["generic", "positive", "projection", "commuting_family"])
    @pytest.mark.parametrize("mode", ["sup", "inf"])
    def test_nested_rising_to_identity(self, kind, mode):
        for seed in range(3):
            mats = gen(seed, dim=6, kind=kind, count=3)
            sf = lattice.lattice_family(mats, mode)
            ranks = [p.rank for p in sf.projections]
            assert all(a < b for a, b in zip(ranks, ranks[1:]))
            for p in sf.projections:
                assert so.is_projection(p.matrix)
            for a, b in zip(sf.projections, sf.projections[1:]):
                assert family.range_defect(a, b) <= 1e-12
            assert np.allclose(sf.projections[-1].entries, np.eye(6), atol=1e-12)


    @pytest.mark.parametrize("kind", ["generic", "positive", "projection", "orthogonal_family"])
    @pytest.mark.parametrize("mode", ["sup", "inf"])
    def test_orthonormal_basis_matches_dense_reconstruction(self, kind, mode):
        for dim, count in ((6, 2), (16, 3)):
            sf = lattice.lattice_family(gen(7, dim=dim, kind=kind, count=count), mode)
            u = sf.vectors
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim), 2) <= 1e-12
            # dense reference: sum of lambda_i (P_i - P_{i-1})
            dense = np.zeros((dim, dim), dtype=complex)
            prev = np.zeros_like(dense)
            for lam, p in zip(sf.breakpoints, sf.projections):
                dense += lam * (p.entries - prev)
                prev = p.entries
            assert np.linalg.norm(so.reconstruct(sf).entries - dense, 2) <= 1e-12

    @pytest.mark.parametrize("kind", ["generic", "positive", "effect", "projection", "commuting_family"])
    @pytest.mark.parametrize("mode", ["sup", "inf"])
    def test_matches_pointwise_dense_definition(self, kind, mode):
        op = so.spectral_sup if mode == "sup" else so.spectral_inf
        for dim in (6, 12, 32) if kind in ("generic", "positive") else (6, 12):
            for count in (2, 3):
                mats = gen(11, dim=dim, kind=kind, count=count)
                ref = dense_lattice(mats, mode)
                dev = np.linalg.norm(op(mats).entries - ref, 2)
                assert dev <= 1e-10 * (1.0 + np.linalg.norm(ref, 2))

    def test_rejects_unknown_mode(self):
        with pytest.raises(errors.InvalidParameterError):
            lattice.lattice_family([A13, B22], "max")

    def test_coupling_guard(self, monkeypatch):
        # Every residual direction is reported as new, so the duplicate
        # column in each cluster of [x, x], which the join already holds,
        # counts as leaving it; the third cluster claims two directions
        # with one left.
        svd = lattice._svd

        def overcounting(a, **kwargs):
            u, s, vh = svd(a, **kwargs)
            return u, np.ones_like(s), vh

        monkeypatch.setattr(lattice, "_svd", overcounting)
        x = gen(4, dim=5)[0]
        with pytest.raises(errors.InternalLatticeError, match="2 directions with 1 left"):
            lattice.lattice_family([x, x], "sup")

    def test_termination_guard(self, monkeypatch):
        # No residual direction is reported as new, so the join stays empty.
        monkeypatch.setattr(lattice, "_svd", lambda a, **kwargs: (a, np.zeros(a.shape[1]), None))
        with pytest.raises(errors.InternalLatticeError, match="terminate"):
            lattice.lattice_family(gen(4, count=2), "sup")

    def test_checks_the_built_basis(self):
        # Roundoff in the basis the walk builds exceeds a cluster_tol of 1e-18.
        with pytest.raises(errors.InternalLatticeError, match="orthonormal"):
            lattice.lattice_family(gen(2, dim=8, count=2), "sup", so.Tolerances(cluster_tol=1e-18))


def counting(monkeypatch, *names):
    """Record the argument shape of every call to the named numpy.linalg
    functions, one list per name."""
    calls = {name: [] for name in names}
    for name in names:
        original = getattr(np.linalg, name)

        def wrapper(a, *args, _original=original, _calls=calls[name], **kwargs):
            _calls.append(a.shape)
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)
    return calls


class TestWalkEdges:
    """Where the top-down walk starts and stops: one eigh per input, and one
    SVD per grid cluster it visits, none after the join reaches rank d."""

    def test_scalar_set_is_a_one_point_grid(self, monkeypatch):
        mats = [2.5 * so.identity(5)] * 2
        calls = counting(monkeypatch, "eigh", "eigvalsh", "svd")
        sf = lattice.lattice_family(mats, "sup")
        assert sf.breakpoints.tolist() == [2.5] and sf.ranks.tolist() == [5]
        # The one cluster brings all ten columns and fills the join.
        assert [len(calls[n]) for n in ("eigh", "eigvalsh", "svd")] == [2, 0, 1]
        assert calls["svd"] == [(5, 10)]

    def test_first_jump_at_the_first_grid_point(self, monkeypatch):
        x = gen(4, dim=6)[0]
        calls = counting(monkeypatch, "eigh", "eigvalsh", "svd")
        sf = lattice.lattice_family([x, x], "sup")
        assert sf.ranks.tolist() == [1, 2, 3, 4, 5, 6]
        assert np.linalg.norm(so.reconstruct(sf).entries - x.entries, 2) <= 1e-12
        # The join gains one direction at every grid point, down to the last.
        assert [len(calls[n]) for n in ("eigh", "eigvalsh", "svd")] == [2, 0, 6]

    def test_first_jump_at_the_last_grid_point(self, monkeypatch):
        # The join of the two lines at grid point 1 is the whole space, so
        # the walk stops there and grid point 0 is never visited.
        calls = counting(monkeypatch, "eigh", "eigvalsh", "svd")
        sf = lattice.lattice_family([P_E1, P_DIAG], "sup")
        assert sf.breakpoints.tolist() == [1.0] and sf.ranks.tolist() == [2]
        assert [len(calls[n]) for n in ("eigh", "eigvalsh", "svd")] == [2, 0, 1]


# Eigenvalues 0, 0.9, 1.8 and 2.7 (times 1e-3), one per input, chain into one
# grid cluster at cluster_tol 1e-3 although its ends lie 2.7 widths apart.
CHAIN = (0.0, 0.9e-3, 1.8e-3, 2.7e-3)


def bracket_set():
    """Input i has eigenvalue CHAIN[i] on e1, -4e-3 * (i + 1) on a unit
    vector v_i of the (e2, e3) plane (v_0..v_3 at 45 degree steps, so no two
    share a line) and 1 on the rest. At cluster_tol 1e-3 every grid gap but
    the last is below ten cluster widths, and the meet is zero up to the
    chained cluster."""
    mats = []
    for i, b in enumerate(CHAIN):
        t = i * np.pi / 4
        basis = np.array([[1, 0, 0], [0, np.cos(t), -np.sin(t)], [0, np.sin(t), np.cos(t)]])
        mats.append(so.make_hermitian(basis @ np.diag([b, -4e-3 * (i + 1), 1.0]) @ basis.T))
    return mats


class TestClusterBand:
    """Inputs whose eigenvalues agree to about the cluster width. Each grid
    point is its cluster's largest value, so it lies above every input
    eigenvalue it stands for and the answers bound every input."""

    CHAINED_SETS = {
        "bottom": ([h(np.diag([b, 1.0])) for b in CHAIN], [2.7e-3, 1.0]),
        "top": ([h(np.diag([-1.0, b])) for b in CHAIN], [-1.0, 2.7e-3]),
        "bracket": (bracket_set(), [2.7e-3, 1.0, 1.0]),
    }

    @pytest.mark.parametrize("name", CHAINED_SETS)
    def test_chained_cluster_takes_its_largest_value(self, name):
        mats, want = self.CHAINED_SETS[name]
        tol = so.Tolerances(cluster_tol=1e-3)
        sup = so.spectral_sup(mats, tol)
        assert so.operator_norm(sup - h(np.diag(want))) <= 1e-12
        for m in mats:
            assert so.spectral_leq(m, sup, tol).holds and so.loewner_leq(m, sup, tol)

    # Sets whose merged clusters hold distinct values, so the value each
    # cluster takes shows in the answer.
    @pytest.mark.parametrize("kind, count, seed", [("positive", 2, 2), ("generic", 3, 11)])
    @pytest.mark.parametrize("mode", ["sup", "inf"])
    def test_matches_pointwise_dense_definition(self, kind, count, seed, mode):
        spec = so.InstanceSpec(dim=4, seed=seed, kind=kind, count=count, spectrum_spread=1e6)
        mats = so.gen_instances(spec)
        op = so.spectral_sup if mode == "sup" else so.spectral_inf
        ref = dense_lattice(mats, mode)
        assert np.linalg.norm(op(mats).entries - ref, 2) <= 1e-10 * (1.0 + np.linalg.norm(ref, 2))

    @pytest.mark.parametrize("kind", ("positive", "generic"))
    @pytest.mark.parametrize("spread", (1e6, 1e7))
    def test_answers_bound_every_input(self, spread, kind):
        # At these spreads many of the seeds have eigenvalues about one
        # cluster width apart.
        for count in (2, 3, 4):
            for seed in range(20):
                spec = so.InstanceSpec(dim=4, seed=seed, kind=kind, count=count, spectrum_spread=spread)
                mats = so.gen_instances(spec)
                sup, inf = so.spectral_sup(mats), so.spectral_inf(mats)
                for m in mats:
                    for lo, hi in ((m, sup), (inf, m)):
                        assert so.spectral_leq(lo, hi).holds, (count, seed)
                        assert so.loewner_leq(lo, hi), (count, seed)


def merged_pair_sets(count=200):
    """Seeded sets of dimension 2-6. The first input has two eigenvalues 0.2-0.95
    cluster widths apart, which its own family merges; 0-1 generic inputs at
    the same scale follow."""
    tol = so.DEFAULT_TOL
    for seed in range(count):
        rng = np.random.default_rng(seed)
        dim = int(rng.integers(2, 7))
        scale = 10.0 ** rng.uniform(-3.0, 3.0)
        w = scale * (rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.1, 0.6, dim)))
        i = int(rng.integers(0, dim - 1))
        # w[i + 1] moves next to w[i]; the width follows the values that stay.
        width = tol.cluster_tol * _scale(np.abs(np.delete(w, i + 1)).max())
        w[i + 1] = w[i] + rng.uniform(0.2, 0.95) * width
        assert 0.2 <= (w[i + 1] - w[i]) / (tol.cluster_tol * _scale(np.abs(w).max())) <= 0.95
        q, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
        mats = [so.HermitianMatrix((q * w) @ q.conj().T)]
        mats += [scale * m for m in gen(seed, dim=dim, count=1)[: int(rng.integers(0, 2))]]
        yield seed, mats


class TestWithinInputCluster:
    """An input whose own family merges two eigenvalues breaks at the larger
    one, so an answer bounds it at the whole cluster, not at its mean."""

    def test_answers_bound_every_input(self):
        for seed, mats in merged_pair_sets():
            sup, inf = so.spectral_sup(mats), so.spectral_inf(mats)
            for m in mats:
                for lo, hi in ((m, sup), (inf, m)):
                    assert so.spectral_leq(lo, hi).holds, seed
                    assert so.loewner_leq(lo, hi), seed

    def test_singleton_stands_at_its_cluster_ends(self):
        # The gap, 1.5e-8, is 0.75 of the width 2 * cluster_tol.
        x = h(np.diag([1.0, 1.0 + 1.5e-8]))
        eps = np.finfo(float).eps
        assert so.operator_norm(so.spectral_sup([x]) - (1.0 + 1.5e-8) * so.identity(2)) <= 4 * eps
        assert so.operator_norm(so.spectral_inf([x]) - so.identity(2)) <= 4 * eps
        # the dense reference agrees at both ends
        assert np.linalg.norm(dense_lattice([x], "sup") - (1.0 + 1.5e-8) * np.eye(2), 2) <= 4 * eps
        assert np.linalg.norm(dense_lattice([x], "inf") - np.eye(2), 2) <= 4 * eps


class TestCostModel:
    """Call counts of the compact lattice route; nothing here is timed."""

    def test_one_eigh_per_input_and_one_svd_per_cluster(self, monkeypatch):
        mats = gen(5, dim=16, count=3)
        tol = so.DEFAULT_TOL
        families = [so.spectral_family_of(m, tol) for m in mats]
        grid = cluster_values(
            np.concatenate([f.breakpoints for f in families]), tol.cluster_tol
        )

        # The meet ranks by the dense definition: the walk visits the grid
        # from the top down to the first nonzero meet, where the join of
        # the ranges above reaches rank d.
        meet_ranks = [
            so.proj_meet([so.evaluate_at(f, lam) for f in families], tol).rank
            for lam in grid
        ]
        first = next(i for i, r in enumerate(meet_ranks) if r > 0)
        assert 0 < first < len(grid) - 1
        calls = counting(monkeypatch, "eigh", "eigvalsh", "svd")
        so.spectral_sup(mats)
        assert len(calls["eigh"]) == len(mats)
        assert calls["eigvalsh"] == []
        # Every cluster of a generic set brings columns, and each visited
        # cluster makes one SVD.
        assert len(calls["svd"]) == len(grid) - first

    def test_lattice_family_never_revalidates_projections(self, monkeypatch):
        calls = []

        def counting_is_projection(*args, **kwargs):
            calls.append(1)
            return True

        # Every projection check runs this rule on a spectrum.
        for module in (family, projections, lattice):
            monkeypatch.setattr(module, "_is_projection_spectrum", counting_is_projection)
        for mode in ("sup", "inf"):
            lattice.lattice_family(gen(6, dim=16, count=3), mode)
        assert calls == []


    def test_projection_membership_decomposes_once(self, monkeypatch):
        effect = gen(8, kind="effect")[0]
        calls = []
        eigh = np.linalg.eigh

        def counting_eigh(a):
            calls.append(a.shape)
            return eigh(a)

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        assert lattice._class_membership(P_DIAG, "projection", so.DEFAULT_TOL)[0]
        assert not lattice._class_membership(A13, "projection", so.DEFAULT_TOL)[0]
        assert len(calls) == 2
        for klass in lattice.OPERATOR_CLASSES:
            calls.clear()
            assert lattice._class_membership(effect, klass, so.DEFAULT_TOL)[0] == (klass != "projection")
            assert len(calls) == 1, klass


class TestOrderBounds:
    def test_single_matrix(self):
        lo, hi = so.order_bounds([h(np.diag([1.0, -3.0]))])
        assert np.allclose(lo.entries, -3.0 * np.eye(2))
        assert np.allclose(hi.entries, 3.0 * np.eye(2))

    def test_zero(self):
        lo, hi = so.order_bounds([so.zero(2)])
        assert np.allclose(lo.entries, 0.0) and np.allclose(hi.entries, 0.0)

    def test_seeded_triple_dominated(self):
        mats = gen(31, count=3)
        lo, hi = so.order_bounds(mats)
        for m in mats:
            assert so.spectral_leq(lo, m).holds
            assert so.spectral_leq(m, hi).holds


class TestAffineImage:
    def test_shift_moves_sup(self):
        shifted = so.affine_image([A13, B22], 1.0, 5.0)
        assert np.allclose(so.spectral_sup(shifted).entries, np.diag([7.0, 8.0]), atol=1e-10)

    def test_scaling_singleton(self):
        m = gen(3)[0]
        assert so.operator_norm(so.spectral_sup(so.affine_image([m], 2.0, 0.0)) - 2.0 * m) < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_covariance(self, seed):
        mats = gen(seed, count=2)
        eye = so.identity(4)
        for alpha, beta in ((0.5, -1.0), (2.0, 3.0)):
            direct = so.spectral_sup(so.affine_image(mats, alpha, beta))
            routed = alpha * so.spectral_sup(mats) + beta * eye
            assert so.operator_norm(direct - routed) < 1e-8

    def test_rejects_nonpositive_scale(self):
        with pytest.raises(errors.NonPositiveScaleError):
            so.affine_image([A13], 0.0, 1.0)
        with pytest.raises(errors.NonPositiveScaleError):
            so.affine_image([A13], -2.0, 1.0)


class TestMembershipClosure:
    def test_zero_and_identity(self):
        report = so.membership_closure_check([so.zero(3), so.identity(3)], "projection")
        assert report.passed
        assert np.allclose(report.sup.entries, np.eye(3), atol=1e-10)
        assert np.allclose(report.inf.entries, 0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(5))
    def test_effects_closed(self, seed):
        mats = gen(seed, kind="effect", count=2)
        assert so.membership_closure_check(mats, "effect").passed

    @pytest.mark.parametrize("seed", range(5))
    def test_projections_closed(self, seed):
        mats = [gen(seed, kind="projection")[0], gen(seed + 50, kind="projection")[0]]
        report = so.membership_closure_check(mats, "projection")
        assert report.passed
        # agreement with the projection lattice
        ps = [so.Projection(m) for m in mats]
        assert so.operator_norm(report.sup - so.proj_join(ps).matrix) < 1e-8
        assert so.operator_norm(report.inf - so.proj_meet(ps).matrix) < 1e-8

    @pytest.mark.parametrize("seed", range(5))
    def test_positive_closed(self, seed):
        mats = gen(seed, kind="positive", count=3)
        assert so.membership_closure_check(mats, "positive").passed

    def test_rejects_inputs_outside_class(self):
        with pytest.raises(errors.ClassViolationError):
            so.membership_closure_check([h(np.diag([-1.0, 1.0]))], "positive")

    def test_rejects_unknown_class(self):
        with pytest.raises(errors.ClassViolationError):
            so.membership_closure_check([so.identity(2)], "unitary")


SWEEP_SCALES = (1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 1e3, 1e6, 1e10, 1e12)
FLOAT_RANGE_SCALES = tuple(2.0**k for k in (-1000, -500, -20, 20, 500, 1000, 1023)) + (1.9 * 2.0**1023,)


class TestScaleSweep:
    """The spectral order commutes with positive scaling, sup(a X) = a sup X,
    so every answer and verdict at scale a must be the unit-scale one."""

    @staticmethod
    def verdicts(mats, sup, inf):
        pairs = [
            (mats[0], mats[1]), (mats[1], mats[0]), (mats[0], sup),
            (sup, mats[0]), (inf, mats[1]), (mats[2], inf),
        ]
        return [
            (so.spectral_leq(x, y).holds, so.loewner_leq(x, y), so.borderline_gap(x, y))
            for x, y in pairs
        ]

    def check(self, mats, scales):
        sup, inf = so.spectral_sup(mats), so.spectral_inf(mats)
        want = self.verdicts(mats, sup, inf)
        # -K I <= inf <= sup <= K I, K the largest input norm: the answers'
        # scale, also where an answer is zero (a meet of projections)
        top = max(so.operator_norm(m) for m in mats)
        for a in scales:
            scaled = [a * m for m in mats]
            sup_a, inf_a = so.spectral_sup(scaled), so.spectral_inf(scaled)
            assert so.operator_norm(sup_a - a * sup) <= 1e-12 * a * top
            assert so.operator_norm(inf_a - a * inf) <= 1e-12 * a * top
            assert self.verdicts(scaled, sup_a, inf_a) == want, a

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("kind", so.INSTANCE_KINDS)
    def test_answers_and_verdicts_follow_the_scale(self, kind, seed):
        self.check(gen(seed, dim=8, kind=kind, count=3), SWEEP_SCALES)

    @pytest.mark.parametrize("seed", range(2))
    @pytest.mark.parametrize("kind", so.INSTANCE_KINDS)
    def test_across_the_float_range(self, kind, seed):
        # largest |lambda| 0.9, so the top scale puts it at 1.71 * 2**1023;
        # a tolerance, not bit equality: LAPACK rescales beyond about 1e146
        mats = gen(seed, dim=4, kind=kind, count=3)
        top = max(so.operator_norm(m) for m in mats)
        self.check([(0.9 / top) * m for m in mats], FLOAT_RANGE_SCALES)

    @pytest.mark.parametrize("a", (1.0,) + SWEEP_SCALES)
    def test_orthogonal_projections_stay_unordered(self, a):
        x, y = a * h(np.diag([1.0, 0.0])), a * h(np.diag([0.0, 1.0]))
        assert not so.loewner_leq(x, y)
        assert so.monotone_probe(x, y).refuted


class TestFloatMaximum:
    """X = diag(low, 1.5e308) and R X R^T, R a plane rotation by 0.3: the
    verdicts and answers are those at 1/4 scale, where nothing overflows."""

    @staticmethod
    def pair(low, a=1.0):
        c, s = np.cos(0.3), np.sin(0.3)
        rot = np.array([[c, -s], [s, c]])
        x = a * np.diag([low, 1.5e308])
        return so.HermitianMatrix(x), so.HermitianMatrix(rot @ x @ rot.T)

    @pytest.mark.parametrize("low", [-1e308, 1e308])
    def test_follows_a_quarter_scale(self, low):
        x, y = self.pair(low)
        xq, yq = self.pair(low, 0.25)
        for (a, b), (aq, bq) in (((x, y), (xq, yq)), ((y, x), (yq, xq))):
            assert so.spectral_leq(a, b).holds is so.spectral_leq(aq, bq).holds is False
            assert so.loewner_leq(a, b) is so.loewner_leq(aq, bq) is False
            assert so.borderline_gap(a, b) is so.borderline_gap(aq, bq)
        for op in (so.spectral_sup, so.spectral_inf):
            assert so.operator_norm(0.25 * op([x, y]) - op([xq, yq])) <= 1e-12 * 0.375e308
        assert so.operator_norm(so.spectral_sup([x, y]) - 1.5e308 * so.identity(2)) <= 1e-12 * 1.5e308

    def test_loewner_across_the_whole_range(self):
        top = 1.5e308 * so.identity(2)
        assert so.loewner_leq(-top, top) and not so.loewner_leq(top, -top)


class TestNearAlignment:
    """Inputs a small rotation apart: the sup and inf bound both under the
    library's own order at every angle, where a containment rule on
    cosines (quadratic in the angle) loses them below about 1e-4."""

    @pytest.mark.parametrize("theta", NEAR_ANGLES)
    @pytest.mark.parametrize("dim", (2, 8))
    def test_sup_and_inf_bound_every_input(self, dim, theta):
        mats = near_aligned_pair(dim, theta)
        sup, inf = so.spectral_sup(mats), so.spectral_inf(mats)
        for m in mats:
            assert so.spectral_leq(m, sup).holds
            assert so.spectral_leq(inf, m).holds

    @pytest.mark.parametrize("theta", NEAR_ANGLES)
    @pytest.mark.parametrize("dim", (2, 8))
    def test_basis_stays_orthonormal(self, dim, theta):
        # Directions read off singular values near the threshold carry the
        # projection's rounding divided by them unless projected again.
        mats = near_aligned_pair(dim, theta)
        for mode in ("sup", "inf"):
            u = lattice.lattice_family(mats, mode).vectors
            assert np.linalg.norm(u.conj().T @ u - np.eye(dim), 2) <= 1e-12

    # Below 1e-7 the power route still resolves the pair down to its
    # residual clamp and returns a different sup; that band is not asserted.
    @pytest.mark.parametrize("theta", [t for t in NEAR_ANGLES if t >= 1e-7])
    @pytest.mark.parametrize("dim", (2, 8))
    def test_power_route_agrees(self, dim, theta):
        mats = near_aligned_pair(dim, theta)
        assert so.operator_norm(so.shifted_power_sup(mats) - so.spectral_sup(mats)) <= 1e-6
