"""Suprema and infima of finite Hermitian sets in the spectral order.

The supremum's spectral family is the pointwise meet of the input families;
the infimum's is the pointwise join. With finitely many matrices both
constructions are step functions on the merged breakpoint grid, already
right continuous, so the pointwise formulas reconstruct the answers exactly
up to clustering. The right-continuity regularization needed for infinite
sets is a structural no-op here; a debug assertion verifies step constancy
at interval midpoints.

Both constructions run on the input families as
:class:`spectralorder.family.SpectralFamily` (eigenvectors plus cumulative
ranks). At a
grid point with input ranks (r_1, ..., r_k) the sum of the input values is
sum_i U_i[:, :r_i] U_i[:, :r_i]*, one matrix product of the stacked
columns; its eigenvalues lie in [0, k], and the meet (join) is the span of
the eigenvectors whose eigenvalue is within the slack of k (above the
slack), as in :func:`spectralorder.projections.proj_meet`. The inputs are
checked once, for orthonormal eigenvectors, instead of being re-validated as
projections at every grid point. The cost is one eigendecomposition per
input and one per grid point, plus, for the monotonicity check between
consecutive grid points, a matrix product whose exact 2-norm (an SVD) is
taken only when its Frobenius norm exceeds the threshold. The answer is one
orthonormal basis, extended at each rank jump by a small SVD, plus the ranks
at the jumps; no dense projection is formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerances,
    _check_set,
    _eigh,
    eigensystem,
    identity,
    operator_norm,
)
from .errors import (
    ClassViolationError,
    InternalLatticeError,
    NonPositiveScaleError,
)
from .family import (
    SpectralFamily,
    _is_projection_spectrum,
    _screened_norm,
    cluster_values,
    reconstruct,
    spectral_family_of,
    spectral_leq,
)

# Not called here: the lattice route computes meets and joins on the
# eigenvector bases. The names stay bound because the benchmark's tracer tests install
# and remove wrappers on ``lattice.proj_meet``.
from .projections import proj_join, proj_meet  # noqa: F401

__all__ = [
    "spectral_sup",
    "spectral_inf",
    "lattice_family",
    "membership_closure_check",
    "ClosureReport",
    "order_bounds",
    "affine_image",
    "OPERATOR_CLASSES",
]


def lattice_family(
    mats: Sequence[HermitianMatrix],
    mode: Literal["sup", "inf"],
    tol: Tolerances = DEFAULT_TOL,
) -> SpectralFamily:
    """Spectral family of the supremum or infimum of a finite set.

    Evaluates every input family on the merged clustered breakpoint grid,
    takes the projection meet (sup) or join (inf) at each point, verifies
    monotonicity, and drops grid points where the rank does not jump.

    Raises
    ------
    InternalLatticeError
        If an input's eigenvectors are not orthonormal within cluster_tol,
        or the pointwise lattice values are not monotone within tolerance.
        That signals a tolerance misconfiguration and is never repaired by
        re-sorting.
    """
    dim = _check_set(mats)
    families = [spectral_family_of(m, tol) for m in mats]
    # Orthonormal eigenvectors make every cut of them a projection, so the
    # values built from them need no validation of their own.
    eye = np.eye(dim)
    for i, f in enumerate(families):
        if np.linalg.norm(f.vectors.conj().T @ f.vectors - eye) > tol.cluster_tol:
            raise InternalLatticeError(
                f"eigenvectors of input {i} are not orthonormal within cluster_tol"
            )
    grid = cluster_values(
        np.concatenate([f.breakpoints for f in families]), tol.cluster_tol
    )
    slack = min(0.5, len(mats) * tol.cluster_tol)
    cut = len(mats) - slack if mode == "sup" else slack

    def combine(ranks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvectors of the sum of the input values at ``ranks`` and the
        mask of those spanning their meet (sup) or join (inf)."""
        cols = np.concatenate([f.vectors[:, :r] for f, r in zip(families, ranks)], axis=1)
        w, v = _eigh(cols @ cols.conj().T)
        return v, w > cut

    def ranks_at(lams: np.ndarray, reach: float) -> np.ndarray:
        return np.stack([f.ranks_at(lams, reach) for f in families], axis=1)

    grid_ranks = ranks_at(grid, tol.cluster_tol)
    values = [combine(r) for r in grid_ranks]

    thr = 10.0 * tol.psd_tol
    for (va, ma), (vb, mb) in zip(values, values[1:]):
        defect = _screened_norm(vb[:, ~mb].conj().T @ va[:, ma], thr)
        if defect > thr:
            raise InternalLatticeError(
                f"{mode} family lost monotonicity (defect {defect:.3e}); "
                "check cluster_tol/psd_tol against the input spectra"
            )
    if not values[-1][1].all():
        raise InternalLatticeError(f"{mode} family does not terminate at the identity")

    if __debug__:
        # Step constancy between grid points (the finite-set shadow of the
        # right-continuity regularization). Skip near-merged gaps where the
        # evaluation slack could legitimately cross a breakpoint, and
        # midpoints where every input has the grid point's rank, since the
        # value there is the same computation.
        mid_ranks = ranks_at(0.5 * (grid[:-1] + grid[1:]), 0.0)
        wide = np.diff(grid) >= 10.0 * tol.cluster_tol
        for i in np.flatnonzero(wide & np.any(mid_ranks != grid_ranks[:-1], axis=1)):
            vm, mm = combine(mid_ranks[i])
            v, m = values[i]
            # Equal-rank projections p, q have ||p - q|| = ||(1 - q) p||.
            assert (
                mm.sum() == m.sum() and _screened_norm(v[:, ~m].conj().T @ vm[:, mm], thr) <= thr
            ), "lattice family is not constant between merged breakpoints"

    # Keep only rank jumps; equal ranks in a monotone chain mean equal
    # projections, so dropped points carry no spectral weight. Each jump
    # extends one orthonormal basis q with the new range c, turned by the
    # left singular vectors of c* q beyond the old rank: those columns lie
    # in range(c) and are orthogonal to c c* q, hence to q.
    q = np.empty((dim, dim), dtype=np.complex128)
    breakpoints: list[float] = []
    ranks: list[int] = []
    prev_rank = 0
    for lam, (v, m) in zip(grid, values):
        rank = int(m.sum())
        if rank > prev_rank:
            c = v[:, m]
            if prev_rank:
                c = c @ np.linalg.svd(c.conj().T @ q[:, :prev_rank])[0][:, prev_rank:]
            q[:, prev_rank:rank] = c
            breakpoints.append(float(lam))
            ranks.append(rank)
            prev_rank = rank
    return SpectralFamily(np.asarray(breakpoints), q, np.asarray(ranks))


def spectral_sup(mats: Sequence[HermitianMatrix], tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Supremum of a finite nonempty set in the spectral order.

    Finite sets are automatically order bounded, so the supremum always
    exists; its spectral family is the pointwise meet of the input families.
    """
    return reconstruct(lattice_family(mats, "sup", tol), tol)


def spectral_inf(mats: Sequence[HermitianMatrix], tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Infimum of a finite nonempty set in the spectral order (pointwise join)."""
    return reconstruct(lattice_family(mats, "inf", tol), tol)


def order_bounds(
    mats: Sequence[HermitianMatrix], tol: Tolerances = DEFAULT_TOL
) -> tuple[HermitianMatrix, HermitianMatrix]:
    """Order bounds (-K I, K I) with K the largest operator norm in the set.

    Both bounds are verified against every element with spectral_leq; a
    failure indicates a tolerance bug and raises InternalLatticeError.
    """
    dim = _check_set(mats)
    k = max(operator_norm(m) for m in mats)
    lower = -k * identity(dim)
    upper = k * identity(dim)
    for m in mats:
        if not spectral_leq(lower, m, tol) or not spectral_leq(m, upper, tol):
            raise InternalLatticeError("norm bounds failed to dominate the set")
    return lower, upper


def affine_image(
    mats: Sequence[HermitianMatrix], alpha: float, beta: float
) -> list[HermitianMatrix]:
    """The set {alpha * x + beta * I}; alpha must be strictly positive so
    the map preserves the order."""
    if not alpha > 0.0:
        raise NonPositiveScaleError(f"scale must be positive, got {alpha}")
    _check_set(mats)
    eye = identity(mats[0].dim)
    return [alpha * m + beta * eye for m in mats]


OPERATOR_CLASSES = ("positive", "unit_ball", "effect", "projection")


def _class_membership(
    m: HermitianMatrix, klass: str, tol: Tolerances
) -> tuple[bool, str]:
    w = eigensystem(m).eigenvalues
    slack = tol.psd_tol * (1.0 + float(np.max(np.abs(w))))
    if klass == "positive":
        ok = bool(w[0] >= -slack)
        return ok, f"lambda_min = {float(w[0]):.3e}"
    if klass == "unit_ball":
        nrm = float(np.max(np.abs(w)))
        return nrm <= 1.0 + tol.psd_tol, f"norm = {nrm:.6f}"
    if klass == "effect":
        ok_pos, wit_pos = _class_membership(m, "positive", tol)
        ok_ball, wit_ball = _class_membership(m, "unit_ball", tol)
        return ok_pos and ok_ball, f"{wit_pos}; {wit_ball}"
    if klass == "projection":
        ok = _is_projection_spectrum(w, tol)
        return ok, f"spectrum = {np.round(w, 6).tolist()}"
    raise ClassViolationError(f"unknown operator class {klass!r}")


@dataclass(frozen=True)
class ClosureReport:
    """Result of a sublattice-closure check for one operator class."""

    klass: str
    passed: bool
    sup: HermitianMatrix
    inf: HermitianMatrix
    failures: tuple[str, ...]


def membership_closure_check(
    mats: Sequence[HermitianMatrix], klass: str, tol: Tolerances = DEFAULT_TOL
) -> ClosureReport:
    """Check that sup and inf of a set stay inside the named operator class.

    ``klass`` is one of positive, unit_ball, effect, projection. Inputs are
    required to belong to the class already (ClassViolationError otherwise);
    the sup and inf are then computed and their membership asserted.
    """
    if klass not in OPERATOR_CLASSES:
        raise ClassViolationError(f"unknown operator class {klass!r}")
    _check_set(mats)
    for i, m in enumerate(mats):
        ok, witness = _class_membership(m, klass, tol)
        if not ok:
            raise ClassViolationError(f"input {i} is not in class {klass}: {witness}")
    sup = spectral_sup(mats, tol)
    inf = spectral_inf(mats, tol)
    failures = []
    for name, value in (("sup", sup), ("inf", inf)):
        ok, witness = _class_membership(value, klass, tol)
        if not ok:
            failures.append(f"{name} left class {klass}: {witness}")
    return ClosureReport(
        klass=klass,
        passed=not failures,
        sup=sup,
        inf=inf,
        failures=tuple(failures),
    )
