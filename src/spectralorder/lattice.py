"""Suprema and infima of finite Hermitian sets in the spectral order.

The supremum's spectral family is the pointwise meet of the input families.
With finitely many matrices it is a step function on the merged breakpoint
grid, already right continuous, so the pointwise formula reconstructs the
answer exactly up to clustering. The right-continuity regularization needed
for infinite sets is a structural no-op here; a debug check (``__debug__``)
verifies step constancy at interval midpoints. Negation reverses the
spectral order, so the infimum is -sup(-x) and needs no code of its own.

The inputs are :class:`spectralorder.family.SpectralFamily` objects
(eigenvectors plus cumulative ranks), checked once for orthonormal
eigenvectors. At a grid point with input ranks (r_1, ..., r_k) the sum of
the input values is S = sum_i U_i[:, :r_i] U_i[:, :r_i]*; its eigenvalues
lie in [0, k], and the meet is the eigenspace within the slack of k, as in
:func:`spectralorder.projections.proj_meet`. The families increase, so the
meet found so far lies in every later value and is an invariant subspace of
every later S: the next meet is the eigenspace of the compression of S onto
the complement (exact deflation). The values are nested prefixes, so S
rises in the Loewner order along the grid and so does the meet: a bisection
on the top eigenvalue of S finds the last grid point with a zero meet, which
vouches for every earlier one. From the next point on, one pass keeps S as
a running sum (adding c c* for each column an input gains) and carries one
unitary basis whose leading columns span the meet so far; the block of S
coupling the meet to the complement is the monotonicity check, and the pass
ends once the meet is the identity. The cost is one eigendecomposition per
input, about log2 of the grid size top-eigenvalue computations, and one
eigendecomposition per grid point from the first jump of the meet until it
is full, on shrinking compressions, plus an SVD only when a coupling block's
Frobenius norm exceeds the threshold. No dense projection is formed.
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
    _cluster_width,
    _eigh,
    _eigvalsh,
    _psd_slack,
    eigensystem,
    identity,
    operator_norm,
)
from .errors import (
    ClassViolationError,
    InternalLatticeError,
    InvalidParameterError,
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

# Not called here: the lattice route computes its meets on the eigenvector
# bases, and joins as meets of the negated set. The names stay bound because the benchmark's tracer tests install
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
    """Spectral family of the supremum (``"sup"``) or infimum (``"inf"``)
    of a finite set: the pointwise meet of the input families, or for the
    infimum the reflected family of -sup(-x). A bisection skips the grid
    points before the meet's first jump, and one deflated pass on one basis
    builds the rest, one eigendecomposition per grid point until the meet
    is the identity.

    Raises
    ------
    InvalidParameterError
        If ``mode`` is neither ``"sup"`` nor ``"inf"``.
    InternalLatticeError
        If an input's eigenvectors are not orthonormal within cluster_tol,
        the meet found so far is not invariant under a later sum within
        tolerance, or the meets do not end at the identity (under
        ``__debug__``, also if they are not constant between grid points,
        checked wherever nesting does not already force the value).
        That signals a tolerance misconfiguration and is never repaired by
        re-sorting.
    """
    if mode == "sup":
        return _sup_family(mats, tol)
    if mode != "inf":
        raise InvalidParameterError(f"mode must be 'sup' or 'inf', got {mode!r}")
    # Eigenvalue b_j of -sup(-x), on columns r_{j-1}..r_j, is -b_j of inf(x).
    sf = _sup_family([-m for m in mats], tol)
    ranks = sf.dim - np.concatenate(([0], sf.ranks[:-1]))[::-1]
    return SpectralFamily(-sf.breakpoints[::-1], sf.vectors[:, ::-1], ranks)


def _sup_family(mats: Sequence[HermitianMatrix], tol: Tolerances) -> SpectralFamily:
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
    # One width over all inputs; the cut and threshold act on unit-scale sums.
    spectra = [f.breakpoints for f in families]
    width = _cluster_width(tol, *spectra)
    grid = cluster_values(np.concatenate(spectra), width)
    cut = len(mats) - min(0.5, len(mats) * tol.cluster_tol)
    thr = 10.0 * tol.psd_tol

    def ranks_at(lams: np.ndarray, reach: float) -> np.ndarray:
        return np.stack([f.ranks_at(lams, reach) for f in families], axis=1)

    grid_ranks = ranks_at(grid, width)
    midpoints = {}
    if __debug__:
        # Step constancy between grid points (the finite-set shadow of the
        # right-continuity regularization). Skip near-merged gaps where the
        # evaluation slack could legitimately cross a breakpoint, and
        # midpoints where every input has the grid point's rank, since the
        # value there is the same computation.
        mid_ranks = ranks_at(0.5 * (grid[:-1] + grid[1:]), 0.0)
        wide = np.diff(grid) >= 10.0 * width
        changed = np.any(mid_ranks != grid_ranks[:-1], axis=1)
        midpoints = {i: mid_ranks[i] for i in np.flatnonzero(wide & changed)}

    def added(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Sum of c c* over the columns the inputs gain from ranks lo to hi."""
        cols = np.concatenate([f.vectors[:, a:b] for f, a, b in zip(families, lo, hi)], axis=1)
        return cols @ cols.conj().T

    # The input values are nested prefixes, so the sum S rises in the
    # Loewner order along the grid. Bisect on its top eigenvalue for the
    # last point with a zero meet (the bracket): every earlier point has a
    # zero meet too, and the pass starts after it with S kept running. The
    # last point is left out of the search; the pass evaluates it anyway.
    at = np.zeros(len(families), dtype=int)
    s = np.zeros((dim, dim), dtype=np.complex128)
    bracket, jump = -1, len(grid) - 1
    while jump - bracket > 1:
        mid = (bracket + jump) // 2
        s_mid = s + added(at, grid_ranks[mid])
        if _eigvalsh(s_mid)[-1] > cut:
            jump = mid
        else:
            bracket, at, s = mid, grid_ranks[mid], s_mid

    # The first ``rank`` columns of q span the meet found so far.
    q = np.eye(dim, dtype=np.complex128)
    rank = 0

    def deflate(total: np.ndarray) -> tuple[np.ndarray, int]:
        """Eigenvectors of ``total`` compressed onto the complement of the
        meet, largest first, and how many extend it."""
        p = q.conj().T @ (total @ q[:, rank:])
        coupling = _screened_norm(p[:rank], thr)
        if coupling > thr:
            raise InternalLatticeError(
                f"lattice family lost monotonicity (defect {coupling:.3e}); "
                "check cluster_tol/psd_tol against the input spectra"
            )
        w, v = _eigh(p[rank:])
        return v[:, ::-1], int(np.count_nonzero(w > cut))

    def check_midpoint(i: int) -> None:
        if i in midpoints and deflate(s + added(at, midpoints[i]))[1]:
            raise InternalLatticeError("lattice family is not constant between merged breakpoints")

    # Midpoints before the bracket nest under its zero meet; its own is not.
    check_midpoint(bracket)
    breakpoints, ranks = [], []
    for i in range(bracket + 1, len(grid)):
        s += added(at, grid_ranks[i])
        at = grid_ranks[i]
        v, new = deflate(s)
        if new:
            q[:, rank:] = q[:, rank:] @ v
            rank += new
            breakpoints.append(float(grid[i]))
            ranks.append(rank)
            if rank == dim:
                break
        check_midpoint(i)
    if rank != dim:
        raise InternalLatticeError("lattice family does not terminate at the identity")
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
    eye = identity(_check_set(mats))
    return [alpha * m + beta * eye for m in mats]


OPERATOR_CLASSES = ("positive", "unit_ball", "effect", "projection")


def _class_membership(
    m: HermitianMatrix, klass: str, tol: Tolerances
) -> tuple[bool, str]:
    w = eigensystem(m).eigenvalues
    nrm = float(np.max(np.abs(w)))
    positive = bool(w[0] >= -_psd_slack(nrm, 0.0, tol)), f"lambda_min = {float(w[0]):.3e}"
    unit_ball = nrm <= 1.0 + tol.psd_tol, f"norm = {nrm:.6f}"
    if klass == "positive":
        return positive
    if klass == "unit_ball":
        return unit_ball
    if klass == "effect":
        return positive[0] and unit_ball[0], f"{positive[1]}; {unit_ball[1]}"
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
