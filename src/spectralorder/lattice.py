"""Suprema and infima of finite Hermitian sets in the spectral order.

The supremum's spectral family is the pointwise meet of the input families,
E^sup_lambda = meet_i E^{x_i}_lambda. With finitely many matrices it is a
step function on the merged breakpoint grid, already right continuous, so
the pointwise formula reconstructs the answer exactly up to clustering. The
right-continuity regularization needed for infinite sets is a structural
no-op here. Each grid point is the largest value of its merged cluster, so
it sits at or above every input eigenvalue it stands for: the meet there
lies below every input's family value, and the answer bounds every input by
construction. Negation reverses the spectral order, so the infimum is
-sup(-x), whose grid takes each cluster's smallest value, and needs no code
of its own.

By De Morgan, 1 - E^sup_lambda is the join of the input ranges above
lambda, and that join is built from the top of the grid down. The inputs are
:class:`spectralorder.family.SpectralFamily` objects (eigenvectors plus
cumulative ranks). At each grid cluster, largest value first, the columns
the inputs have there are projected off the join built so far; the left
singular vectors of that residual with singular values above 10 * psd_tol
leave the join, and the supremum takes the cluster's value on them. That is
the containment rule of :func:`spectralorder.family.spectral_leq`, less the allowance for
eigenvector rounding that only a comparison needs: singular values of a
residual are sines of angles, so inputs a small angle apart stay apart down to the
threshold (eigenvalues of a sum of projections would lose them at the
angle squared). A direction read off a small singular value carries the
projection's rounding divided by it, so the new unit directions are
projected off the join once more before they join it (classical
Gram-Schmidt twice). The join only grows, so the family is monotone by
construction, and the walk stops once the join is the whole space.

The cost is one eigendecomposition per input and one reduced d x c SVD for
each cluster visited, c the number of columns the cluster brings, with none
below the cluster where the join reaches rank d; no eigendecomposition
follows the inputs' and no dense projection is formed. Three guards raise
:class:`InternalLatticeError`: no cluster may add more directions than
d - rank, which a threshold below the projection's rounding would do, the
join must reach rank d by the top-down walk's end, and the basis it built
must be orthonormal within cluster_tol, which :func:`reconstruct` requires.
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
    _psd_slack,
    _svd,
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
    cluster_values,
    reconstruct,
    spectral_family_of,
    spectral_leq,
)

# Not called here: the lattice route builds its joins on the eigenvector
# bases. The names stay bound because the benchmark's tracer tests install
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
    infimum the reflected family of -sup(-x). The complement of the meet at
    lambda is the join of the input ranges above lambda (De Morgan), built
    from the top grid cluster down with one reduced SVD per cluster visited
    and no eigendecomposition past the inputs', until it is the whole space.

    Raises
    ------
    InvalidParameterError
        If ``mode`` is neither ``"sup"`` nor ``"inf"``.
    InternalLatticeError
        If a cluster adds more directions than the join has room for, the
        join does not end at the whole space, or the basis it built is not
        orthonormal within cluster_tol. That signals a tolerance
        misconfiguration and is never repaired by re-sorting.
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
    # At each cluster's largest value every input counts all of it: rank d at the top one.
    spectra = [f.breakpoints for f in families]
    grid = cluster_values(np.concatenate(spectra), _cluster_width(tol, *spectra))
    grid_ranks = np.stack([f.ranks_at(grid) for f in families], axis=1)
    # Input columns with eigenvalues in cluster j: below[j]..grid_ranks[j].
    below = np.vstack((np.zeros_like(grid_ranks[:1]), grid_ranks[:-1]))
    # The threshold acts on unit columns: the strict one, without
    # spectral_leq's rounding allowance (see family._cut_rounding).
    thr = 10.0 * tol.psd_tol

    # The last ``rank`` columns of q span the join of the input ranges above
    # the clusters passed so far; the sup's family value is their complement.
    q = np.zeros((dim, dim), dtype=np.complex128)
    rank = 0
    breakpoints, ranks = [], []
    for j in range(len(grid) - 1, -1, -1):
        lo, hi = below[j], grid_ranks[j]
        cols = np.concatenate([f.vectors[:, a:b] for f, a, b in zip(families, lo, hi)], axis=1)
        join = q[:, dim - rank :]
        resid = cols - join @ (join.conj().T @ cols)
        u, sv, _ = _svd(resid, full_matrices=False)
        new = int(np.count_nonzero(sv > thr))
        if new > dim - rank:
            raise InternalLatticeError(
                f"lattice join gained {new} directions with {dim - rank} left; "
                "check cluster_tol/psd_tol against the input spectra"
            )
        if not new:
            continue
        breakpoints.append(float(grid[j]))
        ranks.append(dim - rank)
        # A direction read off a small singular value carries the
        # projection's rounding divided by that value; the second
        # Gram-Schmidt pass, on the unit directions, removes it.
        fresh = u[:, :new]
        q[:, dim - rank - new : dim - rank] = fresh - join @ (join.conj().T @ fresh)
        rank += new
        if rank == dim:
            break
    if rank != dim:
        raise InternalLatticeError("lattice family does not terminate at the identity")
    if np.linalg.norm(q.conj().T @ q - np.eye(dim)) > tol.cluster_tol:
        raise InternalLatticeError("lattice family basis is not orthonormal within cluster_tol")
    return SpectralFamily(np.asarray(breakpoints[::-1]), q, np.asarray(ranks[::-1]))


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
    # projection, the one class left: membership_closure_check refuses any other
    return _is_projection_spectrum(w, tol), f"spectrum = {np.round(w, 6).tolist()}"


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
