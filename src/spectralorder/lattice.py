"""Suprema and infima of finite Hermitian sets in the spectral order.

The supremum's spectral family is the pointwise meet of the input families;
the infimum's is the pointwise join. With finitely many matrices both
constructions are step functions on the merged breakpoint grid, already
right continuous, so the pointwise formulas reconstruct the answers exactly
up to clustering. The right-continuity regularization needed for infinite
sets is a structural no-op here; a debug assertion verifies step constancy
at interval midpoints.
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
    Projection,
    SpectralFamily,
    _value_at,
    cluster_values,
    is_projection,
    range_defect,
    reconstruct,
    spectral_family_of,
    spectral_leq,
)
from .projections import proj_join, proj_meet

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
        If the pointwise lattice values are not monotone within tolerance.
        That signals a tolerance misconfiguration and is never repaired by
        re-sorting.
    """
    dim = _check_set(mats)
    families = [spectral_family_of(m, tol) for m in mats]
    grid = cluster_values(
        np.concatenate([f.breakpoints for f in families]), tol.cluster_tol
    )
    combine = proj_meet if mode == "sup" else proj_join
    values: list[Projection] = []
    for lam in grid:
        at = [_value_at(f, float(lam), tol.cluster_tol) for f in families]
        values.append(combine(at, tol))

    thr = 10.0 * tol.psd_tol
    for a, b in zip(values, values[1:]):
        if range_defect(a, b) > thr:
            raise InternalLatticeError(
                f"{mode} family lost monotonicity (defect {range_defect(a, b):.3e}); "
                "check cluster_tol/psd_tol against the input spectra"
            )
    if range_defect(Projection.identity(dim), values[-1]) > thr:
        raise InternalLatticeError(f"{mode} family does not terminate at the identity")

    if __debug__:
        # Step constancy between grid points (the finite-set shadow of the
        # right-continuity regularization). Skip near-merged gaps where the
        # evaluation slack could legitimately cross a breakpoint.
        for i in range(len(grid) - 1):
            if grid[i + 1] - grid[i] < 10.0 * tol.cluster_tol:
                continue
            mid = 0.5 * (grid[i] + grid[i + 1])
            at_mid = combine([_value_at(f, mid, 0.0) for f in families], tol)
            assert (
                float(np.linalg.norm(at_mid.entries - values[i].entries, 2)) <= thr
            ), "lattice family is not constant between merged breakpoints"

    # Keep only rank jumps; equal ranks in a monotone chain mean equal
    # projections, so dropped points carry no spectral weight.
    breakpoints: list[float] = []
    projections: list[Projection] = []
    prev_rank = 0
    for lam, p in zip(grid, values):
        if p.rank > prev_rank:
            breakpoints.append(float(lam))
            projections.append(p)
            prev_rank = p.rank
    return SpectralFamily(np.asarray(breakpoints), tuple(projections))


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
        ok = is_projection(m, tol)
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
