"""Meets and joins in the projection lattice of a matrix algebra.

Every operation here decides containment by the linear rule of
:func:`proj_leq`: a unit vector lies in a range when its distance to it, the
sine of the angle between them, is at most 10 * psd_tol. Validating an input
takes one eigendecomposition, which also yields orthonormal bases of its
range (eigenvalue 1) and of its kernel (eigenvalue 0). The join, the
projection onto the span of the ranges, is the range of the stacked range
bases: their left singular vectors with singular values above the threshold,
from one SVD. Singular values are read off sines, so two ranges at a small
angle theta, with sines near theta, stay apart down to the threshold;
eigenvalues of the sum of the projections would have lost them at theta
squared. The meet, the projection onto the intersection of the ranges, is
the complement of the join of the complements (De Morgan), from the kernel
bases by the same SVD rule. This route shares no code with the lattice route,
so agreement between the two still counts as evidence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DEFAULT_TOL, HermitianMatrix, Tolerances, _svd, eigensystem
from .errors import (
    DimMismatchError,
    NoConvergenceError,
    NotProjectionError,
)
from .family import Projection, _is_projection_spectrum, range_defect

__all__ = ["proj_leq", "proj_meet", "proj_join", "alternating_meet_oracle"]


def _check_projections(
    ps: Sequence[Projection], tol: Tolerances
) -> tuple[int, list[np.ndarray], list[np.ndarray]]:
    """Validate, then return the dimension and, per projection, orthonormal
    bases of its range and of its kernel, all from one eigendecomposition
    each (the one :func:`spectralorder.family.is_projection` runs)."""
    if len(ps) == 0:
        raise NotProjectionError("expected at least one projection")
    dim = ps[0].dim
    ranges, kernels = [], []
    for p in ps:
        if p.dim != dim:
            raise DimMismatchError(f"dimensions differ: {p.dim} vs {dim}")
        es = eigensystem(p.matrix)
        if not _is_projection_spectrum(es.eigenvalues, tol):
            raise NotProjectionError("input is not a projection within tolerance")
        ones = es.eigenvalues > 0.5
        ranges.append(es.eigenvectors[:, ones])
        kernels.append(es.eigenvectors[:, ~ones])
    return dim, ranges, kernels


def proj_leq(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Range containment: true iff ||p - q p|| <= 10 * psd_tol.

    The algebraic characterization q p = p is rank robust, unlike an
    eigenvalue-slack test on q - p.
    """
    _check_projections([p, q], tol)
    return range_defect(p, q) <= 10.0 * tol.psd_tol


def _span(bases: list[np.ndarray], tol: Tolerances) -> np.ndarray:
    """Orthonormal basis of the span of ``bases``: the left singular vectors
    of the stacked columns whose singular values exceed 10 * psd_tol."""
    stacked = np.concatenate(bases, axis=1)
    if not stacked.shape[1]:
        return stacked
    u, s, _ = _svd(stacked, full_matrices=False)
    return u[:, s > 10.0 * tol.psd_tol]


def proj_meet(ps: Sequence[Projection], tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Projection onto the intersection of the ranges: the complement of
    the join of the complements."""
    dim, _, kernels = _check_projections(ps, tol)
    outside = _span(kernels, tol)
    return Projection(HermitianMatrix(np.eye(dim) - outside @ outside.conj().T))


def proj_join(ps: Sequence[Projection], tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Projection onto the span of the ranges."""
    dim, ranges, _ = _check_projections(ps, tol)
    return Projection.onto(_span(ranges, tol), dim)


def alternating_meet_oracle(
    p: Projection,
    q: Projection,
    iters: int = 60,
    tol: Tolerances = DEFAULT_TOL,
) -> Projection:
    """Independent cross-check of proj_meet for a pair: the norm limit of
    (p q p)^(2^j), computed by repeated squaring.

    Stops when successive iterates differ by less than conv_tol. Raises
    NoConvergenceError, carrying the last iterate and residual, when the
    squaring cap is hit first.
    """
    _check_projections([p, q], tol)
    m = p.entries @ q.entries @ p.entries
    m = (m + m.conj().T) / 2.0
    residual = np.inf
    for _ in range(int(iters)):
        nxt = m @ m
        nxt = (nxt + nxt.conj().T) / 2.0
        residual = float(_svd(nxt - m, compute_uv=False)[0])
        m = nxt
        if residual < tol.conv_tol:
            return Projection(HermitianMatrix(m))
    raise NoConvergenceError(
        f"alternating meet did not converge in {iters} squarings "
        f"(last residual {residual:.3e})",
        last_iterate=m,
        residual=residual,
    )
