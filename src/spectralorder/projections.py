"""Meets and joins in the projection lattice of a matrix algebra.

Meet and join read the same eigendecomposition of the sum of the k
projections, whose eigenvalues lie in [0, k]. The meet, the projection onto
the intersection of the ranges, is the eigenspace at eigenvalue k: the sum
attains k exactly on vectors fixed by all of the projections. The join, the
projection onto the span of the ranges, is the range of the sum: the
eigenspace of the eigenvalues above zero. Both cut with the same slack, so
the join is the complement of the meet of the complements without computing
either.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import DEFAULT_TOL, HermitianMatrix, Tolerances, _eigh
from .errors import (
    DimMismatchError,
    NoConvergenceError,
    NotProjectionError,
)
from .family import Projection, is_projection, range_defect

__all__ = ["proj_leq", "proj_meet", "proj_join", "alternating_meet_oracle"]


def _check_projections(ps: Sequence[Projection], tol: Tolerances) -> int:
    if len(ps) == 0:
        raise NotProjectionError("expected at least one projection")
    dim = ps[0].dim
    for p in ps:
        if p.dim != dim:
            raise DimMismatchError(f"dimensions differ: {p.dim} vs {dim}")
        if not is_projection(p.matrix, tol):
            raise NotProjectionError("input is not a projection within tolerance")
    return dim


def proj_leq(p: Projection, q: Projection, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Range containment: true iff ||p - q p|| <= 10 * psd_tol.

    The algebraic characterization q p = p is rank robust, unlike an
    eigenvalue-slack test on q - p.
    """
    _check_projections([p, q], tol)
    return range_defect(p, q) <= 10.0 * tol.psd_tol


def _sum_eigh(
    ps: Sequence[Projection], tol: Tolerances
) -> tuple[np.ndarray, np.ndarray, int, float]:
    """Validate, then eigendecompose sum(p_i): (eigenvalues, eigenvectors,
    dim, slack). An eigenvalue within ``slack`` of k or of zero counts as
    k or zero; any larger deficit is spectral (a nonzero principal angle),
    not roundoff, for generic inputs."""
    dim = _check_projections(ps, tol)
    total = np.zeros((dim, dim), dtype=np.complex128)
    for p in ps:
        total += p.entries
    w, u = _eigh((total + total.conj().T) / 2.0)
    return w, u, dim, min(0.5, len(ps) * tol.cluster_tol)


def proj_meet(ps: Sequence[Projection], tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Projection onto the intersection of the ranges: the eigenspace of
    sum(p_i) at eigenvalue k = len(ps)."""
    w, u, dim, slack = _sum_eigh(ps, tol)
    return Projection.onto(u[:, w > len(ps) - slack], dim)


def proj_join(ps: Sequence[Projection], tol: Tolerances = DEFAULT_TOL) -> Projection:
    """Projection onto the span of the ranges: the range of sum(p_i), i.e.
    its eigenspace for eigenvalues above the slack."""
    w, u, dim, slack = _sum_eigh(ps, tol)
    return Projection.onto(u[:, w > slack], dim)


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
        residual = float(np.linalg.norm(nxt - m, 2))
        m = nxt
        if residual < tol.conv_tol:
            return Projection(HermitianMatrix(m))
    raise NoConvergenceError(
        f"alternating meet did not converge in {iters} squarings "
        f"(last residual {residual:.3e})",
        last_iterate=m,
        residual=residual,
    )
