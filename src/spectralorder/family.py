"""Spectral families (resolutions of the identity) and the order they induce.

A Hermitian matrix h corresponds to the right-continuous increasing step
family E_lambda = (projection onto the span of eigenvectors with eigenvalue
<= lambda). The partial order decided here compares two such families
pointwise, with the direction reversed relative to the families themselves:
x precedes y exactly when E^y_lambda <= E^x_lambda for every lambda.

Because both families are step functions, constant between the merged
breakpoints and right-continuous, checking the finitely many merged
breakpoints is exact in exact arithmetic. Floating point adds one wrinkle:
nearly equal eigenvalues are merged (clustered) first, and family
evaluation inside a comparison uses a slack of one cluster width so that a
breakpoint sitting a rounding error above the merged representative is
still counted; the width follows the operands' scale, so a verdict is the
same for a x and a y at any a > 0. Borderline spectra, with an eigenvalue gap
between one and ten cluster widths, can flip a verdict either way; see
:func:`borderline_gap`, which the CLI uses to flag such comparisons.

A family is kept as its eigenvector matrix U plus the cumulative rank at
each breakpoint (:class:`SpectralFamily`): the value at a breakpoint with
rank r is the projection onto the first r columns of U, so the values are
nested and the family is monotone by construction. Dense projections are
formed only on request (:func:`evaluate_at`, ``SpectralFamily.projections``);
:func:`reconstruct` rebuilds the matrix as the one product
(U * lambda per column) U*. The range defect ||p - q p|| of the values with
ranks r_y (of y) and r_x (of x) is the 2-norm of the block G[r_x:, :r_y] of
the cross-Gram matrix G = U_x* U_y, computed once. Every block's Frobenius
norm, an upper bound on its 2-norm, comes from one 2-d cumulative sum of
|G|^2, so a comparison costs one eigendecomposition per operand, one matrix
product, and an SVD only for the blocks whose Frobenius norm exceeds the
threshold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerances,
    _cluster_width,
    _eigvalsh,
    _scale,
    _svd,
    eigensystem,
)
from .errors import InvalidFamilyError

__all__ = [
    "Projection",
    "SpectralFamily",
    "OrderVerdict",
    "is_projection",
    "cluster_values",
    "spectral_family_of",
    "evaluate_at",
    "reconstruct",
    "spectral_leq",
    "range_defect",
    "borderline_gap",
]


@dataclass(frozen=True, eq=False)
class Projection:
    """A Hermitian idempotent, identified with its range."""

    matrix: HermitianMatrix

    @property
    def dim(self) -> int:
        return self.matrix.dim

    @property
    def entries(self) -> np.ndarray:
        return self.matrix.entries

    @property
    def rank(self) -> int:
        return int(round(float(np.real(np.trace(self.entries)))))

    @classmethod
    def onto(cls, columns: np.ndarray, dim: int) -> "Projection":
        """Projection onto the span of (orthonormal) columns; zero for none."""
        cols = np.asarray(columns, dtype=np.complex128).reshape(dim, -1)
        return cls(HermitianMatrix(cols @ cols.conj().T))


def is_projection(m: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is within cluster_tol of 0 or 1.

    For a Hermitian matrix this also bounds the idempotency defect, so no
    separate m @ m check is needed.
    """
    return _is_projection_spectrum(eigensystem(m).eigenvalues, tol)


def _is_projection_spectrum(w: np.ndarray, tol: Tolerances) -> bool:
    """The rule of :func:`is_projection`, on eigenvalues already computed."""
    return bool(np.all(np.minimum(np.abs(w), np.abs(w - 1.0)) <= tol.cluster_tol))


def range_defect(p: Projection, q: Projection) -> float:
    """||p - q p|| in operator norm; zero exactly when range(p) is inside range(q)."""
    m = p.entries - q.entries @ p.entries
    return float(_svd(m, compute_uv=False)[0])


def _clusters(vals: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Representatives (means) and end indices of the runs of ascending,
    nonempty ``vals`` whose consecutive gaps are at most ``width``."""
    s = _scale(max(-vals[0], vals[-1]))  # of the largest |value|: over s no gap or sum overflows
    unit = vals / s
    cut = np.flatnonzero(unit[1:] - unit[:-1] > width / s) + 1
    starts, ends = np.concatenate(([0], cut)), np.concatenate((cut, [vals.size]))
    return np.add.reduceat(unit, starts) / (ends - starts) * s, ends


def cluster_values(values: Sequence[float], width: float) -> np.ndarray:
    """Merge sorted values whose consecutive gaps are below ``width``.

    Returns the ascending cluster representatives (cluster means). Used to
    suppress spurious breakpoints from eigenvalue roundoff.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return vals
    return _clusters(vals, width)[0]


@dataclass(frozen=True, eq=False)
class SpectralFamily:
    """Finite right-continuous increasing family of cumulative projections.

    The value on [breakpoints[i], breakpoints[i+1]) is the projection onto
    ``vectors[:, :ranks[i]]``, zero below the first breakpoint. Nested
    prefixes of one basis make the family monotone by construction, and
    right-continuity is structural. The constructor checks the O(k)
    invariants; :func:`reconstruct` checks orthonormality and termination.
    """

    breakpoints: np.ndarray
    vectors: np.ndarray
    ranks: np.ndarray

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=float)
        ranks = np.array(self.ranks)
        vectors = np.asarray(self.vectors, dtype=np.complex128).view()
        for name, a in (("breakpoints", bp), ("ranks", ranks), ("vectors", vectors)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        if bp.ndim != 1 or bp.size == 0:
            raise InvalidFamilyError("a spectral family needs at least one breakpoint")
        if ranks.shape != bp.shape or ranks.dtype.kind not in "iu":
            raise InvalidFamilyError("ranks must be integers, one per breakpoint")
        if vectors.ndim != 2 or vectors.shape[0] != vectors.shape[1]:
            raise InvalidFamilyError(f"vectors must be a square matrix, got shape {vectors.shape}")
        if not np.all(bp[1:] > bp[:-1]):
            raise InvalidFamilyError("breakpoints must be strictly ascending")
        if ranks[0] < 1 or ranks[-1] > self.dim or not np.all(np.diff(ranks) > 0):
            raise InvalidFamilyError("ranks must rise strictly from at least 1 to at most the dimension")

    @property
    def dim(self) -> int:
        return self.vectors.shape[0]

    @property
    def projections(self) -> tuple[Projection, ...]:
        """The dense value at each breakpoint."""
        return tuple(Projection.onto(self.vectors[:, :r], self.dim) for r in self.ranks)

    def ranks_at(self, lams: np.ndarray, slack: float) -> np.ndarray:
        """Rank of the family's value at each of ``lams``, counting
        breakpoints up to ``lam + slack``; zero below the first."""
        idx = np.searchsorted(self.breakpoints, lams + slack, side="right")
        return np.concatenate(([0], self.ranks))[idx]


def spectral_family_of(h: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralFamily:
    """Spectral family of h from one eigendecomposition, with eigenvalues
    within one cluster width of each other merged to their mean."""
    es = eigensystem(h)
    reps, ends = _clusters(es.eigenvalues, _cluster_width(tol, es.eigenvalues))
    return SpectralFamily(reps, es.eigenvectors, ends)


def evaluate_at(sf: SpectralFamily, lam: float) -> Projection:
    """Right-continuous step evaluation: the projection at the largest
    breakpoint <= lam, zero below the first breakpoint."""
    rank = int(sf.ranks_at(np.array([float(lam)]), 0.0)[0])
    return Projection.onto(sf.vectors[:, :rank], sf.dim)


def reconstruct(sf: SpectralFamily, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Rebuild sum(lambda_i * (P_i - P_{i-1})), P_0 = 0, as the one product
    (U * lambda per column) U*.

    Raises
    ------
    InvalidFamilyError
        If the last rank is not the dimension (the family does not end at
        the identity) or ||U*U - I||_F exceeds cluster_tol.
    """
    u = sf.vectors
    if sf.ranks[-1] != sf.dim:
        raise InvalidFamilyError("family does not terminate at the identity")
    if np.linalg.norm(u.conj().T @ u - np.eye(sf.dim)) > tol.cluster_tol:
        raise InvalidFamilyError("family vectors are not orthonormal within cluster_tol")
    lam = np.repeat(sf.breakpoints, np.diff(sf.ranks, prepend=0))
    return HermitianMatrix((u * lam) @ u.conj().T)


@dataclass(frozen=True)
class OrderVerdict:
    """Outcome of a spectral-order comparison.

    When the comparison fails, ``witness_lambda`` is the smallest merged
    breakpoint at which the projection inequality breaks and ``defect`` is
    the magnitude of the violation.
    """

    holds: bool
    witness_lambda: float | None = None
    defect: float | None = None

    def __post_init__(self) -> None:
        if self.holds and (self.witness_lambda is not None or self.defect is not None):
            raise ValueError("a holding verdict carries no witness")
        if not self.holds and (self.witness_lambda is None or self.defect is None):
            raise ValueError("a failing verdict needs witness_lambda and defect")

    def __bool__(self) -> bool:
        return self.holds


def spectral_leq(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> OrderVerdict:
    """Decide whether x precedes y in the spectral order.

    Evaluates both families at every point of the merged, clustered
    breakpoint grid and checks E^y_lambda <= E^x_lambda there. Checking the
    grid suffices: both families are right-continuous step functions and
    constant between merged breakpoints. A defect counts when it exceeds
    10 * psd_tol plus the eigenvector rounding of both cuts at that point
    (:func:`_cut_rounding`), so no verdict rests on rounding alone. On
    failure the verdict reports the smallest failing breakpoint and the
    defect ||p - q p||, read off the cross-Gram matrix of the two eigenbases
    (see the module docstring).
    """
    x._require_same_dim(y)
    fx = spectral_family_of(x, tol)
    fy = spectral_family_of(y, tol)
    width = _cluster_width(tol, fx.breakpoints, fy.breakpoints)
    grid = cluster_values(np.concatenate([fx.breakpoints, fy.breakpoints]), width)
    rx = fx.ranks_at(grid, width)
    ry = fy.ranks_at(grid, width)
    g = fx.vectors.conj().T @ fy.vectors
    # fro2[i, j] = ||g[i:, :j]||_F^2, summed from the bottom-left corner.
    fro2 = np.zeros((x.dim + 1, x.dim + 1))
    fro2[:-1, 1:] = np.cumsum(np.cumsum(np.abs(g[::-1]) ** 2, axis=0)[::-1], axis=1)
    thr = 10.0 * tol.psd_tol + _cut_rounding(fx)[rx] + _cut_rounding(fy)[ry]
    for i in np.flatnonzero(fro2[rx, ry] > thr * thr):
        defect = float(_svd(g[rx[i]:, : ry[i]], compute_uv=False)[0])
        if defect > thr[i]:
            return OrderVerdict(holds=False, witness_lambda=float(grid[i]), defect=defect)
    return OrderVerdict(holds=True)


def _cut_rounding(f: SpectralFamily) -> np.ndarray:
    """Rounding of the family's value at each rank r = 0..d: 4 eps / g, g the
    gap over s (the :func:`_scale` of the largest |lambda|) between the
    breakpoints on either side of the cut after column r, the eigenvector
    error bound of Davis and Kahan (SIAM J. Numer. Anal. 7, 1970); 0 at ranks
    0 and d, which cut nothing. A cut narrower than about 4 eps s gets more
    than 1, which no defect (a sine) exceeds: rounding leaves its side
    undecided, and the verdict is the one a cluster width spanning it gives.
    The constructions (the lattice walk, proj_meet, proj_join) count
    directions at the strict 10 psd_tol: a strict count only moves their
    answers outward, so those bound the inputs without this allowance."""
    bp = f.breakpoints
    out = np.zeros(f.dim + 1)
    out[f.ranks[:-1]] = 4.0 * np.finfo(float).eps / np.diff(bp / _scale(max(-bp[0], bp[-1])))
    return out


def borderline_gap(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when the clustering of the merged spectra was close: a gap lies
    in (w, 10 w), w the cluster width of both spectra, or gaps each within
    w chain into a cluster wider than 10 w. Only the eigenvalues are
    needed, so no eigenvectors are computed."""
    x._require_same_dim(y)
    vals = np.sort(np.concatenate([_eigvalsh(x.entries), _eigvalsh(y.entries)]))
    width = _cluster_width(tol, vals)
    ends = _clusters(vals, width)[1]
    half = 0.5 * vals  # halved, no gap overflows
    gaps = np.diff(half)
    widths = half[ends - 1] - half[ends - np.diff(ends, prepend=0)]
    return bool(np.any((gaps > 0.5 * width) & (gaps < 5.0 * width)) or np.any(widths > 5.0 * width))
