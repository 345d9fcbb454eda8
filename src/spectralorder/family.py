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
still counted. Borderline spectra, where some eigenvalue gap falls between
the cluster width and ten times it, can flip a verdict either way; see
:func:`borderline_gap`, which the CLI uses to flag such comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerances,
    eigensystem,
)
from .errors import DimMismatchError, InvalidFamilyError, NotProjectionError

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
    def zero(cls, dim: int) -> "Projection":
        return cls(HermitianMatrix(np.zeros((dim, dim), dtype=np.complex128)))

    @classmethod
    def identity(cls, dim: int) -> "Projection":
        return cls(HermitianMatrix(np.eye(dim, dtype=np.complex128)))

    @classmethod
    def onto(cls, columns: np.ndarray, dim: int) -> "Projection":
        """Projection onto the span of (orthonormal) columns."""
        cols = np.asarray(columns, dtype=np.complex128).reshape(dim, -1)
        if cols.shape[1] == 0:
            return cls.zero(dim)
        return cls(HermitianMatrix(cols @ cols.conj().T))

    @classmethod
    def validated(cls, m: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> "Projection":
        if not is_projection(m, tol):
            raise NotProjectionError("matrix is not a projection within tolerance")
        return cls(m)

    def complement(self) -> "Projection":
        return Projection(HermitianMatrix(np.eye(self.dim) - self.entries))


def is_projection(m: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True iff every eigenvalue is within cluster_tol of 0 or 1.

    For a Hermitian matrix this also bounds the idempotency defect, so no
    separate m @ m check is needed.
    """
    w = eigensystem(m).eigenvalues
    return bool(np.all(np.minimum(np.abs(w), np.abs(w - 1.0)) <= tol.cluster_tol))


def range_defect(p: Projection, q: Projection) -> float:
    """||p - q p|| in operator norm; zero exactly when range(p) is inside range(q)."""
    m = p.entries - q.entries @ p.entries
    return float(np.linalg.norm(m, 2))


def _clusters(vals: np.ndarray, width: float) -> list[tuple[int, int]]:
    """Index ranges [start, end) of the runs of ascending ``vals`` whose
    consecutive gaps are at most ``width``."""
    ends = [int(i) for i in np.flatnonzero(np.diff(vals) > width) + 1] + [vals.size]
    return list(zip([0] + ends[:-1], ends))


def cluster_values(values: Sequence[float], width: float) -> np.ndarray:
    """Merge sorted values whose consecutive gaps are below ``width``.

    Returns the ascending cluster representatives (cluster means). Used to
    suppress spurious breakpoints from eigenvalue roundoff.
    """
    vals = np.sort(np.asarray(values, dtype=float))
    if vals.size == 0:
        return vals
    return np.asarray([float(np.mean(vals[a:b])) for a, b in _clusters(vals, width)])


@dataclass(frozen=True, eq=False)
class SpectralFamily:
    """Finite right-continuous increasing family of cumulative projections.

    ``projections[i]`` is the family's value on [breakpoints[i],
    breakpoints[i+1]); below the first breakpoint the value is zero and the
    last projection is the identity. Right-continuity is structural: a step
    function evaluated this way equals the infimum of its values to the
    right at every point.
    """

    breakpoints: np.ndarray
    projections: tuple[Projection, ...]

    def __post_init__(self) -> None:
        bp = np.array(self.breakpoints, dtype=float)
        bp.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        if bp.ndim != 1 or bp.size == 0:
            raise InvalidFamilyError("a spectral family needs at least one breakpoint")
        if bp.size != len(self.projections):
            raise InvalidFamilyError("breakpoints and projections differ in length")
        if bp.size > 1 and not np.all(np.diff(bp) > 0):
            raise InvalidFamilyError("breakpoints must be strictly ascending")
        dims = {p.dim for p in self.projections}
        if len(dims) != 1:
            raise InvalidFamilyError("projections have inconsistent dimensions")
        if self.projections[0].rank < 1:
            raise InvalidFamilyError("the first projection must have rank >= 1")

    @property
    def dim(self) -> int:
        return self.projections[0].dim


def spectral_family_of(h: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> SpectralFamily:
    """Build the spectral family of h.

    Eigenvalues within ``cluster_tol`` of each other are merged to their
    mean, and the cumulative projection at each representative sums the
    eigenprojections of every eigenvalue at or below it.
    """
    es = eigensystem(h)
    w, u = es.eigenvalues, es.eigenvectors
    runs = _clusters(w, tol.cluster_tol)
    return SpectralFamily(
        np.asarray([float(np.mean(w[a:b])) for a, b in runs]),
        tuple(Projection.onto(u[:, :b], h.dim) for _, b in runs),
    )


def _value_at(sf: SpectralFamily, lam: float, slack: float) -> Projection:
    """Family value at lam, counting breakpoints up to ``lam + slack``."""
    idx = int(np.searchsorted(sf.breakpoints, lam + slack, side="right")) - 1
    if idx < 0:
        return Projection.zero(sf.dim)
    return sf.projections[idx]


def evaluate_at(sf: SpectralFamily, lam: float) -> Projection:
    """Right-continuous step evaluation: the projection at the largest
    breakpoint <= lam, zero below the first breakpoint."""
    return _value_at(sf, float(lam), 0.0)


def reconstruct(sf: SpectralFamily, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Rebuild the matrix sum(lambda_i * (P_i - P_{i-1})) with P_0 = 0.

    Raises
    ------
    InvalidFamilyError
        If the family is not monotone within tolerance or its last
        projection is not the identity.
    """
    thr = 10.0 * tol.psd_tol
    last = sf.projections[-1]
    if float(np.linalg.norm(last.entries - np.eye(sf.dim), 2)) > max(thr, 1e-12):
        raise InvalidFamilyError("family does not terminate at the identity")
    for a, b in zip(sf.projections, sf.projections[1:]):
        if range_defect(a, b) > thr:
            raise InvalidFamilyError("family is not monotone within tolerance")
    out = np.zeros((sf.dim, sf.dim), dtype=np.complex128)
    prev = np.zeros_like(out)
    for lam, p in zip(sf.breakpoints, sf.projections):
        out += lam * (p.entries - prev)
        prev = p.entries
    return HermitianMatrix(out)


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
    constant between merged breakpoints. On failure the verdict reports the
    smallest failing breakpoint and the defect ||p - q p||.
    """
    if x.dim != y.dim:
        raise DimMismatchError(f"dimensions differ: {x.dim} vs {y.dim}")
    sf_x = spectral_family_of(x, tol)
    sf_y = spectral_family_of(y, tol)
    grid = cluster_values(
        np.concatenate([sf_x.breakpoints, sf_y.breakpoints]), tol.cluster_tol
    )
    thr = 10.0 * tol.psd_tol
    for lam in grid:
        p = _value_at(sf_y, float(lam), tol.cluster_tol)
        q = _value_at(sf_x, float(lam), tol.cluster_tol)
        defect = range_defect(p, q)
        if defect > thr:
            return OrderVerdict(holds=False, witness_lambda=float(lam), defect=defect)
    return OrderVerdict(holds=True)


def borderline_gap(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """True when some pairwise eigenvalue gap of the merged spectra lies in
    (cluster_tol, 10 * cluster_tol), i.e. the clustering decision was close."""
    vals = np.sort(
        np.concatenate([eigensystem(x).eigenvalues, eigensystem(y).eigenvalues])
    )
    gaps = np.diff(vals)
    return bool(np.any((gaps > tol.cluster_tol) & (gaps < 10.0 * tol.cluster_tol)))
