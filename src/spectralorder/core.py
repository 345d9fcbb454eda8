"""Dense Hermitian matrices, eigendecomposition, the Loewner order, and
monotone functional calculus.

Everything downstream (spectral families, lattice operations, power-mean
limits) is built on the handful of operations here. All values are
immutable after construction and all functions are pure, so the package is
safe for concurrent use without locking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    EigenFailureError,
    EmptySetError,
    FloatRangeError,
    InvalidParameterError,
    NonFiniteError,
    NonSquareError,
    NotHermitianError,
)

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "HermitianMatrix",
    "EigenSystem",
    "identity",
    "zero",
    "make_hermitian",
    "eigensystem",
    "loewner_leq",
    "functional_calculus",
    "positive_part",
    "negative_part",
    "operator_norm",
]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds governing all operations in the package.

    Attributes
    ----------
    cluster_tol : float
        Relative width used to merge nearly equal eigenvalues before
        building or comparing spectral families (:func:`_cluster_width`).
    psd_tol : float
        Base slack for positive-semidefiniteness tests. Order comparisons
        scale it by (u + ||x|| + ||y||), u from :func:`_unit`, so the slack
        follows the operands at every scale; projection comparisons use
        10 * psd_tol directly since projections have unit scale.
    conv_tol : float
        Stopping threshold for fixed-point iterations (the alternating
        projection oracle).
    max_power_doublings : int
        Cap on the exponent-doubling ladder of the power-mean limit
        formulas, which run over n = 2**k for k = 0..max_power_doublings.
        It is the only setting of that ladder; the stopping rule is fixed.
        At most 1000, so no exponent overflows the float range.
    """

    cluster_tol: float = 1e-8
    psd_tol: float = 1e-9
    conv_tol: float = 1e-8
    max_power_doublings: int = 48

    def __post_init__(self) -> None:
        if not (self.cluster_tol > 0.0):
            raise InvalidParameterError("cluster_tol must be positive")
        if not (self.conv_tol > 0.0):
            raise InvalidParameterError("conv_tol must be positive")
        if not (self.psd_tol >= 0.0):
            raise InvalidParameterError("psd_tol must be nonnegative")
        # 2**k * 1454 (1454 ~ max |log(lmax / lmin)| over positive doubles) is finite for k <= 1013
        if not 1 <= int(self.max_power_doublings) <= 1000:
            raise InvalidParameterError("max_power_doublings must be an integer from 1 to 1000")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """A d x d complex matrix equal to its conjugate transpose.

    The constructor symmetrizes: the stored array is (A + A*)/2, so the
    entries are exactly Hermitian no matter what was passed in. Use
    :func:`make_hermitian` to reject inputs whose asymmetry exceeds a
    tolerance instead of silently averaging it away. Non-finite entries
    raise :class:`NonFiniteError` on every construction path, arithmetic
    that overflows included.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.entries, dtype=np.complex128)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
            raise NonSquareError(f"expected a square matrix of dimension >= 1, got shape {a.shape}")
        if not np.isfinite(a).all():
            raise NonFiniteError("matrix entries must be finite (got NaN or infinity)")
        # Halving first keeps entries near the float maximum finite; in the
        # normal range it rounds exactly like (a + a*) / 2.
        a = 0.5 * a + 0.5 * a.conj().T
        a.setflags(write=False)
        object.__setattr__(self, "entries", a)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def _require_same_dim(self, other: "HermitianMatrix") -> None:
        if self.dim != other.dim:
            raise DimMismatchError(f"dimensions differ: {self.dim} vs {other.dim}")

    def __add__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._require_same_dim(other)
        return HermitianMatrix(self.entries + other.entries)

    def __sub__(self, other: "HermitianMatrix") -> "HermitianMatrix":
        self._require_same_dim(other)
        return HermitianMatrix(self.entries - other.entries)

    def __neg__(self) -> "HermitianMatrix":
        return HermitianMatrix(-self.entries)

    def __mul__(self, scalar: float) -> "HermitianMatrix":
        return HermitianMatrix(float(scalar) * self.entries)

    __rmul__ = __mul__

    def __repr__(self) -> str:  # keep reprs short in failure reports
        return f"HermitianMatrix(dim={self.dim})"


def identity(dim: int) -> HermitianMatrix:
    """The identity matrix as a HermitianMatrix."""
    return HermitianMatrix(np.eye(dim, dtype=np.complex128))


def zero(dim: int) -> HermitianMatrix:
    """The zero matrix as a HermitianMatrix."""
    return HermitianMatrix(np.zeros((dim, dim), dtype=np.complex128))


def make_hermitian(raw, tol: Tolerances = DEFAULT_TOL) -> HermitianMatrix:
    """Validate and symmetrize a raw complex array.

    Parameters
    ----------
    raw : array_like
        Square complex array. The worst asymmetry max|a_ij - conj(a_ji)|
        must not exceed ``tol.cluster_tol * _scale(max|a_ij|)``, so the
        tolerance follows the entry scale and roundoff is never rejected.

    Returns
    -------
    HermitianMatrix
        The symmetrization (raw + raw*)/2.

    Raises
    ------
    NonSquareError
        If the input is not a square 2-d array of dimension at least one.
    NonFiniteError
        If any entry is NaN or infinite.
    NotHermitianError
        If the asymmetry exceeds the tolerance; the message reports the
        worst entry pair and half its asymmetry.
    """
    a = np.asarray(raw, dtype=np.complex128)
    h = HermitianMatrix(a)  # rejects non-square, empty and non-finite input
    # in halves, as the constructor forms them, so it stays finite near the float maximum
    worst = np.abs(0.5 * a - 0.5 * a.conj().T)
    i, j = np.unravel_index(np.argmax(worst), worst.shape)
    limit = 0.5 * tol.cluster_tol * _scale(float(np.abs(a).max()))
    if worst[i, j] > limit:
        raise NotHermitianError(
            f"asymmetry |a_ij - conj(a_ji)| / 2 = {worst[i, j]:.3e} at entries "
            f"({i},{j})/({j},{i}) exceeds cluster_tol * s / 2 = {limit:.3e}"
        )
    return h


@dataclass(frozen=True, eq=False)
class EigenSystem:
    """Eigendecomposition h = U diag(eigenvalues) U*.

    Eigenvalues are real and ascending; eigenvector columns are orthonormal
    and match the eigenvalue order. Eigenvector phases are unconstrained;
    all consumers in this package use only spectral projections, which are
    phase invariant.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_set(mats: Sequence[HermitianMatrix]) -> int:
    """Dimension shared by a nonempty set of matrices."""
    if len(mats) == 0:
        raise EmptySetError("expected a nonempty set of matrices")
    dim = mats[0].dim
    for m in mats:
        if m.dim != dim:
            raise DimMismatchError(f"dimensions differ: {m.dim} vs {dim}")
    return dim


def _eigh(a: np.ndarray):
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigendecomposition did not converge: {exc}") from exc


def _finite_spectrum(w: np.ndarray) -> np.ndarray:
    """``w``, eigenvalues of finite entries, unless one overflowed the float range."""
    if not np.isfinite(w).all():
        raise FloatRangeError("an eigenvalue exceeds the float range")
    return w


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    try:
        return _finite_spectrum(np.linalg.eigvalsh(a))
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigenvalue computation did not converge: {exc}") from exc


def _svd(a: np.ndarray, compute_uv: bool = True, full_matrices: bool = True):
    try:
        return np.linalg.svd(a, full_matrices=full_matrices, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"singular value decomposition did not converge: {exc}") from exc


def eigensystem(h: HermitianMatrix) -> EigenSystem:
    """Eigendecompose a Hermitian matrix.

    Raises
    ------
    EigenFailureError
        If the backend does not converge. The failure is propagated, never
        silently replaced by zeros.
    FloatRangeError
        If an eigenvalue exceeds the float range.
    """
    w, u = _eigh(h.entries)
    _finite_spectrum(w)
    w.setflags(write=False)
    u.setflags(write=False)
    return EigenSystem(eigenvalues=w, eigenvectors=u)


def _norm(a: np.ndarray) -> float:
    """Operator norm of a Hermitian array: its largest |eigenvalue|."""
    return float(np.max(np.abs(_eigvalsh(a))))


def operator_norm(h: HermitianMatrix) -> float:
    """Operator (spectral) norm: the largest absolute eigenvalue."""
    return _norm(h.entries)


def _scale(norm: float) -> float:
    """2**ceil(log2 norm), 1 for a zero norm: the scale every tolerance follows.
    A power of two, so it adds no rounding, capped at 2**1023 so it never overflows."""
    # norm = mantissa * 2**exponent, 0.5 <= mantissa < 1; 0.5 marks a power of two
    mantissa, exponent = math.frexp(norm) if norm > 0.0 else (0.5, 1)
    return math.ldexp(1.0, min(exponent - (mantissa == 0.5), 1023))


def _unit(norm: float) -> float:
    """min(1, :func:`_scale`): the "1 +" of a slack, made relative below unit scale."""
    return min(1.0, _scale(norm))


def _cluster_width(tol: Tolerances, *spectra: np.ndarray) -> float:
    """Clustering width: cluster_tol times :func:`_scale` of the largest
    |lambda|, read off the ends of ascending ``spectra`` the caller holds."""
    return tol.cluster_tol * _scale(max(abs(w[i]) for w in spectra for i in (0, -1)))


def _psd_slack(norm_x: float, norm_y: float, tol: Tolerances) -> float:
    """psd_tol * (u + ||x|| + ||y||) from norms the caller holds, u the :func:`_unit`
    of the larger norm; summed in halves, so the sum stays finite near the float max."""
    half = 0.5 * _unit(max(norm_x, norm_y)) + 0.5 * norm_x + 0.5 * norm_y
    return 2.0 * (tol.psd_tol * half)


def _check_pairs(
    mats: Sequence[HermitianMatrix],
    product: Callable[[np.ndarray, np.ndarray], np.ndarray],
    rate: float,
    fail: Callable[[int, int, float], Exception],
) -> list[float]:
    """Operator norms of ``mats``, once every pair has ||product(x / s_x, y / s_y)||
    <= rate * (u + b), s the :func:`_scale` of each norm, b = (||x|| / s_x)(||y|| / s_y)
    and u its :func:`_unit`. The division is exact and no product over- or
    underflows; ``fail(i, j, ratio)`` is raised with ratio = ||product|| / b, the same at
    every scale: ||product(x, y)|| / (||x|| ||y||)."""
    norms = [operator_norm(m) for m in mats]
    scales = [_scale(n) for n in norms]
    units = [m.entries / s for m, s in zip(mats, scales)]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            value = float(_svd(product(units[i], units[j]), compute_uv=False)[0])
            bound = (norms[i] / scales[i]) * (norms[j] / scales[j])
            if value > rate * (_unit(bound) + bound):
                raise fail(i, j, value / bound)
    return norms


def loewner_leq(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Decide x <= y in the Loewner order, i.e. y - x positive semidefinite.

    True iff lambda_min(y - x) >= -psd_tol * (u + ||x|| + ||y||).
    """
    x._require_same_dim(y)
    lam_min = 2.0 * float(_eigvalsh(0.5 * y.entries - 0.5 * x.entries)[0])  # halves cannot overflow
    return lam_min >= -_psd_slack(operator_norm(x), operator_norm(y), tol)


def functional_calculus(h: HermitianMatrix, f: Callable[[float], float]) -> HermitianMatrix:
    """Apply a real scalar map to h through its eigendecomposition.

    ``f`` is called once per eigenvalue (no vectorization requirement); the
    result is U diag(f(lambda_i)) U*, exact on the spectrum.
    """
    es = eigensystem(h)
    vals = np.array([float(f(float(v))) for v in es.eigenvalues])
    u = es.eigenvectors
    return HermitianMatrix((u * vals) @ u.conj().T)


def positive_part(h: HermitianMatrix) -> HermitianMatrix:
    """The positive part of h: eigenvalues clipped from below at zero."""
    return functional_calculus(h, lambda s: max(s, 0.0))


def negative_part(h: HermitianMatrix) -> HermitianMatrix:
    """The negative part of h, so that h = positive_part(h) - negative_part(h)."""
    return positive_part(-h)
