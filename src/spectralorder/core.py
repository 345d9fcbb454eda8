"""Dense Hermitian matrices, eigendecomposition, the Loewner order, and
monotone functional calculus.

Everything downstream (spectral families, lattice operations, power-mean
limits) is built on the handful of operations here. All values are
immutable after construction and all functions are pure, so the package is
safe for concurrent use without locking.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    DimMismatchError,
    EigenFailureError,
    EmptySetError,
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
    "loewner_slack",
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
        Width used to merge nearly equal eigenvalues before building or
        comparing spectral families.
    psd_tol : float
        Base slack for positive-semidefiniteness tests. Order comparisons
        scale it by (1 + ||x|| + ||y||) so the slack follows the operand
        magnitudes; projection comparisons use 10 * psd_tol directly since
        projections have unit scale.
    conv_tol : float
        Stopping threshold for fixed-point iterations (the alternating
        projection oracle).
    max_power_doublings : int
        Cap on the exponent-doubling ladder of the power-mean limit
        formulas, which run over n = 2**k for k = 0..max_power_doublings.
        It is the only setting of that ladder; the stopping rule is fixed.
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
        if int(self.max_power_doublings) < 1:
            raise InvalidParameterError("max_power_doublings must be a positive integer")


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
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise NonSquareError("dimension must be at least 1")
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
        must not exceed ``tol.cluster_tol * max(1, max|a_ij|)``, so the
        tolerance follows the entry scale and roundoff is never rejected.

    Returns
    -------
    HermitianMatrix
        The symmetrization (raw + raw*)/2.

    Raises
    ------
    NonSquareError
        If the input is not a square 2-d array.
    NonFiniteError
        If any entry is NaN or infinite.
    NotHermitianError
        If the asymmetry exceeds the tolerance; the message reports the
        worst entry pair.
    """
    a = np.asarray(raw, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NonSquareError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix entries must be finite (got NaN or infinity)")
    asym = a - a.conj().T
    worst = np.abs(asym)
    i, j = np.unravel_index(np.argmax(worst), worst.shape)
    limit = tol.cluster_tol * max(1.0, float(np.max(np.abs(a))))
    if worst[i, j] > limit:
        raise NotHermitianError(
            f"asymmetry {worst[i, j]:.3e} at entries ({i},{j})/({j},{i}) "
            f"exceeds tolerance {limit:.3e}"
        )
    return HermitianMatrix(a)


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


def _eigvalsh(a: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"eigenvalue computation did not converge: {exc}") from exc


def _svd(a: np.ndarray, compute_uv: bool = True):
    try:
        return np.linalg.svd(a, compute_uv=compute_uv)
    except np.linalg.LinAlgError as exc:
        raise EigenFailureError(f"singular value decomposition did not converge: {exc}") from exc


def eigensystem(h: HermitianMatrix) -> EigenSystem:
    """Eigendecompose a Hermitian matrix.

    Raises
    ------
    EigenFailureError
        If the backend does not converge. The failure is propagated, never
        silently replaced by zeros.
    """
    w, u = _eigh(h.entries)
    w.setflags(write=False)
    u.setflags(write=False)
    return EigenSystem(eigenvalues=w, eigenvectors=u)


def operator_norm(h: HermitianMatrix) -> float:
    """Operator (spectral) norm: the largest absolute eigenvalue."""
    return float(np.max(np.abs(_eigvalsh(h.entries))))


def loewner_slack(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerances) -> float:
    """Scale-aware PSD slack used by :func:`loewner_leq`."""
    return tol.psd_tol * (1.0 + operator_norm(x) + operator_norm(y))


def loewner_leq(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> bool:
    """Decide x <= y in the Loewner order, i.e. y - x positive semidefinite.

    True iff lambda_min(y - x) >= -psd_tol * (1 + ||x|| + ||y||).
    """
    x._require_same_dim(y)
    lam_min = float(_eigvalsh(y.entries - x.entries)[0])
    return lam_min >= -loewner_slack(x, y, tol)


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
