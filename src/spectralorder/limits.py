"""Iterative power-mean limit formulas for spectral-order suprema and infima.

Three families of formulas live here, each converging (in finite dimension,
in norm) to the lattice-route answers from :mod:`spectralorder.lattice`:

* shifted power-mean suprema: delta I + (sum_x (x - delta I)^n)^(1/n),
* inverse power-mean infima: -delta I + (sum_x (x + delta I)^(-n))^(-1/n),
* orthogonal-family sums of positive (or negative) parts, exact in one step.

All powers and roots go through eigenvalue functional calculus, never
repeated matrix multiplication: the exponent ladder reaches 2**48, where a
matrix power would overflow immediately. Eigenvalue powers are kept as
logarithms for the same reason.

Log bookkeeping alone is not enough. The matrix sum S_n = sum_x x^n has
eigenvalues spanning about n * log10(lambda_max/lambda_min) decades, while a
dense double-precision eigendecomposition resolves only ~16 of them; the
small eigenvalues of a naively formed S_n are pure rounding noise, and their
n-th roots drift toward the top of the spectrum instead of the true limit
(already visibly wrong for n = 64 on generic inputs). The engine in
:func:`_graded_root_pairs` therefore never forms S_n. It keeps the sum as
weighted rank-one factors with logarithmic weights and peels the spectrum
off one scale window at a time: the top window is assembled and
eigendecomposed at unit scale, its trustworthy eigenpairs are emitted, and
every factor's residual against the remaining orthogonal complement is
re-normalized and carried into the next window. Each pass resolves at least
one dimension, so at most d windows are needed regardless of n. Eigenpairs
stay arrays throughout: the engine returns (root logs, columns) and an
iterate is the one product (columns * values) columns^* plus the shift.

The exponents run over n = 2**k for k = 0..``tol.max_power_doublings``; that
cap is the only setting of the ladder. :func:`run_schedule` stops at the
first n whose residual ||A_n - A_prev|| is below ``_STOP_TOL * (1 + ||A_n||)``
with the fixed ``_STOP_TOL = 1e-9``.

Residuals with norm at or below the rounding floor are treated as exactly
consumed (clamped); content reachable only through components of size
~1e-12 of a dominant factor is therefore invisible. Generic spectra keep
angles of order one and structured inputs (commuting, orthogonal,
projections) have exactly zero components there, so the blind spot is only
reachable by adversarial near-degenerate construction.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    EigenSystem,
    HermitianMatrix,
    Tolerances,
    _check_set,
    _eigh,
    _svd,
    eigensystem,
    negative_part,
    operator_norm,
    positive_part,
)
from .errors import (
    DeltaTooLargeError,
    EigenFailureError,
    NoConvergenceError,
    NotInvertibleError,
    NotOrthogonalError,
    TooFewElementsError,
)

__all__ = [
    "run_schedule",
    "delta_floor",
    "shifted_power_sup",
    "inverse_power_inf",
    "harmonic_pair_inf",
    "orthogonal_sup",
    "orthogonal_inf",
    "power_sup_iterates",
    "power_inf_iterates",
    "INVERTIBILITY_FLOOR",
]

# Minimum admissible lambda_min(x + delta I) for the inverse formulas.
INVERTIBILITY_FLOOR = 1e-6

# Engine constants (natural-log units where noted).
_ACTIVE_WINDOW = 37.0  # ~16 decades: factors further below the window top
#                        are invisible to a double-precision sum anyway
_KEEP_RATIO = 1e-8  # retained eigenvalues keep >= 8 relative digits
_RESIDUAL_CLAMP = 1e-12  # residual norms at rounding scale count as consumed
_FRO_MARGIN = 1.0 + 1e-9  # lifts a computed Frobenius norm above any
#                           computed 2-norm of the same matrix
_STOP_TOL = 1e-9  # Cauchy stopping rule: ||A_n - A_prev|| < _STOP_TOL (1 + ||A_n||)


def _spectral_range(systems: Sequence[EigenSystem]) -> tuple[float, float]:
    """Smallest eigenvalue and largest |eigenvalue| over the set."""
    lam = np.concatenate([es.eigenvalues for es in systems])
    return float(lam.min()), float(np.abs(lam).max())


def delta_floor(mats: Sequence[HermitianMatrix]) -> float:
    """Largest admissible downward shift: the smallest eigenvalue over the set
    (equivalently the smallest spectral-family breakpoint of any element)."""
    _check_set(mats)
    return _spectral_range([eigensystem(m) for m in mats])[0]


def _graded_root_pairs(
    log_weights: np.ndarray, vectors: np.ndarray, inv_exponent: float
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of (sum_j e^{w_j} v_j v_j^*)^{inv_exponent}.

    ``vectors`` holds unit columns; returns (root eigenvalue logs, orthonormal
    eigenvector columns) spanning the numerically visible support. Directions
    never covered correspond to exact zeros of the sum.
    """
    dim = vectors.shape[0]
    logs = [np.zeros(0)]
    cols = [np.zeros((dim, 0), dtype=np.complex128)]
    basis = np.eye(dim, dtype=np.complex128)
    w = np.asarray(log_weights, dtype=float)
    v = np.asarray(vectors, dtype=np.complex128)
    while w.size and basis.shape[1]:
        top = float(w.max())
        active = w >= top - _ACTIVE_WINDOW
        va = v[:, active]
        s = (va * np.exp(w[active] - top)) @ va.conj().T
        s = (s + s.conj().T) / 2.0
        g, u = _eigh(s)
        g_max = float(g[-1])
        if g_max <= 0.0:
            break
        keep = g >= _KEEP_RATIO * g_max
        logs.append((np.log(g[keep]) + top) * inv_exponent)
        cols.append(basis @ u[:, keep])
        u_comp = u[:, ~keep]
        residuals = u_comp.conj().T @ v
        norms = np.linalg.norm(residuals, axis=0)
        alive = norms > _RESIDUAL_CLAMP
        w = w[alive] + 2.0 * np.log(norms[alive])
        v = residuals[:, alive] / norms[alive]
        basis = basis @ u_comp
    return np.concatenate(logs), np.concatenate(cols, axis=1)


def _power_mean_roots(
    eigs: Sequence[tuple[np.ndarray, np.ndarray]],
    max_doublings: int,
    normalize: bool,
    inv_sign: float,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (n, values, columns), the eigenpairs of (sum_y y^n / c)^(inv_sign / n)
    for n = 2**k, k = 0..max_doublings, from the (eigenvalues, eigenvectors) of
    each y. Only strictly positive eigenvalues contribute; c = len(eigs) if
    ``normalize``."""
    w = np.concatenate([vals for vals, _ in eigs])
    u = np.concatenate([vecs for _, vecs in eigs], axis=1)
    pos = w > 0.0
    w, u = w[pos], u[:, pos]
    scale = float(w.max()) if w.size else 1.0
    logs = np.log(w / scale)
    log_c = math.log(len(eigs)) if normalize else 0.0
    log_scale = inv_sign * math.log(scale)
    for n in (2**k for k in range(int(max_doublings) + 1)):
        root_logs, cols = _graded_root_pairs(n * logs - log_c, u, inv_sign / n)
        yield n, np.exp(root_logs + log_scale), cols


def _check_shift(delta: float, norm: float) -> None:
    """Reject a shift whose rounding, eps * |delta| on every shifted eigenvalue,
    exceeds the stopping rule at the input scale: the limit would be wrong."""
    if np.finfo(float).eps * abs(delta) > _STOP_TOL * (1.0 + norm):
        raise DeltaTooLargeError(
            f"shift {delta} is too large: its rounding exceeds the stopping rule"
        )


def run_schedule(
    iterates: Iterator[tuple[int, HermitianMatrix]], what: str
) -> tuple[HermitianMatrix, list[tuple[int, float]]]:
    """Run iterates until the Cauchy stopping rule holds.

    Returns the limit and the residual trace [(n, ||A_n - A_prev||), ...].

    Raises
    ------
    NoConvergenceError
        If the iterates run out first; the error carries the last iterate
        and the residual trace.
    """
    prev: HermitianMatrix | None = None
    current: HermitianMatrix | None = None
    residual = math.inf
    trace: list[tuple[int, float]] = []
    for n, current in iterates:
        if prev is not None:
            residual = operator_norm(current - prev)
            trace.append((n, residual))
            # ||A_n|| <= ||A_n||_F: a residual at or above the threshold
            # taken with the Frobenius norm (widened past its roundoff)
            # cannot stop the run, so the exact norm is skipped.
            fro = _FRO_MARGIN * float(np.linalg.norm(current.entries))
            if residual < _STOP_TOL * (1.0 + fro) and residual < _STOP_TOL * (
                1.0 + operator_norm(current)
            ):
                return current, trace
        prev = current
    raise NoConvergenceError(
        f"{what} did not meet the stopping rule within the exponent schedule "
        f"(last residual {residual:.3e}); near-degenerate breakpoints of the "
        "answer converge slowly",
        last_iterate=current,
        residual=residual,
        trace=trace,
    )


def power_sup_iterates(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> Iterator[tuple[int, HermitianMatrix]]:
    """Yield (n, delta I + (sum_x (x - delta I)^n / c)^(1/n)) for n = 2**k,
    k = 0..tol.max_power_doublings.

    This is the trace surface behind :func:`shifted_power_sup`; the CLI runs
    it through :func:`run_schedule` to report per-exponent residuals.
    """
    dim = _check_set(mats)
    systems = [eigensystem(m) for m in mats]
    floor, norm = _spectral_range(systems)
    slack = tol.psd_tol * (1.0 + norm)
    if delta is None:
        delta = floor
    if delta > floor + slack:
        raise DeltaTooLargeError(
            f"shift {delta} exceeds the admissible floor {floor}; "
            "a shifted element would not be positive semidefinite"
        )
    _check_shift(delta, norm)
    shifted = [(es.eigenvalues - delta, es.eigenvectors) for es in systems]
    for n, vals, cols in _power_mean_roots(shifted, tol.max_power_doublings, normalize, +1.0):
        yield n, HermitianMatrix(delta * np.eye(dim) + (cols * vals) @ cols.conj().T)


def shifted_power_sup(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> HermitianMatrix:
    """Supremum via the shifted power-mean limit.

    Any shift delta <= delta_floor(mats) is admissible and all admissible
    shifts share the same limit; the default is the floor itself, which
    minimizes the dynamic range of the shifted family. With delta = 0 on
    positive inputs this is the plain power-mean formula; with
    ``normalize`` the sum is replaced by the arithmetic mean, which changes
    no limit (the factor c^(1/n) tends to one).

    Raises
    ------
    DeltaTooLargeError
        If delta exceeds the floor, so some x - delta I is not PSD.
    NoConvergenceError
        If the Cauchy stopping rule is not met by n = 2**max_power_doublings; the
        error carries the last iterate and residual trace.
    """
    limit, _ = run_schedule(power_sup_iterates(mats, delta, normalize, tol), "power-mean supremum")
    return limit


def power_inf_iterates(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> Iterator[tuple[int, HermitianMatrix]]:
    """Yield (n, -delta I + (sum_x (x + delta I)^(-n) / c)^(-1/n))."""
    dim = _check_set(mats)
    systems = [eigensystem(m) for m in mats]
    floor, norm = _spectral_range(systems)
    if delta is None:
        delta = max(0.0, 1.0 - floor)
    for i, es in enumerate(systems):
        lam_min = float(es.eigenvalues[0]) + delta
        if lam_min < INVERTIBILITY_FLOOR:
            raise NotInvertibleError(
                f"element {i}: lambda_min(x + delta I) = {lam_min:.3e} is below "
                f"the invertibility floor {INVERTIBILITY_FLOOR:.0e}"
            )
    inverted = [(1.0 / (es.eigenvalues + delta), es.eigenvectors) for es in systems]
    _check_shift(delta, norm)
    for n, vals, cols in _power_mean_roots(inverted, tol.max_power_doublings, normalize, -1.0):
        if cols.shape[1] < dim:
            raise EigenFailureError(
                "inverse power mean lost rank; shifted inputs are too close "
                "to singular for the scale-window engine"
            )
        yield n, HermitianMatrix(-delta * np.eye(dim) + (cols * vals) @ cols.conj().T)


def inverse_power_inf(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> HermitianMatrix:
    """Infimum via the inverse power-mean limit.

    Requires every x + delta I to be positive invertible (lambda_min at
    least the invertibility floor). The default shift max(0, 1 - floor)
    pushes the binding element's smallest eigenvalue to one, minimizing the
    dynamic range of the inverted family.
    """
    limit, _ = run_schedule(power_inf_iterates(mats, delta, normalize, tol), "power-mean infimum")
    return limit


def harmonic_pair_inf(
    x: HermitianMatrix,
    y: HermitianMatrix,
    tol: Tolerances = DEFAULT_TOL,
) -> HermitianMatrix:
    """Pair infimum via iterated harmonic means of powers.

    The n = 1 iterate is the harmonic mean 2 (x^(-1) + y^(-1))^(-1); the
    limit is the spectral-order infimum. Definitionally this is the
    normalized inverse power mean with zero shift, and the iterates are
    computed by exactly that code path.
    """
    return inverse_power_inf([x, y], delta=0.0, normalize=True, tol=tol)


def _check_orthogonal(mats: Sequence[HermitianMatrix]) -> None:
    if len(mats) < 2:
        raise TooFewElementsError(
            "orthogonal-family formulas need at least two elements"
        )
    norms = [operator_norm(m) for m in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            prod = float(_svd(mats[i].entries @ mats[j].entries, compute_uv=False)[0])
            if prod > 1e-10 * (1.0 + norms[i] * norms[j]):
                raise NotOrthogonalError(
                    f"elements {i} and {j} are not orthogonal: ||x y|| = {prod:.3e}"
                )


def orthogonal_sup(mats: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """Supremum of mutually orthogonal elements: the sum of positive parts."""
    _check_set(mats)
    _check_orthogonal(mats)
    out = positive_part(mats[0])
    for m in mats[1:]:
        out = out + positive_part(m)
    return out


def orthogonal_inf(mats: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """Infimum of mutually orthogonal elements: minus the sum of negative parts."""
    _check_set(mats)
    _check_orthogonal(mats)
    out = negative_part(mats[0])
    for m in mats[1:]:
        out = out + negative_part(m)
    return -out
