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
one dimension, so at most d windows are needed regardless of n.

Residuals with norm at or below the rounding floor are treated as exactly
consumed (clamped); content reachable only through components of size
~1e-12 of a dominant factor is therefore invisible. Generic spectra keep
angles of order one and structured inputs (commuting, orthogonal,
projections) have exactly zero components there, so the blind spot is only
reachable by adversarial near-degenerate construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    EigenSystem,
    HermitianMatrix,
    Tolerances,
    _check_set,
    _eigh,
    eigensystem,
    identity,
    negative_part,
    operator_norm,
    positive_part,
)
from .errors import (
    DeltaTooLargeError,
    EigenFailureError,
    InvalidParameterError,
    NoConvergenceError,
    NotInvertibleError,
    NotOrthogonalError,
    TooFewElementsError,
)

__all__ = [
    "PowerSchedule",
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


@dataclass(frozen=True)
class PowerSchedule:
    """Exponent ladder and stopping rule for the power-mean iterations.

    The default ladder doubles from 1 up to 2**max_power_doublings. The
    iteration stops once consecutive iterates satisfy
    ||A_next - A_prev|| < stop_tol * (1 + ||A_next||).
    """

    exponents: tuple[int, ...] = field(
        default_factory=lambda: tuple(2**k for k in range(DEFAULT_TOL.max_power_doublings + 1))
    )
    stop_tol: float = 1e-9

    def __post_init__(self) -> None:
        if len(self.exponents) == 0:
            raise InvalidParameterError("schedule needs at least one exponent")
        if self.exponents[0] < 1:
            raise InvalidParameterError("exponents must be positive integers")
        if any(b <= a for a, b in zip(self.exponents, self.exponents[1:])):
            raise InvalidParameterError("exponents must be strictly increasing")
        if not (self.stop_tol > 0.0):
            raise InvalidParameterError("stop_tol must be positive")

    @classmethod
    def doubling(cls, max_doublings: int = 48, stop_tol: float = 1e-9) -> "PowerSchedule":
        return cls(tuple(2**k for k in range(int(max_doublings) + 1)), stop_tol)


def _default_schedule(tol: Tolerances) -> PowerSchedule:
    return PowerSchedule.doubling(tol.max_power_doublings)


def _floor(systems: Sequence[EigenSystem]) -> float:
    return min(float(es.eigenvalues[0]) for es in systems)


def delta_floor(mats: Sequence[HermitianMatrix]) -> float:
    """Largest admissible downward shift: the smallest eigenvalue over the set
    (equivalently the smallest spectral-family breakpoint of any element)."""
    _check_set(mats)
    return _floor([eigensystem(m) for m in mats])


def _graded_root_pairs(
    log_weights: np.ndarray, vectors: np.ndarray, inv_exponent: float
) -> list[tuple[float, np.ndarray]]:
    """Eigenpairs of (sum_j e^{w_j} v_j v_j^*)^{inv_exponent}.

    ``vectors`` holds unit columns; returns (log of root eigenvalue, unit
    eigenvector) pairs spanning the numerically visible support. Directions
    never covered correspond to exact zeros of the sum.
    """
    out: list[tuple[float, np.ndarray]] = []
    dim = vectors.shape[0]
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
        for gi, ui in zip(g[keep], u[:, keep].T):
            out.append(((math.log(float(gi)) + top) * inv_exponent, basis @ ui))
        u_comp = u[:, ~keep]
        if u_comp.shape[1] == 0:
            break
        residuals = u_comp.conj().T @ v
        norms = np.linalg.norm(residuals, axis=0)
        alive = norms > _RESIDUAL_CLAMP
        w = w[alive] + 2.0 * np.log(norms[alive])
        v = residuals[:, alive] / norms[alive]
        basis = basis @ u_comp
    return out


def _psd_factors(
    shifted_eigs: list[tuple[np.ndarray, np.ndarray]], dim: int
) -> tuple[float, np.ndarray, np.ndarray]:
    """Collect strictly positive eigenpairs, rescaled so logs are <= 0."""
    scale = max((float(w.max()) for w, _ in shifted_eigs if w.size), default=0.0)
    scale = max(scale, 0.0)
    logs: list[float] = []
    cols: list[np.ndarray] = []
    if scale > 0.0:
        for w, u in shifted_eigs:
            for lam, col in zip(w, u.T):
                if lam > 0.0:
                    logs.append(math.log(float(lam) / scale))
                    cols.append(col)
    vec = (
        np.stack(cols, axis=1)
        if cols
        else np.zeros((dim, 0), dtype=np.complex128)
    )
    return scale, np.asarray(logs, dtype=float), vec


def _mean_pairs(
    scale: float,
    base_logs: np.ndarray,
    vectors: np.ndarray,
    n: int,
    count: int,
    normalize: bool,
    inv_sign: float,
) -> list[tuple[float, np.ndarray]]:
    """Pairs (value, vector) of (sum_x y^n / c)^(inv_sign / n), scaled back."""
    if scale <= 0.0 or base_logs.size == 0:
        return []
    log_c = math.log(count) if normalize else 0.0
    pairs = _graded_root_pairs(n * base_logs - log_c, vectors, inv_sign / n)
    log_scale = math.log(scale)
    return [(math.exp(val + inv_sign * log_scale), vec) for val, vec in pairs]


def _assemble(dim: int, pairs: list[tuple[float, np.ndarray]]) -> np.ndarray:
    a = np.zeros((dim, dim), dtype=np.complex128)
    for value, vec in pairs:
        a += value * np.outer(vec, vec.conj())
    return a


def run_schedule(
    iterates: Iterator[tuple[int, HermitianMatrix]],
    sched: PowerSchedule,
    what: str,
) -> tuple[HermitianMatrix, list[tuple[int, float]]]:
    """Run iterates until the Cauchy stopping rule of ``sched`` holds.

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
            if residual < sched.stop_tol * (1.0 + fro) and residual < sched.stop_tol * (
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
    sched: PowerSchedule | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> Iterator[tuple[int, HermitianMatrix]]:
    """Yield (n, delta I + (sum_x (x - delta I)^n / c)^(1/n)) along the schedule.

    This is the trace surface behind :func:`shifted_power_sup`; the CLI runs
    it through :func:`run_schedule` to report per-exponent residuals.
    """
    dim = _check_set(mats)
    systems = [eigensystem(m) for m in mats]
    floor = _floor(systems)
    norm = max(float(np.max(np.abs(es.eigenvalues))) for es in systems)
    slack = tol.psd_tol * (1.0 + norm)
    if delta is None:
        delta = floor
    if delta > floor + slack:
        raise DeltaTooLargeError(
            f"shift {delta} exceeds the admissible floor {floor}; "
            "a shifted element would not be positive semidefinite"
        )
    sched = sched or _default_schedule(tol)
    shifted = [(np.maximum(es.eigenvalues - delta, 0.0), es.eigenvectors) for es in systems]
    scale, logs, vecs = _psd_factors(shifted, dim)
    shift = delta * identity(dim)
    for n in sched.exponents:
        pairs = _mean_pairs(scale, logs, vecs, n, len(mats), normalize, +1.0)
        yield n, shift + HermitianMatrix(_assemble(dim, pairs))


def shifted_power_sup(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    sched: PowerSchedule | None = None,
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
        If the Cauchy stopping rule is not met within the schedule; the
        error carries the last iterate and residual trace.
    """
    sched = sched or _default_schedule(tol)
    limit, _ = run_schedule(
        power_sup_iterates(mats, delta, sched, normalize, tol), sched, "power-mean supremum"
    )
    return limit


def power_inf_iterates(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    sched: PowerSchedule | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> Iterator[tuple[int, HermitianMatrix]]:
    """Yield (n, -delta I + (sum_x (x + delta I)^(-n) / c)^(-1/n))."""
    dim = _check_set(mats)
    systems = [eigensystem(m) for m in mats]
    if delta is None:
        delta = max(0.0, 1.0 - _floor(systems))
    inverted = []
    for i, es in enumerate(systems):
        lam_min = float(es.eigenvalues[0]) + delta
        if lam_min < INVERTIBILITY_FLOOR:
            raise NotInvertibleError(
                f"element {i}: lambda_min(x + delta I) = {lam_min:.3e} is below "
                f"the invertibility floor {INVERTIBILITY_FLOOR:.0e}"
            )
        inverted.append((1.0 / (es.eigenvalues + delta), es.eigenvectors))
    sched = sched or _default_schedule(tol)
    scale, logs, vecs = _psd_factors(inverted, dim)
    shift = -delta * identity(dim)
    for n in sched.exponents:
        # (sum y^n / c)^(-1/n) with y = (x + delta I)^(-1)
        pairs = _mean_pairs(scale, logs, vecs, n, len(mats), normalize, -1.0)
        if len(pairs) < dim:
            raise EigenFailureError(
                "inverse power mean lost rank; shifted inputs are too close "
                "to singular for the scale-window engine"
            )
        yield n, shift + HermitianMatrix(_assemble(dim, pairs))


def inverse_power_inf(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    sched: PowerSchedule | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> HermitianMatrix:
    """Infimum via the inverse power-mean limit.

    Requires every x + delta I to be positive invertible (lambda_min at
    least the invertibility floor). The default shift max(0, 1 - floor)
    pushes the binding element's smallest eigenvalue to one, minimizing the
    dynamic range of the inverted family.
    """
    sched = sched or _default_schedule(tol)
    limit, _ = run_schedule(
        power_inf_iterates(mats, delta, sched, normalize, tol), sched, "power-mean infimum"
    )
    return limit


def harmonic_pair_inf(
    x: HermitianMatrix,
    y: HermitianMatrix,
    sched: PowerSchedule | None = None,
    tol: Tolerances = DEFAULT_TOL,
) -> HermitianMatrix:
    """Pair infimum via iterated harmonic means of powers.

    The n = 1 iterate is the harmonic mean 2 (x^(-1) + y^(-1))^(-1); the
    limit is the spectral-order infimum. Definitionally this is the
    normalized inverse power mean with zero shift, and the iterates are
    computed by exactly that code path.
    """
    return inverse_power_inf([x, y], delta=0.0, sched=sched, normalize=True, tol=tol)


def _check_orthogonal(mats: Sequence[HermitianMatrix]) -> None:
    if len(mats) < 2:
        raise TooFewElementsError(
            "orthogonal-family formulas need at least two elements"
        )
    norms = [operator_norm(m) for m in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            prod = float(np.linalg.norm(mats[i].entries @ mats[j].entries, 2))
            if prod > 1e-10 * (1.0 + norms[i] * norms[j]):
                raise NotOrthogonalError(
                    f"elements {i} and {j} are not orthogonal: ||x y|| = {prod:.3e}"
                )


def orthogonal_sup(
    mats: Sequence[HermitianMatrix], tol: Tolerances = DEFAULT_TOL
) -> HermitianMatrix:
    """Supremum of mutually orthogonal elements: the sum of positive parts."""
    _check_set(mats)
    _check_orthogonal(mats)
    out = positive_part(mats[0])
    for m in mats[1:]:
        out = out + positive_part(m)
    return out


def orthogonal_inf(
    mats: Sequence[HermitianMatrix], tol: Tolerances = DEFAULT_TOL
) -> HermitianMatrix:
    """Infimum of mutually orthogonal elements: minus the sum of negative parts."""
    _check_set(mats)
    _check_orthogonal(mats)
    out = negative_part(mats[0])
    for m in mats[1:]:
        out = out + negative_part(m)
    return -out
