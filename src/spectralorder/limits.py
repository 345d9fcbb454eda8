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
carried into the next window. Each pass resolves at least one dimension, so
at most d windows are needed regardless of n.

What n does not change is computed once per limit: :func:`_power_mean_roots`
sorts the factors by weight and takes one QR of the sorted factor matrix (the
graded-matrix technique of Demmel and Veselic, SIAM J. Matrix Anal. Appl. 13,
1992) and one suffix-sum table of R, each column's last nonzero row and the
sums of |R|^2 below each row with their logs. A window's active factors occupy
only the rows of R down to their deepest nonzero one, so a window is an
eigenproblem on a few rows (two at n = 2**20 on a d = 32 set). A factor's level
is its log weight plus the log of its squared norm below the emitted rows. Rows
below the frontier, the largest window stop so far, were never rotated, so the
table gives those norms and only rows above the frontier are summed again. A
window that keeps all its rows rotates none, as emitted rows are never read
again; a partial one rotates the rows it leaves behind in a private copy, since
R and its table serve the whole ladder. Iterates map columns back by Q.

The exponents run over n = 2**k for k = 0..``tol.max_power_doublings``; that
cap is the only setting of the ladder. The error of the iterate A_n is about
c/n plus exponentially small terms (Kato, Linear Multilinear Algebra 8,
1979), so the plain Cauchy residual ||A_n - A_{n/2}|| falls below 1e-9 only
near n = 2**30. :func:`run_schedule` instead stops on the Richardson
extrapolant E_n = 2 A_n - A_{n/2}, which cancels the c/n term: at the first
n with ||E_n - E_{n/2}|| < ``_STOP_TOL * (u + ||E_n||)`` (fixed
``_STOP_TOL = 1e-9``) it returns E_n, typically near n = 2**19. The unit
u = min(1, 2**ceil(log2 ||A_1||)) (``core._unit``) keeps the rule relative
below unit scale. Both power routes run at unit scale, on the eigenvalues over
s = 2**ceil(log2 max|lambda|) (``core._scale``), so their shift checks, the
invertibility floor and the default inverse shift are scale-free. Extrapolation
uses only the route's own iterates, so it stays independent of the lattice route.

A carried residual is only as accurate as the windows that rotated it.
Each factor therefore carries an absolute direction error. It starts at
``_RESIDUAL_CLAMP`` times the factor's norm, and every window adds
b eps (g_max / smallest kept g) times the factor's current residual norm,
the Davis-Kahan bound on the window's b x b eigenvectors (Davis and Kahan,
SIAM J. Numer. Anal. 7, 1970). A factor survives only while its residual
norm exceeds its error. So a rounding residual is never carried at a level
that outranks true content, and no iterate gains a spurious eigenvalue.
Content reachable only through components below that error is invisible;
generic spectra keep angles of order one and structured inputs (commuting,
orthogonal, projections) have exactly zero components there, so only an
adversarial near-degenerate construction reaches it.
"""

from __future__ import annotations

import contextlib
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
    _eigvalsh,
    _norm,
    _psd_slack,
    _scale,
    _svd,
    _unit,
    eigensystem,
    negative_part,
    operator_norm,
    positive_part,
)
from .errors import (
    DeltaTooLargeError,
    EigenFailureError,
    FloatRangeError,
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

# Minimum admissible lambda_min(x + delta I) / s for the inverse formulas.
INVERTIBILITY_FLOOR = 1e-6

# Engine constants (natural-log units where noted).
_ACTIVE_WINDOW = 37.0  # ~16 decades: factors further below the window top
#                        are invisible to a double-precision sum anyway
_KEEP_RATIO = 1e-8  # retained eigenvalues keep >= 8 relative digits
_RESIDUAL_CLAMP = 1e-12  # starting direction error, relative to the factor norm
_FRO_MARGIN = 1.0 + 1e-9  # lifts a computed Frobenius norm above any
#                           computed 2-norm of the same matrix
_STOP_TOL = 1e-9  # stopping rule: ||E_n - E_{n/2}|| < _STOP_TOL (u + ||E_n||)


@contextlib.contextmanager
def _in_float_range(what: str) -> Iterator[None]:
    """Raise FloatRangeError for an overflow in the wrapped arithmetic."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise FloatRangeError(f"{what} overflows the float range ({exc})") from exc


def _spectral_range(systems: Sequence[EigenSystem]) -> tuple[float, float]:
    """Smallest eigenvalue and largest |eigenvalue| over the set."""
    lam = np.concatenate([es.eigenvalues for es in systems])
    return float(lam.min()), float(np.abs(lam).max())


def delta_floor(mats: Sequence[HermitianMatrix]) -> float:
    """Largest admissible downward shift: the smallest eigenvalue over the set
    (equivalently the smallest spectral-family breakpoint of any element)."""
    _check_set(mats)
    return _spectral_range([eigensystem(m) for m in mats])[0]


def _residual_tables(vectors: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each column's last nonzero row, and the suffix sums below[r] of |v|^2
    over rows >= r (a zero row past the end) with their logs."""
    last = np.max(np.where(vectors != 0.0, np.arange(len(vectors))[:, None], 0), axis=0, initial=0)
    below = np.zeros((len(vectors) + 1, vectors.shape[1]))
    below[-2::-1] = np.cumsum((vectors * vectors.conj()).real[::-1], axis=0)
    with np.errstate(divide="ignore"):  # log 0 = -inf: nothing left below
        return last, below, np.log(below)


def _graded_root_pairs(
    log_weights: np.ndarray, vectors: np.ndarray, inv_exponent: float, tables: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Eigenpairs of (sum_j e^{w_j} v_j v_j^*)^{inv_exponent}.

    Returns (root eigenvalue logs, orthonormal eigenvector columns) spanning
    the numerically visible support. Directions never covered correspond to
    exact zeros of the sum. A window only touches the rows down to its
    factors' last nonzero one, so upper-trapezoidal ``vectors`` (the R of a
    weight-ordered QR) give windows of a few rows; dense ones behave as if
    every window spanned the whole remaining complement. ``tables`` are the
    :func:`_residual_tables` of ``vectors``, built once for a whole ladder.
    """
    last, below, log_below = tables
    w = np.asarray(log_weights, dtype=float)
    err = _RESIDUAL_CLAMP * np.sqrt(below[0])
    alive = np.ones(w.shape, dtype=bool)
    basis = np.eye(len(vectors), dtype=np.complex128)
    logs = np.empty(len(vectors))
    eps = np.finfo(float).eps
    # rows from ``frontier`` down were never rotated; ``rotated`` holds rows start..frontier-1
    start = frontier = 0
    while True:
        if start < frontier:
            tail = below[frontier] + (rotated * rotated.conj()).real.sum(axis=0)
            with np.errstate(divide="ignore"):
                log_tail = np.log(tail)
        else:
            tail, log_tail = below[start], log_below[start]
        norms = np.sqrt(tail)
        alive &= norms > err  # a factor that died stays dead
        level = np.where(alive, w + log_tail, -np.inf)
        top = float(level.max(initial=-np.inf))
        if top == -np.inf:  # no residual left, or every row emitted
            return logs[:start], basis[:, :start]
        active = level >= top - _ACTIVE_WINDOW
        stop = max(int(last[active].max()) + 1, frontier)
        block = vectors[frontier:stop]
        if start < frontier:
            block = np.concatenate((rotated, block))
        va = block[:, active]
        s = (va * np.exp(w[active] - top)) @ va.conj().T
        if stop == start + 1:
            # a one-row window is its own eigenpair: value s[0, 0], vector 1
            logs[start] = (np.log(s[0, 0].real) + top) * inv_exponent
            err += eps * norms
            start = frontier = stop
            continue
        g, u = _eigh((s + s.conj().T) / 2.0)
        kept = int(np.count_nonzero(g >= _KEEP_RATIO * g[-1]))
        u = u[:, ::-1]  # kept eigenvectors first: they become the emitted rows
        logs[start : start + kept] = (np.log(g[::-1][:kept]) + top) * inv_exponent
        basis[:, start:stop] = basis[:, start:stop] @ u
        # Davis-Kahan error of the kept eigenvectors, carried by each residual
        err += (stop - start) * eps * (g[-1] / g[-kept]) * norms
        if kept < stop - start:  # emitted rows are never read again
            rotated = u[:, kept:].conj().T @ block
        start, frontier = start + kept, stop


def _power_mean_roots(
    eigs: Sequence[tuple[np.ndarray, np.ndarray]],
    max_doublings: int,
    normalize: bool,
    inv_sign: float,
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """Yield (n, value logs, columns), the eigenpairs of (sum_y y^n / c)^(inv_sign / n)
    for n = 2**k, k = 0..max_doublings, from the (eigenvalues, eigenvectors) of
    each y. Only strictly positive eigenvalues contribute; c = len(eigs) if
    ``normalize``."""
    w = np.concatenate([vals for vals, _ in eigs])
    u = np.concatenate([vecs for _, vecs in eigs], axis=1)
    pos = w > 0.0
    # The order of the weights n log(lambda) is the same at every n, so one
    # QR of the weight-sorted factors serves the whole ladder.
    order = np.argsort(-w[pos], kind="stable")
    w = w[pos][order]
    q, r = np.linalg.qr(u[:, pos][:, order])
    scale = float(w[0]) if w.size else 1.0
    logs = np.log(w / scale)
    log_c = math.log(len(eigs)) if normalize else 0.0
    log_scale = inv_sign * math.log(scale)
    tables = _residual_tables(r)
    for n in (2**k for k in range(int(max_doublings) + 1)):
        root_logs, cols = _graded_root_pairs(n * logs - log_c, r, inv_sign / n, tables)
        yield n, root_logs + log_scale, q @ cols


def run_schedule(
    iterates: Iterator[tuple[int, HermitianMatrix]], what: str
) -> tuple[HermitianMatrix, list[tuple[int, float, float | None]]]:
    """Run iterates until the extrapolated stopping rule holds.

    The error of A_n is about c/n plus exponentially small terms, and the
    extrapolant E_n = 2 A_n - A_{n/2} cancels the c/n term. The run stops at
    the first n with ||E_n - E_{n/2}|| < _STOP_TOL (u + ||E_n||), where
    u = :func:`_unit` of ||A_1|| keeps the rule relative below unit scale.

    Returns the limit E_n and the trace, one record
    (n, ||A_n - A_{n/2}||, ||E_n - E_{n/2}||) per exponent from n = 2 on;
    the extrapolant residual is None in the first record, where E_{n/2}
    does not exist yet.

    Raises
    ------
    NoConvergenceError
        If the iterates run out first; the error carries the last plain
        iterate, the last plain residual and the trace.
    FloatRangeError
        If an iterate, or the arithmetic on it here, overflows the float
        range, which only inputs near the float maximum reach.
    """
    prev: np.ndarray | None = None
    current: HermitianMatrix | None = None
    prev_ext: np.ndarray | None = None
    unit = 1.0
    residual = math.inf
    trace: list[tuple[int, float, float | None]] = []
    with _in_float_range(f"{what}: an iterate or extrapolant"):
        for n, current in iterates:
            entries = current.entries
            if prev is None:
                unit = _unit(_norm(entries))
            else:
                step = entries - prev
                ext = entries + step
                if prev_ext is None:
                    residual = _norm(step)
                    trace.append((n, residual, None))
                else:
                    spectra = _eigvalsh(np.stack((step, ext - prev_ext)))
                    residual, ext_residual = np.max(np.abs(spectra), axis=1).tolist()
                    trace.append((n, residual, ext_residual))
                    # ||E_n|| <= ||E_n||_F: a residual at or above the threshold
                    # taken with the Frobenius norm (widened past its roundoff)
                    # cannot stop the run, so the exact norm is skipped. The sum
                    # of squares is taken on E_n over its power-of-two scale,
                    # which adds no rounding and cannot overflow.
                    scale = _scale(float(np.max(np.abs(ext))))
                    fro = _FRO_MARGIN * scale * float(np.linalg.norm(ext / scale))
                    if ext_residual < _STOP_TOL * (unit + fro) and ext_residual < _STOP_TOL * (
                        unit + _norm(ext)
                    ):
                        return HermitianMatrix(ext), trace
                prev_ext = ext
            prev = entries
    raise NoConvergenceError(
        f"{what} did not meet the stopping rule within the exponent schedule "
        f"(last residual {residual:.3e}); near-degenerate breakpoints of the "
        "answer converge slowly",
        last_iterate=current,
        residual=residual,
        trace=trace,
    )


def _power_iterates(
    mats: Sequence[HermitianMatrix],
    delta: float | None,
    sign: float,
    normalize: bool,
    tol: Tolerances,
) -> Iterator[tuple[int, HermitianMatrix]]:
    """Yield (n, c I + (sum_x (x - c I)^(sign n) / m)^(sign / n)) for n = 2**k,
    k = 0..tol.max_power_doublings, with c = sign * delta and m = len(mats) if
    ``normalize``, else 1. sign = +1 is the supremum route, whose default c is the
    floor; sign = -1 is the infimum route, whose default delta is max(0, s - floor).

    All arithmetic runs on the eigenvalues over s = :func:`_scale` of the largest
    |eigenvalue|. s is a power of two, so dividing by it and multiplying the
    iterate back are exact, and every check is scale-free."""
    dim = _check_set(mats)
    systems = [eigensystem(m) for m in mats]
    floor, norm = _spectral_range(systems)
    s = _scale(norm)
    floor, norm = floor / s, norm / s
    if delta is None:
        c = floor if sign > 0 else -max(0.0, 1.0 - floor)
    else:
        c = sign * delta / s
    if sign > 0 and c > floor + _psd_slack(norm, 0.0, tol):
        raise DeltaTooLargeError(
            f"shift {delta} exceeds the admissible floor {s * floor}; "
            "a shifted element would not be positive semidefinite"
        )
    for i, es in enumerate(systems):
        lam_min = float(es.eigenvalues[0]) / s - c
        if sign < 0 and lam_min < INVERTIBILITY_FLOOR:
            raise NotInvertibleError(
                f"element {i}: lambda_min(x + delta I) = {s * lam_min:.3e} is below "
                f"the invertibility floor {INVERTIBILITY_FLOOR * s:.3e}"
            )
    if np.finfo(float).eps * abs(c) > _STOP_TOL * (1.0 + norm):  # eps |c| on every eigenvalue
        raise DeltaTooLargeError(
            f"shift {delta} is too large: its rounding exceeds the stopping rule"
        )
    factors = [((es.eigenvalues / s - c) ** sign, es.eigenvectors) for es in systems]
    for n, logs, cols in _power_mean_roots(factors, tol.max_power_doublings, normalize, sign):
        if sign < 0 and cols.shape[1] < dim:
            raise EigenFailureError(
                "inverse power mean lost rank; shifted inputs are too close "
                "to singular for the scale-window engine"
            )
        with _in_float_range(f"power-mean {'supremum' if sign > 0 else 'infimum'}: an iterate"):
            iterate = s * (c * np.eye(dim) + (cols * np.exp(logs)) @ cols.conj().T)
        yield n, HermitianMatrix(iterate)


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
    return _power_iterates(mats, delta, +1.0, normalize, tol)


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
        If the stopping rule is not met by n = 2**max_power_doublings; the
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
    return _power_iterates(mats, delta, -1.0, normalize, tol)


def inverse_power_inf(
    mats: Sequence[HermitianMatrix],
    delta: float | None = None,
    normalize: bool = False,
    tol: Tolerances = DEFAULT_TOL,
) -> HermitianMatrix:
    """Infimum via the inverse power-mean limit.

    Requires every x + delta I to be positive invertible (lambda_min at
    least INVERTIBILITY_FLOOR * s, s = 2**ceil(log2 max|lambda|)). The
    default shift max(0, s - floor) pushes the binding element's smallest
    eigenvalue to the input scale s, minimizing the dynamic range of the
    inverted family without a shift so large that cancellation wipes out
    the digits of a small answer.
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
    _check_set(mats)
    if len(mats) < 2:
        raise TooFewElementsError(
            "orthogonal-family formulas need at least two elements"
        )
    norms = [operator_norm(m) for m in mats]
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            prod = float(_svd(mats[i].entries @ mats[j].entries, compute_uv=False)[0])
            bound = norms[i] * norms[j]
            if prod > 1e-10 * (_unit(bound) + bound):
                raise NotOrthogonalError(
                    f"elements {i} and {j} are not orthogonal: ||x y|| = {prod:.3e}"
                )


def orthogonal_sup(mats: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """Supremum of mutually orthogonal elements: the sum of positive parts."""
    _check_orthogonal(mats)
    out = positive_part(mats[0])
    for m in mats[1:]:
        out = out + positive_part(m)
    return out


def orthogonal_inf(mats: Sequence[HermitianMatrix]) -> HermitianMatrix:
    """Infimum of mutually orthogonal elements: minus the sum of negative parts."""
    _check_orthogonal(mats)
    out = negative_part(mats[0])
    for m in mats[1:]:
        out = out + negative_part(m)
    return -out
