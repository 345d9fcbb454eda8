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

The order of the weights n log(lambda) does not depend on n, so
:func:`_power_mean_roots` sorts the factors by weight once and takes one QR
of the sorted factor matrix per limit, the graded-matrix technique of
Demmel and Veselic (SIAM J. Matrix Anal. Appl. 13, 1992). The engine runs
on the upper-trapezoidal columns of R, and each iterate maps its columns
back with one product by Q. A window's active factors then occupy only the
rows down to their deepest nonzero one, so the window is an eigenproblem
on those few leading rows of the complement (two rows at n = 2**20 on a
d = 32 set), and only those rows of the coordinates and columns of the
basis are rotated, in place. Residuals stay absolute: a factor's level is
its log weight plus twice the log norm of its rows below the emitted ones.
Eigenpairs stay arrays throughout: the engine returns (root logs, columns)
and an iterate is the one product (columns * values) columns^* plus the
shift.

The exponents run over n = 2**k for k = 0..``tol.max_power_doublings``; that
cap is the only setting of the ladder. The error of the iterate A_n is about
c/n plus exponentially small terms (Kato, Linear Multilinear Algebra 8,
1979), so the plain Cauchy residual ||A_n - A_{n/2}|| falls below 1e-9 only
near n = 2**30. :func:`run_schedule` instead stops on the Richardson
extrapolant E_n = 2 A_n - A_{n/2}, which cancels the c/n term: at the first
n with ||E_n - E_{n/2}|| < ``_STOP_TOL * (u + ||E_n||)`` (fixed
``_STOP_TOL = 1e-9``) it returns E_n, typically near n = 2**19. The unit
u = min(1, 2**ceil(log2 ||A_1||)) (``core._unit``) keeps the rule relative
below unit scale; the shift checks, the invertibility floor and the default
inverse shift use the unit of the inputs' largest |eigenvalue|. Extrapolation
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

# Minimum admissible lambda_min(x + delta I) / u for the inverse formulas.
INVERTIBILITY_FLOOR = 1e-6

# Engine constants (natural-log units where noted).
_ACTIVE_WINDOW = 37.0  # ~16 decades: factors further below the window top
#                        are invisible to a double-precision sum anyway
_KEEP_RATIO = 1e-8  # retained eigenvalues keep >= 8 relative digits
_RESIDUAL_CLAMP = 1e-12  # starting direction error, relative to the factor norm
_FRO_MARGIN = 1.0 + 1e-9  # lifts a computed Frobenius norm above any
#                           computed 2-norm of the same matrix
_STOP_TOL = 1e-9  # stopping rule: ||E_n - E_{n/2}|| < _STOP_TOL (u + ||E_n||)


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

    Returns (root eigenvalue logs, orthonormal eigenvector columns) spanning
    the numerically visible support. Directions never covered correspond to
    exact zeros of the sum. A window only touches the rows down to its
    factors' last nonzero one, so upper-trapezoidal ``vectors`` (the R of a
    weight-ordered QR) give windows of a few rows; dense ones behave as if
    every window spanned the whole remaining complement.
    """
    v = np.array(vectors, dtype=np.complex128)
    w = np.asarray(log_weights, dtype=float)
    dim = v.shape[0]
    # each factor's last nonzero row: a window spans the rows from ``start``
    # down to the deepest one among its active factors
    rows = np.arange(dim)[:, None]
    depth = np.max(np.where(v != 0.0, rows, 0), axis=0, initial=0)
    norms = np.linalg.norm(v, axis=0)
    err = _RESIDUAL_CLAMP * norms
    basis = np.eye(dim, dtype=np.complex128)
    logs = np.empty(dim)
    eps = np.finfo(float).eps
    start = 0
    while True:
        alive = norms > err
        if not alive.all():
            w, v, norms, err, depth = w[alive], v[:, alive], norms[alive], err[alive], depth[alive]
        if not w.size or start == dim:
            return logs[:start], basis[:, :start]
        level = w + 2.0 * np.log(norms)
        top = float(level.max())
        active = level >= top - _ACTIVE_WINDOW
        stop = int(depth[active].max()) + 1
        va = v[start:stop, active]
        s = (va * np.exp(w[active] - top)) @ va.conj().T
        g, u = _eigh((s + s.conj().T) / 2.0)
        kept = int(np.count_nonzero(g >= _KEEP_RATIO * g[-1]))
        u = u[:, ::-1]  # kept eigenvectors first: they become the emitted rows
        logs[start : start + kept] = (np.log(g[::-1][:kept]) + top) * inv_exponent
        v[start:stop] = u.conj().T @ v[start:stop]
        basis[:, start:stop] = basis[:, start:stop] @ u
        # Davis-Kahan error of the kept eigenvectors, carried by each residual
        err += (stop - start) * eps * (g[-1] / g[-kept]) * norms
        depth = np.maximum(depth, stop - 1)  # the rotation fills the window rows
        start += kept
        norms = np.linalg.norm(v[start:], axis=0)


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
    # The order of the weights n log(lambda) is the same at every n, so one
    # QR of the weight-sorted factors serves the whole ladder.
    order = np.argsort(-w[pos], kind="stable")
    w = w[pos][order]
    q, r = np.linalg.qr(u[:, pos][:, order])
    scale = float(w[0]) if w.size else 1.0
    logs = np.log(w / scale)
    log_c = math.log(len(eigs)) if normalize else 0.0
    log_scale = inv_sign * math.log(scale)
    for n in (2**k for k in range(int(max_doublings) + 1)):
        root_logs, cols = _graded_root_pairs(n * logs - log_c, r, inv_sign / n)
        yield n, np.exp(root_logs + log_scale), q @ cols


def _check_shift(delta: float, norm: float) -> None:
    """Reject a shift whose rounding, eps * |delta| on every shifted eigenvalue,
    exceeds the stopping rule at the input scale: the limit would be wrong."""
    if np.finfo(float).eps * abs(delta) > _STOP_TOL * (_unit(norm) + norm):
        raise DeltaTooLargeError(
            f"shift {delta} is too large: its rounding exceeds the stopping rule"
        )


def run_schedule(
    iterates: Iterator[tuple[int, HermitianMatrix]], what: str
) -> tuple[HermitianMatrix, list[tuple[int, float]]]:
    """Run iterates until the extrapolated stopping rule holds.

    The error of A_n is about c/n plus exponentially small terms, and the
    extrapolant E_n = 2 A_n - A_{n/2} cancels the c/n term. The run stops at
    the first n with ||E_n - E_{n/2}|| < _STOP_TOL (u + ||E_n||), where
    u = :func:`_unit` of ||A_1|| keeps the rule relative below unit scale.

    Returns the limit E_n and the residual trace [(n, ||A_n - A_prev||),
    ...] of the plain iterates.

    Raises
    ------
    NoConvergenceError
        If the iterates run out first; the error carries the last plain
        iterate, the residual trace and, as ``extrapolant_trace``, the
        extrapolant residuals of :func:`_run_schedule`.
    """
    limit, trace, _ = _run_schedule(iterates, what)
    return limit, trace


def _run_schedule(
    iterates: Iterator[tuple[int, HermitianMatrix]], what: str
) -> tuple[HermitianMatrix, list[tuple[int, float]], list[float | None]]:
    """:func:`run_schedule`, also returning ||E_n - E_{n/2}|| for each trace
    entry (None at the first, where E_{n/2} does not exist yet)."""
    prev: np.ndarray | None = None
    current: HermitianMatrix | None = None
    prev_ext: np.ndarray | None = None
    unit = 1.0
    residual = math.inf
    trace: list[tuple[int, float]] = []
    ext_trace: list[float | None] = []
    for n, current in iterates:
        entries = current.entries
        if prev is None:
            unit = _unit(_norm(entries))
        else:
            step = entries - prev
            residual = _norm(step)
            trace.append((n, residual))
            ext = entries + step
            if prev_ext is None:
                ext_trace.append(None)
            else:
                ext_residual = _norm(ext - prev_ext)
                ext_trace.append(ext_residual)
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
                    return HermitianMatrix(ext), trace, ext_trace
            prev_ext = ext
        prev = entries
    raise NoConvergenceError(
        f"{what} did not meet the stopping rule within the exponent schedule "
        f"(last residual {residual:.3e}); near-degenerate breakpoints of the "
        "answer converge slowly",
        last_iterate=current,
        residual=residual,
        trace=trace,
        extrapolant_trace=ext_trace,
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
    if delta is None:
        delta = floor
    if delta > floor + _psd_slack(norm, 0.0, tol):
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
    dim = _check_set(mats)
    systems = [eigensystem(m) for m in mats]
    floor, norm = _spectral_range(systems)
    unit = _unit(norm)
    if delta is None:
        delta = max(0.0, unit - floor)
    for i, es in enumerate(systems):
        lam_min = float(es.eigenvalues[0]) + delta
        if lam_min < INVERTIBILITY_FLOOR * unit:
            raise NotInvertibleError(
                f"element {i}: lambda_min(x + delta I) = {lam_min:.3e} is below "
                f"the invertibility floor {INVERTIBILITY_FLOOR * unit:.3e}"
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
    least INVERTIBILITY_FLOOR * u). The default shift max(0, u - floor),
    with u = min(1, 2**ceil(log2 max|lambda|)), pushes the binding element's
    smallest eigenvalue to the input scale, at most one, minimizing the
    dynamic range of the inverted family without a shift so large that
    cancellation wipes out the digits of a small answer.
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
