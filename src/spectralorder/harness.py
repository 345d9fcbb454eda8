"""Seeded instance generators, independent oracles, and executable theorem
suites (order laws, route agreement, sublattice closure, monotone-limit
convergence, orthogonal formulas, affine covariance, projection lattice laws).

Every generator and suite is deterministic in (seed, spec): failures always
carry the case seed that reproduces them. Refutation oracles are sound but
one-directional; ground truth for the order itself is always spectral_leq.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np

from .core import (
    DEFAULT_TOL,
    HermitianMatrix,
    Tolerances,
    EigenSystem,
    _check_pairs,
    _check_set,
    _eigh,
    _eigvalsh,
    _is_integer,
    _psd_slack,
    _scale,
    _svd,
    _unit,
    eigensystem,
    identity,
    loewner_leq,
    operator_norm,
)
from .errors import (
    InternalLatticeError,
    InvalidParameterError,
    InvalidSpecError,
    NotCommutingError,
    NotMonotoneError,
    NotPositiveError,
    UnknownSuiteError,
)
from .family import Projection, _clusters, spectral_leq
from .lattice import (
    OPERATOR_CLASSES,
    affine_image,
    membership_closure_check,
    order_bounds,
    spectral_inf,
    spectral_sup,
)
from .limits import (
    delta_floor,
    harmonic_pair_inf,
    inverse_power_inf,
    orthogonal_inf,
    orthogonal_sup,
    shifted_power_sup,
)
from .projections import _ORACLE_STOP, alternating_meet_oracle, proj_join, proj_leq, proj_meet

__all__ = [
    "INSTANCE_KINDS",
    "SUITE_IDS",
    "InstanceSpec",
    "SuiteReport",
    "CaseFailure",
    "ProbeVerdict",
    "VigierReport",
    "case_seed",
    "gen_instances",
    "monotone_probe",
    "power_order_probe",
    "commuting_oracle",
    "gen_monotone_chain",
    "vigier_check",
    "run_suite",
]

INSTANCE_KINDS = (
    "generic",
    "positive",
    "positive_definite",
    "projection",
    "commuting_family",
    "orthogonal_family",
    "effect",
)

_U64 = (1 << 64) - 1


def case_seed(master: int, index: int) -> int:
    """Derived seed for one case of a suite (SplitMix64-style mixing)."""
    z = (int(master) + (int(index) + 1) * 0x9E3779B97F4A7C15) & _U64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _U64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _U64
    return (z ^ (z >> 31)) & _U64


@dataclass(frozen=True)
class InstanceSpec:
    """Deterministic description of a generated test instance family."""

    dim: int
    seed: int
    kind: str = "generic"
    count: int = 1
    spectrum_spread: float = 0.1

    def __post_init__(self) -> None:
        for name in ("dim", "seed", "count"):
            if not _is_integer(getattr(self, name)):
                raise InvalidSpecError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if self.dim < 1:
            raise InvalidSpecError("dim must be >= 1")
        if self.count < 1:
            raise InvalidSpecError("count must be >= 1")
        if self.kind not in INSTANCE_KINDS:
            raise InvalidSpecError(f"unknown kind {self.kind!r}")
        if not (0.0 < self.spectrum_spread < np.inf):
            raise InvalidSpecError("spectrum_spread must be positive and finite")
        if self.kind == "orthogonal_family" and self.dim < self.count:
            raise InvalidSpecError("orthogonal_family needs dim >= count")


def _complex_gaussian(rng: np.random.Generator, dim: int) -> np.ndarray:
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _haar_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    q, r = np.linalg.qr(_complex_gaussian(rng, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _respace(vals: np.ndarray, gap: float) -> np.ndarray:
    out = np.array(vals, dtype=float)
    for i in range(1, out.size):
        out[i] = max(out[i], out[i - 1] + gap)
    return out


def _with_spectrum(h: np.ndarray, mapper) -> HermitianMatrix:
    w, u = _eigh((h + h.conj().T) / 2.0)
    return HermitianMatrix((u * mapper(w)) @ u.conj().T)


def _one_instance(rng: np.random.Generator, spec: InstanceSpec) -> HermitianMatrix:
    d, gap = spec.dim, spec.spectrum_spread
    if spec.kind == "generic":
        g = _complex_gaussian(rng, d)
        return _with_spectrum((g + g.conj().T) / 2.0, lambda w: _respace(w, gap))
    if spec.kind in ("positive", "positive_definite", "effect"):
        g = _complex_gaussian(rng, d)
        h = (g + g.conj().T) / 2.0
        h = h @ h
        top = float(_eigvalsh(h)[-1])
        h = h / top if top > 0 else h
        if spec.kind == "positive":
            return _with_spectrum(h, lambda w: _respace(np.maximum(w, 0.0), gap))
        if spec.kind == "positive_definite":
            return _with_spectrum(
                h, lambda w: _respace(np.maximum(w, 0.0), gap) + gap
            )
        return _with_spectrum(h, lambda w: np.clip(w, 0.0, 1.0))
    # projection, the one kind left: InstanceSpec checked it, gen_instances built the families
    rank = int(rng.integers(1, d)) if d > 1 else 1
    q, _ = np.linalg.qr(_complex_gaussian(rng, d)[:, :rank])
    return HermitianMatrix(q @ q.conj().T)


def gen_instances(spec: InstanceSpec) -> list[HermitianMatrix]:
    """Generate ``spec.count`` matrices, deterministic in (seed, spec).

    Family kinds (commuting_family, orthogonal_family) share structure across
    the returned list: one conjugating unitary and, respectively, common
    eigenvectors or disjoint diagonal blocks.
    """
    if spec.seed < 0:
        raise InvalidSpecError(f"seed must be >= 0, got {spec.seed}")
    rng = np.random.default_rng(spec.seed)
    d = spec.dim
    if spec.kind == "commuting_family":
        u = _haar_unitary(rng, d)
        out = []
        for _ in range(spec.count):
            diag = _respace(np.sort(rng.standard_normal(d)), spec.spectrum_spread)
            out.append(HermitianMatrix((u * diag) @ u.conj().T))
        return out
    if spec.kind == "orthogonal_family":
        u = _haar_unitary(rng, d)
        sizes = [d // spec.count] * spec.count
        for i in range(d % spec.count):
            sizes[i] += 1
        out = []
        offset = 0
        for size in sizes:
            block = _complex_gaussian(rng, size)
            block = (block + block.conj().T) / 2.0
            full = np.zeros((d, d), dtype=np.complex128)
            full[offset : offset + size, offset : offset + size] = block
            out.append(HermitianMatrix(u @ full @ u.conj().T))
            offset += size
        return out
    return [_one_instance(rng, spec) for _ in range(spec.count)]


@dataclass(frozen=True)
class ProbeVerdict:
    """Outcome of a refutation probe. ``refuted`` soundly disproves the
    order; not refuted proves nothing (the probe family is finite)."""

    refuted: bool
    witness: str | None = None
    probes_run: int = 0

    @property
    def status(self) -> str:
        return "refuted" if self.refuted else "consistent"


Map = Callable[[np.ndarray], np.ndarray]


def _at_unit_scale(ex: EigenSystem, ey: EigenSystem) -> tuple[EigenSystem, EigenSystem, float]:
    """x / s and y / s from decompositions of x and y, s the :func:`_scale` of their
    largest |eigenvalue|: exact, and every |eigenvalue / s| is at most 2."""
    s = _scale(max(abs(es.eigenvalues[i]) for es in (ex, ey) for i in (0, -1)))
    ux, uy = (EigenSystem(es.eigenvalues / s, es.eigenvectors) for es in (ex, ey))
    return ux, uy, s


def _probe_functions(
    ex: EigenSystem, ey: EigenSystem, scale: float, probes: int, seed: int
) -> list[tuple[str, Map]]:
    vals = np.sort(np.concatenate([ex.eigenvalues, ey.eigenvalues]))
    lo, hi = float(vals[0]), float(vals[-1])
    mid = 0.5 * (lo + hi)
    fns: list[tuple[str, Map]] = [("identity", lambda s: s)]
    knots = list(vals) + [0.5 * (a + b) for a, b in zip(vals, vals[1:])]
    for t in knots:
        t = float(t)
        fns.append((f"hinge(t={t * scale:.6g})", lambda s, t=t: np.maximum(s - t, 0.0)))
    for k in (3, 5):
        # Python's scalar power, which numpy's array power can differ from in the last bit
        fns.append((f"odd_power(k={k})", lambda s, k=k: np.array([(v - mid) ** k for v in s.tolist()])))
    rng = np.random.default_rng(seed)
    while len(fns) < probes:
        a = float(rng.uniform(0.1, 1.0))
        ts = rng.uniform(lo, hi, size=3)
        cs = rng.uniform(0.1, 1.0, size=3)

        def piecewise(s: np.ndarray, a=a, ts=ts, cs=cs) -> np.ndarray:
            return a * s + np.sum(cs * np.maximum(s[:, None] - ts, 0.0), axis=1)

        fns.append((f"piecewise_linear(seed draw {len(fns)})", piecewise))
    return fns[:probes]


def _first_violation(
    ex: EigenSystem, ey: EigenSystem, maps: Sequence[tuple[str, Map]], tol: Tolerances
) -> int | None:
    """Index of the first map f for which f(x) <= f(y) fails in the Loewner
    order, or None, from decompositions of x and y at unit scale, in one
    stacked eigvalsh. Each f(x) is formed and symmetrized as HermitianMatrix
    would form it, and the slack is psd_tol * (1 + max|f(x)| + max|f(y)|) over
    the mapped spectra: the rule of :func:`loewner_leq` with u = 1.
    """
    fx_vals = np.array([f(ex.eigenvalues) for _, f in maps])
    fy_vals = np.array([f(ey.eigenvalues) for _, f in maps])
    stacked = []
    for es, vals in ((ex, fx_vals), (ey, fy_vals)):
        u = es.eigenvectors
        a = (u * vals[:, None, :]) @ u.conj().T
        stacked.append(0.5 * a + 0.5 * a.conj().swapaxes(1, 2))
    fx, fy = stacked
    lam_min = _eigvalsh(fy - fx)[:, 0]
    slack = tol.psd_tol * (1.0 + np.abs(fx_vals).max(axis=1) + np.abs(fy_vals).max(axis=1))
    failed = np.flatnonzero(~(lam_min >= -slack))
    return int(failed[0]) if failed.size else None


def monotone_probe(
    x: HermitianMatrix,
    y: HermitianMatrix,
    probes: int = 24,
    seed: int = 0,
    tol: Tolerances = DEFAULT_TOL,
) -> ProbeVerdict:
    """Probe the monotone-function characterization of the order.

    Samples a deterministic family of continuous increasing functions
    (hinges swept over the merged spectrum, odd powers of the centered
    argument, seeded piecewise-linear maps) and checks f(x) <= f(y) in the
    Loewner order for each. A violation soundly refutes x preceding y;
    "consistent" proves nothing, since the family is finite. Each operand
    is eigendecomposed once, here, and all the f(y) - f(x) go through one
    stacked eigvalsh; the witness is the first f, in family order, that
    fails. The family is built on x / s and y / s, with s the power-of-two
    scale of their largest |eigenvalue|, so no f overflows and the verdict
    does not depend on the operands' scale; a hinge's knot is named in the
    operands' units. Nothing is shared with :func:`spectral_leq`, so the
    probe stays an independent check of it.
    """
    x._require_same_dim(y)
    if not (_is_integer(probes) and _is_integer(seed) and probes >= 1 and seed >= 0):
        raise InvalidParameterError(f"need integers probes >= 1 and seed >= 0, got {probes!r} and {seed!r}")
    ex, ey, scale = _at_unit_scale(eigensystem(x), eigensystem(y))
    fns = _probe_functions(ex, ey, scale, probes, seed)
    first = _first_violation(ex, ey, fns, tol)
    if first is None:
        return ProbeVerdict(refuted=False, probes_run=len(fns))
    return ProbeVerdict(refuted=True, witness=fns[first][0], probes_run=len(fns))


_MAX_POWER = 4  # the power probe's highest monomial


def power_order_probe(x: HermitianMatrix, y: HermitianMatrix, tol: Tolerances = DEFAULT_TOL) -> ProbeVerdict:
    """Check x^n <= y^n (Loewner) for n = 1.._MAX_POWER on PSD operands.

    Monomials are increasing on the positive half-line, so a violation
    soundly refutes the spectral-order comparison. The powers are taken of
    x / s and y / s, as in :func:`monotone_probe`, and all go through one
    stacked eigvalsh; the witness is the least failing n.
    """
    x._require_same_dim(y)
    ex, ey = eigensystem(x), eigensystem(y)
    for name, es in (("x", ex), ("y", ey)):
        norm = float(np.max(np.abs(es.eigenvalues)))
        if float(es.eigenvalues[0]) < -_psd_slack(norm, 0.0, tol):
            raise NotPositiveError(f"{name} is not positive semidefinite")
    ex, ey, _ = _at_unit_scale(ex, ey)
    powers = [
        (f"power n={n}", lambda s, n=n: np.array([max(v, 0.0) ** n for v in s.tolist()]))
        for n in range(1, _MAX_POWER + 1)
    ]
    first = _first_violation(ex, ey, powers, tol)
    if first is None:
        return ProbeVerdict(refuted=False, probes_run=_MAX_POWER)
    return ProbeVerdict(refuted=True, witness=powers[first][0], probes_run=first + 1)


def _refine_blocks(
    cols: np.ndarray, ops: list[np.ndarray], cluster: float
) -> np.ndarray:
    if cols.shape[1] <= 1 or not ops:
        return cols
    compressed = cols.conj().T @ ops[0] @ cols
    w, u = _eigh((compressed + compressed.conj().T) / 2.0)
    blocks = np.split(u, _clusters(w, cluster)[1][:-1], axis=1)
    return np.concatenate([_refine_blocks(cols @ b, ops[1:], cluster) for b in blocks], axis=1)


def commuting_oracle(
    mats: Sequence[HermitianMatrix], mode: Literal["sup", "inf"], tol: Tolerances = DEFAULT_TOL
) -> HermitianMatrix:
    """Exact lattice oracle for commuting families via joint diagonalization.

    A random linear combination, seeded with 0, splits degeneracies; blocks whose
    eigenvalue gaps fall below the cluster width are refined against each
    family member in turn. The result is the entrywise max (sup) or min
    (inf) of the joint eigenvalues, conjugated back. Every pair must commute:
    ||x y - y x|| <= 1e-8 * (u + b) on each element over its power-of-two
    scale (:func:`core._check_pairs`), so the check is relative at every
    scale and no commutator over- or underflows. The off-diagonal check and
    the width follow the family's scale.
    """
    dim = _check_set(mats)
    norms = _check_pairs(
        mats,
        lambda x, y: x @ y - y @ x,
        1e-8,
        lambda i, j, rel: NotCommutingError(
            f"elements {i} and {j} do not commute (||[x,y]|| / (||x|| ||y||) = {rel:.3e})"
        ),
    )
    coeffs = np.random.default_rng(0).standard_normal(len(mats))
    probe = sum(c * m.entries for c, m in zip(coeffs, mats))
    top = max(norms)
    ops = [probe] + [m.entries for m in mats]
    basis = _refine_blocks(np.eye(dim, dtype=np.complex128), ops, tol.cluster_tol * _scale(top))
    joint = np.empty((len(mats), dim))
    for i, m in enumerate(mats):
        rotated = basis.conj().T @ m.entries @ basis
        off = rotated - np.diag(np.diagonal(rotated))
        if float(_svd(off, compute_uv=False)[0]) > 1e-8 * (_unit(top) + top):
            raise NotCommutingError(
                "family is not jointly diagonalizable within tolerance"
            )
        joint[i] = np.real(np.diagonal(rotated))
    picked = joint.max(axis=0) if mode == "sup" else joint.min(axis=0)
    return HermitianMatrix((basis * picked) @ basis.conj().T)


def gen_monotone_chain(
    seed: int,
    dim: int,
    length: int,
    direction: Literal["increasing", "decreasing"] = "decreasing",
    tol: Tolerances = DEFAULT_TOL,
) -> list[HermitianMatrix]:
    """Build a spectral-order monotone chain by repeated inf (or sup) with
    fresh seeded generic matrices; monotonicity then holds by the lattice
    laws and is asserted."""
    if not (_is_integer(length) and length >= 2):
        raise InvalidSpecError(f"chain length must be an integer >= 2, got {length!r}")
    if direction not in ("increasing", "decreasing"):
        raise InvalidSpecError(f"unknown direction {direction!r}")
    combine = spectral_inf if direction == "decreasing" else spectral_sup
    chain = _gen(case_seed(seed, 0), dim, "generic")
    for k in range(1, length):
        bump = _gen(case_seed(seed, k), dim, "generic")[0]
        chain.append(combine([chain[-1], bump], tol))
    for a, b in zip(chain, chain[1:]):
        lo, hi = (b, a) if direction == "decreasing" else (a, b)
        if not spectral_leq(lo, hi, tol):
            raise InternalLatticeError("generated chain is not monotone")
    return chain


@dataclass(frozen=True)
class VigierReport:
    """Result of the monotone-limit check on one finite chain."""

    ok: bool
    direction: str
    limit: HermitianMatrix
    failures: tuple[str, ...]


_LIMIT_TOL = 1e-8  # how far vigier_check lets the limit be from the last element


def vigier_check(chain: Sequence[HermitianMatrix], tol: Tolerances = DEFAULT_TOL) -> VigierReport:
    """Check the finite-net shadow of monotone-limit convergence.

    For a monotone chain: (a) the lattice inf (or sup) bounds every element,
    (b) it coincides with the last element within _LIMIT_TOL = 1e-8 (a finite
    chain attains its limit), and (c) the distances ||x_k - limit|| are
    non-increasing along the chain.
    """
    if len(chain) < 2:
        raise NotMonotoneError("need at least two chain elements")
    decreasing = all(spectral_leq(b, a, tol) for a, b in zip(chain, chain[1:]))
    increasing = not decreasing and all(
        spectral_leq(a, b, tol) for a, b in zip(chain, chain[1:])
    )
    if not (decreasing or increasing):
        raise NotMonotoneError("chain is not monotone in the spectral order")
    direction = "decreasing" if decreasing else "increasing"
    limit = (spectral_inf if decreasing else spectral_sup)(list(chain), tol)
    failures: list[str] = []
    for k, x in enumerate(chain):
        verdict = spectral_leq(limit, x, tol) if decreasing else spectral_leq(x, limit, tol)
        if not verdict:
            failures.append(f"limit does not bound element {k}")
    gap = operator_norm(limit - chain[-1])
    if gap > _LIMIT_TOL:
        failures.append(f"limit differs from last element by {gap:.3e}")
    dists = [operator_norm(x - limit) for x in chain]
    # the largest entry bounds the norm within a factor dim: no eigvalsh
    unit = _unit(float(np.max(np.abs(limit.entries))))
    for k, (a, b) in enumerate(zip(dists, dists[1:])):
        if b > a + 1e-10 * (unit + a):
            failures.append(f"distance to limit increased at step {k} -> {k + 1}")
    return VigierReport(
        ok=not failures, direction=direction, limit=limit, failures=tuple(failures)
    )


@dataclass(frozen=True)
class CaseFailure:
    case_index: int
    seed: int
    prop: str
    witness: str

    def to_dict(self) -> dict:
        return {
            "case": self.case_index,
            "seed": self.seed,
            "property": self.prop,
            "witness": self.witness,
        }


@dataclass(frozen=True)
class SuiteReport:
    """Aggregated result of one verification suite run; no field is timed."""

    suite: str
    cases_run: int
    failures: tuple[CaseFailure, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        """The report as a JSON-ready dict."""
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "failures": [f.to_dict() for f in self.failures],
        }


def _gen(seed: int, dim: int, kind: str, count: int = 1, spread: float = 0.1):
    return gen_instances(
        InstanceSpec(dim=dim, seed=seed, kind=kind, count=count, spectrum_spread=spread)
    )


_Cases = Sequence[tuple[int, int]]  # (index, seed) of every case, derived once by run_suite


def _agree(i: int, s: int, prop: str, a, b, bound: float, note: str = ""):
    """Report ``prop`` for case (i, s) when the matrices a and b are more than ``bound``
    apart in operator norm, with the deviation as witness."""
    dev = operator_norm(a - b)
    if dev > bound:
        yield CaseFailure(i, s, prop, f"{note}deviation {dev:.3e}")


def _suite_order_laws(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    for i, s in cases:
        x, r, t = _gen(s, spec.dim, "generic", count=3, spread=spec.spectrum_spread)
        if not spectral_leq(x, x, tol):
            yield CaseFailure(i, s, "reflexivity", "spectral_leq(x, x) failed")
        u = spectral_sup([x, r], tol)
        if not spectral_leq(x, u, tol):
            yield CaseFailure(i, s, "upper_bound", "x does not precede sup(x, r)")
        if not loewner_leq(x, u, tol):
            yield CaseFailure(i, s, "order_implication", "spectral holds but Loewner fails")
        v = spectral_sup([x, r, t], tol)
        if not (spectral_leq(u, v, tol) and spectral_leq(x, v, tol)):
            yield CaseFailure(i, s, "transitivity", "sup chain not nested")
        # antisymmetry at tolerance: both verdicts hold for a perturbation of
        # 1e-3 min(cluster_tol, psd_tol), which moves no eigenvalue across a
        # cluster width and turns a generic eigenbasis well below the
        # 10 psd_tol containment threshold, and not both for one ten times the
        # bound 2 d cluster_tol; each at x's scale, which the clustering width follows
        bump = np.random.default_rng(s).standard_normal((spec.dim, spec.dim))
        bump = HermitianMatrix(bump + bump.T)
        scale, bump_norm = _scale(operator_norm(x)), operator_norm(bump)
        near = 1e-3 * min(tol.cluster_tol, tol.psd_tol) * scale
        y = x + (near / bump_norm) * bump
        if not (spectral_leq(x, y, tol) and spectral_leq(y, x, tol)):
            yield CaseFailure(i, s, "antisymmetry", "sub-cluster perturbation changed the verdict")
        far = 20.0 * spec.dim * tol.cluster_tol * scale
        z = x + (far / bump_norm) * bump
        if spectral_leq(x, z, tol) and spectral_leq(z, x, tol):
            yield CaseFailure(i, s, "antisymmetry", f"both verdicts hold at distance {far:.3e}")
        yield from _agree(i, s, "idempotence", spectral_sup([x, x], tol), x, 1e-8)
        dual = -spectral_sup([-x, -r], tol)
        yield from _agree(i, s, "duality", spectral_inf([x, r], tol), dual, 1e-8)
        yield from _agree(i, s, "associativity", v, spectral_sup([u, t], tol), 1e-8)
        order_bounds([x, r, t], tol)  # verifies its own domination claims
        inf3 = spectral_inf([x, r, t], tol)
        for m in (x, r, t):
            if not (loewner_leq(inf3, m, tol) and loewner_leq(m, v, tol)):
                yield CaseFailure(i, s, "loewner_consistency", "inf <= x <= sup failed in Loewner order")
                break


def _suite_sup_inf_routes(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    for i, s in cases:
        count = 2 + i % 3
        psd = _gen(s, spec.dim, "positive", count=count, spread=spec.spectrum_spread)
        sup = shifted_power_sup(psd, delta=0.0, tol=tol)
        yield from _agree(i, s, "route_agreement_sup", sup, spectral_sup(psd, tol), 1e-6)
        pd = _gen(s, spec.dim, "positive_definite", count=count, spread=spec.spectrum_spread)
        inf = inverse_power_inf(pd, delta=0.0, tol=tol)
        yield from _agree(i, s, "route_agreement_inf", inf, spectral_inf(pd, tol), 1e-6)
        harm = harmonic_pair_inf(pd[0], pd[1], tol=tol)
        yield from _agree(i, s, "route_agreement_harmonic", harm, spectral_inf(pd[:2], tol), 1e-6)
        if i % 4 == 0:
            floor = delta_floor(psd)
            answers = [
                shifted_power_sup(psd, delta=floor - off, tol=tol)
                for off in (0.0, 1.0, 10.0)
            ]
            worst = max(
                operator_norm(a - b)
                for a in answers
                for b in answers
            )
            if worst > 1e-6:
                yield CaseFailure(i, s, "delta_invariance", f"spread {worst:.3e}")


def _suite_sublattice_closure(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    for i, s in cases:
        klass = OPERATOR_CLASSES[i % len(OPERATOR_CLASSES)]
        count = 2 + i % 2
        if klass == "unit_ball":
            raw = _gen(s, spec.dim, "generic", count=count, spread=spec.spectrum_spread)
            mats = [m * (0.97 / max(0.97, operator_norm(m))) for m in raw]
        else:
            mats = _gen(s, spec.dim, klass, count=count, spread=spec.spectrum_spread)
        report = membership_closure_check(mats, klass, tol)
        if not report.passed:
            yield CaseFailure(i, s, f"closure_{klass}", "; ".join(report.failures))


def _suite_vigier(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    for i, s in cases:
        direction = "decreasing" if i % 2 == 0 else "increasing"
        chain = gen_monotone_chain(s, spec.dim, length=8, direction=direction, tol=tol)
        report = vigier_check(chain, tol)
        if not report.ok:
            yield CaseFailure(i, s, f"vigier_{direction}", "; ".join(report.failures))


def _suite_monotone_characterization(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    gap_found = 0
    for i, s in cases:
        x, r = _gen(s, spec.dim, "generic", count=2, spread=spec.spectrum_spread)
        u = spectral_sup([x, r], tol)
        probe = monotone_probe(x, u, probes=16, seed=s, tol=tol)
        if probe.refuted:
            yield CaseFailure(
                i, s, "probe_soundness", f"true pair refuted by {probe.witness}"
            )
        # gap hunt: x <= x + bump always; the spectral comparison usually fails
        base = _gen(s, spec.dim, "positive", spread=spec.spectrum_spread)[0]
        rng = np.random.default_rng(case_seed(s, 1))
        vec = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
        vec /= np.linalg.norm(vec)
        bumped = base + HermitianMatrix(0.5 * np.outer(vec, vec.conj()))
        if not loewner_leq(base, bumped, tol):
            yield CaseFailure(i, s, "bump_loewner", "x <= x + v v* failed")
        if power_order_probe(base, bumped, tol).refuted:
            # a power refutation must coincide with the comparison failing
            if spectral_leq(base, bumped, tol):
                yield CaseFailure(i, s, "power_probe_soundness", "refuted a true pair")
            else:
                gap_found += 1
        elif not spectral_leq(base, bumped, tol):
            gap_found += 1
    if len(cases) >= 8 and gap_found == 0:
        yield CaseFailure(*cases[-1], "gap_search", "no Loewner-but-not-spectral pair found")


def _suite_orthogonal(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    for i, s in cases:
        count = 2 + i % 3
        dim = max(spec.dim, count)
        mats = _gen(s, dim, "orthogonal_family", count=count, spread=spec.spectrum_spread)
        yield from _agree(i, s, "orthogonal_sup", orthogonal_sup(mats), spectral_sup(mats, tol), 1e-8)
        yield from _agree(i, s, "orthogonal_inf", orthogonal_inf(mats), spectral_inf(mats, tol), 1e-8)


def _suite_affine_covariance(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    pairs = ((0.5, -1.0), (2.0, 3.0), (0.5, 3.0), (2.0, -1.0))
    for i, s in cases:
        alpha, beta = pairs[i % len(pairs)]
        mats = _gen(s, spec.dim, "generic", count=2 + i % 2, spread=spec.spectrum_spread)
        mapped = affine_image(mats, alpha, beta)
        for name, op in (("sup", spectral_sup), ("inf", spectral_inf)):
            routed = alpha * op(mats, tol) + beta * identity(spec.dim)
            note = f"alpha={alpha}, beta={beta}, "
            yield from _agree(i, s, f"affine_{name}", op(mapped, tol), routed, 1e-7, note)


def _suite_projection_lattice_laws(spec: InstanceSpec, cases: _Cases, tol: Tolerances):
    for i, s in cases:
        p, q, r = (
            Projection(_gen(case_seed(s, k), spec.dim, "projection")[0]) for k in range(3)
        )
        yield from _agree(i, s, "meet_idempotent", proj_meet([p, p], tol).matrix, p.matrix, 1e-10)
        ab = proj_meet([p, q], tol)
        ba = proj_meet([q, p], tol)
        yield from _agree(i, s, "meet_commutative", ab.matrix, ba.matrix, 1e-10)
        nested = proj_meet([ab, r], tol)
        flat = proj_meet([p, q, r], tol)
        yield from _agree(i, s, "meet_associative", nested.matrix, flat.matrix, 1e-10)
        yield from _agree(i, s, "absorption", proj_join([p, ab], tol).matrix, p.matrix, 1e-10)
        join = proj_join([p, q], tol)
        if not (proj_leq(ab, p, tol) and proj_leq(p, join, tol)):
            yield CaseFailure(i, s, "lattice_bounds", "meet <= p <= join failed")
        oracle = alternating_meet_oracle(p, q, tol)
        yield from _agree(i, s, "alternating_oracle", oracle.matrix, ab.matrix, 10.0 * _ORACLE_STOP)
        sup_dev = operator_norm(spectral_sup([p.matrix, q.matrix], tol) - join.matrix)
        inf_dev = operator_norm(spectral_inf([p.matrix, q.matrix], tol) - ab.matrix)
        if max(sup_dev, inf_dev) > 1e-8:
            yield CaseFailure(
                i, s, "projection_specialization", f"sup/join dev {sup_dev:.3e}, inf/meet dev {inf_dev:.3e}"
            )
        if spectral_leq(p.matrix, q.matrix, tol).holds != loewner_leq(p.matrix, q.matrix, tol):
            yield CaseFailure(i, s, "projection_order_equivalence", "orders disagree on projections")


_SUITES: dict[str, Callable] = {
    "order_laws": _suite_order_laws,
    "sup_inf_routes": _suite_sup_inf_routes,
    "sublattice_closure": _suite_sublattice_closure,
    "vigier": _suite_vigier,
    "monotone_characterization": _suite_monotone_characterization,
    "orthogonal": _suite_orthogonal,
    "affine_covariance": _suite_affine_covariance,
    "projection_lattice_laws": _suite_projection_lattice_laws,
}

SUITE_IDS = tuple(sorted(_SUITES))


def run_suite(
    name: str,
    spec: InstanceSpec,
    cases: int,
    tol: Tolerances = DEFAULT_TOL,
) -> SuiteReport:
    """Run a named verification suite; deterministic in (spec.seed, cases).

    The seed of every case is derived here, once, from the master seed and
    the case index (:func:`case_seed`), so any failure is reproducible in
    isolation.
    """
    if name not in _SUITES:
        raise UnknownSuiteError(
            f"unknown suite {name!r}; known suites: {', '.join(SUITE_IDS)}"
        )
    if not (_is_integer(cases) and cases >= 1):
        raise InvalidSpecError(f"cases must be an integer >= 1, got {cases!r}")
    pairs = [(i, case_seed(spec.seed, i)) for i in range(cases)]
    failures = tuple(_SUITES[name](spec, pairs, tol))
    return SuiteReport(suite=name, cases_run=cases, failures=failures)
