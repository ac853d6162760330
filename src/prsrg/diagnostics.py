"""Second-order stationarity certification and empirical guarantee checkers.

``certify`` decides (epsilon, delta)-second-order stationarity of an anchor
point from the exact gradient norm and a Lanczos estimate of the smallest
eigenvalue of the closed-form Riemannian Hessian (``PullbackOracle.hvp``).
It always runs Lanczos: no smoothness estimate can stand in for it, since
an estimate is not a bound. Lanczos works on ambient tangent vectors at
the anchor, which the Hessian maps to tangent vectors, in one Krylov run
of at most LANCZOS_MAX_ITERS Hessian actions. The solver and the ``prgd``
baseline stop a failing run at the first Ritz value that disproves the
Hessian clause; ``certify`` on its own (``prsrg certify``), the coupled
experiment and every passing certification run Lanczos to convergence.
The ``check_*`` functions and ``stuck_region_experiment`` replay recorded
runs against the quantitative bounds the solver's analysis relies on
(estimator variance, improve or localize, coupled-sequence separation,
escape decrease); they fit and report constants rather than assert
theoretical values.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import NotASaddle, ParameterError, SchemaError
from .geometry import Manifold, ManifoldPoint, TangentVector, _norm
from .pullback import PullbackOracle
from .rng import TAG_DIAG, TAG_PERTURB, TAG_TRIAL, StreamTree, master_stream
from .tssrg import TssrgParams, tssrg_run_coupled
from .trace import _STEP_EVENTS, TraceSegment

LANCZOS_MAX_ITERS = 200
LANCZOS_TOL_FACTOR = 1e-6

# fixed entropy for the Lanczos start vector: certification must be a pure
# function of the oracle, not of caller-supplied randomness
_LANCZOS_SEED = 0x4C414E


@dataclass(frozen=True)
class Certification:
    """Outcome of an (epsilon, delta)-second-order stationarity check."""

    grad_norm: float
    lambda_min_estimate: float
    lanczos_iters: int
    passed: bool
    epsilon: float
    delta: float
    tolerance: float
    converged: bool = True

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EscapeThreshold:
    """Required per-episode decrease F_script = delta^3 / (2 c3 rho_hat^2)."""

    F_script: float

    def __post_init__(self):
        if not (self.F_script > 0 and math.isfinite(self.F_script)):
            raise ParameterError(
                f"escape threshold must be positive, got {self.F_script}")


def escape_threshold(delta: float, rho_hat: float,
                     c3: float = 10.0) -> EscapeThreshold:
    if delta <= 0 or rho_hat <= 0 or c3 <= 0:
        raise ParameterError("delta, rho_hat, c3 must all be positive")
    return EscapeThreshold(F_script=delta ** 3 / (2.0 * c3 * rho_hat ** 2))


@functools.lru_cache(maxsize=None)
def _lanczos_start(ambient_dim: int) -> np.ndarray:
    """The Lanczos start vector, a standard normal draw from the fixed
    ``_LANCZOS_SEED`` stream: drawn once per ambient dimension per process
    and read-only, since every certification starts from it."""
    gen = master_stream(_LANCZOS_SEED).child(TAG_DIAG).child(0).generator()
    g = gen.standard_normal(ambient_dim)
    g.setflags(write=False)
    return g


@dataclass
class LanczosResult:
    value: float
    vector: np.ndarray  # ambient tangent coordinates at the anchor
    iterations: int
    converged: bool


def lanczos_min_eig(matvec, man: Manifold, x: ManifoldPoint, *,
                    stop_below: float | None = None) -> LanczosResult:
    """Smallest eigenvalue of a symmetric operator on T_x M via Lanczos.

    matvec maps ambient tangent coordinates at x to tangent coordinates at
    x (the exact Riemannian Hessian does), so one start vector projected
    onto T_x keeps the whole Krylov space tangent and no basis of T_x is
    needed. One run with full reorthogonalization, at most
    min(man.dim, LANCZOS_MAX_ITERS) iterations, from the start vector drawn
    once from the fixed ``_LANCZOS_SEED`` stream (``_lanczos_start``);
    converged when the residual bound beta * |s_last| of the smallest Ritz
    pair drops below LANCZOS_TOL_FACTOR times the running operator-norm
    estimate. The last smallest Ritz pair is returned either way. Norms are
    ``_norm``, bit-equal to ``np.linalg.norm`` on these 1-D float64 arrays.

    With ``stop_below`` set, the run also stops at the first smallest Ritz
    value theta < stop_below - LANCZOS_TOL_FACTOR * max(|theta|, 1). Ritz
    values bound lambda_min from above and do not rise as the Krylov space
    grows (Cauchy interlacing), so the converged value would be below that
    threshold too. A run stopped this way before its residual test passes
    returns ``converged=False`` and a value that is an upper bound on
    lambda_min; a run that never meets the threshold is the run without it.
    """
    q = man.project_ambient(x, _lanczos_start(man.ambient_dim))
    k = min(man.dim, LANCZOS_MAX_ITERS)
    Q = np.empty((man.ambient_dim, k))
    Q[:, 0] = q / _norm(q)
    T = np.zeros((k, k))
    for nq in range(1, k + 1):
        w = np.asarray(matvec(Q[:, nq - 1]), dtype=np.float64)
        T[nq - 1, nq - 1] = Q[:, nq - 1] @ w
        # reorthogonalize twice against the whole basis
        w -= Q[:, :nq] @ (Q[:, :nq].T @ w)
        w -= Q[:, :nq] @ (Q[:, :nq].T @ w)
        beta = _norm(w)
        vals, vecs = np.linalg.eigh(T[:nq, :nq])
        hnorm = max(abs(vals[0]), abs(vals[-1]))
        resid = beta * abs(float(vecs[-1, 0]))
        converged = bool(resid <= max(LANCZOS_TOL_FACTOR * hnorm, 1e-30))
        below = stop_below is not None and vals[0] < stop_below - (
            LANCZOS_TOL_FACTOR * max(abs(vals[0]), 1.0))
        # stop at the cap, once the Krylov space is invariant, or once the
        # smallest Ritz value is under the stop threshold
        if converged or below or nq == k or beta <= 1e-14 * max(hnorm, 1.0):
            break
        Q[:, nq] = w / beta
        T[nq - 1, nq] = T[nq, nq - 1] = beta
    v = Q[:, :nq] @ vecs[:, 0]
    return LanczosResult(float(vals[0]), v / _norm(v), nq, converged)


def _hessian_lanczos(oracle: PullbackOracle, *,
                     stop_below: float | None = None) -> LanczosResult:
    """Lanczos on the exact pullback Hessian at u = 0, on tangent vectors
    at the anchor. The anchor's Euclidean gradient is formed once per run
    and handed to every Hessian action."""
    x = oracle.anchor
    egrad = oracle.objective.full_egrad(x)
    return lanczos_min_eig(
        lambda v: oracle.hvp(TangentVector(x, v), egrad=egrad).coords,
        oracle.manifold, x, stop_below=stop_below)


def certify(oracle: PullbackOracle, epsilon: float, delta: float, *,
            stop_at_verdict: bool = False) -> Certification:
    """Check (epsilon, delta)-second-order stationarity at the oracle anchor.

    Gradient clause: the exact full (finite-sum) or population (streaming)
    gradient norm at the anchor must be <= epsilon. Hessian clause: the
    Lanczos estimate of lambda_min of the Riemannian Hessian at the anchor
    must be >= -delta minus the Lanczos tolerance, and Lanczos must have
    converged. Every Hessian action is charged to the oracle's
    ``diag_queries``, never to the optimizer budget.

    ``stop_at_verdict`` stops Lanczos at the first Ritz value that fails
    the Hessian clause (``lanczos_min_eig``'s ``stop_below = -delta``). The
    verdict is the one a converged run gives: a stopped certification fails
    with ``converged=False``, an upper bound on lambda_min as its estimate
    and fewer ``lanczos_iters``, and a passing one is unchanged field for
    field. The solver loops, which discard failing certifications, set it.
    """
    if not (0 < epsilon < math.inf and 0 < delta < math.inf):
        raise ParameterError("epsilon and delta must be positive and finite")
    gnorm = oracle.exact_grad(oracle.zero()).norm
    res = _hessian_lanczos(oracle,
                           stop_below=-delta if stop_at_verdict else None)
    tol = LANCZOS_TOL_FACTOR * max(abs(res.value), 1.0)
    passed = bool(res.converged and gnorm <= epsilon
                  and res.value >= -delta - tol)
    return Certification(grad_norm=gnorm, lambda_min_estimate=res.value,
                         lanczos_iters=res.iterations, passed=passed,
                         epsilon=epsilon, delta=delta, tolerance=tol,
                         converged=res.converged)


@dataclass
class VarianceReport:
    """Measured estimator error against the recursive-variance normalizer.

    ratio[t] = gap_t / ((L_hat/sqrt(b)) * sqrt(sum du_j^2 over the current
    anchor span) + sigma_hat/sqrt(B) when sigma_hat is given).
    """

    sup_ratio: float
    ratios: list[float]
    anchor_gaps: list[float]
    b: int
    B_size: int
    online_term: float


def check_variance_bound(segment: TraceSegment, L_hat: float, b: int,
                         B_size: int,
                         sigma_hat: float | None = None) -> VarianceReport:
    if L_hat <= 0 or b < 1 or B_size < 1:
        raise ParameterError("L_hat positive and batch sizes >= 1 required")
    online = (sigma_hat / math.sqrt(B_size)) if sigma_hat else 0.0
    rows = segment.rows
    if len(rows) != len(segment.du_norms):
        raise SchemaError("du side channel misaligned with rows")
    ratios: list[float] = []
    anchor_gaps: list[float] = []
    cum = 0.0
    for row, du in zip(rows, segment.du_norms):
        if row.event == "anchor":
            cum = 0.0
            if row.estimator_gap is not None:
                anchor_gaps.append(row.estimator_gap)
            continue
        if row.event not in _STEP_EVENTS:
            continue  # boundary rows carry no fresh estimate
        if row.estimator_gap is None:
            raise SchemaError("segment lacks estimator-gap recording; rerun "
                              "with record_gaps=True")
        cum += du * du
        bound = (L_hat / math.sqrt(b)) * math.sqrt(cum) + online
        gap = row.estimator_gap
        if bound > 0.0:
            ratios.append(gap / bound)
        else:
            ratios.append(0.0 if gap <= 1e-14 else math.inf)
    sup = max(ratios) if ratios else 0.0
    return VarianceReport(sup_ratio=sup, ratios=ratios,
                          anchor_gaps=anchor_gaps, b=b, B_size=B_size,
                          online_term=online)


@dataclass
class LocalizeReport:
    """Drift-versus-decrease audit of one tangent-space run.

    For every row t steps past the segment start the bound
    ||u_t - u_0||^2 <= (4 t / (c1 L_hat)) (F(u_0) - F(u_t)) + slack
    is checked; ``c1_fit`` is the largest constant all rows satisfy
    (inf when the run never moved).
    """

    holds: bool
    c1_fit: float
    violations: list[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def check_improve_or_localize(segment: TraceSegment, L_hat: float,
                              c1: float = 1.0) -> LocalizeReport:
    if segment.u_vecs is None:
        raise SchemaError("segment lacks iterate recording; rerun with "
                          "record_u=True")
    if L_hat <= 0 or c1 <= 0:
        raise ParameterError("L_hat and c1 must be positive")
    rows = segment.rows
    u0 = segment.u_vecs[0]
    F0 = rows[0].F_value
    holds = True
    c1_fit = math.inf
    violations: list[int] = []
    steps = 0
    for i in range(1, len(rows)):
        if rows[i].event != "anchor":
            steps += 1
        dist2 = float(np.sum((segment.u_vecs[i] - u0) ** 2))
        if dist2 <= 1e-24:
            continue
        decr = F0 - rows[i].F_value
        slack = 1e-9 * (1.0 + abs(F0))
        if decr <= 0.0:
            # the value went up while the iterate moved: no positive c1 works
            violations.append(i)
            holds = False
            continue
        admissible = 4.0 * steps * decr / (L_hat * dist2)
        c1_fit = min(c1_fit, admissible)
        if dist2 > (4.0 * steps / (c1 * L_hat)) * decr + slack:
            violations.append(i)
            holds = False
    return LocalizeReport(holds=holds, c1_fit=c1_fit, violations=violations)


@dataclass
class EscapeStats:
    """Aggregates of coupled-perturbation trials around one saddle anchor."""

    trials: int
    deviation_freq: float
    decrease_freq: float
    deviation_threshold: float
    decrease_threshold: float
    r0: float
    lambda_min: float
    deviation_times: list[int] = field(default_factory=list)
    deviations: list[np.ndarray] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "deviation_freq": self.deviation_freq,
            "decrease_freq": self.decrease_freq,
            "deviation_threshold": self.deviation_threshold,
            "decrease_threshold": self.decrease_threshold,
            "r0": self.r0,
            "lambda_min": self.lambda_min,
            "deviation_times": list(self.deviation_times),
        }


def _coupled_deviations(out_a, out_b) -> np.ndarray:
    """Per-inner-index separation of two coupled runs (t=0 anchor included).

    Later anchor rows duplicate the preceding iterate and are skipped, so
    index t of the result is the separation after t inner steps.
    """
    def series(out):
        vecs = [out.segment.u_vecs[0]]
        for row, u in zip(out.segment.rows[1:], out.segment.u_vecs[1:]):
            if row.event != "anchor":
                vecs.append(u)
        return vecs

    sa, sb = series(out_a), series(out_b)
    n = min(len(sa), len(sb))
    return np.array([float(np.linalg.norm(sa[i] - sb[i])) for i in range(n)])


def stuck_region_experiment(oracle: PullbackOracle, params: TssrgParams,
                            nu: float, trials: int, stream: StreamTree, *,
                            rho_hat: float, delta: float, r: float,
                            c2: float = 1.0, c3: float = 10.0) -> EscapeStats:
    """Coupled-perturbation escape statistics at a strict-saddle anchor.

    Each trial draws u0 uniformly from the radius-r ball, offsets a twin
    start by r0 = nu*r/sqrt(dim) along the most negative curvature direction
    e1 (Lanczos vector, sign fixed by its first nonzero coordinate), runs
    both on one randomness tape, and records whether the pair separated past
    delta/(c2*rho_hat) and whether either run decreased F by at least twice
    the escape threshold.
    """
    if not all(0 < v < math.inf for v in (rho_hat, nu, r, c2)):
        raise ParameterError("nu, r, rho_hat, c2 must be positive and finite")
    if trials < 0:
        raise ParameterError("trials must be >= 0")

    man = oracle.manifold
    lan = _hessian_lanczos(oracle)
    if not (lan.value <= -delta):
        raise NotASaddle(
            f"anchor is not a certified saddle: lambda_min estimate "
            f"{lan.value:.6g} > -delta = {-delta:.6g}")
    e1 = lan.vector.copy()
    nz = np.nonzero(np.abs(e1) > 1e-12 * np.linalg.norm(e1))[0]
    if e1[nz[0]] < 0:
        e1 = -e1

    r0 = nu * r / math.sqrt(man.dim)
    dev_threshold = delta / (c2 * rho_hat)
    f_script = escape_threshold(delta, rho_hat, c3).F_script
    dec_threshold = 2.0 * f_script

    dev_hits = 0
    dec_hits = 0
    dev_times: list[int] = []
    devs: list[np.ndarray] = []
    for i in range(trials):
        st = stream.child(TAG_TRIAL, i)
        u0 = man.sample_ball(oracle.anchor, r, st.child(TAG_PERTURB))
        u0p = TangentVector(oracle.anchor, u0.coords - r0 * e1)
        out_a, out_b = tssrg_run_coupled(oracle, u0, u0p, params, st,
                                         record_u=True)
        dev = _coupled_deviations(out_a, out_b)
        devs.append(dev)
        over = np.nonzero(dev >= dev_threshold)[0]
        if over.size:
            dev_hits += 1
            dev_times.append(int(over[0]))
        else:
            dev_times.append(-1)
        dec_a = out_a.segment.rows[0].F_value - out_a.segment.rows[-1].F_value
        dec_b = out_b.segment.rows[0].F_value - out_b.segment.rows[-1].F_value
        if max(dec_a, dec_b) >= dec_threshold:
            dec_hits += 1
    n = max(trials, 1)
    return EscapeStats(trials=trials,
                       deviation_freq=dev_hits / n if trials else 0.0,
                       decrease_freq=dec_hits / n if trials else 0.0,
                       deviation_threshold=dev_threshold,
                       decrease_threshold=dec_threshold, r0=r0,
                       lambda_min=lan.value, deviation_times=dev_times,
                       deviations=devs)
