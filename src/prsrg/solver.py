"""Outer loop: alternate descent epochs and perturbed escape episodes.

Each outer iteration anchors a pullback oracle at the current point and
measures a large-batch gradient. A large gradient starts an unperturbed
tangent-space epoch of at most m steps that reuses the measured gradient as
its anchor; a small one makes the point a candidate, which is certified for
(epsilon, delta)-second-order stationarity and, failing that, attacked with
a uniformly drawn tangent perturbation followed by a T_max-step episode.
The run stops at the first certification pass or when the query budget
cannot fund another epoch.

The trace rows are the run's one account: the loop writes them unlabeled,
and ``_label_epochs`` then labels each outer_t's rows as one epoch. A
grad_check row and the episode after it are escape if the episode's anchor
row has u_norm > 0 (it was perturbed; with r = 0, as under
rsrg_unperturbed, it is a descent epoch). A descent epoch is
type1_descent if it exits at the boundary, type2_descent if at least half
its estimator norms exceed epsilon/2, and else quiet: useful if the next
outer iteration opens with a grad_check row (its check passed), wasted if
with an anchor, and settled by the exact gradient at the final point if it
is the run's last. A lone final grad_check row (a certified point, or no
budget for an episode) is useful if the run certified, else wasted, and is
no epoch.

As in SSRGD (Li 2019), useful means the epoch's output passes the
first-order test. So an r = 0 run parked at a saddle labels its quiet
epochs, the unperturbed episodes after each failed certification, useful:
its waste sits in those escapes that cannot move, not in wasted.

Run parameters take one path, ``probe_params`` (``auto_solve`` and the
harness, for every algorithm, call it; ``baselines.baseline_run`` reads the
same record). The objective decides the mode: finite_sum at its
n, or online at its ``sigma_hint`` when n is None. epsilon, delta and the
budget are checked before the Lipschitz probe, then ``derive_params`` sets
every other parameter, with r capped at the manifold's chart radius D, the
radius of the ball every epoch runs in (no run record copies it). Its
three multipliers are module constants, not options: C_ETA (0.1) for the
step size, C_T (20) for the episode length and C_B (16) for the online
anchor batch.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter
from typing import Optional

from .diagnostics import Certification, _check_tolerance, certify
from .errors import InvariantViolation, ParameterError
from .geometry import ManifoldPoint, TangentVector
from .pullback import LipschitzEstimate, PullbackOracle
from .rng import TAG_CHECK, TAG_DIAG, TAG_OUTER, TAG_PERTURB, as_stream
from .trace import _STEP_EVENTS, TraceRow
from .tssrg import TssrgParams, tssrg_run

EPOCH_KEYS = ("type1_descent", "type2_descent", "useful", "wasted", "escape")

FINITE_SUM = "finite_sum"
ONLINE = "online"

# derive_params' multipliers
C_ETA = 0.1
C_T = 20.0
C_B = 16.0


@dataclass(frozen=True)
class SolverParams(TssrgParams):
    """The inner loop's parameters, the perturbation radius r, (epsilon,
    delta) and the budget: report.json's params, by field name."""

    r: float
    epsilon: float
    delta: float
    budget: int

    @staticmethod
    def _check_field(name: str, v) -> None:
        TssrgParams._check_field(name, v)
        if name in ("epsilon", "delta"):
            _check_tolerance(name, v)
        if name == "r" and not 0 <= v < math.inf:
            raise ParameterError(f"r must be finite and >= 0, got {v}")
        if name == "budget" and v < 0:
            raise ParameterError(f"budget must be >= 0, got {v}")


class SolverReport:
    __slots__ = ("best_point", "best_F", "certified", "final_point",
                 "queries_used", "diag_queries", "epochs", "trace",
                 "exit_reason", "outer_iterations", "seed", "lipschitz")

    def __init__(self, best_point: ManifoldPoint, best_F: float,
                 certified: Optional[Certification],
                 final_point: ManifoldPoint, queries_used: int,
                 diag_queries: int, epochs: dict[str, int],
                 trace: list[TraceRow], exit_reason: str,
                 outer_iterations: int, seed: Optional[int] = None,
                 lipschitz: Optional[LipschitzEstimate] = None):
        self.best_point = best_point
        self.best_F = best_F
        self.certified = certified
        self.final_point = final_point
        self.queries_used = queries_used
        self.diag_queries = diag_queries
        self.epochs = epochs
        self.trace = trace
        self.exit_reason = exit_reason  # certified | budget
        self.outer_iterations = outer_iterations
        self.seed = seed
        self.lipschitz = lipschitz  # the run's estimate; not in as_dict

    def as_dict(self) -> dict:
        return {
            "best_F": self.best_F,
            "best_point": self.best_point.coords.tolist(),
            "certified": self.certified.as_dict() if self.certified else None,
            "final_point": self.final_point.coords.tolist(),
            "queries_used": self.queries_used,
            "diag_queries": self.diag_queries,
            "epochs": dict(self.epochs),
            "exit_reason": self.exit_reason,
            "outer_iterations": self.outer_iterations,
            "seed": self.seed,
        }


def derive_params(mode: str, n_or_sigma, epsilon: float, delta: float,
                  L_hat: float, rho_hat: float, *,
                  D: float = 0.5, budget: int = 10_000_000) -> SolverParams:
    """Turn problem scale and smoothness estimates into run parameters.

    finite_sum: m = b = ceil(sqrt(n)), B = n. online: m = b =
    ceil(sigma / eps), B = ceil(C_B sigma^2 / eps^2). Both modes:
    eta = C_ETA / L_hat, T_max = ceil(C_T / delta), r = min of
    delta^3/(rho_hat^2 eps) and sqrt(delta^3/(rho_hat^2 L_hat)), capped at
    the chart radius D, the manifold's ball radius (the cap binds when
    rho_hat is tiny, e.g. exactly quadratic objectives). The mode picks the
    formulas; neither it nor D is returned. C_ETA, C_T and C_B are module
    constants.
    """
    for name, value in (("epsilon", epsilon), ("delta", delta)):
        SolverParams._check_field(name, value)
    if not 0 < L_hat < math.inf:
        raise ParameterError(f"L_hat must be positive and finite, got {L_hat}")
    if not (rho_hat >= 0 and rho_hat * rho_hat < math.inf):  # r squares it
        raise ParameterError(f"rho_hat must be >= 0 with a finite square, "
                             f"got {rho_hat}")
    m, B = _batch_sizes(mode, n_or_sigma, epsilon)
    eta = C_ETA / L_hat
    try:  # delta^3 overflows for a huge delta, and a tiny one puts T_max
        # past TssrgParams' 2**63 bound
        T_max = math.ceil(C_T / delta)
        if T_max >= 2 ** 63:
            raise OverflowError
        if rho_hat > 0:
            r = min(delta ** 3 / (rho_hat ** 2 * epsilon),
                    math.sqrt(delta ** 3 / (rho_hat ** 2 * L_hat)), D)
        else:
            r = D
    except (ArithmeticError, ValueError) as exc:
        raise ParameterError(
            f"T_max and r overflow at delta={delta}") from exc
    if delta > L_hat:
        warnings.warn(
            f"delta={delta} exceeds the gradient Lipschitz estimate "
            f"L_hat={L_hat}; the Hessian clause is looser than the estimated "
            "curvature scale (certification still checks it)", stacklevel=2)
    return SolverParams(eta=eta, m=m, b=m, B=B, T_max=T_max, r=r,
                        epsilon=epsilon, delta=delta, budget=budget)


def _batch_sizes(mode: str, n_or_sigma, epsilon: float) -> tuple[int, int]:
    """(m = b, B) for the mode: see ``derive_params``."""
    if mode == FINITE_SUM:
        if not (1 <= n_or_sigma < math.inf
                and n_or_sigma == int(n_or_sigma)):
            raise ParameterError(f"finite_sum needs a positive integer n, "
                                 f"got {n_or_sigma!r}")
        n = int(n_or_sigma)
        return math.ceil(math.sqrt(n)), n
    if mode == ONLINE:
        sigma = float(n_or_sigma)
        if not sigma > 0:  # an infinite sigma overflows below
            raise ParameterError(f"online needs sigma > 0, got {n_or_sigma!r}")
        try:  # ceil of inf or nan, or epsilon^2 underflowing to 0, raises;
            # a size past TssrgParams' 2**63 bound is the same failure
            m = math.ceil(sigma / epsilon)
            B = math.ceil(C_B * sigma * sigma / (epsilon * epsilon))
            if max(m, B) >= 2 ** 63:
                raise OverflowError
        except (ArithmeticError, ValueError) as exc:
            raise ParameterError(f"online batch sizes overflow at sigma="
                                 f"{sigma}, epsilon={epsilon}") from exc
        return m, B
    raise ParameterError(f"mode must be finite_sum or online, got {mode!r}")


def small_grad_check(oracle: PullbackOracle, B_size: int, epsilon: float,
                     rng) -> tuple[bool, TangentVector]:
    """Large-batch gradient at the origin of T_x M (x the oracle anchor) and
    its epsilon test; ``rng`` is a Generator or a StreamTree node, minted
    only if the batch is not exhaustive."""
    _check_tolerance("epsilon", epsilon)
    g = oracle.grad_largebatch(B_size, oracle.zero(), rng)
    return bool(g.norm <= epsilon), g


def _affordable_T(remaining: int, B: int, b: int, m: int,
                  first_anchor_paid: bool) -> int:
    """Largest inner-step count T whose worst-case query cost fits.

    cost(T) = [B unless the first anchor was already paid for]
              + B * floor((T-1)/m)   (re-anchors)
              + 2 b T                (two minibatch gradients per step).
    """
    a0 = 0 if first_anchor_paid else B
    b2 = 2 * b
    # T = 1 + j costs a0 + b2 + B floor(j/m) + b2 j; with k = floor(j/m)
    # re-anchors, j may run to k m + m - 1 and to (left - B k) / b2
    left = remaining - a0 - b2
    if left < 0:
        return 0
    k = left // (B + b2 * m)
    return min((k + 1) * m, (left + b2 - B * k) // b2)


def _label_epochs(rows: list[TraceRow], epsilon: float, certified: bool,
                  tail_small) -> dict[str, int]:
    """Set every row's epoch_type from its outer iteration's rows and return
    the epoch counts (module docstring). ``tail_small()`` settles a quiet
    final epoch; it is called only for one."""
    counts = dict.fromkeys(EPOCH_KEYS, 0)
    groups = [list(g) for _, g in groupby(rows, attrgetter("outer_t"))]
    for i, group in enumerate(groups):
        if len(group) == 1:  # the lone final check: labelled, but no epoch
            group[0].epoch_type = "useful" if certified else "wasted"
            continue
        norms = [r.grad_norm_or_batch for r in group
                 if r.event in _STEP_EVENTS]
        if group[0].event == "grad_check" and group[1].u_norm > 0:
            label = "escape"
        elif group[-1].event == "boundary":
            label = "type1_descent"
        elif 2 * sum(v > epsilon / 2.0 for v in norms) >= len(norms):
            label = "type2_descent"
        elif i + 1 < len(groups):
            label = ("useful" if groups[i + 1][0].event == "grad_check"
                     else "wasted")
        else:
            label = "useful" if tail_small() else "wasted"
        for row in group:
            row.epoch_type = label
        counts[label] += 1
    return counts


def prsrg_run(objective, x0: ManifoldPoint, params: SolverParams,
              rng) -> SolverReport:
    """Run the full solver from x0 under a strict query budget.

    ``rng`` is a 64-bit seed or a StreamTree; all randomness descends from
    it through position-keyed substreams. Certification's Hessian actions
    are tallied separately in diag_queries and never count against the
    budget.
    """
    manifold = objective.manifold
    manifold._require_point(x0)
    stream, seed = as_stream(rng)

    B, b, m = params.B, params.b, params.m
    rows: list[TraceRow] = []
    total_q = 0
    diag_q = 0
    x = x0
    best_x, best_F = x0, float(objective.value(x0))
    certified: Optional[Certification] = None
    exit_reason = "budget"
    outer_t = 0

    while total_q + B + 2 * b <= params.budget:
        oracle = PullbackOracle(objective, x)
        ostream = stream.child(TAG_OUTER, outer_t)
        ok_small, g = small_grad_check(oracle, B, params.epsilon,
                                       ostream.child(TAG_CHECK))
        remaining = params.budget - total_q - oracle.queries
        if ok_small:
            rows.append(TraceRow(
                outer_t=outer_t, inner_k=0, epoch_type="",
                F_value=float(objective.value(x)), grad_norm_or_batch=g.norm,
                u_norm=0.0, queries_cum=total_q + oracle.queries,
                event="grad_check"))
            cert = certify(oracle, params.epsilon, params.delta,
                           stop_at_verdict=True)
            T_run = min(params.T_max,
                        _affordable_T(remaining, B, b, m, False))
            if cert.passed or T_run < 1:
                if cert.passed:
                    certified = cert
                    exit_reason = "certified"
                total_q += oracle.queries
                diag_q += oracle.diag_queries
                break
            u0 = manifold.sample_ball(x, min(params.r, manifold.D),
                                      ostream.child(TAG_PERTURB))
            anchor_grad = None
        else:
            T_run = min(m, _affordable_T(remaining, B, b, m, True))
            u0, anchor_grad = manifold.zero_tangent(x), g
        out = tssrg_run(oracle, u0, params._capped(T_run), ostream,
                        outer_t=outer_t, anchor_grad=anchor_grad,
                        query_offset=total_q)
        rows.extend(out.segment.rows)
        x = out.result
        total_q += oracle.queries
        diag_q += oracle.diag_queries
        fx = float(objective.value(x))
        if fx < best_F:
            best_F, best_x = fx, x
        outer_t += 1

    if total_q > params.budget:
        raise InvariantViolation(
            f"query accounting bug: used {total_q} of {params.budget} "
            f"after {outer_t} outer iterations")
    epochs = _label_epochs(
        rows, params.epsilon, certified is not None,
        lambda: PullbackOracle(objective, x).exact_grad(
            manifold.zero_tangent(x)).norm <= params.epsilon)
    return SolverReport(best_point=best_x, best_F=best_F, certified=certified,
                        final_point=x, queries_used=total_q,
                        diag_queries=diag_q, epochs=epochs, trace=rows,
                        exit_reason=exit_reason, outer_iterations=outer_t,
                        seed=seed)


def probe_params(objective, x0: ManifoldPoint, epsilon: float,
                 delta: float, budget: int, stream, *,
                 estimate: LipschitzEstimate | None = None
                 ) -> tuple[SolverParams, LipschitzEstimate]:
    """(params, estimate) for objective and x0 by the one parameter path
    (module docstring); each error names its field. The probe draws from
    ``stream.child(TAG_DIAG)``; a given ``estimate`` (an earlier probe at
    the same Abar, x0 and stream) replaces it.
    """
    for key, value in (("epsilon", epsilon), ("delta", delta),
                       ("budget", budget)):
        SolverParams._check_field(key, value)
    mode, scale = FINITE_SUM, objective.n
    if scale is None:
        mode, scale = ONLINE, getattr(objective, "sigma_hint", None)
        if scale is None:
            raise ParameterError("an online objective needs a sigma_hint")
    est = estimate
    if est is None:
        est = PullbackOracle(objective, x0).estimate_lipschitz(
            stream.child(TAG_DIAG).generator())
    # r's formula squares rho_hat, so a finite rho_hat can overflow there
    for name, value in (("L_hat", est.L_hat),
                        ("rho_hat^2", est.rho_hat * est.rho_hat)):
        if not math.isfinite(value):
            raise ParameterError(
                f"the smoothness probe overflows float64 at spectrum scale "
                f"{max(abs(objective.spectrum)):.3g} ({name} = {value})")
    params = derive_params(mode, scale, epsilon, delta, est.L_hat,
                           est.rho_hat, D=objective.manifold.D,
                           budget=budget)
    return params, est


def auto_solve(objective, x0: ManifoldPoint, epsilon: float, delta: float,
               budget: int, rng) -> tuple[SolverReport, SolverParams]:
    """Estimate smoothness at x0, derive parameters, and run the solver."""
    stream, seed = as_stream(rng)
    params, _ = probe_params(objective, x0, epsilon, delta, budget, stream)
    report = prsrg_run(objective, x0, params, stream)
    report.seed = seed
    return report, params
