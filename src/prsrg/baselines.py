"""The ``prgd`` comparator, sharing the solver's trace and query accounting.

``prgd`` (perturbed Riemannian gradient descent) takes full-gradient
retraction steps and, at small-gradient points, perturbs in the tangent
space and descends the pullback there for a fixed number of steps. It
emits the solver's SolverReport and trace schema, with rows labeled
``baseline``, so a CSV diff against the solver is meaningful. The other
comparator, ``rsrg_unperturbed`` (the main solver with the perturbation
radius forced to zero), runs through ``harness.run_experiment``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .diagnostics import Certification, certify
from .errors import ParameterError
from .geometry import ManifoldPoint, TangentVector
from .pullback import PullbackOracle
from .rng import TAG_OUTER, TAG_PERTURB, as_stream
from .solver import EPOCH_KEYS, SolverParams, SolverReport
from .trace import TraceRow
from .tssrg import boundary_alpha


@dataclass(frozen=True)
class BaselineConfig:
    eta: float
    r: float = 0.0            # tangent perturbation radius
    escape_steps: int = 20    # pullback descent steps after perturbing

    def __post_init__(self):
        SolverParams._check_field("eta", self.eta)
        SolverParams._check_field("r", self.r)
        if self.escape_steps < 1:
            raise ParameterError("escape_steps must be >= 1")


def baseline_run(objective, x0: ManifoldPoint, config: BaselineConfig,
                 epsilon: float, delta: float, budget: int,
                 rng) -> SolverReport:
    """Run ``prgd`` under the same budget discipline as the solver."""
    for name, value in (("epsilon", epsilon), ("delta", delta),
                        ("budget", budget)):
        SolverParams._check_field(name, value)
    man = objective.manifold
    man._require_point(x0)
    stream, seed = as_stream(rng)
    n = objective.n
    if n is None:
        raise ParameterError("prgd needs a finite-sum objective")
    rows: list[TraceRow] = []
    x = x0
    best_x, best_F = x0, float(objective.value(x0))
    total = 0
    diag_q = 0
    certified: Optional[Certification] = None
    cert_point = None
    exit_reason = "budget"
    outer = 0
    D = man.D
    while total + n <= budget:
        oracle = PullbackOracle(objective, x)
        zero = man.zero_tangent(x)
        g = oracle.grad_batch(objective.sample_largebatch(n, None), zero)
        total_here = total + oracle.queries
        gnorm = g.norm
        rows.append(TraceRow(outer, 0, "baseline", float(objective.value(x)),
                             gnorm, 0.0, total_here, "grad_check"))
        if gnorm <= epsilon:
            cert = certify(oracle, epsilon, delta, stop_at_verdict=True)
            diag_q += oracle.diag_queries
            if cert.passed:
                certified, cert_point = cert, x
                exit_reason = "certified"
                total = total_here
                break
            # perturb in the tangent space, then descend the pullback there
            node = stream.child(TAG_OUTER, outer).child(TAG_PERTURB)
            u = man.sample_ball(x, min(config.r, D), node)
            for k in range(1, config.escape_steps + 1):
                if total + oracle.queries + n > budget:
                    break
                gu = oracle.grad_batch(objective.sample_largebatch(n, None), u)
                w = config.eta * gu.coords
                nxt = TangentVector(x, u.coords - w)
                if nxt.norm >= D:
                    alpha = boundary_alpha(u.coords, w, D)
                    nxt = TangentVector(x, u.coords - alpha * w)
                    u = nxt
                    rows.append(TraceRow(outer, k, "baseline",
                                         oracle.value(u), gu.norm, u.norm,
                                         total + oracle.queries, "boundary"))
                    break
                u = nxt
                rows.append(TraceRow(outer, k, "baseline", oracle.value(u),
                                     gu.norm, u.norm, total + oracle.queries,
                                     "step"))
            x = man.retract(x, u)
        else:
            if total_here + n <= budget:
                step = TangentVector(x, -config.eta * g.coords)
                nrm = step.norm
                if nrm > D:  # stay inside the retraction's trust region
                    step = TangentVector(x, step.coords * (D / nrm))
                x = man.retract(x, step)
        total += oracle.queries
        fx = float(objective.value(x))
        if fx < best_F:
            best_F, best_x = fx, x
        outer += 1
    return SolverReport(best_point=best_x, best_F=best_F, certified=certified,
                        certified_point=cert_point, final_point=x,
                        queries_used=total, diag_queries=diag_q,
                        epochs=dict.fromkeys(EPOCH_KEYS, 0), trace=rows,
                        exit_reason=exit_reason, outer_iterations=outer,
                        seed=seed)

