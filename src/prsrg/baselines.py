"""Comparator optimizers sharing the solver's trace and query accounting.

Two baselines: ``prgd`` takes full-gradient retraction steps and, at
small-gradient points, perturbs in the tangent space and descends the
pullback there for a fixed number of steps; ``rsgd`` is plain Riemannian
minibatch SGD. Both emit the solver's SolverReport and trace schema, with
rows labeled ``baseline``, so a CSV diff against the solver is meaningful.
The third comparator, ``rsrg_unperturbed`` (the main solver with the
perturbation radius forced to zero), runs through ``harness.run_experiment``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .diagnostics import Certification, certify
from .errors import ParameterError
from .geometry import Manifold, ManifoldPoint, TangentVector
from .pullback import PullbackOracle
from .rng import TAG_BATCH, TAG_OUTER, TAG_PERTURB, StreamTree, as_stream
from .solver import EPOCH_KEYS, SolverReport
from .trace import TraceRow
from .tssrg import boundary_alpha

BASELINE_KINDS = ("prgd", "rsgd")


@dataclass(frozen=True)
class BaselineConfig:
    kind: str
    eta: float
    r: float = 0.0            # prgd: tangent perturbation radius
    escape_steps: int = 20    # prgd: pullback descent steps after perturbing
    batch: int = 1            # rsgd: minibatch size

    def __post_init__(self):
        if self.kind not in BASELINE_KINDS:
            raise ParameterError(f"kind must be one of {BASELINE_KINDS}, "
                                 f"got {self.kind!r}")
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ParameterError(f"eta must be positive, got {self.eta}")
        if not 0 <= self.r < math.inf:
            raise ParameterError(f"r must be finite and >= 0, got {self.r}")
        if self.escape_steps < 1:
            raise ParameterError("escape_steps must be >= 1")
        if self.batch < 1:
            raise ParameterError("batch must be >= 1")


def _report(best, best_F, certified, cert_point, final, q, diag_q, rows,
            exit_reason, outer, seed) -> SolverReport:
    counts = dict.fromkeys(EPOCH_KEYS, 0)
    return SolverReport(best_point=best, best_F=best_F, certified=certified,
                        certified_point=cert_point, final_point=final,
                        queries_used=q, diag_queries=diag_q, epochs=counts,
                        trace=rows, exit_reason=exit_reason,
                        outer_iterations=outer, seed=seed)


def _prgd_run(objective, man: Manifold, x0, config, epsilon, delta, budget,
              stream: StreamTree, seed) -> SolverReport:
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
                             gnorm, None, 0.0, total_here, "grad_check"))
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
                                         oracle.value(u), gu.norm, None,
                                         u.norm, total + oracle.queries,
                                         "boundary"))
                    break
                u = nxt
                rows.append(TraceRow(outer, k, "baseline", oracle.value(u),
                                     gu.norm, None, u.norm,
                                     total + oracle.queries, "step"))
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
    return _report(best_x, best_F, certified, cert_point, x, total, diag_q,
                   rows, exit_reason, outer, seed)


def _rsgd_run(objective, man: Manifold, x0, config, epsilon, delta, budget,
              stream: StreamTree, seed) -> SolverReport:
    rows: list[TraceRow] = []
    x = x0
    best_x, best_F = x0, float(objective.value(x0))
    total = 0
    t = 0
    b = config.batch
    D = man.D
    while total + b <= budget:
        oracle = PullbackOracle(objective, x)
        batch = objective.sample_minibatch(
            b, stream.child(TAG_OUTER, t).child(TAG_BATCH))
        g = oracle.grad_batch(batch, man.zero_tangent(x))
        step = TangentVector(x, -config.eta * g.coords)
        nrm = step.norm
        if nrm > D:
            step = TangentVector(x, step.coords * (D / nrm))
        x = man.retract(x, step)
        total += oracle.queries
        fx = float(objective.value(x))
        rows.append(TraceRow(t, 1, "baseline", fx, g.norm, None, nrm,
                             total, "step"))
        if fx < best_F:
            best_F, best_x = fx, x
        t += 1
    return _report(best_x, best_F, None, None, x, total, 0, rows, "budget",
                   t, seed)


def baseline_run(objective, x0: ManifoldPoint, config: BaselineConfig,
                 epsilon: float, delta: float, budget: int,
                 rng) -> SolverReport:
    """Run one comparator under the same budget discipline as the solver."""
    if not (0 < epsilon < math.inf and 0 < delta < math.inf):
        raise ParameterError("epsilon and delta must be positive and finite")
    if budget < 0:
        raise ParameterError("budget must be >= 0")
    manifold = objective.manifold
    manifold._require_point(x0)
    stream, seed = as_stream(rng)

    if config.kind == "prgd":
        return _prgd_run(objective, manifold, x0, config, epsilon, delta,
                         budget, stream, seed)
    return _rsgd_run(objective, manifold, x0, config, epsilon, delta,
                     budget, stream, seed)
