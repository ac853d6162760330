"""The ``prgd`` comparator, sharing the solver's parameters, trace and query
accounting.

``prgd`` (perturbed Riemannian gradient descent) takes full-gradient
retraction steps and, at small-gradient points, perturbs in the tangent
space and descends the pullback there for a fixed number of steps. It runs
on the solver's own ``SolverParams``: the step size eta, the perturbation
radius r, T_max escape steps, (epsilon, delta) and the budget. Every
gradient is the full one, so the batch sizes go unused, and steps stay in
the manifold's ball radius D, read from the manifold like the solver's. It
emits the solver's SolverReport and trace schema, with rows labeled
``baseline``, so a CSV diff against the solver is meaningful. The other
comparator, ``rsrg_unperturbed`` (the main solver with r forced to zero),
runs through ``harness.run_experiment``.
"""

from __future__ import annotations

from typing import Optional

from .diagnostics import Certification, certify
from .errors import ParameterError
from .geometry import ManifoldPoint, TangentVector
from .pullback import PullbackOracle
from .rng import TAG_OUTER, TAG_PERTURB, as_stream
from .solver import EPOCH_KEYS, SolverParams, SolverReport
from .trace import TraceRow
from .tssrg import boundary_alpha


def baseline_run(objective, x0: ManifoldPoint, params: SolverParams,
                 rng) -> SolverReport:
    """Run ``prgd`` under the same budget discipline as the solver."""
    man = objective.manifold
    man._require_point(x0)
    stream, seed = as_stream(rng)
    n = objective.n
    if n is None:
        raise ParameterError("prgd needs a finite-sum objective")
    eta, budget = params.eta, params.budget
    rows: list[TraceRow] = []
    x = x0
    best_x, best_F = x0, float(objective.value(x0))
    total = 0
    diag_q = 0
    certified: Optional[Certification] = None
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
        if gnorm <= params.epsilon:
            cert = certify(oracle, params.epsilon, params.delta,
                           stop_at_verdict=True)
            diag_q += oracle.diag_queries
            if cert.passed:
                certified = cert
                exit_reason = "certified"
                total = total_here
                break
            # perturb in the tangent space, then descend the pullback there
            node = stream.child(TAG_OUTER, outer).child(TAG_PERTURB)
            u = man.sample_ball(x, min(params.r, D), node)
            for k in range(1, params.T_max + 1):
                if total + oracle.queries + n > budget:
                    break
                gu = oracle.grad_batch(objective.sample_largebatch(n, None), u)
                w = eta * gu.coords
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
                step = TangentVector(x, -eta * g.coords)
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
                        final_point=x, queries_used=total,
                        diag_queries=diag_q,
                        epochs=dict.fromkeys(EPOCH_KEYS, 0), trace=rows,
                        exit_reason=exit_reason, outer_iterations=outer,
                        seed=seed)
