"""Traced prsrg CLI invocation.

    python bench/launch.py SPANS_PATH prsrg-cli-args...

Imports prsrg, wraps its public callables at the layer boundaries below,
runs ``prsrg.cli.main`` on the remaining arguments, then writes the spans
to SPANS_PATH (see tracer.py). Names are wrapped in the module or class
where their caller looks them up: ``solver`` binds ``tssrg_run``,
``certify`` and ``small_grad_check`` at import, ``harness`` binds
``prsrg_run`` and ``cli`` binds ``run_experiment`` and ``run_sweep``.
"""

from __future__ import annotations

import sys

from tracer import Tracer


def _paired_cost(tracer, args, _out):
    # computed, not measured: 4 passes of 2*b*d flops; minimum traffic is
    # one read of the b gathered rows of P and Q, plus y, out and idx
    P, _, idx, _ = args
    b, d = idx.shape[0], P.shape[1]
    tracer.note("kernels.paired_rank2.flops", 8 * b * d + 2 * d)
    tracer.note("kernels.paired_rank2.bytes", 8 * (2 * b * d + 2 * d + b))


def _steps(tracer, _args, out):
    tracer.note("tssrg.inner_steps", out.iterations)


def _certified(tracer, _args, out):
    tracer.note("diagnostics.lanczos_iters", out.lanczos_iters)
    tracer.note("diagnostics.cert_passed", out.passed)


def install(tracer: Tracer) -> None:
    from prsrg import (_kernels, cli, geometry, harness, problems, pullback,
                       rng, solver)

    wrap = tracer.wrap
    wrap(_kernels, "paired_rank2_mean", "kernels.paired_rank2",
         note=_paired_cost)
    wrap(_kernels, "rows_rank1_mean", "kernels.rows_rank1")
    for cls in (problems._PairedComponentObjective,
                problems.StreamingRayleighInstance):
        wrap(cls, "sample_minibatch", "problems.sample")
        wrap(cls, "sample_largebatch", "problems.sample")
        wrap(cls, "batch_riem_grad", "problems.batch_grad")
    wrap(rng.StreamTree, "generator", "rng.generator")
    wrap(geometry.Manifold, "retract", "geometry.retract")
    wrap(geometry.Sphere, "dretract_adjoint_apply", "geometry.adjoint")
    wrap(geometry.Manifold, "sample_ball", "geometry.sample_ball")
    wrap(geometry.Manifold, "tangent_basis", "geometry.tangent_basis")
    for attr in ("grad_batch", "value", "hvp", "exact_grad"):
        wrap(pullback.PullbackOracle, attr, f"pullback.{attr}")
    wrap(pullback.PullbackOracle, "estimate_lipschitz", "pullback.probe")
    wrap(solver, "tssrg_run", "tssrg.run", note=_steps)
    wrap(solver, "small_grad_check", "solver.grad_check")
    wrap(solver, "certify", "diagnostics.certify", note=_certified)
    wrap(harness, "prsrg_run", "solver.prsrg_run")
    wrap(harness, "build_problem", "problems.build")
    wrap(harness, "resolve_start", "harness.resolve_start")
    wrap(harness, "resolve_params", "harness.resolve_params")
    wrap(harness, "write_artifacts", "harness.write_artifacts")
    wrap(harness, "run_experiment", "harness.run_experiment")
    wrap(cli, "run_experiment", "harness.run_experiment")
    wrap(cli, "run_sweep", "harness.run_sweep")


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("import"):
        import prsrg.cli
    install(tracer)
    with tracer.span("cli.main"):
        code = prsrg.cli.main(argv)
    tracer.dump(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
