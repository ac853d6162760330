"""Riemannian optimization with recursive variance reduction and
tangent-space saddle escape.

The solver minimizes finite-sum or streaming objectives over the sphere or
Euclidean space by alternating large-gradient descent epochs with perturbed
escape episodes, all run in the tangent space of a periodically re-anchored
pullback. Candidate points are certified for
(epsilon, delta)-second-order stationarity by Lanczos on the closed-form
Riemannian Hessian.

Public names load lazily (PEP 562): ``import prsrg`` loads no submodule,
and ``prsrg.<name>`` imports the module that defines the name.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines
_EXPORTS = {
    "_kernels": "backend_name",
    "baselines": "baseline_run",
    "diagnostics": "Certification certify lanczos_min_eig",
    "errors": "ContractViolation EmptyBatch InvariantViolation "
              "NumericalFailure OutOfBall ParameterError",
    "geometry": "Euclidean Manifold ManifoldPoint Sphere TangentVector",
    "harness": "ExperimentConfig dump_config load_config parse_config "
               "parse_spectrum run_experiment run_sweep",
    "problems": "QuadraticSaddleInstance RayleighInstance "
                "StreamingRayleighInstance",
    "pullback": "Batch FiniteSumObjective LipschitzEstimate PullbackOracle",
    "rng": "StreamTree master_stream",
    "solver": "SolverParams SolverReport auto_solve derive_params "
              "prsrg_run small_grad_check",
    "trace": "TraceRow TraceSegment rows_to_csv write_trace",
    "tssrg": "ExitReason TssrgOutcome TssrgParams boundary_alpha tssrg_run",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
