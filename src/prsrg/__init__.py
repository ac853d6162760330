"""Riemannian optimization with recursive variance reduction and
tangent-space saddle escape.

The solver minimizes finite-sum or streaming objectives over the sphere or
Euclidean space by alternating large-gradient descent epochs with perturbed
escape episodes, all run in the tangent space of a periodically re-anchored
pullback. Candidate points are certified for
(epsilon, delta)-second-order stationarity by Lanczos on the closed-form
Riemannian Hessian.
"""

from ._kernels import backend_name
from .baselines import BaselineConfig, baseline_run
from .diagnostics import (Certification, EscapeStats, EscapeThreshold,
                          certify, check_improve_or_localize,
                          check_variance_bound, escape_threshold,
                          lanczos_min_eig, stuck_region_experiment)
from .errors import (ContractViolation, EmptyBatch, InvariantViolation,
                     NotASaddle, NumericalFailure, OutOfBall, ParameterError,
                     SchemaError)
from .geometry import (Euclidean, Manifold, ManifoldPoint, Sphere,
                       TangentVector)
from .harness import (ExperimentConfig, dump_config, load_config,
                      parse_config, parse_spectrum, run_certify, run_couple,
                      run_experiment, run_sweep)
from .problems import (DataRayleighInstance, QuadraticSaddleInstance,
                       RayleighInstance, StreamingRayleighInstance,
                       load_matrix, make_data_rayleigh,
                       make_quadratic_saddle, make_rayleigh,
                       make_streaming_rayleigh, save_matrix)
from .pullback import Batch, FiniteSumObjective, LipschitzEstimate, PullbackOracle
from .rng import StreamTree, master_stream
from .solver import (SolverConstants, SolverParams, SolverReport, auto_solve,
                     derive_params, prsrg_run, small_grad_check)
from .trace import TraceRow, TraceSegment, read_trace, rows_to_csv, write_trace
from .tssrg import (ExitReason, TssrgOutcome, TssrgParams, boundary_alpha,
                    tssrg_run, tssrg_run_coupled)

__version__ = "0.1.0"

__all__ = [
    "BaselineConfig", "Batch", "Certification", "ContractViolation",
    "DataRayleighInstance", "EmptyBatch", "EscapeStats", "EscapeThreshold",
    "Euclidean", "ExitReason", "ExperimentConfig", "FiniteSumObjective",
    "InvariantViolation", "LipschitzEstimate", "Manifold", "ManifoldPoint",
    "NotASaddle", "NumericalFailure", "OutOfBall", "ParameterError",
    "PullbackOracle", "QuadraticSaddleInstance", "RayleighInstance",
    "SchemaError", "SolverConstants", "SolverParams", "SolverReport",
    "StreamingRayleighInstance", "StreamTree", "Sphere",
    "TangentVector", "TraceRow", "TraceSegment", "TssrgOutcome",
    "TssrgParams", "auto_solve", "backend_name", "baseline_run",
    "boundary_alpha", "certify", "check_improve_or_localize",
    "check_variance_bound", "derive_params", "dump_config",
    "escape_threshold", "lanczos_min_eig", "load_config", "load_matrix",
    "make_data_rayleigh", "make_quadratic_saddle",
    "make_rayleigh", "make_streaming_rayleigh", "master_stream",
    "parse_config", "parse_spectrum", "prsrg_run", "read_trace",
    "rows_to_csv", "run_certify", "run_couple",
    "run_experiment", "run_sweep", "save_matrix", "small_grad_check",
    "stuck_region_experiment", "tssrg_run", "tssrg_run_coupled",
    "write_trace",
]
