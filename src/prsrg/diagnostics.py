"""Second-order stationarity certification.

``certify`` decides (epsilon, delta)-second-order stationarity of an anchor
point from the exact gradient norm and a Lanczos estimate of the smallest
eigenvalue of the closed-form Riemannian Hessian (``PullbackOracle.hvp``).
It always runs Lanczos: no smoothness estimate can stand in for it, since
an estimate is not a bound. Lanczos works on ambient tangent vectors at
the anchor, which the Hessian maps to tangent vectors, in one Krylov run
of at most LANCZOS_MAX_ITERS Hessian actions. The solver and the ``prgd``
baseline stop a failing run at the first Ritz value that disproves the
Hessian clause; ``certify`` called on its own and every passing
certification run Lanczos to convergence.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ParameterError
from .geometry import Manifold, ManifoldPoint, TangentVector, _norm
from .pullback import PullbackOracle
from .rng import TAG_DIAG, master_stream

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


def _check_tolerance(name: str, value) -> None:
    """The range rule for epsilon and delta, which every entry point that
    reads them applies (``SolverParams._check_field`` among them); the
    error names the field and its value."""
    if not 0 < value < math.inf:
        raise ParameterError(f"{name} must be positive and finite, got "
                             f"{value}")


@functools.lru_cache(maxsize=None)
def _lanczos_start(ambient_dim: int) -> np.ndarray:
    """The Lanczos start vector, a standard normal draw from the fixed
    ``_LANCZOS_SEED`` stream: drawn once per ambient dimension per process
    and read-only, since every certification starts from it."""
    gen = master_stream(_LANCZOS_SEED).child(TAG_DIAG).child(0).generator()
    g = gen.standard_normal(ambient_dim)
    g.setflags(write=False)
    return g


class LanczosResult:
    __slots__ = ("value", "vector", "iterations", "converged")

    def __init__(self, value: float, vector: np.ndarray, iterations: int,
                 converged: bool):
        self.value = value
        self.vector = vector  # ambient tangent coordinates at the anchor
        self.iterations = iterations
        self.converged = converged


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
    _check_tolerance("epsilon", epsilon)
    _check_tolerance("delta", delta)
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
