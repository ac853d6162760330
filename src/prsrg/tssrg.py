"""Recursive-gradient descent run inside one tangent-space ball.

The loop descends a pullback objective F_hat = f(R_x(u)) over the ball
B(0, D) in T_x M using a recursively corrected stochastic gradient: every
``m`` steps an anchor gradient is taken on a batch of size ``B_size`` and in
between the estimator is updated as

    v_t = grad F_hat_I(u_t) - grad F_hat_I(u_{t-1}) + v_{t-1}

with I a minibatch of size ``b`` drawn i.i.d. with replacement. Three exits:

* Boundary: the step u_{t-1} - eta * v_{t-1} would leave the ball; the run
  stops exactly on the sphere ||u|| = D at the unique alpha in (0, 1].
* UniformBreak: in unperturbed runs with t < T_max the loop stops after the
  step with probability 1 / (m - k + 1), which makes the stopping index
  uniform on the anchor epoch.
* MaxIter: t reached T_max (this guard wins: the break draw is skipped
  whenever t >= T_max).

Randomness is consumed from position-keyed substreams, one per inner index,
so two runs that share a stream see identical minibatches and break draws at
every t regardless of where either run exits.

``tssrg_run`` validates its inputs once, at entry: u0 and ``anchor_grad``
must be based at the oracle's anchor, u0 must lie in the run ball, and the
run ball must fit in the manifold's chart. After that the loop keeps u, v
and the step w as plain float64 arrays and computes minibatch gradients
through ``PullbackOracle._grad``, one retraction each. Norms are
``sqrt(a @ a)``, which equals ``np.linalg.norm`` bit for bit on 1-D float64.
Tangent vectors are built only where a public, validating oracle call needs
one (the trace row's F value, the exact gradient behind ``record_gaps``) and
for the returned outcome.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional
import warnings

import numpy as np

from .errors import ContractViolation, NumericalFailure, OutOfBall, ParameterError
from .geometry import ManifoldPoint, TangentVector, _norm
from .pullback import PullbackOracle
from .rng import TAG_ANCHOR, TAG_BATCH, TAG_BREAK, StreamTree
from .trace import TraceRow, TraceSegment


class ExitReason(enum.Enum):
    BOUNDARY = "boundary"
    UNIFORM_BREAK = "uniform_break"
    MAX_ITER = "max_iter"


@dataclass(frozen=True)
class TssrgParams:
    """Step size, epoch length, batch sizes, ball radius, iteration cap."""

    eta: float
    m: int
    b: int
    B_size: int
    D: float
    T_max: int

    def __post_init__(self):
        if not (self.eta > 0 and math.isfinite(self.eta)):
            raise ParameterError(f"eta must be positive, got {self.eta}")
        for name in ("m", "b", "B_size", "T_max"):
            v = getattr(self, name)
            if not (isinstance(v, (int, np.integer)) and v >= 1):
                raise ParameterError(f"{name} must be an integer >= 1, got {v!r}")
        if not (self.D > 0 and math.isfinite(self.D)):
            raise ParameterError(f"D must be positive, got {self.D}")
        if self.b < self.m:
            warnings.warn(
                f"minibatch size b={self.b} below epoch length m={self.m}; "
                "the variance bound expects b >= m", stacklevel=2)

    def replaced(self, **kw) -> "TssrgParams":
        d = dict(eta=self.eta, m=self.m, b=self.b, B_size=self.B_size,
                 D=self.D, T_max=self.T_max)
        d.update(kw)
        return TssrgParams(**d)


@dataclass
class TssrgOutcome:
    result: ManifoldPoint
    u_final: TangentVector
    exit: ExitReason
    iterations: int
    segment: TraceSegment


def boundary_alpha(u_prev: np.ndarray, w: np.ndarray, D: float) -> float:
    """Smallest alpha in (0, 1] with ||u_prev - alpha*w|| = D.

    Requires ||u_prev|| < D and ||u_prev - w|| >= D. The quadratic
    a*alpha^2 - 2*uw*alpha + c = 0 (a = ||w||^2, c = ||u_prev||^2 - D^2 < 0)
    then has exactly one positive root; the branch is chosen so the two
    summed terms never cancel.
    """
    a = float(w @ w)
    if a <= 0.0:
        raise ParameterError("boundary crossing requires a nonzero step")
    uw = float(u_prev @ w)
    c = float(u_prev @ u_prev) - D * D
    disc = uw * uw - a * c
    if disc < 0.0:
        raise NumericalFailure("no real boundary crossing", iteration=-1)
    s = math.sqrt(disc)
    if uw >= 0.0:
        alpha = (uw + s) / a
    else:
        alpha = c / (uw - s)
    return min(max(alpha, 0.0), 1.0)


def _require_finite(arr: np.ndarray, what: str, t: int) -> None:
    if not np.isfinite(arr).all():
        raise NumericalFailure(f"non-finite {what} at inner step {t}",
                               iteration=t)


def tssrg_run(oracle: PullbackOracle, u0: TangentVector, params: TssrgParams,
              stream: StreamTree, *, outer_t: int = 0,
              anchor_grad: Optional[TangentVector] = None,
              record_gaps: bool = False, record_u: bool = False,
              query_offset: int = 0) -> TssrgOutcome:
    """Run one tangent-space descent from u0; perturbed iff ||u0|| > 0.

    ``anchor_grad``, when given, is used as the first anchor gradient v_0
    without drawing or charging a batch (the caller already paid for it at
    the outer gradient check). Trace rows carry ``query_offset`` plus the
    oracle's own counter so cumulative counts survive anchor changes.
    """
    man = oracle.manifold
    obj = oracle.objective
    x = oracle.anchor
    D = params.D
    man._require_base(x, u0)
    if anchor_grad is not None:
        man._require_base(x, anchor_grad)
    if D > man.D * (1.0 + 1e-12):
        raise ContractViolation(
            f"run ball radius {D} exceeds the manifold chart radius {man.D}")
    u_prev = u0.coords
    u_norm = _norm(u_prev)
    if u_norm > D * (1.0 + 1e-12):
        raise OutOfBall(f"u0 norm {u_norm} exceeds ball radius {D}")
    perturbed = u_norm > 0.0

    seg = TraceSegment()
    if record_u:
        seg.u_vecs = []

    def emit(inner_k, u, u_norm, grad_norm, event, gap=None, du=0.0):
        seg.rows.append(TraceRow(
            outer_t=outer_t, inner_k=inner_k, epoch_type="",
            F_value=oracle.value(TangentVector(x, u)),
            grad_norm_or_batch=grad_norm, estimator_gap=gap, u_norm=u_norm,
            queries_cum=query_offset + oracle.queries, event=event))
        seg.du_norms.append(du)
        if seg.u_vecs is not None:
            seg.u_vecs.append(u.copy())

    def gap_at(u, v):
        if not record_gaps:
            return None
        return _norm(v - oracle.exact_grad(TangentVector(x, u)).coords)

    def finish(u, exit_reason, t):
        u_final = TangentVector(x, u)
        return TssrgOutcome(result=man.retract(x, u_final), u_final=u_final,
                            exit=exit_reason, iterations=t, segment=seg)

    if anchor_grad is not None:
        v = anchor_grad.coords
    else:
        gen = stream.child(TAG_ANCHOR, 0).generator()
        v = oracle._grad(obj.sample_largebatch(params.B_size, gen), u_prev)
    _require_finite(v, "anchor gradient", 0)
    emit(0, u_prev, u_norm, _norm(v), "anchor", gap=gap_at(u_prev, v))

    t = 0
    while True:
        for k in range(1, params.m + 1):
            t += 1
            w = params.eta * v
            u_next = u_prev - w
            _require_finite(u_next, "iterate", t)
            u_next_norm = _norm(u_next)
            if u_next_norm >= D:
                alpha = boundary_alpha(u_prev, w, D)
                u_exit = u_prev - alpha * w
                v_norm = _norm(v)
                emit(k, u_exit, _norm(u_exit), v_norm, "boundary",
                     du=alpha * params.eta * v_norm)
                return finish(u_exit, ExitReason.BOUNDARY, t)
            gen = stream.child(TAG_BATCH, t).generator()
            batch = obj.sample_minibatch(params.b, gen)
            v = oracle._grad(batch, u_next) - oracle._grad(batch, u_prev) + v
            _require_finite(v, "gradient estimate", t)
            event = "step"
            if t >= params.T_max:
                event = "max_iter"
            elif not perturbed:
                p = 1.0 / (params.m - k + 1)
                if stream.child(TAG_BREAK, t).generator().random() < p:
                    event = "uniform_break"
            emit(k, u_next, u_next_norm, _norm(v), event,
                 gap=gap_at(u_next, v), du=_norm(w))
            if event == "max_iter":
                return finish(u_next, ExitReason.MAX_ITER, t)
            if event == "uniform_break":
                return finish(u_next, ExitReason.UNIFORM_BREAK, t)
            u_prev, u_norm = u_next, u_next_norm
        gen = stream.child(TAG_ANCHOR, t // params.m).generator()
        v = oracle._grad(obj.sample_largebatch(params.B_size, gen), u_prev)
        _require_finite(v, "anchor gradient", t)
        emit(0, u_prev, u_norm, _norm(v), "anchor", gap=gap_at(u_prev, v))


def tssrg_run_coupled(oracle: PullbackOracle, u0_a: TangentVector,
                      u0_b: TangentVector, params: TssrgParams,
                      stream: StreamTree, *, record_u: bool = True,
                      record_gaps: bool = False) -> tuple[TssrgOutcome, TssrgOutcome]:
    """Run two sequences from u0_a and u0_b on one randomness tape.

    Both runs read the same position-keyed substreams, so minibatches and
    break draws agree at every inner index; only the starting vectors differ.
    Identical starting vectors therefore give bit-identical outcomes.
    """
    out_a = tssrg_run(oracle, u0_a, params, stream, record_u=record_u,
                      record_gaps=record_gaps)
    out_b = tssrg_run(oracle, u0_b, params, stream, record_u=record_u,
                      record_gaps=record_gaps)
    return out_a, out_b
