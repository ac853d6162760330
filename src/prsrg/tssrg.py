"""Recursive-gradient descent run inside one tangent-space ball.

The loop descends a pullback objective F_hat = f(R_x(u)) over the ball
B(0, D) in T_x M using a recursively corrected stochastic gradient: every
``m`` steps an anchor gradient is taken on a batch of size ``B`` and in
between the estimator is updated as

    v_t = grad F_hat_I(u_t) - grad F_hat_I(u_{t-1}) + v_{t-1}

with I a minibatch of size ``b`` drawn i.i.d. with replacement. Three exits:

* Boundary: the step u_{t-1} - eta * v_{t-1} would leave the ball; the run
  stops exactly on the sphere ||u|| = D at the unique alpha in (0, 1].
* UniformBreak: an unperturbed run stops after step K of its first epoch,
  K uniform on {1, ..., m} (the output iterate of SVRG and SARAH; the same
  law as breaking after step k with probability 1 / (m - k + 1)).
* MaxIter: t reached T_max (this guard wins when K = t = T_max).

Epoch e reads one generator, the tape ``stream.child(TAG_BATCH, e)``: first
K, drawn by every run, then the minibatches in step order. The objective's
``sample_epoch`` gives them for all the steps the epoch can reach (K for an
unperturbed run, m for a perturbed one, at most T_max - t): a finite sum in
one index draw, a streaming objective one draw per step, with the bits of
one draw per step either way. So two runs on one stream (the coupled
sequences of the escape analysis) see identical minibatches at every t
both reach; equal starts give bit-identical outcomes. An anchor's large
batch reads ``stream.child(TAG_ANCHOR, e)``, minted only if not exhaustive.

``tssrg_run`` validates its inputs once, at entry: u0 and ``anchor_grad``
must be based at the oracle's anchor, u0 must lie in the run ball, and the
run ball must fit in the manifold's chart. After that the loop keeps u, v
and the step w as plain float64 arrays. A step makes one oracle call,
``PullbackOracle._grad_pair``, for both minibatch gradients and its row's F;
an anchor gradient is one ``_grad`` and its row reuses the last step's F,
taken at the same u. Norms are ``_norm``, the square root of the dot
product, which equals ``np.linalg.norm`` bit for bit on 1-D float64.
Tangent vectors are built only where a public, validating oracle call needs
one (F at u0 and at a boundary exit) and for the returned outcome.
"""

from __future__ import annotations

import copy
import enum
import math
from dataclasses import dataclass, fields
from typing import Optional
import warnings

import numpy as np

from .errors import ContractViolation, NumericalFailure, OutOfBall, ParameterError
from .geometry import ManifoldPoint, TangentVector, _norm
from .pullback import PullbackOracle
from .rng import TAG_ANCHOR, TAG_BATCH, StreamTree
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
    B: int
    D: float
    T_max: int

    def __post_init__(self):
        self._check()
        if self.b < self.m:
            # level 3 skips the generated __init__ to the constructor's caller
            warnings.warn(
                f"minibatch size b={self.b} below epoch length m={self.m}; "
                "the variance bound expects b >= m", stacklevel=3)

    def _check(self):
        """Raise ParameterError on the first bad field, in field order."""
        for f in fields(self):
            self._check_field(f.name, getattr(self, f.name))

    @staticmethod
    def _check_field(name: str, v) -> None:
        """Raise ParameterError if v is out of range for field ``name``."""
        if name in ("eta", "D") and not (v > 0 and math.isfinite(v)):
            raise ParameterError(f"{name} must be positive, got {v}")
        if name in ("m", "b", "B", "T_max") and not (
                isinstance(v, (int, np.integer)) and 1 <= v < 2 ** 63):
            raise ParameterError(
                f"{name} must be an integer in [1, 2**63), got {v!r}")

    def _capped(self, T_max: int) -> "TssrgParams":
        """This with the cap T_max, an int the caller keeps in [1, 2**63);
        unchecked, so the b < m warning is not repeated."""
        out = copy.copy(self)
        object.__setattr__(out, "T_max", T_max)
        return out


class TssrgOutcome:
    __slots__ = ("result", "u_final", "exit", "iterations", "segment")

    def __init__(self, result: ManifoldPoint, u_final: TangentVector,
                 exit: ExitReason, iterations: int, segment: TraceSegment):
        self.result = result
        self.u_final = u_final
        self.exit = exit
        self.iterations = iterations
        self.segment = segment


def boundary_alpha(u_prev: np.ndarray, w: np.ndarray, D: float) -> float:
    """Smallest alpha in (0, 1] with ||u_prev - alpha*w|| = D.

    Requires ||u_prev|| < D and ||u_prev - w|| >= D. The quadratic
    a*alpha^2 - 2*uw*alpha + c = 0 (a = ||w||^2, c = ||u_prev||^2 - D^2 < 0)
    then has exactly one positive root; the branch is chosen so the two
    summed terms never cancel. When ||w||^2 overflows, the crossing is
    found along w / max|w|, the same ray, and alpha scaled back.
    """
    # np.vdot: the dot of w @ w, but an overflow reads inf without a warning
    a = float(np.vdot(w, w))
    scale = 1.0
    if not math.isfinite(a):
        scale = float(np.max(np.abs(w)))
        w = w / scale
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
    return min(max(alpha / scale, 0.0), 1.0)


def _finite_norm(arr: np.ndarray, what: str, t: int) -> float:
    """``_norm(arr)``; raises NumericalFailure if an entry is not finite. A
    finite norm proves every entry finite, so the entries are checked only
    when the norm is inf or nan."""
    norm = _norm(arr)
    if not math.isfinite(norm) and not np.isfinite(arr).all():
        raise NumericalFailure(f"non-finite {what} at inner step {t}",
                               iteration=t)
    return norm


def tssrg_run(oracle: PullbackOracle, u0: TangentVector, params: TssrgParams,
              stream: StreamTree, *, outer_t: int = 0,
              anchor_grad: Optional[TangentVector] = None,
              record: bool = False, query_offset: int = 0) -> TssrgOutcome:
    """Run one tangent-space descent from u0; perturbed iff ||u0|| > 0.

    ``anchor_grad``, when given, is used as the first anchor gradient v_0
    without drawing or charging a batch (the caller already paid for it at
    the outer gradient check). Trace rows carry ``query_offset`` plus the
    oracle's own counter so cumulative counts survive anchor changes.
    ``record`` keeps each row's u and v in the segment's ``u_vecs`` and
    ``v_vecs``; the replay checks read them.
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
    if record:
        seg.u_vecs, seg.v_vecs = [], []

    def emit(inner_k, u, v, F, u_norm, v_norm, event):
        seg.rows.append(TraceRow(
            outer_t=outer_t, inner_k=inner_k, epoch_type="", F_value=F,
            grad_norm_or_batch=v_norm, u_norm=u_norm,
            queries_cum=query_offset + oracle.queries, event=event))
        if record:
            seg.u_vecs.append(u.copy())
            seg.v_vecs.append(v.copy())

    def finish(u, exit_reason, t):
        u_final = TangentVector(x, u)
        return TssrgOutcome(result=man.retract(x, u_final), u_final=u_final,
                            exit=exit_reason, iterations=t, segment=seg)

    if anchor_grad is not None:
        v = anchor_grad.coords
    else:
        v = oracle._grad(obj.sample_largebatch(
            params.B, stream.child(TAG_ANCHOR, 0)), u_prev)
    v_norm = _finite_norm(v, "anchor gradient", 0)
    F = oracle.value(u0)
    emit(0, u_prev, v, F, u_norm, v_norm, "anchor")

    t = 0
    while True:
        tape = stream.child(TAG_BATCH, t // params.m).generator()
        stop_k = tape.integers(1, params.m + 1)
        # the steps this epoch can reach; drawn on the first step's take
        reach = params.m if perturbed else stop_k
        batches = obj.sample_epoch(params.b, min(reach, params.T_max - t),
                                   tape)
        for k in range(1, params.m + 1):
            t += 1
            w = params.eta * v
            u_next = u_prev - w
            # a step whose square overflows has norm inf: outside the ball
            u_next_norm = _finite_norm(u_next, "iterate", t)
            if u_next_norm >= D:
                alpha = boundary_alpha(u_prev, w, D)
                u_exit = u_prev - alpha * w
                emit(k, u_exit, v, oracle.value(TangentVector(x, u_exit)),
                     _norm(u_exit), v_norm, "boundary")
                return finish(u_exit, ExitReason.BOUNDARY, t)
            g_next, g_prev, F = oracle._grad_pair(next(batches), u_next,
                                                  u_prev)
            v = g_next - g_prev + v
            v_norm = _finite_norm(v, "gradient estimate", t)
            event = "step"
            if t >= params.T_max:
                event = "max_iter"
            elif not perturbed and k == stop_k:
                event = "uniform_break"
            emit(k, u_next, v, F, u_next_norm, v_norm, event)
            if event != "step":
                return finish(u_next, ExitReason(event), t)
            u_prev, u_norm = u_next, u_next_norm
        v = oracle._grad(obj.sample_largebatch(
            params.B, stream.child(TAG_ANCHOR, t // params.m)), u_prev)
        v_norm = _finite_norm(v, "anchor gradient", t)
        # the last step's F: that step ended at u_prev
        emit(0, u_prev, v, F, u_norm, v_norm, "anchor")

