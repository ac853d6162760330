"""Anchored pullback-objective oracle.

For an anchor x, the pullback of the objective is ``F_hat(u) = F(R_x(u))``
on the tangent space at x. Its gradient is the adjoint differentiated
retraction applied to the Riemannian gradient at the retracted point:

    grad F_hat(u) = T_u* grad F(R_x(u))

so batch pullback gradients are batch means of Riemannian component
gradients pushed through ``T_u*``. The public methods validate their
tangent vectors, then compute on coordinates: ``grad_batch`` calls the
private ``_grad(batch, u)``, which retracts once and pulls back through the
manifold's array-level adjoint. Callers that validated once at their own
boundary (the tangent-space loop in ``tssrg``) call ``_grad`` directly on
plain arrays. Every retraction here is second order, so
at u = 0 the pullback Hessian equals the Riemannian Hessian, which each
objective gives in closed form (``batch_riem_hvp``).

The oracle tracks stochastic-gradient query counts (the complexity
currency): ``queries`` for optimizer calls and ``diag_queries`` for Hessian
actions, which only diagnostics and certification use. One Hessian action
charges its batch size: n in finite-sum mode, ``HVP_BATCH_SIZE`` on the
fixed streaming batch. Exact gradients and the Lipschitz probe are free.
A streaming batch is charged its sample count even when the objective
draws it as a sufficient statistic (see ``Batch``): queries count
samples, not the rows the code touches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyBatch, ParameterError
from .geometry import Manifold, ManifoldPoint, TangentVector, _freeze
from .rng import TAG_DIAG, master_stream

# Central FD step for the Lipschitz probe's Hessian-vector products.
HVP_FD_STEP = 1e-4

# Size of the fixed streaming batch behind ``PullbackOracle.hvp``.
HVP_BATCH_SIZE = 2048


@dataclass(frozen=True)
class Batch:
    """A sampled component batch.

    ``size`` is the number of components the batch stands for, which is
    what a gradient over it charges. ``idx`` holds component indices for
    finite-sum objectives (``None`` means the exhaustive batch, whose mean
    is evaluated in closed form and is deterministic). In streaming mode
    ``data`` holds rows whose mean outer product is the batch's second
    moment: the drawn samples themselves, or, for a batch larger than the
    dimension d, d pseudo-rows with the same second moment.
    """

    size: int
    idx: np.ndarray | None = None
    data: np.ndarray | None = None


class FiniteSumObjective:
    """Interface for finite-sum / streaming objectives on a manifold.

    Subclasses provide ``n`` (component count, or None for streaming),
    ``manifold``, ``sigma_hint`` (uniform gradient-deviation bound, or None),
    and the evaluation methods below. The component-gradient mean over the
    exhaustive batch must equal the Riemannian gradient of ``value``.
    """

    n: int | None
    manifold: Manifold
    sigma_hint: float | None

    def value(self, x: ManifoldPoint) -> float:
        raise NotImplementedError

    def full_riem_grad(self, x: ManifoldPoint) -> TangentVector:
        """Exact full (finite-sum) or population (streaming) gradient."""
        raise NotImplementedError

    def batch_riem_grad(self, batch: Batch, x: ManifoldPoint) -> TangentVector:
        raise NotImplementedError

    def batch_riem_hvp(self, batch: Batch, x: ManifoldPoint,
                       v: TangentVector) -> TangentVector:
        """Batch-mean Riemannian Hessian at x along the tangent v."""
        raise NotImplementedError

    def component_riem_grad(self, i: int, x: ManifoldPoint) -> TangentVector:
        raise NotImplementedError

    def sample_minibatch(self, b: int, rng: np.random.Generator) -> Batch:
        """b components i.i.d. with replacement (b = n short-circuits to
        the exhaustive batch in finite-sum mode)."""
        raise NotImplementedError

    def sample_largebatch(self, B: int, rng: np.random.Generator) -> Batch:
        """B components without replacement (finite-sum; B = n exhaustive)
        or B fresh draws (streaming)."""
        raise NotImplementedError


@dataclass(frozen=True)
class LipschitzEstimate:
    """Empirical smoothness surrogates: L_hat = l_hat + rho_hat * D."""

    l_hat: float
    rho_hat: float
    L_hat: float


class PullbackOracle:
    """Pullback values, batch gradients, and Hessian-vector products at one anchor.

    Each minibatch gradient retracts u once and pulls the Riemannian
    gradient at R_x(u) back through the manifold's closed-form adjoint.
    Immutable after construction except for the query tallies and the lazily
    drawn streaming HVP batch; batches are reduced in a fixed order so traces
    are bit-stable. An oracle is not safe to share between threads.
    """

    def __init__(self, objective: FiniteSumObjective, anchor: ManifoldPoint):
        self.objective = objective
        self.manifold = objective.manifold
        self.manifold._require_point(anchor)
        self.anchor = anchor
        self.queries = 0
        self.diag_queries = 0
        self._hvp_batch: Batch | None = None

    # -- helpers -------------------------------------------------------------

    def tangent(self, coords) -> TangentVector:
        return self.manifold.tangent(self.anchor, coords)

    def zero(self) -> TangentVector:
        return self.manifold.zero_tangent(self.anchor)

    def retract(self, u: TangentVector) -> ManifoldPoint:
        return self.manifold.retract(self.anchor, u)

    # -- oracle operations -----------------------------------------------------

    def value(self, u: TangentVector) -> float:
        """F_hat(u) = F(R_x(u)). Not a gradient query."""
        self.manifold._require_base(self.anchor, u)
        self.manifold._require_in_ball(u)
        return self.objective.value(self.retract(u))

    def _grad(self, batch: Batch, u: np.ndarray) -> np.ndarray:
        """Batch-mean pullback gradient at the coordinates u, which the
        caller has checked: one retraction, one adjoint, no validation.
        Counts ``batch.size`` queries."""
        man = self.manifold
        y = ManifoldPoint(man._retract_coords(self.anchor.coords, u),
                          man.manifold_id)
        g = self.objective.batch_riem_grad(batch, y)
        self.queries += batch.size
        return man._dretract_adjoint_coords(self.anchor, u, g.coords)

    def grad_batch(self, batch: Batch, u: TangentVector) -> TangentVector:
        """Batch-mean pullback gradient; counts ``batch.size`` queries."""
        if batch.size < 1:
            raise EmptyBatch("gradient requested over an empty batch")
        self.manifold._require_base(self.anchor, u)
        self.manifold._require_in_ball(u)
        return TangentVector(self.anchor, _freeze(self._grad(batch, u.coords)))

    def grad_minibatch(self, I, u: TangentVector) -> TangentVector:
        """Pullback gradient over an explicit index multiset (or Batch)."""
        if isinstance(I, Batch):
            return self.grad_batch(I, u)
        idx = np.asarray(I, dtype=np.int64).reshape(-1)
        if idx.size == 0:
            raise EmptyBatch("gradient requested over an empty batch")
        return self.grad_batch(Batch(size=int(idx.size), idx=idx), u)

    def grad_largebatch(self, B_size: int, u: TangentVector,
                        rng: np.random.Generator) -> TangentVector:
        """Pullback gradient over B_size components drawn without replacement
        (exact full gradient when B_size = n in finite-sum mode)."""
        batch = self.objective.sample_largebatch(B_size, rng)
        return self.grad_batch(batch, u)

    def exact_grad(self, u: TangentVector) -> TangentVector:
        """Exact full/population pullback gradient. Diagnostic oracle: does
        not touch the query counters."""
        self.manifold._require_base(self.anchor, u)
        self.manifold._require_in_ball(u)
        g = self.objective.full_riem_grad(self.retract(u))
        return self.manifold.dretract_adjoint_apply(self.anchor, u, g)

    def _full_batch(self) -> Batch:
        if self.objective.n is not None:
            return Batch(size=int(self.objective.n), idx=None)
        if self._hvp_batch is None:
            rng = master_stream(0xC0FFEE).child(TAG_DIAG).generator()
            self._hvp_batch = self.objective.sample_largebatch(
                HVP_BATCH_SIZE, rng)
        return self._hvp_batch

    def _fd_hvp(self, u: TangentVector, v: TangentVector) -> TangentVector:
        """Central difference of ``exact_grad`` at u along v, step
        ``1e-4 * max(1, ||v||)``, projected onto the anchor tangent space."""
        nv = v.norm
        if nv == 0.0:
            return self.zero()
        s = HVP_FD_STEP * max(1.0, nv)
        step = (s / nv) * v.coords
        gp = self.exact_grad(TangentVector(self.anchor, u.coords + step))
        gm = self.exact_grad(TangentVector(self.anchor, u.coords - step))
        out = (gp.coords - gm.coords) * (nv / (2.0 * s))
        return TangentVector(self.anchor,
                             self.manifold.project_ambient(self.anchor, out))

    def hvp(self, v: TangentVector) -> TangentVector:
        """Exact pullback Hessian at u = 0 along v: the closed-form
        Riemannian Hessian of the full batch (the fixed streaming batch
        online). Charges the batch size to ``diag_queries``, never to
        ``queries``."""
        self.manifold._require_base(self.anchor, v)
        batch = self._full_batch()
        self.diag_queries += batch.size
        return self.objective.batch_riem_hvp(batch, self.anchor, v)

    def estimate_lipschitz(self, rng: np.random.Generator,
                           pairs: int = 200) -> LipschitzEstimate:
        """Empirical gradient/Hessian Lipschitz surrogates inside the ball.

        Samples random ball pairs (u, v) and sets l_hat, rho_hat to 1.2x the
        largest observed difference quotient of the exact pullback gradient
        and of its FD Hessian action. L_hat = l_hat + rho_hat * D.
        """
        if pairs < 1:
            raise ParameterError("need at least one probe pair")
        man, x = self.manifold, self.anchor
        D = man.ball_radius_D
        # probes stay strictly inside so the FD Hessian offsets cannot poke
        # past the chart boundary
        Dp = D * 0.99 - HVP_FD_STEP * (1.0 + D)
        l_max = 0.0
        r_max = 0.0
        for _ in range(pairs):
            u = man.sample_ball(x, Dp, rng)
            v = man.sample_ball(x, Dp, rng)
            du = float(np.linalg.norm(u.coords - v.coords))
            if du < 1e-12:
                continue
            gu = self.exact_grad(u)
            gv = self.exact_grad(v)
            l_max = max(l_max, float(np.linalg.norm(gu.coords - gv.coords)) / du)
            w = man.sample_ball(x, 1.0, rng) if D >= 1.0 else man.sample_ball(x, D, rng)
            nw = w.norm
            if nw < 1e-12:
                continue
            w = TangentVector(x, w.coords / nw)
            hu = self._fd_hvp(u, w)
            hv = self._fd_hvp(v, w)
            r_max = max(r_max, float(np.linalg.norm(hu.coords - hv.coords)) / du)
        l_hat = 1.2 * l_max
        rho_hat = 1.2 * r_max
        return LipschitzEstimate(l_hat, rho_hat, l_hat + rho_hat * D)

