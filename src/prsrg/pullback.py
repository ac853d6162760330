"""Anchored pullback-objective oracle.

For an anchor x, the pullback of the objective is ``F_hat(u) = F(R_x(u))``
on the tangent space at x. Its gradient is the adjoint differentiated
retraction applied to the Riemannian gradient at the retracted point:

    grad F_hat(u) = T_u* grad F(R_x(u))

so batch pullback gradients are batch means of Riemannian component
gradients pushed through ``T_u*``. ``FiniteSumObjective`` gives the value,
gradients and Hessian action once for every objective, as Euclidean
derivatives that the manifold makes Riemannian. The public methods validate,
then compute on coordinates through private forms that the tangent-space
loop in ``tssrg`` calls directly: ``_grad`` (one retraction, whose scale the
adjoint takes) and, per inner step, ``_grad_pair``, which evaluates the row
stack [u_next, u_prev] with one retraction, gather, batch action and
adjoint and reads F_hat(u_next) from the same Abar product. The Lipschitz
probe evaluates its ball pairs in row-stacked blocks
(``_exact_grad_coords``). Every row of a stack keeps the bits of its
one-vector call. All retractions are second order, so at u = 0 the pullback
Hessian is the Riemannian Hessian (``full_riem_hvp``).

The oracle tracks stochastic-gradient query counts (the complexity
currency): ``queries`` for optimizer calls and ``diag_queries`` for Hessian
actions, which only diagnostics and certification use. One Hessian action
charges n in finite-sum mode, the cost of the exhaustive batch it stands
for. Population quantities are exact and free in streaming mode, so there
a Hessian action, like an exact gradient, charges nothing. The Lipschitz
probe is free.
A streaming batch is charged its sample count even when the objective
draws it as a sufficient statistic (see ``Batch``): queries count
samples, not the rows the code touches.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from ._kernels import _act
from .errors import EmptyBatch, ParameterError
from .geometry import (Manifold, ManifoldPoint, TangentVector, _freeze, _norm,
                       _row_norms)
from .rng import StreamTree

# Central FD step for the Lipschitz probe's Hessian-vector products.
HVP_FD_STEP = 1e-4

# Probe pairs evaluated as one row stack: 16 pairs are at most 96 rows, a
# working set of ~1.5 MB at d = 200 (all pairs at once costs ~16 MB of
# peak memory at the default 200 pairs).
PROBE_BLOCK = 16


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

    __slots__ = ("size", "idx", "data")

    def __init__(self, size: int, idx: np.ndarray | None = None,
                 data: np.ndarray | None = None):
        self.size, self.idx, self.data = size, idx, data


class FiniteSumObjective:
    """Finite-sum / streaming objective F(y) = scale * y^T Abar y.

    Subclasses provide ``n`` (component count, or None for streaming),
    ``manifold``, on streams only ``sigma_hint`` (the gradient-deviation
    bound that sizes an online run), ``Abar`` (the mean component matrix),
    the class constant ``scale``, ``_matvec_mean`` and the samplers. The
    Euclidean gradient 2 scale M y (M a batch's mean matrix) and Hessian
    action 2 scale Abar v are made Riemannian by the manifold, so the
    exhaustive batch gives the full (finite-sum) or population (streaming)
    gradient and Hessian.
    """

    n: int | None
    manifold: Manifold
    sigma_hint: float  # streams (n = None) only
    Abar: np.ndarray
    scale: float

    def value(self, x: ManifoldPoint) -> float:
        return self._value_coords(x.coords)

    def _value_coords(self, y: np.ndarray, Ay=None) -> float:
        """``value`` at coordinates y; ``Ay`` is Abar y if already formed."""
        return self.scale * float(y @ (self.Abar @ y if Ay is None else Ay))

    def full_riem_grad(self, x: ManifoldPoint) -> TangentVector:
        """Exact full (finite-sum) or population (streaming) gradient."""
        return TangentVector(x, self._full_grad_coords(x.coords))

    def _full_grad_coords(self, Y: np.ndarray) -> np.ndarray:
        """``full_riem_grad`` on coordinates: Y stacks points as rows, shape
        (..., ambient_dim), each row giving the bits of a one-point call.
        No checks."""
        return self.manifold._project_coords(
            Y, 2.0 * self.scale * _act(self.Abar, Y))

    def _matvec_mean(self, batch: Batch, Y: np.ndarray):
        """(M Y, Abar Y) for the batch's mean component matrix M: Y stacks
        points as rows, shape (..., ambient_dim), each row with the bits of
        a one-point call. Abar Y is None when the action does not form it."""
        raise NotImplementedError

    def _batch_grad_coords(self, batch: Batch, Y: np.ndarray):
        """``batch_riem_grad`` on coordinates, one batch at every row of Y,
        shape (..., ambient_dim), each row the bits of a one-point call;
        returns the gradients and ``_matvec_mean``'s Abar Y. No checks."""
        MY, AY = self._matvec_mean(batch, Y)
        return self.manifold._project_coords(Y, 2.0 * self.scale * MY), AY

    def batch_riem_grad(self, batch: Batch, x: ManifoldPoint) -> TangentVector:
        return TangentVector(x, self._batch_grad_coords(batch, x.coords)[0])

    def full_egrad(self, x: ManifoldPoint) -> np.ndarray:
        """Euclidean gradient 2 scale Abar y of the exhaustive batch at x."""
        return 2.0 * self.scale * (self.Abar @ x.coords)

    def full_riem_hvp(self, x: ManifoldPoint, v: TangentVector,
                      egrad: np.ndarray | None = None) -> TangentVector:
        """Exact full (finite-sum) or population (streaming) Riemannian
        Hessian at x along the tangent v. ``egrad``, when given, is
        ``full_egrad(x)``, formed once by a caller that applies the Hessian
        at x many times."""
        if egrad is None:
            egrad = self.full_egrad(x)
        return TangentVector(x, self.manifold._hess_coords(
            x.coords, egrad, 2.0 * self.scale * (self.Abar @ v.coords),
            v.coords))

    def sample_minibatch(self, b: int,
                         rng: np.random.Generator | StreamTree) -> Batch:
        """b components i.i.d. with replacement (b = n short-circuits to
        the exhaustive batch in finite-sum mode). ``rng``, like every
        sampler's, is a Generator or a StreamTree node whose generator is
        minted only if the draw needs one (``rng.as_generator``)."""
        raise NotImplementedError

    def sample_epoch(self, b: int, count: int,
                     rng: np.random.Generator) -> Iterator[Batch]:
        """The minibatches of an epoch's first ``count`` steps, in step
        order, from the epoch tape ``rng`` (a Generator, read on from its
        stopping index). Each equals ``sample_minibatch(b, rng)`` at its
        step, bit for bit, and nothing is drawn before the first batch is
        taken. This form draws one batch per step; index samplers override
        it with one draw."""
        for _ in range(count):
            yield self.sample_minibatch(b, rng)

    def sample_largebatch(self, B: int,
                          rng: np.random.Generator | StreamTree) -> Batch:
        """B components without replacement (finite-sum; B = n exhaustive)
        or B fresh draws (streaming)."""
        raise NotImplementedError


class LipschitzEstimate:
    """Empirical smoothness surrogates: L_hat = l_hat + rho_hat * D."""

    __slots__ = ("l_hat", "rho_hat", "L_hat")

    def __init__(self, l_hat: float, rho_hat: float, L_hat: float):
        self.l_hat, self.rho_hat, self.L_hat = l_hat, rho_hat, L_hat


class PullbackOracle:
    """Pullback values, batch gradients, and Hessian-vector products at one anchor.

    Each minibatch gradient retracts u once and pulls the Riemannian
    gradient at R_x(u) back through the manifold's closed-form adjoint.
    Immutable after construction except for the query tallies; batches are
    reduced in a fixed order so traces are bit-stable. An oracle is not safe
    to share between threads.
    """

    def __init__(self, objective: FiniteSumObjective, anchor: ManifoldPoint):
        self.objective = objective
        self.manifold = objective.manifold
        self.manifold._require_point(anchor)
        self.anchor = anchor
        self.queries = 0
        self.diag_queries = 0

    # -- helpers -------------------------------------------------------------

    def zero(self) -> TangentVector:
        return self.manifold.zero_tangent(self.anchor)

    # -- oracle operations -----------------------------------------------------

    def value(self, u: TangentVector) -> float:
        """F_hat(u) = F(R_x(u)). Not a gradient query."""
        self.manifold._require_base(self.anchor, u)
        self.manifold._require_in_ball(u)
        return self.objective.value(self.manifold.retract(self.anchor, u))

    def _grad(self, batch: Batch, u: np.ndarray) -> np.ndarray:
        """Batch-mean pullback gradient at the coordinates u, which the
        caller has checked: one retraction, one adjoint, no validation.
        Counts ``batch.size`` queries. It calls the public
        ``batch_riem_grad``, which ``bench/launch.py`` traces as a layer."""
        man = self.manifold
        y, s = man._retract_coords(self.anchor.coords, u)
        g = self.objective.batch_riem_grad(batch,
                                           ManifoldPoint(y, man.manifold_id))
        self.queries += batch.size
        return man._dretract_adjoint_coords(self.anchor, s, g.coords)

    def _grad_pair(self, batch: Batch, u_next: np.ndarray,
                   u_prev: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
        """``_grad`` at u_next and at u_prev over one batch, and F_hat(u_next)
        from the batch action's Abar y where it formed one, all from one
        retraction, action and adjoint on [u_next, u_prev], with the bits of
        ``_grad`` and ``value``. No checks; counts ``batch.size`` per point."""
        man, obj, x = self.manifold, self.objective, self.anchor
        Y, S = man._retract_coords(x.coords, np.array((u_next, u_prev)))
        G, AY = obj._batch_grad_coords(batch, Y)
        self.queries += 2 * batch.size
        G = man._dretract_adjoint_coords(x, S, G)
        F = obj._value_coords(Y[0], None if AY is None else AY[0])
        return G[0], G[1], F

    def grad_batch(self, batch: Batch, u: TangentVector) -> TangentVector:
        """Batch-mean pullback gradient; counts ``batch.size`` queries."""
        if batch.size < 1:
            raise EmptyBatch("gradient requested over an empty batch")
        self.manifold._require_base(self.anchor, u)
        self.manifold._require_in_ball(u)
        return TangentVector(self.anchor, _freeze(self._grad(batch, u.coords)))

    def grad_largebatch(self, B_size: int, u: TangentVector,
                        rng: np.random.Generator | StreamTree
                        ) -> TangentVector:
        """Pullback gradient over B_size components drawn without replacement
        (exact full gradient when B_size = n in finite-sum mode); ``rng`` is
        a Generator or a StreamTree node, as for the samplers."""
        batch = self.objective.sample_largebatch(B_size, rng)
        return self.grad_batch(batch, u)

    def exact_grad(self, u: TangentVector) -> TangentVector:
        """Exact full/population pullback gradient. Diagnostic oracle: does
        not touch the query counters."""
        self.manifold._require_base(self.anchor, u)
        self.manifold._require_in_ball(u)
        man, x = self.manifold, self.anchor
        g = self.objective.full_riem_grad(man.retract(x, u))
        return man.dretract_adjoint_apply(x, u, g)

    def hvp(self, v: TangentVector,
            egrad: np.ndarray | None = None) -> TangentVector:
        """Exact pullback Hessian at u = 0 along v: the closed-form full
        (finite-sum) or population (streaming) Riemannian Hessian. Charges
        n to ``diag_queries`` in finite-sum mode and nothing in streaming
        mode; never touches ``queries``. ``egrad``, when given, is the
        anchor's ``objective.full_egrad``, which a Lanczos run forms once
        instead of once per action (the charge is the same)."""
        self.manifold._require_base(self.anchor, v)
        self.diag_queries += self.objective.n or 0
        return self.objective.full_riem_hvp(self.anchor, v, egrad)

    def _exact_grad_coords(self, U: np.ndarray) -> np.ndarray:
        """``exact_grad`` on coordinates: U stacks tangent vectors at the
        anchor as rows, (..., ambient_dim); one retraction, one full
        gradient and one adjoint for the whole stack, each row with the bits
        of a one-vector ``exact_grad``. No checks, no counters."""
        man, x = self.manifold, self.anchor
        Y, S = man._retract_coords(x.coords, U)
        return man._dretract_adjoint_coords(
            x, S, self.objective._full_grad_coords(Y))

    def estimate_lipschitz(self, rng: np.random.Generator,
                           pairs: int = 200) -> LipschitzEstimate:
        """Empirical gradient/Hessian Lipschitz surrogates inside the ball.

        Samples random ball pairs (u, v) and sets l_hat, rho_hat to 1.2x the
        largest observed difference quotient of the exact pullback gradient
        and of its Hessian action along a random unit direction w, taken as
        a central difference of the exact gradient with step
        ``HVP_FD_STEP * max(1, ||w||)`` and projected onto the anchor
        tangent space. L_hat = l_hat + rho_hat * D.

        Pairs are drawn one at a time through ``Manifold.sample_ball`` (u,
        v, then w; a pair with ||u - v|| < 1e-12 draws no w and is skipped,
        one whose w is shorter than 1e-12 adds no Hessian quotient) and
        evaluated ``PROBE_BLOCK`` pairs at a time: the block's u, v and
        u +- s w, v +- s w go through ``_exact_grad_coords`` as one stack.
        Every row equals a one-vector evaluation bit for bit, so the
        estimate is the one a pair-at-a-time loop gives. A probe whose
        gradients or their difference norms pass the float64 range (a
        spectrum of scale near 1e154) warns nothing and returns a
        non-finite estimate, which ``probe_params`` rejects.
        """
        if pairs < 1:
            raise ParameterError("need at least one probe pair")
        man, x = self.manifold, self.anchor
        D = man.D
        # probes stay strictly inside so the FD Hessian offsets cannot poke
        # past the chart boundary
        Dp = D * 0.99 - HVP_FD_STEP * (1.0 + D)
        rw = min(1.0, D)
        l_max = 0.0
        r_max = 0.0
        for start in range(0, pairs, PROBE_BLOCK):
            us, vs, dus, has_w, steps, scales = [], [], [], [], [], []
            for _ in range(min(PROBE_BLOCK, pairs - start)):
                u = man.sample_ball(x, Dp, rng).coords
                v = man.sample_ball(x, Dp, rng).coords
                du = _norm(u - v)
                if du < 1e-12:
                    continue
                us.append(u)
                vs.append(v)
                dus.append(du)
                w = man.sample_ball(x, rw, rng)
                nw = w.norm
                if nw < 1e-12:
                    continue
                w = w.coords / nw
                nv = _norm(w)
                s = HVP_FD_STEP * max(1.0, nv)
                has_w.append(len(us) - 1)
                steps.append((s / nv) * w)
                scales.append(nv / (2.0 * s))
            if not us:
                continue
            U, V, du = np.array(us), np.array(vs), np.array(dus)
            Uw, Vw = U[has_w], V[has_w]
            S = np.reshape(steps, Uw.shape)
            c = np.array(scales)[:, None]
            # an overflow gives an inf or NaN quotient, and maximum keeps it
            with np.errstate(over="ignore", invalid="ignore"):
                G = self._exact_grad_coords(
                    np.concatenate([U, V, Uw + S, Uw - S, Vw + S, Vw - S]))
                gu, gv, gup, gum, gvp, gvm = np.split(
                    G, np.cumsum([len(us)] * 2 + [len(has_w)] * 3))
                l_max = float(np.maximum.reduce(
                    _row_norms(gu - gv)[:, 0] / du, initial=l_max))
                hu = man.project_ambient(x, (gup - gum) * c)
                hv = man.project_ambient(x, (gvp - gvm) * c)
                r_max = float(np.maximum.reduce(
                    _row_norms(hu - hv)[:, 0] / du[has_w], initial=r_max))
        l_hat = 1.2 * l_max
        rho_hat = 1.2 * r_max
        return LipschitzEstimate(l_hat, rho_hat, l_hat + rho_hat * D)
