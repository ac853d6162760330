"""Manifold geometry: points, tangent vectors, second-order retractions,
the adjoints of their differentials, and tangent-ball sampling.

Two embedded manifolds are provided, named by their ``manifold_id``:

* ``sphere:<n>``    — unit sphere in R^n (intrinsic dimension n-1),
  metric-projection retraction ``(x+u)/||x+u||``;
* ``euclidean:<n>`` — flat space, retraction is vector addition.

All retractions are second order (zero initial acceleration), so pullback
gradients and Hessians agree with their Riemannian counterparts at u = 0.
Objectives give Euclidean derivatives; ``_project_coords`` and
``_hess_coords`` (Absil, Mahony & Trumpf 2013) make them Riemannian.

Both retractions are R_x(u) = w/s, w = x + u, with one retraction scale s =
``_retract_scale(w)``: ``||w||`` on the sphere, 1 on Euclidean space. A
manifold states only P = ``_project_coords``, ``_hess_coords``, its normal
frame N_x, s and ``rand_point``; ``Manifold`` derives the checks
|s(c) - 1| and ||N_x^T c|| and the adjoint T_u*[w] = P_x(w)/s of the
retraction's differential, the one form of it that the tangent-space
solver needs. ``_retract_coords`` returns s for ``_dretract_adjoint_coords``,
so no caller forms x + u twice; these array-level forms check nothing and,
like ``project_ambient``, take rows stacked as (..., ambient_dim), each
with the bits of a one-vector call (``np.vecdot`` is the dot of ``a @ b``).
The public ``dretract_adjoint_apply`` validates, then calls them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ContractViolation, OutOfBall, ParameterError
from .rng import StreamTree, as_generator

# On-manifold / tangency tolerance for validation.
TOL = 1e-10


class ManifoldPoint:
    """A point on a manifold in ambient embedding coordinates (a read-only
    array; the package never rebinds a point's fields)."""

    __slots__ = ("coords", "manifold_id")

    def __init__(self, coords: np.ndarray, manifold_id: str):
        self.coords, self.manifold_id = coords, manifold_id


class TangentVector:
    """An ambient-coordinate tangent vector attached to its base point."""

    __slots__ = ("base", "coords")

    def __init__(self, base: ManifoldPoint, coords: np.ndarray):
        self.base, self.coords = base, coords

    @property
    def norm(self) -> float:
        return _norm(self.coords)


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a 1-D float64 array: sqrt of the dot product, which
    is what np.linalg.norm computes, so the bits agree at less overhead.
    ``np.vdot`` is the same dot as ``a @ a`` but sets no floating-point
    flags, so a square that overflows reads inf without a RuntimeWarning."""
    return math.sqrt(np.vdot(a, a))


def _row_dots(a: np.ndarray, b: np.ndarray):
    """Dot products of the rows of a with b (rows of the same shape, or one
    vector), shape (..., 1) so that they broadcast against the rows.
    ``np.vecdot`` reduces each row with the same dot as ``a @ b``, so row k
    equals ``a[k] @ b[k]`` bit for bit. A 1-D a takes the scalar ``a @ b``:
    one-vector calls, several per inner-loop step, then pay no gufunc and
    broadcasting overhead."""
    if a.ndim == 1:
        return a @ b
    return np.vecdot(a, b, keepdims=True)


def _row_norms(a: np.ndarray):
    """Euclidean norms of the rows of a, shape (..., 1), each the bits of
    ``_norm`` of its row; a 1-D a gives ``_norm(a)``, as ``_row_dots``."""
    if a.ndim == 1:
        return _norm(a)
    return np.sqrt(np.vecdot(a, a, keepdims=True))


def _freeze(a) -> np.ndarray:
    out = np.array(a, dtype=np.float64, copy=True).reshape(-1)
    out.setflags(write=False)
    return out


class Manifold:
    """Base class: shared validation, tangent bases, and sampling.

    Subclasses set ``dim`` (intrinsic), ``ambient_dim``, and override the
    projection, Hessian, normal frame, retraction scale and ``rand_point``;
    the checks, retraction and adjoint differential derive from those. All
    operations are pure functions of their inputs; random sources are
    caller-owned.
    """

    manifold_id: str
    dim: int
    ambient_dim: int
    ball_radius_D: float
    c0: float

    def __init__(self, ball_radius_D: float, c0: float):
        if ball_radius_D <= 0:
            raise ParameterError("ball_radius_D must be positive")
        if c0 < 0:
            raise ParameterError("c0 must be nonnegative")
        if c0 > 0 and ball_radius_D > 1.0 / (2.0 * c0) + TOL:
            raise ParameterError(
                f"ball_radius_D={ball_radius_D} exceeds 1/(2*c0)={1.0 / (2.0 * c0)}")
        self.ball_radius_D = float(ball_radius_D)
        self.c0 = float(c0)
        self._ball_basis: tuple[ManifoldPoint, np.ndarray] | None = None

    @property
    def D(self) -> float:
        return self.ball_radius_D

    # -- primitives, overridden per manifold --------------------------------

    def project_ambient(self, x: ManifoldPoint, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto T_x M of each row of a, shape
        (..., ambient_dim)."""
        return self._project_coords(x.coords, np.array(a, dtype=np.float64))

    def _project_coords(self, y: np.ndarray, a: np.ndarray) -> np.ndarray:
        """``project_ambient`` at y, one point or one per row of a; makes a
        Euclidean gradient Riemannian. No checks."""
        raise NotImplementedError

    def _hess_coords(self, y, egrad, ehess_v, v) -> np.ndarray:
        """Riemannian Hessian at y along v from the Euclidean gradient at y
        and Euclidean Hessian action along v. No checks."""
        raise NotImplementedError

    def _retract_scale(self, w: np.ndarray):
        """The s of R_x(u) = w/s for w = x + u, one per row of w (shape
        (..., 1)) or a float for one vector; s(c) = 1 on the manifold."""
        raise NotImplementedError

    def _normal_frame(self, x: ManifoldPoint) -> np.ndarray:
        """Orthonormal basis of the normal space, shape (ambient, codim)."""
        raise NotImplementedError

    # -- derived primitives ----------------------------------------------------

    def constraint_violation(self, coords: np.ndarray) -> float:
        return abs(self._retract_scale(coords) - 1.0)

    def tangency_violation(self, x: ManifoldPoint, coords: np.ndarray) -> float:
        return _norm(np.vecdot(self._normal_frame(x).T, coords))

    def _retract_coords(self, x: np.ndarray, u: np.ndarray):
        """(R_x(u), s) on coordinates; u may stack tangent vectors as rows,
        shape (..., ambient_dim), each retracted as if alone. No checks."""
        w = x + u
        s = self._retract_scale(w)
        return w / s, s

    def _dretract_adjoint_coords(self, x: ManifoldPoint, s,
                                 w: np.ndarray) -> np.ndarray:
        """T_u*[w] = P_x(w)/s from the scale s of R_x(u); s and w may stack
        rows, shape (..., 1) and (..., ambient_dim). No checks."""
        return self._project_coords(x.coords, w) / s

    # -- construction and validation ---------------------------------------

    def point(self, coords) -> ManifoldPoint:
        c = _freeze(coords)
        if c.shape[0] != self.ambient_dim:
            raise ContractViolation(
                f"expected ambient dimension {self.ambient_dim}, got {c.shape[0]}")
        if not np.isfinite(c).all():
            raise ContractViolation(
                f"{self.manifold_id} point has non-finite coordinates")
        err = self.constraint_violation(c)
        if not err <= TOL:
            raise ContractViolation(
                f"point violates {self.manifold_id} constraint by {err:.3e}")
        return ManifoldPoint(c, self.manifold_id)

    def tangent(self, x: ManifoldPoint, coords) -> TangentVector:
        self._require_point(x)
        c = _freeze(coords)
        if c.shape[0] != self.ambient_dim:
            raise ContractViolation(
                f"expected ambient dimension {self.ambient_dim}, got {c.shape[0]}")
        err = self.tangency_violation(x, c)
        scale = max(1.0, float(np.linalg.norm(c)))
        if not err <= TOL * scale:
            raise ContractViolation(
                f"vector violates tangency at {self.manifold_id} by {err:.3e}")
        return TangentVector(x, c)

    def zero_tangent(self, x: ManifoldPoint) -> TangentVector:
        return TangentVector(x, _freeze(np.zeros(self.ambient_dim)))

    def _require_point(self, x: ManifoldPoint) -> None:
        if x.manifold_id != self.manifold_id:
            raise ContractViolation(
                f"point belongs to {x.manifold_id}, not {self.manifold_id}")

    def _require_base(self, x: ManifoldPoint, u: TangentVector) -> None:
        self._require_point(x)
        if u.base is x:
            return
        if u.base.manifold_id != x.manifold_id or not np.array_equal(
                u.base.coords, x.coords):
            raise ContractViolation("tangent vector is not based at the given point")

    def _require_in_ball(self, u: TangentVector) -> None:
        n = u.norm
        if n > self.ball_radius_D * (1.0 + 1e-12):
            raise OutOfBall(
                f"||u|| = {n:.6e} exceeds ball radius D = {self.ball_radius_D}")

    # -- core operations -----------------------------------------------------

    def retract(self, x: ManifoldPoint, u: TangentVector) -> ManifoldPoint:
        """R_x(u): map a tangent vector onto the manifold."""
        self._require_base(x, u)
        return ManifoldPoint(
            _freeze(self._retract_coords(x.coords, u.coords)[0]),
            self.manifold_id)

    def tangent_basis(self, x: ManifoldPoint) -> np.ndarray:
        """Deterministic orthonormal basis of T_x M, shape (ambient, dim).

        QR completion of the constraint normal space: the complement columns
        of the complete Q factor of the normal frame.
        """
        self._require_point(x)
        N = self._normal_frame(x)
        if N.shape[1] == 0:
            return np.eye(self.ambient_dim)
        Qfull, _ = np.linalg.qr(N, mode="complete")
        return Qfull[:, N.shape[1]:]

    def dretract_adjoint_apply(self, x: ManifoldPoint, u: TangentVector,
                               w: TangentVector) -> TangentVector:
        """T_u*[w]: adjoint of T_u, pulling w in T_{R_x(u)} M back to T_x M.

        Satisfies <T_u v, w> = <v, T_u* w> for all tangent v at x; u is
        based at x inside the ball, w at R_x(u).
        """
        self._require_base(x, u)
        self._require_in_ball(u)
        y, s = self._retract_coords(x.coords, u.coords)
        self._require_base(ManifoldPoint(y, self.manifold_id), w)
        return TangentVector(x, _freeze(self._dretract_adjoint_coords(
            x, s, w.coords)))

    def sample_ball(self, x: ManifoldPoint, r: float,
                    rng: np.random.Generator | StreamTree) -> TangentVector:
        """Uniform draw from {u in T_x M : ||u|| <= r}.

        Gaussian direction in the orthonormal tangent basis, scaled by
        r * U^(1/dim). ``rng`` is a Generator or a StreamTree node; r = 0
        consumes no randomness, mints no generator and returns the zero
        vector.
        """
        self._require_point(x)
        if not (r >= 0 and math.isfinite(r)):
            raise ParameterError(
                f"ball radius must be finite and nonnegative, got {r}")
        if r == 0.0:
            return self.zero_tangent(x)
        # draws at the point of the previous draw (the Lipschitz probe makes
        # hundreds at one anchor) reuse its basis; x is never rebound, its
        # coordinates are read-only and the memo holds x, so identity
        # cannot be confused
        memo = self._ball_basis
        if memo is None or memo[0] is not x:
            memo = self._ball_basis = (x, self.tangent_basis(x))
        rng = as_generator(rng)
        g = rng.standard_normal(self.dim)
        g /= _norm(g)
        radius = r * rng.random() ** (1.0 / self.dim)
        return TangentVector(x, _freeze(memo[1] @ (radius * g)))

    def rand_point(self, rng: np.random.Generator) -> ManifoldPoint:
        raise NotImplementedError


class Sphere(Manifold):
    """Unit sphere S^{n-1} embedded in R^n."""

    def __init__(self, n: int, ball_radius_D: float = 0.5, c0: float = 1.0):
        if n < 2:
            raise ParameterError("sphere needs ambient dimension >= 2")
        self.manifold_id = f"sphere:{n}"
        self.ambient_dim = int(n)
        self.dim = int(n) - 1
        super().__init__(ball_radius_D, c0)

    def _project_coords(self, y, a):
        return a - _row_dots(a, y) * y

    def _hess_coords(self, y, egrad, ehess_v, v):
        return self._project_coords(y, ehess_v) - _row_dots(y, egrad) * v

    def _retract_scale(self, w):
        return _row_norms(w)

    def _normal_frame(self, x):
        return x.coords.reshape(-1, 1)

    # bench/launch.py wraps this name through Sphere.__dict__
    dretract_adjoint_apply = Manifold.dretract_adjoint_apply

    def rand_point(self, rng):
        g = rng.standard_normal(self.ambient_dim)
        return ManifoldPoint(_freeze(g / _norm(g)), self.manifold_id)


class Euclidean(Manifold):
    """Flat R^n; retraction is addition and T_u is the identity."""

    def __init__(self, n: int, ball_radius_D: float = 1e9, c0: float = 0.0):
        if n < 1:
            raise ParameterError("euclidean needs dimension >= 1")
        self.manifold_id = f"euclidean:{n}"
        self.ambient_dim = int(n)
        self.dim = int(n)
        super().__init__(ball_radius_D, c0)

    def _project_coords(self, y, a):
        return a

    def _hess_coords(self, y, egrad, ehess_v, v):
        return ehess_v

    def _retract_scale(self, w):
        return 1.0

    def _normal_frame(self, x):
        return np.empty((self.ambient_dim, 0))

    def rand_point(self, rng):
        return ManifoldPoint(_freeze(rng.standard_normal(self.ambient_dim)),
                             self.manifold_id)
