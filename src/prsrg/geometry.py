"""Manifold geometry: points, tangent vectors, second-order retractions,
differentiated retractions and their adjoints, and tangent-ball sampling.

Two embedded manifolds are provided, named by their ``manifold_id``:

* ``sphere:<n>``    — unit sphere in R^n (intrinsic dimension n-1),
  metric-projection retraction ``(x+u)/||x+u||``;
* ``euclidean:<n>`` — flat space, retraction is vector addition.

All retractions are second order (zero initial acceleration), so pullback
gradients and Hessians agree with their Riemannian counterparts at u = 0.

The differentiated retraction ``T_u = DR_x(u)`` maps T_x M to T_{R_x(u)} M;
its adjoint ``T_u*`` pulls gradients back to the anchor tangent space. Every
manifold applies both in closed form, once, in array-level private methods
(``_dretract_coords``, ``_dretract_adjoint_coords``) that take plain float64
coordinates and check nothing. These, ``_retract_coords`` and
``project_ambient`` accept vectors stacked as rows, shape (...,
ambient_dim), and give each row the bits of a one-vector call (row dots go
through ``np.vecdot``, the same dot as ``a @ b``). The public
``dretract_apply``, ``dretract_adjoint_apply`` and ``dretract_matrix``
validate their arguments, then call those forms; hot loops that validated
once at their own boundary call the array-level forms directly.
``dretract_matrix`` expresses T_u in deterministic orthonormal tangent bases
(QR completion of the constraint normal space).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolation, OutOfBall, ParameterError

# On-manifold / tangency tolerance for validation.
TOL = 1e-10


@dataclass(frozen=True)
class ManifoldPoint:
    """A point on a manifold in ambient embedding coordinates."""

    coords: np.ndarray
    manifold_id: str


@dataclass(frozen=True)
class TangentVector:
    """An ambient-coordinate tangent vector attached to its base point."""

    base: ManifoldPoint
    coords: np.ndarray

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
    constraint/tangency/retraction primitives and the closed-form
    differentiated retraction and its adjoint. All operations are pure
    functions of their inputs; random sources are caller-owned.
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

    # -- constraint primitives, overridden per manifold --------------------

    def constraint_violation(self, coords: np.ndarray) -> float:
        raise NotImplementedError

    def tangency_violation(self, x: ManifoldPoint, coords: np.ndarray) -> float:
        raise NotImplementedError

    def project_ambient(self, x: ManifoldPoint, a: np.ndarray) -> np.ndarray:
        """Orthogonal projection onto T_x M of each row of a, shape
        (..., ambient_dim)."""
        raise NotImplementedError

    def _retract_coords(self, x: np.ndarray, u: np.ndarray) -> np.ndarray:
        """R_x(u) on coordinates; u may stack tangent vectors as rows,
        shape (..., ambient_dim), each retracted as if alone. No checks."""
        raise NotImplementedError

    def _normal_frame(self, x: ManifoldPoint) -> np.ndarray:
        """Orthonormal basis of the normal space, shape (ambient, codim)."""
        raise NotImplementedError

    # -- construction and validation ---------------------------------------

    def point(self, coords) -> ManifoldPoint:
        c = _freeze(coords)
        if c.shape[0] != self.ambient_dim:
            raise ContractViolation(
                f"expected ambient dimension {self.ambient_dim}, got {c.shape[0]}")
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

    def _dretract_target(self, x: ManifoldPoint, u: TangentVector,
                         v: TangentVector | None = None,
                         w: TangentVector | None = None) -> ManifoldPoint:
        """Check a differential query and return y = R_x(u).

        u (and v, when given) must be based at x with u inside the ball; w,
        when given, must be based at y.
        """
        self._require_base(x, u)
        if v is not None:
            self._require_base(x, v)
        self._require_in_ball(u)
        y = self.retract(x, u)
        if w is not None and (w.base.manifold_id != self.manifold_id
                              or not np.array_equal(w.base.coords, y.coords)):
            raise ContractViolation("w must be tangent at R_x(u)")
        return y

    # -- core operations -----------------------------------------------------

    def retract(self, x: ManifoldPoint, u: TangentVector) -> ManifoldPoint:
        """R_x(u): map a tangent vector onto the manifold."""
        self._require_base(x, u)
        return ManifoldPoint(_freeze(self._retract_coords(x.coords, u.coords)),
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

    def _dretract_coords(self, x: ManifoldPoint, u: np.ndarray,
                         v: np.ndarray) -> np.ndarray:
        """T_u[v] on coordinates; v may stack tangent vectors as rows,
        shape (..., ambient_dim). No checks."""
        raise NotImplementedError

    def _dretract_adjoint_coords(self, x: ManifoldPoint, u: np.ndarray,
                                 w: np.ndarray) -> np.ndarray:
        """T_u*[w] on coordinates; u and w may stack rows, shape (...,
        ambient_dim), row k giving T_{u_k}*[w_k]. No checks."""
        raise NotImplementedError

    def dretract_apply(self, x: ManifoldPoint, u: TangentVector,
                       v: TangentVector) -> TangentVector:
        """T_u[v]: differential of the retraction at u, applied to v."""
        y = self._dretract_target(x, u, v=v)
        return TangentVector(y, _freeze(self._dretract_coords(x, u.coords,
                                                              v.coords)))

    def dretract_matrix(self, x: ManifoldPoint, u: TangentVector) -> np.ndarray:
        """T_u as a (dim x dim) matrix between the tangent bases at x and R_x(u).

        Validates and retracts once, then maps every basis column of T_x M
        through one stacked application of the differential.
        """
        y = self._dretract_target(x, u)
        Bx = self.tangent_basis(x)
        By = self.tangent_basis(y)
        return By.T @ self._dretract_coords(x, u.coords, Bx.T).T

    def dretract_adjoint_apply(self, x: ManifoldPoint, u: TangentVector,
                               w: TangentVector) -> TangentVector:
        """T_u*[w]: adjoint of T_u, pulling w in T_{R_x(u)} M back to T_x M.

        Satisfies <T_u v, w> = <v, T_u* w> for all tangent v at x.
        """
        self._dretract_target(x, u, w=w)
        return TangentVector(x, _freeze(self._dretract_adjoint_coords(
            x, u.coords, w.coords)))

    def sample_ball(self, x: ManifoldPoint, r: float,
                    rng: np.random.Generator) -> TangentVector:
        """Uniform draw from {u in T_x M : ||u|| <= r}.

        Gaussian direction in the orthonormal tangent basis, scaled by
        r * U^(1/dim). r = 0 consumes no randomness and returns the zero vector.
        """
        self._require_point(x)
        if not (r >= 0 and math.isfinite(r)):
            raise ParameterError(
                f"ball radius must be finite and nonnegative, got {r}")
        if r == 0.0:
            return self.zero_tangent(x)
        # draws at the point of the previous draw (the Lipschitz probe makes
        # hundreds at one anchor) reuse its basis; x is immutable and held
        # by the memo, so identity cannot be confused
        memo = self._ball_basis
        if memo is None or memo[0] is not x:
            memo = self._ball_basis = (x, self.tangent_basis(x))
        g = rng.standard_normal(self.dim)
        g /= np.linalg.norm(g)
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

    def constraint_violation(self, coords):
        # a norm that overflows to inf is a violation, not a warning
        with np.errstate(over="ignore"):
            return abs(float(np.linalg.norm(coords)) - 1.0)

    def tangency_violation(self, x, coords):
        return abs(float(x.coords @ coords))

    def project_ambient(self, x, a):
        a = np.asarray(a, dtype=np.float64)
        return a - _row_dots(a, x.coords) * x.coords

    def _retract_coords(self, x, u):
        w = x + u
        return w / _row_norms(w)

    def _normal_frame(self, x):
        return x.coords.reshape(-1, 1)

    # T_u[v] = (I - yy^T) v / ||x+u||  with y = R_x(u); adjoint swaps the
    # projector to the anchor side.
    def _dretract_coords(self, x, u, v):
        w = x.coords + u
        s = _norm(w)
        y = w / s
        return (v - (v @ y)[..., None] * y) / s

    def _dretract_adjoint_coords(self, x, u, w):
        xc = x.coords
        return (w - _row_dots(w, xc) * xc) / _row_norms(xc + u)

    # bench/launch.py wraps this name through Sphere.__dict__
    dretract_adjoint_apply = Manifold.dretract_adjoint_apply

    def rand_point(self, rng):
        g = rng.standard_normal(self.ambient_dim)
        return ManifoldPoint(_freeze(g / np.linalg.norm(g)), self.manifold_id)


class Euclidean(Manifold):
    """Flat R^n; retraction is addition and T_u is the identity."""

    def __init__(self, n: int, ball_radius_D: float = 1e9, c0: float = 0.0):
        if n < 1:
            raise ParameterError("euclidean needs dimension >= 1")
        self.manifold_id = f"euclidean:{n}"
        self.ambient_dim = int(n)
        self.dim = int(n)
        super().__init__(ball_radius_D, c0)

    def constraint_violation(self, coords):
        return 0.0

    def tangency_violation(self, x, coords):
        return 0.0

    def project_ambient(self, x, a):
        return np.array(a, dtype=np.float64)

    def _retract_coords(self, x, u):
        return x + u

    def _normal_frame(self, x):
        return np.empty((self.ambient_dim, 0))

    def _dretract_coords(self, x, u, v):
        return v

    def _dretract_adjoint_coords(self, x, u, w):
        return w

    def rand_point(self, rng):
        return ManifoldPoint(_freeze(rng.standard_normal(self.ambient_dim)),
                             self.manifold_id)
