"""Manifold primitives: charts, retractions, the adjoint of the
retraction's differential, and the tests' reference differential."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsrg import (ContractViolation, Euclidean, OutOfBall, ParameterError,
                   Sphere, TangentVector)

from conftest import dretract_apply, dretract_matrix

RNG = np.random.default_rng(20240901)


def rand_sphere_pair(man, rng, rmax=None):
    x = man.rand_point(rng)
    u = man.sample_ball(x, rmax if rmax is not None else man.D, rng)
    return x, u


# ------------------------------------------------------------ construction

def test_ball_radius_cap():
    # chart radius must respect D <= 1/(2 c0)
    with pytest.raises(ParameterError):
        Sphere(5, ball_radius_D=0.6, c0=1.0)
    Sphere(5, ball_radius_D=0.5, c0=1.0)  # boundary value allowed


# ------------------------------------------------------------- validation

def test_point_validation():
    man = Sphere(4)
    with pytest.raises(ContractViolation):
        man.point(np.array([1.0, 1.0, 0.0, 0.0]))
    x = man.point(np.array([1.0, 0.0, 0.0, 0.0]))
    with pytest.raises(ContractViolation):
        man.tangent(x, np.array([1.0, 0.0, 0.0, 0.0]))  # not tangent


def test_ball_enforcement():
    man = Sphere(3)
    x = man.point(np.array([1.0, 0.0, 0.0]))
    u = man.tangent(x, np.array([0.0, 0.4, 0.0]))
    w = man.tangent(man.retract(x, u), np.array([0.0, 0.0, 1.0]))
    man.dretract_adjoint_apply(x, u, w)
    far = TangentVector(x, np.array([0.0, 0.9, 0.0]))
    with pytest.raises(OutOfBall):
        man.dretract_adjoint_apply(x, far, w)


def test_adjoint_checks_where_u_and_w_are_based():
    # u must be based at x, w at R_x(u): a w at x is rejected, as is a u
    # based at another point
    man = Sphere(3)
    x = man.point(np.array([1.0, 0.0, 0.0]))
    u = man.tangent(x, np.array([0.0, 0.4, 0.0]))
    w_at_x = man.tangent(x, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ContractViolation):
        man.dretract_adjoint_apply(x, u, w_at_x)
    z = man.point(np.array([0.0, 0.0, 1.0]))
    u_at_z = man.tangent(z, np.array([0.0, 0.4, 0.0]))
    w = man.tangent(man.retract(x, u), np.array([0.0, 0.0, 1.0]))
    with pytest.raises(ContractViolation):
        man.dretract_adjoint_apply(x, u_at_z, w)


# ------------------------------------------------------------ retractions

def test_sphere_retraction_closed_form():
    man = Sphere(3)
    x = man.point(np.array([1.0, 0.0, 0.0]))
    u = man.tangent(x, np.array([0.0, 0.3, 0.0]))
    y = man.retract(x, u)
    expect = np.array([1.0, 0.3, 0.0]) / np.linalg.norm([1.0, 0.3, 0.0])
    assert np.allclose(y.coords, expect, atol=1e-15)


def test_sphere_dretract_worked_example():
    # x = e1, u = e2 (norm 1): T_u[e3] = e3 / sqrt(2); needs a wide chart
    man = Sphere(3, ball_radius_D=1.0, c0=0.0)
    x = man.point(np.array([1.0, 0.0, 0.0]))
    u = man.tangent(x, np.array([0.0, 1.0, 0.0]))
    v = man.tangent(x, np.array([0.0, 0.0, 1.0]))
    Tv = dretract_apply(man, x, u, v)
    assert np.allclose(Tv.coords, [0.0, 0.0, 1.0 / np.sqrt(2.0)], atol=1e-9)


def test_retract_at_zero_is_identity():
    for man in (Sphere(6), Euclidean(4)):
        x = man.rand_point(RNG)
        y = man.retract(x, man.zero_tangent(x))
        assert np.allclose(y.coords, x.coords, atol=1e-15)


# --------------------------------------------------- differential + adjoint
# Sphere(2) is the circle: one tangent direction, a one-column basis. The
# differential is the reference in conftest; these checks hold it to
# finite differences of the retraction and the package's adjoint to it.

@pytest.mark.parametrize("man", [Sphere(7), Sphere(2), Sphere(5),
                                 Euclidean(4)])
def test_dretract_adjoint_pairing(man):
    # <T_u[v], w> == <v, T_u*[w]> for tangent v at x, tangent w at R_x(u)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = man.rand_point(rng)
        u = man.sample_ball(x, 0.4, rng)
        y = man.retract(x, u)
        v = man.sample_ball(x, 1.0, rng)
        w = man.sample_ball(y, 1.0, rng)
        lhs = float(dretract_apply(man, x, u, v).coords @ w.coords)
        rhs = float(v.coords @ man.dretract_adjoint_apply(x, u, w).coords)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("man", [Sphere(5), Sphere(2), Euclidean(4)])
def test_dretract_matches_fd(man):
    # closed form against central differences of the retraction; the
    # closed form lands in the tangent space at R_x(u) without projection
    rng = np.random.default_rng(3)
    x = man.rand_point(rng)
    u = man.sample_ball(x, 0.3, rng)
    v = man.sample_ball(x, 1.0, rng)
    y = man.retract(x, u)
    closed = dretract_apply(man, x, u, v).coords
    assert man.tangency_violation(y, closed) <= 1e-12
    h = 1e-6
    up = TangentVector(x, u.coords + h * v.coords)
    um = TangentVector(x, u.coords - h * v.coords)
    fd = (man.retract(x, up).coords - man.retract(x, um).coords) / (2 * h)
    fd = man.project_ambient(y, fd)
    assert np.linalg.norm(closed - fd) <= 1e-6 * max(1.0, np.linalg.norm(closed))


@pytest.mark.parametrize("man", [Sphere(5), Sphere(2), Euclidean(1),
                                 Euclidean(4)])
def test_dretract_matrix_matches_columnwise_apply(man):
    # dretract_matrix maps all basis columns through one stacked projection;
    # each column must agree with the one-vector reference apply
    rng = np.random.default_rng(17)
    x = man.rand_point(rng)
    u = man.sample_ball(x, 0.4, rng)
    Bx = man.tangent_basis(x)
    By = man.tangent_basis(man.retract(x, u))
    cols = [By.T @ dretract_apply(man, x, u,
                                  TangentVector(x, Bx[:, j])).coords
            for j in range(man.dim)]
    M = dretract_matrix(man, x, u)
    assert M.shape == (man.dim, man.dim)
    assert np.allclose(M, np.column_stack(cols), rtol=0.0, atol=1e-14)


def test_sigma_min_spot_checks():
    man = Sphere(12)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, u = rand_sphere_pair(man, rng)
        s = np.linalg.svd(dretract_matrix(man, x, u), compute_uv=False)[-1]
        assert s >= 1.0 - man.c0 * u.norm - 1e-9


# -------------------------------------------------------------- sampling

def test_sample_ball_radius_and_moment():
    man = Sphere(30)
    rng = np.random.default_rng(2)
    x = man.rand_point(rng)
    r = 0.3
    norms = []
    for _ in range(4000):
        u = man.sample_ball(x, r, rng)
        assert u.norm <= r * (1 + 1e-12)
        assert man.tangency_violation(x, u.coords) <= 1e-9
        norms.append(u.norm / r)
    # E[||u||/r] = dim/(dim+1) for the uniform ball; dim = 29
    expect = 29.0 / 30.0
    assert abs(np.mean(norms) - expect) <= 0.01


def test_sample_ball_zero_radius_draws_nothing():
    man = Sphere(5)
    rng = np.random.default_rng(0)
    x = man.rand_point(rng)
    state = rng.bit_generator.state
    u = man.sample_ball(x, 0.0, rng)
    assert u.norm == 0.0
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("r", [float("nan"), float("inf")])
def test_sample_ball_rejects_non_finite_radius(r):
    man = Sphere(5)
    rng = np.random.default_rng(0)
    x = man.rand_point(rng)
    state = rng.bit_generator.state
    with pytest.raises(ParameterError):
        man.sample_ball(x, r, rng)
    assert rng.bit_generator.state == state


# ---------------------------------------------------- row-stacked calls

def _sphere_closed_forms(xc, u, w):
    # retraction, adjoint differential, tangent projection, and the point
    # and tangency checks |(||x+u|| - 1)| and |x.w|, one vector at a time
    # with np.linalg.norm
    s = np.linalg.norm(xc + u)
    y = (xc + u) / s
    return (y, (w - (xc @ w) * xc) / s, w - (xc @ w) * xc, abs(s - 1.0),
            abs(xc @ w))


def _euclidean_closed_forms(xc, u, w):
    return xc + u, w, w, 0.0, 0.0


@pytest.mark.parametrize("man, closed_forms", [
    (Sphere(200), _sphere_closed_forms),
    (Euclidean(7), _euclidean_closed_forms),
], ids=["sphere", "euclidean"])
def test_row_stacked_primitives_equal_one_vector_calls(man, closed_forms):
    # the Lipschitz probe evaluates stacks of tangent vectors; each row must
    # carry exactly the bits of its own one-vector call, which are those of
    # the closed form
    rng = np.random.default_rng(8)
    x = man.rand_point(rng)
    k = 37
    U = np.array([man.sample_ball(x, 0.4, rng).coords for _ in range(k)])
    W = rng.standard_normal((k, man.ambient_dim))
    Y, S = man._retract_coords(x.coords, U)
    T = man._dretract_adjoint_coords(x, S, W)
    P = man.project_ambient(x, W)
    assert Y.shape == T.shape == P.shape == (k, man.ambient_dim)
    for i in range(k):
        y, s = man._retract_coords(x.coords, U[i])
        assert np.array_equal(Y[i], y)
        assert np.array_equal(T[i], man._dretract_adjoint_coords(x, s, W[i]))
        assert np.array_equal(P[i], man.project_ambient(x, W[i]))
        checks = (man.constraint_violation(x.coords + U[i]),
                  man.tangency_violation(x, W[i]))
        for got, expect in zip((Y[i], T[i], P[i], *checks),
                               closed_forms(x.coords, U[i], W[i])):
            assert np.array_equal(got, expect)


def test_sphere_point_whose_norm_overflows_is_rejected_quietly():
    # ||c|| overflows to inf: the old check value |(||c|| - 1)| is inf and
    # the point is off the sphere, reported without a RuntimeWarning
    man = Sphere(3)
    c = np.array([1e200, 0.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert man.constraint_violation(c) == np.inf
        with pytest.raises(ContractViolation):
            man.point(c)


@pytest.mark.parametrize("man", [Sphere(3), Euclidean(3)],
                         ids=["sphere", "euclidean"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_point_rejects_non_finite_coords(man, bad):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ContractViolation, match="non-finite"):
            man.point([bad, 0.0, 0.0])


# ------------------------------------------------------------- properties

@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=40, deadline=None)
def test_tangent_projection_idempotent(seed):
    man = Sphere(8)
    rng = np.random.default_rng(seed)
    x = man.rand_point(rng)
    a = rng.standard_normal(8)
    p1 = man.project_ambient(x, a)
    p2 = man.project_ambient(x, p1)
    assert np.allclose(p1, p2, atol=1e-12)
    assert man.tangency_violation(x, p1) <= 1e-9
