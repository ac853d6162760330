"""Manifold primitives: charts, retractions, differentiated retractions."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prsrg import (ContractViolation, Euclidean, OutOfBall, ParameterError,
                   Sphere, Stiefel, TangentVector, make_manifold)

RNG = np.random.default_rng(20240901)


def rand_sphere_pair(man, rng, rmax=None):
    x = man.rand_point(rng)
    u = man.sample_ball(x, rmax if rmax is not None else man.D, rng)
    return x, u


# ---------------------------------------------------------------- parsing

def test_make_manifold_ids():
    assert make_manifold("sphere:10").manifold_id == "sphere:10"
    assert make_manifold("stiefel:8x3").manifold_id == "stiefel:8x3"
    assert make_manifold("euclidean:4").manifold_id == "euclidean:4"


@pytest.mark.parametrize("bad", ["sphere", "sphere:0", "stiefel:3", "torus:4",
                                 "stiefel:3x9", "sphere:-2", ""])
def test_make_manifold_rejects(bad):
    with pytest.raises(ParameterError):
        make_manifold(bad)


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
    v = man.tangent(x, np.array([0.0, 0.0, 1.0]))
    man.dretract_apply(x, u, v)
    far = TangentVector(x, np.array([0.0, 0.9, 0.0]))
    with pytest.raises(OutOfBall):
        man.dretract_apply(x, far, v)


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
    Tv = man.dretract_apply(x, u, v)
    assert np.allclose(Tv.coords, [0.0, 0.0, 1.0 / np.sqrt(2.0)], atol=1e-9)


def test_stiefel_retraction_orthonormal():
    man = Stiefel(8, 3)
    for _ in range(10):
        x = man.rand_point(RNG)
        u = man.sample_ball(x, man.D, RNG)
        y = man.retract(x, u)
        Y = y.coords.reshape(8, 3)
        assert np.allclose(Y.T @ Y, np.eye(3), atol=1e-12)


def test_retract_at_zero_is_identity():
    for man in (Sphere(6), Stiefel(6, 2), Euclidean(4)):
        x = man.rand_point(RNG)
        y = man.retract(x, man.zero_tangent(x))
        assert np.allclose(y.coords, x.coords, atol=1e-15)


# --------------------------------------------------- differential + adjoint

@pytest.mark.parametrize("man", [Sphere(7), Stiefel(6, 2)])
def test_dretract_adjoint_pairing(man):
    # <T_u[v], w> == <v, T_u*[w]> for tangent v at x, tangent w at R_x(u)
    rng = np.random.default_rng(7)
    for _ in range(5):
        x = man.rand_point(rng)
        u = man.sample_ball(x, 0.4, rng)
        y = man.retract(x, u)
        v = man.sample_ball(x, 1.0, rng)
        w = man.sample_ball(y, 1.0, rng)
        lhs = float(man.dretract_apply(x, u, v).coords @ w.coords)
        rhs = float(v.coords @ man.dretract_adjoint_apply(x, u, w).coords)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("man", [Sphere(5), Stiefel(6, 2)])
def test_dretract_matches_fd(man):
    # closed form against central differences of the retraction; the
    # closed form lands in the tangent space at R_x(u) without projection
    rng = np.random.default_rng(3)
    x = man.rand_point(rng)
    u = man.sample_ball(x, 0.3, rng)
    v = man.sample_ball(x, 1.0, rng)
    y = man.retract(x, u)
    closed = man.dretract_apply(x, u, v).coords
    assert man.tangency_violation(y, closed) <= 1e-12
    h = 1e-6
    up = TangentVector(x, u.coords + h * v.coords)
    um = TangentVector(x, u.coords - h * v.coords)
    fd = (man.retract(x, up).coords - man.retract(x, um).coords) / (2 * h)
    fd = man.project_ambient(y, fd)
    assert np.linalg.norm(closed - fd) <= 1e-6 * max(1.0, np.linalg.norm(closed))


@pytest.mark.parametrize("man", [Sphere(5), Stiefel(6, 2), Stiefel(5, 3),
                                 Euclidean(4)])
def test_dretract_matrix_matches_columnwise_apply(man):
    # dretract_matrix maps all basis columns through one stacked call of the
    # differential; each column must agree with the public single apply
    rng = np.random.default_rng(17)
    x = man.rand_point(rng)
    u = man.sample_ball(x, 0.4, rng)
    Bx = man.tangent_basis(x)
    By = man.tangent_basis(man.retract(x, u))
    cols = [By.T @ man.dretract_apply(x, u, TangentVector(x, Bx[:, j])).coords
            for j in range(man.dim)]
    M = man.dretract_matrix(x, u)
    assert M.shape == (man.dim, man.dim)
    assert np.allclose(M, np.column_stack(cols), rtol=0.0, atol=1e-14)


def test_sigma_min_spot_checks():
    man = Sphere(12)
    rng = np.random.default_rng(11)
    for _ in range(25):
        x, u = rand_sphere_pair(man, rng)
        s = man.dretract_sigma_min(x, u)
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


@given(st.integers(0, 2 ** 32 - 1))
@settings(max_examples=25, deadline=None)
def test_stiefel_tangent_basis_orthonormal(seed):
    man = Stiefel(6, 2)
    rng = np.random.default_rng(seed)
    x = man.rand_point(rng)
    B = man.tangent_basis(x)
    assert B.shape == (12, man.dim)
    assert np.allclose(B.T @ B, np.eye(man.dim), atol=1e-10)
    for j in range(man.dim):
        assert man.tangency_violation(x, B[:, j]) <= 1e-9
