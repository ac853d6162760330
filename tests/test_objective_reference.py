"""The one objective implementation against the per-objective formulas.

Every objective is F(y) = scale * y^T Abar y: ``FiniteSumObjective`` forms
the Euclidean gradient and Hessian action and the manifold makes them
Riemannian. The formulas below are the ones each objective used to state
for itself; the shared code must give the same floats bit for bit (up to
the sign of an exact zero, which ``np.array_equal`` does not tell apart),
on random points and on the exact eigenvectors and the origin, where exact
zeros occur.

    sphere gradient     -2 (A y - (y . A y) y)
    sphere Hessian      -2 (M v - (y . M v) y) + 2 (y . M y) v
    Euclidean gradient  A y,  Hessian  Abar v
    values              -y . Abar y  and  1/2 y . Abar y

Here A y is a batch's mean action (the first return of ``_matvec_mean``)
or Abar y.
"""

from __future__ import annotations

import numpy as np
import pytest

from prsrg import (QuadraticSaddleInstance, RayleighInstance,
                   StreamingRayleighInstance)

D = 7
SPEC = np.linspace(2.0, 0.1, D)
KINDS = ("rayleigh_rotated", "rayleigh_axis_aligned", "streaming_rayleigh",
         "quadratic_saddle")


def _build(kind):
    if kind == "rayleigh_rotated":
        return RayleighInstance(d=D, n=40, spectrum=SPEC, noise_scale=0.3,
                                rotation_seed=5)
    if kind == "rayleigh_axis_aligned":
        return RayleighInstance(d=D, n=40, spectrum=SPEC, noise_scale=0.3,
                                rotation_seed=None)
    if kind == "streaming_rayleigh":
        return StreamingRayleighInstance(d=D, spectrum=SPEC, rotation_seed=5)
    return QuadraticSaddleInstance(d=D, gamma=1.0, L_top=2.0, n=40,
                                   rotation_seed=3, noise_scale=0.3)


def _points(obj):
    """Random points, the basis vectors and, where the objective has them,
    its eigenvectors (the axis-aligned ones are basis vectors, exactly) and
    the origin."""
    rng = np.random.default_rng(11)
    pts = [obj.manifold.rand_point(rng).coords for _ in range(12)]
    pts += list(np.eye(D))
    if hasattr(obj, "eigvec"):
        pts += [obj.eigvec(j).coords for j in range(D)]
    if obj.manifold.manifold_id.startswith("euclidean"):
        pts += [np.zeros(D), obj.rotation[:, 0]]
    return [obj.manifold.point(y) for y in pts]


def _batches(obj):
    rng = np.random.default_rng(12)
    if obj.n is None:
        # below, at and above d = 7: the direct draw, then Bartlett rows
        return [obj.sample_minibatch(b, rng) for b in (3, D, 50)]
    return [obj.sample_minibatch(1, rng), obj.sample_minibatch(5, rng),
            obj.sample_largebatch(20, rng), obj.sample_largebatch(obj.n, rng)]


def _sphere(obj):
    return obj.manifold.manifold_id.startswith("sphere")


def _ref_grad(obj, y, Ay):
    if _sphere(obj):
        return -2.0 * (Ay - (y @ Ay) * y)
    return Ay


def _tangents(obj, y):
    """A random tangent at y and the projected basis vectors."""
    rng = np.random.default_rng(13)
    vs = [rng.standard_normal(D)] + list(np.eye(D))
    if _sphere(obj):
        vs = [v - (v @ y) * y for v in vs]
    return vs


@pytest.mark.parametrize("kind", KINDS)
def test_value_is_the_reference_formula(kind):
    obj = _build(kind)
    for x in _points(obj):
        y = x.coords
        ref = (-float(y @ (obj.Abar @ y)) if _sphere(obj)
               else 0.5 * float(y @ (obj.Abar @ y)))
        assert obj.value(x) == ref


@pytest.mark.parametrize("kind", KINDS)
def test_batch_gradient_is_the_reference_formula(kind):
    obj = _build(kind)
    for batch in _batches(obj):
        for x in _points(obj):
            y = x.coords
            ref = _ref_grad(obj, y, obj._matvec_mean(batch, y)[0])
            assert np.array_equal(obj.batch_riem_grad(batch, x).coords, ref)


@pytest.mark.parametrize("kind", KINDS)
def test_full_gradient_rows_are_the_reference_formula(kind):
    obj = _build(kind)
    pts = _points(obj)
    Y = np.array([x.coords for x in pts])
    G = obj._full_grad_coords(Y)
    for x, g in zip(pts, G):
        y = x.coords
        ref = _ref_grad(obj, y, obj.Abar @ y)
        assert np.array_equal(g, ref)
        assert np.array_equal(obj.full_riem_grad(x).coords, ref)


@pytest.mark.parametrize("kind", KINDS)
def test_hessian_action_is_the_reference_formula(kind):
    obj = _build(kind)
    for x in _points(obj):
        y = x.coords
        for v in _tangents(obj, y):
            Mv = obj.Abar @ v
            if _sphere(obj):
                My = obj.Abar @ y
                ref = -2.0 * (Mv - (y @ Mv) * y) + 2.0 * (y @ My) * v
            else:
                ref = Mv
            got = obj.full_riem_hvp(x, obj.manifold.tangent(x, v)).coords
            assert np.array_equal(got, ref)
