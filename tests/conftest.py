"""Shared fixtures and small numerical helpers for the test suite."""

from __future__ import annotations

import csv

import numpy as np
import pytest

from prsrg import (ManifoldPoint, PullbackOracle, QuadraticSaddleInstance,
                   RayleighInstance, SchemaError, StreamingRayleighInstance,
                   TangentVector, TraceRow)
from prsrg.trace import COLUMNS

# every objective family that has a closed-form Hessian action
HESSIAN_KINDS = ("rayleigh", "quadratic_saddle", "streaming_rayleigh")


def fd_pullback_grad(oracle, u, h=1e-6):
    """Central-difference gradient of the pullback in tangent-basis coords,
    mapped back to ambient coordinates."""
    man = oracle.manifold
    basis = man.tangent_basis(oracle.anchor)
    g = np.zeros(man.dim)
    for j in range(man.dim):
        e = basis[:, j]
        up = TangentVector(oracle.anchor, u.coords + h * e)
        um = TangentVector(oracle.anchor, u.coords - h * e)
        g[j] = (oracle.value(up) - oracle.value(um)) / (2.0 * h)
    return basis @ g


def dretract_apply(man, x, u, v):
    """Reference differential of the retraction: T_u[v] = P_y(v)/s at
    y = R_x(u) = (x + u)/s, from the package's retraction and projection.
    The package needs only the adjoint T_u*; test_geometry checks this
    form against finite differences of ``retract`` and the adjoint against
    it. No checks."""
    y, s = man._retract_coords(x.coords, u.coords)
    return TangentVector(ManifoldPoint(y, man.manifold_id),
                         man._project_coords(y, v.coords) / s)


def dretract_matrix(man, x, u):
    """T_u as a (dim x dim) matrix between the orthonormal tangent bases
    at x and R_x(u): every basis column at x through one row-stacked
    projection. No checks."""
    y, s = man._retract_coords(x.coords, u.coords)
    Bx = man.tangent_basis(x)
    By = man.tangent_basis(ManifoldPoint(y, man.manifold_id))
    return By.T @ (man._project_coords(y, Bx.T) / s).T


def fd_hvp(oracle, v, h=1e-5):
    """Central difference along v of the exact (full or population) pullback
    gradient at u = 0."""

    def grad(s):
        return oracle.exact_grad(TangentVector(oracle.anchor,
                                               s * v.coords)).coords

    return (grad(h) - grad(-h)) / (2.0 * h)


def kind_oracle(kind, d=30, seed=0):
    """A d-dimensional instance of one objective family, anchored at a
    random point."""
    rng = np.random.default_rng(seed)
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, d - 2)))
    if kind == "rayleigh":
        obj = RayleighInstance(d=d, n=200, spectrum=spec, noise_scale=0.4,
                               rotation_seed=5)
    elif kind == "quadratic_saddle":
        obj = QuadraticSaddleInstance(d=d, gamma=1.0, L_top=2.0, n=64,
                                      rotation_seed=3, noise_scale=0.3)
    else:
        obj = StreamingRayleighInstance(d=d, spectrum=spec, rotation_seed=5)
    return PullbackOracle(obj, obj.manifold.rand_point(rng))


@pytest.fixture
def small_rayleigh():
    """Axis-aligned 3-d instance with spectrum (2, 1, 0): exact eigenvectors."""
    return RayleighInstance(d=3, n=50, spectrum=[2.0, 1.0, 0.0],
                            noise_scale=0.2, rotation_seed=None)


@pytest.fixture
def medium_rayleigh():
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 28)))
    return RayleighInstance(d=30, n=200, spectrum=spec, noise_scale=0.4,
                            rotation_seed=5)


def oracle_at(objective, point) -> PullbackOracle:
    return PullbackOracle(objective, point)


def read_trace(path) -> list[TraceRow]:
    """The rows of a trace CSV that ``write_trace`` wrote."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise SchemaError(f"unexpected trace header: {header}")
        rows = []
        for rec in reader:
            rows.append(TraceRow(
                outer_t=int(rec[0]), inner_k=int(rec[1]), epoch_type=rec[2],
                F_value=float(rec[3]), grad_norm_or_batch=float(rec[4]),
                u_norm=float(rec[5]), queries_cum=int(rec[6]), event=rec[7]))
    return rows
