"""Shared fixtures and small numerical helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from prsrg import (Batch, PullbackOracle, TangentVector, make_data_rayleigh,
                   make_quadratic_saddle, make_rayleigh,
                   make_streaming_rayleigh)
from prsrg.geometry import Stiefel

# every objective family that has a closed-form Hessian action
HESSIAN_KINDS = ("rayleigh", "quadratic_saddle", "data_rayleigh",
                 "streaming_rayleigh")


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


def fd_hvp(oracle, v, h=1e-5):
    """Central difference along v of the pullback gradient at u = 0 over the
    oracle's Hessian batch: the exact gradient in finite-sum mode, the fixed
    streaming batch otherwise."""
    batch = oracle._full_batch()

    def grad(s):
        u = TangentVector(oracle.anchor, s * v.coords)
        return oracle.grad_batch(batch, u).coords

    return (grad(h) - grad(-h)) / (2.0 * h)


def kind_oracle(kind, d=30, seed=0):
    """A d-dimensional instance of one objective family, anchored at a
    random point."""
    rng = np.random.default_rng(seed)
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, d - 2)))
    if kind == "rayleigh":
        obj = make_rayleigh(d=d, n=200, spectrum=spec, noise_scale=0.4,
                            seed=5)
    elif kind == "quadratic_saddle":
        obj = make_quadratic_saddle(d=d, gamma=1.0, L_top=2.0, n=64, seed=3,
                                    noise_scale=0.3)
    elif kind == "data_rayleigh":
        obj = make_data_rayleigh(rng.standard_normal((200, d))
                                 * np.sqrt(spec))
    else:
        obj = make_streaming_rayleigh(d=d, spectrum=spec, seed=5)
    return PullbackOracle(obj, obj.manifold.rand_point(rng))


@pytest.fixture
def small_rayleigh():
    """Axis-aligned 3-d instance with spectrum (2, 1, 0): exact eigenvectors."""
    return make_rayleigh(d=3, n=50, spectrum=[2.0, 1.0, 0.0],
                         noise_scale=0.2, seed=None)


@pytest.fixture
def medium_rayleigh():
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 28)))
    return make_rayleigh(d=30, n=200, spectrum=spec, noise_scale=0.4, seed=5)


def oracle_at(objective, point) -> PullbackOracle:
    return PullbackOracle(objective, point)


def _sym(M):
    return 0.5 * (M + M.T)


class StiefelTrace:
    """f_i(X) = -tr(X^T A_i X) on St(n, p); test-local objective that
    exercises the polar retraction's differential through the pullback
    oracle."""

    def __init__(self, n, p, n_comp, rng):
        base = rng.standard_normal((n, n))
        self.A = 0.5 * (base + base.T)
        self.perturb = [0.05 * _sym(rng.standard_normal((n, n)))
                        for _ in range(n_comp)]
        self.n = n_comp
        self.manifold = Stiefel(n, p)
        self.sigma_hint = None
        self._shape = (n, p)

    def _mat(self, i):
        return self.A + self.perturb[i]

    def value(self, x):
        X = x.coords.reshape(self._shape)
        return -float(np.trace(X.T @ (self.A @ X)))

    def _grad(self, M, x):
        X = x.coords.reshape(self._shape)
        W = -2.0 * (M @ X)
        sym = 0.5 * (X.T @ W + W.T @ X)
        return TangentVector(x, (W - X @ sym).ravel())

    def full_riem_grad(self, x):
        return self._grad(self.A, x)

    def component_riem_grad(self, i, x):
        return self._grad(self._mat(i), x)

    def batch_riem_grad(self, batch, x):
        idx = batch.idx if batch.idx is not None else np.arange(self.n)
        M = sum(self._mat(int(i)) for i in idx) / len(idx)
        return self._grad(M, x)

    def sample_minibatch(self, b, rng):
        return Batch(size=b, idx=rng.integers(0, self.n, size=b))

    def sample_largebatch(self, B, rng):
        if B >= self.n:
            return Batch(size=self.n, idx=None)
        return Batch(size=B, idx=rng.permutation(self.n)[:B])
