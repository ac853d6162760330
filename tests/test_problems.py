"""Synthetic problem instances: paired-noise construction, eigen oracles,
streaming sampler, data-backed objectives, and matrix IO."""

from __future__ import annotations

import functools

import numpy as np
import pytest

from prsrg import (
    ParameterError,
    make_data_rayleigh,
    make_quadratic_saddle,
    make_rayleigh,
    make_streaming_rayleigh,
)
from prsrg.problems import load_matrix, save_matrix


# --------------------------------------------------- paired noise structure

def _component_matrix(obj, i):
    return np.outer(obj.P[i], obj.Q[i]) + np.outer(obj.Q[i], obj.P[i])


def test_noise_pairs_cancel_and_have_exact_norm():
    obj = make_rayleigh(d=8, n=20, spectrum=np.linspace(3.0, 0.5, 8),
                        noise_scale=0.7, seed=2)
    for k in range(obj.n // 2):
        E0 = _component_matrix(obj, 2 * k)
        E1 = _component_matrix(obj, 2 * k + 1)
        assert np.array_equal(E1, -E0)
        top = np.max(np.abs(np.linalg.eigvalsh(E0)))
        assert top == pytest.approx(0.7, abs=1e-12)


def test_odd_n_last_component_is_noise_free():
    obj = make_rayleigh(d=5, n=7, spectrum=[2.0, 1.0, 0.8, 0.5, 0.1],
                        noise_scale=0.3, seed=0)
    assert np.all(obj.P[-1] == 0.0) and np.all(obj.Q[-1] == 0.0)


@pytest.mark.parametrize("build", [
    lambda: make_rayleigh(d=12, n=30, spectrum=np.linspace(2.0, 0.1, 12),
                          noise_scale=0.5, seed=7),
    lambda: make_quadratic_saddle(d=6, gamma=1.0, L_top=2.0, n=9, seed=3,
                                  noise_scale=0.3),
    lambda: make_data_rayleigh(
        np.random.default_rng(12).standard_normal((40, 6))),
], ids=["rayleigh", "quadratic_saddle", "data_rayleigh"])
def test_component_mean_equals_full_gradient(build):
    obj = build()
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = obj.manifold.rand_point(rng)
        mean = sum(obj.component_riem_grad(i, x).coords
                   for i in range(obj.n)) / obj.n
        assert np.allclose(mean, obj.full_riem_grad(x).coords, atol=1e-10)


def test_zero_noise_components_all_equal_population():
    obj = make_rayleigh(d=4, n=6, spectrum=[2.0, 1.0, 0.5, 0.2],
                        noise_scale=0.0, seed=None)
    rng = np.random.default_rng(3)
    x = obj.manifold.rand_point(rng)
    g = obj.full_riem_grad(x).coords
    for i in range(obj.n):
        assert np.array_equal(obj.component_riem_grad(i, x).coords, g)


# --------------------------------------------------------- eigen oracles

def test_eigvec_and_hess_eigval_axis_aligned():
    obj = make_rayleigh(d=4, n=10, spectrum=[3.0, 2.0, 1.0, 0.5],
                        noise_scale=0.1, seed=None)
    v1 = obj.eigvec(0)
    assert np.array_equal(v1.coords, np.eye(4)[0])
    # gradient vanishes at every eigenvector
    for j in range(4):
        g = obj.full_riem_grad(obj.eigvec(j))
        assert np.linalg.norm(g.coords) < 1e-12
    # at eigvec(1) the tangent direction eigvec(0) has curvature -2(3-2)
    assert obj.hess_eigval(0, 1) == pytest.approx(-2.0)
    assert obj.hess_eigval(2, 1) == pytest.approx(2.0)


def test_rotation_is_orthogonal_and_rotates_eigvecs():
    obj = make_rayleigh(d=9, n=12, spectrum=np.linspace(2.0, 0.2, 9),
                        noise_scale=0.0, seed=11)
    R = obj.rotation
    assert np.allclose(R.T @ R, np.eye(9), atol=1e-12)
    for j in (0, 4, 8):
        x = obj.eigvec(j)
        Av = obj.Abar @ x.coords
        assert np.allclose(Av, obj.spectrum[j] * x.coords, atol=1e-12)


def test_identical_seed_reproduces_instance():
    a = make_rayleigh(d=6, n=8, spectrum=np.linspace(2.0, 0.5, 6),
                      noise_scale=0.4, seed=9)
    b = make_rayleigh(d=6, n=8, spectrum=np.linspace(2.0, 0.5, 6),
                      noise_scale=0.4, seed=9)
    assert np.array_equal(a.Abar, b.Abar)
    assert np.array_equal(a.P, b.P)


# -------------------------------------------------------- validation

@pytest.mark.parametrize("make", [
    functools.partial(make_rayleigh, n=5, noise_scale=0.1),
    make_streaming_rayleigh,
], ids=["make_rayleigh", "make_streaming_rayleigh"])
def test_spectrum_validation(make):
    with pytest.raises(ParameterError, match="length"):
        make(d=3, spectrum=[2.0, 1.0], seed=None)
    with pytest.raises(ParameterError):
        make(d=3, spectrum=[1.0, 2.0, 0.0], seed=None)  # not nonincreasing
    with pytest.raises(ParameterError, match="nonincreasing"):
        make(d=3, spectrum=[2.0, 1.0, 3.0], seed=None)  # top gap is fine
    with pytest.raises(ParameterError, match="degenerate"):
        make(d=3, spectrum=[2.0, 2.0, 0.0], seed=None)


def test_quadratic_saddle_shape():
    obj = make_quadratic_saddle(d=5, gamma=1.5, L_top=3.0, n=6, seed=4,
                                noise_scale=0.2)
    evals = np.sort(np.linalg.eigvalsh(obj.H))
    assert evals[0] == pytest.approx(-1.5, abs=1e-12)
    assert evals[-1] == pytest.approx(3.0, abs=1e-12)
    v = obj.min_curvature_direction()
    assert np.allclose(obj.H @ v, -1.5 * v, atol=1e-10)
    # the saddle itself is a critical point
    x0 = obj.manifold.point(np.zeros(5))
    assert np.all(obj.full_riem_grad(x0).coords == 0.0)


def test_quadratic_convex_instance_allowed():
    obj = make_quadratic_saddle(d=3, gamma=-0.5, L_top=2.0, n=4, seed=None,
                                noise_scale=0.0)
    assert np.min(np.linalg.eigvalsh(obj.H)) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        make_quadratic_saddle(d=3, gamma=1.0, L_top=0.0, n=4, seed=None)


# -------------------------------------------------------- streaming

def test_streaming_matches_population_objective():
    spec = np.linspace(2.0, 0.1, 8)
    obj = make_streaming_rayleigh(d=8, spectrum=spec, seed=None)
    fin = make_rayleigh(d=8, n=10, spectrum=spec, noise_scale=0.0, seed=None)
    rng = np.random.default_rng(5)
    x = obj.manifold.rand_point(rng)
    assert obj.value(x) == pytest.approx(fin.value(x), abs=1e-12)
    assert np.allclose(obj.full_riem_grad(x).coords,
                       fin.full_riem_grad(x).coords, atol=1e-12)
    assert obj.sigma_hint > 0
    assert obj.n is None


def test_streaming_batch_mean_of_draws():
    obj = make_streaming_rayleigh(d=5, spectrum=[2.0, 1.0, 0.8, 0.5, 0.2],
                                  seed=3)
    rng = np.random.default_rng(8)
    x = obj.manifold.rand_point(rng)
    batch = obj.sample_minibatch(64, rng)
    got = obj.batch_riem_grad(batch, x).coords
    # manual mean over the drawn rows
    y = x.coords
    raw = batch.data * (batch.data @ y)[:, None]
    mean = raw.mean(axis=0)
    expect = -2.0 * (mean - (y @ mean) * y)
    assert np.allclose(got, expect, atol=1e-12)


def test_streaming_rejects_negative_covariance():
    with pytest.raises(ParameterError):
        make_streaming_rayleigh(d=3, spectrum=[2.0, 1.0, -0.1], seed=None)


# -------------------------------------------------------- data-backed

def test_data_rayleigh_rejects_empty():
    with pytest.raises(ParameterError):
        make_data_rayleigh(np.zeros((0, 3)))
    with pytest.raises(ParameterError):
        make_data_rayleigh(np.zeros(3))
    with pytest.raises(ParameterError, match="non-finite"):
        make_data_rayleigh(np.array([[1.0, 2.0], [np.nan, 0.0]]))


# -------------------------------------------------------- matrix IO

def test_matrix_roundtrip_binary(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((7, 3))
    path = tmp_path / "m.mat"
    save_matrix(path, arr)
    back = load_matrix(path)
    assert np.array_equal(back, arr)
    raw = path.read_bytes()
    assert raw[:8] == b"PRSRGMAT"
    assert len(raw) == 16 + 7 * 3 * 8


def test_matrix_roundtrip_csv(tmp_path):
    arr = np.array([[1.5, -2.0], [0.25, 1e-3]])
    path = tmp_path / "m.csv"
    np.savetxt(path, arr, delimiter=",")
    assert np.allclose(load_matrix(path), arr, atol=1e-15)


def test_load_matrix_rejects_garbage(tmp_path):
    path = tmp_path / "bad.mat"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(ParameterError):
        load_matrix(path)
    trunc = tmp_path / "short.mat"
    trunc.write_bytes(b"PRSRGMAT" + np.uint32(2).tobytes() +
                      np.uint32(2).tobytes() + b"\x00" * 8)
    with pytest.raises(ParameterError):
        load_matrix(trunc)
