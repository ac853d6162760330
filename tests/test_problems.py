"""Synthetic problem instances: paired-noise construction, eigen oracles
and the index and streaming samplers."""

from __future__ import annotations

import copy
import functools
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from prsrg import (
    ParameterError,
    QuadraticSaddleInstance,
    RayleighInstance,
    StreamingRayleighInstance,
)
from prsrg import _kernels, problems
from prsrg.problems import PAIR_BLOCK, _paired_noise
from prsrg.pullback import Batch
from prsrg.rng import TAG_BATCH, TAG_PROBLEM, master_stream

from conftest import HESSIAN_KINDS, kind_oracle


def _component_grad(obj, i, x):
    """Riemannian gradient of component i alone: a one-index batch."""
    return obj.batch_riem_grad(Batch(size=1, idx=np.array([i])), x)


# --------------------------------------------------- paired noise structure

def _expand_pairs(p, q, n):
    """Per-component rows (P, Q) that the pair store stands for: E_i =
    P[i] Q[i]^T + Q[i] P[i]^T with P[i] = s_i p[i >> 1], Q[i] = q[i >> 1]."""
    i = np.arange(n)
    sign = (1.0 - 2.0 * (i & 1))[:, None]
    return sign * p[i >> 1], q[i >> 1]


def _component_matrix(obj, i):
    P, Q = _expand_pairs(obj.p, obj.q, obj.n)
    return np.outer(P[i], Q[i]) + np.outer(Q[i], P[i])


def test_noise_pairs_cancel_and_have_exact_norm():
    obj = RayleighInstance(d=8, n=20, spectrum=np.linspace(3.0, 0.5, 8),
                           noise_scale=0.7, rotation_seed=2)
    for k in range(obj.n // 2):
        E0 = _component_matrix(obj, 2 * k)
        E1 = _component_matrix(obj, 2 * k + 1)
        assert np.array_equal(E1, -E0)
        top = np.max(np.abs(np.linalg.eigvalsh(E0)))
        assert top == pytest.approx(0.7, abs=1e-12)


def test_odd_n_last_component_is_noise_free():
    obj = RayleighInstance(d=5, n=7, spectrum=[2.0, 1.0, 0.8, 0.5, 0.1],
                           noise_scale=0.3, rotation_seed=0)
    assert obj.p.shape == obj.q.shape == (4, 5)
    assert np.all(obj.p[-1] == 0.0) and np.all(obj.q[-1] == 0.0)
    P, Q = _expand_pairs(obj.p, obj.q, obj.n)
    assert np.all(P[-1] == 0.0) and np.all(Q[-1] == 0.0)
    assert np.all(_component_matrix(obj, obj.n - 1) == 0.0)
    x = obj.manifold.rand_point(np.random.default_rng(0))
    assert np.array_equal(_component_grad(obj, obj.n - 1, x).coords,
                          obj.full_riem_grad(x).coords)


def _paired_noise_one_pair_at_a_time(n, d, noise_scale, node):
    """Reference for ``_paired_noise``: a pair-by-pair loop that opens block
    j's stream (``node``, then ``node.child(j)``) at its first pair."""
    P = np.zeros((n, d))
    Q = np.zeros((n, d))
    if noise_scale == 0.0:
        return P, Q
    for k in range(n // 2):
        j, first = divmod(k, PAIR_BLOCK)
        if first == 0:
            rng = (node.child(j) if j else node).generator()
        p = rng.standard_normal(d)
        q = rng.standard_normal(d)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        scale = noise_scale / (1.0 + abs(float(p @ q)))
        P[2 * k] = scale * p
        Q[2 * k] = q
        P[2 * k + 1] = -scale * p
        Q[2 * k + 1] = q
    return P, Q


@pytest.mark.parametrize("child", [1, 2], ids=["rayleigh", "quadratic_saddle"])
@pytest.mark.parametrize("n, d", [(1, 5), (2, 2), (7, 3), (401, 37),
                                  (1000, 100), (2 * PAIR_BLOCK, 4),
                                  (4 * PAIR_BLOCK - 1, 3), (4 * PAIR_BLOCK, 3),
                                  (4 * PAIR_BLOCK + 1, 3),
                                  (4 * PAIR_BLOCK + 2, 3),
                                  (4 * PAIR_BLOCK + 3, 3)])
def test_paired_noise_is_byte_equal_to_pairwise_loop(n, d, child):
    # guards the bitwise contract if numpy or BLAS ever reduces rows
    # differently from a 1-D dot; n = 2 PAIR_BLOCK is the largest store
    # drawn inline from one stream, and the n near 4 PAIR_BLOCK end the
    # block-parallel draw on a full block, a short one, or one pair into a
    # third block
    stream = master_stream(0).child(TAG_PROBLEM, child)
    for noise_scale in (0.0, 1e-300, 0.5, 1e5):
        p, q = _paired_noise(n, d, noise_scale, stream)
        P0, Q0 = _paired_noise_one_pair_at_a_time(n, d, noise_scale, stream)
        assert p.shape == q.shape == ((n + 1) // 2, d)
        assert p.tobytes() == P0[0::2].tobytes()
        assert q.tobytes() == Q0[0::2].tobytes()
        P, Q = _expand_pairs(p, q, n)
        assert Q.tobytes() == Q0.tobytes()
        if noise_scale > 0.0:
            assert P.tobytes() == P0.tobytes()
        else:
            # a zero pair's odd component reads -0.0 where the loop left
            # +0.0; the values are equal
            assert np.array_equal(P, P0)


class _FailingStream:
    """StreamTree stand-in whose block ``fail_at`` (counting from 1) fails
    to draw; every other block draws from a real stream."""

    def __init__(self, fail_at, exc_type, path=()):
        self.fail_at, self.exc_type, self.path = fail_at, exc_type, path

    def child(self, j):
        return _FailingStream(self.fail_at, self.exc_type, (j,))

    def generator(self):
        if (self.path or (0,))[0] == self.fail_at - 1:
            return self
        return master_stream(0).child(TAG_PROBLEM, 1, *self.path).generator()

    def standard_normal(self, *args, **kwargs):
        raise self.exc_type("draw failed")


def _on_watched_thread(fn, timeout=60.0):
    """Run fn() on a daemon thread; return what it raised, or None. A call
    still running after ``timeout`` seconds fails the test as a deadlock."""
    raised = []

    def run():
        try:
            fn()
        except BaseException as exc:  # handed to the test, which checks it
            raised.append(exc)

    runner = threading.Thread(target=run, daemon=True)
    runner.start()
    runner.join(timeout)
    assert not runner.is_alive(), "_paired_noise did not return: deadlock"
    return raised[0] if raised else None


@pytest.mark.parametrize("exc_type", [RuntimeError, KeyboardInterrupt])
@pytest.mark.parametrize("fail_at", [1, 3])
@pytest.mark.parametrize("side", ["draw", "normalise"])
def test_paired_noise_failure_on_either_thread_propagates_and_joins(
        monkeypatch, side, fail_at, exc_type):
    # six blocks on four workers, on any core count: block fail_at's draw
    # (on the caller for block 1, a helper for block 3) or the fail_at-th
    # normalising pass fails while the other workers draw; the error must
    # leave _paired_noise and every worker must be joined, not left running
    monkeypatch.setattr(problems, "_usable_cpus", lambda: 4)
    node = master_stream(0).child(TAG_PROBLEM, 1)
    if side == "draw":
        node = _FailingStream(fail_at, exc_type)
    else:
        real, calls = problems._store_pairs, []

        def failing_pass(*args):
            calls.append(args)
            if len(calls) == fail_at:
                time.sleep(0.05)  # the other workers draw on meanwhile
                raise exc_type("normalise failed")
            real(*args)

        monkeypatch.setattr(problems, "_store_pairs", failing_pass)
    before = threading.active_count()
    exc = _on_watched_thread(
        lambda: _paired_noise(12 * PAIR_BLOCK, 3, 0.5, node))
    assert type(exc) is exc_type
    assert str(exc) == ("draw failed" if side == "draw"
                        else "normalise failed")
    assert threading.active_count() == before


def test_paired_noise_is_byte_equal_across_worker_counts(monkeypatch):
    # six blocks, the last one short: 1, 2 and 3 workers, and 5 usable CPUs
    # (capped at PAIR_WORKERS), stripe them differently; each store must
    # carry the reference's bits, and the blocks must run on that many
    # threads
    n, d = 11 * PAIR_BLOCK + 3, 4
    stream = master_stream(0).child(TAG_PROBLEM, 2)
    P0, Q0 = _paired_noise_one_pair_at_a_time(n, d, 0.5, stream)
    real, seen = problems._store_pairs, []

    def spy(*args):
        seen.append(threading.current_thread())
        real(*args)

    monkeypatch.setattr(problems, "_store_pairs", spy)
    for cpus in (1, 2, 3, 5):
        monkeypatch.setattr(problems, "_usable_cpus", lambda: cpus)
        seen.clear()
        p, q = _paired_noise(n, d, 0.5, stream)
        assert p.tobytes() == P0[0::2].tobytes()
        assert q.tobytes() == Q0[0::2].tobytes()
        assert len(seen) == 6
        assert len(set(seen)) == min(cpus, problems.PAIR_WORKERS)


def test_concurrent_paired_noise_builds_are_byte_equal_to_pairwise_loop(
        monkeypatch):
    # three builds at once (twelve threads on any core count), with thread
    # switches forced every microsecond: each store must still carry the
    # bits of the per-block streams, whatever the interleaving
    monkeypatch.setattr(problems, "_usable_cpus", lambda: 4)
    n, d = 12 * PAIR_BLOCK + 1, 3
    stream = master_stream(0).child(TAG_PROBLEM, 1)
    P0, Q0 = _paired_noise_one_pair_at_a_time(n, d, 0.5, stream)
    out = [None] * 3

    def build(i):
        out[i] = _paired_noise(n, d, 0.5, stream)

    builders = [threading.Thread(target=build, args=(i,), daemon=True)
                for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in builders:
            t.start()
        for t in builders:
            t.join(60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in builders)
    for p, q in out:
        assert p.tobytes() == P0[0::2].tobytes()
        assert q.tobytes() == Q0[0::2].tobytes()


@pytest.mark.parametrize("build", [
    lambda: RayleighInstance(d=40, n=301, spectrum=np.linspace(2.0, 0.1, 40),
                             noise_scale=0.5, rotation_seed=7),
    lambda: QuadraticSaddleInstance(d=30, gamma=1.0, L_top=2.0, n=200,
                                    rotation_seed=3, noise_scale=0.3),
], ids=["rayleigh_odd_n", "quadratic_saddle"])
def test_pair_store_kernel_is_bitwise_the_per_component_formula(build):
    # the sign rides on the two length-b products; negation is exact, so
    # the result must carry the bits of the formula on per-component rows
    obj = build()
    P, Q = _expand_pairs(obj.p, obj.q, obj.n)
    rng = np.random.default_rng(8)
    for _ in range(300):
        idx = rng.integers(0, obj.n, size=int(rng.integers(1, 65)))
        # index n - 1 and both components of one pair
        even = 2 * int(rng.integers(0, obj.n // 2))
        idx = np.concatenate([idx, [obj.n - 1, even, even + 1]])
        y = rng.standard_normal(obj.d)
        Pi, Qi = P[idx], Q[idx]
        expect = (Pi.T @ (Qi @ y) + Qi.T @ (Pi @ y)) / idx.shape[0]
        got = _kernels.paired_rank2_mean(obj.p, obj.q, idx, y)
        assert np.array_equal(got, expect)


def test_pair_store_memory_is_one_row_per_pair():
    # two (n/2, d) float64 arrays hold the whole store: 32,000,000 bytes
    # here; an n-row store would need twice that
    tracemalloc.start()
    try:
        obj = RayleighInstance(d=200, n=20000,
                               spectrum=np.linspace(2.0, 0.1, 200),
                               noise_scale=0.5, rotation_seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert obj.p.nbytes + obj.q.nbytes == 32_000_000
    assert peak <= 1.25 * 32_000_000


@pytest.mark.parametrize("build", [
    lambda: RayleighInstance(d=12, n=30, spectrum=np.linspace(2.0, 0.1, 12),
                             noise_scale=0.5, rotation_seed=7),
    lambda: QuadraticSaddleInstance(d=6, gamma=1.0, L_top=2.0, n=9,
                                    rotation_seed=3, noise_scale=0.3),
], ids=["rayleigh", "quadratic_saddle"])
def test_component_mean_equals_full_gradient(build):
    obj = build()
    rng = np.random.default_rng(1)
    for _ in range(3):
        x = obj.manifold.rand_point(rng)
        mean = sum(_component_grad(obj, i, x).coords
                   for i in range(obj.n)) / obj.n
        assert np.allclose(mean, obj.full_riem_grad(x).coords, atol=1e-10)


@pytest.mark.parametrize("kind", HESSIAN_KINDS)
def test_full_gradient_of_row_stack_equals_one_point_calls(kind):
    # the Lipschitz probe takes exact gradients of stacked points; row k
    # must carry the bits of full_riem_grad at point k, which are those of
    # the one-vector formula (Abar @ y, then the tangent projection)
    obj = kind_oracle(kind, d=200).objective
    man = obj.manifold
    rng = np.random.default_rng(4)
    Y = np.array([man.rand_point(rng).coords for _ in range(23)])
    G = obj._full_grad_coords(Y)
    assert G.shape == Y.shape
    for y, g in zip(Y, G):
        Ay = obj.Abar @ y
        expect = Ay
        if kind != "quadratic_saddle":
            expect = -2.0 * (Ay - (y @ Ay) * y)
        assert np.array_equal(g, expect)
        assert np.array_equal(g, obj.full_riem_grad(man.point(y)).coords)


def test_zero_noise_components_all_equal_population():
    obj = RayleighInstance(d=4, n=6, spectrum=[2.0, 1.0, 0.5, 0.2],
                           noise_scale=0.0, rotation_seed=None)
    rng = np.random.default_rng(3)
    x = obj.manifold.rand_point(rng)
    g = obj.full_riem_grad(x).coords
    for i in range(obj.n):
        assert np.array_equal(_component_grad(obj, i, x).coords, g)


# --------------------------------------------------------- eigen oracles

def test_eigvec_and_hess_eigval_axis_aligned():
    obj = RayleighInstance(d=4, n=10, spectrum=[3.0, 2.0, 1.0, 0.5],
                           noise_scale=0.1, rotation_seed=None)
    v1 = obj.eigvec(0)
    assert np.array_equal(v1.coords, np.eye(4)[0])
    # gradient vanishes at every eigenvector
    for j in range(4):
        g = obj.full_riem_grad(obj.eigvec(j))
        assert np.linalg.norm(g.coords) < 1e-12
    # at eigvec(j) the tangent direction eigvec(i) has curvature
    # -2(lambda_i - lambda_j): -2(3-2) along eigvec(0) at eigvec(1)
    s = obj.spectrum
    assert -2.0 * (s[0] - s[1]) == pytest.approx(-2.0)
    assert -2.0 * (s[2] - s[1]) == pytest.approx(2.0)


def test_rotation_is_orthogonal_and_rotates_eigvecs():
    obj = RayleighInstance(d=9, n=12, spectrum=np.linspace(2.0, 0.2, 9),
                           noise_scale=0.0, rotation_seed=11)
    R = obj.rotation
    assert np.allclose(R.T @ R, np.eye(9), atol=1e-12)
    for j in (0, 4, 8):
        x = obj.eigvec(j)
        Av = obj.Abar @ x.coords
        assert np.allclose(Av, obj.spectrum[j] * x.coords, atol=1e-12)


def test_identical_seed_reproduces_instance():
    a = RayleighInstance(d=6, n=8, spectrum=np.linspace(2.0, 0.5, 6),
                         noise_scale=0.4, rotation_seed=9)
    b = RayleighInstance(d=6, n=8, spectrum=np.linspace(2.0, 0.5, 6),
                         noise_scale=0.4, rotation_seed=9)
    assert np.array_equal(a.Abar, b.Abar)
    assert np.array_equal(a.p, b.p)
    assert np.array_equal(a.q, b.q)


# -------------------------------------------------------- validation

@pytest.mark.parametrize("make", [
    functools.partial(RayleighInstance, n=5, noise_scale=0.1),
    StreamingRayleighInstance,
], ids=["make_rayleigh", "make_streaming_rayleigh"])
def test_spectrum_validation(make):
    with pytest.raises(ParameterError, match="length"):
        make(d=3, spectrum=[2.0, 1.0], rotation_seed=None)
    with pytest.raises(ParameterError):
        # not nonincreasing
        make(d=3, spectrum=[1.0, 2.0, 0.0], rotation_seed=None)
    with pytest.raises(ParameterError, match="nonincreasing"):
        # the top gap is fine
        make(d=3, spectrum=[2.0, 1.0, 3.0], rotation_seed=None)
    with pytest.raises(ParameterError, match="degenerate"):
        make(d=3, spectrum=[2.0, 2.0, 0.0], rotation_seed=None)
    for bad in ([np.inf, 1.0, 0.0], [2.0, 1.0, -np.inf], [2.0, 1.0, np.nan]):
        with pytest.raises(ParameterError, match="non-finite"):
            make(d=3, spectrum=bad, rotation_seed=None)


def test_quadratic_saddle_shape():
    obj = QuadraticSaddleInstance(d=5, gamma=1.5, L_top=3.0, n=6,
                                  rotation_seed=4, noise_scale=0.2)
    evals = np.sort(np.linalg.eigvalsh(obj.Abar))
    assert evals[0] == pytest.approx(-1.5, abs=1e-12)
    assert evals[-1] == pytest.approx(3.0, abs=1e-12)
    v = obj.rotation[:, 0]
    assert np.allclose(obj.Abar @ v, -1.5 * v, atol=1e-10)
    # the saddle itself is a critical point
    x0 = obj.manifold.point(np.zeros(5))
    assert np.all(obj.full_riem_grad(x0).coords == 0.0)


def test_quadratic_convex_instance_allowed():
    obj = QuadraticSaddleInstance(d=3, gamma=-0.5, L_top=2.0, n=4,
                                  rotation_seed=None, noise_scale=0.0)
    assert np.min(np.linalg.eigvalsh(obj.Abar)) == pytest.approx(0.5)
    with pytest.raises(ParameterError):
        QuadraticSaddleInstance(d=3, gamma=1.0, L_top=0.0, n=4,
                                rotation_seed=None, noise_scale=0.1)


@pytest.mark.parametrize("L_top", [np.inf, np.nan])
def test_quadratic_saddle_rejects_non_finite_L_top(L_top):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ParameterError, match="0 < L_top < inf"):
            QuadraticSaddleInstance(d=3, gamma=1.0, L_top=L_top, n=30,
                                    rotation_seed=None, noise_scale=0.1)


# d x d float64 at d = 5,000,000 is 182 TiB, past the 128 TiB address
# space, so the first dense allocation fails at once under any overcommit
# policy. Near d = 1e6 it can succeed under overcommit and touch gigabytes
HUGE_D = 5_000_000


@pytest.mark.parametrize("kind, seed", [
    ("rayleigh", None), ("rayleigh", 7), ("streaming_rayleigh", None),
    ("quadratic_saddle", 7)])
def test_oversized_spectrum_is_a_parameter_error(kind, seed):
    d = HUGE_D
    with pytest.raises(ParameterError) as info:
        if kind == "quadratic_saddle":
            QuadraticSaddleInstance(d, gamma=1.0, L_top=2.0, n=2,
                                    rotation_seed=seed, noise_scale=0.1)
        elif kind == "rayleigh":
            RayleighInstance(d, 2, np.linspace(2.0, 0.0, d), 0.1, seed)
        else:
            StreamingRayleighInstance(d, np.linspace(2.0, 0.0, d), seed)
    assert str(info.value) == (
        f"spectrum of length d = {d} needs d x d matrices of {8 * d * d} "
        f"bytes each, which cannot be allocated")
    assert isinstance(info.value.__cause__, MemoryError)


# -------------------------------------------------------- streaming

def test_streaming_matches_population_objective():
    spec = np.linspace(2.0, 0.1, 8)
    obj = StreamingRayleighInstance(d=8, spectrum=spec, rotation_seed=None)
    fin = RayleighInstance(d=8, n=10, spectrum=spec, noise_scale=0.0,
                           rotation_seed=None)
    rng = np.random.default_rng(5)
    x = obj.manifold.rand_point(rng)
    assert obj.value(x) == pytest.approx(fin.value(x), abs=1e-12)
    assert np.allclose(obj.full_riem_grad(x).coords,
                       fin.full_riem_grad(x).coords, atol=1e-12)
    assert obj.sigma_hint > 0
    assert obj.n is None


def test_streaming_batch_mean_of_draws():
    obj = StreamingRayleighInstance(d=5, spectrum=[2.0, 1.0, 0.8, 0.5, 0.2],
                                    rotation_seed=3)
    rng = np.random.default_rng(8)
    x = obj.manifold.rand_point(rng)
    y = x.coords
    # one size below d (the samples) and one above (d pseudo-rows)
    for size, rows in ((3, 3), (64, 5)):
        batch = obj.sample_minibatch(size, rng)
        assert batch.size == size and batch.data.shape == (rows, obj.d)
        got = obj.batch_riem_grad(batch, x).coords
        # manual mean over the drawn rows
        raw = batch.data * (batch.data @ y)[:, None]
        mean = raw.mean(axis=0)
        expect = -2.0 * (mean - (y @ mean) * y)
        assert np.allclose(got, expect, atol=1e-12)


def _online_stream_instance():
    spec = np.concatenate([[2.0, 1.0], np.linspace(0.6, 0.1, 18)])
    return StreamingRayleighInstance(d=20, spectrum=spec, rotation_seed=7)


@pytest.mark.parametrize("size", [1, 20])
def test_streaming_small_batch_is_the_direct_draw(size):
    # up to d the samples themselves are drawn, byte for byte as before
    obj = _online_stream_instance()
    batch = obj.sample_largebatch(size, np.random.default_rng(4))
    direct = (np.random.default_rng(4).standard_normal((size, obj.d))
              @ obj._sqrt_cov)
    assert batch.data.tobytes() == direct.tobytes()


def test_streaming_huge_batch_costs_d_squared_memory():
    obj = _online_stream_instance()
    rng = np.random.default_rng(0)
    tracemalloc.start()
    try:
        batch = obj.sample_largebatch(50_000_000, rng)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert batch.size == 50_000_000
    assert batch.data.shape == (obj.d, obj.d)
    assert peak < 1_000_000


@pytest.mark.parametrize("size", [125, 21], ids=["b125", "d_plus_1"])
def test_streaming_bartlett_moments(size):
    """The Bartlett batch has the law of the direct draw.

    N = 4000 draws of each at one fixed point, d = 20 coordinates; every
    band below is 5 standard errors, so a correct draw fails it with
    probability below 5.8e-7 per compared number (z > 5, two-sided).

    Second moment: size * S ~ Wishart_d(size, Abar), so each entry of S has
    mean Abar_kl and variance (Abar_kl^2 + Abar_kk Abar_ll) / size; the
    mean of N draws is within 5 sqrt(that / N) of Abar_kl.

    Gradient mean: the batch gradient is linear in S, so its mean is the
    population gradient exactly. Each coordinate's sample mean is within
    5 sd_j / sqrt(N) of it (sd_j from the same draws).

    Gradient variance: each coordinate is a batch mean of Gaussian quadratic
    forms a^T C a, whose excess kurtosis is 12 sum(mu^4) / (sum mu^2)^2 <=
    12 (mu the eigenvalues of C), so the batch mean's is kappa <= 12 / b.
    A sample variance over N draws has Var(log s^2) ~ 2 / (N - 1) + kappa /
    N, so the log ratio of two independent ones has standard deviation at
    most sqrt(2 (2 + 12 / b) / N): 0.0324 at b = 125 and 0.0359 at b = 21.
    The Bartlett-to-direct variance ratio of every coordinate lies within
    5 of those of 1 in log scale.
    """
    N = 4000
    obj = _online_stream_instance()
    rng = np.random.default_rng(2024)
    x = obj.manifold.rand_point(rng)
    bartlett = [obj.sample_minibatch(size, rng) for _ in range(N)]
    assert all(batch.data.shape == (obj.d, obj.d) for batch in bartlett)
    direct = [Batch(size=size,
                    data=rng.standard_normal((size, obj.d)) @ obj._sqrt_cov)
              for _ in range(N)]

    A = obj.Abar
    moment = sum(b.data.T @ b.data for b in bartlett) / (obj.d * N)
    moment_se = np.sqrt((A * A + np.outer(np.diag(A), np.diag(A)))
                        / (size * N))
    assert np.all(np.abs(moment - A) <= 5.0 * moment_se)

    g_bart = np.array([obj.batch_riem_grad(b, x).coords for b in bartlett])
    g_direct = np.array([obj.batch_riem_grad(b, x).coords for b in direct])
    pop = obj.full_riem_grad(x).coords
    se = g_bart.std(axis=0, ddof=1) / np.sqrt(N)
    assert np.all(np.abs(g_bart.mean(axis=0) - pop) <= 5.0 * se)

    log_ratio = np.log(g_bart.var(axis=0, ddof=1)
                       / g_direct.var(axis=0, ddof=1))
    band = 5.0 * np.sqrt(2.0 * (2.0 + 12.0 / size) / N)
    assert np.all(np.abs(log_ratio) <= band)


@pytest.mark.parametrize("size", [0, -3, True, 2.0, 64.0, "8", None])
def test_streaming_rejects_bad_batch_sizes(size):
    obj = StreamingRayleighInstance(d=3, spectrum=[2.0, 1.0, 0.5],
                                    rotation_seed=None)
    rng = np.random.default_rng(0)
    for sample in (obj.sample_minibatch, obj.sample_largebatch):
        with pytest.raises(ParameterError, match="integer >= 1"):
            sample(size, rng)
    # both samplers stay on the class itself, where tracing wraps them
    assert {"sample_minibatch", "sample_largebatch"} <= set(
        type(obj).__dict__)


def test_streaming_rejects_negative_covariance():
    with pytest.raises(ParameterError):
        StreamingRayleighInstance(d=3, spectrum=[2.0, 1.0, -0.1],
                                  rotation_seed=None)


# --------------------------------------------------------- epoch draws

def _index_sampler(n):
    """A finite-sum index sampler whose n is set to ``n``: the samplers read
    only n, so a small instance stands in for n = 2**31 components."""
    obj = copy.copy(RayleighInstance(d=4, n=8, spectrum=[2.0, 1.0, 0.5, 0.1],
                                     noise_scale=0.2, rotation_seed=None))
    obj.n = n
    return obj


def _state(gen):
    """The bit generator's whole state (counter, key, buffers) as a string."""
    return repr(gen.bit_generator.state)


# kind names the sampler's objective in the test ids; rayleigh is the one
@pytest.mark.parametrize("kind", ["rayleigh"])
@pytest.mark.parametrize("n, b, count", [
    (1000, 32, 32), (1000, 31, 17), (100, 1, 9), (7, 3, 4), (3, 33, 2),
    (2**31, 17, 5), (100, 100, 6)],
    ids=["even_b", "odd_b", "b1", "small_n", "b_above_n", "n_2_31", "b_n"])
@pytest.mark.parametrize("block", [problems.EPOCH_BLOCK, 7],
                         ids=["one_draw", "blocks"])
def test_epoch_draw_equals_per_step_draws_bitwise(kind, n, b, count, block,
                                                  monkeypatch):
    # after the stopping index, an epoch's one (count, b) draw gives every
    # step the batch its own sample_minibatch call gives, and leaves the tape
    # where the per-step draws leave it; b = n draws nothing
    monkeypatch.setattr(problems, "EPOCH_BLOCK", block)
    obj = _index_sampler(n)
    for seed in range(5):
        tape = master_stream(seed).child(TAG_BATCH, 0).generator()
        ref = master_stream(seed).child(TAG_BATCH, 0).generator()
        assert tape.integers(1, count + 1) == ref.integers(1, count + 1)
        state = _state(tape)
        epoch = obj.sample_epoch(b, count, tape)
        assert _state(tape) == state  # nothing drawn yet
        epoch = list(epoch)
        steps = [obj.sample_minibatch(b, ref) for _ in range(count)]
        assert len(epoch) == count
        for got, want in zip(epoch, steps):
            assert got.size == want.size == b
            if b == n:
                assert got.idx is None and want.idx is None
            else:
                assert got.idx.dtype == np.int64 and got.idx.shape == (b,)
                assert got.idx.tobytes() == want.idx.tobytes()
        assert _state(tape) == _state(ref)
        if b == n:
            assert _state(tape) == state


def test_epoch_draw_rejects_bad_minibatch_size_on_first_take():
    obj = _index_sampler(100)
    epoch = obj.sample_epoch(2**31 + 1, 3, np.random.default_rng(0))
    with pytest.raises(ParameterError, match="bad minibatch size"):
        next(epoch)
