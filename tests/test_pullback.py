"""Pullback oracle: values, batch gradients, exact Hessian-vector products,
query accounting, and the empirical Lipschitz estimator."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from prsrg import (
    EmptyBatch,
    Euclidean,
    ManifoldPoint,
    OutOfBall,
    ParameterError,
    PullbackOracle,
    QuadraticSaddleInstance,
    RayleighInstance,
    StreamingRayleighInstance,
    TangentVector,
)
from prsrg.pullback import HVP_FD_STEP, Batch
from prsrg.rng import StreamTree

from conftest import (HESSIAN_KINDS, fd_hvp, fd_pullback_grad, kind_oracle,
                      oracle_at)


def _indexed(idx):
    """The batch of an explicit index multiset."""
    idx = np.asarray(idx, dtype=np.int64)
    return Batch(size=len(idx), idx=idx)


# ------------------------------------------------------------ values

def test_value_at_zero_is_objective_value(small_rayleigh):
    x = small_rayleigh.manifold.point(np.array([0.0, 1.0, 0.0]))
    oracle = oracle_at(small_rayleigh, x)
    # F(e2) = -e2^T diag(2,1,0) e2 = -1
    assert oracle.value(oracle.zero()) == pytest.approx(-1.0, abs=1e-12)
    assert oracle.value(oracle.zero()) == pytest.approx(small_rayleigh.value(x))


def test_value_pulls_back_through_retraction():
    # noiseless instance so F is exactly -y^T Abar y
    obj = RayleighInstance(d=3, n=4, spectrum=[2.0, 1.0, 0.0],
                           noise_scale=0.0, rotation_seed=None)
    man = obj.manifold
    x = man.point(np.array([1.0, 0.0, 0.0]))
    oracle = PullbackOracle(obj, x)
    u = oracle.manifold.tangent(oracle.anchor, np.array([0.0, 0.3, 0.0]))
    y = man.retract(x, u)
    expect = -float(y.coords @ (np.diag([2.0, 1.0, 0.0]) @ y.coords))
    assert oracle.value(u) == pytest.approx(expect, abs=1e-14)


def test_value_out_of_ball(small_rayleigh):
    x = small_rayleigh.manifold.point(np.array([1.0, 0.0, 0.0]))
    oracle = oracle_at(small_rayleigh, x)
    far = TangentVector(x, np.array([0.0, 0.9, 0.0]))
    with pytest.raises(OutOfBall):
        oracle.value(far)


# ------------------------------------------------------------ gradients

def _reference_grad(oracle, batch, u):
    """A pullback gradient as retract-then-adjoint: R_x(u), the batch's
    Riemannian gradient there, then T_u*, which forms x + u and its norm
    once more (Euclidean space: x + u and the identity)."""
    man, xc = oracle.manifold, oracle.anchor.coords
    if isinstance(man, Euclidean):
        y = ManifoldPoint(xc + u, man.manifold_id)
        return oracle.objective.batch_riem_grad(batch, y).coords
    y = ManifoldPoint((xc + u) / np.linalg.norm(xc + u), man.manifold_id)
    g = oracle.objective.batch_riem_grad(batch, y).coords
    return (g - (g @ xc) * xc) / np.linalg.norm(xc + u)


@pytest.mark.parametrize("kind", ["rayleigh", "streaming_rayleigh",
                                  "quadratic_saddle"])
def test_grad_equals_retract_then_adjoint_reference_bitwise(kind):
    # _grad hands the retraction's scale to the adjoint instead of forming
    # x + u again; every gradient keeps its bits, at the ball's edge too.
    # An inner step's one stacked call, _grad_pair at u and the previous u,
    # gives both gradients the same bits and F those of value(); streaming
    # b = 64 > d draws pseudo-rows, and b = n is the exhaustive batch
    oracle = kind_oracle(kind)
    man, x, n = oracle.manifold, oracle.anchor, oracle.objective.n
    rng = np.random.default_rng(6)
    edge = man.sample_ball(x, man.D, rng).coords
    us = [np.zeros(man.ambient_dim), edge * ((1.0 - 1e-12) * man.D
                                             / np.linalg.norm(edge))]
    us += [man.sample_ball(x, man.D, rng).coords for _ in range(20)]
    for u, u_prev in zip(us, us[-1:] + us[:-1]):
        # the exhaustive batch, b = n, draws nothing from rng
        for b in (1, 7, 64) if n is None else (1, 7, 64, n):
            batch = oracle.objective.sample_minibatch(b, rng)
            before = oracle.queries
            got = oracle._grad(batch, u)
            assert oracle.queries == before + b
            assert np.array_equal(got, _reference_grad(oracle, batch, u))
            g_next, g_prev, F = oracle._grad_pair(batch, u, u_prev)
            assert oracle.queries == before + 3 * b
            assert np.array_equal(g_next, got)
            assert np.array_equal(g_prev,
                                  _reference_grad(oracle, batch, u_prev))
            assert F == oracle.value(TangentVector(x, u))


def test_full_gradient_at_zero_matches_riemannian(medium_rayleigh):
    rng = np.random.default_rng(3)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = oracle_at(medium_rayleigh, x)
    g = oracle.grad_batch(_indexed(np.arange(medium_rayleigh.n)),
                          oracle.zero())
    expect = medium_rayleigh.full_riem_grad(x)
    assert np.allclose(g.coords, expect.coords, atol=1e-10)


def test_gradient_zero_at_eigenvector(small_rayleigh):
    x = small_rayleigh.eigvec(1)
    oracle = oracle_at(small_rayleigh, x)
    g = oracle.grad_batch(_indexed(np.arange(small_rayleigh.n)),
                          oracle.zero())
    # eigenvectors are critical points of the Rayleigh quotient
    assert np.linalg.norm(g.coords) < 1e-12


def test_gradient_matches_finite_differences(medium_rayleigh):
    rng = np.random.default_rng(11)
    man = medium_rayleigh.manifold
    for _ in range(5):
        x = man.rand_point(rng)
        oracle = oracle_at(medium_rayleigh, x)
        u = man.sample_ball(x, 0.3, rng)
        g = oracle.exact_grad(u)
        fd = fd_pullback_grad(oracle, u)
        rel = np.linalg.norm(g.coords - fd) / max(np.linalg.norm(fd), 1e-30)
        assert rel <= 1e-5


def test_empty_batch_rejected(small_rayleigh):
    x = small_rayleigh.eigvec(0)
    oracle = oracle_at(small_rayleigh, x)
    with pytest.raises(EmptyBatch):
        oracle.grad_batch(_indexed([]), oracle.zero())


def test_gradient_out_of_ball(small_rayleigh):
    x = small_rayleigh.manifold.point(np.array([1.0, 0.0, 0.0]))
    oracle = oracle_at(small_rayleigh, x)
    far = TangentVector(x, np.array([0.0, 0.7, 0.0]))
    with pytest.raises(OutOfBall):
        oracle.grad_batch(_indexed([0, 1]), far)


# ---------------------------------------------------- large-batch draws

def test_exhaustive_batch_is_exact_and_samples_nothing(medium_rayleigh):
    rng = np.random.default_rng(0)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = oracle_at(medium_rayleigh, x)
    u = medium_rayleigh.manifold.sample_ball(x, 0.2, rng)
    state_before = rng.bit_generator.state
    g_big = oracle.grad_largebatch(medium_rayleigh.n, u, rng)
    # B = n short-circuits to the full sum without touching the generator
    assert rng.bit_generator.state == state_before
    g_all = oracle.grad_batch(_indexed(np.arange(medium_rayleigh.n)), u)
    assert np.array_equal(g_big.coords, g_all.coords)


def test_singleton_batch_is_single_component(small_rayleigh):
    x = small_rayleigh.eigvec(2)
    oracle = oracle_at(small_rayleigh, x)
    u = oracle.zero()
    g1 = oracle.grad_batch(_indexed([7]), u)
    expect = small_rayleigh.batch_riem_grad(_indexed([7]), x)
    assert np.allclose(g1.coords, expect.coords, atol=1e-12)


def test_largebatch_exceeding_n_rejected(small_rayleigh):
    rng = np.random.default_rng(1)
    x = small_rayleigh.eigvec(0)
    oracle = oracle_at(small_rayleigh, x)
    with pytest.raises(ParameterError):
        oracle.grad_largebatch(small_rayleigh.n + 1, oracle.zero(), rng)


def test_streaming_largebatch_concentrates():
    obj = StreamingRayleighInstance(d=10, spectrum=np.linspace(2.0, 0.1, 10),
                                    rotation_seed=None)
    man = obj.manifold
    B = 10_000
    sigma = obj.sigma_hint
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = man.rand_point(rng)
        oracle = PullbackOracle(obj, x)
        g = oracle.grad_largebatch(B, oracle.zero(), rng)
        gap = np.linalg.norm(g.coords - obj.full_riem_grad(x).coords)
        assert gap <= 4.0 * sigma / np.sqrt(B)


def test_minibatch_unbiased(medium_rayleigh):
    rng = np.random.default_rng(21)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = oracle_at(medium_rayleigh, x)
    u = medium_rayleigh.manifold.sample_ball(x, 0.2, rng)
    target = oracle.exact_grad(u).coords
    acc = np.zeros_like(target)
    N = 4000
    for _ in range(N):
        batch = medium_rayleigh.sample_minibatch(1, rng)
        acc += oracle.grad_batch(batch, u).coords
    err = np.linalg.norm(acc / N - target)
    scale = max(np.linalg.norm(target), 1.0)
    # Monte-Carlo 1/sqrt(N) rate with a generous constant
    assert err <= 8.0 * scale / np.sqrt(N)


# ------------------------------------------------------------ HVP

def test_hvp_linear_gradient_is_exact():
    obj = QuadraticSaddleInstance(d=6, gamma=1.0, L_top=2.0, n=8,
                                  rotation_seed=3, noise_scale=0.0)
    man = obj.manifold
    rng = np.random.default_rng(5)
    x = man.point(np.zeros(6))
    oracle = PullbackOracle(obj, x)
    v = man.tangent(x, rng.standard_normal(6))
    got = oracle.hvp(v)
    assert np.allclose(got.coords, obj.Abar @ v.coords, rtol=0.0, atol=1e-12)


def test_hvp_rayleigh_eigen_direction(small_rayleigh):
    x = small_rayleigh.eigvec(1)
    oracle = oracle_at(small_rayleigh, x)
    v = oracle.manifold.tangent(oracle.anchor, np.array([1.0, 0.0, 0.0]))
    got = oracle.hvp(v)
    # Hessian eigenvalue -2(lambda_1 - lambda_2) = -2 along e1
    assert np.allclose(got.coords, -2.0 * v.coords, atol=1e-12)
    spectrum = small_rayleigh.spectrum
    assert -2.0 * (spectrum[0] - spectrum[1]) == pytest.approx(-2.0)


def test_hvp_symmetry(medium_rayleigh):
    rng = np.random.default_rng(17)
    man = medium_rayleigh.manifold
    x = man.rand_point(rng)
    oracle = oracle_at(medium_rayleigh, x)
    for _ in range(5):
        v = man.tangent(x, man.project_ambient(x, rng.standard_normal(30)))
        w = man.tangent(x, man.project_ambient(x, rng.standard_normal(30)))
        lhs = oracle.hvp(v).coords @ w.coords
        rhs = v.coords @ oracle.hvp(w).coords
        assert abs(lhs - rhs) <= 1e-12 * v.norm * w.norm


def test_hvp_matches_analytic_hessian_at_zero(small_rayleigh):
    # second-order retraction: pullback Hessian at 0 equals the Riemannian
    # Hessian; at eigvec(2) the tangent eigenvalues are -2(l_i - l_2)
    x = small_rayleigh.eigvec(2)
    oracle = oracle_at(small_rayleigh, x)
    for i, expect in ((0, -4.0), (1, -2.0)):
        v = oracle.manifold.tangent(oracle.anchor, np.eye(3)[i])
        got = oracle.hvp(v)
        assert np.allclose(got.coords, expect * v.coords, atol=1e-12)


def test_hvp_zero_direction(small_rayleigh):
    x = small_rayleigh.eigvec(0)
    oracle = oracle_at(small_rayleigh, x)
    out = oracle.hvp(oracle.zero())
    assert np.all(out.coords == 0.0)


@pytest.mark.parametrize("kind", HESSIAN_KINDS)
def test_hvp_matches_fd_of_pullback_gradient(kind):
    # the closed form against the only finite-difference HVP left: a
    # central difference of the full-batch pullback gradient at u = 0
    oracle = kind_oracle(kind)
    man = oracle.manifold
    rng = np.random.default_rng(21)
    for _ in range(3):
        v = man.sample_ball(oracle.anchor, 1.0, rng)
        got = oracle.hvp(v).coords
        ref = fd_hvp(oracle, v)
        assert np.linalg.norm(got - ref) <= 1e-6 * np.linalg.norm(ref)
        assert man.tangency_violation(oracle.anchor, got) <= 1e-12


# ----------------------------------------------------- query accounting

def test_query_counter_tallies_batch_sizes(medium_rayleigh):
    rng = np.random.default_rng(2)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = oracle_at(medium_rayleigh, x)
    u = oracle.zero()
    assert oracle.queries == 0
    oracle.grad_batch(_indexed([1, 5, 5]), u)
    assert oracle.queries == 3
    oracle.grad_largebatch(40, u, rng)
    assert oracle.queries == 43
    oracle.value(u)
    assert oracle.queries == 43  # values are free


def test_diagnostic_calls_never_touch_optimizer_counter(medium_rayleigh):
    rng = np.random.default_rng(2)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = oracle_at(medium_rayleigh, x)
    u = oracle.zero()
    man = medium_rayleigh.manifold
    v = man.tangent(x, man.tangent_basis(x)[:, 0])
    oracle.exact_grad(u)
    oracle.hvp(v)
    assert oracle.queries == 0
    # one Hessian action charges its batch size, n in finite-sum mode;
    # exact gradients are free
    assert oracle.diag_queries == medium_rayleigh.n


# ------------------------------------------------------ lipschitz probe

def test_estimate_lipschitz_dominates_observed_quotients(medium_rayleigh):
    rng = np.random.default_rng(13)
    man = medium_rayleigh.manifold
    x = man.rand_point(rng)
    oracle = oracle_at(medium_rayleigh, x)
    est = oracle.estimate_lipschitz(np.random.default_rng(0), pairs=200)
    assert est.l_hat > 0 and est.rho_hat >= 0
    assert est.L_hat == pytest.approx(est.l_hat + est.rho_hat * man.D)
    # fresh probe pairs stay under the 1.2x-margin estimate
    D = man.D * 0.9
    for _ in range(30):
        u = man.sample_ball(x, D, rng)
        v = man.sample_ball(x, D, rng)
        du = np.linalg.norm(u.coords - v.coords)
        if du < 1e-9:
            continue
        gu = oracle.exact_grad(u).coords
        gv = oracle.exact_grad(v).coords
        assert np.linalg.norm(gu - gv) / du <= est.L_hat * 1.05


def test_lipschitz_estimate_is_deterministic(medium_rayleigh):
    x = medium_rayleigh.eigvec(0)
    oracle = oracle_at(medium_rayleigh, x)
    a = oracle.estimate_lipschitz(StreamTree(4).child(1).generator())
    b = oracle.estimate_lipschitz(StreamTree(4).child(1).generator())
    assert (a.l_hat, a.rho_hat, a.L_hat) == (b.l_hat, b.rho_hat, b.L_hat)


def _reference_probe(oracle, rng, pairs):
    """The Lipschitz probe one pair at a time, through the public oracle:
    two exact gradients per pair and a central-difference Hessian action at
    u and at v, four more."""
    man, x = oracle.manifold, oracle.anchor
    D = man.D

    def central_hvp(u, w):
        nv = w.norm
        s = HVP_FD_STEP * max(1.0, nv)
        step = (s / nv) * w.coords
        gp = oracle.exact_grad(TangentVector(x, u.coords + step))
        gm = oracle.exact_grad(TangentVector(x, u.coords - step))
        return man.project_ambient(
            x, (gp.coords - gm.coords) * (nv / (2.0 * s)))

    Dp = D * 0.99 - HVP_FD_STEP * (1.0 + D)
    l_max = r_max = 0.0
    for _ in range(pairs):
        u = man.sample_ball(x, Dp, rng)
        v = man.sample_ball(x, Dp, rng)
        du = float(np.linalg.norm(u.coords - v.coords))
        if du < 1e-12:
            continue
        gu = oracle.exact_grad(u)
        gv = oracle.exact_grad(v)
        l_max = max(l_max, float(np.linalg.norm(gu.coords - gv.coords)) / du)
        w = man.sample_ball(x, 1.0 if D >= 1.0 else D, rng)
        nw = w.norm
        if nw < 1e-12:
            continue
        w = TangentVector(x, w.coords / nw)
        hu, hv = central_hvp(u, w), central_hvp(v, w)
        r_max = max(r_max, float(np.linalg.norm(hu - hv)) / du)
    return 1.2 * l_max, 1.2 * r_max, 1.2 * l_max + 1.2 * r_max * D


def _probe_oracle(kind):
    if kind == "rotated_sphere200":
        spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 198)))
        obj = RayleighInstance(d=200, n=400, spectrum=spec, noise_scale=0.4,
                               rotation_seed=11)
        return PullbackOracle(obj, obj.eigvec(1))
    if kind == "streaming_rayleigh":
        obj = StreamingRayleighInstance(d=20,
                                        spectrum=np.linspace(2.0, 0.1, 20),
                                        rotation_seed=3)
        return PullbackOracle(obj, obj.eigvec(1))
    obj = QuadraticSaddleInstance(d=10, gamma=1.0, L_top=2.0, n=30,
                                  rotation_seed=3, noise_scale=0.1)
    rng = np.random.default_rng(2)
    return PullbackOracle(obj, obj.manifold.rand_point(rng))


def _plain(state):
    """A bit-generator state with its arrays as lists, comparable by ==."""
    return {k: _plain(v) if isinstance(v, dict) else np.asarray(v).tolist()
            for k, v in state.items()}


def _with_skipped_pairs(monkeypatch, man):
    """Make every fifth pair draw v equal to u (no w is drawn and the pair
    adds nothing) and every third w zero (the pair adds no Hessian
    quotient). The generator still advances as without the patch."""
    draw = type(man).sample_ball
    pair_draws, w_draws = itertools.count(), itertools.count()
    last = []

    def sample_ball(x, r, rng):
        out = draw(man, x, r, rng)
        if r == min(1.0, man.D):
            return man.zero_tangent(x) if next(w_draws) % 3 == 1 else out
        i = next(pair_draws)
        if i % 10 == 1:
            out = last[0]
        last[:] = [out]
        return out

    monkeypatch.setattr(man, "sample_ball", sample_ball)


@pytest.mark.parametrize("pairs", [1, 37, 200])
@pytest.mark.parametrize("kind", ["rotated_sphere200", "streaming_rayleigh",
                                  "quadratic_saddle", "skipped_pairs"])
def test_blocked_probe_equals_pair_at_a_time_reference(kind, pairs,
                                                       monkeypatch):
    oracle = _probe_oracle("rotated_sphere200" if kind == "skipped_pairs"
                           else kind)
    runs = []
    for probe in (lambda rng: _reference_probe(oracle, rng, pairs),
                  lambda rng: oracle.estimate_lipschitz(rng, pairs=pairs)):
        if kind == "skipped_pairs":
            _with_skipped_pairs(monkeypatch, oracle.manifold)
        rng = StreamTree(19).child(pairs).generator()
        runs.append((probe(rng), _plain(rng.bit_generator.state)))
    (ref, ref_state), (est, est_state) = runs
    assert (est.l_hat, est.rho_hat, est.L_hat) == ref
    assert est_state == ref_state
    assert oracle.queries == 0 and oracle.diag_queries == 0
