"""Certification, Lanczos, variance and localization checkers, and the
coupled stuck-region experiment."""

from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from prsrg import (
    Certification,
    ContractViolation,
    Euclidean,
    ParameterError,
    PullbackOracle,
    QuadraticSaddleInstance,
    RayleighInstance,
    StreamingRayleighInstance,
    TangentVector,
    TssrgParams,
    certify,
    lanczos_min_eig,
    tssrg_run,
)
from prsrg.diagnostics import (_LANCZOS_SEED, LANCZOS_MAX_ITERS,
                               _hessian_lanczos, _lanczos_start)
from prsrg.rng import TAG_DIAG, TAG_OUTER, master_stream
from prsrg.trace import TraceRow, TraceSegment

from conftest import HESSIAN_KINDS, kind_oracle
from replay import (NotASaddle, check_improve_or_localize,
                    check_variance_bound, escape_threshold,
                    stuck_region_experiment)


def _params(**kw):
    base = dict(eta=0.05, m=5, b=5, B=50, T_max=50)
    base.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TssrgParams(**base)


# ------------------------------------------------------------ lanczos

def _flat_lanczos(matvec, n):
    """Lanczos on a plain operator: tangent vectors at the origin of R^n."""
    man = Euclidean(n)
    return lanczos_min_eig(matvec, man, man.point(np.zeros(n)))


def test_lanczos_known_diagonal():
    d = np.array([2.0, 1.0, -3.0])
    res = _flat_lanczos(lambda v: d * v, 3)
    assert res.converged
    assert res.value == pytest.approx(-3.0, abs=1e-8)
    assert res.iterations <= 3
    # eigenvector points along the -3 axis
    assert abs(res.vector[2]) == pytest.approx(1.0, abs=1e-8)


def test_lanczos_large_rotated_operator():
    rng = np.random.default_rng(0)
    Q, _ = np.linalg.qr(rng.standard_normal((40, 40)))
    lam = np.linspace(5.0, -2.0, 40)
    H = Q @ np.diag(lam) @ Q.T
    res = _flat_lanczos(lambda v: H @ v, 40)
    assert res.converged
    assert res.value == pytest.approx(-2.0, abs=1e-7)
    assert np.linalg.norm(H @ res.vector - res.value * res.vector) <= 1e-5


def test_lanczos_deterministic():
    rng = np.random.default_rng(1)
    H = rng.standard_normal((12, 12))
    H = 0.5 * (H + H.T)
    a = _flat_lanczos(lambda v: H @ v, 12)
    b = _flat_lanczos(lambda v: H @ v, 12)
    assert a.value == b.value and a.iterations == b.iterations


def test_lanczos_start_is_drawn_once_and_repeated_calls_agree_bitwise():
    rng = np.random.default_rng(3)
    H = rng.standard_normal((17, 17))
    H = 0.5 * (H + H.T)
    _lanczos_start.cache_clear()
    cold = _flat_lanczos(lambda v: H @ v, 17)
    start = _lanczos_start(17)
    # the memoised start is the fixed-seed draw, read-only, one per process
    fresh = (master_stream(_LANCZOS_SEED).child(TAG_DIAG).child(0)
             .generator().standard_normal(17))
    assert start.tobytes() == fresh.tobytes()
    assert _lanczos_start(17) is start and not start.flags.writeable
    for _ in range(2):
        warm = _flat_lanczos(lambda v: H @ v, 17)
        assert warm.value == cold.value
        assert warm.iterations == cold.iterations
        assert warm.vector.tobytes() == cold.vector.tobytes()
    assert _lanczos_start(17).tobytes() == fresh.tobytes()


def test_lanczos_unconverged_above_iteration_cap():
    # a dense spectrum in more dimensions than LANCZOS_MAX_ITERS: the run
    # stops at the cap and its smallest Ritz pair comes back unconverged
    d = np.linspace(0.0, 1.0, 2000)
    res = _flat_lanczos(lambda v: d * v, d.size)
    assert not res.converged
    assert res.iterations == LANCZOS_MAX_ITERS
    assert 0.0 <= res.value <= 1e-3
    assert res.value == pytest.approx(res.vector @ (d * res.vector),
                                      rel=1e-9)


def test_lanczos_validates_dimension():
    with pytest.raises(ParameterError):
        _flat_lanczos(lambda v: v, 0)


def _random_operators():
    """Seeded symmetric operators, diagonal and rotated, with spectra that
    straddle and clear several -delta thresholds."""
    for seed in range(4):
        for d in (6, 25, 80):
            rng = np.random.default_rng([seed, d])
            lam = rng.uniform(-1.0, 3.0, d)
            if seed % 2:
                lam -= lam.min() - rng.uniform(-0.3, 0.3)  # lambda_min near 0
            Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            yield lam, lam[:, None] * np.eye(d)
            yield lam, Q @ (lam[:, None] * Q.T)


def _hessian_clause(res, delta):
    """certify's Hessian clause on a Lanczos result."""
    tol = 1e-6 * max(abs(res.value), 1.0)
    return bool(res.converged and res.value >= -delta - tol)


def test_lanczos_stop_keeps_the_verdict():
    verdicts = set()
    for lam, H in _random_operators():
        full = _flat_lanczos(lambda v: H @ v, lam.size)
        hnorm = float(np.abs(lam).max())
        for delta in (0.05, 0.3, 1.0):
            man = Euclidean(lam.size)
            stopped = lanczos_min_eig(lambda v: H @ v, man,
                                      man.point(np.zeros(lam.size)),
                                      stop_below=-delta)
            verdict = _hessian_clause(full, delta)
            assert _hessian_clause(stopped, delta) == verdict
            verdicts.add(verdict)
            # a Ritz value bounds lambda_min, and the converged one, above
            assert stopped.value >= full.value - 1e-12 * hnorm
            assert stopped.iterations <= full.iterations
            if stopped.iterations < full.iterations:
                assert not stopped.converged and not verdict
    assert verdicts == {True, False}


def test_lanczos_stop_ends_at_first_disproving_ritz_value():
    # lambda_min = -3 against -delta = -0.5: the run stops well before the
    # residual test passes, unconverged, at an upper bound below -delta
    rng = np.random.default_rng(9)
    Q, _ = np.linalg.qr(rng.standard_normal((60, 60)))
    lam = np.concatenate(([-3.0], np.linspace(0.1, 2.0, 59)))
    H = Q @ (lam[:, None] * Q.T)
    man = Euclidean(60)
    full = _flat_lanczos(lambda v: H @ v, 60)
    stopped = lanczos_min_eig(lambda v: H @ v, man, man.point(np.zeros(60)),
                              stop_below=-0.5)
    assert full.converged and not stopped.converged
    assert stopped.iterations < full.iterations
    assert -3.0 - 1e-9 <= stopped.value < -0.5
    assert abs(np.linalg.norm(stopped.vector) - 1.0) <= 1e-12


def test_lanczos_stop_never_met_is_bit_identical():
    # a threshold below every Ritz value leaves the run as it was, to the
    # bit: same value, vector, iteration count and convergence flag
    for lam, H in _random_operators():
        d = lam.size
        man = Euclidean(d)
        x = man.point(np.zeros(d))
        full = lanczos_min_eig(lambda v: H @ v, man, x)
        kept = lanczos_min_eig(lambda v: H @ v, man, x,
                               stop_below=float(lam.min()) - 1.0)
        assert kept.value == full.value
        assert np.array_equal(kept.vector, full.vector)
        assert (kept.iterations, kept.converged) == (full.iterations,
                                                     full.converged)


# ------------------------------------------------------------ certify

@pytest.fixture
def clean_rayleigh():
    return RayleighInstance(d=3, n=10, spectrum=[2.0, 1.0, 0.0],
                            noise_scale=0.0, rotation_seed=None)


def test_certify_passes_at_minimizer(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(0))
    cert = certify(oracle, epsilon=1e-3, delta=0.5)
    assert cert.passed and cert.converged
    assert cert.grad_norm <= 1e-12
    # Hessian eigenvalues at v1 are 2(lambda_1 - lambda_j) >= 0
    assert cert.lambda_min_estimate >= -1e-6


def test_certify_fails_at_saddle(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(1))
    cert = certify(oracle, epsilon=1e-3, delta=0.5)
    assert not cert.passed
    assert cert.grad_norm <= 1e-12  # first-order clause holds
    assert cert.lambda_min_estimate == pytest.approx(-2.0, abs=0.01)


def test_certify_euclidean_psd_quadratic():
    obj = QuadraticSaddleInstance(d=6, gamma=-0.2, L_top=2.0, n=4,
                                  rotation_seed=2,
                                  noise_scale=0.0)  # gamma < 0: PSD spectrum
    oracle = PullbackOracle(obj, obj.manifold.point(np.zeros(6)))
    cert = certify(oracle, epsilon=1e-6, delta=0.1)
    assert cert.passed
    assert cert.lambda_min_estimate == pytest.approx(0.2, abs=1e-4)


def test_certify_scale_consistency():
    base_spec = np.array([2.0, 1.0, 0.4, 0.1])
    rng = np.random.default_rng(4)
    x_coords = rng.standard_normal(4)
    x_coords /= np.linalg.norm(x_coords)
    plain = RayleighInstance(d=4, n=12, spectrum=base_spec, noise_scale=0.2,
                             rotation_seed=None)
    ref = certify(PullbackOracle(plain, plain.manifold.point(x_coords)),
                  epsilon=1e-3, delta=0.5)
    for kappa in (0.5, 2.0):
        scaled = RayleighInstance(d=4, n=12, spectrum=kappa * base_spec,
                                  noise_scale=kappa * 0.2, rotation_seed=None)
        got = certify(PullbackOracle(scaled, scaled.manifold.point(x_coords)),
                      epsilon=kappa * 1e-3, delta=kappa * 0.5)
        assert got.grad_norm == pytest.approx(kappa * ref.grad_norm,
                                              rel=1e-9, abs=1e-12)
        assert got.lambda_min_estimate == pytest.approx(
            kappa * ref.lambda_min_estimate, rel=1e-7, abs=1e-9)
        assert got.passed == ref.passed


@pytest.mark.parametrize("kind", HESSIAN_KINDS)
def test_lanczos_matches_dense_hessian(kind):
    # the Hessian clause's eigenvalue against a dense eigh of the same
    # operator written in the tangent basis
    oracle = kind_oracle(kind)
    basis = oracle.manifold.tangent_basis(oracle.anchor)
    H = np.column_stack([
        basis.T @ oracle.hvp(TangentVector(oracle.anchor, col)).coords
        for col in basis.T])
    assert np.allclose(H, H.T, rtol=0.0, atol=1e-12)
    dense = float(np.linalg.eigvalsh(0.5 * (H + H.T))[0])
    cert = certify(oracle, epsilon=1e-3, delta=0.1)
    assert cert.converged
    assert abs(cert.lambda_min_estimate - dense) <= 1e-8
    # the Ritz vector comes back as a unit tangent vector at the anchor
    res = _hessian_lanczos(oracle)
    assert res.value == cert.lambda_min_estimate
    assert abs(np.linalg.norm(res.vector) - 1.0) <= 1e-12
    assert oracle.manifold.tangency_violation(oracle.anchor,
                                              res.vector) <= 1e-12


def test_certify_fails_at_saddle_when_delta_exceeds_lipschitz_probe():
    # sphere:30, n = 1024, noise 0.4: the probe's sampled l_hat (~1.42) is
    # below delta = 1.9, but the Hessian at e2 has lambda_min = -2 < -delta
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 28)))
    obj = RayleighInstance(d=30, n=1024, spectrum=spec, noise_scale=0.4,
                           rotation_seed=None)
    oracle = PullbackOracle(obj, obj.eigvec(1))
    cert = certify(oracle, epsilon=1e-3, delta=1.9)
    assert cert.grad_norm <= 1e-3  # the gradient clause holds
    assert not cert.passed
    assert abs(cert.lambda_min_estimate + 2.0) <= 1e-8
    assert oracle.diag_queries == cert.lanczos_iters * obj.n
    # online, Hessian actions are population quantities: exact and free
    online = kind_oracle("streaming_rayleigh")
    cert = certify(online, epsilon=1e-3, delta=0.1)
    assert cert.lanczos_iters > 0 and online.diag_queries == 0


@pytest.mark.parametrize("j", [0, 1])
def test_streaming_certify_uses_population_hessian(j):
    # the Hessian clause tests the population objective, as the gradient
    # clause does: at eigvec(j) the tangent Hessian eigenvalues are
    # -2(lambda_i - lambda_j) for i != j
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 18)))
    obj = StreamingRayleighInstance(20, spec, rotation_seed=5)
    oracle = PullbackOracle(obj, obj.eigvec(j))
    cert = certify(oracle, epsilon=1e-3, delta=0.1)
    expect = min(-2.0 * (obj.spectrum[i] - obj.spectrum[j])
                 for i in range(20) if i != j)
    assert abs(cert.lambda_min_estimate - expect) <= 1e-8
    assert oracle.diag_queries == 0


@pytest.mark.parametrize("kind", HESSIAN_KINDS)
def test_hessian_lanczos_shares_one_anchor_gradient(kind):
    # the anchor's Euclidean gradient, formed once per run, gives every
    # Hessian action the bits of one that forms it itself
    oracle = kind_oracle(kind)
    x = oracle.anchor
    ref = lanczos_min_eig(lambda v: oracle.hvp(TangentVector(x, v)).coords,
                          oracle.manifold, x)
    charged = oracle.diag_queries
    res = _hessian_lanczos(oracle)
    assert res.value == ref.value
    assert np.array_equal(res.vector, ref.vector)
    assert res.iterations == ref.iterations
    assert oracle.diag_queries == 2 * charged


def test_certify_stop_at_verdict(clean_rayleigh):
    # a passing certification is unchanged field for field; a failing one
    # keeps its verdict and stops no later
    for j, delta in ((0, 0.5), (1, 0.5), (2, 0.5), (1, 3.0)):
        x = clean_rayleigh.eigvec(j)
        full = certify(PullbackOracle(clean_rayleigh, x), 1e-3, delta)
        oracle = PullbackOracle(clean_rayleigh, x)
        fast = certify(oracle, 1e-3, delta, stop_at_verdict=True)
        assert fast.passed == full.passed
        if full.passed:
            assert fast == full
        else:
            assert fast.lanczos_iters <= full.lanczos_iters
            assert fast.lambda_min_estimate >= full.lambda_min_estimate - 1e-12
        assert oracle.diag_queries == fast.lanczos_iters * clean_rayleigh.n


def test_certify_validation(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(0))
    with pytest.raises(ParameterError):
        certify(oracle, epsilon=0.0, delta=0.1)
    with pytest.raises(ParameterError):
        certify(oracle, epsilon=1e-3, delta=-0.1)


def test_certification_record_shape(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(0))
    cert = certify(oracle, epsilon=1e-3, delta=0.5)
    d = cert.as_dict()
    assert set(d) == {"grad_norm", "lambda_min_estimate", "lanczos_iters",
                      "passed", "epsilon", "delta", "tolerance", "converged"}
    assert isinstance(cert, Certification)


# ------------------------------------------------------ variance checker

def test_variance_ratio_zero_for_exact_estimator(medium_rayleigh):
    rng = np.random.default_rng(0)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    u0 = medium_rayleigh.manifold.sample_ball(x, 0.05, rng)
    n = medium_rayleigh.n
    params = _params(eta=0.01, m=6, b=n, B=n, T_max=6)
    out = tssrg_run(oracle, u0, params, master_stream(1).child(TAG_OUTER, 0),
                    record=True)
    rep = check_variance_bound(out.segment, oracle, params, L_hat=6.0)
    assert rep.sup_ratio == 0.0


def test_variance_ratio_finite_for_stochastic_run(medium_rayleigh):
    rng = np.random.default_rng(2)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    u0 = medium_rayleigh.manifold.sample_ball(x, 0.05, rng)
    params = _params(eta=0.01, m=8, b=8, B=medium_rayleigh.n, T_max=16)
    out = tssrg_run(oracle, u0, params, master_stream(2).child(TAG_OUTER, 0),
                    record=True)
    rep = check_variance_bound(out.segment, oracle, params, L_hat=6.0)
    steps = [r for r in out.segment.rows
             if r.event in ("step", "uniform_break", "max_iter")]
    assert len(rep.ratios) == len(steps)
    assert 0.0 < rep.sup_ratio < math.inf
    assert rep.anchor_gaps  # anchors were measured too


def test_variance_online_term(medium_rayleigh):
    # an anchor with v = e, then one step of length ||eta e|| = 0.1 whose
    # estimate is off the exact gradient by 0.3 e
    x = medium_rayleigh.eigvec(0)
    oracle = PullbackOracle(medium_rayleigh, x)
    e = medium_rayleigh.eigvec(1).coords
    params = _params(eta=0.1, m=4, b=4, B=100, T_max=4)
    u1 = -0.1 * e
    v1 = oracle.exact_grad(TangentVector(x, u1)).coords + 0.3 * e
    seg = TraceSegment(u_vecs=[np.zeros_like(e), u1], v_vecs=[e, v1])
    seg.rows.append(TraceRow(0, 0, "", -1.0, 1.0, 0.0, 10, "anchor"))
    seg.rows.append(TraceRow(0, 1, "", -1.0, 0.4, 0.1, 14, "step"))
    rep = check_variance_bound(seg, oracle, params, L_hat=2.0,
                               sigma_hat=5.0)
    assert rep.online_term == pytest.approx(0.5)
    bound = (2.0 / 2.0) * 0.1 + 0.5
    assert rep.ratios[0] == pytest.approx(0.3 / bound)


def test_variance_requires_gap_recording(medium_rayleigh):
    rng = np.random.default_rng(3)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    u0 = medium_rayleigh.manifold.sample_ball(x, 0.05, rng)
    params = _params(eta=0.01, m=4, b=4, B=medium_rayleigh.n, T_max=4)
    out = tssrg_run(oracle, u0, params, master_stream(3).child(TAG_OUTER, 0))
    with pytest.raises(ContractViolation):
        check_variance_bound(out.segment, oracle, params, L_hat=6.0)


def test_variance_validates_inputs():
    with pytest.raises(ParameterError):
        check_variance_bound(TraceSegment(), None, _params(), L_hat=0.0)


# --------------------------------------------------- improve-or-localize

def test_localize_stationary_run_holds(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(1))
    params = _params(m=4, b=4, B=clean_rayleigh.n, T_max=4)
    out = tssrg_run(oracle, oracle.zero(), params,
                    master_stream(4).child(TAG_OUTER, 0), record=True)
    rep = check_improve_or_localize(out.segment, L_hat=6.0)
    assert rep.holds and bool(rep)
    assert rep.c1_fit == math.inf  # never moved
    assert rep.violations == []


def test_localize_descent_run(medium_rayleigh):
    rng = np.random.default_rng(5)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    n = medium_rayleigh.n
    params = _params(eta=0.02, m=10, b=n, B=n, T_max=10)
    u0 = medium_rayleigh.manifold.sample_ball(x, 0.01, rng)
    out = tssrg_run(oracle, u0, params, master_stream(5).child(TAG_OUTER, 0),
                    record=True)
    rep = check_improve_or_localize(out.segment, L_hat=6.0, c1=1e-3)
    assert rep.holds
    assert 0.0 < rep.c1_fit < math.inf


def test_localize_flags_increasing_objective():
    seg = TraceSegment(u_vecs=[np.zeros(2)])
    seg.rows.append(TraceRow(0, 0, "", 1.0, 0.5, 0.0, 10, "anchor"))
    # the iterate moved while F went up: no positive c1 can hold
    seg.rows.append(TraceRow(0, 1, "", 1.5, 0.5, 0.2, 14, "step"))
    seg.u_vecs.append(np.array([0.2, 0.0]))
    rep = check_improve_or_localize(seg, L_hat=2.0)
    assert not rep.holds
    assert rep.violations == [1]


def test_localize_requires_iterate_recording(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(1))
    params = _params(m=2, b=2, B=clean_rayleigh.n, T_max=2)
    out = tssrg_run(oracle, oracle.zero(), params,
                    master_stream(6).child(TAG_OUTER, 0))
    with pytest.raises(ContractViolation):
        check_improve_or_localize(out.segment, L_hat=6.0)


# ------------------------------------------------------ escape threshold

def test_escape_threshold_formula():
    th = escape_threshold(delta=0.1, rho_hat=2.0, c3=10.0)
    assert type(th) is float
    assert th == pytest.approx(0.1 ** 3 / (2 * 10.0 * 4.0))
    with pytest.raises(ParameterError):
        escape_threshold(delta=0.0, rho_hat=1.0)
    with pytest.raises(ParameterError):
        escape_threshold(delta=0.1, rho_hat=-1.0)
    # delta^3 underflows to 0: the threshold must still be positive
    with pytest.raises(ParameterError, match="escape threshold must be "
                       "positive"):
        escape_threshold(delta=1e-200, rho_hat=1.0)


# ------------------------------------------------- stuck-region experiment

def test_stuck_region_rejects_non_saddle(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(0))
    params = _params(B=clean_rayleigh.n)
    with pytest.raises(NotASaddle, match="not a certified saddle"):
        stuck_region_experiment(oracle, params, nu=0.1, trials=1,
                                stream=master_stream(0), rho_hat=1.0,
                                delta=0.1, r=0.01)


def test_stuck_region_zero_trials_and_r0_arithmetic():
    obj = QuadraticSaddleInstance(d=100, gamma=1.0, L_top=2.0, n=4,
                                  rotation_seed=None, noise_scale=0.0)
    oracle = PullbackOracle(obj, obj.manifold.point(np.zeros(100)))
    params = _params(eta=0.05, m=4, b=4, B=4, T_max=4)
    stats = stuck_region_experiment(oracle, params, nu=0.1, trials=0,
                                    stream=master_stream(1), rho_hat=1.0,
                                    delta=0.5, r=0.01)
    assert stats.trials == 0
    assert stats.deviation_freq == 0.0 and stats.decrease_freq == 0.0
    assert stats.r0 == pytest.approx(1e-4)  # 0.1 * 0.01 / sqrt(100)
    assert stats.lambda_min == pytest.approx(-1.0, abs=1e-6)


def test_stuck_region_deviation_time_closed_form():
    # exact quadratic, full batch: the pair separates at (1+eta*gamma)^t r0,
    # so the first crossing time is known in closed form
    gamma, eta = 1.0, 0.1
    obj = QuadraticSaddleInstance(d=16, gamma=gamma, L_top=2.0, n=8,
                                  rotation_seed=None, noise_scale=0.0)
    oracle = PullbackOracle(obj, obj.manifold.point(np.zeros(16)))
    nu, r, rho, delta, c2 = 0.1, 0.04, 1.0, 0.02, 1.0
    params = _params(eta=eta, m=200, b=obj.n, B=obj.n, T_max=200)
    stats = stuck_region_experiment(oracle, params, nu=nu, trials=3,
                                    stream=master_stream(2), rho_hat=rho,
                                    delta=delta, r=r, c2=c2)
    r0 = nu * r / 4.0
    t_star = math.ceil(math.log((delta / (c2 * rho)) / r0)
                       / math.log(1.0 + eta * gamma))
    assert stats.deviation_freq == 1.0
    for t in stats.deviation_times:
        assert t == t_star
    for dev in stats.deviations:
        for t in range(min(len(dev), t_star + 1)):
            assert dev[t] == pytest.approx((1 + eta * gamma) ** t * r0,
                                           rel=1e-9)


def test_stuck_region_rayleigh_saddle_escapes():
    obj = RayleighInstance(d=10, n=40, spectrum=np.concatenate(
        ([2.0, 1.0], np.linspace(0.9, 0.1, 8))), noise_scale=0.2,
        rotation_seed=None)
    x = obj.eigvec(1)
    oracle = PullbackOracle(obj, x)
    est = oracle.estimate_lipschitz(master_stream(0).child(8).generator())
    params = _params(eta=0.1 / est.L_hat, m=7, b=7, B=obj.n, T_max=300)
    # c2 sized so the threshold nu*D/sqrt(dim) is reachable inside the ball
    stats = stuck_region_experiment(oracle, params, nu=0.1, trials=20,
                                    stream=master_stream(3),
                                    rho_hat=est.rho_hat, delta=0.1, r=0.01,
                                    c2=6.0)
    assert stats.lambda_min <= -0.1
    assert stats.deviation_freq >= 0.9
    assert stats.decrease_freq >= 0.9
    # deviation times recorded for the hits
    hits = [t for t in stats.deviation_times if t >= 0]
    assert len(hits) == round(stats.deviation_freq * stats.trials)


def test_stuck_region_parameter_validation(clean_rayleigh):
    oracle = PullbackOracle(clean_rayleigh, clean_rayleigh.eigvec(1))
    params = _params(B=clean_rayleigh.n)
    with pytest.raises(ParameterError):
        stuck_region_experiment(oracle, params, nu=0.0, trials=1,
                                stream=master_stream(0), rho_hat=1.0,
                                delta=0.1, r=0.01)
    with pytest.raises(ParameterError):
        stuck_region_experiment(oracle, params, nu=0.1, trials=-1,
                                stream=master_stream(0), rho_hat=1.0,
                                delta=0.1, r=0.01)
