"""Tangent-space epochs: recursion exactness, boundary exit, uniform break,
iteration cap, coupled tapes, and query accounting."""

from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from prsrg import (
    ContractViolation,
    ExitReason,
    NumericalFailure,
    OutOfBall,
    ParameterError,
    PullbackOracle,
    QuadraticSaddleInstance,
    RayleighInstance,
    StreamingRayleighInstance,
    TangentVector,
    TssrgParams,
    boundary_alpha,
    tssrg_run,
)
from prsrg.geometry import _norm
from prsrg.rng import TAG_ANCHOR, TAG_BATCH, TAG_OUTER, master_stream
from prsrg.trace import _STEP_EVENTS

from replay import estimator_gap


def _params(**kw):
    base = dict(eta=0.1, m=4, b=4, B=8, T_max=100)
    base.update(kw)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TssrgParams(**base)


def _quadratic_oracle(d=4, gamma=1.0, noise=0.0, n=8, seed=None):
    obj = QuadraticSaddleInstance(d=d, gamma=gamma, L_top=2.0, n=n,
                                  rotation_seed=seed, noise_scale=noise)
    x0 = obj.manifold.point(np.zeros(d))
    return obj, PullbackOracle(obj, x0)


# ------------------------------------------------------------ parameters

def test_params_validation():
    with pytest.raises(ParameterError):
        _params(eta=0.0)
    with pytest.raises(ParameterError):
        _params(eta=float("nan"))
    with pytest.raises(ParameterError):
        _params(m=0)
    with pytest.raises(ParameterError):
        _params(b=-1)
    with pytest.raises(ParameterError):
        _params(T_max=0)


def test_small_minibatch_warns_not_raises():
    with pytest.warns(UserWarning, match="b=2 below epoch length m=8"):
        TssrgParams(eta=0.1, m=8, b=2, B=8, T_max=10)


# ------------------------------------------------------------ boundary exit

def test_boundary_alpha_worked_example():
    # 0.9 + 0.5*alpha = 1  =>  alpha = 0.2
    alpha = boundary_alpha(np.array([0.9, 0.0]), np.array([-0.5, 0.0]), 1.0)
    assert alpha == pytest.approx(0.2, abs=1e-15)


def test_boundary_alpha_step_whose_square_overflows():
    # ||w||^2 = 5e600 is inf in float64; the crossing must still be found
    w = np.full(5, 1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        alpha = boundary_alpha(np.zeros(5), w, 0.5)
    assert 0.0 < alpha <= 1.0
    assert np.linalg.norm(alpha * w) == pytest.approx(0.5, abs=1e-12)


def _boundary_run(obj):
    """One step from u0 = 0.45 e2 along the fixed anchor gradient -e2 at e1
    on the sphere: 0.45 + eta = 0.95 leaves the ball D = 0.5 at alpha =
    0.1."""
    oracle = PullbackOracle(obj, obj.eigvec(0))
    e2 = obj.eigvec(1).coords
    u0 = oracle.manifold.tangent(oracle.anchor, 0.45 * e2)
    v_fixed = oracle.manifold.tangent(oracle.anchor, -e2)
    params = _params(eta=0.5, b=obj.n, B=obj.n)
    out = tssrg_run(oracle, u0, params, master_stream(0).child(TAG_OUTER, 0),
                    anchor_grad=v_fixed)
    return oracle, out


def test_boundary_exit_outcome(small_rayleigh):
    _, out = _boundary_run(small_rayleigh)
    assert small_rayleigh.manifold.D == 0.5
    assert out.exit is ExitReason.BOUNDARY
    assert out.iterations == 1
    assert np.allclose(out.u_final.coords,
                       0.5 * small_rayleigh.eigvec(1).coords, atol=1e-12)
    assert out.u_final.norm == pytest.approx(0.5, abs=1e-10)
    assert out.segment.rows[-1].event == "boundary"


@settings(max_examples=150, deadline=None)
@given(st.lists(st.floats(-2.0, 2.0), min_size=3, max_size=3),
       st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3),
       st.floats(0.3, 1.5))
def test_boundary_alpha_lands_on_sphere(u_list, w_list, D):
    u = np.asarray(u_list)
    w = np.asarray(w_list)
    nu = np.linalg.norm(u)
    if nu >= D:
        u = u * (0.8 * D / max(nu, 1e-9))
    if np.linalg.norm(u - w) < D or np.linalg.norm(w) < 1e-9:
        return  # precondition: the full step crosses the boundary
    alpha = boundary_alpha(u, w, D)
    assert 0.0 < alpha <= 1.0
    assert np.linalg.norm(u - alpha * w) == pytest.approx(D, rel=1e-10)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.floats(0.05, 5.0),
       st.floats(1e-12, 1e-6), st.floats(-1e-6, 1e-6), st.floats(1e-3, 4.0))
def test_boundary_alpha_near_tangent_step(seed, dim, D, gap, tilt, scale):
    # u_prev within gap*D of the sphere, w almost orthogonal to it: the
    # crossing quadratic has c = ||u||^2 - D^2 ~ -2 gap D^2 and uw ~ 0
    rng = np.random.default_rng(seed)
    g = rng.standard_normal(dim)
    u_hat = g / np.linalg.norm(g)
    h = rng.standard_normal(dim)
    h -= (h @ u_hat) * u_hat
    t_hat = h / np.linalg.norm(h)
    u = (D * (1.0 - gap)) * u_hat
    w = scale * D * (t_hat + tilt * u_hat)
    if not (np.linalg.norm(u) < D <= np.linalg.norm(u - w)):
        return  # precondition: inside the ball, and the full step crosses
    alpha = boundary_alpha(u, w, D)
    assert 0.0 < alpha <= 1.0
    assert np.linalg.norm(u - alpha * w) == pytest.approx(D, rel=1e-10)


def test_iterates_stay_in_ball(small_rayleigh):
    # a perturbed start at the saddle e2 escapes to the sphere's ball edge
    x = small_rayleigh.eigvec(1)
    oracle = PullbackOracle(small_rayleigh, x)
    D = oracle.manifold.D
    u0 = small_rayleigh.manifold.sample_ball(x, 0.05,
                                             np.random.default_rng(3))
    params = _params(eta=0.3, m=6, b=8, B=small_rayleigh.n, T_max=200)
    out = tssrg_run(oracle, u0, params, master_stream(1).child(TAG_OUTER, 0))
    assert out.exit is ExitReason.BOUNDARY
    for row in out.segment.rows:
        assert row.u_norm <= D * (1.0 + 1e-12)
    assert out.segment.rows[-1].u_norm == pytest.approx(D, abs=1e-12)


# ----------------------------------------------------- recursion exactness

def test_full_batch_recursion_telescopes(medium_rayleigh):
    rng = np.random.default_rng(0)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    u0 = medium_rayleigh.manifold.sample_ball(x, 0.05, rng)
    n = medium_rayleigh.n
    params = _params(eta=0.01, m=8, b=n, B=n, T_max=8)
    out = tssrg_run(oracle, u0, params, master_stream(2).child(TAG_OUTER, 0),
                    record=True)
    assert out.exit is ExitReason.MAX_ITER
    gaps = [estimator_gap(oracle, u, v)
            for u, v in zip(out.segment.u_vecs, out.segment.v_vecs)]
    assert max(gaps) <= 1e-8


def test_forced_break_when_m_is_one(small_rayleigh):
    x = small_rayleigh.eigvec(1)
    oracle = PullbackOracle(small_rayleigh, x)
    params = _params(m=1, b=1, B=small_rayleigh.n, T_max=50)
    out = tssrg_run(oracle, oracle.zero(), params,
                    master_stream(3).child(TAG_OUTER, 0))
    # k=1 break probability 1/(m-k+1) = 1
    assert out.exit is ExitReason.UNIFORM_BREAK
    assert out.iterations == 1


def test_linear_recursion_closed_form():
    obj, oracle = _quadratic_oracle(d=5, gamma=1.0)
    rng = np.random.default_rng(7)
    u0_vec = 1e-3 * rng.standard_normal(5)
    u0 = oracle.manifold.tangent(oracle.anchor, u0_vec)
    eta, T = 0.1, 30
    params = _params(eta=eta, m=T, b=obj.n, B=obj.n, T_max=T)
    out = tssrg_run(oracle, u0, params, master_stream(4).child(TAG_OUTER, 0),
                    record=True)
    M = np.eye(5) - eta * obj.Abar
    expect = u0_vec.copy()
    for t in range(1, T + 1):
        expect = M @ expect
        got = out.segment.u_vecs[t]
        assert np.linalg.norm(got - expect) <= 1e-10 * max(
            np.linalg.norm(expect), 1.0)


# ------------------------------------------------------------ breaks

def test_max_iter_takes_precedence_over_break(small_rayleigh):
    x = small_rayleigh.eigvec(1)
    oracle = PullbackOracle(small_rayleigh, x)
    params = _params(m=5, b=5, B=small_rayleigh.n, T_max=5)
    # unperturbed run from a critical point: only break events can end it;
    # at t = T_max the cap fires even though k = m would force a break too
    for seed in range(10):
        o = PullbackOracle(small_rayleigh, x)
        out = tssrg_run(o, o.zero(), params,
                        master_stream(seed).child(TAG_OUTER, 0))
        assert out.iterations <= 5
        if out.iterations == 5:
            assert out.exit is ExitReason.MAX_ITER
        else:
            assert out.exit is ExitReason.UNIFORM_BREAK


def test_perturbed_run_never_breaks_early():
    obj, oracle = _quadratic_oracle(d=3, gamma=0.5)
    u0 = oracle.manifold.tangent(oracle.anchor, np.array([1e-4, 0.0, 0.0]))
    params = _params(eta=0.01, m=4, b=obj.n, B=obj.n, T_max=20)
    out = tssrg_run(oracle, u0, params, master_stream(5).child(TAG_OUTER, 0))
    assert out.exit is ExitReason.MAX_ITER
    assert out.iterations == 20


def test_stopping_index_uniform_chi_square(small_rayleigh):
    # unperturbed runs stop at an index uniform on {1..m}; the k = m mass
    # arrives via the iteration cap when T_max = m
    m = 4
    params = _params(m=m, b=4, B=small_rayleigh.n, T_max=m)
    x = small_rayleigh.eigvec(1)
    N = 10_000
    counts = np.zeros(m, dtype=int)
    for seed in range(N):
        oracle = PullbackOracle(small_rayleigh, x)
        out = tssrg_run(oracle, oracle.zero(), params,
                        master_stream(seed).child(TAG_OUTER, 0))
        counts[out.iterations - 1] += 1
    assert counts.sum() == N
    chi2 = float(((counts - N / m) ** 2 / (N / m)).sum())
    assert chi2 < stats.chi2.ppf(0.99, df=m - 1)


# ------------------------------------------------------------ coupling

def test_coupled_equal_starts_identical(medium_rayleigh):
    rng = np.random.default_rng(1)
    x = medium_rayleigh.manifold.rand_point(rng)
    u0 = medium_rayleigh.manifold.sample_ball(x, 0.02, rng)
    params = _params(eta=0.02, m=4, b=4, B=32, T_max=12)
    oracle = PullbackOracle(medium_rayleigh, x)
    stream = master_stream(9).child(TAG_OUTER, 0)
    a = tssrg_run(oracle, u0, params, stream, record=True)
    b = tssrg_run(oracle, u0, params, stream, record=True)
    assert a.exit == b.exit and a.iterations == b.iterations
    assert np.array_equal(a.u_final.coords, b.u_final.coords)
    for ua, ub in zip(a.segment.u_vecs, b.segment.u_vecs):
        assert np.array_equal(ua, ub)


def test_coupled_difference_grows_at_exact_rate():
    # full batch: the difference sequence obeys the linear recursion exactly,
    # so along the -gamma eigenvector its norm is (1 + eta*gamma)^t * r0
    gamma, eta, T = 1.0, 0.05, 40
    obj, oracle = _quadratic_oracle(d=6, gamma=gamma)
    e1 = obj.rotation[:, 0]
    r0 = 1e-8
    # both starts perturbed so neither sequence breaks before T
    u0a = oracle.manifold.tangent(oracle.anchor, -0.5 * r0 * e1)
    u0b = oracle.manifold.tangent(oracle.anchor, 0.5 * r0 * e1)
    params = _params(eta=eta, m=T, b=obj.n, B=obj.n, T_max=T)
    stream = master_stream(11).child(TAG_OUTER, 0)
    a = tssrg_run(oracle, u0a, params, stream, record=True)
    b = tssrg_run(oracle, u0b, params, stream, record=True)
    assert a.exit is ExitReason.MAX_ITER and b.exit is ExitReason.MAX_ITER
    for t in range(T + 1):
        dev = np.linalg.norm(a.segment.u_vecs[t] - b.segment.u_vecs[t])
        expect = (1.0 + eta * gamma) ** t * r0
        assert dev == pytest.approx(expect, rel=1e-10)


class _MinibatchRecorder:
    """Delegating objective that keeps every minibatch it samples: the
    inner steps take theirs from the epoch draw, one batch per step taken."""

    def __init__(self, base):
        self._base = base
        self.minibatches = []

    def __getattr__(self, name):
        return getattr(self._base, name)

    def sample_epoch(self, b, count, rng):
        for batch in self._base.sample_epoch(b, count, rng):
            self.minibatches.append(
                batch.data if batch.idx is None else batch.idx)
            yield batch


@pytest.mark.parametrize("kind", ["rayleigh", "streaming"])
@pytest.mark.parametrize("r_a, r_b", [(0.0, 0.01), (0.01, 0.0), (0.2, 1e-3)])
def test_coupled_runs_share_minibatches_until_either_exits(kind, r_a, r_b):
    # starts along the escape direction of a strict saddle: a zero start
    # breaks at its stopping index, the larger start leaves the ball first
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 18)))
    if kind == "rayleigh":
        obj = RayleighInstance(d=20, n=100, spectrum=spec, noise_scale=0.4,
                               rotation_seed=5)
    else:
        obj = StreamingRayleighInstance(d=20, spectrum=spec, rotation_seed=5)
    recorder = _MinibatchRecorder(obj)
    oracle = PullbackOracle(recorder, obj.eigvec(1))
    e0 = obj.eigvec(0).coords
    params = _params(eta=0.05, m=4, b=8, B=40, T_max=40)
    stream = master_stream(3).child(TAG_OUTER, 0)
    x = oracle.anchor
    a = tssrg_run(oracle, obj.manifold.tangent(x, r_a * e0), params, stream,
                  record=True)
    b = tssrg_run(oracle, obj.manifold.tangent(x, r_b * e0), params, stream,
                  record=True)
    # a boundary exit at step t stops before drawing that step's minibatch
    drawn_a = a.iterations - (a.exit is ExitReason.BOUNDARY)
    drawn_b = b.iterations - (b.exit is ExitReason.BOUNDARY)
    assert drawn_a != drawn_b
    assert len(recorder.minibatches) == drawn_a + drawn_b
    shared = min(drawn_a, drawn_b)
    if r_a > 0 and r_b > 0:
        assert shared > params.m  # the shared steps span an epoch change
    batches_a = recorder.minibatches[:drawn_a]
    batches_b = recorder.minibatches[drawn_a:]
    for t in range(shared):
        assert np.array_equal(batches_a[t], batches_b[t])


class _EpochCounts:
    """Delegating objective that records the step count of each epoch draw."""

    def __init__(self, base):
        self._base = base
        self.counts = []

    def __getattr__(self, name):
        return getattr(self._base, name)

    def sample_epoch(self, b, count, rng):
        self.counts.append(count)
        return self._base.sample_epoch(b, count, rng)


@pytest.mark.parametrize("radius, m, T_max", [
    (0.01, 4, 10), (0.0, 6, 50), (0.0, 6, 1)],
    ids=["perturbed", "unperturbed", "unperturbed_T_max"])
def test_epoch_draw_covers_the_steps_the_epoch_can_reach(medium_rayleigh,
                                                         radius, m, T_max):
    # m steps for a perturbed epoch, the stopping index K for an
    # unperturbed one, never past T_max
    recorder = _EpochCounts(medium_rayleigh)
    oracle = PullbackOracle(recorder, medium_rayleigh.eigvec(0))
    u0 = oracle.manifold.tangent(oracle.anchor,
                                 radius * medium_rayleigh.eigvec(1).coords)
    stream = master_stream(4).child(TAG_OUTER, 0)
    params = _params(eta=0.01, m=m, b=8, B=40, T_max=T_max)
    out = tssrg_run(oracle, u0, params, stream)
    assert out.exit is not ExitReason.BOUNDARY
    if radius > 0:
        assert recorder.counts == [4, 4, 2]
    else:
        K = stream.child(TAG_BATCH, 0).generator().integers(1, m + 1)
        assert recorder.counts == [min(K, T_max)] == [out.iterations]


# --------------------------------------------------------- failure paths

class _PoisonAfter:
    """Delegate objective that emits NaN gradients after a fixed number of
    batch gradients, counted per point: a stacked call at k points
    (``_batch_grad_coords``, the inner steps) counts k."""

    def __init__(self, base, calls):
        self._base = base
        self._left = calls
        self.manifold = base.manifold
        self.n = base.n

    def value(self, x):
        return self._base.value(x)

    def _value_coords(self, y, Ay=None):
        return self._base._value_coords(y, Ay)

    def full_riem_grad(self, x):
        return self._base.full_riem_grad(x)

    def _poison(self, points, g):
        self._left -= points
        return g + np.nan if self._left < 0 else g

    def batch_riem_grad(self, batch, x):
        g = self._base.batch_riem_grad(batch, x)
        return TangentVector(x, self._poison(1, g.coords))

    def _batch_grad_coords(self, batch, Y):
        G, AY = self._base._batch_grad_coords(batch, Y)
        return self._poison(len(Y), G), AY

    def sample_minibatch(self, b, rng):
        return self._base.sample_minibatch(b, rng)

    def sample_epoch(self, b, count, rng):
        return self._base.sample_epoch(b, count, rng)

    def sample_largebatch(self, B, rng):
        return self._base.sample_largebatch(B, rng)


def test_non_finite_estimator_aborts_with_iteration_index(small_rayleigh):
    x = small_rayleigh.eigvec(0)
    poisoned = _PoisonAfter(small_rayleigh, calls=3)
    oracle = PullbackOracle(poisoned, x)
    u0 = oracle.manifold.tangent(oracle.anchor, np.array([0.0, 0.01, 0.0]))
    params = _params(m=8, b=8, B=small_rayleigh.n, T_max=8)
    with pytest.raises(NumericalFailure) as exc:
        tssrg_run(oracle, u0, params, master_stream(0).child(TAG_OUTER, 0))
    assert exc.value.iteration == 2  # anchor + two steps of two points each


def test_u0_outside_ball_rejected(small_rayleigh):
    x = small_rayleigh.eigvec(0)
    oracle = PullbackOracle(small_rayleigh, x)
    u0 = TangentVector(x, np.array([0.0, 0.6, 0.0]))  # past the sphere's 0.5
    with pytest.raises(OutOfBall):
        tssrg_run(oracle, u0, _params(),
                  master_stream(0).child(TAG_OUTER, 0))
    assert oracle.queries == 0


# ------------------------------------------------------ query accounting

def test_query_accounting_identity(medium_rayleigh):
    rng = np.random.default_rng(8)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    u0 = medium_rayleigh.manifold.sample_ball(x, 0.01, rng)
    m, b, B, T = 3, 2, 40, 7
    params = _params(eta=0.01, m=m, b=b, B=B, T_max=T)
    out = tssrg_run(oracle, u0, params, master_stream(6).child(TAG_OUTER, 0))
    assert out.exit is ExitReason.MAX_ITER
    per_event = {"anchor": B, "grad_check": B, "step": 2 * b,
                 "uniform_break": 2 * b, "max_iter": 2 * b, "boundary": 0}
    total = sum(per_event[r.event] for r in out.segment.rows)
    assert oracle.queries == total == 3 * B + 2 * b * T
    assert out.segment.rows[-1].queries_cum == oracle.queries


def test_anchor_grad_reuse_skips_first_charge(medium_rayleigh):
    x = medium_rayleigh.eigvec(0)
    oracle = PullbackOracle(medium_rayleigh, x)
    v0 = oracle.exact_grad(oracle.zero())
    params = _params(eta=0.01, m=4, b=2, B=50, T_max=2)
    out = tssrg_run(oracle, oracle.zero(), params,
                    master_stream(7).child(TAG_OUTER, 0), anchor_grad=v0)
    # no anchor batch was drawn: only the 2*b per-step charges accrue
    assert oracle.queries == out.iterations * 2 * params.b


def test_boundary_row_costs_nothing(small_rayleigh):
    oracle, out = _boundary_run(small_rayleigh)
    assert out.exit is ExitReason.BOUNDARY
    assert oracle.queries == 0


# ------------------------------------------- array loop vs. public calls

def _reference_run(oracle, u0, params, stream, anchor_grad=None):
    """The tangent-space loop stepped through the public, validating oracle
    calls on TangentVectors, reading the same per-epoch tapes and anchor
    streams as tssrg_run. Returns (rows, gaps, step lengths, u_final, exit,
    iterations); a gap is ||v - exact gradient at u|| (None on a boundary
    row) and a step length ||eta v_{t-1}|| (0 on an anchor or boundary
    row)."""
    x, obj, D = oracle.anchor, oracle.objective, oracle.manifold.D
    perturbed = np.linalg.norm(u0.coords) > 0.0
    rows, gaps, dus = [], [], []

    def emit(k, u, v, event, du=0.0):
        gap = None
        if event != "boundary":
            gap = float(np.linalg.norm(v.coords - oracle.exact_grad(u).coords))
        rows.append((k, oracle.value(u), float(np.linalg.norm(v.coords)),
                     float(np.linalg.norm(u.coords)), oracle.queries, event))
        gaps.append(gap)
        dus.append(du)

    def anchor(u, pos):
        gen = stream.child(TAG_ANCHOR, pos).generator()
        return oracle.grad_batch(obj.sample_largebatch(params.B, gen), u)

    u_prev = u0
    v = anchor(u_prev, 0) if anchor_grad is None else anchor_grad
    emit(0, u_prev, v, "anchor")
    t = 0
    while True:
        tape = stream.child(TAG_BATCH, t // params.m).generator()
        stop_k = tape.integers(1, params.m + 1)
        for k in range(1, params.m + 1):
            t += 1
            w = params.eta * v.coords
            u_next = TangentVector(x, u_prev.coords - w)
            if np.linalg.norm(u_next.coords) >= D:
                alpha = boundary_alpha(u_prev.coords, w, D)
                u_exit = TangentVector(x, u_prev.coords - alpha * w)
                emit(k, u_exit, v, "boundary")
                return rows, gaps, dus, u_exit.coords, ExitReason.BOUNDARY, t
            batch = obj.sample_minibatch(params.b, tape)
            g_new = oracle.grad_batch(batch, u_next)
            g_old = oracle.grad_batch(batch, u_prev)
            v = TangentVector(x, g_new.coords - g_old.coords + v.coords)
            event = "step"
            if t >= params.T_max:
                event = "max_iter"
            elif not perturbed and k == stop_k:
                event = "uniform_break"
            emit(k, u_next, v, event, du=float(np.linalg.norm(w)))
            if event != "step":
                return rows, gaps, dus, u_next.coords, ExitReason(event), t
            u_prev = u_next
        v = anchor(u_prev, t // params.m)
        emit(0, u_prev, v, "anchor")


def _bitwise_case(case):
    """(objective, anchor, u0 radius, params, anchor_grad?, record,
    expected exit) for one named case."""
    rng = np.random.default_rng(21)
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 18)))
    if case.startswith("rayleigh"):
        obj = RayleighInstance(d=20, n=100, spectrum=spec, noise_scale=0.4,
                               rotation_seed=5)
    elif case.startswith("quadratic"):
        obj = QuadraticSaddleInstance(d=6, gamma=1.0, L_top=2.0, n=32,
                                      rotation_seed=3, noise_scale=0.3)
    else:
        obj = StreamingRayleighInstance(d=20, spectrum=spec, rotation_seed=5)
    x = obj.manifold.rand_point(rng)
    return obj, x, {
        "rayleigh_max_iter_gaps": (0.05, _params(eta=0.05, m=5, b=8,
                                                 B=40, T_max=12),
                                   False, True, ExitReason.MAX_ITER),
        "rayleigh_break": (0.0, _params(eta=0.05, m=6, b=8, B=40,
                                        T_max=50),
                           False, False, ExitReason.UNIFORM_BREAK),
        "rayleigh_boundary_anchor_grad": (0.0, _params(eta=0.4, m=10, b=8,
                                                       B=40, T_max=10),
                                          True, False, ExitReason.BOUNDARY),
        "quadratic_boundary": (0.05, _params(eta=0.5, m=4, b=8, B=16,
                                             T_max=200),
                               False, False, ExitReason.BOUNDARY),
        "streaming_max_iter": (0.02, _params(eta=0.01, m=4, b=8, B=64,
                                             T_max=6),
                               False, False, ExitReason.MAX_ITER),
        "streaming_break": (0.0, _params(eta=0.05, m=4, b=8, B=64,
                                         T_max=50),
                            False, False, ExitReason.UNIFORM_BREAK),
    }[case]


class _ValueCounter(PullbackOracle):
    """An oracle that counts its public ``value`` calls."""

    value_calls = 0

    def value(self, u):
        self.value_calls += 1
        return super().value(u)


@pytest.mark.parametrize("case", [
    "rayleigh_max_iter_gaps", "rayleigh_break",
    "rayleigh_boundary_anchor_grad", "quadratic_boundary",
    "streaming_max_iter", "streaming_break",
])
def test_array_loop_matches_public_call_reference_bitwise(case):
    obj, x, (r0, params, with_anchor, record, exit_) = _bitwise_case(case)
    man = obj.manifold
    u0 = man.sample_ball(x, r0, np.random.default_rng(5))
    stream = master_stream(13).child(TAG_OUTER, 0)
    ref_oracle = PullbackOracle(obj, x)
    run_oracle = _ValueCounter(obj, x)
    anchor_ref = anchor_run = None
    if with_anchor:
        anchor_ref = ref_oracle.grad_largebatch(
            params.B, ref_oracle.zero(), np.random.default_rng(6))
        anchor_run = run_oracle.grad_largebatch(
            params.B, run_oracle.zero(), np.random.default_rng(6))
    rows, gaps, dus, u_final, ref_exit, iters = _reference_run(
        ref_oracle, u0, params, stream, anchor_grad=anchor_ref)
    out = tssrg_run(run_oracle, u0, params, stream, anchor_grad=anchor_run,
                    record=record)
    assert ref_exit is exit_ and out.exit is exit_
    assert out.iterations == iters
    got = [(r.inner_k, r.F_value, r.grad_norm_or_batch, r.u_norm,
            r.queries_cum, r.event) for r in out.segment.rows]
    assert got == rows
    assert np.array_equal(out.u_final.coords, u_final)
    assert run_oracle.queries == ref_oracle.queries
    # a step's F comes with its two gradients from one stacked call, and an
    # epoch's anchor row (the max_iter cases re-anchor) reuses its last
    # step's F; only u0's row and a boundary row call the validating value()
    boundary = sum(r.event == "boundary" for r in out.segment.rows)
    assert run_oracle.value_calls == 1 + boundary
    seg = out.segment
    if not record:
        assert seg.u_vecs is None and seg.v_vecs is None
        return
    # the replay's gaps and step lengths from the recorded u and v are the
    # reference loop's, bit for bit
    assert [None if r.event == "boundary"
            else estimator_gap(run_oracle, u, v)
            for r, u, v in zip(seg.rows, seg.u_vecs, seg.v_vecs)] == gaps
    assert all(_norm(params.eta * seg.v_vecs[i - 1]) == dus[i]
               for i, r in enumerate(seg.rows) if r.event in _STEP_EVENTS)


@pytest.mark.parametrize("case", [
    "rayleigh_max_iter_gaps", "rayleigh_break", "quadratic_boundary",
    "rayleigh_exhaustive",
])
def test_recorded_vectors_are_the_rows_vectors(case):
    # the replay checks read u and v from the recording: the norm of each is
    # its row's u_norm and grad_norm_or_batch bit for bit (a boundary row's
    # v is the one its cut-short step used), and recording changes no row
    name = "rayleigh_max_iter_gaps" if case == "rayleigh_exhaustive" else case
    obj, x, (r0, params, _, _, exit_) = _bitwise_case(name)
    if case == "rayleigh_exhaustive":  # b = B = n: every batch is exact
        params = _params(eta=0.05, m=5, b=obj.n, B=obj.n, T_max=12)
    u0 = obj.manifold.sample_ball(x, r0, np.random.default_rng(5))
    stream = master_stream(13).child(TAG_OUTER, 0)
    out = tssrg_run(PullbackOracle(obj, x), u0, params, stream, record=True)
    plain = tssrg_run(PullbackOracle(obj, x), u0, params, stream)
    assert out.exit is exit_
    seg = out.segment
    assert seg.rows == plain.segment.rows
    assert len(seg.u_vecs) == len(seg.v_vecs) == len(seg.rows)
    for row, u, v in zip(seg.rows, seg.u_vecs, seg.v_vecs):
        assert _norm(v) == row.grad_norm_or_batch
        assert _norm(u) == row.u_norm


def test_foreign_base_point_rejected_at_entry(medium_rayleigh):
    rng = np.random.default_rng(4)
    man = medium_rayleigh.manifold
    x, elsewhere = man.rand_point(rng), man.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    stream = master_stream(0).child(TAG_OUTER, 0)
    params = _params(eta=0.01, m=2, b=2, B=8, T_max=2)
    foreign = man.sample_ball(elsewhere, 0.01, rng)
    with pytest.raises(ContractViolation):
        tssrg_run(oracle, foreign, params, stream)
    with pytest.raises(ContractViolation):
        tssrg_run(oracle, oracle.zero(), params, stream,
                  anchor_grad=man.zero_tangent(elsewhere))
    assert oracle.queries == 0
