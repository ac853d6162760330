"""Outer loop: parameter derivation, gradient checks, epoch taxonomy, budget
accounting, and fixed-point behaviour at exact saddles."""

from __future__ import annotations

import math
import re
import warnings
from collections import Counter
from dataclasses import asdict, replace
from itertools import groupby
from operator import attrgetter

import numpy as np
import pytest

from prsrg import (
    ParameterError,
    PullbackOracle,
    RayleighInstance,
    SolverParams,
    StreamingRayleighInstance,
    TssrgParams,
    auto_solve,
    certify,
    derive_params,
    parse_spectrum,
    prsrg_run,
    small_grad_check,
    solver,
)
from prsrg.harness import parse_config, run_experiment
from prsrg.solver import EPOCH_KEYS, _affordable_T, _label_epochs
from prsrg.trace import EPOCH_TYPES, TraceRow
from prsrg.diagnostics import _lanczos_start
from prsrg.rng import (TAG_ANCHOR, TAG_BATCH, TAG_CHECK, TAG_INIT,
                       TAG_OUTER, TAG_PERTURB, StreamTree, master_stream)

from replay import stuck_region_experiment


# -------------------------------------------------------- derive_params

# the derived parameters are pinned to the bit against the formulas with
# their multipliers written out: c_eta = 0.1, c_T = 20, c_r = c_m = 1 and
# c_B = 16

def test_finite_sum_parameter_formulas():
    for n, delta, L_hat in ((10_000, 0.1, 4.0), (1000, 0.3, 2.718281828)):
        p = derive_params("finite_sum", n, epsilon=0.01, delta=delta,
                          L_hat=L_hat, rho_hat=1.0)
        assert p.m == p.b == math.ceil(math.sqrt(n))
        assert p.B == n
        assert p.eta == 0.1 / L_hat
        assert p.T_max == math.ceil(20.0 / delta)
    assert (p.m, p.T_max) == (32, 67)


def test_online_parameter_formulas():
    # sigma = 1, and the online_stream benchmark instance's sigma_hint at
    # its epsilon and delta
    stream_sigma = StreamingRayleighInstance(
        d=20, spectrum=parse_spectrum("2.0,1.0,linspace:0.6:0.1:18"),
        rotation_seed=7).sigma_hint
    L_hat = 2.0
    for sigma, eps, delta in ((1.0, 0.01, 0.1), (stream_sigma, 0.2, 0.5)):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            p = derive_params("online", sigma, epsilon=eps, delta=delta,
                              L_hat=L_hat, rho_hat=1.0)
        assert p.m == p.b == math.ceil(1.0 * sigma / eps)
        assert p.B == math.ceil(16.0 * sigma * sigma / (eps * eps))
        assert p.eta == 0.1 / L_hat
        assert p.T_max == math.ceil(20.0 / delta)
        if sigma == 1.0:
            assert (p.m, p.B) == (100, 160_000)


def test_perturbation_radius_formula():
    # first branch active: delta^3/(rho^2 eps) < sqrt(delta^3/(rho^2 L)),
    # then the second: a small L_hat against a small epsilon
    for eps, delta, L_hat, rho_hat in ((1.0, 0.1, 1.0, 1.0),
                                       (1e-3, 0.2, 0.5, 0.7)):
        p = derive_params("finite_sum", 100, epsilon=eps, delta=delta,
                          L_hat=L_hat, rho_hat=rho_hat, D=10.0)
        assert p.r == 1.0 * min(delta ** 3 / (rho_hat ** 2 * eps),
                                math.sqrt(delta ** 3 / (rho_hat ** 2
                                                        * L_hat)))
    # cap at the ball radius
    q = derive_params("finite_sum", 100, epsilon=1e-9, delta=0.4,
                      L_hat=1.0, rho_hat=1e-6, D=0.5)
    assert q.r == 0.5
    # rho_hat = 0 (exactly quadratic): radius defaults to the ball
    z = derive_params("finite_sum", 100, epsilon=0.1, delta=0.1,
                      L_hat=1.0, rho_hat=0.0, D=0.25)
    assert z.r == 0.25


def test_derive_params_validation():
    with pytest.raises(ParameterError):
        derive_params("finite_sum", 100, epsilon=0.0, delta=0.1,
                      L_hat=1.0, rho_hat=1.0)
    with pytest.raises(ParameterError):
        derive_params("finite_sum", 100, epsilon=0.1, delta=-1.0,
                      L_hat=1.0, rho_hat=1.0)
    with pytest.raises(ParameterError):
        derive_params("finite_sum", 100, epsilon=0.1, delta=0.1,
                      L_hat=0.0, rho_hat=1.0)
    with pytest.raises(ParameterError):
        derive_params("finite_sum", 100, epsilon=0.1, delta=0.1,
                      L_hat=1.0, rho_hat=-0.5)
    # a finite rho_hat whose square overflows is named, not a sound delta
    with pytest.raises(ParameterError, match="rho_hat must be >= 0 with a "
                       "finite square, got 1e[+]200"):
        derive_params("finite_sum", 100, epsilon=0.1, delta=0.5,
                      L_hat=1.0, rho_hat=1e200)
    for n in (99.5, float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="positive integer n"):
            derive_params("finite_sum", n, epsilon=0.1, delta=0.1,
                          L_hat=1.0, rho_hat=1.0)
    with pytest.raises(ParameterError):
        derive_params("online", 0.0, epsilon=0.1, delta=0.1,
                      L_hat=1.0, rho_hat=1.0)
    with pytest.raises(ParameterError):
        derive_params("minibatch", 100, epsilon=0.1, delta=0.1,
                      L_hat=1.0, rho_hat=1.0)


def test_large_delta_warns():
    with pytest.warns(UserWarning, match="exceeds the gradient Lipschitz"):
        derive_params("finite_sum", 100, epsilon=0.1, delta=5.0,
                      L_hat=2.0, rho_hat=1.0)


def test_solver_params_validation():
    tss = dict(eta=0.1, m=2, b=2, B=4, T_max=10)
    SolverParams(**tss, r=0.0, epsilon=0.1, delta=0.1, budget=0)
    with pytest.raises(ParameterError):
        SolverParams(**tss, r=-0.1, epsilon=0.1, delta=0.1, budget=10)
    with pytest.raises(ParameterError):
        SolverParams(**tss, r=0.1, epsilon=0.1, delta=0.1, budget=-1)


# ------------------------------------------------------ small_grad_check

def test_grad_check_exact_at_eigenvector(small_rayleigh):
    x = small_rayleigh.eigvec(0)
    oracle = PullbackOracle(small_rayleigh, x)
    rng = np.random.default_rng(0)
    ok, g = small_grad_check(oracle, small_rayleigh.n, 1e-3, rng)
    assert ok and g.norm < 1e-12


def test_grad_check_vacuous_threshold(medium_rayleigh):
    rng = np.random.default_rng(1)
    x = medium_rayleigh.manifold.rand_point(rng)
    oracle = PullbackOracle(medium_rayleigh, x)
    ok, _ = small_grad_check(oracle, medium_rayleigh.n, 1e18, rng)
    assert ok


def test_online_check_agrees_outside_margin():
    # whenever the population norm is clearly on one side of epsilon, the
    # sampled check must agree with the population check
    obj = StreamingRayleighInstance(d=12, spectrum=np.linspace(2.0, 0.1, 12),
                                    rotation_seed=None)
    man = obj.manifold
    eps = 0.5
    sigma = obj.sigma_hint
    B = int(np.ceil(256 * sigma * sigma / (eps * eps)))
    checked = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        x = man.rand_point(rng)
        pop = np.linalg.norm(obj.full_riem_grad(x).coords)
        if eps / 2 <= pop <= 2 * eps:
            continue  # inside the ambiguity band: either answer is fine
        oracle = PullbackOracle(obj, x)
        ok, _ = small_grad_check(oracle, B, eps, rng)
        assert ok == (pop <= eps)
        checked += 1
    assert checked >= 10  # the test must actually exercise the claim


# --------------------------------------------------------- _affordable_T

def test_affordable_step_budgeting():
    B, b, m = 100, 10, 5

    def cost(T, paid):
        return (0 if paid else B) + B * ((T - 1) // m) + 2 * b * T

    for paid in (False, True):
        for remaining in (0, 50, 119, 120, 200, 1000, 12345):
            T = _affordable_T(remaining, B, b, m, paid)
            if T == 0:
                assert remaining < cost(1, paid)
            else:
                assert cost(T, paid) <= remaining < cost(T + 1, paid)


def _affordable_T_by_search(remaining, B, b, m, first_anchor_paid):
    """Reference: doubling then bisection over the monotone cost."""
    a0 = 0 if first_anchor_paid else B

    def cost(T):
        return a0 + B * ((T - 1) // m) + 2 * b * T

    if remaining < cost(1):
        return 0
    lo, hi = 1, 2
    while cost(hi) <= remaining:
        lo = hi
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if cost(mid) <= remaining:
            lo = mid
        else:
            hi = mid
    return lo


def test_affordable_T_closed_form_matches_search():
    rng = np.random.default_rng(0)
    cases = [(R, B, b, m, paid) for R in range(0, 400, 3)
             for B in (1, 2, 7, 50) for b in (1, 3, 10) for m in (1, 2, 5, 17)
             for paid in (False, True)]
    cases += [(int(rng.integers(0, 10**7)), int(rng.integers(1, 10**5)),
               int(rng.integers(1, 10**3)), int(rng.integers(1, 10**3)),
               bool(rng.integers(2))) for _ in range(2000)]
    for case in cases:
        assert _affordable_T(*case) == _affordable_T_by_search(*case), case


# ---------------------------------------------------- NaN parameters

NAN = float("nan")
_TSS = TssrgParams(eta=0.1, m=2, b=2, B=4, T_max=3)
_SR = dict(rho_hat=1.0, delta=0.1, r=0.1)


def _solver_params(**kw):
    base = dict(asdict(_TSS), r=0.1, epsilon=0.1, delta=0.1, budget=10)
    return SolverParams(**{**base, **kw})


@pytest.mark.parametrize("call", [
    pytest.param(lambda o: _solver_params(epsilon=NAN), id="params_epsilon"),
    pytest.param(lambda o: _solver_params(delta=NAN), id="params_delta"),
    pytest.param(lambda o: _solver_params(r=NAN), id="params_r"),
    pytest.param(lambda o: derive_params("finite_sum", 100, NAN, 0.1, 1.0,
                                         1.0), id="derive_epsilon"),
    pytest.param(lambda o: derive_params("finite_sum", 100, 0.1, NAN, 1.0,
                                         1.0), id="derive_delta"),
    pytest.param(lambda o: small_grad_check(o, 4, NAN, master_stream(0)),
                 id="grad_check_epsilon"),
    pytest.param(lambda o: certify(o, NAN, 0.1), id="certify_epsilon"),
    pytest.param(lambda o: certify(o, 0.1, NAN), id="certify_delta"),
    pytest.param(lambda o: stuck_region_experiment(
        o, _TSS, NAN, 1, master_stream(0), **_SR), id="stuck_nu"),
    pytest.param(lambda o: stuck_region_experiment(
        o, _TSS, 0.1, 1, master_stream(0), **{**_SR, "rho_hat": NAN}),
        id="stuck_rho_hat"),
    pytest.param(lambda o: stuck_region_experiment(
        o, _TSS, 0.1, 1, master_stream(0), **{**_SR, "r": NAN}),
        id="stuck_r"),
    pytest.param(lambda o: stuck_region_experiment(
        o, _TSS, 0.1, 1, master_stream(0), **_SR, c2=NAN), id="stuck_c2"),
])
def test_nan_parameters_raise_parameter_error(call, small_rayleigh):
    # NaN fails every comparison, so a check written as x <= 0 lets it in
    oracle = PullbackOracle(small_rayleigh, small_rayleigh.eigvec(0))
    with pytest.raises(ParameterError):
        call(oracle)


# ------------------------------------------------------------ prsrg_run

def _tiny_params(n, *, budget, epsilon=1e-3, delta=0.1, L_hat=4.0,
                 rho_hat=8.0):
    return derive_params("finite_sum", n, epsilon=epsilon, delta=delta,
                         L_hat=L_hat, rho_hat=rho_hat, budget=budget)


def test_zero_budget_is_vacuous(small_rayleigh):
    x0 = small_rayleigh.eigvec(2)
    params = _tiny_params(small_rayleigh.n, budget=0)
    report = prsrg_run(small_rayleigh, x0, params, master_stream(0))
    assert report.queries_used == 0
    assert report.outer_iterations == 0
    assert report.exit_reason == "budget"
    assert report.certified is None
    assert report.trace == []
    assert np.array_equal(report.best_point.coords, x0.coords)


def test_certifies_at_minimizer(small_rayleigh):
    x0 = small_rayleigh.eigvec(0)
    params = _tiny_params(small_rayleigh.n, budget=100_000)
    report = prsrg_run(small_rayleigh, x0, params, master_stream(3))
    assert report.exit_reason == "certified"
    assert report.certified is not None and report.certified.passed
    assert np.array_equal(report.final_point.coords, x0.coords)
    assert report.queries_used <= params.budget
    # certification work is tracked separately
    assert report.diag_queries > 0


def test_exact_saddle_with_zero_radius_never_moves():
    obj = RayleighInstance(d=10, n=40, spectrum=np.linspace(2.0, 0.2, 10),
                           noise_scale=0.0, rotation_seed=None)
    x0 = obj.eigvec(1)
    base = _tiny_params(obj.n, budget=4000)
    params = replace(base, r=0.0)
    report = prsrg_run(obj, x0, params, master_stream(7))
    assert report.exit_reason == "budget"
    assert np.array_equal(report.final_point.coords, x0.coords)
    v1 = obj.eigvec(0).coords
    assert abs(report.final_point.coords @ v1) <= 1e-6


def _stuck_run(monkeypatch, obj, certify_with):
    """rsrg_unperturbed (r = 0) at the saddle eigvec(1), with the solver's
    certify replaced by ``certify_with``; returns the report and the
    certifications it made."""
    certs = []

    def recorded(*args, **kwargs):
        certs.append(certify_with(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(solver, "certify", recorded)
    params = replace(_tiny_params(obj.n, budget=30_000), r=0.0)
    report = prsrg_run(obj, obj.eigvec(1), params, master_stream(11))
    return report, certs


def test_stuck_certifications_stop_at_the_verdict(monkeypatch,
                                                  medium_rayleigh):
    obj = medium_rayleigh
    fast, fast_certs = _stuck_run(monkeypatch, obj, certify)
    full, full_certs = _stuck_run(
        monkeypatch, obj, lambda o, e, d, **_: certify(o, e, d))
    assert fast.exit_reason == full.exit_reason == "budget"
    assert len(fast_certs) == len(full_certs) >= 2
    assert not any(c.passed for c in fast_certs + full_certs)
    # the same run, row for row, for fewer Hessian actions
    assert fast.trace == full.trace
    assert fast.queries_used == full.queries_used
    assert fast.diag_queries < full.diag_queries
    for certs, report in ((fast_certs, fast), (full_certs, full)):
        assert report.diag_queries == obj.n * sum(c.lanczos_iters
                                                  for c in certs)


def test_first_epoch_descends_from_large_gradient():
    obj = RayleighInstance(d=16, n=64, spectrum=np.linspace(2.0, 0.1, 16),
                           noise_scale=0.0, rotation_seed=4)
    rng = np.random.default_rng(2)
    x0 = obj.manifold.rand_point(rng)
    params = _tiny_params(obj.n, budget=50_000)
    report = prsrg_run(obj, x0, params, master_stream(5))
    first = [r for r in report.trace if r.outer_t == 0]
    assert first[0].grad_norm_or_batch > params.epsilon  # genuinely large
    assert first[-1].F_value <= first[0].F_value + 1e-12


def test_epoch_labels_and_query_identity(medium_rayleigh):
    rng = np.random.default_rng(0)
    x0 = medium_rayleigh.manifold.rand_point(rng)
    params = _tiny_params(medium_rayleigh.n, budget=30_000)
    report = prsrg_run(medium_rayleigh, x0, params, master_stream(11))
    assert report.trace, "run must emit rows"
    B, b = params.B, params.b
    per_event = {"anchor": B, "grad_check": B, "step": 2 * b,
                 "uniform_break": 2 * b, "max_iter": 2 * b, "boundary": 0}
    assert report.queries_used == sum(per_event[r.event] for r in report.trace)
    assert report.queries_used <= params.budget
    for row in report.trace:
        assert row.epoch_type in EPOCH_TYPES
        assert row.epoch_type != "baseline"
    assert sum(report.epochs.values()) >= 1
    # cumulative counter is nondecreasing and ends at the total
    cums = [r.queries_cum for r in report.trace]
    assert all(a <= c for a, c in zip(cums, cums[1:]))
    assert cums[-1] == report.queries_used


def test_escape_episodes_never_break_uniformly(medium_rayleigh):
    x0 = medium_rayleigh.eigvec(1)
    params = _tiny_params(medium_rayleigh.n, budget=20_000)
    assert params.r > 0
    report = prsrg_run(medium_rayleigh, x0, params, master_stream(13))
    escape_rows = [r for r in report.trace if r.epoch_type == "escape"]
    assert escape_rows, "a small-gradient start must trigger an escape"
    assert all(r.event != "uniform_break" for r in escape_rows)


def test_monotone_best(medium_rayleigh):
    rng = np.random.default_rng(6)
    x0 = medium_rayleigh.manifold.rand_point(rng)
    params = _tiny_params(medium_rayleigh.n, budget=25_000)
    report = prsrg_run(medium_rayleigh, x0, params, master_stream(17))
    assert report.best_F == pytest.approx(
        medium_rayleigh.value(report.best_point), abs=1e-12)
    assert report.best_F <= medium_rayleigh.value(x0) + 1e-12
    assert report.best_F <= medium_rayleigh.value(report.final_point) + 1e-12


def test_trailing_quiet_epoch_resolved(small_rayleigh):
    # eta = 0.1 / L_hat = 0.4 takes long steps, so the recursive estimator
    # drifts off the gradient: the run's last epoch is quiet by its
    # estimator norms, yet the exact gradient at its end exceeds epsilon
    params = _tiny_params(small_rayleigh.n, budget=700, L_hat=0.25)
    report = prsrg_run(small_rayleigh, small_rayleigh.eigvec(1), params,
                       master_stream(16))
    last = [r for r in report.trace if r.outer_t == report.trace[-1].outer_t]
    assert [r.event for r in last] == (["anchor"] + ["step"] * 5
                                       + ["uniform_break"])
    norms = [r.grad_norm_or_batch for r in last[1:]]
    assert 2 * sum(v > params.epsilon / 2 for v in norms) < len(norms)
    x = report.final_point
    tail = PullbackOracle(small_rayleigh, x).exact_grad(
        small_rayleigh.manifold.zero_tangent(x)).norm
    assert tail > params.epsilon  # the exact-gradient tail check fails
    assert report.queries_used + params.B + 2 * params.b > params.budget
    assert {r.epoch_type for r in last} == {"wasted"}
    assert report.epochs["wasted"] == 1


def _group(outer_t, events, norm=1.0, u_norm=0.0):
    """One outer iteration's unlabeled rows, one per event, each with
    estimator norm ``norm`` and tangent norm ``u_norm``."""
    return [TraceRow(outer_t=outer_t, inner_k=k, epoch_type="", F_value=0.0,
                     grad_norm_or_batch=norm, u_norm=u_norm, queries_cum=0,
                     event=event) for k, event in enumerate(events)]


QUIET = ("anchor", "step", "uniform_break")  # at norm 0.01 < epsilon / 2


@pytest.mark.parametrize("tail", [True, False])
def test_label_epochs_covers_every_rule(tail):
    # epsilon = 0.1: a norm of 1.0 is large, 0.01 quiet
    groups = [
        _group(0, ("anchor", "step", "boundary")),
        # one large norm of two: exactly half, still type 2
        _group(1, ("anchor", "step")) + _group(1, ("uniform_break",), 0.01),
        _group(2, QUIET, 0.01),                       # the next opens a check
        # a perturbed episode: its anchor row starts off the origin
        _group(3, ("grad_check", "anchor", "step", "boundary"), 0.01, 0.1),
        # r = 0: the episode after the check is a descent epoch
        _group(4, ("grad_check",) + QUIET, 0.01),
        _group(5, QUIET, 0.01),                       # the next opens an anchor
        _group(6, ("anchor", "step", "max_iter")),
        _group(7, QUIET, 0.01),                       # the run's last epoch
    ]
    calls = []

    def tail_small():
        calls.append(1)
        return tail

    rows = [row for group in groups for row in group]
    counts = _label_epochs(rows, 0.1, False, tail_small)
    last = "useful" if tail else "wasted"
    assert [{r.epoch_type for r in g} for g in groups] == [
        {"type1_descent"}, {"type2_descent"}, {"useful"}, {"escape"},
        {"wasted"}, {"wasted"}, {"type2_descent"}, {last}]
    assert len(calls) == 1
    assert counts == {"type1_descent": 1, "type2_descent": 2,
                      "useful": 1 + tail, "wasted": 2 + (not tail),
                      "escape": 1}


@pytest.mark.parametrize("certified", [True, False])
def test_label_epochs_lone_final_check_is_no_epoch(certified):
    quiet = _group(0, QUIET, 0.01)
    check = _group(1, ("grad_check",), 0.01)

    def tail_small():
        raise AssertionError("a check settles the quiet epoch")

    counts = _label_epochs(quiet + check, 0.1, certified, tail_small)
    assert {r.epoch_type for r in quiet} == {"useful"}
    assert check[0].epoch_type == ("useful" if certified else "wasted")
    assert counts == dict.fromkeys(EPOCH_KEYS, 0) | {"useful": 1}


SADDLE_STALL = """\
[experiment]
seed = 3
[problem]
manifold = sphere:100
kind = rayleigh
n = 1000
spectrum = 2.0,1.0,linspace:0.9:0.1:98
noise_scale = 0.5
start = e2
"""


def _rsrg_unperturbed_stall(budget=21_000):
    # 21,000 queries: the seventh check is paid for, its episode is not
    cfg = replace(parse_config(SADDLE_STALL), algo="rsrg_unperturbed",
                  budget=budget)
    return run_experiment(cfg)[0]


def _stream_to_tail():
    # 900,000 queries end the run on a quiet descent epoch
    obj = StreamingRayleighInstance(
        d=20, spectrum=parse_spectrum("2.0,1.0,linspace:0.6:0.1:18"),
        rotation_seed=7)
    stream = master_stream(1)
    x0 = obj.manifold.rand_point(stream.child(TAG_INIT).generator())
    return auto_solve(obj, x0, 0.2, 0.5, 900_000, stream)[0]


def _escape_from_saddle():
    # acceptance 08's instance and its first seed
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 98)))
    obj = RayleighInstance(d=100, n=1000, spectrum=spec, noise_scale=0.5,
                           rotation_seed=None)
    return auto_solve(obj, obj.eigvec(1), 1e-3, 0.1, 5_000_000,
                      master_stream(8000))[0]


@pytest.mark.parametrize("run, last", [
    (_escape_from_saddle, ("grad_check", "useful")),
    (_stream_to_tail, ("uniform_break", "useful")),
    (_rsrg_unperturbed_stall, ("grad_check", "wasted")),
], ids=["acceptance_08", "stream", "rsrg_unperturbed"])
def test_epoch_counts_are_the_labelled_outer_iterations(run, last):
    report = run()
    groups = [list(g) for _, g in groupby(report.trace, attrgetter("outer_t"))]
    assert all(len({r.epoch_type for r in g}) == 1 for g in groups)
    # a lone final check is labelled but counts as no epoch
    labelled = Counter(g[0].epoch_type for g in groups if len(g) > 1)
    assert report.epochs == {k: labelled[k] for k in EPOCH_KEYS}
    assert (groups[-1][-1].event, groups[-1][-1].epoch_type) == last
    if run is _rsrg_unperturbed_stall:
        # r = 0 perturbs nothing, so no episode is an escape: each is a
        # quiet descent epoch that the next check settles as useful
        assert report.epochs == dict.fromkeys(EPOCH_KEYS, 0) | {"useful": 6}
        short = _rsrg_unperturbed_stall(20_000)  # no seventh check
        assert (short.epochs, short.queries_used) == (report.epochs, 19_488)


def test_seed_reproducibility(medium_rayleigh):
    rng = np.random.default_rng(9)
    x0 = medium_rayleigh.manifold.rand_point(rng)
    params = _tiny_params(medium_rayleigh.n, budget=15_000)
    a = prsrg_run(medium_rayleigh, x0, params, master_stream(23))
    b = prsrg_run(medium_rayleigh, x0, params, master_stream(23))
    assert a.queries_used == b.queries_used
    assert np.array_equal(a.final_point.coords, b.final_point.coords)
    assert len(a.trace) == len(b.trace)
    for ra, rb in zip(a.trace, b.trace):
        assert ra.F_value == rb.F_value and ra.event == rb.event


# --------------------------------------------------- independent batches

@pytest.fixture
def generator_origins(monkeypatch):
    """id(generator) -> (seed, path, generator) for every generator a
    StreamTree mints during the test; holding each generator keeps its id
    unique."""
    origins = {}
    mint = StreamTree.generator

    def generator(self):
        gen = mint(self)
        origins[id(gen)] = (self.seed, self.path, gen)
        return gen

    monkeypatch.setattr(StreamTree, "generator", generator)
    return origins


class _BatchLedger:
    """Delegating objective that keys every batch a gradient is taken over
    by (seed, stream path, draw position on that generator). A sampler given
    a StreamTree node mints the node's generator afresh, so such a batch is
    draw 0 of the node's path; each batch of an epoch draw is one draw
    position on the tape. Gradients come one point at a time
    (``batch_riem_grad``) or, in the inner steps, at a stack of points
    (``_batch_grad_coords``), charged per point."""

    def __init__(self, base, origins):
        self._base = base
        self._origins = origins
        self._draws = Counter()
        self._keys = {}
        self.charged = {}
        self.queries = 0

    def __getattr__(self, name):
        return getattr(self._base, name)

    def _record(self, batch, rng):
        if isinstance(rng, StreamTree):
            key = (rng.seed, rng.path, 0)
        else:
            seed, path, _ = self._origins[id(rng)]
            key = (seed, path, self._draws[id(rng)])
            self._draws[id(rng)] += 1
        self._keys[id(batch)] = (batch, key)
        return batch

    def sample_epoch(self, b, count, gen):
        for batch in self._base.sample_epoch(b, count, gen):
            yield self._record(batch, gen)

    def sample_largebatch(self, B, rng):
        return self._record(self._base.sample_largebatch(B, rng), rng)

    def _charge(self, batch, points):
        self.charged[id(batch)] = self._keys[id(batch)][1]
        self.queries += batch.size * points

    def batch_riem_grad(self, batch, x):
        self._charge(batch, 1)
        return self._base.batch_riem_grad(batch, x)

    def _batch_grad_coords(self, batch, Y):
        self._charge(batch, len(Y))
        return self._base._batch_grad_coords(batch, Y)


@pytest.mark.parametrize("mode", ["online", "finite_sum"])
def test_charged_batches_never_share_samples(mode, generator_origins):
    # a strict-saddle start: the gradient check passes, certification fails
    # and escapes follow; B < n, so finite-sum checks and anchors sample too
    spec = np.linspace(2.0, 0.5, 6)
    if mode == "online":
        obj = StreamingRayleighInstance(d=6, spectrum=spec, rotation_seed=None)
    else:
        obj = RayleighInstance(d=6, n=400, spectrum=spec, noise_scale=0.2,
                               rotation_seed=None)
    params = SolverParams(eta=0.05, m=8, b=8, B=200, T_max=40, r=0.05,
                          epsilon=1.0, delta=0.1, budget=3000)
    ledger = _BatchLedger(obj, generator_origins)
    report = prsrg_run(ledger, obj.eigvec(1), params, master_stream(1))
    assert report.epochs["escape"] >= 1
    assert ledger.queries == report.queries_used
    keys = list(ledger.charged.values())
    assert len(keys) == len(set(keys))


def _escape_mints(mode, origins):
    """A saddle-start run, B = n in finite-sum mode and r = 0 there, and the
    paths of the generators it mints, grouped by tag. The Lanczos start is
    drawn once per process, so it is drawn before the count starts."""
    spec = np.linspace(2.0, 0.5, 6)
    if mode == "online":
        obj = StreamingRayleighInstance(d=6, spectrum=spec, rotation_seed=None)
        B, r = 200, 0.05
    else:
        obj = RayleighInstance(d=6, n=64, spectrum=spec, noise_scale=0.2,
                               rotation_seed=None)
        B, r = 64, 0.0
    params = SolverParams(eta=0.05, m=8, b=8, B=B, T_max=40, r=r,
                          epsilon=1.0, delta=0.1, budget=4000)
    _lanczos_start(obj.manifold.ambient_dim)
    origins.clear()
    report = prsrg_run(obj, obj.eigvec(1), params, master_stream(1))
    by_tag = {}
    for seed, path, _ in origins.values():
        assert seed == 1 and path[0] == TAG_OUTER
        by_tag.setdefault(path[2], []).append(path)
    return report, by_tag


def test_finite_sum_exhaustive_run_mints_only_epoch_tapes(generator_origins):
    # B = n checks and anchors and r = 0 perturbations draw nothing, so the
    # only generators are the epoch tapes, one per epoch run (each tssrg
    # call here is one unperturbed epoch, which starts at an anchor row)
    report, by_tag = _escape_mints("finite_sum", generator_origins)
    # at least two episodes follow a failed certification; r = 0 perturbs
    # nothing, so none of them is an escape
    checks = {r.outer_t for r in report.trace if r.event == "grad_check"}
    anchors = {r.outer_t for r in report.trace if r.event == "anchor"}
    assert len(checks & anchors) >= 2
    assert report.epochs["escape"] == 0
    assert set(by_tag) == {TAG_BATCH}
    tapes = [(TAG_OUTER, row.outer_t, TAG_BATCH, 0)
             for row in report.trace if row.event == "anchor"]
    assert sorted(by_tag[TAG_BATCH]) == tapes


def test_online_run_mints_check_and_anchor_generators(generator_origins):
    report, by_tag = _escape_mints("online", generator_origins)
    assert report.epochs["escape"] >= 1
    # one check per outer iteration begun; the last may end at its
    # certification, before the iteration count moves
    checks = sorted(by_tag[TAG_CHECK])
    assert checks == [(TAG_OUTER, t, TAG_CHECK) for t in range(len(checks))]
    assert len(checks) - report.outer_iterations in (0, 1)
    # every anchor row draws its batch except an unperturbed epoch's first,
    # which reuses the gradient check's
    drawn, seen = 0, set()
    for row in report.trace:
        if row.event == "anchor":
            drawn += row.outer_t in seen or row.epoch_type == "escape"
            seen.add(row.outer_t)
    anchors = by_tag[TAG_ANCHOR]
    assert len(anchors) == len(set(anchors)) == drawn > 0
    assert len(by_tag[TAG_PERTURB]) == report.epochs["escape"]


# ------------------------------------------------------------ auto_solve

def test_auto_solve_selects_finite_sum(small_rayleigh):
    report, params = auto_solve(small_rayleigh, small_rayleigh.eigvec(0),
                                epsilon=1e-3, delta=0.5, budget=50_000,
                                rng=31)
    assert params.m == params.b == int(np.ceil(np.sqrt(small_rayleigh.n)))
    assert params.B == small_rayleigh.n
    assert report.exit_reason == "certified"
    assert report.seed == 31


def test_auto_solve_selects_online():
    obj = StreamingRayleighInstance(d=6, spectrum=np.linspace(2.0, 0.5, 6),
                                    rotation_seed=None)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        report, params = auto_solve(obj, obj.manifold.point(np.eye(6)[0]),
                                    epsilon=0.5, delta=1.0, budget=3000,
                                    rng=37)
    # the online formulas at the objective's sigma_hint
    sigma = obj.sigma_hint
    assert params.m == params.b == math.ceil(sigma / 0.5)
    assert params.B == math.ceil(16.0 * sigma * sigma / 0.25)
    assert report.queries_used <= 3000


def test_auto_solve_validates_rng_and_mode(small_rayleigh):
    x0 = small_rayleigh.eigvec(0)
    with pytest.raises(ParameterError):
        auto_solve(small_rayleigh, x0, epsilon=1e-3, delta=0.5, budget=1000,
                   rng="not-a-seed")
    # the objective decides the mode, and a bad epsilon is named as such
    for epsilon in (0.0, float("nan")):
        with pytest.raises(ParameterError, match=re.escape(
                f"epsilon must be positive and finite, got {epsilon}")):
            auto_solve(small_rayleigh, x0, epsilon=epsilon, delta=0.5,
                       budget=1000, rng=1)


def test_online_objective_without_sigma_hint_is_rejected():
    # a stream (n = None) is sized by its sigma_hint; an API-built one
    # without it gets a ParameterError, not a TypeError from float(None)
    obj = StreamingRayleighInstance(d=6, spectrum=np.linspace(2.0, 0.5, 6),
                                    rotation_seed=None)
    del obj.sigma_hint
    with pytest.raises(ParameterError, match="needs a sigma_hint"):
        auto_solve(obj, obj.manifold.point(np.eye(6)[0]), epsilon=0.5,
                   delta=1.0, budget=1000, rng=1)
