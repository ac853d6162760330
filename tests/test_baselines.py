"""Comparator optimizers: convergence on easy instances, fixed-point
behaviour, shared trace conventions, and the head-to-head query benchmark."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from prsrg import (
    ParameterError,
    QuadraticSaddleInstance,
    RayleighInstance,
    auto_solve,
    baseline_run,
)
from prsrg.rng import master_stream
from prsrg.solver import prsrg_run, probe_params


def _prgd(obj, x0, epsilon, delta, budget, seed, **tuned):
    """prgd on the derived parameters with ``tuned`` fields replaced."""
    stream = master_stream(seed)
    params, _ = probe_params(obj, x0, epsilon, delta, budget, stream)
    return baseline_run(obj, x0, replace(params, **tuned), stream)


def _small_params():
    obj = RayleighInstance(d=4, n=8, spectrum=[2.0, 1.0, 0.5, 0.1],
                           noise_scale=0.1, rotation_seed=0)
    x0 = obj.eigvec(0)
    params, _ = probe_params(obj, x0, 0.1, 0.5, 100, master_stream(0))
    return obj, x0, params


# ------------------------------------------------------------ params

def test_config_validation():
    # prgd's step size, radius and escape length are SolverParams fields,
    # tuned by replace, which validates them
    _, _, params = _small_params()
    replace(params, eta=0.1, r=0.01, T_max=20)
    with pytest.raises(ParameterError):
        replace(params, eta=0.0)
    with pytest.raises(ParameterError):
        replace(params, r=-0.1)
    with pytest.raises(ParameterError):
        replace(params, T_max=0)


# ------------------------------------------------------------ prgd

def test_prgd_converges_on_convex_quadratic():
    # gradient descent on a kappa-conditioned strongly convex quadratic
    # reaches ||grad|| <= 1e-6 within 10 * kappa * log(1/eps) iterations
    L, mu = 2.0, 0.25
    obj = QuadraticSaddleInstance(d=8, gamma=-mu, L_top=L, n=6,
                                  rotation_seed=3, noise_scale=0.0)
    rng = np.random.default_rng(0)
    x0 = obj.manifold.point(0.3 * rng.standard_normal(8))
    eps = 1e-6
    report = _prgd(obj, x0, eps, 0.5, 10_000_000, 1, eta=1.0 / L, r=1e-3,
                   T_max=20)
    assert report.exit_reason == "certified"
    assert report.certified.grad_norm <= eps
    kappa = L / mu
    limit = 10.0 * kappa * np.log(1.0 / eps)
    assert report.outer_iterations <= limit
    # gradient norms on check rows decay monotonically for exact GD
    checks = [r.grad_norm_or_batch for r in report.trace
              if r.event == "grad_check"]
    assert all(a >= b for a, b in zip(checks, checks[1:]))


def test_prgd_escapes_rayleigh_saddle():
    obj = RayleighInstance(d=12, n=48, spectrum=np.concatenate(
        ([2.0, 1.0], np.linspace(0.9, 0.1, 10))), noise_scale=0.0,
        rotation_seed=None)
    x0 = obj.eigvec(1)
    report = _prgd(obj, x0, 1e-4, 0.5, 2_000_000, 5, eta=0.05, r=1e-3,
                   T_max=40)
    assert report.exit_reason == "certified"
    align = abs(report.final_point.coords @ obj.eigvec(0).coords)
    assert align >= 0.99


@pytest.mark.parametrize("T_max", [3, 7])
def test_prgd_escape_length_is_t_max(T_max):
    # at the exact saddle the check passes and certification fails, so the
    # first outer iteration perturbs and then takes the params' T_max steps
    obj = RayleighInstance(d=12, n=48, spectrum=np.concatenate(
        ([2.0, 1.0], np.linspace(0.9, 0.1, 10))), noise_scale=0.0,
        rotation_seed=None)
    report = _prgd(obj, obj.eigvec(1), 1e-4, 0.5, 2_000, 5, eta=0.05,
                   r=1e-3, T_max=T_max)
    first = [(r.inner_k, r.event) for r in report.trace if r.outer_t == 0]
    assert first == [(0, "grad_check")] + [
        (k, "step") for k in range(1, T_max + 1)]
    assert report.trace[T_max].queries_cum == (T_max + 1) * obj.n


def test_prgd_rows_labeled_baseline():
    obj = RayleighInstance(d=6, n=12, spectrum=np.linspace(2.0, 0.5, 6),
                           noise_scale=0.1, rotation_seed=2)
    rng = np.random.default_rng(3)
    x0 = obj.manifold.rand_point(rng)
    report = _prgd(obj, x0, 1e-3, 0.5, 5_000, 7, eta=0.05, r=1e-3, T_max=20)
    assert report.trace
    assert all(r.epoch_type == "baseline" for r in report.trace)
    assert report.queries_used <= 5_000
    # full-batch checks cost n queries each
    assert report.trace[0].queries_cum == obj.n


# ----------------------------------------------------- rsrg_unperturbed

def _rsrg_unperturbed(obj, x0, epsilon, delta, budget, seed):
    # the harness's rsrg_unperturbed path: probed parameters, r forced to 0
    stream = master_stream(seed)
    params, _ = probe_params(obj, x0, epsilon, delta, budget, stream)
    return prsrg_run(obj, x0, replace(params, r=0.0), stream)


def test_rsrg_unperturbed_never_leaves_exact_saddle():
    obj = RayleighInstance(d=8, n=32, spectrum=np.linspace(2.0, 0.3, 8),
                           noise_scale=0.0, rotation_seed=None)
    x0 = obj.eigvec(1)
    report = _rsrg_unperturbed(obj, x0, epsilon=1e-3, delta=0.1,
                               budget=3_000, seed=13)
    assert report.exit_reason == "budget"
    assert np.array_equal(report.final_point.coords, x0.coords)


def test_rsrg_unperturbed_descends_from_generic_start():
    obj = RayleighInstance(d=10, n=64, spectrum=np.linspace(2.0, 0.1, 10),
                           noise_scale=0.2, rotation_seed=6)
    rng = np.random.default_rng(8)
    x0 = obj.manifold.rand_point(rng)
    report = _rsrg_unperturbed(obj, x0, epsilon=1e-2, delta=0.5,
                               budget=40_000, seed=17)
    assert report.best_F < obj.value(x0)
    assert report.queries_used <= 40_000


# -------------------------------------------------------- shared rules

def test_baseline_validation():
    # epsilon and the budget are SolverParams fields too
    obj, x0, params = _small_params()
    with pytest.raises(ParameterError):
        replace(params, epsilon=0.0)
    with pytest.raises(ParameterError):
        replace(params, budget=-1)
    with pytest.raises(ParameterError):
        baseline_run(obj, x0, params, rng="not-a-seed")


def test_prgd_spends_more_queries_than_prsrg_head_to_head():
    # per-check cost n vs the solver's sqrt(n)-scaled epochs: on n = 4096
    # the full-gradient baseline pays more queries to its first
    # certification in at least 8 of 10 seeds
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 30)))
    obj = RayleighInstance(d=32, n=4096, spectrum=spec, noise_scale=0.4,
                           rotation_seed=9)
    wins = 0
    for seed in range(10):
        rng = np.random.default_rng(100 + seed)
        x0 = obj.manifold.rand_point(rng)
        solver_report, params = auto_solve(obj, x0, epsilon=0.05, delta=0.5,
                                           budget=3_000_000, rng=seed)
        base_report = baseline_run(
            obj, x0, replace(params, eta=0.05, r=1e-3, T_max=30), seed)
        solver_q = (solver_report.queries_used
                    if solver_report.exit_reason == "certified"
                    else 3_000_000)
        base_q = (base_report.queries_used
                  if base_report.exit_reason == "certified"
                  else 3_000_000)
        if base_q > solver_q:
            wins += 1
    assert wins >= 8
