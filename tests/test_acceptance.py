"""End-to-end acceptance battery.

Twelve numbered checks covering gradient correctness, estimator behavior,
descent and escape guarantees, certification, query scaling, and
determinism. Each check prints one ``[acceptance] NN <label>: PASS/FAIL``
line (visible under ``pytest -s`` and in captured output on failure).
Statistical checks run on fixed seeds, so every number here is exactly
reproducible.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import time
import warnings

import numpy as np

from prsrg import (
    PullbackOracle,
    QuadraticSaddleInstance,
    RayleighInstance,
    TangentVector,
)
from prsrg.diagnostics import certify
from prsrg.geometry import Sphere
from prsrg.harness import parse_config, run_experiment, run_sweep
from prsrg.rng import TAG_INIT, master_stream
from prsrg.solver import probe_params, prsrg_run
from prsrg.tssrg import TssrgParams, tssrg_run

from conftest import dretract_matrix, fd_pullback_grad
from replay import check_variance_bound, escape_threshold, estimator_gap


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def _quiet_params(**kw) -> TssrgParams:
    # some checks intentionally run b < m; the sizing warning is not under test
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return TssrgParams(**kw)


# 01 ----------------------------------------------------------------------

def test_01_pullback_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 48)))
    obj = RayleighInstance(d=50, n=40, spectrum=spec, noise_scale=0.3,
                           rotation_seed=4)
    man = obj.manifold
    worst = 0.0
    for _ in range(20):
        x = man.rand_point(rng)
        oracle = PullbackOracle(obj, x)
        u = man.sample_ball(x, man.D, rng)
        g = oracle.exact_grad(u)
        fd = fd_pullback_grad(oracle, u)
        worst = max(worst, np.linalg.norm(g.coords - fd) / np.linalg.norm(fd))
    elapsed = time.perf_counter() - t0
    _verdict(1, "pullback gradient vs central differences",
             worst <= 1e-5 and elapsed < 5.0,
             f"max rel err {worst:.2e}, {elapsed:.1f}s")


# 02 ----------------------------------------------------------------------

def test_02_hvp_matches_analytic_riemannian_hessian():
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 28)))
    obj = RayleighInstance(d=30, n=50, spectrum=spec, noise_scale=0.4,
                           rotation_seed=6)
    man = obj.manifold
    rng = np.random.default_rng(202)
    x = man.rand_point(rng)
    oracle = PullbackOracle(obj, x)
    xc = x.coords
    A = obj.Abar
    proj = np.eye(man.ambient_dim) - np.outer(xc, xc)
    worst = 0.0
    for _ in range(10):
        v = man.sample_ball(x, man.D, rng)
        hv = oracle.hvp(v)
        # Hess F(x)[v] = P_x(grad^2 f(x) v) - <x, grad f(x)> v for the sphere
        analytic = proj @ (-2.0 * (A @ v.coords)) \
            + 2.0 * float(xc @ A @ xc) * v.coords
        worst = max(worst, np.linalg.norm(hv.coords - analytic)
                    / np.linalg.norm(analytic))
    _verdict(2, "zero-offset HVP vs analytic Hessian action",
             worst <= 1e-10, f"max rel err {worst:.2e}")


# 03 ----------------------------------------------------------------------

def test_03_dretract_smallest_singular_value_bound():
    man = Sphere(30)
    assert man.D <= 1.0 / (2.0 * man.c0) + 1e-12
    rng = np.random.default_rng(303)
    worst = math.inf
    for _ in range(1000):
        x = man.rand_point(rng)
        u = man.sample_ball(x, man.D, rng)
        M = dretract_matrix(man, x, u)
        worst = min(worst, np.linalg.svd(M, compute_uv=False)[-1])
    _verdict(3, "differential of retraction sigma_min over 1000 draws",
             worst >= 0.5, f"min sigma {worst:.4f}")


# 04 ----------------------------------------------------------------------

def test_04_full_batch_estimator_is_exact():
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 8)))
    obj = RayleighInstance(d=10, n=64, spectrum=spec, noise_scale=0.3,
                           rotation_seed=9)
    man = obj.manifold
    stream = master_stream(404)
    x = man.rand_point(stream.child(TAG_INIT).generator())
    oracle = PullbackOracle(obj, x)
    p = _quiet_params(eta=0.01, m=64, b=64, B=64, T_max=64)
    out = tssrg_run(oracle, man.zero_tangent(x), p, stream, record=True)
    seg = out.segment
    gaps = [estimator_gap(oracle, u, v)
            for r, u, v in zip(seg.rows, seg.u_vecs, seg.v_vecs)
            if r.event != "boundary"]
    _verdict(4, "recursive estimator gap with b = n",
             len(gaps) > 0 and max(gaps) <= 1e-8,
             f"max gap {max(gaps):.2e} over {len(gaps)} rows")


# 05 ----------------------------------------------------------------------

def test_05_variance_ratio_flat_across_minibatch_sizes():
    t0 = time.perf_counter()
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 18)))
    obj = RayleighInstance(d=20, n=256, spectrum=spec, noise_scale=0.5,
                           rotation_seed=3)
    man = obj.manifold
    probe = PullbackOracle(obj, man.rand_point(np.random.default_rng(0)))
    est = probe.estimate_lipschitz(np.random.default_rng(1))
    eta = 0.1 / est.L_hat
    medians = []
    for b in (4, 16, 64):
        sups = []
        for s in range(20):
            stream = master_stream(5000 + s)
            x = man.rand_point(stream.child(TAG_INIT).generator())
            oracle = PullbackOracle(obj, x)
            p = _quiet_params(eta=eta, m=16, b=b, B=256, T_max=16)
            out = tssrg_run(oracle, man.zero_tangent(x), p, stream,
                            record=True)
            sups.append(check_variance_bound(out.segment, oracle, p,
                                             est.L_hat).sup_ratio)
        medians.append(float(np.median(sups)))
    elapsed = time.perf_counter() - t0
    ratios = [medians[1] / medians[0], medians[2] / medians[1]]
    ok = all(1.0 / 1.5 <= r <= 1.5 for r in ratios) and elapsed < 60.0
    _verdict(5, "normalized variance ratio flat over b in {4,16,64}", ok,
             "medians " + ", ".join(f"{m:.3f}" for m in medians)
             + f"; step ratios {ratios[0]:.2f}, {ratios[1]:.2f}; "
             f"{elapsed:.1f}s")


# 06 ----------------------------------------------------------------------

def test_06_large_gradient_epochs_do_not_increase_objective():
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 18)))
    obj = RayleighInstance(d=20, n=1000, spectrum=spec, noise_scale=0.4,
                           rotation_seed=7)
    man = obj.manifold
    probe = PullbackOracle(obj, man.rand_point(np.random.default_rng(0)))
    est = probe.estimate_lipschitz(np.random.default_rng(1))
    eta = 0.1 / est.L_hat
    eps = 0.05
    good = 0
    for s in range(100):
        stream = master_stream(6000 + s)
        x = man.rand_point(stream.child(TAG_INIT).generator())
        oracle = PullbackOracle(obj, x)
        # random starts on this instance always sit above the threshold
        assert oracle.exact_grad(oracle.zero()).norm >= eps
        p = _quiet_params(eta=eta, m=32, b=32, B=1000, T_max=32)
        out = tssrg_run(oracle, man.zero_tangent(x), p, stream)
        good += obj.value(out.result) <= obj.value(x)
    _verdict(6, "objective non-increase from large-gradient starts",
             good >= 95, f"{good}/100 epochs")


# 07 ----------------------------------------------------------------------

def _coupled_runs(obj, eta, r0, m, b, T, stream):
    man = obj.manifold
    x0 = man.point(np.zeros(man.ambient_dim))
    oracle = PullbackOracle(obj, x0)
    emin = obj.rotation[:, 0]
    p = _quiet_params(eta=eta, m=m, b=b, B=obj.n, T_max=T)
    ua = TangentVector(x0, +0.5 * r0 * emin)
    ub = TangentVector(x0, -0.5 * r0 * emin)
    # one stream for both runs: the same minibatches at every shared step
    return (tssrg_run(oracle, ua, p, stream, record=True),
            tssrg_run(oracle, ub, p, stream, record=True))


def _deviations(out_a, out_b) -> np.ndarray:
    # re-anchor rows duplicate the previous iterate; index t = t inner steps
    dev = []
    for row, va, vb in zip(out_a.segment.rows, out_a.segment.u_vecs,
                           out_b.segment.u_vecs):
        if row.event == "anchor" and row.inner_k > 0:
            continue
        dev.append(float(np.linalg.norm(va - vb)))
    return np.asarray(dev)


def test_07_coupled_sequences_grow_at_curvature_rate():
    eta, gamma = 0.1, 1.0
    growth = 1.0 + eta * gamma

    # full batches: the separation recursion is exactly linear
    clean = QuadraticSaddleInstance(d=16, gamma=gamma, L_top=2.0, n=16,
                                    rotation_seed=None, noise_scale=0.0)
    r0 = 1e-8
    out_a, out_b = _coupled_runs(clean, eta, r0, m=64, b=16, T=50,
                                 stream=master_stream(700))
    dev = _deviations(out_a, out_b)
    expected = r0 * growth ** np.arange(dev.size)
    exact_err = float(np.max(np.abs(dev - expected) / expected))

    # stochastic b=8: the fitted per-step rate stays near 1 + eta*gamma
    noisy = QuadraticSaddleInstance(d=16, gamma=gamma, L_top=2.0, n=64,
                                    rotation_seed=None, noise_scale=0.2)
    rates = []
    for s in range(20):
        out_a, out_b = _coupled_runs(noisy, eta, 1e-6, m=8, b=8, T=30,
                                     stream=master_stream(7000 + s))
        d = _deviations(out_a, out_b)
        slope = np.polyfit(np.arange(d.size), np.log(d), 1)[0]
        rates.append(math.exp(slope))
    med = float(np.median(rates))
    fit_rel = abs(med - growth) / growth

    ok = dev.size == 51 and exact_err <= 1e-10 and fit_rel <= 0.10
    _verdict(7, "coupled-sequence growth rate",
             ok, f"full-batch max rel err {exact_err:.2e} over t <= 50; "
                 f"b=8 median fitted rate {med:.4f} vs {growth:.1f}")


# 08 / 09 ------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def _escape_runs():
    """Ten seeded solver runs started at the second eigenvector on S^99."""
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 98)))
    obj = RayleighInstance(d=100, n=1000, spectrum=spec, noise_scale=0.5,
                           rotation_seed=None)
    x0 = obj.eigvec(1)
    t0 = time.perf_counter()
    runs = []
    for s in range(10):
        stream = master_stream(8000 + s)
        params, est = probe_params(obj, x0, 1e-3, 0.1, 5_000_000, stream)
        rep = prsrg_run(obj, x0, params, stream)
        runs.append((rep, est))
    return obj, runs, time.perf_counter() - t0


def test_08_saddle_escape_end_to_end():
    obj, runs, t_main = _escape_runs()
    x0 = obj.eigvec(1)
    v1 = obj.eigvec(0).coords
    wins = 0
    for rep, _ in runs:
        pts = [rep.best_point, rep.final_point]
        align = max(abs(p.coords @ v1) for p in pts)
        wins += align >= 0.99 and rep.queries_used <= 5_000_000

    # ablation: without the perturbation the exact saddle is a fixed point
    t1 = time.perf_counter()
    stream = master_stream(8042)
    params, _ = probe_params(obj, x0, 1e-3, 0.1, 5_000_000, stream)
    params = dataclasses.replace(params, r=0.0)
    rep0 = prsrg_run(obj, x0, params, stream)
    move = float(np.linalg.norm(rep0.final_point.coords - x0.coords))
    elapsed = t_main + time.perf_counter() - t1

    ok = wins >= 9 and move <= 1e-6 and elapsed < 300.0
    _verdict(8, "top-eigenvector recovery from the gap-1 saddle", ok,
             f"{wins}/10 seeds aligned; r=0 moved {move:.1e}; {elapsed:.0f}s")


def test_09_escape_episodes_decrease_objective_enough():
    _, runs, _ = _escape_runs()
    total = good = 0
    for rep, est in runs:
        thresh = escape_threshold(0.1, est.rho_hat)
        # an episode is the rows of its outer_t, as the solver labels them
        for _, group in itertools.groupby(rep.trace, lambda r: r.outer_t):
            rows = list(group)
            if rows[0].epoch_type == "escape":
                total += 1
                good += (rows[0].F_value - rows[-1].F_value) >= thresh
    _verdict(9, "per-episode decrease beyond configured threshold",
             total >= 1 and good >= 0.9 * total, f"{good}/{total} episodes")


# 10 ----------------------------------------------------------------------

def test_10_certification_separates_minimizer_from_saddle():
    obj, runs, _ = _escape_runs()
    v1 = PullbackOracle(obj, obj.eigvec(0))
    e2 = PullbackOracle(obj, obj.eigvec(1))
    cert_min = certify(v1, 1e-3, 0.5)
    cert_sad = certify(e2, 1e-3, 0.5)
    lam_err = abs(cert_sad.lambda_min_estimate - (-2.0))
    ok = cert_min.passed and not cert_sad.passed and lam_err <= 0.01
    _verdict(10, "certification at the top and second eigenvectors", ok,
             f"minimizer passed={cert_min.passed}, saddle "
             f"lambda={cert_sad.lambda_min_estimate:.4f}")


# 11 ----------------------------------------------------------------------

def test_11_queries_to_certification_scale_like_sqrt_n():
    spec = np.concatenate(([2.0, 1.0], np.linspace(0.9, 0.1, 28)))
    medians = []
    for n in (256, 1024, 4096):
        obj = RayleighInstance(d=30, n=n, spectrum=spec, noise_scale=0.4,
                               rotation_seed=11)
        man = obj.manifold
        queries = []
        for s in range(10):
            stream = master_stream(11000 + 97 * s)
            x0 = man.rand_point(stream.child(TAG_INIT).generator())
            params, est = probe_params(obj, x0, 0.05, 0.5, 10_000_000,
                                       stream)
            # a fifth of the derived step: deep in the multi-epoch regime
            params = dataclasses.replace(params, eta=0.02 / est.L_hat)
            rep = prsrg_run(obj, x0, params, stream)
            assert rep.exit_reason == "certified"
            queries.append(rep.queries_used)
        medians.append(float(np.median(queries)))
    ratios = [medians[1] / medians[0], medians[2] / medians[1]]
    ok = all(1.3 <= r <= 3.2 for r in ratios)
    _verdict(11, "median queries to certification per 4x in n", ok,
             "medians " + ", ".join(f"{int(m)}" for m in medians)
             + f"; ratios {ratios[0]:.2f}, {ratios[1]:.2f}")


# 12 ----------------------------------------------------------------------

_RUN_INI = """\
[experiment]
seed = 12
budget = 50000

[problem]
manifold = sphere:20
kind = rayleigh
n = 256
spectrum = 2.0,1.0,linspace:0.9:0.1:18
noise_scale = 0.4

[solver]
epsilon = 0.05
delta = 0.5
"""

_SWEEP_INI = _RUN_INI.replace("budget = 50000", "budget = 20000") + """
[sweep]
n = 64,128
seeds = 2
"""


def test_12_reruns_and_sweep_cells_are_byte_identical(tmp_path):
    cfg = parse_config(_RUN_INI)
    for i in (1, 2, 3):
        run_experiment(cfg, out=str(tmp_path / f"r{i}"))
    traces = [(tmp_path / f"r{i}.trace.csv").read_bytes() for i in (1, 2, 3)]
    reruns_equal = traces[0] == traces[1] == traces[2]

    scfg = parse_config(_SWEEP_INI)
    run_sweep(scfg, tmp_path / "t1")
    run_sweep(scfg, tmp_path / "t2")
    names = [p.name for p in sorted((tmp_path / "t1").iterdir())]
    sweep_equal = bool(names) and all(
        (tmp_path / "t1" / name).read_bytes()
        == (tmp_path / "t2" / name).read_bytes() for name in names)

    # every cell against a standalone run of its config, built from text
    cells_equal = True
    base = _SWEEP_INI.split("[sweep]")[0]
    for n in (64, 128):
        for seed in (12, 13):
            text = base.replace("seed = 12", f"seed = {seed}").replace(
                "n = 256", f"n = {n}")
            run_experiment(parse_config(text), out=str(tmp_path / "alone"))
            for suffix in (".trace.csv", ".report.json"):
                cells_equal &= ((tmp_path / "t1" / f"n{n}_s{seed}{suffix}")
                                .read_bytes()
                                == (tmp_path / f"alone{suffix}").read_bytes())

    ok = reruns_equal and sweep_equal and cells_equal
    _verdict(12, "byte-identical traces across reruns and between sweep "
             "cells and standalone runs", ok,
             f"3 reruns equal={reruns_equal}, "
             f"{len(names)} sweep files equal={sweep_equal}, "
             f"4 cells equal standalone={cells_equal}")
