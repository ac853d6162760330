"""Config grammar, experiment runners, artifacts, sweeps, and the CLI."""

import collections
import csv
import dataclasses
import functools
import importlib.util
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import typing
import warnings
from pathlib import Path

import numpy as np
import pytest

from prsrg import harness
from prsrg.baselines import baseline_run
from prsrg.cli import EXIT_BAD_INPUT, EXIT_FAIL, EXIT_OK, main
from prsrg.errors import (ContractViolation, InvariantViolation,
                          NumericalFailure, ParameterError)
from prsrg.harness import (ExperimentConfig, ProblemSpec, SolverSpec,
                           SweepSpec, build_problem, dump_config,
                           parse_config, parse_spectrum, resolve_params,
                           resolve_start, run_experiment, run_sweep)
from prsrg.problems import PAIR_BLOCK, QuadraticSaddleInstance
from prsrg.pullback import PullbackOracle
from prsrg.rng import master_stream
from prsrg.solver import (SolverParams, auto_solve, prsrg_run,
                          small_grad_check)
from prsrg.trace import COLUMNS, TraceRow, rows_to_csv, write_trace
from prsrg.tssrg import TssrgParams

from conftest import read_trace

SMALL_RUN = """\
[experiment]
seed = 7
budget = 6000

[problem]
manifold = sphere:3
kind = rayleigh
n = 30
spectrum = 2.0,1.0,0.0
noise_scale = 0.2

[solver]
epsilon = 0.05
delta = 0.5
"""

# delta = 1.9 is above the probe's sampled smoothness (l_hat ~1.42), but e2
# is a strict saddle with lambda_min = -2 < -delta
SADDLE_ABOVE_PROBE = """\
[experiment]
seed = 3

[problem]
manifold = sphere:30
kind = rayleigh
n = 1024
spectrum = 2.0,1.0,linspace:0.9:0.1:28
noise_scale = 0.4
start = e2

[solver]
epsilon = 0.001
delta = 1.9
"""

# noise-free, so the certificate at an eigenvector is exact
CLEAN_CERT = """\
[experiment]
seed = 3

[problem]
manifold = sphere:3
kind = rayleigh
n = 20
spectrum = 2.0,1.0,0.0
noise_scale = 0.0
start = {start}

[solver]
epsilon = 0.001
delta = 0.5
"""

SWEEP_RUN = """\
[experiment]
seed = 11
budget = 2500

[problem]
manifold = sphere:3
kind = rayleigh
n = 30
spectrum = 2.0,1.0,0.0
noise_scale = 0.2

[solver]
epsilon = 0.05
delta = 0.5

[sweep]
n = 8,12
seeds = 2
"""


# ---------------------------------------------------------------- spectrum

def test_parse_spectrum_grammar():
    assert parse_spectrum("1.5").tolist() == [1.5]
    np.testing.assert_array_equal(parse_spectrum(" 2.0, 1.0 ,0.5 "),
                                  [2.0, 1.0, 0.5])
    out = parse_spectrum("2.0,1.0,linspace:0.9:0.1:98")
    assert out.size == 100
    np.testing.assert_array_equal(out[:2], [2.0, 1.0])
    np.testing.assert_array_equal(out[2:], np.linspace(0.9, 0.1, 98))
    # a one-point linspace collapses to its left endpoint
    assert parse_spectrum("linspace:3.0:7.0:1").tolist() == [3.0]


def test_parse_spectrum_errors():
    with pytest.raises(ParameterError):
        parse_spectrum("")
    with pytest.raises(ParameterError):
        parse_spectrum("abc")
    with pytest.raises(ParameterError):
        parse_spectrum("linspace:1:2")
    with pytest.raises(ParameterError):
        parse_spectrum("linspace:a:b:3")
    with pytest.raises(ParameterError):
        parse_spectrum("linspace:1:2:0")


def test_format_spectrum_roundtrip():
    arr = np.array([2.0, 1.0, 1 / 3, 1e-17, 0.1])
    text = ",".join(repr(float(v)) for v in arr)
    np.testing.assert_array_equal(parse_spectrum(text), arr)


# ------------------------------------------------------------------ config

def test_config_defaults_and_roundtrip():
    cfg = parse_config("")
    assert cfg == ExperimentConfig()
    assert parse_config(dump_config(cfg)) == cfg
    # a [sweep] that sets seeds but sweeps no n keeps its seeds
    seeds_only = parse_config("[sweep]\nseeds = 3\n")
    assert seeds_only.sweep.seeds == 3
    assert parse_config(dump_config(seeds_only)) == seeds_only


GOLDEN_DUMPS = {
    "empty": """\
[experiment]
seed = 0
budget = 1000000
algo = prsrg

[problem]
manifold = sphere:100
kind = rayleigh
spectrum = 2.0,1.0,linspace:0.9:0.1:98
noise_scale = 0.5
start = random
n = 1000

[solver]
epsilon = 0.001
delta = 0.1

""",
    "readme": """\
[experiment]
seed = 7
budget = 6000
algo = prsrg

[problem]
manifold = sphere:3
kind = rayleigh
spectrum = 2.0,1.0,0.0
noise_scale = 0.2
start = random
n = 30

[solver]
epsilon = 0.05
delta = 0.5

""",
    "sweep_escape": """\
[experiment]
seed = 1
budget = 1000000
algo = prsrg

[problem]
manifold = sphere:200
kind = rayleigh
spectrum = 2.0,1.0,linspace:0.9:0.1:198
noise_scale = 0.5
start = e2
n = 1000
rotation_seed = 7

[solver]
epsilon = 0.001
delta = 0.1

[sweep]
n = 10000,20000
seeds = 2

""",
    "saddle_stall": """\
[experiment]
seed = 1
budget = 1000000
algo = prsrg

[problem]
manifold = sphere:100
kind = rayleigh
spectrum = 2.0,1.0,linspace:0.9:0.1:98
noise_scale = 0.5
start = e2
n = 1000

[solver]
epsilon = 0.001
delta = 0.1

""",
    "online_stream": """\
[experiment]
seed = 1
budget = 8000000
algo = prsrg

[problem]
manifold = sphere:20
kind = streaming_rayleigh
spectrum = 2.0,1.0,linspace:0.6:0.1:18
noise_scale = 0.5
start = random
n = 1000
rotation_seed = 7

[solver]
epsilon = 0.2
delta = 0.5

""",
}


def _golden_inputs(monkeypatch) -> dict[str, str]:
    """Config text for each golden dump: the empty config, the README's ini
    block and the benchmark workloads rendered with seed 1."""
    root = Path(__file__).resolve().parents[1]
    (readme,) = re.findall(r"```ini\n(.*?)```",
                           (root / "README.md").read_text(), flags=re.DOTALL)
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", root / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses resolve the module's annotations through sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    texts = {"empty": "", "readme": readme}
    for name, w in workloads.WORKLOADS.items():
        texts[name] = w.config.format(seed=1)
    return texts


def test_dump_config_golden_bytes(monkeypatch):
    # report.json embeds the dump, so these bytes are part of every report
    texts = _golden_inputs(monkeypatch)
    assert set(texts) == set(GOLDEN_DUMPS)
    for name, text in texts.items():
        assert dump_config(parse_config(text)) == GOLDEN_DUMPS[name], name


def test_config_roundtrip_every_section():
    cfg = ExperimentConfig(
        seed=11, budget=1234, out="runs/exp", algo="prgd",
        problem=ProblemSpec(manifold="sphere:5", kind="rayleigh", n=40,
                            spectrum="2.0,1.0,linspace:0.9:0.5:3",
                            noise_scale=0.3, rotation_seed=4, start="e2"),
        solver=SolverSpec(epsilon=0.01, delta=0.2),
        sweep=SweepSpec(n_values=(8, 16), seeds=3))
    text = dump_config(cfg)
    assert parse_config(text) == cfg
    # integers are written back as integers
    assert "\nn = 40\n" in text and "\nseeds = 3\n" in text


def test_config_validation_errors():
    with pytest.raises(ParameterError):
        parse_config("[experiment]\nalgo = sgd\n")
    with pytest.raises(ParameterError):
        parse_config("[problem]\nkind = rosenbrock\n")
    with pytest.raises(ParameterError):
        parse_config("[experiment]\nbudget = -1\n")
    with pytest.raises(ParameterError):
        parse_config("[experiment]\nseed = abc\n")
    with pytest.raises(ParameterError):
        parse_config("no section header\n")
    with pytest.raises(ParameterError, match=r"\[solver\] unknown key 'zeta'"):
        parse_config("[solver]\nzeta = 1.0\n")


def test_build_problem_validation():
    cfg = parse_config(SMALL_RUN)
    bad = ExperimentConfig(problem=ProblemSpec(manifold="sphere:50",
                                               kind="rayleigh", n=30,
                                               spectrum="2.0,1.0,0.0"))
    with pytest.raises(ParameterError, match="does not match"):
        build_problem(bad)
    obj = build_problem(cfg)
    assert obj.n == 30
    assert obj.manifold.manifold_id == "sphere:3"


# ------------------------------------------------------------ start points

def test_resolve_start_grammar(tmp_path):
    cfg = parse_config(SMALL_RUN)
    obj = build_problem(cfg)

    def at(name):
        c = ExperimentConfig(problem=ProblemSpec(
            manifold="sphere:3", kind="rayleigh", n=30,
            spectrum="2.0,1.0,0.0", noise_scale=0.2, start=name))
        return resolve_start(c, obj, master_stream(7))

    a = at("random")
    b = at("random")
    np.testing.assert_array_equal(a.coords, b.coords)  # same stream, same point
    np.testing.assert_array_equal(at("e2").coords, obj.eigvec(1).coords)
    np.testing.assert_array_equal(at("e1").coords, obj.eigvec(0).coords)
    for name in ("northpole", "zero", "coords:1,0,0", f"file:{tmp_path}"):
        with pytest.raises(ParameterError, match="unknown start"):
            at(name)

    # streaming_rayleigh has eigenvector starts too
    scfg = ExperimentConfig(problem=ProblemSpec(
        manifold="sphere:3", kind="streaming_rayleigh", n=None,
        spectrum="2.0,1.0,0.0", rotation_seed=4, start="e2"))
    sobj = build_problem(scfg)
    np.testing.assert_array_equal(
        resolve_start(scfg, sobj, master_stream(0)).coords, sobj.rotation[:, 1])


# ------------------------------------------------------ derived parameters

def test_small_minibatch_warns_once_per_run_from_a_source_line():
    # the caller builds the run's SolverParams once; each outer
    # iteration's capped copy must not warn again, and the warning must
    # name the constructor's caller, not the generated __init__
    cfg = parse_config(SMALL_RUN)
    obj = build_problem(cfg)
    stream = master_stream(cfg.seed)
    x0 = resolve_start(cfg, obj, stream)
    derived, _ = resolve_params(cfg, obj, x0, stream)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        params = SolverParams(**{**dataclasses.asdict(derived),
                                 "m": 1000000})
        report = prsrg_run(obj, x0, params, stream)
    assert params.b < params.m
    assert report.outer_iterations > 1
    below = [w for w in caught if "below epoch length" in str(w.message)]
    assert len(below) == 1, [str(w.message) for w in below]
    assert below[0].filename == __file__


def test_config_sections_resolve_type_hints_once(monkeypatch):
    calls = collections.Counter()
    resolve = typing.get_type_hints

    def counted(cls, *args, **kwargs):
        calls[cls] += 1
        return resolve(cls, *args, **kwargs)

    monkeypatch.setattr(typing, "get_type_hints", counted)
    harness._fields.cache_clear()
    cfg = parse_config(SMALL_RUN)
    parse_config(SMALL_RUN + "[sweep]\nn = 8\n")
    dump_config(cfg)
    sections = {ExperimentConfig, ProblemSpec, SolverSpec, SweepSpec}
    assert set(calls) <= sections
    assert max(calls.values()) == 1


@pytest.fixture
def probes(tmp_path, monkeypatch):
    """Logs every smoothness probe: each ``estimate_lipschitz`` call appends
    its objective's n to a file, which a forked sweep worker appends to as
    well. Returns a function that reads the logged n values."""
    log = tmp_path / "probes.log"
    log.touch()
    real = PullbackOracle.estimate_lipschitz

    def counting_probe(self, *args, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{self.objective.n}\n")
        return real(self, *args, **kwargs)

    monkeypatch.setattr(PullbackOracle, "estimate_lipschitz", counting_probe)
    return lambda: [int(line) for line in log.read_text().split()]


def test_unperturbed_params_are_prsrg_params_with_zero_radius(probes):
    # rsrg_unperturbed derives its parameters as prsrg does, from one
    # probe, and only then sets r = 0
    cfg = parse_config(SMALL_RUN)
    _, params = run_experiment(cfg)
    _, unperturbed = run_experiment(
        dataclasses.replace(cfg, algo="rsrg_unperturbed"))
    assert probes() == [cfg.problem.n, cfg.problem.n]
    assert params.r > 0
    assert unperturbed == dataclasses.replace(params, r=0.0)


# --------------------------------------------------------------- artifacts

def test_run_experiment_writes_artifacts(tmp_path):
    cfg = parse_config(SMALL_RUN)
    prefix = tmp_path / "exp"
    report, params = run_experiment(cfg, out=str(prefix))

    trace_path = prefix.with_suffix(".trace.csv")
    report_path = prefix.with_suffix(".report.json")
    assert trace_path.exists() and report_path.exists()
    assert trace_path.read_text() == rows_to_csv(report.trace)

    payload = json.loads(report_path.read_text())
    assert set(payload) == {"config", "params", "report"}
    assert parse_config(payload["config"]) == cfg
    assert payload["params"]["m"] == params.m
    assert payload["params"]["B"] == params.B
    assert payload["report"] == report.as_dict()
    assert payload["report"]["queries_used"] <= cfg.budget
    assert payload["report"]["seed"] == 7


def test_every_algo_runs_on_the_resolved_params():
    # every algorithm runs on the params resolve_params gives, r = 0 for
    # rsrg_unperturbed, and prgd is baseline_run on them
    cfg = parse_config(SMALL_RUN)
    obj = build_problem(cfg)
    stream = master_stream(cfg.seed)
    x0 = resolve_start(cfg, obj, stream)
    resolved, est = resolve_params(cfg, obj, x0, stream)
    reports = {}
    for algo in harness.ALGOS:
        reports[algo], params = run_experiment(
            dataclasses.replace(cfg, algo=algo))
        r = 0.0 if algo == "rsrg_unperturbed" else resolved.r
        assert params == dataclasses.replace(resolved, r=r), algo
        lipschitz = reports[algo].lipschitz
        assert (lipschitz.L_hat, lipschitz.rho_hat) == (est.L_hat,
                                                         est.rho_hat), algo
    expected = baseline_run(obj, x0, resolved, stream)
    expected.seed = cfg.seed
    assert reports["prgd"].as_dict() == expected.as_dict()
    assert rows_to_csv(reports["prgd"].trace) == rows_to_csv(expected.trace)


def test_report_params_are_the_solver_params_fields(tmp_path):
    # report.json's params are SolverParams field by field: [solver]
    # epsilon and delta, the budget, and what is derived from them
    cfg = parse_config(SMALL_RUN)
    prefix = tmp_path / "exp"
    _, params = run_experiment(cfg, out=str(prefix))
    payload = json.loads(prefix.with_suffix(".report.json").read_text())
    fields = {f.name for f in dataclasses.fields(SolverParams)}
    derived = {"eta", "m", "b", "B", "T_max", "r"}
    config_keys = {f.name for f in dataclasses.fields(SolverSpec)}
    assert set(payload["params"]) == fields == derived | config_keys | {
        "budget"}
    assert SolverParams(**payload["params"]) == params
    assert (params.epsilon, params.delta, params.budget) == (0.05, 0.5, 6000)


def test_ball_radius_is_the_manifolds():
    # no run record carries a radius or a mode: every epoch runs in the
    # manifold's ball, so each boundary row of each algorithm sits on it
    assert [f.name for f in dataclasses.fields(TssrgParams)] == [
        "eta", "m", "b", "B", "T_max"]
    assert [f.name for f in dataclasses.fields(SolverParams)] == [
        "eta", "m", "b", "B", "T_max", "r", "epsilon", "delta", "budget"]
    cfg = parse_config(SMALL_RUN)
    obj = build_problem(cfg)
    D = obj.manifold.D
    # eta = 0.5 takes descent epochs from a random start, and prgd's escape
    # from the saddle e2, out to the ball's edge
    for algo, start in (("prsrg", "random"), ("rsrg_unperturbed", "random"),
                        ("prgd", "e2")):
        stream = master_stream(cfg.seed)
        x0 = resolve_start(dataclasses.replace(
            cfg, problem=dataclasses.replace(cfg.problem, start=start)),
            obj, stream)
        params, _ = resolve_params(cfg, obj, x0, stream)
        params = dataclasses.replace(
            params, eta=0.5, r=0.0 if algo == "rsrg_unperturbed" else params.r)
        run = baseline_run if algo == "prgd" else prsrg_run
        exits = [row.u_norm for row in run(obj, x0, params, stream).trace
                 if row.event == "boundary"]
        assert exits, algo
        assert all(abs(u - D) <= 1e-12 for u in exits), algo


def test_run_experiment_budget_zero_vacuous():
    cfg = parse_config(SMALL_RUN.replace("budget = 6000", "budget = 0"))
    report, _ = run_experiment(cfg)
    assert report.queries_used == 0
    assert report.certified is None
    assert report.trace == []
    assert report.exit_reason == "budget"


def test_rerun_is_byte_identical(tmp_path):
    cfg = parse_config(SMALL_RUN)
    run_experiment(cfg, out=str(tmp_path / "a"))
    run_experiment(cfg, out=str(tmp_path / "b"))
    assert ((tmp_path / "a.trace.csv").read_bytes()
            == (tmp_path / "b.trace.csv").read_bytes())
    assert ((tmp_path / "a.report.json").read_bytes()
            == (tmp_path / "b.report.json").read_bytes())

    other = dataclasses.replace(cfg, seed=8)
    run_experiment(other, out=str(tmp_path / "c"))
    assert ((tmp_path / "a.trace.csv").read_bytes()
            != (tmp_path / "c.trace.csv").read_bytes())


# ------------------------------------------------------------------- sweep

def test_sweep_grid_and_cells_match_standalone_runs(tmp_path):
    # the odd n is served as a copied prefix of the n = 12 store, with a
    # zero last row; the even n as a view of its first rows
    cfg = parse_config(SWEEP_RUN.replace("n = 8,12", "n = 12,7,8"))
    d1 = tmp_path / "first"
    rows = run_sweep(cfg, d1)
    cells = [(7, 11), (7, 12), (8, 11), (8, 12), (12, 11), (12, 12)]
    assert [(r["n"], r["seed"]) for r in rows] == cells
    summary = (d1 / "summary.csv").read_text().splitlines()
    assert summary[0] == "n,seed,exit_reason,queries_used,best_F,certified"
    assert len(summary) == 7
    assert [line.split(",")[0] for line in summary[1:]] == [
        "7", "7", "8", "8", "12", "12"]

    d2 = tmp_path / "rerun"
    run_sweep(cfg, d2)
    assert sorted(p.name for p in d1.iterdir()) == sorted(
        p.name for p in d2.iterdir())
    for path in d1.iterdir():
        assert path.read_bytes() == (d2 / path.name).read_bytes()

    # each cell is byte-equal to a standalone run of that cell's config
    base = SWEEP_RUN.split("[sweep]")[0]
    for n, s in cells:
        text = base.replace("seed = 11", f"seed = {s}").replace(
            "n = 30", f"n = {n}")
        run_experiment(parse_config(text), out=str(tmp_path / "alone"))
        for suffix in (".trace.csv", ".report.json"):
            assert ((d1 / f"n{n}_s{s}{suffix}").read_bytes()
                    == (tmp_path / f"alone{suffix}").read_bytes())


def test_sweep_builds_each_problem_once_per_n(tmp_path, monkeypatch):
    # one build, at the largest n; the smaller n are prefixes of it
    built = []

    def counting_build(cfg):
        built.append(cfg.problem.n)
        return build_problem(cfg)

    monkeypatch.setattr(harness, "build_problem", counting_build)
    run_sweep(parse_config(SWEEP_RUN.replace("n = 8,12", "n = 12,7,8")),
              tmp_path / "grid")
    assert built == [12]


@pytest.mark.parametrize("algo, count", [("prsrg", 2), ("prgd", 2)])
def test_sweep_probes_smoothness_once_per_seed(tmp_path, probes, algo,
                                                count):
    # the probe reads Abar, the start point and the seed, never n, so a
    # seed's first cell probes and its other cells reuse the estimate;
    # every algorithm probes so. A seed's cells may run in a forked
    # worker, whose probes the fixture's file logs too
    text = SWEEP_RUN.replace("n = 8,12", "n = 12,7,8").replace(
        "seed = 11", f"seed = 11\nalgo = {algo}")
    rows = run_sweep(parse_config(text), tmp_path / "grid")
    assert len(rows) == 6
    assert probes() == [7] * count


# ----------------------------------------------------------- sweep workers

SWEEP_3_SEEDS = SWEEP_RUN.replace("n = 8,12", "n = 12,7,8").replace(
    "seeds = 2", "seeds = 3")


@pytest.fixture
def no_child_left():
    """After the test, this process has no child, running or unreaped."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _set_workers(monkeypatch, workers: int) -> None:
    monkeypatch.setattr(harness, "_usable_cpus", lambda: workers)


def _fail_cells(monkeypatch, failures: dict) -> None:
    """Cell (n, seed) in ``failures`` calls its value instead of running."""
    real = harness.run_experiment

    def cell(cfg, **kwargs):
        action = failures.get((cfg.problem.n, cfg.seed))
        if action is not None:
            action()
        return real(cfg, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", cell)


def test_sweep_files_are_byte_equal_across_worker_counts(tmp_path,
                                                         monkeypatch,
                                                         no_child_left):
    # striped seeds: 2 workers run seeds {11, 13} and {12}, 3 workers one
    # seed each; every cell logs the process that ran it
    log = tmp_path / "pids.log"
    log.touch()
    real = harness.run_experiment

    def logged(cfg, **kwargs):
        with open(log, "a") as fh:
            fh.write(f"{cfg.seed} {os.getpid()}\n")
        return real(cfg, **kwargs)

    monkeypatch.setattr(harness, "run_experiment", logged)
    cfg = parse_config(SWEEP_3_SEEDS)
    cells = [(n, s) for n in (7, 8, 12) for s in (11, 12, 13)]
    files, rows = {}, {}
    for workers in (1, 2, 3):
        _set_workers(monkeypatch, workers)
        log.write_text("")
        out = tmp_path / f"w{workers}"
        rows[workers] = run_sweep(cfg, out)
        assert [(r["n"], r["seed"]) for r in rows[workers]] == cells
        files[workers] = {p.name: p.read_bytes() for p in out.iterdir()}
        pids = {}
        for line in log.read_text().splitlines():
            seed, pid = map(int, line.split())
            pids.setdefault(seed, set()).add(pid)
        assert all(len(v) == 1 for v in pids.values())  # one owner per seed
        owners = [pids[s].pop() for s in (11, 12, 13)]
        assert owners[0] == os.getpid()  # the caller takes the first stripe
        assert len(set(owners)) == workers
    assert len(files[1]) == 2 * len(cells) + 1
    assert files[1] == files[2] == files[3]
    assert rows[1] == rows[2] == rows[3]


ORPHANED_SWEEP = """\
import os, signal, sys, time
from prsrg import harness
log, out, text = sys.argv[1:]
real = harness.run_experiment

def cell(cfg, **kwargs):
    with open(log, "a") as fh:
        fh.write(f"{cfg.problem.n} {cfg.seed}\\n")
    if cfg.seed == 11:  # the caller dies once the child has started
        while "7 12" not in open(log).read():
            time.sleep(0.01)
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(0.5)
    return real(cfg, **kwargs)

harness.run_experiment = cell
harness._usable_cpus = lambda: 2
harness.run_sweep(harness.parse_config(text), out)
"""


def test_sweep_child_stops_when_its_caller_is_killed(tmp_path):
    # SIGKILL runs no finally, so no one kills the child; it must stop
    # before its next cell. The orphan keeps the captured output pipes
    # open, so subprocess.run returns only once it has exited
    log = tmp_path / "cells.log"
    log.touch()
    text = SWEEP_RUN.replace("n = 8,12", "n = 12,7,8")
    env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", ORPHANED_SWEEP, str(log),
         str(tmp_path / "grid"), text],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    # the caller (seed 11) and the child (seed 12) each log their n = 7
    # cell, in either order: nothing orders two processes' appends
    assert sorted(log.read_text().split("\n")) == ["", "7 11", "7 12"]
    assert sorted(p.name for p in (tmp_path / "grid").iterdir()) == [
        "n7_s12.report.json", "n7_s12.trace.csv"]


@pytest.mark.parametrize("workers", [2, 3])
def test_sweep_raises_a_childs_cell_failure(tmp_path, monkeypatch, capsys,
                                            no_child_left, workers):
    caller = os.getpid()

    def blow_up():
        assert os.getpid() != caller  # seed 12 runs in a child
        raise NumericalFailure("non-finite estimator at inner step 3",
                               iteration=3)

    _set_workers(monkeypatch, workers)
    _fail_cells(monkeypatch, {(n, 12): blow_up for n in (7, 8, 12)})
    with pytest.raises(NumericalFailure) as info:
        run_sweep(parse_config(SWEEP_3_SEEDS), tmp_path / "grid")
    assert type(info.value) is NumericalFailure
    assert str(info.value) == ("non-finite estimator at inner step 3 "
                               "(iteration 3)")
    assert info.value.iteration == 3

    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(SWEEP_3_SEEDS)
    assert main(["sweep", "--config", str(cfgfile), "--out",
                 str(tmp_path / "cli")]) == EXIT_FAIL
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: non-finite estimator at inner step 3 "
                   "(iteration 3)"]


@pytest.mark.parametrize("workers", [2, 3])
def test_sweep_raises_the_first_failed_cell_in_n_seed_order(
        tmp_path, monkeypatch, no_child_left, workers):
    # seed 13 fails at n = 7, before seed 12 fails at n = 8; with 3
    # workers both are children, with 2 seed 13 is the caller's
    def fail(text):
        def action():
            raise NumericalFailure(text, iteration=1)
        return action

    _set_workers(monkeypatch, workers)
    _fail_cells(monkeypatch, {(8, 12): fail("second"), (7, 13): fail("first")})
    with pytest.raises(NumericalFailure, match="^first"):
        run_sweep(parse_config(SWEEP_3_SEEDS), tmp_path / "grid")


def test_sweep_child_without_a_result_is_an_invariant_violation(
        tmp_path, monkeypatch, capsys, no_child_left):
    caller = os.getpid()

    def vanish():
        if os.getpid() == caller:
            raise AssertionError("seed 12 ran in the calling process")
        os._exit(3)

    _set_workers(monkeypatch, 3)
    _fail_cells(monkeypatch, {(7, 12): vanish})
    with pytest.raises(InvariantViolation,
                       match=r"sweep worker 1 .* ended without a result, "
                             r"exit code 3"):
        run_sweep(parse_config(SWEEP_3_SEEDS), tmp_path / "grid")

    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(SWEEP_3_SEEDS)
    assert main(["sweep", "--config", str(cfgfile), "--out",
                 str(tmp_path / "cli")]) == EXIT_FAIL
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: sweep worker 1 ")


class _Unpicklable(RuntimeError):
    """Pickles, but cannot be rebuilt from its args."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_sweep_child_error_that_does_not_unpickle_keeps_its_text(
        tmp_path, monkeypatch, no_child_left):
    def raise_error():
        raise _Unpicklable("left", "right")

    _set_workers(monkeypatch, 3)
    _fail_cells(monkeypatch, {(7, 12): raise_error})
    with pytest.raises(InvariantViolation, match=re.escape(
            "sweep worker 1: _Unpicklable('left and right')")):
        run_sweep(parse_config(SWEEP_3_SEEDS), tmp_path / "grid")


@pytest.mark.parametrize("error", [
    NumericalFailure("caller cell", iteration=2), KeyboardInterrupt()],
    ids=["cell_failure", "interrupt"])
def test_sweep_caller_failure_kills_and_reaps_children(
        tmp_path, monkeypatch, no_child_left, error):
    # the children's cells would sleep for a minute; the caller's first
    # cell fails at once, so the sweep ends only if it kills them
    def raise_error():
        raise error

    _set_workers(monkeypatch, 3)
    failures = {(n, s): functools.partial(time.sleep, 60)
                for n in (7, 8, 12) for s in (12, 13)}
    failures[(7, 11)] = raise_error
    _fail_cells(monkeypatch, failures)
    start = time.monotonic()
    with pytest.raises(type(error)):
        run_sweep(parse_config(SWEEP_3_SEEDS), tmp_path / "grid")
    assert time.monotonic() - start < 30


@pytest.mark.parametrize("name", ["epsilon", "delta", "budget"])
def test_zero_tolerance_is_rejected_before_the_probe(probes, name):
    # epsilon, delta and the budget depend on nothing the probe measures,
    # so a zero tolerance or a negative budget exits before the smoothness
    # probe runs, and the error names it
    obj = build_problem(parse_config(SMALL_RUN))
    args = {"epsilon": 0.05, "delta": 0.5, "budget": 6000}
    if name == "budget":
        args[name], error = -1, "budget must be >= 0, got -1"
    else:
        args[name], error = 0.0, f"{name} must be positive and finite, got 0.0"
    with pytest.raises(ParameterError, match=re.escape(error)):
        auto_solve(obj, obj.eigvec(1), rng=7, **args)
    assert probes() == []


def test_infinite_epsilon_is_rejected_by_the_one_range_rule():
    # the config and the gradient check apply the rule SolverParams does,
    # under their own prefix; an API-built config skips the INI parser's
    # finite-float check, so only the rule stands between it and a run
    rule = "must be positive and finite, got inf"
    inf = float("inf")
    for name in ("epsilon", "delta"):
        with pytest.raises(ParameterError,
                           match=re.escape(f"[solver] {name} {rule}")):
            ExperimentConfig(solver=SolverSpec(**{name: inf}))
    with pytest.raises(ParameterError, match=re.escape(
            "[experiment] budget must be >= 0, got -1")):
        ExperimentConfig(budget=-1)
    obj = build_problem(parse_config(SMALL_RUN))
    oracle = PullbackOracle(obj, obj.eigvec(0))
    with pytest.raises(ParameterError, match=re.escape(f"epsilon {rule}")):
        small_grad_check(oracle, obj.n, inf, master_stream(0))


@pytest.mark.parametrize("kind", ["rayleigh", "quadratic_saddle"])
@pytest.mark.parametrize("noise_scale", [0.5, 0.0])
def test_prefix_equals_fresh_build_bitwise(kind, noise_scale):
    # the largest n is odd and its store spans several draw blocks; every
    # smaller n, even or odd, must read the bits a build at that n draws
    largest = 2 * PAIR_BLOCK + 5
    base = parse_config(SMALL_RUN.replace("noise_scale = 0.2",
                                          f"noise_scale = {noise_scale}"))

    def build(n):
        if kind == "quadratic_saddle":  # a library problem, no config kind
            return QuadraticSaddleInstance(3, 1.0, 2.0, n, None, noise_scale)
        return build_problem(dataclasses.replace(
            base, problem=dataclasses.replace(base.problem, n=n)))

    big = build(largest)
    for n in (1, 2, 7, 8, 2 * PAIR_BLOCK + 2, largest):
        sub, fresh = big.prefix(n), build(n)
        assert type(sub) is type(fresh)
        for name in ("p", "q", "Abar"):
            a, b = getattr(sub, name), getattr(fresh, name)
            assert np.array_equal(a, b) and a.tobytes() == b.tobytes(), name
        assert sub.n == fresh.n == n
        assert sub.manifold.manifold_id == fresh.manifold.manifold_id
        if n % 2 == 0:
            assert np.shares_memory(sub.p, big.p)
    with pytest.raises(ParameterError, match="prefix size"):
        big.prefix(largest + 1)


def test_sweep_requires_n_values(tmp_path):
    with pytest.raises(ParameterError, match="sweep"):
        run_sweep(parse_config(SMALL_RUN), tmp_path / "x")


# --------------------------------------------------------------- trace CSV

def test_trace_csv_roundtrip(tmp_path):
    rows = [
        TraceRow(0, 0, "type1_descent", 1 / 3, 0.1, 0.0, 30, "anchor"),
        TraceRow(0, 1, "type1_descent", 0.25, 1e-17, 0.3, 42, "step"),
        TraceRow(0, 2, "type1_descent", -0.5, 2.0, 0.5, 42, "boundary"),
    ]
    path = tmp_path / "t.trace.csv"
    write_trace(path, rows)
    text = path.read_text()
    assert text.splitlines()[0] == ",".join(COLUMNS)
    assert read_trace(path) == rows

    bad = tmp_path / "bad.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ContractViolation, match="header"):
        read_trace(bad)


def _csv_writer_trace(rows):
    """The trace through ``csv.writer``, the form ``rows_to_csv`` replaced:
    ``str`` of integers, ``repr(float(x))`` of other numbers."""
    def fmt(x):
        if isinstance(x, (int, np.integer)):
            return str(int(x))
        return repr(float(x))

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(COLUMNS)
    for r in rows:
        w.writerow([str(r.outer_t), str(r.inner_k), r.epoch_type,
                    fmt(r.F_value), fmt(r.grad_norm_or_batch),
                    fmt(r.u_norm), str(r.queries_cum), r.event])
    return buf.getvalue()


def test_rows_to_csv_equals_csv_writer_bytes():
    nan, inf = float("nan"), float("inf")
    rows = [
        TraceRow(0, 0, "", 1 / 3, np.float64(0.1), -0.0, 30, "anchor"),
        TraceRow(1, 2, "escape", nan, inf, -inf, 64, "step"),
        TraceRow(np.int64(3), np.int32(4), "useful", 5e-324, -5e-324, 1e308,
                 np.int64(2**62), "max_iter"),
        TraceRow(5, 6, "wasted", np.int64(-7), 8, np.float32(0.1), 9,
                 "uniform_break"),
        TraceRow(7, 0, "baseline", True, np.uint8(3), np.float64(nan), 0,
                 "grad_check"),
        TraceRow(8, 1, "type1_descent", 1e-17, np.float64(-0.0), 0.0, 1,
                 "boundary"),
    ]
    text = rows_to_csv(rows)
    assert text == _csv_writer_trace(rows)
    assert rows_to_csv([]) == _csv_writer_trace([]) == ",".join(COLUMNS) + "\n"


# --------------------------------------------------------------------- CLI

def test_cli_run_and_print_config(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(SMALL_RUN)
    prefix = tmp_path / "out" / "exp"
    rc = main(["run", "--config", str(cfgfile), "--out", str(prefix),
               "--budget", "2000"])
    assert rc == EXIT_OK
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"exit_reason", "queries_used", "best_F", "certified"}
    assert line["queries_used"] <= 2000
    assert prefix.with_suffix(".trace.csv").exists()

    rc = main(["print-config", "--config", str(cfgfile)])
    assert rc == EXIT_OK
    assert parse_config(capsys.readouterr().out) == parse_config(SMALL_RUN)


def test_cli_run_twice_byte_identical(tmp_path, capsys):
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(SMALL_RUN)
    assert main(["run", "--config", str(cfgfile),
                 "--out", str(tmp_path / "a")]) == EXIT_OK
    assert main(["run", "--config", str(cfgfile),
                 "--out", str(tmp_path / "b")]) == EXIT_OK
    capsys.readouterr()
    assert ((tmp_path / "a.trace.csv").read_bytes()
            == (tmp_path / "b.trace.csv").read_bytes())


def test_cli_dotted_out_prefixes(tmp_path, capsys):
    # each suffix is appended to the whole prefix: run.v1 and run.v2 write
    # separate files
    cfgfile = tmp_path / "run.ini"
    cfgfile.write_text(SMALL_RUN)
    for tag in ("v1", "v2"):
        assert main(["run", "--config", str(cfgfile),
                     "--out", str(tmp_path / "res" / f"run.{tag}")]) == EXIT_OK
    names = sorted(f.name for f in (tmp_path / "res").iterdir())
    assert names == ["run.v1.report.json", "run.v1.trace.csv",
                     "run.v2.report.json", "run.v2.trace.csv"]
    capsys.readouterr()


def test_cli_exit_codes(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == EXIT_BAD_INPUT

    badcfg = tmp_path / "bad.ini"
    badcfg.write_text("[experiment]\nalgo = sgd\n")
    assert main(["run", "--config", str(badcfg)]) == EXIT_BAD_INPUT


def _cli_certified_run(tmp_path, cfg_text, name):
    """Run the CLI on cfg_text; its stdout line, report.json and trace."""
    cfgfile = tmp_path / f"{name}.ini"
    cfgfile.write_text(cfg_text)
    out = tmp_path / name
    assert main(["run", "--config", str(cfgfile), "--out", str(out)]) == EXIT_OK
    report = json.loads(Path(f"{out}.report.json").read_text())["report"]
    return report, read_trace(f"{out}.trace.csv")


def test_cli_certify(tmp_path, capsys):
    # the run certifies each small-gradient point: the minimizer v1 passes
    # at the first check, the saddle e2 is rejected there and escaped
    v1 = build_problem(parse_config(CLEAN_CERT.format(start="e1"))).eigvec(0)
    report, rows = _cli_certified_run(tmp_path, CLEAN_CERT.format(start="e1"),
                                      "v1")
    line = json.loads(capsys.readouterr().out)
    assert line["exit_reason"] == "certified" and line["certified"] is True
    assert report["certified"]["passed"] is True
    assert np.allclose(report["final_point"], v1.coords)
    assert [(r.event, r.epoch_type) for r in rows] == [("grad_check",
                                                        "useful")]

    report, rows = _cli_certified_run(tmp_path, CLEAN_CERT.format(start="e2"),
                                      "e2")
    capsys.readouterr()
    assert (rows[0].event, rows[0].epoch_type) == ("grad_check", "escape")
    assert rows[0].F_value == -1.0  # F(e2) = -lambda_2
    assert report["exit_reason"] == "certified"
    assert report["certified"]["passed"] is True
    assert abs(abs(np.dot(report["final_point"], v1.coords)) - 1) < 1e-6
    # the argparse rejection of the removed certify subcommand
    with pytest.raises(SystemExit) as info:
        main(["certify", "--config", str(tmp_path / "v1.ini")])
    assert info.value.code == EXIT_BAD_INPUT
    assert not list(tmp_path.glob("*.cert.json"))


def test_cli_certify_rejects_saddle_when_delta_exceeds_probe(tmp_path,
                                                              capsys):
    # delta is above the probe's l_hat, but the saddle's lambda_min = -2 is
    # below -delta: the first check rejects e2 rather than certify it
    e2 = build_problem(parse_config(SADDLE_ABOVE_PROBE)).eigvec(1)
    with pytest.warns(UserWarning, match="exceeds the gradient Lipschitz"):
        report, rows = _cli_certified_run(tmp_path, SADDLE_ABOVE_PROBE,
                                          "saddle")
    capsys.readouterr()
    first = rows[0]
    assert (first.outer_t, first.event, first.epoch_type) == (
        0, "grad_check", "escape")
    assert abs(first.F_value + 1.0) <= 1e-12  # F(e2) = -lambda_2
    assert report["certified"]["passed"] is True
    assert abs(np.dot(report["final_point"], e2.coords)) < 0.1


def test_cli_run_escapes_saddle_when_delta_exceeds_probe(tmp_path, capsys):
    cfgfile = tmp_path / "saddle.ini"
    cfgfile.write_text(SADDLE_ABOVE_PROBE)
    with pytest.warns(UserWarning, match="exceeds the gradient Lipschitz"):
        rc = main(["run", "--config", str(cfgfile)])
    assert rc == EXIT_OK
    line = json.loads(capsys.readouterr().out)
    assert line["exit_reason"] == "certified" and line["certified"] is True
    # the top eigenvector, F = -lambda_1 = -2, not the saddle's F = -1
    assert abs(line["best_F"] + 2.0) <= 1e-3


def test_cli_sweep(tmp_path, capsys):
    cfgfile = tmp_path / "sweep.ini"
    cfgfile.write_text(SWEEP_RUN.replace("seeds = 2", "seeds = 1"))
    out_dir = tmp_path / "grid"
    rc = main(["sweep", "--config", str(cfgfile), "--out", str(out_dir)])
    assert rc == EXIT_OK
    line = json.loads(capsys.readouterr().out)
    assert line["cells"] == 2
    assert (out_dir / "summary.csv").exists()
