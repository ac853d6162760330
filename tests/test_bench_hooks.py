"""The traced benchmark launcher finds every prsrg name it wraps, and a
traced run records a call in every span the benchmark expects."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# escapes the strict saddle e2 and certifies in well under a second
TINY_ESCAPE = """\
[experiment]
seed = 7
budget = 20000

[problem]
manifold = sphere:3
kind = rayleigh
n = 30
spectrum = 2.0,1.0,0.0
noise_scale = 0.2
start = e2

[solver]
epsilon = 0.05
delta = 0.5
"""


def _python(args, pythonpath):
    # a fresh interpreter keeps the wrappers out of this test session
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        str(ROOT / p) for p in pythonpath))
    return subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True)


def test_bench_launcher_installs_every_wrap():
    # bench/launch.py wraps callables through module and class __dict__, so
    # a renamed, moved or inherited-only name raises KeyError there
    code = "import launch, tracer; launch.install(tracer.Tracer())"
    out = _python(["-c", code], ["src", "bench"])
    assert out.returncode == 0, out.stderr


def test_traced_run_records_every_common_span(tmp_path):
    # a traced benchmark run fails when one of workloads.COMMON_SPANS records
    # no call, e.g. after a hot path stops going through a wrapped name
    cfg = tmp_path / "run.ini"
    cfg.write_text(TINY_ESCAPE)
    spans = tmp_path / "spans.json"
    out = _python([str(ROOT / "bench" / "launch.py"), str(spans), "run",
                   "--config", str(cfg), "--out", str(tmp_path / "run")],
                  ["src"])
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout)["exit_reason"] == "certified"
    code = ("import json, sys, tracer, workloads\n"
            "calls = tracer.load(sys.argv[1]).calls\n"
            "print(json.dumps([n for n in workloads.COMMON_SPANS"
            " if calls[n] == 0]))")
    check = _python(["-c", code, str(spans)], ["bench"])
    assert check.returncode == 0, check.stderr
    assert json.loads(check.stdout) == []


def test_bench_setup_runs_on_every_workload(tmp_path):
    # bench/setup.py reads harness config attributes directly, so a renamed
    # field fails the benchmark's set-up phase before any run starts
    code = ("import sys, pathlib, workloads\n"
            "for name, w in workloads.WORKLOADS.items():\n"
            "    path = pathlib.Path(sys.argv[1]) / f'{name}.ini'\n"
            "    path.write_text(w.config.format(seed=1))")
    out = _python(["-c", code, str(tmp_path)], ["bench"])
    assert out.returncode == 0, out.stderr
    configs = sorted(tmp_path.glob("*.ini"))
    assert configs
    for cfg in configs:
        run = _python([str(ROOT / "bench" / "setup.py"), str(cfg)], ["src"])
        assert run.returncode == 0, (cfg.name, run.stderr)
