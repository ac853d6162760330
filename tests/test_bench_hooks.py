"""The traced benchmark launcher finds every prsrg name it wraps."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_launcher_installs_every_wrap():
    # bench/launch.py wraps callables through module and class __dict__, so
    # a renamed, moved or inherited-only name raises KeyError there. A fresh
    # interpreter keeps the wrappers out of this test session.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")]))
    code = "import launch, tracer; launch.install(tracer.Tracer())"
    out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
