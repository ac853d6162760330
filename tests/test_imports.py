"""What ``import prsrg`` and ``prsrg run`` load.

The package exports its public names lazily, so importing it loads no
submodule, and a run loads neither the baselines nor the replay checks.
Each load check runs in a fresh interpreter, since by then the test run
has imported every module.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import prsrg
from prsrg.trace import COLUMNS, TraceRow

SRC = str(Path(prsrg.__file__).resolve().parents[1])

CONFIG = """\
[experiment]
seed = 7
budget = 20000

[problem]
manifold = sphere:3
kind = rayleigh
n = 30
start = e2
spectrum = 2.0,1.0,0.0

[solver]
epsilon = 0.05
delta = 0.5

[couple]
trials = 2
"""

# the dataclasses ``import prsrg.cli`` defines: config sections and
# constants (fields, replace, ==), validated parameters (__post_init__,
# replace), Certification (asdict) and StreamTree
KEPT_DATACLASSES = {
    "prsrg.diagnostics.Certification", "prsrg.harness.BaselineSpec",
    "prsrg.harness.CoupleSpec", "prsrg.harness.ExperimentConfig",
    "prsrg.harness.ProblemSpec", "prsrg.harness.SolverSpec",
    "prsrg.harness.SweepSpec", "prsrg.rng.StreamTree",
    "prsrg.solver.SolverConstants", "prsrg.solver.SolverParams",
    "prsrg.tssrg.TssrgParams",
}


def _child(code: str, *args: str):
    """Run code in a fresh interpreter; its last stdout line, as JSON."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code, *args], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.splitlines()[-1])


def test_import_prsrg_loads_no_submodule():
    loaded = _child("import json, sys, prsrg; print(json.dumps(sorted("
                    "m for m in sys.modules if m.startswith('prsrg.'))))")
    assert loaded == []


def test_run_loads_neither_baselines_nor_replay(tmp_path):
    cfg = tmp_path / "tiny.ini"
    cfg.write_text(CONFIG)
    code = """\
import contextlib, io, json, sys
from prsrg.cli import main

def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    return code, json.loads(out.getvalue())

def absent():
    return [m for m in ("prsrg.baselines", "prsrg.replay", "csv")
            if m not in sys.modules]

run = call("run", "--config", sys.argv[1])
after_run = absent()
prgd = call("run", "--config", sys.argv[1], "--algo", "prgd")
couple = call("couple", "--config", sys.argv[1])
print(json.dumps([run, after_run, prgd, couple, absent()]))
"""
    run, after_run, prgd, couple, after_all = _child(code, str(cfg))
    assert run[0] == 0 and run[1]["queries_used"] > 0
    assert after_run == ["prsrg.baselines", "prsrg.replay", "csv"]
    assert prgd[0] == 0 and prgd[1]["queries_used"] > 0
    assert couple[0] == 0 and couple[1]["trials"] == 2
    assert after_all == ["csv"]


def test_import_cli_defines_only_the_kept_dataclasses():
    code = """\
import dataclasses, inspect, json, sys
import prsrg.cli
print(json.dumps(sorted(
    f"{name}.{cls.__qualname__}"
    for name, mod in list(sys.modules.items()) if name.startswith("prsrg.")
    for cls in vars(mod).values()
    if inspect.isclass(cls) and cls.__module__ == name
    and dataclasses.is_dataclass(cls))))
"""
    assert set(_child(code)) == KEPT_DATACLASSES


def test_every_export_resolves_to_its_defining_module():
    assert len(prsrg.__all__) == len(set(prsrg.__all__))
    assert set(prsrg.__all__) <= set(dir(prsrg))
    for name in prsrg.__all__:
        obj = getattr(prsrg, name)
        assert obj.__module__.startswith("prsrg."), name
        assert getattr(importlib.import_module(obj.__module__), name) is obj
    assert prsrg.stuck_region_experiment.__module__ == "prsrg.replay"
    assert prsrg.certify.__module__ == "prsrg.diagnostics"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        prsrg.no_such_name
    assert not hasattr(prsrg, "read_trace")  # a test helper now
    # submodules still import through the package
    from prsrg import _kernels, cli
    assert (cli.__name__, _kernels.__name__) == ("prsrg.cli",
                                                 "prsrg._kernels")


# names that only tests called, and the retraction's differential, which
# the solver never needs (it pulls gradients back through the adjoint);
# the tests' reference differential is in conftest
REMOVED = {
    "geometry.Manifold": ("dretract_apply", "dretract_matrix",
                          "_dretract_coords", "_dretract_target"),
    "geometry.Sphere": ("dretract_apply", "dretract_matrix"),
    "geometry.Euclidean": ("dretract_apply", "dretract_matrix"),
    "pullback.PullbackOracle": ("grad_minibatch",),
    "pullback.FiniteSumObjective": ("component_riem_grad",),
    "problems._PairedComponentObjective": ("component_riem_grad",),
    "problems.RayleighInstance": ("component_riem_grad", "hess_eigval"),
    "problems.StreamingRayleighInstance": ("hess_eigval",),
    "problems.QuadraticSaddleInstance": ("H", "min_curvature_direction"),
    "harness": ("format_spectrum",),
    "tssrg": ("tssrg_run_coupled",),
}


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_removed_names_are_gone(owner):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"prsrg.{module}")
    if cls:
        obj = getattr(obj, cls)
    assert [n for n in REMOVED[owner] if hasattr(obj, n)] == []


def test_coupled_run_is_not_exported():
    assert "tssrg_run_coupled" not in prsrg.__all__
    with pytest.raises(AttributeError, match="tssrg_run_coupled"):
        prsrg.tssrg_run_coupled


def test_trace_rows_compare_field_by_field():
    fields = (0, 1, "escape", 0.5, 0.25, None, 0.125, 42, "step")
    row = TraceRow(*fields)
    assert row == TraceRow(*fields)
    assert row != TraceRow(*fields[:-1], "boundary")
    assert row != TraceRow(*fields[:5], 0.0, *fields[6:])
    assert row != fields
    assert [row] == [TraceRow(**dict(zip(COLUMNS, fields)))]
