"""What ``import prsrg`` and ``prsrg run`` load.

The package exports its public names lazily, so importing it loads no
submodule, a run or a sweep does not load the baselines, and no command
loads scipy or hypothesis. The replay checks are a test helper
(``tests/replay.py``), not part of the package.
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
budget = {budget}

[problem]
manifold = {manifold}
kind = {kind}
{problem}spectrum = 2.0,1.0,0.0

[solver]
epsilon = {epsilon}
delta = 0.5
"""

# (manifold, [problem] keys, epsilon, budget) per kind: a finite-sum run, an
# online run, whose anchor batches (B > d) go through the Wishart draw, and
# a Euclidean run
PROBLEMS = {
    "rayleigh": ("sphere:3", "n = 30\nstart = e2\n", 0.05, 20000),
    "streaming_rayleigh": ("sphere:3", "start = e2\n", 0.2, 2000000),
    "quadratic_saddle": ("euclidean:3", "n = 30\nstart = zero\n", 0.05,
                         20000),
}

# the modules a command may load, in load order; no command loads csv,
# scipy or hypothesis, and none finds a prsrg.replay to load
WATCHED = ("prsrg.baselines", "prsrg.replay", "csv", "scipy", "hypothesis")
LOADED = {"run": [], "sweep": [], "prgd": ["prsrg.baselines"]}

# the dataclasses ``import prsrg.cli`` defines: config sections (fields,
# replace, ==), validated parameters (__post_init__, replace),
# Certification (asdict) and StreamTree
KEPT_DATACLASSES = {
    "prsrg.diagnostics.Certification", "prsrg.harness.ExperimentConfig",
    "prsrg.harness.ProblemSpec", "prsrg.harness.SolverSpec",
    "prsrg.harness.SweepSpec",
    "prsrg.rng.StreamTree",
    "prsrg.solver.SolverParams", "prsrg.tssrg.TssrgParams",
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
    # every run and sweep first, then prgd, all in one interpreter; the
    # sweeps' odd-n ladder serves 7 and 12 as prefixes of the n = 31 store,
    # 7 a copy with a zero last row and 12 a view
    steps = []
    for kind, (manifold, problem, epsilon, budget) in PROBLEMS.items():
        text = CONFIG.format(budget=budget, manifold=manifold, kind=kind,
                             problem=problem, epsilon=epsilon)
        cfg = tmp_path / f"{kind}.ini"
        cfg.write_text(text)
        steps.append(("run", kind, ["run", "--config", str(cfg)]))
        if kind != "streaming_rayleigh":
            grid = tmp_path / f"{kind}.sweep.ini"
            grid.write_text(text + "[sweep]\nn = 7,12,31\nseeds = 2\n")
            steps.append(("sweep", kind, ["sweep", "--config", str(grid),
                                          "--out", str(tmp_path / kind)]))
    steps.append(("prgd", "rayleigh", ["run", "--config",
                                       str(tmp_path / "rayleigh.ini"),
                                       "--algo", "prgd"]))
    code = """\
import contextlib, io, json, sys
from prsrg.cli import main

def call(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, json.loads(out.getvalue()), [
        m for m in json.loads(sys.argv[2]) if m in sys.modules]

print(json.dumps([call(argv) for argv in json.loads(sys.argv[1])]))
"""
    results = _child(code, json.dumps([argv for *_, argv in steps]),
                     json.dumps(WATCHED))
    assert len(results) == len(steps) == 6
    for (command, kind, _), (exit_code, out, loaded) in zip(steps, results):
        assert exit_code == 0, (command, kind, out)
        assert loaded == LOADED[command], (command, kind, loaded)
        if command in ("run", "prgd"):
            assert out["queries_used"] > 0, (command, kind, out)
        else:
            assert out["cells"] == 6, (kind, out)


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
# the tests' reference differential is in conftest; the second path to the
# run parameters (probe_params is the one path now); the problem factories,
# which only passed their arguments to the classes; the [baseline] section
# (prgd runs at fixed settings); the run-parameter multipliers, which are
# module constants now
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
    "harness": ("format_spectrum", "_apply_overrides", "BaselineSpec"),
    "problems": ("make_rayleigh", "make_quadratic_saddle",
                 "make_streaming_rayleigh", "make_data_rayleigh",
                 "DataRayleighInstance", "load_matrix", "save_matrix"),
    "tssrg": ("tssrg_run_coupled",),
    "solver": ("_mode_scale", "SolverConstants"),
}


@pytest.mark.parametrize("owner", sorted(REMOVED))
def test_removed_names_are_gone(owner):
    module, _, cls = owner.partition(".")
    obj = importlib.import_module(f"prsrg.{module}")
    if cls:
        obj = getattr(obj, cls)
    assert [n for n in REMOVED[owner] if hasattr(obj, n)] == []


# the replay checks and the coupled experiment, which no run path calls;
# they are the test helper tests/replay.py now
REPLAY_NAMES = ("EscapeStats", "LocalizeReport", "VarianceReport",
                "check_improve_or_localize", "check_variance_bound",
                "escape_threshold", "stuck_region_experiment")


def test_replay_module_is_gone():
    with pytest.raises(ModuleNotFoundError, match="prsrg.replay"):
        importlib.import_module("prsrg.replay")
    assert [n for n in REPLAY_NAMES if n in prsrg.__all__] == []


def test_coupled_run_is_not_exported():
    assert "tssrg_run_coupled" not in prsrg.__all__
    with pytest.raises(AttributeError, match="tssrg_run_coupled"):
        prsrg.tssrg_run_coupled


def test_trace_rows_compare_field_by_field():
    fields = (0, 1, "escape", 0.5, 0.25, 0.125, 42, "step")
    row = TraceRow(*fields)
    assert row == TraceRow(*fields)
    assert row != TraceRow(*fields[:-1], "boundary")
    assert row != TraceRow(*fields[:5], 0.0, *fields[6:])
    assert row != fields
    assert [row] == [TraceRow(**dict(zip(COLUMNS, fields)))]
