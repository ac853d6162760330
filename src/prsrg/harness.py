"""Experiment configuration, runners, and sweeps.

Configs are INI files (configparser dialect). Each section is stated once,
as a frozen dataclass whose fields are its keys in dump order: a field's
annotation gives the key's type (int, finite float, str or boolean; ``T |
None`` may be unset) and its default the key's default. [experiment] is
ExperimentConfig's scalar fields; its other fields are the sections
[problem], [solver], [constants], [baseline] and [sweep].
parse_config and dump_config walk the fields; the one key they name is
[sweep] n, held in SweepSpec.n_values. Any other section or key is an
error. Every run is a pure function of (config, seed):
all randomness descends from the seed through position-keyed substreams, so
reruns reproduce traces byte for byte, and a sweep cell writes the same
bytes as a standalone run of that cell's config. A sweep runs its seeds
in parallel, on the calling process and forked children (``run_sweep``);
no byte depends on how many.

Spectrum grammar: a comma list of terms, each either a float literal or
``linspace:a:b:k`` (k evenly spaced values from a to b inclusive), e.g.
``2.0,1.0,linspace:0.9:0.1:98``.

Option names are case-sensitive: ``b`` (step minibatch) and ``B`` (anchor
batch) are different [solver] keys.
"""

from __future__ import annotations

import configparser
import dataclasses
import functools
import io
import json
import math
import os
import pickle
import sys
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .diagnostics import certify
from .errors import InvariantViolation, ParameterError, SchemaError
from .geometry import Manifold, ManifoldPoint
from .problems import (_loadtxt, _usable_cpus, load_matrix,
                       make_data_rayleigh, make_quadratic_saddle,
                       make_rayleigh, make_streaming_rayleigh)
from .pullback import LipschitzEstimate, PullbackOracle
from .rng import TAG_INIT, master_stream
from .solver import SolverConstants, SolverParams, probe_params, prsrg_run
from .trace import write_trace

ALGOS = ("prsrg", "prgd", "rsrg_unperturbed")
PROBLEM_KINDS = ("rayleigh", "quadratic_saddle", "streaming_rayleigh",
                 "data_rayleigh")

# far above any dimension whose dense d x d problem matrices fit in memory
_MAX_LINSPACE = 1_000_000


def parse_spectrum(text: str) -> np.ndarray:
    """Expand the compact spectrum grammar into a float array."""
    vals: list[float] = []
    for term in text.split(","):
        term = term.strip()
        if not term:
            continue
        if term.startswith("linspace:"):
            parts = term.split(":")
            if len(parts) != 4:
                raise ParameterError(
                    f"spectrum term {term!r}: want linspace:a:b:k")
            try:
                a, b, k = float(parts[1]), float(parts[2]), int(parts[3])
            except ValueError as exc:
                raise ParameterError(f"spectrum term {term!r}: {exc}") from exc
            if not 1 <= k <= _MAX_LINSPACE:
                raise ParameterError(f"spectrum term {term!r}: k must be in "
                                     f"[1, {_MAX_LINSPACE}]")
            with np.errstate(over="ignore", invalid="ignore"):
                block = np.linspace(a, b, k)  # b - a may overflow
        else:
            try:
                block = np.array([float(term)])
            except ValueError as exc:
                raise ParameterError(
                    f"spectrum term {term!r} is not a number") from exc
        if not np.all(np.isfinite(block)):
            raise ParameterError(f"spectrum term {term!r} is non-finite")
        vals.extend(block.tolist())
    if not vals:
        raise ParameterError("spectrum is empty")
    return np.asarray(vals, dtype=np.float64)


@dataclass(frozen=True)
class ProblemSpec:
    manifold: str = "sphere:100"
    kind: str = "rayleigh"
    spectrum: str = "2.0,1.0,linspace:0.9:0.1:98"
    noise_scale: float = 0.5
    gamma: float = 1.0
    L_top: float = 2.0
    sigma_radius: float = 2.0
    start: str = "random"
    n: int | None = 1000
    rotation_seed: int | None = None
    data: str | None = None


@dataclass(frozen=True)
class SolverSpec:
    """(epsilon, delta), the sampling mode, and optional overrides of the
    derived run parameters (None keeps the derived value)."""

    epsilon: float = 1e-3
    delta: float = 0.1
    mode: str | None = None
    eta: float | None = None
    m: int | None = None
    b: int | None = None
    B: int | None = None
    T_max: int | None = None
    r: float | None = None
    D: float | None = None


@dataclass(frozen=True)
class BaselineSpec:
    eta: float = 0.1
    r: float = 0.01
    escape_steps: int = 20


@dataclass(frozen=True)
class SweepSpec:
    n_values: tuple[int, ...] = ()  # the [sweep] n key
    seeds: int = 1

    def __post_init__(self):
        if self.seeds < 1:
            raise ParameterError("[sweep] seeds must be >= 1")
        if any(n < 1 for n in self.n_values):
            raise ParameterError("[sweep] n values must be >= 1")
        if len(set(self.n_values)) != len(self.n_values):
            raise ParameterError("[sweep] n values must be distinct")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    budget: int = 1_000_000
    algo: str = "prsrg"
    record_gaps: bool = False
    out: str | None = None
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    solver: SolverSpec = field(default_factory=SolverSpec)
    constants: SolverConstants = field(default_factory=SolverConstants)
    baseline: BaselineSpec = field(default_factory=BaselineSpec)
    sweep: SweepSpec = field(default_factory=SweepSpec)

    def __post_init__(self):
        if self.algo not in ALGOS:
            raise ParameterError(f"[experiment] algo must be one of {ALGOS}, "
                                 f"got {self.algo!r}")
        if self.problem.kind not in PROBLEM_KINDS:
            raise ParameterError(
                f"[problem] kind must be one of {PROBLEM_KINDS}, got "
                f"{self.problem.kind!r}")
        if self.budget < 0:
            raise ParameterError("[experiment] budget must be >= 0")
        if not (self.solver.epsilon > 0 and self.solver.delta > 0):
            raise ParameterError("[solver] epsilon and delta must be positive")
        if self.sweep.n_values and self.problem.kind in (
                "streaming_rayleigh", "data_rayleigh"):
            raise ParameterError(f"[sweep] n: a {self.problem.kind} problem "
                                 "has no n to sweep")
        seeds = {"[experiment] seed": self.seed,
                 "[problem] rotation_seed": self.problem.rotation_seed}
        for key, seed in seeds.items():
            if seed is not None and not 0 <= seed < 2**64:
                raise ParameterError(
                    f"{key} must be a 64-bit unsigned integer, got {seed}")
        last = self.seed + self.sweep.seeds - 1
        if last >= 2**64:
            raise ParameterError(
                f"[sweep] seeds = {self.sweep.seeds}: seeds {self.seed} to "
                f"{last} pass the largest 64-bit seed, 2**64 - 1")


def _finite_float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _strict_bool(raw: str) -> bool:
    states = configparser.ConfigParser.BOOLEAN_STATES
    if raw.lower() not in states:
        raise ValueError(f"not a boolean: use one of {', '.join(states)}")
    return states[raw.lower()]


_CONVERTERS = {int: int, float: _finite_float, str: str, bool: _strict_bool}
_FORMATTERS = {float: repr, bool: lambda v: str(v).lower()}  # others: str


@functools.cache
def _fields(cls) -> tuple:
    """(name, type, default) per field of a section; ``T | None`` reads T."""
    hints = typing.get_type_hints(cls)
    out = []
    for f in dataclasses.fields(cls):
        args = typing.get_args(hints[f.name])
        kind = args[0] if type(None) in args else hints[f.name]
        out.append((f.name, kind, f.default))
    return tuple(out)


def _convert(section: str, key: str, raw: str, kind, default):
    """Read one value; ``none`` or an empty value unsets an optional key
    (one whose default is None) and is an error anywhere else."""
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        if default is None:
            return None
        raise ParameterError(f"[{section}] {key} needs a value")
    try:
        return _CONVERTERS[kind](raw)
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"[{section}] {key} = {raw!r}: {exc}") from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text; every section and key must be a dataclass field."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # solver keys b and B are distinct sizes
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser errors carry line numbers for syntax problems
        raise ParameterError(f"config parse error: {exc}") from exc
    if parser.defaults():
        raise ParameterError("config section [DEFAULT] is not supported")
    unread = {s: dict(parser.items(s)) for s in parser.sections()}

    def read(section: str, cls):
        values = unread.pop(section, {})
        kwargs = {}
        if cls is SweepSpec and "n" in values:
            n_raw = _convert(section, "n", values.pop("n"), str, None)
            try:
                kwargs["n_values"] = tuple(
                    int(s) for s in (n_raw or "").split(",") if s.strip())
            except ValueError as exc:
                raise ParameterError(f"[sweep] n = {n_raw!r}: {exc}") from exc
        for name, kind, default in _fields(cls):
            if dataclasses.is_dataclass(kind):
                kwargs[name] = read(name, kind)
            elif kind in _CONVERTERS and name in values:
                kwargs[name] = _convert(section, name, values.pop(name),
                                        kind, default)
        for key in values:
            raise ParameterError(f"[{section}] unknown key {key!r}")
        return cls(**kwargs)

    cfg = read("experiment", ExperimentConfig)
    for section in unread:
        raise ParameterError(f"unknown config section [{section}]")
    return cfg


def load_config(path) -> ExperimentConfig:
    try:
        return parse_config(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise ParameterError(f"config {path} is not UTF-8: {exc}") from exc


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize a config; parse_config(dump_config(c)) == c. Unset
    optional keys are left out, and so is [sweep] when it is the default."""
    p = configparser.ConfigParser(interpolation=None)
    p.optionxform = str

    def write(section: str, spec) -> None:
        p[section] = {}
        for name, kind, _ in _fields(type(spec)):
            value = getattr(spec, name)
            if dataclasses.is_dataclass(kind):
                if kind is not SweepSpec or value != SweepSpec():
                    write(name, value)
            elif name == "n_values":
                p[section]["n"] = ",".join(str(v) for v in value)
            elif value is not None:
                p[section][name] = _FORMATTERS.get(kind, str)(value)

    write("experiment", cfg)
    buf = io.StringIO()
    p.write(buf)
    return buf.getvalue()


def build_problem(cfg: ExperimentConfig):
    prob = cfg.problem
    obj = _build_kind(prob)
    if prob.manifold != obj.manifold.manifold_id:
        raise ParameterError(
            f"[problem] manifold {prob.manifold} does not match the "
            f"{prob.kind} problem's {obj.manifold.manifold_id}")
    return obj


def _build_kind(prob):
    spectrum = parse_spectrum(prob.spectrum)
    if prob.kind in ("rayleigh", "quadratic_saddle"):
        if prob.n is None:
            raise ParameterError(f"[problem] {prob.kind} needs n")
    try:
        if prob.kind == "rayleigh":
            return make_rayleigh(d=spectrum.size, n=prob.n,
                                 spectrum=spectrum,
                                 noise_scale=prob.noise_scale,
                                 seed=prob.rotation_seed)
        if prob.kind == "quadratic_saddle":
            return make_quadratic_saddle(d=spectrum.size, gamma=prob.gamma,
                                         L_top=prob.L_top, n=prob.n,
                                         seed=prob.rotation_seed,
                                         noise_scale=prob.noise_scale,
                                         sigma_radius=prob.sigma_radius)
        if prob.kind == "streaming_rayleigh":
            return make_streaming_rayleigh(d=spectrum.size,
                                           spectrum=spectrum,
                                           seed=prob.rotation_seed)
    except ParameterError as exc:
        # their checks name the [problem] keys they read
        raise ParameterError(f"[problem] {exc}") from exc
    if prob.kind == "data_rayleigh":
        if prob.data is None:
            raise ParameterError("[problem] data_rayleigh needs data = <path>")
        return make_data_rayleigh(load_matrix(prob.data))
    raise ParameterError(f"[problem] unknown kind {prob.kind!r}")


def resolve_start(cfg: ExperimentConfig, objective, stream) -> ManifoldPoint:
    """Name -> point: eN / eig:N / zero / random / coords:... / file:..."""
    man = objective.manifold
    name = cfg.problem.start.strip()
    if name == "random":
        x0 = man.rand_point(stream.child(TAG_INIT).generator())
    elif name == "zero":
        x0 = man.point(np.zeros(man.ambient_dim))
    elif name.startswith("eig:") or (name.startswith("e") and name[1:].isdigit()):
        if not hasattr(objective, "eigvec"):
            raise ParameterError(f"[problem] start {name!r} needs a spectrum "
                                 "problem")
        try:
            j = int(name[4:]) if ":" in name else int(name[1:]) - 1
        except ValueError as exc:
            raise ParameterError(f"[problem] start {name!r}: {exc}") from exc
        if not 0 <= j < man.ambient_dim:
            raise ParameterError(f"[problem] start {name!r}: eigenvector "
                                 f"index out of range for dimension "
                                 f"{man.ambient_dim}")
        x0 = objective.eigvec(j)
    elif name.startswith("coords:"):
        try:
            vals = np.array([float(s) for s in name[7:].split(",")])
        except ValueError as exc:
            raise ParameterError(f"[problem] start {name!r}: {exc}") from exc
        x0 = man.point(vals)
    elif name.startswith("file:"):
        x0 = load_point(man, name[5:])
    else:
        raise ParameterError(f"[problem] unknown start {name!r}")
    with np.errstate(all="ignore"):  # far out on euclidean:n, F overflows
        if not math.isfinite(objective.value(x0)):
            raise ParameterError(f"[problem] start {name!r}: F is not finite")
    return x0


def load_point(man: Manifold, path) -> ManifoldPoint:
    """Read a point's ambient coordinates from .mat or text and validate."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"point file not found: {path}")
    if path.suffix.lower() == ".mat":
        arr = load_matrix(path)
    else:
        try:
            arr = _loadtxt(path, ",")
        except ValueError:
            try:
                arr = _loadtxt(path)
            except ValueError as exc:
                raise SchemaError(f"cannot parse point file {path}: {exc}") from exc
        if arr.size == 0:
            raise SchemaError(f"point file {path} holds no coordinates")
    return man.point(arr.ravel())


def resolve_params(cfg: ExperimentConfig, objective, x0, stream,
                   estimate: LipschitzEstimate | None = None
                   ) -> tuple[SolverParams, LipschitzEstimate]:
    """``probe_params`` at the config's [solver] epsilon, delta and mode,
    with its other set keys as the overrides; an error is prefixed with
    ``[solver] ``. Returns (params, lipschitz_estimate).
    """
    keys = dataclasses.asdict(cfg.solver)
    epsilon, delta, mode = (keys.pop(k) for k in ("epsilon", "delta", "mode"))
    try:
        return probe_params(
            objective, x0, epsilon, delta, cfg.budget, stream, mode=mode,
            constants=cfg.constants, estimate=estimate,
            overrides={k: v for k, v in keys.items() if v is not None})
    except ParameterError as exc:
        raise ParameterError(f"[solver] {exc}") from exc


def run_experiment(cfg: ExperimentConfig, *, out: str | None = None,
                   objective=None, estimate: LipschitzEstimate | None = None):
    """Execute the configured algorithm; write trace/report when out is set.

    ``objective``, when given, is ``build_problem(cfg)`` built by the
    caller; objectives are read-only, so one instance can serve many runs.
    ``estimate``, when given, is the smoothness probe this config's seed
    and start give (``report.lipschitz`` of an earlier run); the run uses
    it instead of probing. Returns (report, params_or_None). Artifacts:
    <out>.trace.csv and <out>.report.json.
    """
    stream = master_stream(cfg.seed)
    if objective is None:
        objective = build_problem(cfg)
    x0 = resolve_start(cfg, objective, stream)
    params = None
    if cfg.algo in ("prsrg", "rsrg_unperturbed"):
        run_cfg = cfg
        if cfg.algo == "rsrg_unperturbed":  # r = 0 as one more override
            run_cfg = dataclasses.replace(cfg, solver=dataclasses.replace(
                cfg.solver, r=0.0))
        params, est = resolve_params(run_cfg, objective, x0, stream, estimate)
        report = prsrg_run(objective, x0, params, stream,
                           record_gaps=cfg.record_gaps)
        report.lipschitz = est
    else:
        from .baselines import BaselineConfig, baseline_run  # on first use
        try:
            bcfg = BaselineConfig(**dataclasses.asdict(cfg.baseline))
        except ParameterError as exc:  # its checks name [baseline] keys
            raise ParameterError(f"[baseline] {exc}") from exc
        report = baseline_run(objective, x0, bcfg, cfg.solver.epsilon,
                              cfg.solver.delta, cfg.budget, stream)
    report.seed = cfg.seed
    target = out if out is not None else cfg.out
    if target is not None:
        write_artifacts(target, cfg, report, params)
    return report, params


def _artifact_path(prefix, suffix: str) -> Path:
    """prefix with suffix appended to its whole name, so dots in the name
    stay: res/run.v1 gives res/run.v1.trace.csv."""
    path = Path(prefix)
    return path.with_name(path.name + suffix)


def _write_json(prefix, suffix: str, payload: dict) -> Path:
    """Write payload as sorted, indented JSON to prefix + suffix, creating
    the parent directory."""
    path = _artifact_path(prefix, suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_artifacts(prefix, cfg: ExperimentConfig, report, params) -> tuple[Path, Path]:
    payload = {"config": dump_config(cfg), "report": report.as_dict(),
               "params": dataclasses.asdict(params) if params else None}
    report_path = _write_json(prefix, ".report.json", payload)
    trace_path = _artifact_path(prefix, ".trace.csv")
    write_trace(trace_path, report.trace)
    return trace_path, report_path


def run_sweep(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Run the n x seed grid; one trace/report pair per cell, plus summary.

    Cell (n, s) is ``run_experiment`` of the base config with problem size
    n and seed s, so its files are byte-equal to a standalone run of that
    config. The problem is built once, at the largest n, before any file is
    written; every smaller n is its ``prefix(n)``, equal to a build at n
    (pair stores are prefix-closed in n).

    The seeds are striped over min(usable CPUs, seeds) workers: worker w
    takes seeds w, w + workers, ... of the range and runs each of them at
    every n, in increasing n. The calling process is worker 0; workers 1...
    are ``os.fork`` children, forked after the build has joined its
    pair-store threads, which share the built store copy-on-write and send
    back their summary rows, or their error, pickled through a pipe. With
    one worker, or where ``os.fork`` does not exist, the caller runs every
    cell. The smoothness probe reads only Abar, the start point and the
    seed, so each seed probes once, in its smallest-n cell, on the worker
    that owns it, and its other cells reuse that estimate. A warning raised
    in a cell is printed by the worker that runs it, so a warning that
    every cell raises appears once per worker.

    Every file, summary.csv (in (n, seed) order) included, is byte-equal
    whatever the worker count. When cells fail, the error of the first
    failed cell in (n, seed) order is raised; a child that ends without a
    result raises ``InvariantViolation``. A failure in the caller's own
    cells, or an interrupt, kills the children at once, so then the error
    is the first among the cells that had run. Which other cells wrote
    their files before a failure depends on the worker count. Every child
    is reaped before this returns or raises; a caller killed outright
    (SIGKILL, or SIGTERM without a handler) runs no cleanup, so each child
    then stops before its next cell.
    """
    if not cfg.sweep.n_values:
        raise ParameterError("[sweep] n is empty")
    sizes = sorted(cfg.sweep.n_values)
    seeds = range(cfg.seed, cfg.seed + cfg.sweep.seeds)
    base = dataclasses.replace(cfg, out=None, sweep=SweepSpec())
    largest = build_problem(dataclasses.replace(
        base, problem=dataclasses.replace(cfg.problem, n=sizes[-1])))
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    workers = min(_usable_cpus(), len(seeds)) if hasattr(os, "fork") else 1
    cells = [[(n, s) for n in sizes for s in seeds[w::workers]]
             for w in range(workers)]
    caller = os.getpid()

    def run_cells(w: int, rows: list) -> None:
        """Worker w's cells in order, one summary row appended per cell."""
        estimates: dict[int, LipschitzEstimate] = {}
        objective = None
        for n, seed in cells[w]:
            if w and os.getppid() != caller:  # killed without a finally
                raise InvariantViolation("the sweep's calling process died")
            if objective is None or objective.n != n:
                objective = None  # free an odd n's copied store first
                objective = largest.prefix(n)
            ccfg = dataclasses.replace(
                base, seed=seed, problem=dataclasses.replace(cfg.problem, n=n))
            prefix = out_dir / f"n{n}_s{seed}"
            report, _ = run_experiment(ccfg, out=str(prefix),
                                       objective=objective,
                                       estimate=estimates.get(seed))
            estimates.setdefault(seed, report.lipschitz)
            rows.append({"n": n, "seed": seed,
                         "exit_reason": report.exit_reason,
                         "queries_used": report.queries_used,
                         "best_F": report.best_F,
                         "certified": (report.certified is not None
                                       and report.certified.passed)})

    rows: list[list] = [[] for _ in range(workers)]
    errors: dict[int, Exception] = {}
    children: dict[int, tuple] = {}  # worker -> (pid, read end of its pipe)
    _flush_stdio()  # a child starts with empty stdio buffers
    try:
        for w in range(1, workers):
            r, wfd = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(wfd)
                raise
            if pid == 0:
                _sweep_child(run_cells, w, wfd)
            os.close(wfd)
            children[w] = (pid, open(r, "rb"))
        try:
            run_cells(0, rows[0])
        except Exception as exc:
            errors[0] = exc
            _kill(children)
        for w in list(children):
            with children[w][1] as pipe:
                data = pipe.read()  # to EOF: the child closes it as it exits
            pid, _ = children.pop(w)
            _, status = os.waitpid(pid, 0)
            try:
                rows[w], error = pickle.loads(data)
            except (EOFError, pickle.UnpicklingError):
                error = None if 0 in errors else InvariantViolation(
                    f"sweep worker {w} (seeds {list(seeds[w::workers])}) "
                    f"ended without a result, exit code "
                    f"{os.waitstatus_to_exitcode(status)}")
            if error is not None:
                errors[w] = error
    except BaseException:
        _kill(children)
        raise
    finally:
        for pid, pipe in children.values():
            pipe.close()
            os.waitpid(pid, 0)
    if errors:
        raise errors[min(errors, key=lambda w: cells[w][len(rows[w])])]
    done = sorted((row for part in rows for row in part),
                  key=lambda row: (row["n"], row["seed"]))
    lines = ["n,seed,exit_reason,queries_used,best_F,certified"]
    lines += [f"{r['n']},{r['seed']},{r['exit_reason']},{r['queries_used']},"
              f"{r['best_F']!r},{str(r['certified']).lower()}" for r in done]
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    return done


def _flush_stdio() -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()


def _kill(children: dict) -> None:
    """SIGKILL every child still listed; the caller reaps them."""
    from signal import SIGKILL  # loaded only when a sweep stops early
    for pid, _ in children.values():
        os.kill(pid, SIGKILL)


def _sweep_child(run_cells, w: int, fd: int) -> typing.NoReturn:
    """A forked sweep worker: run worker w's cells and send (rows, error)
    pickled through the pipe's write end fd. It leaves by ``os._exit``, so
    it never returns into the caller's stack; the caller flushed stdio
    before the fork, so the buffers flushed here hold only this worker's
    own output."""
    code = 1
    try:
        rows: list = []
        error = None
        try:
            run_cells(w, rows)
        except Exception as exc:  # the caller raises it
            error = exc
        try:
            payload = pickle.dumps((rows, error))
            pickle.loads(payload)  # the caller must be able to read it
        except Exception:  # an error that does not round-trip: its text
            payload = pickle.dumps((rows, InvariantViolation(
                f"sweep worker {w}: {error!r}")))
        with open(fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    finally:
        try:
            _flush_stdio()
        finally:
            os._exit(code)


def run_certify(cfg: ExperimentConfig, point_path, *,
                out: str | None = None) -> dict:
    """Certify a stored point against the configured problem."""
    objective = build_problem(cfg)
    x = load_point(objective.manifold, point_path)
    cert = certify(PullbackOracle(objective, x), cfg.solver.epsilon,
                   cfg.solver.delta)
    payload = cert.as_dict()
    target = out if out is not None else cfg.out
    if target is not None:
        _write_json(target, ".cert.json", payload)
    return payload

