"""Experiment configuration, runners, and sweeps.

Configs are INI files (configparser dialect) with sections [experiment],
[problem], [solver], [constants], [baseline], [couple], [sweep]; any other
section or key is an error. Every run is a pure function of (config, seed):
all randomness descends from the seed through position-keyed substreams, so
reruns reproduce traces byte for byte, and a sweep cell writes the same
bytes as a standalone run of that cell's config.

Spectrum grammar: a comma list of terms, each either a float literal or
``linspace:a:b:k`` (k evenly spaced values from a to b inclusive), e.g.
``2.0,1.0,linspace:0.9:0.1:98``.

Option names are case-sensitive: ``b`` (step minibatch) and ``B`` (anchor
batch) are different [solver] keys.
"""

from __future__ import annotations

import configparser
import dataclasses
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .baselines import BaselineConfig, baseline_run
from .diagnostics import certify, stuck_region_experiment
from .errors import ParameterError, SchemaError
from .geometry import Manifold, ManifoldPoint
from .problems import (_loadtxt, load_matrix, make_data_rayleigh,
                       make_quadratic_saddle, make_rayleigh,
                       make_streaming_rayleigh)
from .pullback import LipschitzEstimate, PullbackOracle
from .rng import TAG_INIT, master_stream
from .solver import SolverConstants, SolverParams, probe_params, prsrg_run
from .trace import write_trace

ALGOS = ("prsrg", "prgd", "rsgd", "rsrg_unperturbed")
PROBLEM_KINDS = ("rayleigh", "quadratic_saddle", "streaming_rayleigh",
                 "data_rayleigh")

_SOLVER_OVERRIDE_KEYS = ("eta", "m", "b", "B", "T_max", "r", "D")
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
            vals.extend(np.linspace(a, b, k).tolist())
        else:
            try:
                vals.append(float(term))
            except ValueError as exc:
                raise ParameterError(
                    f"spectrum term {term!r} is not a number") from exc
    if not vals:
        raise ParameterError("spectrum is empty")
    return np.asarray(vals, dtype=np.float64)


def format_spectrum(arr) -> str:
    return ",".join(repr(float(v)) for v in np.asarray(arr))


@dataclass(frozen=True)
class ProblemSpec:
    manifold: str = "sphere:100"
    kind: str = "rayleigh"
    n: int | None = 1000
    spectrum: str = "2.0,1.0,linspace:0.9:0.1:98"
    noise_scale: float = 0.5
    rotation_seed: int | None = None
    gamma: float = 1.0
    L_top: float = 2.0
    sigma_radius: float = 2.0
    data: str | None = None
    start: str = "random"


@dataclass(frozen=True)
class CoupleSpec:
    nu: float = 0.1
    trials: int = 50
    c2: float = 1.0
    c3: float = 10.0
    rho_hat: float | None = None


@dataclass(frozen=True)
class SweepSpec:
    n_values: tuple[int, ...] = ()
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
    out: str | None = None
    algo: str = "prsrg"
    record_gaps: bool = False
    problem: ProblemSpec = field(default_factory=ProblemSpec)
    epsilon: float = 1e-3
    delta: float = 0.1
    mode: str | None = None
    overrides: tuple[tuple[str, float], ...] = ()
    constants: SolverConstants = field(default_factory=SolverConstants)
    baseline_eta: float = 0.1
    baseline_r: float = 0.01
    baseline_escape_steps: int = 20
    baseline_batch: int = 8
    couple: CoupleSpec = field(default_factory=CoupleSpec)
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
        if self.sweep.n_values and self.problem.kind in (
                "streaming_rayleigh", "data_rayleigh"):
            raise ParameterError(f"[sweep] n: a {self.problem.kind} problem "
                                 "has no n to sweep")
        for key, _ in self.overrides:
            if key not in _SOLVER_OVERRIDE_KEYS:
                raise ParameterError(f"[solver] unknown override {key!r}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse INI text; every section and key must be one that is read."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # solver keys b and B are distinct sizes
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser errors carry line numbers for syntax problems
        raise ParameterError(f"config parse error: {exc}") from exc
    read: set[tuple[str, str]] = set()

    def get(section, key, conv, default):
        """Read one option; ``none`` or an empty value unsets an optional
        key (one whose default is None) and is an error anywhere else."""
        read.add((section, key))
        if not parser.has_option(section, key):
            return default
        raw = parser.get(section, key).strip()
        if raw.lower() in ("none", ""):
            if default is None:
                return None
            raise ParameterError(f"[{section}] {key} needs a value")
        try:
            if conv is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return conv(raw)
        except (TypeError, ValueError) as exc:
            raise ParameterError(f"[{section}] {key} = {raw!r}: {exc}") from exc

    prob = ProblemSpec(
        manifold=get("problem", "manifold", str, "sphere:100"),
        kind=get("problem", "kind", str, "rayleigh"),
        n=get("problem", "n", int, 1000),
        spectrum=get("problem", "spectrum", str,
                     "2.0,1.0,linspace:0.9:0.1:98"),
        noise_scale=get("problem", "noise_scale", float, 0.5),
        rotation_seed=get("problem", "rotation_seed", int, None),
        gamma=get("problem", "gamma", float, 1.0),
        L_top=get("problem", "L_top", float, 2.0),
        sigma_radius=get("problem", "sigma_radius", float, 2.0),
        data=get("problem", "data", str, None),
        start=get("problem", "start", str, "random"),
    )
    overrides = []
    for key in _SOLVER_OVERRIDE_KEYS:
        v = get("solver", key, float, None)
        if v is not None:
            overrides.append((key, float(v)))
    cons = SolverConstants(
        c_eta=get("constants", "c_eta", float, 0.1),
        c_T=get("constants", "c_T", float, 20.0),
        c_r=get("constants", "c_r", float, 1.0),
        c_m=get("constants", "c_m", float, 1.0),
        c_B=get("constants", "c_B", float, 16.0),
    )
    couple = CoupleSpec(
        nu=get("couple", "nu", float, 0.1),
        trials=get("couple", "trials", int, 50),
        c2=get("couple", "c2", float, 1.0),
        c3=get("couple", "c3", float, 10.0),
        rho_hat=get("couple", "rho_hat", float, None),
    )
    n_raw = get("sweep", "n", str, None)
    try:
        n_values = tuple(int(s) for s in (n_raw or "").split(",")
                         if s.strip())
    except ValueError as exc:
        raise ParameterError(f"[sweep] n = {n_raw!r}: {exc}") from exc
    sweep = SweepSpec(n_values=n_values,
                      seeds=get("sweep", "seeds", int, 1))
    cfg = ExperimentConfig(
        seed=get("experiment", "seed", int, 0),
        budget=get("experiment", "budget", int, 1_000_000),
        out=get("experiment", "out", str, None),
        algo=get("experiment", "algo", str, "prsrg"),
        record_gaps=get("experiment", "record_gaps", bool, False),
        problem=prob, epsilon=get("solver", "epsilon", float, 1e-3),
        delta=get("solver", "delta", float, 0.1),
        mode=get("solver", "mode", str, None),
        overrides=tuple(overrides), constants=cons, couple=couple,
        sweep=sweep,
        baseline_eta=get("baseline", "eta", float, 0.1),
        baseline_r=get("baseline", "r", float, 0.01),
        baseline_escape_steps=get("baseline", "escape_steps", int, 20),
        baseline_batch=get("baseline", "batch", int, 8),
    )
    if parser.defaults():
        raise ParameterError("config section [DEFAULT] is not supported")
    sections = {s for s, _ in read}
    for section in parser.sections():
        if section not in sections:
            raise ParameterError(f"unknown config section [{section}]")
        for key in parser.options(section):
            if (section, key) not in read:
                raise ParameterError(f"[{section}] unknown key {key!r}")
    return cfg


def load_config(path) -> ExperimentConfig:
    return parse_config(Path(path).read_text())


def dump_config(cfg: ExperimentConfig) -> str:
    """Serialize a config; parse_config(dump_config(c)) == c."""
    p = configparser.ConfigParser(interpolation=None)
    p.optionxform = str
    p["experiment"] = {
        "seed": str(cfg.seed), "budget": str(cfg.budget),
        "algo": cfg.algo, "record_gaps": str(cfg.record_gaps).lower(),
    }
    if cfg.out is not None:
        p["experiment"]["out"] = cfg.out
    prob = cfg.problem
    p["problem"] = {
        "manifold": prob.manifold, "kind": prob.kind,
        "spectrum": prob.spectrum, "noise_scale": repr(prob.noise_scale),
        "gamma": repr(prob.gamma), "L_top": repr(prob.L_top),
        "sigma_radius": repr(prob.sigma_radius), "start": prob.start,
    }
    if prob.n is not None:
        p["problem"]["n"] = str(prob.n)
    if prob.rotation_seed is not None:
        p["problem"]["rotation_seed"] = str(prob.rotation_seed)
    if prob.data is not None:
        p["problem"]["data"] = prob.data
    p["solver"] = {"epsilon": repr(cfg.epsilon), "delta": repr(cfg.delta)}
    if cfg.mode is not None:
        p["solver"]["mode"] = cfg.mode
    for key, val in cfg.overrides:
        p["solver"][key] = repr(val)
    c = cfg.constants
    p["constants"] = {"c_eta": repr(c.c_eta), "c_T": repr(c.c_T),
                      "c_r": repr(c.c_r), "c_m": repr(c.c_m),
                      "c_B": repr(c.c_B)}
    p["baseline"] = {"eta": repr(cfg.baseline_eta), "r": repr(cfg.baseline_r),
                     "escape_steps": str(cfg.baseline_escape_steps),
                     "batch": str(cfg.baseline_batch)}
    p["couple"] = {"nu": repr(cfg.couple.nu), "trials": str(cfg.couple.trials),
                   "c2": repr(cfg.couple.c2), "c3": repr(cfg.couple.c3)}
    if cfg.couple.rho_hat is not None:
        p["couple"]["rho_hat"] = repr(cfg.couple.rho_hat)
    if cfg.sweep.n_values:
        p["sweep"] = {"n": ",".join(str(v) for v in cfg.sweep.n_values),
                      "seeds": str(cfg.sweep.seeds)}
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
    if prob.kind == "rayleigh":
        if prob.n is None:
            raise ParameterError("[problem] rayleigh needs n")
        return make_rayleigh(d=spectrum.size, n=prob.n, spectrum=spectrum,
                             noise_scale=prob.noise_scale,
                             seed=prob.rotation_seed)
    if prob.kind == "quadratic_saddle":
        if prob.n is None:
            raise ParameterError("[problem] quadratic_saddle needs n")
        return make_quadratic_saddle(d=spectrum.size, gamma=prob.gamma,
                                     L_top=prob.L_top, n=prob.n,
                                     seed=prob.rotation_seed,
                                     noise_scale=prob.noise_scale,
                                     sigma_radius=prob.sigma_radius)
    if prob.kind == "streaming_rayleigh":
        return make_streaming_rayleigh(d=spectrum.size, spectrum=spectrum,
                                       seed=prob.rotation_seed)
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
        return man.rand_point(stream.child(TAG_INIT).generator())
    if name == "zero":
        return man.point(np.zeros(man.ambient_dim))
    if name.startswith("eig:") or (name.startswith("e") and name[1:].isdigit()):
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
        return objective.eigvec(j)
    if name.startswith("coords:"):
        try:
            vals = np.array([float(s) for s in name[7:].split(",")])
        except ValueError as exc:
            raise ParameterError(f"[problem] start {name!r}: {exc}") from exc
        return man.point(vals)
    if name.startswith("file:"):
        return load_point(man, name[5:])
    raise ParameterError(f"[problem] unknown start {name!r}")


def load_point(man: Manifold, path) -> ManifoldPoint:
    """Read a point's ambient coordinates from .mat or text and validate."""
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"point file not found: {path}")
    if path.suffix == ".mat":
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


def _apply_overrides(params: SolverParams, overrides) -> SolverParams:
    tss = params.tssrg
    tkw = {}
    pkw = {}
    for key, val in overrides:
        if key in ("eta", "D"):
            tkw[key] = float(val)
        elif key in ("m", "b"):
            tkw[key] = int(val)
        elif key == "B":
            tkw["B_size"] = int(val)
        elif key == "T_max":
            tkw["T_max"] = int(val)
        elif key == "r":
            pkw["r"] = float(val)
    if tkw:
        tss = dataclasses.replace(tss, **tkw)
    return dataclasses.replace(params, tssrg=tss, **pkw)


def resolve_params(cfg: ExperimentConfig, objective, x0,
                   stream) -> tuple[SolverParams, LipschitzEstimate]:
    """Estimate smoothness, derive run parameters, apply config overrides.

    Returns (params, lipschitz_estimate).
    """
    params, est = probe_params(objective, x0, cfg.epsilon, cfg.delta,
                               cfg.budget, stream, mode=cfg.mode,
                               constants=cfg.constants)
    return _apply_overrides(params, cfg.overrides), est


def run_experiment(cfg: ExperimentConfig, *, out: str | None = None,
                   objective=None):
    """Execute the configured algorithm; write trace/report when out is set.

    ``objective``, when given, is ``build_problem(cfg)`` built by the
    caller; objectives are read-only, so one instance can serve many runs.
    Returns (report, params_or_None). Artifacts: <out>.trace.csv and
    <out>.report.json.
    """
    stream = master_stream(cfg.seed)
    if objective is None:
        objective = build_problem(cfg)
    man = objective.manifold
    x0 = resolve_start(cfg, objective, stream)
    params = None
    if cfg.algo in ("prsrg", "rsrg_unperturbed"):
        params, _ = resolve_params(cfg, objective, x0, stream)
        if cfg.algo == "rsrg_unperturbed":
            params = dataclasses.replace(params, r=0.0)
        report = prsrg_run(objective, man, x0, params, stream,
                           record_gaps=cfg.record_gaps)
    else:
        bcfg = BaselineConfig(kind=cfg.algo, eta=cfg.baseline_eta,
                              r=cfg.baseline_r,
                              escape_steps=cfg.baseline_escape_steps,
                              batch=cfg.baseline_batch)
        report = baseline_run(objective, man, x0, bcfg, cfg.epsilon,
                              cfg.delta, cfg.budget, stream)
    report.seed = cfg.seed
    target = out if out is not None else cfg.out
    if target is not None:
        write_artifacts(target, cfg, report, params)
    return report, params


def params_dict(params: SolverParams | None) -> dict | None:
    if params is None:
        return None
    t = params.tssrg
    return {"eta": t.eta, "m": t.m, "b": t.b, "B": t.B_size, "D": t.D,
            "T_max": t.T_max, "r": params.r, "epsilon": params.epsilon,
            "delta": params.delta, "budget": params.budget,
            "mode": params.mode}


def _write_json(prefix, suffix: str, payload: dict) -> Path:
    """Write payload as sorted, indented JSON to prefix.suffix, creating
    the parent directory."""
    path = Path(prefix).with_suffix(suffix)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def write_artifacts(prefix, cfg: ExperimentConfig, report, params) -> tuple[Path, Path]:
    payload = {"config": dump_config(cfg), "params": params_dict(params),
               "report": report.as_dict()}
    report_path = _write_json(prefix, ".report.json", payload)
    trace_path = Path(prefix).with_suffix(".trace.csv")
    write_trace(trace_path, report.trace)
    return trace_path, report_path


def run_sweep(cfg: ExperimentConfig, out_dir) -> list[dict]:
    """Run the n x seed grid; one trace/report pair per cell, plus summary.

    Cells run one after another in (n, seed) order. Cell (n, i) is
    ``run_experiment`` of the base config with problem size n and seed
    base_seed + i, so its files are byte-equal to a standalone run of that
    config. The problem depends on n alone, so it is built once per n and
    shared by that n's cells.
    """
    if not cfg.sweep.n_values:
        raise ParameterError("[sweep] n is empty")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    lines = ["n,seed,exit_reason,queries_used,best_F,certified"]
    for n in sorted(cfg.sweep.n_values):
        ncfg = dataclasses.replace(
            cfg, out=None, problem=dataclasses.replace(cfg.problem, n=n),
            sweep=SweepSpec())
        objective = None  # free the last n's problem before the next build
        objective = build_problem(ncfg)
        for seed in range(cfg.seed, cfg.seed + cfg.sweep.seeds):
            ccfg = dataclasses.replace(ncfg, seed=seed)
            prefix = out_dir / f"n{n}_s{seed}"
            report, _ = run_experiment(ccfg, out=str(prefix),
                                       objective=objective)
            certified = (report.certified is not None
                         and report.certified.passed)
            rows.append({"n": n, "seed": seed,
                         "exit_reason": report.exit_reason,
                         "queries_used": report.queries_used,
                         "best_F": report.best_F, "certified": certified})
            lines.append(f"{n},{seed},{report.exit_reason},"
                         f"{report.queries_used},{report.best_F!r},"
                         f"{str(certified).lower()}")
    (out_dir / "summary.csv").write_text("\n".join(lines) + "\n")
    return rows


def run_couple(cfg: ExperimentConfig, *, out: str | None = None) -> dict:
    """Stuck-region experiment at the configured anchor point."""
    stream = master_stream(cfg.seed)
    objective = build_problem(cfg)
    x0 = resolve_start(cfg, objective, stream)
    params, est = resolve_params(cfg, objective, x0, stream)
    rho = cfg.couple.rho_hat if cfg.couple.rho_hat is not None else est.rho_hat
    if rho <= 0:
        raise ParameterError("[couple] rho_hat must be positive; the "
                             "curvature estimate was zero, set it explicitly")
    oracle = PullbackOracle(objective, x0)
    stats = stuck_region_experiment(
        oracle, params.tssrg, cfg.couple.nu, cfg.couple.trials, stream,
        rho_hat=rho, delta=params.delta, r=params.r, c2=cfg.couple.c2,
        c3=cfg.couple.c3)
    payload = stats.as_dict()
    payload["params"] = params_dict(params)
    target = out if out is not None else cfg.out
    if target is not None:
        _write_json(target, ".couple.json", payload)
    return payload


def run_certify(cfg: ExperimentConfig, point_path, *,
                out: str | None = None) -> dict:
    """Certify a stored point against the configured problem."""
    objective = build_problem(cfg)
    x = load_point(objective.manifold, point_path)
    cert = certify(PullbackOracle(objective, x), cfg.epsilon, cfg.delta)
    payload = cert.as_dict()
    target = out if out is not None else cfg.out
    if target is not None:
        _write_json(target, ".cert.json", payload)
    return payload

