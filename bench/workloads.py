"""The benchmark's workloads: configs made from the seed, and output checks.

Each workload runs a fixed problem instance. The ``--seed`` argument only
chooses the solver seeds of the workload's inputs, one config per input, so
the same seed always gives the same configs. A run times every input more
than once; a workload with several inputs averages over solver seeds, since
the time to a certified point varies from seed to seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

LAMBDA_1 = 2.0  # leading eigenvalue of every spectrum below
SWEEP_CELLS = 4  # sweep_escape: n in {10000, 20000} x 2 seeds

# spans every traced run must record, on every workload
COMMON_SPANS = (
    "import", "cli.main", "harness.run_experiment", "problems.build",
    "harness.resolve_start", "harness.resolve_params", "pullback.probe",
    "pullback.exact_grad", "geometry.sample_ball", "geometry.tangent_basis",
    "geometry.retract", "geometry.adjoint", "solver.prsrg_run",
    "solver.grad_check", "tssrg.run", "diagnostics.certify", "pullback.hvp",
    "pullback.grad_batch", "pullback.value", "problems.sample",
    "problems.batch_grad", "rng.generator", "harness.write_artifacts",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # prsrg subcommand: run or sweep
    inputs: int             # configs per benchmark run
    config: str             # INI template; {seed} is the input's solver seed
    extra_args: tuple = ()
    pool: bool = False      # sweep: PRSRG_THREADS = nproc
    spans: tuple = ()       # expected in the traced run, beyond COMMON_SPANS
    absent: tuple = ()      # must record no call in the traced run

    def seeds(self, seed: int) -> list[int]:
        rnd = random.Random(f"{self.name}:{seed}")
        return [rnd.randrange(1, 2**31) for _ in range(self.inputs)]

    def check(self, out: Path) -> "Outcome":
        """Check one invocation's artifacts; counts add up over sweep cells."""
        total = Outcome()
        if self.command == "sweep":
            cells = sorted(out.glob("*.report.json"))
            summary = out / "summary.csv"
            if len(cells) != SWEEP_CELLS or not summary.is_file():
                return Outcome.fail(f"sweep wrote {len(cells)} cells")
            total.hashes[summary.name] = _sha256(summary)
            prefixes = [c.with_name(c.name[:-len(".report.json")])
                        for c in cells]
        else:
            prefixes = [out / "run"]
        for prefix in prefixes:
            try:
                total.merge(_check_cell(self.name, prefix))
            except (OSError, ValueError, LookupError, TypeError) as exc:
                return Outcome.fail(f"{prefix.name}: unreadable artifacts: "
                                    f"{exc!r}")
        return total


@dataclass
class Outcome:
    error: str | None = None
    queries_used: int = 0
    diag_queries: int = 0
    outer_iters: int = 0
    wasted_epochs: int = 0
    labelled_epochs: int = 0
    trace_bytes: int = 0
    report_bytes: int = 0
    hashes: dict | None = None

    def __post_init__(self):
        if self.hashes is None:
            self.hashes = {}

    @classmethod
    def fail(cls, error: str) -> "Outcome":
        return cls(error=error)

    def merge(self, other: "Outcome") -> None:
        self.error = self.error or other.error
        for k in ("queries_used", "diag_queries", "outer_iters",
                  "wasted_epochs", "labelled_epochs", "trace_bytes",
                  "report_bytes"):
            setattr(self, k, getattr(self, k) + getattr(other, k))
        self.hashes.update(other.hashes)

    def fingerprint(self) -> str:
        return hashlib.sha256(json.dumps(self.hashes, sort_keys=True)
                              .encode()).hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _check_cell(workload: str, prefix: Path) -> Outcome:
    trace = prefix.with_suffix(".trace.csv")
    report = prefix.with_suffix(".report.json")
    payload = json.loads(report.read_text())
    rep, params = payload["report"], payload["params"]
    epochs = rep["epochs"]
    with open(trace, newline="") as fh:
        last = list(csv.DictReader(fh))[-1]["queries_cum"]
    out = Outcome(queries_used=rep["queries_used"],
                  diag_queries=rep["diag_queries"],
                  outer_iters=rep["outer_iterations"],
                  wasted_epochs=epochs["wasted"],
                  labelled_epochs=sum(epochs.values()),
                  trace_bytes=trace.stat().st_size,
                  report_bytes=report.stat().st_size,
                  hashes={trace.name: _sha256(trace),
                          report.name: _sha256(report)})
    if not int(last) == rep["queries_used"] <= params["budget"]:
        out.error = (f"{prefix.name}: trace ends at {last} queries, report "
                     f"says {rep['queries_used']} of budget "
                     f"{params['budget']}")
    elif workload == "saddle_stall":
        e2 = [0.0] * len(rep["final_point"])
        e2[1] = 1.0
        move = math.dist(rep["final_point"], e2)
        if rep["exit_reason"] != "budget" or move > 1e-6:
            out.error = (f"{prefix.name}: exit {rep['exit_reason']}, final "
                         f"point {move:.1e} from e2")
    else:
        eps = params["epsilon"]
        cert = rep["certified"]
        if not (cert and cert["passed"]):
            out.error = f"{prefix.name}: not certified"
        elif abs(rep["best_F"] + LAMBDA_1) > eps:
            out.error = (f"{prefix.name}: best_F {rep['best_F']} not within "
                         f"{eps} of {-LAMBDA_1}")
    return out


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep_escape", command="sweep", inputs=3, pool=True,
        spans=("harness.run_sweep", "kernels.paired_rank2"),
        absent=("kernels.rows_rank1",),
        config="""\
[experiment]
seed = {seed}
budget = 1000000
[problem]
manifold = sphere:200
kind = rayleigh
spectrum = 2.0,1.0,linspace:0.9:0.1:198
noise_scale = 0.5
rotation_seed = 7
start = e2
[solver]
epsilon = 0.001
delta = 0.1
[sweep]
n = 10000,20000
seeds = 2
"""),
    Workload(
        name="saddle_stall", command="run", inputs=2,
        extra_args=("--algo", "rsrg_unperturbed"),
        spans=("kernels.paired_rank2",), absent=("kernels.rows_rank1",),
        config="""\
[experiment]
seed = {seed}
budget = 1000000
[problem]
manifold = sphere:100
kind = rayleigh
n = 1000
spectrum = 2.0,1.0,linspace:0.9:0.1:98
noise_scale = 0.5
start = e2
[solver]
epsilon = 0.001
delta = 0.1
"""),
    Workload(
        name="online_stream", command="run", inputs=8,
        spans=("kernels.rows_rank1",), absent=("kernels.paired_rank2",),
        config="""\
[experiment]
seed = {seed}
budget = 8000000
[problem]
manifold = sphere:20
kind = streaming_rayleigh
spectrum = 2.0,1.0,linspace:0.6:0.1:18
rotation_seed = 7
[solver]
epsilon = 0.2
delta = 0.5
"""),
)}
