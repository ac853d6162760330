"""Benchmark of the prsrg command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it runs the package from ``src`` without
installing it. Every timed repetition is a fresh interpreter running
``python -m prsrg.cli`` with ``PYTHONPATH=src``, because a user pays the
cold cost on every ``prsrg run``. The benchmark process only spawns and
waits, one child at a time. BLAS runs single-threaded in every child, so
sweep pool threads x BLAS threads <= nproc.

``--trace 0`` times the workload's inputs for S seconds (at least two
passes over them) and reports the end-to-end metrics. ``--trace 1``
alternates untraced and traced invocations of the first input (see
launch.py) and reports the per-layer metrics, the tracing overhead and the
share of the traced wall time that spans cover. Metric names and units come
from BENCHMARK.json at the repository root; NOTES.md says which layer
metric should move which end-to-end metric on which workload.

Human-readable lines (environment, fingerprints, counts) come first; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. A failed invocation (non-zero exit, a
failed output check, a fingerprint that differs from the input's first
one, or a missing expected span) counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
from workloads import COMMON_SPANS, WORKLOADS, Outcome, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BLAS_THREADS = 1
IMPORT_REPS = 3
DEADLINE_S = 170.0  # the whole run ends well inside 180 s

STAMP = """\
import json, platform, numpy, scipy, prsrg
try:
    import numba
    has_numba = True
except ImportError:
    has_numba = False
print(json.dumps({"python": platform.python_version(),
                  "numpy": numpy.__version__, "scipy": scipy.__version__,
                  "numba": has_numba, "backend": prsrg.backend_name()}))
"""


class BenchError(Exception):
    """The benchmark cannot produce a result; exit without printing one."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str


@dataclass
class Rep:
    input: int
    traced: bool
    wall_s: float
    rss_mb: float
    outcome: Outcome
    layers: dict | None = None  # per-layer metrics of a traced invocation


class Bench:
    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl = wl
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.nproc = len(os.sched_getaffinity(0))
        self.threads = self.nproc if wl.pool else 1
        self.env = dict(os.environ)
        self.env.pop("PRSRG_BACKEND", None)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.env["PRSRG_THREADS"] = str(self.threads)
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            self.env[var] = str(BLAS_THREADS)
        self.seeds = wl.seeds(seed)
        self.configs = []
        for j, s in enumerate(self.seeds):
            path = work / f"in{j}.ini"
            path.write_text(wl.config.format(seed=s))
            self.configs.append(path)
        self.reps: list[Rep] = []
        self.reference: dict[int, Outcome] = {}
        self.failed = 0
        self.attempted = 0

    def spawn(self, argv: list[str]) -> Child:
        """Run one child to completion; wall time and peak RSS from wait4."""
        left = self.deadline - time.monotonic()
        if left <= 1.0:
            raise BenchError("out of time before the run finished")
        with open(self.work / "stdout", "wb") as out, \
                open(self.work / "stderr", "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, env=self.env, cwd=ROOT,
                                    stdout=out, stderr=err)
            timer = threading.Timer(left, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                     (self.work / "stdout").read_text(),
                     (self.work / "stderr").read_text())

    def stamp(self) -> dict:
        child = self.spawn([sys.executable, "-c", STAMP])
        if child.code != 0:
            raise BenchError("cannot import prsrg from src:\n"
                             + child.stderr[-2000:])
        info = json.loads(child.stdout.splitlines()[-1])
        info.update(nproc=self.nproc, blas_threads=BLAS_THREADS,
                    PRSRG_THREADS=self.threads)
        return info

    def invoke(self, j: int, traced: bool) -> Rep:
        """One CLI invocation of input j, checked and fingerprinted."""
        wl = self.wl
        rep_dir = self.work / f"rep{len(self.reps)}"
        rep_dir.mkdir()
        out = rep_dir if wl.command == "sweep" else rep_dir / "run"
        cli = [wl.command, "--config", str(self.configs[j]), "--out",
               str(out), *wl.extra_args]
        spans_path = rep_dir / "spans.json"
        if traced:
            argv = [sys.executable, str(BENCH / "launch.py"),
                    str(spans_path), *cli]
        else:
            argv = [sys.executable, "-m", "prsrg.cli", *cli]
        child = self.spawn(argv)
        if child.code != 0:
            outcome = Outcome.fail(f"exit code {child.code}: "
                                   f"{child.stderr.strip()[-500:]}")
        else:
            try:
                json.loads(child.stdout.splitlines()[-1])
                outcome = wl.check(rep_dir)
            except (ValueError, IndexError) as exc:
                outcome = Outcome.fail(f"summary line does not parse: {exc}")
        layers = None
        if traced and outcome.error is None:
            spans = tracer.load(spans_path)
            outcome.error = self._span_error(spans)
            if outcome.error is None:
                layers = self._layers(spans, outcome, child.wall_s)
        ref = self.reference.get(j)
        if outcome.error is None:
            if ref is None:
                self.reference[j] = outcome
            elif outcome.hashes != ref.hashes:
                outcome.error = "fingerprint differs from the first repetition"
        shutil.rmtree(rep_dir)
        rep = Rep(j, traced, child.wall_s, child.rss_mb, outcome, layers)
        self.reps.append(rep)
        self.attempted += 1
        if outcome.error is not None:
            self.failed += 1
            kind = "traced" if traced else "untraced"
            print(f"FAILED {kind} input {j}: {outcome.error}", flush=True)
        return rep

    def _span_error(self, spans: tracer.Summary) -> str | None:
        for name in COMMON_SPANS + self.wl.spans:
            if spans.calls[name] == 0:
                return f"expected span {name} recorded no call"
        for name in self.wl.absent:
            if spans.calls[name]:
                return f"span {name} should not run on {self.wl.name}"
        return None

    def ok(self, traced: bool | None = None, j: int | None = None):
        return [r for r in self.reps if r.outcome.error is None
                and (traced is None or r.traced == traced)
                and (j is None or r.input == j)]

    def repeat(self, seconds: float, round_fn) -> None:
        """Call round_fn at least twice, then while another round fits."""
        t0 = time.monotonic()
        rounds = 0
        while True:
            tr = time.monotonic()
            round_fn()
            rounds += 1
            now = time.monotonic()
            took = now - tr
            if now + took > self.deadline - 5.0:
                break
            if rounds >= 2 and now - t0 + took > seconds:
                break

    # -- untraced run: end-to-end metrics ---------------------------------

    def end_to_end(self, seconds: float) -> dict:
        setup = []

        def one_pass():
            # a set-up sample follows each invocation, so both kinds of
            # sample spread over the whole run and a slow or fast spell of
            # the machine cannot land on one kind only
            for j in range(len(self.configs)):
                self.invoke(j, traced=False)
                child = self.spawn([sys.executable, str(BENCH / "setup.py"),
                                    str(self.configs[j])])
                self.attempted += 1
                if child.code != 0:
                    self.failed += 1
                    print(f"FAILED setup: {child.stderr.strip()[-500:]}")
                else:
                    setup.append(child.wall_s)

        self.repeat(seconds, one_pass)
        per_input = []
        for j, seed in enumerate(self.seeds):
            reps = self.ok(j=j)
            if not reps:
                continue
            ref = self.reference[j]
            wall = statistics.median(r.wall_s for r in reps)
            rss = statistics.median(r.rss_mb for r in reps)
            per_input.append((wall, rss, ref))
            print(f"input {j} seed {seed}: queries_used {ref.queries_used}"
                  f" diag_queries {ref.diag_queries} run_s median {wall:.4f}"
                  f" of {[round(r.wall_s, 4) for r in reps]}; fingerprint "
                  f"{ref.fingerprint()}")
            for name, digest in sorted(ref.hashes.items()):
                print(f"  sha256 {name} {digest}")
        if not per_input or not setup:
            raise BenchError("no invocation succeeded")
        walls = [w for w, _, _ in per_input]
        queries = [o.queries_used for _, _, o in per_input]
        samples = sorted(r.wall_s for r in self.ok())
        n = len(samples)
        if n >= 20:
            print(f"run_s p{100 * (n - 10) / n:.0f}: {samples[n - 11]:.4f} s "
                  f"over {n} invocations (10 beyond it)")
        else:
            print(f"run_s tail: {n} invocations, no percentile above the "
                  f"median has 10 beyond it")
        print(f"setup_s samples: {[round(w, 4) for w in setup]}")
        print(f"fail_frac: {self.failed}/{self.attempted}")
        return {
            "run_s": statistics.mean(walls),
            "setup_s": statistics.median(setup),
            "queries_per_s": sum(queries) / sum(walls),
            "queries_used": statistics.mean(queries),
            "diag_queries": statistics.mean(o.diag_queries
                                            for _, _, o in per_input),
            "peak_rss_mb": statistics.mean(r for _, r, _ in per_input),
        }

    # -- traced run: per-layer metrics ------------------------------------

    def per_layer(self, seconds: float) -> dict:
        imports = []
        for _ in range(IMPORT_REPS):
            child = self.spawn([sys.executable, "-X", "importtime", "-c",
                                "import prsrg"])
            if child.code == 0:
                imports.append(_import_times(child.stderr))

        def pair():
            self.invoke(0, traced=False)
            self.invoke(0, traced=True)

        self.repeat(seconds, pair)
        plain, traced = self.ok(traced=False), self.ok(traced=True)
        if not plain or not traced or not imports:
            raise BenchError("no traced and untraced pair succeeded")
        rows = [r.layers for r in traced]
        metrics = {k: statistics.median_low(row[k] for row in rows)
                   for k in rows[0]}
        base = statistics.median(r.wall_s for r in plain)
        metrics["import.total_s"] = statistics.median(t for t, _ in imports)
        metrics["import.scipy_s"] = statistics.median(s for _, s in imports)
        metrics["tracing.overhead_s"] = (
            statistics.median(r.wall_s for r in traced) - base)
        ref = self.reference[0]
        print(f"run_s untraced median {base:.4f} over {len(plain)}, traced "
              f"median {base + metrics['tracing.overhead_s']:.4f} over "
              f"{len(traced)}")
        print(f"counts: queries_used {ref.queries_used} diag_queries "
              f"{ref.diag_queries} probe_exact_grads "
              f"{metrics['pullback.probe.exact_grads']:.0f} lanczos_iters "
              f"{metrics['diagnostics.lanczos_iters']:.0f} hvp_calls "
              f"{metrics['pullback.hvp.calls']:.0f}; fingerprint "
              f"{ref.fingerprint()}")
        print(f"fail_frac: {self.failed}/{self.attempted}")
        return metrics

    def _layers(self, s: tracer.Summary, o: Outcome, wall_s: float) -> dict:
        m = {}
        for layer in ("kernels.paired_rank2", "kernels.rows_rank1",
                      "problems.sample", "problems.batch_grad",
                      "rng.generator", "geometry.retract", "geometry.adjoint",
                      "geometry.sample_ball", "geometry.tangent_basis",
                      "pullback.grad_batch", "pullback.value", "pullback.hvp",
                      "diagnostics.certify"):
            m[f"{layer}.calls"] = s.calls[layer]
            m[f"{layer}.self_s"] = s.self_s(layer)
        flops = s.notes["kernels.paired_rank2.flops"]
        moved = s.notes["kernels.paired_rank2.bytes"]
        m["kernels.paired_rank2.flop_per_byte"] = flops / moved if moved else 0
        m["problems.build.self_s"] = s.self_s("problems.build")
        m["pullback.exact_grad.calls"] = s.calls["pullback.exact_grad"]
        m["pullback.probe.total_s"] = s.total_s("pullback.probe")
        m["pullback.probe.exact_grads"] = s.calls_within(
            "pullback.exact_grad", "pullback.probe")
        steps = s.notes["tssrg.inner_steps"]
        m["tssrg.epochs"] = s.calls["tssrg.run"]
        m["tssrg.inner_steps"] = steps
        m["tssrg.step_us"] = s.total_s("tssrg.run") / steps * 1e6 if steps else 0
        m["solver.outer_iters"] = o.outer_iters
        m["solver.grad_check.total_s"] = s.total_s("solver.grad_check")
        m["solver.wasted_epoch_frac"] = (o.wasted_epochs / o.labelled_epochs
                                         if o.labelled_epochs else 0)
        m["diagnostics.certify.total_s"] = s.total_s("diagnostics.certify")
        m["diagnostics.lanczos_iters"] = s.notes["diagnostics.lanczos_iters"]
        m["diagnostics.cert_pass_frac"] = (s.notes["diagnostics.cert_passed"]
                                           / s.calls["diagnostics.certify"])
        m["harness.resolve_params.total_s"] = s.total_s("harness.resolve_params")
        m["harness.write_artifacts.total_s"] = s.total_s(
            "harness.write_artifacts")
        m["trace.bytes"] = o.trace_bytes
        m["report.bytes"] = o.report_bytes
        cells = s.span_durations_s("harness.run_experiment")
        sweep = s.total_s("harness.run_sweep")
        m["harness.sweep.cell_s"] = statistics.median(cells) if sweep else 0
        m["harness.sweep.pool_busy_frac"] = (
            sum(cells) / (min(self.threads, len(cells)) * sweep) if sweep else 0)
        m["tracing.span_coverage"] = s.main_root_ns / 1e9 / wall_s
        return m


def _import_times(stderr: str) -> tuple[float, float]:
    """(prsrg cumulative, scipy cumulative) seconds from -X importtime.

    The log lists each module after the modules it imported, one level of
    indentation deeper; scipy's share is the cumulative time of every scipy
    module that was not imported by another scipy module.
    """
    total = scipy = 0
    stack: list[tuple[int, str]] = []
    for line in reversed(stderr.splitlines()):
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|")
        depth = len(name) - len(name.lstrip())
        name = name.strip()
        while stack and stack[-1][0] >= depth:
            stack.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not any(n.startswith("scipy") for _, n in stack):
            scipy += int(cum)
        if name == "prsrg" and not stack:
            total = int(cum)
        stack.append((depth, name))
    return total / 1e6, scipy / 1e6


def _declared(section: str, values: dict) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())[section]
    names = [m["name"] for m in spec]
    if sorted(names) != sorted(values):
        raise BenchError(f"metrics differ from BENCHMARK.json {section}: "
                         f"{sorted(set(names) ^ set(values))}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "prsrg" / "__init__.py").is_file():
        print(f"error: no prsrg package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = BENCH / ".work" / f"{wl.name}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(wl, args.seed, work)
        stamp = bench.stamp()
        stamp.update(workload=wl.name, seed=args.seed,
                     input_seeds=bench.seeds, trace=args.trace)
        print("environment: " + json.dumps(stamp, sort_keys=True), flush=True)
        if args.trace:
            metrics = _declared("per_layer", bench.per_layer(args.seconds))
        else:
            metrics = _declared("end_to_end", bench.end_to_end(args.seconds))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted, "failed": bench.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
