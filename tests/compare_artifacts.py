"""Compare two checkouts' artifacts through the command line.

    python tests/compare_artifacts.py BASE CHANGE WORKDIR

BASE and CHANGE are repository roots; WORKDIR must not exist yet. Each
input runs through ``python -m prsrg.cli`` in both trees, with PYTHONPATH at
the tree's ``src``: every bench workload's inputs at bench seeds 1 and 4
(the configs come from CHANGE's ``bench/workloads.py``, which is imported,
never written), and the README's ini under each ``--algo``. Every trace
CSV, report JSON and ``summary.csv`` must be byte-equal, and so must each
invocation's exit code, stdout and stderr, once the output path (which the
sweep's stdout line names) is masked. The
script prints one line per mismatch and a count line, and exits 1 when
anything differs. pytest does not collect it.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

BENCH_SEEDS = (1, 4)
ALGOS = ("prsrg", "prgd", "rsrg_unperturbed")


def _inputs(change: Path) -> list[tuple[str, str, str, list[str]]]:
    """(name, subcommand, config text, extra flags) per invocation."""
    sys.dont_write_bytecode = True  # leave no cache in the bench tree
    sys.path.insert(0, str(change / "bench"))
    from workloads import WORKLOADS

    out = [(f"{w.name}-{s}-{j}", w.command, w.config.format(seed=x),
            list(w.extra_args))
           for w in WORKLOADS.values() for s in BENCH_SEEDS
           for j, x in enumerate(w.seeds(s))]
    (ini,) = re.findall(r"```ini\n(.*?)```",
                        (change / "README.md").read_text(), flags=re.DOTALL)
    return out + [(f"readme-{a}", "run", ini, ["--algo", a]) for a in ALGOS]


def _run(root: Path, d: Path, command: str, text: str,
         extra: list[str]) -> str:
    """Run one invocation in ``d`` against ``root``'s source; its exit
    code, stdout and stderr with the output path masked."""
    d.mkdir(parents=True)
    (d / "in.ini").write_text(text)
    out = d / ("out" if command == "sweep" else "run")
    proc = subprocess.run(
        [sys.executable, "-m", "prsrg.cli", command, "--config",
         str(d / "in.ini"), "--out", str(out), *extra],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True, text=True)
    seen = f"exit {proc.returncode}\n{proc.stdout}{proc.stderr}"
    return seen.replace(str(out), "<out>")


def compare(base: Path, change: Path, work: Path) -> list[str]:
    bad = []
    counts = dict.fromkeys(("trace", "report", "summary"), 0)
    inputs = _inputs(change)
    for name, command, text, extra in inputs:
        a, b = work / "base" / name, work / "change" / name
        if _run(base, a, command, text, extra) != _run(change, b, command,
                                                       text, extra):
            bad.append(f"{name}: exit code, stdout or stderr differs")
        files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        if files != sorted(p.relative_to(b) for p in b.rglob("*")
                           if p.is_file()):
            bad.append(f"{name}: file lists differ")
        for rel in files:
            kind = ("trace" if rel.name.endswith(".trace.csv") else
                    "report" if rel.name.endswith(".report.json") else
                    "summary" if rel.name == "summary.csv" else None)
            if kind is None:
                continue
            counts[kind] += 1
            if (b / rel).is_file() and (a / rel).read_bytes() != (
                    b / rel).read_bytes():
                bad.append(f"{name}/{rel}: {kind} differs")
    print(f"{len(inputs)} invocations: {counts['trace']} traces, "
          f"{counts['report']} report.json, {counts['summary']} summary.csv; "
          f"mismatches: {len(bad)}")
    return bad


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tests/compare_artifacts.py BASE CHANGE WORKDIR",
              file=sys.stderr)
        return 2
    base, change, work = (Path(p).resolve() for p in argv)
    bad = compare(base, change, work)
    for line in bad:
        print(line)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
