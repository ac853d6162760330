"""Set-up phase of one benchmark input, run in a fresh interpreter.

    python bench/setup.py CONFIG

Imports prsrg, then builds every problem instance the config's command
builds (one per sweep cell) and its start point, as ``run_experiment``
does. The benchmark times the whole process.
"""

from __future__ import annotations

import dataclasses
import sys

from prsrg.harness import build_problem, load_config, resolve_start
from prsrg.rng import master_stream


def main() -> int:
    cfg = load_config(sys.argv[1])
    cells = [cfg]
    if cfg.sweep.n_values:
        cells = [dataclasses.replace(
                     cfg, seed=cfg.seed + i,
                     problem=dataclasses.replace(cfg.problem, n=n))
                 for n in cfg.sweep.n_values for i in range(cfg.sweep.seeds)]
    for cell in cells:
        resolve_start(cell, build_problem(cell), master_stream(cell.seed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
