"""Command-line entry points.

Subcommands: run (optimize per config), sweep (n x seed grid),
print-config.
Exit codes: 0 success, 1 internal failure (non-finite values mid-run or a
library bug: a broken invariant or argument contract), 2 config
validation error. Failures print one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .errors import (ContractViolation, InvariantViolation, NumericalFailure,
                     ParameterError)
from .harness import (ALGOS, _run_summary, dump_config, load_config,
                      run_experiment, run_sweep)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="prsrg",
        description="Perturbed Riemannian stochastic recursive gradient "
                    "solver and its experiment harness")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True,
                       help="INI experiment config")
        p.add_argument("--seed", type=int, default=None,
                       help="override [experiment] seed")
        p.add_argument("--out", default=None,
                       help="override output path prefix")
        p.add_argument("--budget", type=int, default=None,
                       help="override [experiment] budget")

    p_run = sub.add_parser("run", help="run the configured optimizer")
    common(p_run)
    p_run.add_argument("--algo", choices=ALGOS, default=None,
                       help="override [experiment] algo")

    p_sweep = sub.add_parser("sweep", help="run the [sweep] grid")
    common(p_sweep)

    p_cfg = sub.add_parser("print-config",
                           help="parse a config and echo its canonical form")
    p_cfg.add_argument("--config", required=True)
    return ap


def _load(args):
    cfg = load_config(args.config)
    if getattr(args, "seed", None) is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    if getattr(args, "budget", None) is not None:
        cfg = dataclasses.replace(cfg, budget=args.budget)
    if getattr(args, "algo", None) is not None:
        cfg = dataclasses.replace(cfg, algo=args.algo)
    return cfg


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = _load(args)
            report, _ = run_experiment(cfg, out=args.out)
            print(json.dumps(_run_summary(report), sort_keys=True))
            return EXIT_OK
        if args.command == "sweep":
            cfg = _load(args)
            out_dir = args.out if args.out is not None else (cfg.out or "sweep")
            rows = run_sweep(cfg, out_dir)
            print(json.dumps({"cells": len(rows), "out": str(out_dir)},
                             sort_keys=True))
            return EXIT_OK
        if args.command == "print-config":
            cfg = load_config(args.config)
            print(dump_config(cfg), end="")
            return EXIT_OK
        raise AssertionError(f"unhandled command {args.command}")
    except (ParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (NumericalFailure, InvariantViolation, ContractViolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
