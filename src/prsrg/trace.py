"""Run-trace rows and their CSV serialization.

One row per epoch anchor, standalone gradient check, or inner step. The
column order is fixed, the header row is mandatory, and floats are written
in shortest round-trip decimal form, so identical runs produce byte-identical
files.

Schema:
    outer_t, inner_k, epoch_type, F_value, grad_norm_or_batch,
    estimator_gap, u_norm, queries_cum, event

* ``epoch_type`` is one of type1_descent / type2_descent / useful / wasted /
  escape / baseline (the outer-loop proof taxonomy; baselines use
  ``baseline``).
* ``grad_norm_or_batch`` holds the large-batch gradient norm on anchor and
  grad_check rows and the running estimator norm ||v_t|| on step rows.
* ``estimator_gap`` is ``||v_t - grad F_hat(u_t)||`` against the exact
  gradient oracle when gap recording is on, else empty.
* ``event`` is one of anchor / grad_check / step / boundary / uniform_break /
  max_iter.
* ``queries_cum`` is the cumulative optimizer query count after the row's
  cost: B per anchor or grad_check row, 2b per step, uniform_break, or
  max_iter row, 0 per boundary row (a boundary exit evaluates no new
  gradients). Summing those contributions over the rows reproduces
  ``queries_used`` exactly.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import SchemaError

EPOCH_TYPES = ("type1_descent", "type2_descent", "useful", "wasted",
               "escape", "baseline")

COLUMNS = ("outer_t", "inner_k", "epoch_type", "F_value",
           "grad_norm_or_batch", "estimator_gap", "u_norm", "queries_cum",
           "event")

# events whose row carries a fresh inner-step estimator norm
_STEP_EVENTS = ("step", "uniform_break", "max_iter")


@dataclass
class TraceRow:
    outer_t: int
    inner_k: int
    epoch_type: str
    F_value: float
    grad_norm_or_batch: float
    estimator_gap: float | None
    u_norm: float
    queries_cum: int
    event: str


@dataclass
class TraceSegment:
    """Rows of one TSSRG call plus aligned diagnostic side channels.

    ``du_norms[i]`` is ``||u_t - u_{t-1}||`` for step rows (0 on anchors);
    ``u_vecs[i]`` is the ambient tangent vector at row i when vector
    recording was requested, else the list is None. The CSV persists rows
    only; the side channels feed the diagnostic checkers.
    """

    rows: list[TraceRow] = field(default_factory=list)
    du_norms: list[float] = field(default_factory=list)
    u_vecs: list[np.ndarray] | None = None


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def rows_to_csv(rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(COLUMNS)
    for r in rows:
        w.writerow([
            str(r.outer_t), str(r.inner_k), r.epoch_type, _fmt(r.F_value),
            _fmt(r.grad_norm_or_batch), _fmt(r.estimator_gap), _fmt(r.u_norm),
            str(r.queries_cum), r.event,
        ])
    return buf.getvalue()


def write_trace(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))


def read_trace(path) -> list[TraceRow]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != COLUMNS:
            raise SchemaError(f"unexpected trace header: {header}")
        rows = []
        for rec in reader:
            rows.append(TraceRow(
                outer_t=int(rec[0]), inner_k=int(rec[1]), epoch_type=rec[2],
                F_value=float(rec[3]), grad_norm_or_batch=float(rec[4]),
                estimator_gap=float(rec[5]) if rec[5] else None,
                u_norm=float(rec[6]), queries_cum=int(rec[7]), event=rec[8]))
    return rows
