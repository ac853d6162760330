"""Run-trace rows and their CSV serialization.

One row per epoch anchor, standalone gradient check, or inner step. The
column order is fixed, the header row is mandatory, and floats are written
in shortest round-trip decimal form, so identical runs produce byte-identical
files.

Schema:
    outer_t, inner_k, epoch_type, F_value, grad_norm_or_batch, u_norm,
    queries_cum, event

* ``epoch_type`` is one of type1_descent / type2_descent / useful / wasted /
  escape, one label per outer_t that the solver sets from its rows after
  the run (``solver._label_epochs``), or baseline on a baseline's rows.
* ``grad_norm_or_batch`` holds the large-batch gradient norm on anchor and
  grad_check rows and the running estimator norm ||v_t|| on step rows.
* ``event`` is one of anchor / grad_check / step / boundary / uniform_break /
  max_iter.
* ``queries_cum`` is the cumulative optimizer query count after the row's
  cost: B per anchor or grad_check row, 2b per step, uniform_break, or
  max_iter row, 0 per boundary row (a boundary exit evaluates no new
  gradients). Summing those contributions over the rows reproduces
  ``queries_used`` exactly.
"""

from __future__ import annotations

import numpy as np

EPOCH_TYPES = ("type1_descent", "type2_descent", "useful", "wasted",
               "escape", "baseline")

COLUMNS = ("outer_t", "inner_k", "epoch_type", "F_value",
           "grad_norm_or_batch", "u_norm", "queries_cum", "event")

# events whose row carries a fresh inner-step estimator norm
_STEP_EVENTS = ("step", "uniform_break", "max_iter")


class TraceRow:
    """One trace line; rows compare equal field by field."""

    __slots__ = COLUMNS

    def __init__(self, outer_t: int, inner_k: int, epoch_type: str,
                 F_value: float, grad_norm_or_batch: float, u_norm: float,
                 queries_cum: int, event: str):
        self.outer_t = outer_t
        self.inner_k = inner_k
        self.epoch_type = epoch_type
        self.F_value = F_value
        self.grad_norm_or_batch = grad_norm_or_batch
        self.u_norm = u_norm
        self.queries_cum = queries_cum
        self.event = event

    def __eq__(self, other):
        if type(other) is not TraceRow:
            return NotImplemented
        return ([getattr(self, c) for c in COLUMNS]
                == [getattr(other, c) for c in COLUMNS])


class TraceSegment:
    """Rows of one TSSRG call and, when the run recorded them, each row's
    vectors: ``u_vecs[i]`` is the iterate u and ``v_vecs[i]`` the estimator
    v behind row i (a boundary row keeps the v of the step it cut short), so
    ``||v_vecs[i]||`` is the row's ``grad_norm_or_batch`` and
    ``||u_vecs[i]||`` its ``u_norm``. Both lists are None when the run did
    not record. The CSV persists rows only.
    """

    __slots__ = ("rows", "u_vecs", "v_vecs")

    def __init__(self, rows: list[TraceRow] | None = None,
                 u_vecs: list[np.ndarray] | None = None,
                 v_vecs: list[np.ndarray] | None = None):
        self.rows = [] if rows is None else rows
        self.u_vecs = u_vecs
        self.v_vecs = v_vecs


def _fmt(x) -> str:
    """A float column's field: ``str`` of an integer and the shortest
    round-trip ``repr`` of anything else as a float."""
    if type(x) is float:  # the common case, first
        return repr(x)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def rows_to_csv(rows) -> str:
    """The trace as CSV text, one f-string per row. No field needs quoting
    (the string columns hold fixed words, the others numbers), so the text
    is what ``csv.writer`` writes with ``lineterminator="\\n"``."""
    return "".join([",".join(COLUMNS) + "\n"] + [
        f"{r.outer_t},{r.inner_k},{r.epoch_type},{_fmt(r.F_value)},"
        f"{_fmt(r.grad_norm_or_batch)},{_fmt(r.u_norm)},{r.queries_cum},"
        f"{r.event}\n" for r in rows])


def write_trace(path, rows) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(rows_to_csv(rows))
