"""Hot batch-gradient kernels.

The inner loops of every objective reduce to one of two shapes:

* ``paired_rank2_mean`` — mean over a component batch of symmetric rank-2
  perturbation actions ``E_i y`` read from the pair store (one row per
  +/- pair): ``E_i = s_i (p_k q_k^T + q_k p_k^T)`` with ``k = i >> 1`` and
  ``s_i = 1 - 2 (i & 1)``;
* ``rows_rank1_mean`` — mean over rows of ``a_i (a_i . y)``: the streaming
  objective's batch, as drawn samples or Bartlett pseudo-rows.

Both take y as one vector or stacked as rows, shape (..., d), and act on
each row through ``np.matmul(M, Y[..., None])``, one gemv per row, so a row
gets the bits of its one-vector call (``Y @ M.T``, one gemm, does not).

Determinism: each kernel is a fixed sequence of numpy reductions, so the
same inputs always produce the same bits. The pair kernel applies the sign
to the two length-b products, not to the gathered rows; negation is exact,
so it gives the bits of the same formula on per-component rows.
"""

from __future__ import annotations

import numpy as np


# s_i by parity of i, as a column: a lookup is one numpy call, 1 - 2 (i & 1)
# is three
_PAIR_SIGN = np.array([[1.0], [-1.0]])


def _act(M: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """M y for each row y of Y, shape (..., d): bit-equal to ``M @ y`` one
    row at a time."""
    return np.matmul(M, Y[..., None])[..., 0]


def paired_rank2_mean(p: np.ndarray, q: np.ndarray, idx: np.ndarray,
                      Y: np.ndarray) -> np.ndarray:
    # products stay columns, (..., b, 1) and (..., d, 1), until the end
    pair = idx >> 1
    sign = _PAIR_SIGN.take(idx & 1, axis=0)
    Pi = p.take(pair, axis=0)
    Qi = q.take(pair, axis=0)
    Yc = Y[..., None]
    acc = (np.matmul(Pi.T, sign * np.matmul(Qi, Yc))
           + np.matmul(Qi.T, sign * np.matmul(Pi, Yc)))
    return acc[..., 0] / idx.shape[0]


def rows_rank1_mean(A: np.ndarray, Y: np.ndarray) -> np.ndarray:
    return np.matmul(A.T, np.matmul(A, Y[..., None]))[..., 0] / A.shape[0]


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
