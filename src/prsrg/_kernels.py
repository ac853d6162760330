"""Hot batch-gradient kernels.

The inner loops of every objective reduce to one of two shapes:

* ``paired_rank2_mean`` — mean over a component batch of symmetric rank-2
  perturbation actions ``E_i y`` read from the pair store (one row per
  +/- pair): ``E_i = s_i (p_k q_k^T + q_k p_k^T)`` with ``k = i >> 1`` and
  ``s_i = 1 - 2 (i & 1)``;
* ``rows_rank1_mean`` — mean over data rows of ``a_i (a_i . y)`` for
  sample-covariance objectives (callers gather index batches as ``A[idx]``).

Determinism: each kernel is a fixed sequence of numpy reductions, so the
same inputs always produce the same bits. The pair kernel applies the sign
to the two length-b products, not to the gathered rows; negation is exact,
so it gives the bits of the same formula on per-component rows.
"""

from __future__ import annotations

import numpy as np


# s_i by parity of i: a lookup is one numpy call, 1 - 2 (i & 1) is three
_PAIR_SIGN = np.array([1.0, -1.0])


def paired_rank2_mean(p: np.ndarray, q: np.ndarray, idx: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    pair = idx >> 1
    sign = _PAIR_SIGN.take(idx & 1)
    Pi = p.take(pair, axis=0)
    Qi = q.take(pair, axis=0)
    acc = Pi.T @ (sign * (Qi @ y)) + Qi.T @ (sign * (Pi @ y))
    return acc / idx.shape[0]


def rows_rank1_mean(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    return A.T @ (A @ y) / A.shape[0]


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
