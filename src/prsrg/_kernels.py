"""Hot batch-gradient kernels.

The inner loops of every objective reduce to one of two shapes:

* ``paired_rank2_mean`` — mean over a component batch of symmetric rank-2
  perturbation actions ``E_i y`` with ``E_i = p_i q_i^T + q_i p_i^T``;
* ``rows_rank1_mean`` — mean over data rows of ``a_i (a_i . y)`` for
  sample-covariance objectives (callers gather index batches as ``A[idx]``).

Determinism: each kernel is a fixed sequence of numpy reductions, so the
same inputs always produce the same bits.
"""

from __future__ import annotations

import numpy as np


def paired_rank2_mean(P: np.ndarray, Q: np.ndarray, idx: np.ndarray,
                      y: np.ndarray) -> np.ndarray:
    Pi = P[idx]
    Qi = Q[idx]
    acc = Pi.T @ (Qi @ y) + Qi.T @ (Pi @ y)
    return acc / idx.shape[0]


def rows_rank1_mean(A: np.ndarray, y: np.ndarray) -> np.ndarray:
    return A.T @ (A @ y) / A.shape[0]


def backend_name() -> str:
    """Name of the kernel implementation; numpy is the only one."""
    return "numpy"
