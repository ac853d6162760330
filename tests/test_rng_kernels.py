"""Stream splitting determinism and the reduction kernels."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import prsrg
from prsrg import _kernels
from prsrg.errors import ParameterError
from prsrg.rng import StreamTree, as_stream, master_stream


# ------------------------------------------------------------ stream tree

def test_same_path_same_bits():
    a = master_stream(42).child(3, 17).generator()
    b = master_stream(42).child(3, 17).generator()
    assert np.array_equal(a.random(16), b.random(16))


def test_order_of_instantiation_is_irrelevant():
    root = master_stream(7)
    g_late = root.child(1, 2).generator()
    x_late = g_late.random(8)
    # burn another stream in between; the path addresses the bits
    root.child(9, 9).generator().random(100)
    g_again = root.child(1, 2).generator()
    assert np.array_equal(g_again.random(8), x_late)


def test_sibling_streams_decorrelated():
    root = master_stream(1)
    xs = [root.child(3, k).generator().random(2048) for k in range(6)]
    for i in range(6):
        for j in range(i + 1, 6):
            r = np.corrcoef(xs[i], xs[j])[0, 1]
            assert abs(r) < 0.08


def test_different_seeds_differ():
    a = master_stream(0).child(1).generator().random(4)
    b = master_stream(1).child(1).generator().random(4)
    assert not np.array_equal(a, b)


def test_child_is_pure():
    t = StreamTree(5, (2,))
    assert t.child(3).path == (2, 3)
    assert t.path == (2,)  # parent untouched
    assert t.child(3) == StreamTree(5, (2, 3))


def test_master_stream_validates_seed():
    with pytest.raises(ValueError):
        master_stream(-1)
    with pytest.raises(ValueError):
        master_stream(2**64)
    master_stream(2**64 - 1)


def test_as_stream_accepts_seed_or_tree_only():
    stream, seed = as_stream(np.int64(5))
    assert stream == master_stream(5)
    assert seed == 5 and type(seed) is int
    tree = master_stream(3).child(1)
    assert as_stream(tree) == (tree, None)
    for bad in ("5", 1.5, None, 2**64):
        with pytest.raises(ParameterError):
            as_stream(bad)


# ------------------------------------------------------------ kernels

def _cases(rng, n=50):
    # a pair store for n components: ceil(n/2) rows, the last one zero
    # for odd n (its component is noise-free)
    p = rng.standard_normal(((n + 1) // 2, 12))
    q = rng.standard_normal(((n + 1) // 2, 12))
    if n % 2:
        p[-1] = q[-1] = 0.0
    A = rng.standard_normal((80, 12))
    idx = rng.integers(0, n, size=33).astype(np.int64)
    idx_a = rng.integers(0, 80, size=21).astype(np.int64)
    y = rng.standard_normal(12)
    return p, q, A, idx, idx_a, y


def test_kernels_match_dense_reference():
    rng = np.random.default_rng(4)
    for n in (50, 51):
        p, q, A, idx, idx_a, y = _cases(rng, n)
        # index n - 1 and both components of pair 3
        idx = np.concatenate([idx, [n - 1, 6, 7]])
        ref = np.zeros(12)
        for i in idx:
            k, s = i >> 1, 1.0 - 2.0 * (i & 1)
            E = s * (np.outer(p[k], q[k]) + np.outer(q[k], p[k]))
            ref += E @ y
        ref /= len(idx)
        assert np.allclose(_kernels.paired_rank2_mean(p, q, idx, y), ref,
                           atol=1e-12)
        pair = np.array([6, 7])
        assert np.allclose(_kernels.paired_rank2_mean(p, q, pair, y), 0.0,
                           atol=1e-12)
    assert np.allclose(_kernels.rows_rank1_mean(A, y),
                       A.T @ (A @ y) / A.shape[0], atol=1e-12)
    assert np.allclose(_kernels.rows_rank1_mean(A[idx_a], y),
                       A[idx_a].T @ (A[idx_a] @ y) / len(idx_a), atol=1e-12)


def test_kernels_bitwise_repeatable():
    rng = np.random.default_rng(6)
    p, q, A, idx, _, y = _cases(rng)
    a = _kernels.paired_rank2_mean(p, q, idx, y)
    b = _kernels.paired_rank2_mean(p, q, idx, y)
    assert np.array_equal(a, b)


def test_import_loads_numpy_kernels_without_scipy():
    # a fresh interpreter: the test suite itself imports scipy
    src = str(Path(prsrg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, prsrg; "
            "print('scipy' in sys.modules, prsrg.backend_name())")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "numpy"]
