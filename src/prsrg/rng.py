"""Deterministic stream splitting on top of the Philox counter-based generator.

All randomness in a run flows from one 64-bit master seed through a tree of
named streams. A stream is addressed by a path of small integers, e.g.

    master -> (OUTER, t) -> (BATCH, k)

and two consumers that hold the same path always see the same bits, no matter
in which order (or on which thread) they instantiate their generators. That is
the property the coupled-sequence experiments rely on: the randomness "tape"
is addressed by position, not by consumption order.

Implementation: ``numpy.random.SeedSequence`` with explicit ``spawn_key``
paths feeding ``numpy.random.Philox``. SeedSequence spawning is numpy's
documented splitting construction and Philox is counter-based, so streams are
cheap to mint and independent of scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Stream purpose tags. Fixed small integers; part of the reproducibility
# contract (changing them changes every trace).
TAG_OUTER = 1      # one child per outer iteration of the solver
TAG_ANCHOR = 2     # one child per epoch anchor (large-batch draw)
TAG_BATCH = 3      # one child per inner-step mini-batch draw
TAG_BREAK = 4      # one child per inner-step uniform-break draw
TAG_PERTURB = 5    # perturbation draws u0 ~ Unif(B(r))
TAG_PROBLEM = 6    # problem-instance construction
TAG_INIT = 7       # starting-point draws
TAG_DIAG = 8       # diagnostics (Lanczos seed vectors, probe pairs)
TAG_TRIAL = 9      # one child per experiment trial / sweep cell


@dataclass(frozen=True)
class StreamTree:
    """A node in the stream tree; immutable and freely shareable."""

    seed: int
    path: tuple[int, ...] = ()

    def child(self, *path: int) -> "StreamTree":
        return StreamTree(self.seed, self.path + tuple(int(p) for p in path))

    def sequence(self) -> np.random.SeedSequence:
        return np.random.SeedSequence(entropy=self.seed, spawn_key=self.path)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(self.sequence()))


def master_stream(seed: int) -> StreamTree:
    """Root of the tree for a run with the given 64-bit seed."""
    if not 0 <= int(seed) < 2**64:
        raise ParameterError(
            f"seed must be a 64-bit unsigned integer, got {seed}")
    return StreamTree(int(seed))


def as_stream(rng) -> tuple[StreamTree, int | None]:
    """Normalize a run's ``rng`` argument: a 64-bit seed or a StreamTree.

    Returns (stream, seed); seed is None when a StreamTree was given.
    """
    if isinstance(rng, (int, np.integer)):
        return master_stream(int(rng)), int(rng)
    if not isinstance(rng, StreamTree):
        raise ParameterError("rng must be a 64-bit seed or a StreamTree")
    return rng, None
