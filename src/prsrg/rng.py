"""Deterministic stream splitting on top of the Philox counter-based generator.

All randomness in a run flows from one 64-bit master seed through a tree of
named streams. A stream is addressed by a path of small integers, e.g.

    master -> (OUTER, t) -> (BATCH, e)

and two consumers that hold the same path always see the same bits, no matter
in which order they instantiate their generators. That is the property the
coupled-sequence experiments rely on: the randomness "tape" of epoch e is
addressed by position, and both runs read it in the same order.

A finite sum's pair store reads master(0) -> (PROBLEM, c) for its first
``problems.PAIR_BLOCK`` pairs and (PROBLEM, c, j) for block j >= 1 (c = 1
rayleigh, 2 quadratic_saddle), so any number of threads draw its bits.

Implementation: ``numpy.random.SeedSequence`` with explicit ``spawn_key``
paths feeding ``numpy.random.Philox``. SeedSequence spawning is numpy's
documented splitting construction and Philox is counter-based, so streams are
independent of scheduling. Minting a generator still costs a SeedSequence
hash and a Philox key schedule (~20 us), so a stream is minted only where it
is drawn from: samplers take either a Generator or a StreamTree node
(``as_generator``) and mint the node's generator only on the path that
draws. An exhaustive finite-sum batch or a zero-radius ball draw mints none.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

# Stream purpose tags. Fixed small integers; part of the reproducibility
# contract (changing them changes every trace).
TAG_OUTER = 1      # one child per outer iteration of the solver
TAG_ANCHOR = 2     # one child per epoch anchor (large-batch draw)
TAG_BATCH = 3      # one tape per epoch: stopping index, then its minibatches
TAG_CHECK = 4      # the outer iteration's gradient-check large batch
TAG_PERTURB = 5    # perturbation draws u0 ~ Unif(B(r))
TAG_PROBLEM = 6    # problem-instance construction
TAG_INIT = 7       # starting-point draws
TAG_DIAG = 8       # diagnostics (Lanczos seed vectors, probe pairs)
TAG_TRIAL = 9      # reserved for the trial loop in tests/replay.py; nothing
                   # under src/ reads it; allocated here so no tag collides


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


def as_generator(rng) -> np.random.Generator:
    """A sampler's ``rng`` argument, a Generator or a StreamTree node, as a
    Generator: a node mints its generator here, so a sampler that calls this
    only on the path that draws mints nothing on the paths that do not."""
    return rng.generator() if isinstance(rng, StreamTree) else rng
