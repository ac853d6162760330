"""Test objectives with known critical-point structure.

* ``RayleighInstance`` — finite-sum Rayleigh quotient F(x) = -x^T Abar x on
  the sphere. Saddles sit at non-leading eigenvectors; the Riemannian
  Hessian at eigenvector v_j has eigenvalues -2(lambda_i - lambda_j) along
  v_i.
* ``QuadraticSaddleInstance`` — Euclidean F(u) = 1/2 u^T H u with
  lambda_min(H) = -gamma < 0: an exact strict saddle at the origin. It is
  built through the API only; it is no config ``kind``.
* ``StreamingRayleighInstance`` — online analogue: components A = a a^T
  with a ~ N(0, Abar), so the population objective matches the finite-sum
  target. A batch of B > d samples is drawn as its second moment (B times
  it is Wishart_d(B, Abar)) by Bartlett's decomposition: d(d+1)/2 variates
  instead of B d. Only it has a ``sigma_hint``, which sizes an online run.

Each objective gives only ``Abar``, ``scale`` (F = scale * y^T Abar y) and
its batch mean action; ``FiniteSumObjective`` forms the Euclidean
derivatives and the manifold makes them Riemannian. rayleigh and
streaming_rayleigh also share the spectrum check, the rotated mean matrix
and ``eigvec``. The finite-sum index sampler draws an epoch's minibatch
indices in one call (``sample_epoch``); the streaming sampler draws one
batch per step.

Paired finite-sum components are Abar + E_i where the E_i are symmetric
rank-2 perturbations of two-norm exactly ``noise_scale``, generated in +/-
pairs so the component mean equals Abar to machine precision (a pair's
contributions cancel exactly in IEEE arithmetic). Each pair is stored once:
row k of the pair store (p, q) gives E_{2k} = p_k q_k^T + q_k p_k^T and
E_{2k+1} = -E_{2k}, so component i reads row i >> 1 with the sign
1 - 2 (i & 1). Exhaustive batches evaluate through Abar directly, which is
both exact and deterministic.

Pair stores are prefix-closed in n: block j of ``PAIR_BLOCK`` pairs is
drawn in order from its own fixed stream, which depends only on j, so the
store for n is the first n // 2 rows of the store for any larger n, bit for
bit, plus one zero row when n is odd. ``prefix(n)`` serves a smaller n from
a built instance that way. The blocks are drawn and normalised on up to
``PAIR_WORKERS`` threads, each with one block buffer and its own rows of
the store, so the bits do not depend on the worker count.
"""

from __future__ import annotations

import copy
import math
import os
import threading
from typing import Iterator

import numpy as np

from . import _kernels
from .errors import ParameterError
from .geometry import Euclidean, ManifoldPoint, Sphere
from .pullback import Batch, FiniteSumObjective
from .rng import TAG_PROBLEM, StreamTree, as_generator, master_stream


def _too_large(d: int) -> ParameterError:
    return ParameterError(
        f"spectrum of length d = {d} needs d x d matrices of {8 * d * d} "
        f"bytes each, which cannot be allocated")


def _rotation(d: int, seed: int | None) -> np.ndarray:
    """Deterministic orthogonal matrix; identity when seed is None."""
    try:
        if seed is None:
            return np.eye(d)
        rng = master_stream(seed).child(TAG_PROBLEM).generator()
        G = rng.standard_normal((d, d))
        Q, R = np.linalg.qr(G)
        return Q * np.sign(np.diag(R))
    except MemoryError as exc:
        raise _too_large(d) from exc


def _rotated(rotation: np.ndarray, values: np.ndarray,
             seed: int | None) -> np.ndarray:
    """R diag(values) R^T for R = _rotation(d, seed); exactly diagonal when
    seed is None."""
    try:
        if seed is None:
            return np.diag(values)
        return rotation @ np.diag(values) @ rotation.T
    except MemoryError as exc:
        raise _too_large(values.size) from exc


def _check_spectrum(d: int, spectrum) -> np.ndarray:
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.shape != (d,):
        raise ParameterError(f"spectrum must have length d = {d}")
    if not np.all(np.isfinite(spectrum)):
        raise ParameterError("spectrum has non-finite entries (nan or inf)")
    if not np.all(np.diff(spectrum) <= 0):
        raise ParameterError("spectrum must be nonincreasing")
    if not (d > 1 and spectrum[0] > spectrum[1]):
        raise ParameterError("degenerate spectrum: need lambda_1 > lambda_2")
    return spectrum


# pairs per draw block; block j reads its own stream, so this size is part
# of the reproducibility contract. Each of at most PAIR_WORKERS workers
# holds one block buffer (0.2x the store at n = 20000, d = 200, in all);
# drawing all n/2 pairs at once would hold a second copy of the store
PAIR_BLOCK = 512
PAIR_WORKERS = 4

# minibatch indices per epoch draw: m = b = ceil(sqrt(n)) needs about n,
# one draw up to n = 65536; a hand-built SolverParams may ask for more
EPOCH_BLOCK = 2**16


def _store_pairs(block: np.ndarray, noise_scale: float, p: np.ndarray,
                 q: np.ndarray, lo: int) -> None:
    """Normalise and scale the drawn pairs ``block`` (rows, 2, d) in place,
    then copy them into rows lo, lo + 1, ... of p and q."""
    block /= np.sqrt(np.vecdot(block, block))[..., None]
    pb, qb = block[:, 0], block[:, 1]
    # eigenvalues of pq^T + qp^T on span{p,q} are <p,q> +/- 1
    pb *= (noise_scale / (1.0 + np.abs(np.vecdot(pb, qb))))[:, None]
    p[lo:lo + len(block)] = pb
    q[lo:lo + len(block)] = qb


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):  # not on macOS or Windows
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _paired_noise(n: int, d: int, noise_scale: float,
                  node: StreamTree) -> tuple[np.ndarray, np.ndarray]:
    """Pair store (p, q) of shape (ceil(n/2), d) for n paired components.

    Component i is s_i (p_k q_k^T + q_k p_k^T) with k = i >> 1 and
    s_i = 1 - 2 (i & 1), so E_{2k+1} = -E_{2k} and ||E_i||_2 =
    noise_scale; for odd n the last row is zero, so the last E is zero.
    Pair k draws p_k then q_k, each a standard normal d-vector normalised
    by sqrt(p . p); then p_k is scaled by noise_scale / (1 + |p_k . q_k|).

    Block j of ``PAIR_BLOCK`` pairs is drawn in order from its own stream,
    ``node`` for j = 0 and ``node.child(j)`` after. min(usable CPUs,
    blocks, ``PAIR_WORKERS``) workers, the calling thread first, each take
    blocks w, w + workers, ... into one buffer and normalise them into
    their own rows (``_store_pairs``); a store of one block is drawn
    inline. An exception on any worker (a ``KeyboardInterrupt`` in the
    caller too) stops the others after their current block; all are
    joined, and the first exception leaves this call.

    The output is byte-equal to doing this one pair at a time with
    ``np.linalg.norm``: ``np.vecdot`` reduces each row with the same dot.
    A row-batched ``einsum`` does not, so keep ``vecdot`` here.
    """
    if not (noise_scale >= 0.0 and math.isfinite(noise_scale)):
        raise ParameterError(
            f"noise_scale must be finite and >= 0, got {noise_scale}")
    if n < 1:
        raise ParameterError(f"n must be >= 1, got {n}")
    rows = (n + 1) // 2
    try:
        p = np.zeros((rows, d))
        q = np.zeros((rows, d))
    except (MemoryError, ValueError) as exc:  # ValueError: past the int64 size
        raise ParameterError(
            f"n = {n} needs a pair store of {2 * rows * d * 8} bytes, which "
            f"cannot be allocated") from exc
    k = n // 2
    if noise_scale == 0.0 or k == 0:
        return p, q
    starts = range(0, k, PAIR_BLOCK)
    workers = min(_usable_cpus(), len(starts), PAIR_WORKERS)
    halt = threading.Event()
    failed = []

    def work(first: int) -> None:
        try:
            buf = np.empty((min(PAIR_BLOCK, k), 2, d))
            for j in range(first, len(starts), workers):
                if halt.is_set():
                    return
                block = buf[:min(PAIR_BLOCK, k - starts[j])]
                stream = node.child(j) if j else node
                stream.generator().standard_normal(out=block)
                _store_pairs(block, noise_scale, p, q, starts[j])
        except BaseException as exc:  # the calling thread raises it
            failed.append(exc)
            halt.set()

    helpers = [threading.Thread(target=work, args=(w,), daemon=True)
               for w in range(1, workers)]
    for t in helpers:
        t.start()
    try:
        work(0)
        for t in helpers:
            t.join()
    finally:
        halt.set()  # early only on an interrupt while joining
        for t in helpers:
            t.join()
    if failed:
        raise failed[0]
    return p, q


class _SpectralRayleigh:
    """Sphere Rayleigh with Abar = R diag(spectrum) R^T, where the spectrum
    is nonincreasing with lambda_1 > lambda_2."""

    scale = -1.0

    def _set_spectrum(self, d: int, spectrum, rotation_seed: int | None):
        self.d = int(d)
        self.spectrum = _check_spectrum(d, spectrum)
        self.rotation = _rotation(d, rotation_seed)
        self.Abar = _rotated(self.rotation, self.spectrum, rotation_seed)

    def eigvec(self, j: int) -> ManifoldPoint:
        """j-th eigenvector of Abar (0-based; j = 0 is the minimizer)."""
        return self.manifold.point(self.rotation[:, j])


class _PairedComponentObjective(FiniteSumObjective):
    """Index-sampled finite sum of n components Abar + E_i (paired rank-2).

    The pair store (p, q) from ``_paired_noise`` holds ceil(n/2) rows;
    component i reads row i >> 1 with the sign 1 - 2 (i & 1).
    Subclasses set ``scale``.
    """

    def __init__(self, manifold, Abar: np.ndarray, n: int, p: np.ndarray,
                 q: np.ndarray):
        self.manifold = manifold
        self.Abar = Abar
        self.n = int(n)
        self.p = p
        self.q = q

    def _matvec_mean(self, batch: Batch, Y: np.ndarray):
        AY = _kernels._act(self.Abar, Y)
        if batch.idx is None:
            return AY, AY
        return AY + _kernels.paired_rank2_mean(self.p, self.q, batch.idx,
                                               Y), AY

    # bench/launch.py wraps this name through this class's __dict__
    batch_riem_grad = FiniteSumObjective.batch_riem_grad

    def prefix(self, n: int) -> "_PairedComponentObjective":
        """This instance cut to its first n components, equal field for
        field to a fresh build at n: the pair store is a view of the first
        n // 2 rows for even n, a copy of them plus a zero row for odd n;
        every other field is shared."""
        if not 1 <= n <= self.n:
            raise ParameterError(
                f"prefix size {n} out of range for n = {self.n}")
        if n == self.n:
            return self
        out = copy.copy(self)
        out.n, k = int(n), n // 2
        out.p, out.q = self.p[:k], self.q[:k]
        if n % 2:
            zero = np.zeros((1, self.p.shape[1]))
            out.p, out.q = np.vstack([out.p, zero]), np.vstack([out.q, zero])
        return out

    def sample_minibatch(self, b: int,
                         rng: np.random.Generator | StreamTree) -> Batch:
        if not 1 <= b <= 2**31:
            raise ParameterError(f"bad minibatch size {b}")
        if b == self.n:
            return Batch(size=self.n, idx=None)
        idx = as_generator(rng).integers(0, self.n, size=b, dtype=np.int64)
        return Batch(size=b, idx=idx)

    def sample_epoch(self, b: int, count: int,
                     rng: np.random.Generator) -> Iterator[Batch]:
        """``sample_minibatch`` for ``count`` steps as one (count, b)
        ``integers`` draw, row k the batch of step k + 1 (blocks of at most
        ``EPOCH_BLOCK`` indices when count * b is larger). The bits are the
        per-step draws': indices below 2**32 come from the bit generator's
        32-bit outputs, whose buffer persists across calls. b = n gives the
        exhaustive batch and draws nothing."""
        if not 1 <= b <= 2**31:
            raise ParameterError(f"bad minibatch size {b}")
        if b == self.n:
            batch = Batch(size=self.n, idx=None)
            for _ in range(count):
                yield batch
            return
        rows = max(1, EPOCH_BLOCK // b)
        for lo in range(0, count, rows):
            idx = rng.integers(0, self.n, size=(min(rows, count - lo), b),
                               dtype=np.int64)
            for row in idx:
                yield Batch(size=b, idx=row)

    def sample_largebatch(self, B: int,
                          rng: np.random.Generator | StreamTree) -> Batch:
        if not 1 <= B <= self.n:
            raise ParameterError(
                f"large batch size {B} out of range for n = {self.n}")
        if B == self.n:
            return Batch(size=self.n, idx=None)
        idx = as_generator(rng).choice(self.n, size=B,
                                       replace=False).astype(np.int64)
        return Batch(size=B, idx=idx)


class RayleighInstance(_SpectralRayleigh, _PairedComponentObjective):
    """F(x) = -x^T Abar x on the sphere, components -x^T A_i x."""

    def __init__(self, d: int, n: int, spectrum, noise_scale: float,
                 rotation_seed: int | None):
        self._set_spectrum(d, spectrum, rotation_seed)
        p, q = _paired_noise(n, d, noise_scale,
                             master_stream(0).child(TAG_PROBLEM, 1))
        super().__init__(Sphere(d), self.Abar, n, p, q)


class QuadraticSaddleInstance(_PairedComponentObjective):
    """F(u) = 1/2 u^T H u on Euclidean space, lambda_min(H) = -gamma."""

    scale = 0.5

    def __init__(self, d: int, gamma: float, L_top: float, n: int,
                 rotation_seed: int | None, noise_scale: float):
        # gamma > 0 makes a strict saddle at 0; gamma <= 0 a convex instance
        if not (math.isfinite(gamma) and 0 < L_top < math.inf):
            raise ParameterError("need finite gamma and 0 < L_top < inf")
        if d < 2:
            raise ParameterError(
                f"QuadraticSaddleInstance needs d >= 2, got d = {d}")
        self.d = int(d)
        rest = np.linspace(L_top / (d - 1), L_top, d - 1)
        self.spectrum = np.concatenate([[-gamma], rest])
        self.rotation = _rotation(d, rotation_seed)
        p, q = _paired_noise(n, d, noise_scale,
                             master_stream(0).child(TAG_PROBLEM, 2))
        super().__init__(Euclidean(d),
                         _rotated(self.rotation, self.spectrum, rotation_seed),
                         n, p, q)


class StreamingRayleighInstance(_SpectralRayleigh, FiniteSumObjective):
    """Online Rayleigh: components a a^T with a ~ N(0, Abar).

    The population objective matches the finite-sum target. A batch enters
    the objective only through its second moment S = (1/B) sum_k a_k a_k^T,
    so a batch larger than d is drawn as S itself (Bartlett's Wishart
    factor, see ``_draw``), in O(d^2) time and memory whatever B is.
    Gaussian draws have no uniform deviation bound, so ``sigma_hint`` is a
    Monte-Carlo estimate (1.5x the largest deviation over a seeded probe
    set).
    """

    n = None

    def __init__(self, d: int, spectrum, rotation_seed: int | None):
        self._set_spectrum(d, spectrum, rotation_seed)
        if np.any(self.spectrum < 0):
            raise ParameterError("streaming spectrum must be a covariance (>= 0)")
        # the symmetric square root R diag(sqrt s) R^T, not a Cholesky
        # factor; the Bartlett draw needs only L L^T = Abar
        self._sqrt_cov = _rotated(self.rotation, np.sqrt(self.spectrum),
                                  rotation_seed)
        self._diag = np.diag_indices(self.d)
        self._below = np.tril_indices(self.d, -1)
        self._df_offset = np.arange(self.d)
        self.manifold = Sphere(d)
        # a spectrum of scale near 1e153 overflows the hint to inf without a
        # warning; derive_params rejects it with one error
        with np.errstate(over="ignore", invalid="ignore"):
            self.sigma_hint = self._estimate_sigma()

    def _estimate_sigma(self) -> float:
        rng = master_stream(0).child(TAG_PROBLEM, 3).generator()
        worst = 0.0
        for _ in range(5):
            x = self.manifold.rand_point(rng)
            g_pop = self.full_riem_grad(x).coords
            a = rng.standard_normal((400, self.d)) @ self._sqrt_cov
            raw = a * (a @ x.coords)[:, None]
            # one gemv; the row-wise _project_coords gives other low bits,
            # which would move sigma_hint and with it the online m, b and B
            proj = raw - np.outer(raw @ x.coords, x.coords)
            gaps = np.linalg.norm(-2.0 * proj - g_pop, axis=1)
            worst = max(worst, float(gaps.max()))
        return 1.5 * worst

    def _matvec_mean(self, batch: Batch, Y: np.ndarray):
        return _kernels.rows_rank1_mean(batch.data, Y), None

    # bench/launch.py wraps this name through this class's __dict__
    batch_riem_grad = FiniteSumObjective.batch_riem_grad

    def _draw(self, size: int,
              rng: np.random.Generator | StreamTree) -> Batch:
        """A batch of ``size`` samples a ~ N(0, Abar), as rows whose mean
        outer product is the batch's second moment S.

        ``size <= d``: the samples themselves, ``standard_normal((size,
        d)) @ sqrt_cov`` (the Wishart law of size * S is singular there).
        ``size > d``: d pseudo-rows sqrt(d / size) T^T sqrt_cov, where T is
        Bartlett's lower-triangular factor of a Wishart_d(size, I) matrix
        T T^T: T_ii = sqrt(chi^2(size - i)) for i = 0..d-1 and T_ij ~ N(0, 1)
        for i > j. The generator gives the d chi-squares first, then the
        below-diagonal normals in row-major order. Then size * S =
        sqrt_cov T T^T sqrt_cov ~ Wishart_d(size, Abar), exactly the law of
        the direct draw's sample second moment.
        """
        if (isinstance(size, bool) or not isinstance(size, (int, np.integer))
                or size < 1):
            raise ParameterError(
                f"batch size must be an integer >= 1, got {size!r}")
        size = int(size)
        rng = as_generator(rng)
        if size <= self.d:
            data = rng.standard_normal((size, self.d)) @ self._sqrt_cov
        else:
            T = np.zeros((self.d, self.d))
            T[self._diag] = np.sqrt(rng.chisquare(size - self._df_offset))
            T[self._below] = rng.standard_normal(self._below[0].size)
            data = math.sqrt(self.d / size) * (T.T @ self._sqrt_cov)
        return Batch(size=size, data=data)

    def sample_minibatch(self, b: int,
                         rng: np.random.Generator | StreamTree) -> Batch:
        return self._draw(b, rng)

    def sample_largebatch(self, B: int,
                          rng: np.random.Generator | StreamTree) -> Batch:
        return self._draw(B, rng)
