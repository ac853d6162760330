"""Test objectives with known critical-point structure.

* ``make_rayleigh`` — finite-sum Rayleigh quotient F(x) = -x^T Abar x on the
  sphere. Saddles sit at non-leading eigenvectors; the Riemannian Hessian at
  eigenvector v_j has eigenvalues -2(lambda_i - lambda_j) along v_i.
* ``make_quadratic_saddle`` — Euclidean F(u) = 1/2 u^T H u with
  lambda_min(H) = -gamma < 0: an exact strict saddle at the origin.
* ``make_streaming_rayleigh`` — online analogue: components A = a a^T with
  a ~ N(0, Abar), so the population objective matches the finite-sum target.
* ``make_data_rayleigh`` — the same objective backed by a dense data matrix
  (rows are samples), loadable from CSV or the PRSRGMAT binary format.

The Rayleigh objectives share one value, gradient and Hessian action;
rayleigh and streaming_rayleigh also share the spectrum check, the rotated
mean matrix and ``eigvec``; data_rayleigh reuses the finite-sum index
sampler.

Paired finite-sum components are Abar + E_i where the E_i are symmetric
rank-2 perturbations of two-norm exactly ``noise_scale``, generated in +/-
pairs so the component mean equals Abar to machine precision (a pair's
contributions cancel exactly in IEEE arithmetic). Exhaustive batches
therefore evaluate through Abar directly, which is both exact and
deterministic.
"""

from __future__ import annotations

import math
import struct
from pathlib import Path

import numpy as np

from . import _kernels
from .errors import ParameterError
from .geometry import Euclidean, ManifoldPoint, Sphere, TangentVector
from .pullback import Batch, FiniteSumObjective
from .rng import TAG_PROBLEM, master_stream

MAGIC = b"PRSRGMAT"


def _rotation(d: int, seed: int | None) -> np.ndarray:
    """Deterministic orthogonal matrix; identity when seed is None."""
    if seed is None:
        return np.eye(d)
    rng = master_stream(seed).child(TAG_PROBLEM).generator()
    G = rng.standard_normal((d, d))
    Q, R = np.linalg.qr(G)
    return Q * np.sign(np.diag(R))


def _rotated(rotation: np.ndarray, values: np.ndarray,
             seed: int | None) -> np.ndarray:
    """R diag(values) R^T for R = _rotation(d, seed); exactly diagonal when
    seed is None."""
    if seed is None:
        return np.diag(values)
    return rotation @ np.diag(values) @ rotation.T


def _check_spectrum(d: int, spectrum) -> np.ndarray:
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.shape != (d,):
        raise ParameterError(f"spectrum must have length d = {d}")
    if not np.all(np.diff(spectrum) <= 0):
        raise ParameterError("spectrum must be nonincreasing")
    if not (d > 1 and spectrum[0] > spectrum[1]):
        raise ParameterError("degenerate spectrum: need lambda_1 > lambda_2")
    return spectrum


def _paired_noise(n: int, d: int, noise_scale: float,
                  rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Pair vectors (P, Q) with E_i = P[i] Q[i]^T + Q[i] P[i]^T, ||E_i||_2 =
    noise_scale, and E_{2k+1} = -E_{2k} (odd n: the last E is zero)."""
    if not (noise_scale >= 0.0 and math.isfinite(noise_scale)):
        raise ParameterError(
            f"noise_scale must be finite and >= 0, got {noise_scale}")
    P = np.zeros((n, d))
    Q = np.zeros((n, d))
    if noise_scale == 0.0:
        return P, Q
    for k in range(n // 2):
        p = rng.standard_normal(d)
        q = rng.standard_normal(d)
        p /= np.linalg.norm(p)
        q /= np.linalg.norm(q)
        # eigenvalues of pq^T + qp^T on span{p,q} are <p,q> +/- 1
        scale = noise_scale / (1.0 + abs(float(p @ q)))
        P[2 * k] = scale * p
        Q[2 * k] = q
        P[2 * k + 1] = -scale * p
        Q[2 * k + 1] = q
    return P, Q


class _SphereRayleigh:
    """F(x) = -x^T Abar x on the sphere; a mean component action A y maps
    to the Riemannian gradient -2 (I - y y^T) A y. Subclasses supply the
    batch mean action ``_matvec_mean``."""

    def value(self, x: ManifoldPoint) -> float:
        return -float(x.coords @ (self.Abar @ x.coords))

    def full_riem_grad(self, x: ManifoldPoint) -> TangentVector:
        return self._grad_from_matvec(x, self.Abar @ x.coords)

    def _grad_from_matvec(self, x: ManifoldPoint, Ay: np.ndarray) -> TangentVector:
        y = x.coords
        return TangentVector(x, -2.0 * (Ay - (y @ Ay) * y))

    def batch_riem_hvp(self, batch: Batch, x: ManifoldPoint,
                       v: TangentVector) -> TangentVector:
        # Hess f(y)[v] = P_y(-2 M v) - <y, -2 M y> v for f = -y^T M y
        y = x.coords
        Mv = self._matvec_mean(batch, v.coords)
        My = self._matvec_mean(batch, y)
        return TangentVector(
            x, -2.0 * (Mv - (y @ Mv) * y) + 2.0 * (y @ My) * v.coords)


class _SpectralRayleigh(_SphereRayleigh):
    """Sphere Rayleigh with Abar = R diag(spectrum) R^T, where the spectrum
    is nonincreasing with lambda_1 > lambda_2."""

    def _set_spectrum(self, d: int, spectrum, rotation_seed: int | None):
        self.d = int(d)
        self.spectrum = _check_spectrum(d, spectrum)
        self.rotation = _rotation(d, rotation_seed)
        self.Abar = _rotated(self.rotation, self.spectrum, rotation_seed)

    def eigvec(self, j: int) -> ManifoldPoint:
        """j-th eigenvector of Abar (0-based; j = 0 is the minimizer)."""
        return self.manifold.point(self.rotation[:, j])

    def hess_eigval(self, i: int, j: int) -> float:
        """Riemannian Hessian eigenvalue at eigvec(j) along eigvec(i)."""
        return -2.0 * float(self.spectrum[i] - self.spectrum[j])


class _PairedComponentObjective(FiniteSumObjective):
    """Index-sampled finite sum with components Abar + E_i (paired rank-2).

    Subclasses map the mean action to a gradient (``_grad_from_matvec``);
    other components override ``__init__`` and ``_matvec_mean``.
    """

    def __init__(self, manifold, Abar: np.ndarray, P: np.ndarray, Q: np.ndarray,
                 sigma_hint: float | None):
        self.manifold = manifold
        self.Abar = Abar
        self.P = P
        self.Q = Q
        self.n = P.shape[0]
        self.sigma_hint = sigma_hint

    def _grad_from_matvec(self, x: ManifoldPoint, Ay: np.ndarray) -> TangentVector:
        raise NotImplementedError

    def _matvec_mean(self, batch: Batch, y: np.ndarray) -> np.ndarray:
        if batch.idx is None:
            return self.Abar @ y
        return self.Abar @ y + _kernels.paired_rank2_mean(
            self.P, self.Q, batch.idx, y)

    def batch_riem_grad(self, batch: Batch, x: ManifoldPoint) -> TangentVector:
        return self._grad_from_matvec(x, self._matvec_mean(batch, x.coords))

    def component_riem_grad(self, i: int, x: ManifoldPoint) -> TangentVector:
        idx = np.asarray([i], dtype=np.int64)
        return self.batch_riem_grad(Batch(size=1, idx=idx), x)

    def full_riem_grad(self, x: ManifoldPoint) -> TangentVector:
        return self._grad_from_matvec(x, self.Abar @ x.coords)

    def sample_minibatch(self, b: int, rng: np.random.Generator) -> Batch:
        if not 1 <= b <= 2**31:
            raise ParameterError(f"bad minibatch size {b}")
        if b == self.n:
            return Batch(size=self.n, idx=None)
        return Batch(size=b, idx=rng.integers(0, self.n, size=b, dtype=np.int64))

    def sample_largebatch(self, B: int, rng: np.random.Generator) -> Batch:
        if not 1 <= B <= self.n:
            raise ParameterError(
                f"large batch size {B} out of range for n = {self.n}")
        if B == self.n:
            return Batch(size=self.n, idx=None)
        idx = rng.choice(self.n, size=B, replace=False).astype(np.int64)
        return Batch(size=B, idx=idx)


class RayleighInstance(_SpectralRayleigh, _PairedComponentObjective):
    """F(x) = -x^T Abar x on the sphere, components -x^T A_i x."""

    def __init__(self, d: int, n: int, spectrum, noise_scale: float,
                 rotation_seed: int | None):
        self._set_spectrum(d, spectrum, rotation_seed)
        noise_rng = master_stream(0).child(TAG_PROBLEM, 1).generator()
        P, Q = _paired_noise(n, d, noise_scale, noise_rng)
        # ||grad f_i - grad F|| = 2 ||(I-xx^T) E_i x|| <= 2 ||E_i||_2
        super().__init__(Sphere(d), self.Abar, P, Q,
                         sigma_hint=2.0 * noise_scale)


class QuadraticSaddleInstance(_PairedComponentObjective):
    """F(u) = 1/2 u^T H u on Euclidean space, lambda_min(H) = -gamma."""

    def __init__(self, d: int, gamma: float, L_top: float, n: int,
                 rotation_seed: int | None, noise_scale: float,
                 sigma_radius: float = 2.0):
        # gamma > 0 makes a strict saddle at 0; gamma <= 0 a convex instance
        if not (math.isfinite(gamma) and L_top > 0):
            raise ParameterError("gamma must be finite, L_top positive")
        self.d = int(d)
        rest = np.linspace(L_top / max(d - 1, 1), L_top, max(d - 1, 1))
        self.spectrum = np.concatenate([[-gamma], rest])
        self.rotation = _rotation(d, rotation_seed)
        noise_rng = master_stream(0).child(TAG_PROBLEM, 2).generator()
        P, Q = _paired_noise(n, d, noise_scale, noise_rng)
        # gap ||H_i y - H y|| <= noise_scale * ||y||; bound quoted for the
        # reference ball ||y|| <= sigma_radius
        super().__init__(Euclidean(d),
                         _rotated(self.rotation, self.spectrum, rotation_seed),
                         P, Q, sigma_hint=noise_scale * sigma_radius)

    @property
    def H(self) -> np.ndarray:
        return self.Abar

    def value(self, x: ManifoldPoint) -> float:
        return 0.5 * float(x.coords @ (self.Abar @ x.coords))

    def _grad_from_matvec(self, x, Ay):
        return TangentVector(x, np.array(Ay))

    def batch_riem_hvp(self, batch, x, v):
        return TangentVector(x, self._matvec_mean(batch, v.coords))

    def min_curvature_direction(self) -> np.ndarray:
        """Unit eigenvector of H for eigenvalue -gamma."""
        return np.array(self.rotation[:, 0])


class StreamingRayleighInstance(_SpectralRayleigh, FiniteSumObjective):
    """Online Rayleigh: components a a^T with a ~ N(0, Abar).

    The population objective matches the finite-sum target. Gaussian draws
    have no uniform deviation bound, so ``sigma_hint`` is a Monte-Carlo
    estimate (1.5x the largest deviation over a seeded probe set).
    """

    n = None

    def __init__(self, d: int, spectrum, rotation_seed: int | None):
        self._set_spectrum(d, spectrum, rotation_seed)
        if np.any(self.spectrum < 0):
            raise ParameterError("streaming spectrum must be a covariance (>= 0)")
        self._chol = _rotated(self.rotation, np.sqrt(self.spectrum),
                              rotation_seed)
        self.manifold = Sphere(d)
        self.sigma_hint = self._estimate_sigma()

    def _estimate_sigma(self) -> float:
        rng = master_stream(0).child(TAG_PROBLEM, 3).generator()
        worst = 0.0
        for _ in range(5):
            x = self.manifold.rand_point(rng)
            g_pop = self.full_riem_grad(x).coords
            a = rng.standard_normal((400, self.d)) @ self._chol
            raw = a * (a @ x.coords)[:, None]
            proj = raw - np.outer(raw @ x.coords, x.coords)
            gaps = np.linalg.norm(-2.0 * proj - g_pop, axis=1)
            worst = max(worst, float(gaps.max()))
        return 1.5 * worst

    def _matvec_mean(self, batch: Batch, y: np.ndarray) -> np.ndarray:
        return _kernels.rows_rank1_mean(batch.data, y)

    def batch_riem_grad(self, batch: Batch, x: ManifoldPoint) -> TangentVector:
        return self._grad_from_matvec(x, self._matvec_mean(batch, x.coords))

    def _draw(self, size: int, rng: np.random.Generator) -> Batch:
        data = rng.standard_normal((size, self.d)) @ self._chol
        return Batch(size=size, data=data)

    def sample_minibatch(self, b: int, rng: np.random.Generator) -> Batch:
        if b < 1:
            raise ParameterError("minibatch size must be >= 1")
        return self._draw(b, rng)

    def sample_largebatch(self, B: int, rng: np.random.Generator) -> Batch:
        if B < 1:
            raise ParameterError("large batch size must be >= 1")
        return self._draw(B, rng)


class DataRayleighInstance(_SphereRayleigh, _PairedComponentObjective):
    """Finite-sum Rayleigh backed by a data matrix: f_i(x) = -(a_i . x)^2."""

    def __init__(self, data: np.ndarray):
        data = np.asarray(data, dtype=np.float64)
        if data.ndim != 2 or data.shape[0] < 1:
            raise ParameterError("data must be a nonempty 2-D matrix")
        if not np.all(np.isfinite(data)):
            raise ParameterError("data has non-finite entries (nan or inf)")
        self.data = data
        self.n, self.d = data.shape
        self.Abar = data.T @ data / self.n
        self.manifold = Sphere(self.d)
        self.sigma_hint = None

    def _matvec_mean(self, batch: Batch, y: np.ndarray) -> np.ndarray:
        if batch.idx is None:
            return self.Abar @ y
        return _kernels.rows_rank1_mean(self.data[batch.idx], y)


def make_rayleigh(d: int, n: int, spectrum, noise_scale: float,
                  seed: int | None) -> RayleighInstance:
    """Finite-sum Rayleigh instance; ``seed`` rotates the eigenbasis (None
    keeps it axis-aligned, making eigenvectors exact basis vectors)."""
    return RayleighInstance(d, n, spectrum, noise_scale, seed)


def make_quadratic_saddle(d: int, gamma: float, L_top: float, n: int,
                          seed: int | None, noise_scale: float = 0.1,
                          sigma_radius: float = 2.0) -> QuadraticSaddleInstance:
    return QuadraticSaddleInstance(d, gamma, L_top, n, seed, noise_scale,
                                   sigma_radius)


def make_streaming_rayleigh(d: int, spectrum,
                            seed: int | None) -> StreamingRayleighInstance:
    return StreamingRayleighInstance(d, spectrum, seed)


def make_data_rayleigh(data: np.ndarray) -> DataRayleighInstance:
    return DataRayleighInstance(data)


def save_matrix(path, arr: np.ndarray) -> None:
    """Write a dense matrix in the PRSRGMAT format: 16-byte header (magic
    ``PRSRGMAT``, u32 rows, u32 cols, little-endian) then row-major f64."""
    arr = np.ascontiguousarray(arr, dtype="<f8")
    if arr.ndim != 2:
        raise ParameterError("only 2-D matrices are supported")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", arr.shape[0], arr.shape[1]))
        fh.write(arr.tobytes(order="C"))


def load_matrix(path) -> np.ndarray:
    """Load a dense matrix from a PRSRGMAT binary or a CSV file."""
    path = Path(path)
    if path.suffix.lower() == ".csv":
        try:
            return np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
        except ValueError as exc:
            raise ParameterError(f"{path}: not a numeric CSV: {exc}") from exc
    with open(path, "rb") as fh:
        head = fh.read(16)
        if len(head) != 16 or head[:8] != MAGIC:
            raise ParameterError(f"{path} is not a PRSRGMAT file")
        rows, cols = struct.unpack("<II", head[8:])
        body = fh.read()
    expected = rows * cols * 8
    if len(body) != expected:
        raise ParameterError(
            f"{path}: expected {expected} payload bytes, found {len(body)}")
    return np.frombuffer(body, dtype="<f8").reshape(rows, cols).astype(np.float64)
