"""Test helper: replay checks and the coupled stuck-region experiment.

No run path calls these, so they live with the tests, which import them
the way they import ``conftest`` (``from replay import ...``); pytest
collects only ``test_*.py``, so this module is never collected itself.

The ``check_*`` functions replay recorded runs (``tssrg_run`` with
``record=True``, which keeps each row's u and v) against the bounds the
solver's analysis relies on (estimator variance, improve or localize), and
``stuck_region_experiment`` measures coupled-sequence separation and escape
decrease at a saddle; they fit and report constants rather than assert
theoretical values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from prsrg.diagnostics import _hessian_lanczos
from prsrg.errors import ContractViolation, ParameterError, SchemaError
from prsrg.geometry import TangentVector, _norm
from prsrg.pullback import PullbackOracle
from prsrg.rng import TAG_PERTURB, TAG_TRIAL, StreamTree
from prsrg.trace import _STEP_EVENTS, TraceSegment
from prsrg.tssrg import TssrgParams, tssrg_run


class NotASaddle(ContractViolation):
    """The coupled experiment's anchor is not a certified strict saddle."""


def escape_threshold(delta: float, rho_hat: float,
                     c3: float = 10.0) -> float:
    """Required per-episode decrease F_script = delta^3 / (2 c3 rho_hat^2)."""
    if delta <= 0 or rho_hat <= 0 or c3 <= 0:
        raise ParameterError("delta, rho_hat, c3 must all be positive")
    F_script = delta ** 3 / (2.0 * c3 * rho_hat ** 2)
    if not (F_script > 0 and math.isfinite(F_script)):
        raise ParameterError(
            f"escape threshold must be positive, got {F_script}")
    return F_script


@dataclass
class VarianceReport:
    """Measured estimator error against the recursive-variance normalizer.

    ratio[t] = gap_t / ((L_hat/sqrt(b)) * sqrt(sum du_j^2 over the current
    anchor span) + sigma_hat/sqrt(B) when sigma_hat is given), with
    gap_t = ||v_t - grad F_hat(u_t)|| against the exact gradient and
    du_j = ||eta v_{j-1}|| the length of step j.
    """

    sup_ratio: float
    ratios: list[float]
    anchor_gaps: list[float]
    b: int
    B_size: int
    online_term: float


def estimator_gap(oracle: PullbackOracle, u: np.ndarray,
                  v: np.ndarray) -> float:
    """||v - grad F_hat(u)||: a recorded estimator against the exact
    gradient at its recorded iterate."""
    return _norm(v - oracle.exact_grad(TangentVector(oracle.anchor, u)).coords)


def check_variance_bound(segment: TraceSegment, oracle: PullbackOracle,
                         params: TssrgParams, L_hat: float,
                         sigma_hat: float | None = None) -> VarianceReport:
    """Replay a recorded run of ``tssrg_run(oracle, ..., params)``: each
    anchor and step row's gap is taken against ``oracle.exact_grad`` at the
    row's u, and each step's length is ||eta v|| of the row before, the
    step the loop took. Boundary rows carry no fresh estimate."""
    if L_hat <= 0:
        raise ParameterError("L_hat must be positive")
    if segment.v_vecs is None:
        raise SchemaError("segment lacks vector recording; rerun with "
                          "record=True")
    b, B_size = params.b, params.B
    online = (sigma_hat / math.sqrt(B_size)) if sigma_hat else 0.0
    ratios: list[float] = []
    anchor_gaps: list[float] = []
    cum = 0.0
    for i, row in enumerate(segment.rows):
        if row.event == "anchor":
            cum = 0.0
            anchor_gaps.append(estimator_gap(oracle, segment.u_vecs[i],
                                             segment.v_vecs[i]))
            continue
        if row.event not in _STEP_EVENTS:
            continue
        du = _norm(params.eta * segment.v_vecs[i - 1])
        cum += du * du
        bound = (L_hat / math.sqrt(b)) * math.sqrt(cum) + online
        gap = estimator_gap(oracle, segment.u_vecs[i], segment.v_vecs[i])
        if bound > 0.0:
            ratios.append(gap / bound)
        else:
            ratios.append(0.0 if gap <= 1e-14 else math.inf)
    sup = max(ratios) if ratios else 0.0
    return VarianceReport(sup_ratio=sup, ratios=ratios,
                          anchor_gaps=anchor_gaps, b=b, B_size=B_size,
                          online_term=online)


@dataclass
class LocalizeReport:
    """Drift-versus-decrease audit of one tangent-space run.

    For every row t steps past the segment start the bound
    ||u_t - u_0||^2 <= (4 t / (c1 L_hat)) (F(u_0) - F(u_t)) + slack
    is checked; ``c1_fit`` is the largest constant all rows satisfy
    (inf when the run never moved).
    """

    holds: bool
    c1_fit: float
    violations: list[int] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.holds


def check_improve_or_localize(segment: TraceSegment, L_hat: float,
                              c1: float = 1.0) -> LocalizeReport:
    if segment.u_vecs is None:
        raise SchemaError("segment lacks vector recording; rerun with "
                          "record=True")
    if L_hat <= 0 or c1 <= 0:
        raise ParameterError("L_hat and c1 must be positive")
    rows = segment.rows
    u0 = segment.u_vecs[0]
    F0 = rows[0].F_value
    holds = True
    c1_fit = math.inf
    violations: list[int] = []
    steps = 0
    for i in range(1, len(rows)):
        if rows[i].event != "anchor":
            steps += 1
        dist2 = float(np.sum((segment.u_vecs[i] - u0) ** 2))
        if dist2 <= 1e-24:
            continue
        decr = F0 - rows[i].F_value
        slack = 1e-9 * (1.0 + abs(F0))
        if decr <= 0.0:
            # the value went up while the iterate moved: no positive c1 works
            violations.append(i)
            holds = False
            continue
        admissible = 4.0 * steps * decr / (L_hat * dist2)
        c1_fit = min(c1_fit, admissible)
        if dist2 > (4.0 * steps / (c1 * L_hat)) * decr + slack:
            violations.append(i)
            holds = False
    return LocalizeReport(holds=holds, c1_fit=c1_fit, violations=violations)


@dataclass
class EscapeStats:
    """Aggregates of coupled-perturbation trials around one saddle anchor."""

    trials: int
    deviation_freq: float
    decrease_freq: float
    deviation_threshold: float
    decrease_threshold: float
    r0: float
    lambda_min: float
    deviation_times: list[int] = field(default_factory=list)
    deviations: list[np.ndarray] = field(default_factory=list)


def _coupled_deviations(out_a, out_b) -> np.ndarray:
    """Per-inner-index separation of two coupled runs (t=0 anchor included).

    Later anchor rows duplicate the preceding iterate and are skipped, so
    index t of the result is the separation after t inner steps.
    """
    def series(out):
        vecs = [out.segment.u_vecs[0]]
        for row, u in zip(out.segment.rows[1:], out.segment.u_vecs[1:]):
            if row.event != "anchor":
                vecs.append(u)
        return vecs

    sa, sb = series(out_a), series(out_b)
    n = min(len(sa), len(sb))
    return np.array([float(np.linalg.norm(sa[i] - sb[i])) for i in range(n)])


def stuck_region_experiment(oracle: PullbackOracle, params: TssrgParams,
                            nu: float, trials: int, stream: StreamTree, *,
                            rho_hat: float, delta: float, r: float,
                            c2: float = 1.0, c3: float = 10.0) -> EscapeStats:
    """Coupled-perturbation escape statistics at a strict-saddle anchor.

    Each trial draws u0 uniformly from the radius-r ball, offsets a twin
    start by r0 = nu*r/sqrt(dim) along the most negative curvature direction
    e1 (Lanczos vector, sign fixed by its first nonzero coordinate), runs
    both on one randomness tape, and records whether the pair separated past
    delta/(c2*rho_hat) and whether either run decreased F by at least twice
    the escape threshold.
    """
    if not all(0 < v < math.inf for v in (rho_hat, nu, r, c2)):
        raise ParameterError("nu, r, rho_hat, c2 must be positive and finite")
    if trials < 0:
        raise ParameterError("trials must be >= 0")

    man = oracle.manifold
    lan = _hessian_lanczos(oracle)
    if not (lan.value <= -delta):
        raise NotASaddle(
            f"anchor is not a certified saddle: lambda_min estimate "
            f"{lan.value:.6g} > -delta = {-delta:.6g}")
    e1 = lan.vector.copy()
    nz = np.nonzero(np.abs(e1) > 1e-12 * np.linalg.norm(e1))[0]
    if e1[nz[0]] < 0:
        e1 = -e1

    r0 = nu * r / math.sqrt(man.dim)
    dev_threshold = delta / (c2 * rho_hat)
    dec_threshold = 2.0 * escape_threshold(delta, rho_hat, c3)

    dev_hits = 0
    dec_hits = 0
    dev_times: list[int] = []
    devs: list[np.ndarray] = []
    for i in range(trials):
        st = stream.child(TAG_TRIAL, i)
        u0 = man.sample_ball(oracle.anchor, r, st.child(TAG_PERTURB))
        u0p = TangentVector(oracle.anchor, u0.coords - r0 * e1)
        # one stream for both runs: the same minibatches at every shared t
        out_a = tssrg_run(oracle, u0, params, st, record=True)
        out_b = tssrg_run(oracle, u0p, params, st, record=True)
        dev = _coupled_deviations(out_a, out_b)
        devs.append(dev)
        over = np.nonzero(dev >= dev_threshold)[0]
        if over.size:
            dev_hits += 1
            dev_times.append(int(over[0]))
        else:
            dev_times.append(-1)
        dec_a = out_a.segment.rows[0].F_value - out_a.segment.rows[-1].F_value
        dec_b = out_b.segment.rows[0].F_value - out_b.segment.rows[-1].F_value
        if max(dec_a, dec_b) >= dec_threshold:
            dec_hits += 1
    n = max(trials, 1)
    return EscapeStats(trials=trials,
                       deviation_freq=dev_hits / n if trials else 0.0,
                       decrease_freq=dec_hits / n if trials else 0.0,
                       deviation_threshold=dev_threshold,
                       decrease_threshold=dec_threshold, r0=r0,
                       lambda_min=lan.value, deviation_times=dev_times,
                       deviations=devs)
