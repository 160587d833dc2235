"""Calibration metrics over grouped forecast data.

The headline quantity is the interval-supremum calibration error: the
largest absolute average residual over any contiguous range of forecast
values. On tie-pooled groups the supremum over all intervals of [0, 1]
collapses to contiguous group ranges, so a two-sided maximum-subarray scan
over prefix sums computes it exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from .core import GroupedDataset, SeededRng, ValidationError

__all__ = [
    "CutoffEstimate",
    "LipschitzWeights",
    "cutoff_error",
    "binned_ece",
    "oracle_ece",
    "lipschitz_wce",
    "bv_wce_lower_bound",
    "effective_support_size",
    "concentration_radius",
]


def concentration_radius(n: float, delta: float) -> float:
    """High-probability deviation radius of the plug-in interval estimator."""
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta must be in (0, 1], got {delta!r}")
    return (20.0 + math.sqrt(2.0 * math.log(1.0 / delta))) / math.sqrt(n)


@dataclass(frozen=True)
class CutoffEstimate:
    """Interval-supremum calibration error with its argmax interval.

    argmax_interval is an inclusive (lo, hi) pair of group indices, or None
    when the empty interval attains the supremum (all range sums zero).
    """

    value: float
    argmax_interval: Optional[Tuple[int, int]]
    n: float

    def concentration_radius(self, delta: float) -> float:
        return concentration_radius(self.n, delta)


def _prefix_sums(residual_sums: np.ndarray) -> np.ndarray:
    """Extended-precision prefix sums; prefix[k] = sum of first k groups.

    Accumulating in longdouble keeps absolute error well under 1e-12 for
    scans over 1e5 groups of bounded residuals.
    """
    out = np.zeros(len(residual_sums) + 1, dtype=np.longdouble)
    np.cumsum(residual_sums.astype(np.longdouble), out=out[1:])
    return out


def cutoff_error(data: GroupedDataset) -> CutoffEstimate:
    """Max over contiguous group ranges (and the empty range) of |sum|/n.

    The range sum over groups [i, j] is prefix[j+1] - prefix[i], so the
    two-sided maximum is (max prefix - min prefix) and the scan is O(m).
    """
    prefix = _prefix_sums(data.residual_sums)
    i_max = int(np.argmax(prefix))
    i_min = int(np.argmin(prefix))
    spread = float(prefix[i_max] - prefix[i_min])
    if spread <= 0.0:
        return CutoffEstimate(0.0, None, data.n)
    lo, hi = (i_min, i_max) if i_min < i_max else (i_max, i_min)
    return CutoffEstimate(spread / data.n, (lo, hi - 1), data.n)


def binned_ece(data: GroupedDataset, num_bins: int) -> float:
    """ECE of the equal-width binned approximation to the forecasts.

    Bins are [0, 1/N], (1/N, 2/N], ..., ((N-1)/N, 1]. Returned is
    sum_b (n_b/n) |ybar_b - tbar_b| with within-bin weighted means.

    Caveat: this measures the calibration of the *binned* forecast; it can
    be near zero while the unbinned forecast has a large interval-supremum
    error (see the staircase construction in the experiments module).
    """
    if num_bins < 1:
        raise ValidationError("num_bins must be >= 1")
    idx = np.ceil(data.forecasts * num_bins).astype(int)
    idx = np.clip(idx, 1, num_bins) - 1
    w = np.bincount(idx, weights=data.counts, minlength=num_bins)
    ysum = np.bincount(idx, weights=data.outcome_sums, minlength=num_bins)
    tsum = np.bincount(idx, weights=data.forecasts * data.counts,
                       minlength=num_bins)
    mask = w > 0
    return float(np.sum(np.abs(ysum[mask] - tsum[mask])) / data.n)


def oracle_ece(data: GroupedDataset) -> float:
    """Mean absolute residual; requires oracle (conditional-mean) residuals.

    With one group per distinct forecast and residual sums built from
    E[Y|X], this is (1/n) sum_i |mu_i - t_i|.
    """
    if data.residual_mode != "oracle":
        raise ValueError("oracle_ece requires oracle-mode data")
    return float(np.sum(np.abs(data.residual_sums)) / data.n)


@dataclass(frozen=True)
class LipschitzWeights:
    """Optimal 1-Lipschitz weighting and the attained weighted error."""

    weights: np.ndarray
    objective: float
    kkt_residual: float


def lipschitz_wce(data: GroupedDataset) -> LipschitzWeights:
    """Exact supremum of sum_j w_j r_j / n over 1-Lipschitz w in [-1, 1].

    Adjacent-difference constraints suffice on the sorted support (pairwise
    Lipschitz constraints follow by the triangle inequality). The feasible
    set is symmetric (w feasible implies -w feasible), so the one-sided LP
    maximum already equals the two-sided supremum of |sum w_j r_j|/n and is
    always >= 0. Solutions are certified by primal feasibility and duality
    gap below 1e-9 (interior-point with crossover yields an optimal basic
    solution; the dense simplex is the fallback).
    """
    m = len(data)
    r = data.residual_sums / data.n
    if m == 1:
        w = np.array([1.0 if r[0] >= 0 else -1.0])
        return LipschitzWeights(w, abs(float(r[0])), 0.0)

    dt = np.diff(data.forecasts)
    D = sparse.diags([np.ones(m - 1), -np.ones(m - 1)], [0, 1],
                     shape=(m - 1, m))
    A = sparse.vstack([D, -D]).tocsc()
    b = np.concatenate([dt, dt])

    res = linprog(-r, A_ub=A, b_ub=b, bounds=(-1.0, 1.0), method="highs-ipm")
    if res.status != 0:
        res = linprog(-r, A_ub=A, b_ub=b, bounds=(-1.0, 1.0), method="highs")
    if res.status != 0:
        raise RuntimeError(f"LP solve failed: {res.message}")
    w = res.x
    obj = float(np.dot(w, r))
    # certificate: primal feasibility and primal/dual objective gap
    primal_viol = max(0.0, float(np.max(A @ w - b)),
                      float(np.max(np.abs(w)) - 1.0))
    # dual of min c.x: b@lam + l@lam_lo + u@lam_up with l=-1, u=+1
    dual_min = (float(b @ res.ineqlin.marginals)
                - float(np.sum(res.lower.marginals))
                + float(np.sum(res.upper.marginals)))
    gap = abs(-dual_min - obj)
    return LipschitzWeights(w, obj, max(primal_viol, gap))


def _random_step_weights(forecasts: np.ndarray, total_variation: float,
                         rng: np.random.Generator) -> np.ndarray:
    """Random step function on the support with TV <= total_variation."""
    m = len(forecasts)
    k = int(rng.integers(1, 6))
    levels = rng.uniform(-1.0, 1.0, size=k + 1)
    tv = float(np.sum(np.abs(np.diff(levels))))
    if tv > total_variation:
        levels = levels * (total_variation / tv)
    cuts = np.sort(rng.uniform(0.0, 1.0, size=k))
    idx = np.searchsorted(cuts, forecasts, side="right")
    return levels[idx]


def bv_wce_lower_bound(data: GroupedDataset, total_variation: float,
                       rng: SeededRng, num_samples: int = 200) -> float:
    """Certified lower bound on the bounded-variation weighted error.

    Evaluates the objective on sampled step weight functions with total
    variation <= M and range [-1, 1], plus the signed indicator of the
    argmax interval of the scan (TV <= 2, so always admissible for M >= 2).
    """
    if total_variation < 2.0:
        raise ValueError("total_variation must be >= 2")
    r = data.residual_sums / data.n
    est = cutoff_error(data)
    best = 0.0
    if est.argmax_interval is not None:
        lo, hi = est.argmax_interval
        ind = np.zeros(len(data))
        ind[lo:hi + 1] = 1.0
        best = max(float(np.dot(ind, r)), float(-np.dot(ind, r)))
    gen = rng.generator()
    for _ in range(num_samples):
        w = _random_step_weights(data.forecasts, total_variation, gen)
        best = max(best, float(np.dot(w, r)))
    return best


def effective_support_size(data: GroupedDataset, gamma: float) -> int:
    """Smallest k with the k heaviest forecast atoms covering mass 1-gamma."""
    masses = np.sort(data.counts)[::-1]
    target = (1.0 - gamma) * data.n - 1e-12
    cum = np.cumsum(masses)
    return int(np.searchsorted(cum, target) + 1)
