"""Calibration metrics over grouped forecast data.

The headline quantity is the interval-supremum calibration error: the
largest absolute average residual over any contiguous range of forecast
values. On tie-pooled groups the supremum over all intervals of [0, 1]
collapses to contiguous group ranges, so a two-sided maximum-subarray scan
over prefix sums computes it exactly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .core import GroupedDataset, _check_int, _check_number

__all__ = [
    "CutoffEstimate",
    "LipschitzWeights",
    "cutoff_error",
    "binned_ece",
    "oracle_ece",
    "lipschitz_wce",
    "concentration_radius",
]


def concentration_radius(n: float, delta: float) -> float:
    """High-probability deviation radius of the plug-in interval estimator."""
    _check_number("n", n, "(0, inf)")
    _check_number("delta", delta, "(0, 1]")
    # -log(delta), not log(1/delta): 1/delta overflows below about 5.6e-309
    return (20.0 + math.sqrt(2.0 * -math.log(delta))) / math.sqrt(n)


@dataclass(frozen=True)
class CutoffEstimate:
    """Interval-supremum calibration error with its argmax interval.

    argmax_interval is an inclusive (lo, hi) pair of group indices, or None
    when the empty interval attains the supremum (all range sums zero).
    """

    value: float
    argmax_interval: Optional[Tuple[int, int]]


def _prefix_sums(residual_sums: np.ndarray) -> np.ndarray:
    """Compensated prefix sums; prefix[k] = sum of the first k groups.

    A double cumsum, corrected by a second cumsum of the exact rounding
    error of each of its additions (TwoSum). prefix[k] is within
    ulp(S_k) + k^2 eps^2 sum|r| of the exact sum S_k (eps = 2^-52) on any
    IEEE double platform, so the scan value is within
    (3 + 2 m^2 eps) eps sum|r_j| / n of exact.
    """
    r = np.asarray(residual_sums, dtype=float)
    s = np.cumsum(r)
    prev = np.concatenate(([0.0], s[:-1]))
    b = s - prev
    out = np.zeros(len(r) + 1)
    out[1:] = s + np.cumsum((prev - (s - b)) + (r - b))
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
        return CutoffEstimate(0.0, None)
    lo, hi = (i_min, i_max) if i_min < i_max else (i_max, i_min)
    return CutoffEstimate(spread / data.n, (lo, hi - 1))


def binned_ece(data: GroupedDataset, num_bins: int) -> float:
    """ECE of the equal-width binned approximation to the forecasts.

    Bins are [0, 1/N], (1/N, 2/N], ..., ((N-1)/N, 1]. Returned is
    sum_b (n_b/n) |ybar_b - tbar_b| with within-bin weighted means, that
    is (1/n) sum_b |residual sum of bin b|. Only the occupied bins are
    formed, so memory is O(m) for any N.

    Caveat: this measures the calibration of the *binned* forecast; it can
    be zero while the unbinned forecast has a positive interval-supremum
    error, as on a staircase whose steps align with the bins.
    """
    _check_int("num_bins", num_bins, 1, sys.float_info.max)
    # sorted groups fall into nondecreasing bins: sum each bin's run
    b = np.clip(np.ceil(data.forecasts * num_bins), 1, num_bins)
    start = np.flatnonzero(np.r_[True, b[1:] != b[:-1]])
    gaps = np.add.reduceat(data.residual_sums, start)
    return float(np.sum(np.abs(gaps)) / data.n)


def oracle_ece(data: GroupedDataset) -> float:
    """Mean absolute residual (1/n) sum_i |mu_i - t_i|.

    This is the oracle ECE when the targets are the conditional means
    E[Y|X]; on outcomes it is the ECE with one bin per distinct forecast.
    """
    return float(np.sum(np.abs(data.residual_sums)) / data.n)


@dataclass(frozen=True)
class LipschitzWeights:
    """Optimal 1-Lipschitz weighting and the attained weighted error.

    kkt_residual is the worst of the weights' constraint violation and the
    duality gap between r.w and the dual value of the isotonic fit.
    """

    weights: np.ndarray
    objective: float
    kkt_residual: float


def lipschitz_wce(data: GroupedDataset) -> LipschitzWeights:
    """Exact supremum of sum_j w_j r_j / n over 1-Lipschitz w in [-1, 1].

    Adjacent-difference constraints suffice on the sorted support (pairwise
    Lipschitz constraints follow by the triangle inequality). The feasible
    set is symmetric (w feasible implies -w feasible), so the one-sided
    maximum already equals the two-sided supremum of |sum w_j r_j|/n and is
    always >= 0.

    The value comes from the LP's dual. Let d_j = t_{j+1} - t_j and
    S_j = r_0 + ... + r_j, flip r so that S_e = S_{m-1} >= 0, and let
    c_j = clip(S_j, 0, S_e) for j < m - 1. The maximum is
    S_e + sum_j d_j |S_j - y_j|, where y is the nondecreasing fit that
    minimises sum_j d_j |c_j - y_j| (_isotonic_l1): a dual path that leaves
    the band [0, S_e] or turns back pays 2 and saves at most sum d_j <= 1.
    The weights follow from complementary slackness (_kkt_weights). The
    cost is O(m log m) on every input.

    Everything runs on forecasts rounded to multiples of 2^-51. For
    forecasts in [0, 1] every d_j, every partial sum of +-d_j and every
    weight is then an exact double, so no rounding accumulates over long
    chains. The rounding moves each constraint by at most 2^-51 and the
    optimum by at most 2^-51 sum|r|.
    """
    r = data.residual_sums / data.n
    d = np.diff(np.rint(data.forecasts * 2.0 ** 51)) / 2.0 ** 51
    S = _prefix_sums(r)[1:]
    sign = -1.0 if S[-1] < 0 else 1.0
    S, S_e = sign * S[:-1], sign * S[-1]
    y = _isotonic_l1(np.clip(S, 0.0, S_e), d)
    w = sign * _kkt_weights(S, y, d)
    objective = float(_prefix_sums(w * r)[-1])
    gap = abs(S_e + _prefix_sums(d * np.abs(S - y))[-1] - objective)
    slack = np.abs(np.diff(w)) - np.diff(data.forecasts)
    primal_viol = max(float(np.max(slack, initial=0.0)),
                      float(np.max(np.abs(w)) - 1.0))
    return LipschitzWeights(w, objective, max(primal_viol, gap))


def _isotonic_l1(c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Nondecreasing y minimising sum_j d_j |c_j - y_j|, with values in c.

    Threshold partitioning (Stout, "Isotonic regression via partitioning",
    Algorithmica 2013): each index keeps a range [lo, hi] of ranks into the
    sorted distinct values, and indices sharing a range form a run. Each
    pass solves, on every run, the two-value problem between vals[mid] and
    vals[mid + 1]: putting a prefix at the lower value costs the prefix
    sum of h = +d where c > vals[mid] and -d elsewhere, so the cut is the
    first minimum of that prefix sum (the empty prefix counts as 0). One
    segmented cumsum serves all runs, and ceil(log2 #distinct) passes fix
    every rank. The d_j are multiples of 2^-51 summing to at most 1, so
    every prefix sum is exact.
    """
    vals, rank = np.unique(c, return_inverse=True)
    n = len(c)
    idx = np.arange(n)
    lo = np.zeros(n, dtype=np.int64)
    hi = np.full(n, len(vals) - 1)
    while np.any(lo < hi):
        mid = (lo + hi) // 2
        h = np.where(rank > mid, d, -d)
        start = np.flatnonzero(np.r_[True, lo[1:] != lo[:-1]])  # runs
        size = np.diff(np.r_[start, n])
        cs = np.cumsum(h)
        prefix = cs - np.repeat(cs[start] - h[start], size)
        low = np.minimum.reduceat(prefix, start)
        cut = np.minimum.reduceat(
            np.where(prefix == np.repeat(low, size), idx, n), start)
        cut[low >= 0.0] = -1
        left = (idx <= np.repeat(cut, size)) | (lo == hi)
        hi = np.where(left, mid, hi)
        lo = np.where(left, lo, mid + 1)
    return vals[lo]


def _kkt_weights(S: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Weights g with r.g = S_e + sum_j d_j |S_j - y_j| (for the flipped r).

    Complementary slackness asks for g = 1 wherever y steps up
    (y_{-1} = 0, y_{m-1} = S_e) and g_{j+1} - g_j = e_j = d_j sign(y_j - S_j)
    wherever y_j != S_j; a tie y_j = S_j allows any step in [-d_j, d_j].
    Let U and L be the prefix sums (with a leading 0) of the largest and
    the smallest allowed steps. These are difference constraints on a
    chain, so g_j = 1 + min(U_j - max_{k<=j} U_k, L_j - max_{k>=j} L_k)
    is the largest vector with g <= 1 and those steps. By LP duality some
    optimal f >= -1 meets the same conditions; g >= f, so g is 1 at every
    step of y and in [-1, 1], hence optimal. Entries are exact multiples
    of 2^-51.
    """
    e = d * np.sign(y - S)
    tie = y == S
    U = np.r_[0.0, np.cumsum(np.where(tie, d, e))]
    L = np.r_[0.0, np.cumsum(np.where(tie, -d, e))]
    return 1.0 + np.minimum(U - np.maximum.accumulate(U),
                            L - np.maximum.accumulate(L[::-1])[::-1])

