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
from heapq import heappop, heappush
from typing import Optional, Tuple

import numpy as np

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

    prefix[k] is within (k-1) u sum|r| of exact, u the unit roundoff of
    longdouble, so the scan value is within (2 m u + eps) sum|r_j| / n of
    exact (eps = 2^-52). Where longdouble is x87 80-bit (u = 2^-64), that
    is under 1e-12 for 1e5 groups of rows with residuals in [-1, 1]; where
    it is double (MSVC, Apple silicon), it is (m + 1) eps sum|r_j| / n.
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
    """Optimal 1-Lipschitz weighting and the attained weighted error.

    kkt_residual is the worst of the weights' constraint violation and the
    gap between the objective r.w and the DP's optimal value.
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

    The constraints form a chain, so the maximum is a forward dynamic
    program over the concave value function of the last weight (see
    _chain_argmaxes) followed by a backward pass that clips each stored
    argmax into the window the next weight allows. The cost is
    O(m log m) for m groups on every input.

    Both passes run on forecasts rounded to multiples of 2^-51. For
    forecasts in [0, 1] every length and weight is then a multiple of
    2^-51 of at most 4, exact in double, so no rounding accumulates over
    long chains. The rounding moves each constraint by at most 2^-51 and
    the optimum by at most 2^-51 sum|r|.
    """
    m = len(data)
    r = data.residual_sums / data.n
    if m == 1:
        w = np.array([1.0 if r[0] >= 0 else -1.0])
        return LipschitzWeights(w, abs(float(r[0])), 0.0)

    dt = np.diff(np.rint(data.forecasts * 2.0 ** 51)) / 2.0 ** 51
    argmaxes, best = _chain_argmaxes(r, dt)
    w = [argmaxes[-1]]
    for u, d in zip(argmaxes[-2::-1], dt[::-1].tolist()):
        x = w[-1]
        w.append(x - d if u < x - d else x + d if u > x + d else u)
    w = np.array(w[::-1])
    obj = float(np.dot(w, r))
    exact_dt = np.diff(data.forecasts)
    primal_viol = max(0.0, float(np.max(np.abs(np.diff(w)) - exact_dt)),
                      float(np.max(np.abs(w)) - 1.0))
    return LipschitzWeights(w, obj, max(primal_viol, abs(obj - best)))


def _chain_argmaxes(r: np.ndarray, dt: np.ndarray):
    """Forward pass of the chain DP: argmax_u V_j(u) for every j, and max V.

    V_0(u) = r_0 u and V_j(u) = r_j u + max_{|v-u| <= dt_{j-1}} V_{j-1}(v)
    on [-1, 1]. V_j is concave and piecewise linear, kept as segments of
    length l. A segment has a base P: 0 for the initial segment of length
    2, and S_j (S = cumsum(r)) for the flat segment of length 2 dt_j that
    the window step inserts at the argmax after step j. At step j its
    slope is S_j - P, so segments sit in the order of P, every P is known
    up front, and the argmax is -1 plus the live length of the segments
    with P < S_j. Live lengths sit in a Fenwick tree over the ranks of P.
    The window step also trims dt_j from each end of [-1, 1]; segments are
    deleted from the lowest and highest live ranks (two heaps), so each is
    inserted and deleted once and the whole pass is O(m log m).

    The optimum is tracked through V_j(-1) = -S_j plus the value of the
    pieces trimmed so far from the low end. A trim that leaves a
    segment partly alive reaches the tree only when that segment stops
    being the end the trims work on (the `pending` ranks), so a long
    segment worn down over many steps costs one tree update, not many.
    """
    m = len(r)
    S = _prefix_sums(r)[1:].astype(float)
    P = np.concatenate([[0.0], S[:-1]])     # bases: initial, then S_0..
    order = np.argsort(P, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(1, m + 1)       # 1-based; rank 0 is a dummy
    P = P[order]
    below = np.searchsorted(P, S, "left").tolist()  # P < S_j: rank <= below[j]
    base = [0.0] + P.tolist()
    S_l, dt_l, rank = S.tolist(), dt.tolist(), rank.tolist()
    tree = [0.0] * (m + 1)      # Fenwick tree over tree_len
    tree_len = [0.0] * (m + 1)  # length the tree holds for each rank
    seg = [0.0] * (m + 1)       # live length of each rank
    lows, highs = [], []        # heaps of ranks; dead ranks popped lazily
    pending = [0, 0]            # rank last trimmed at the low and high end

    def sync(k):
        d = seg[k] - tree_len[k]
        if d:
            tree_len[k] = seg[k]
            while k <= m:
                tree[k] += d
                k += k & -k

    def argmax(j):
        i = q = below[j]
        s = -1.0
        while q:
            s += tree[q]
            q &= q - 1
        lo, hi = pending
        if lo <= i:
            s += seg[lo] - tree_len[lo]
        if hi != lo and hi <= i:
            s += seg[hi] - tree_len[hi]
        return s

    def trim(heap, sign, side, need, s):
        gain = 0.0
        while need > 0.0 and heap:
            k = sign * heap[0]
            ln = seg[k]
            if ln <= need:
                heappop(heap)
                seg[k] = 0.0
                sync(k)
            else:
                ln = need
                seg[k] -= need
                if pending[side] != k:
                    sync(pending[side])
                    pending[side] = k
            if s is not None and s > base[k]:
                gain += ln * (s - base[k])
            need -= ln
        return gain

    seg[rank[0]] = 2.0
    sync(rank[0])
    heappush(lows, rank[0])
    heappush(highs, -rank[0])
    argmaxes = [0.0] * m
    trimmed = [0.0] * m     # V_j(-1) = sum(trimmed[:j]) - S_j
    for j in range(m - 1):
        argmaxes[j] = argmax(j)
        k, d = rank[j + 1], dt_l[j]
        seg[k] = 2.0 * d
        sync(k)
        heappush(lows, k)
        heappush(highs, -k)
        trimmed[j] = trim(lows, 1, 0, d, S_l[j])
        trim(highs, -1, 1, d, None)
    argmaxes[m - 1] = argmax(m - 1)
    gain = S_l[-1] - P
    up = gain > 0.0
    trimmed[-1] = float(np.dot(np.array(seg[1:])[up], gain[up]))
    return np.clip(argmaxes, -1.0, 1.0).tolist(), math.fsum(trimmed) - S_l[-1]


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
