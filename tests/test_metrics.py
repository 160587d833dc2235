import itertools
import math
import time
from fractions import Fraction
from heapq import heappop, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.optimize import linprog

from cutoffcal import (GroupedDataset, ValidationError, binned_ece,
                       cutoff_error, grouped_from_arrays, lipschitz_wce,
                       oracle_ece)
from cutoffcal.metrics import _prefix_sums, concentration_radius
from oracles import brute_force_cutoff, grid_search_wce
from paper import (bv_wce, effective_support_size, make_perturbed_constant,
                   make_staircase)


def random_grouped(rng, max_groups=200, ties=True):
    m = int(rng.integers(1, max_groups + 1))
    vals = np.round(rng.random(m), 2) if ties else rng.random(m)
    t = np.unique(vals)
    y = rng.random(len(t))
    return grouped_from_arrays(t, y)


def test_cutoff_zero_on_calibrated():
    data = grouped_from_arrays([0.2, 0.5, 0.9], [0.2, 0.5, 0.9])
    est = cutoff_error(data)
    assert est.value == 0.0
    assert est.argmax_interval is None


def test_cutoff_degenerate_one():
    est = cutoff_error(grouped_from_arrays([1.0] * 10, [0.0] * 10))
    assert est.value == 1.0
    assert est.argmax_interval == (0, 0)


def test_cutoff_matches_brute_force_small():
    data = GroupedDataset([0.1, 0.2, 0.3], [0.3, -0.5, 0.4], [1, 1, 1],
                          [0, 0, 0], n=3)
    est = cutoff_error(data)
    assert est.value == brute_force_cutoff(data)


def test_cutoff_interval_sum_matches_value():
    rng = np.random.default_rng(3)
    for _ in range(50):
        data = random_grouped(rng, max_groups=40)
        est = cutoff_error(data)
        if est.argmax_interval is None:
            assert est.value == 0.0
            continue
        lo, hi = est.argmax_interval
        seg = float(np.sum(data.residual_sums[lo:hi + 1]))
        assert abs(seg) / data.n == pytest.approx(est.value, abs=1e-12)


def test_cutoff_scan_equals_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(200):
        data = random_grouped(rng)
        assert cutoff_error(data).value == brute_force_cutoff(data)


def exact_cutoff(data):
    """Fraction brute force: the exact max over all contiguous group ranges
    of |range sum| / n, and the exact |sum| / n of every range (lo, hi)."""
    prefix = [Fraction(0)]
    for r in data.residual_sums.tolist():
        prefix.append(prefix[-1] + Fraction(r))
    n = Fraction(data.n)
    ranges = {(i, j - 1): abs(prefix[j] - prefix[i]) / n
              for i in range(len(prefix)) for j in range(i + 1, len(prefix))}
    return max(ranges.values()), ranges


@st.composite
def scan_inputs(draw):
    r = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0, 1e-300, 0.1])
                      | st.floats(-1e6, 1e6), min_size=1, max_size=40))
    n = draw(st.sampled_from([1.0, 3.0]) | st.floats(1e-3, 1e6))
    m = len(r)
    return GroupedDataset(np.arange(1, m + 1) / (m + 1), r, np.ones(m),
                          np.zeros(m), n=n)


def check_scan_against_fractions(data):
    est = cutoff_error(data)
    best, ranges = exact_cutoff(data)
    r = data.residual_sums
    # a bound above the scan's (3 + 2 m^2 eps) eps sum|r| / n, plus the
    # absolute rounding of a subnormal result
    tol = (Fraction((len(r) + 1) * np.finfo(float).eps)
           * sum(map(Fraction, np.abs(r).tolist())) / Fraction(data.n)
           + Fraction(math.ulp(0.0)))
    assert abs(Fraction(est.value) - best) <= tol
    if est.argmax_interval is None:
        assert best <= tol
    else:
        assert est.argmax_interval in ranges
        assert ranges[est.argmax_interval] >= best - tol


@given(scan_inputs())
@settings(max_examples=300, deadline=None)
def test_cutoff_matches_exact_fractions(data):
    check_scan_against_fractions(data)


def check_prefix_sums_against_fractions(r):
    """Every compensated prefix sum is within ulp(S_k) + k^2 eps^2 sum|r|
    of the exact prefix sum S_k."""
    got = _prefix_sums(r).tolist()
    assert got[0] == 0.0
    slack = Fraction(np.finfo(float).eps) ** 2 * sum(
        map(Fraction, np.abs(r).tolist()))
    exact = Fraction(0)
    for k, x in enumerate(r.tolist(), start=1):
        exact += Fraction(x)
        tol = Fraction(math.ulp(float(exact))) + k * k * slack
        assert abs(Fraction(got[k]) - exact) <= tol, k


@given(st.lists(st.sampled_from([1e16, -1e16, 1.0, -1.0, 0.1, 1e-300])
                | st.floats(-1e6, 1e6), min_size=1, max_size=60))
@settings(max_examples=500, deadline=None)
def test_prefix_sums_match_exact_fractions(r):
    check_prefix_sums_against_fractions(np.array(r))


@pytest.mark.parametrize("kind", ["constant", "normal"])
def test_prefix_sums_match_exact_fractions_on_long_inputs(kind):
    # 1e5 equal residuals of 1e-5, where 80-bit extended prefix sums are
    # 1.2e-15 off, and 2e4 residuals of both signs
    r = (np.full(100_000, 1e-5) if kind == "constant"
         else np.random.default_rng(17).normal(0.0, 1.0, 20_000))
    check_prefix_sums_against_fractions(r)


def test_cutoff_order_only_invariance():
    # relabeling forecasts monotonically leaves the scan unchanged
    rng = np.random.default_rng(5)
    data = random_grouped(rng, max_groups=30)
    relabeled = GroupedDataset(np.sqrt(data.forecasts), data.residual_sums,
                               data.counts, data.target_sums, data.n)
    assert cutoff_error(relabeled).value == cutoff_error(data).value


def test_concentration_radius_formula():
    data = grouped_from_arrays([0.5], [0.5])
    expected = (20 + math.sqrt(2 * math.log(20))) / math.sqrt(1)
    assert concentration_radius(data.n, 0.05) == pytest.approx(expected)


@pytest.mark.parametrize("delta", [1e-310, 5e-324])
def test_concentration_radius_at_tiny_delta(delta):
    # 1/delta overflows below about 5.6e-309; ln(1/delta) does not
    ln_inverse = 300 * math.log(10) - math.log(delta * 1e300)
    assert concentration_radius(100, delta) == pytest.approx(
        (20 + math.sqrt(2 * ln_inverse)) / 10, rel=1e-12)


@pytest.mark.parametrize("n", [float("nan"), 0, 0.0, -1, float("inf")])
def test_concentration_radius_rejects_bad_n(n):
    with pytest.raises(ValidationError):
        concentration_radius(n, 0.05)


def test_concentration_radius_fractional_n():
    # atom masses sum to a float n
    assert concentration_radius(0.25, 0.05) == pytest.approx(
        2 * concentration_radius(1, 0.05))


def test_binned_ece_single_bin_matched_means():
    data = grouped_from_arrays([0.2, 0.8], [0.8, 0.2])
    assert binned_ece(data, 1) == pytest.approx(0.0)


def test_binned_ece_degenerate():
    data = grouped_from_arrays([1.0] * 5, [0.0] * 5)
    for bins in (1, 3, 10):
        assert binned_ece(data, bins) == pytest.approx(1.0)


def test_binned_ece_staircase_blind_spot():
    # bins aligned to the steps see zero error; the scan does not
    for N in (2, 4):
        data = GroupedDataset.from_atoms(make_staircase(N))
        assert binned_ece(data, N) == pytest.approx(0.0, abs=1e-15)
        assert cutoff_error(data).value == pytest.approx(1 / (8 * N * N))


def test_binned_ece_invalid_bins():
    data = grouped_from_arrays([0.5], [0.5])
    with pytest.raises(ValueError):
        binned_ece(data, 0)
    for bins in (2.5, float("nan"), True, -1, 3.0, np.float64(4.0)):
        with pytest.raises(ValidationError):
            binned_ece(data, bins)
    # a bin count too large for a float
    with pytest.raises(ValidationError, match="^num_bins must be"):
        binned_ece(data, 10 ** 400)


def test_binned_ece_accepts_numpy_integers():
    data = grouped_from_arrays([0.1, 0.6], [1.0, 0.0])
    assert binned_ece(data, np.int64(2)) == binned_ece(data, 2)


def exact_binned_ece(t, y, num_bins):
    """Binned ECE in exact rational arithmetic, bins by exact ceil(t N)."""
    gaps = [Fraction(0)] * (num_bins + 1)
    for a, b in zip(t.tolist(), y.tolist()):
        k = min(max(math.ceil(Fraction(a) * num_bins), 1), num_bins)
        gaps[k] += Fraction(b) - Fraction(a)
    return sum(abs(g) for g in gaps) / len(t)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_binned_ece_matches_exact_fractions(seed):
    # subtracting per-bin forecast sums from per-bin outcome sums loses up
    # to 1.8e-15 to cancellation on these inputs; 1e-16 rules that out
    rng = np.random.default_rng(seed)
    t = rng.random(20_000)
    y = (rng.random(20_000) < t).astype(float)
    data = grouped_from_arrays(t, y)
    for bins in (1, 10, 15):
        error = Fraction(binned_ece(data, bins)) - exact_binned_ece(t, y, bins)
        assert abs(error) <= Fraction(1, 10**16)


def test_binned_ece_many_bins_is_per_group():
    # memory follows the occupied bins, not N
    data = grouped_from_arrays([0.1, 0.2, 0.2, 0.9], [1.0, 0.0, 1.0, 0.0])
    assert binned_ece(data, 10**12) == \
        float(np.sum(np.abs(data.residual_sums)) / data.n)


def test_oracle_ece_perfect_and_degenerate():
    perfect = grouped_from_arrays([0.2, 0.7], [0.2, 0.7])
    assert oracle_ece(perfect) == 0.0
    degenerate = GroupedDataset.from_atoms([(1.0, 0.0, 1.0)])
    assert oracle_ece(degenerate) == 1.0


def test_oracle_ece_perturbed_constant():
    data = GroupedDataset.from_atoms(make_perturbed_constant(0.01))
    assert oracle_ece(data) == pytest.approx(0.385, abs=1e-15)


def test_lipschitz_wce_zero_residuals():
    data = grouped_from_arrays([0.1, 0.9], [0.1, 0.9])
    assert lipschitz_wce(data).objective == pytest.approx(0.0, abs=1e-12)


def test_lipschitz_wce_single_group():
    data = grouped_from_arrays([0.3, 0.3], [1.0, 0.0])
    lw = lipschitz_wce(data)
    assert lw.objective == pytest.approx(abs(float(data.residual_sums[0])) / 2)
    assert lw.weights[0] == pytest.approx(np.sign(data.residual_sums[0]) or 1.0)


def test_lipschitz_wce_matches_grid():
    rng = np.random.default_rng(21)
    for _ in range(5):
        m = int(rng.integers(2, 6))
        t = np.sort(rng.random(m))
        data = grouped_from_arrays(np.unique(t), rng.random(len(np.unique(t))))
        lw = lipschitz_wce(data)
        assert lw.objective >= grid_search_wce(data) - 1e-9
        assert lw.objective <= grid_search_wce(data) + 0.025
        assert lw.kkt_residual < 1e-9


def test_lipschitz_weights_feasible_and_consistent():
    rng = np.random.default_rng(2)
    data = random_grouped(rng, max_groups=60)
    lw = lipschitz_wce(data)
    assert np.all(np.abs(lw.weights) <= 1 + 1e-12)
    assert np.all(np.abs(np.diff(lw.weights)) <= np.diff(data.forecasts) + 1e-9)
    assert lw.objective == pytest.approx(
        float(np.dot(lw.weights, data.residual_sums)) / data.n, abs=1e-12)


def highs_wce(forecasts, r):
    """max r.w over |w| <= 1, |w_{j+1} - w_j| <= dt_j, solved by HiGHS.

    r is scaled to max |r| = 1 and the tolerances are tightened, because
    HiGHS's default tolerances are absolute (1e-7)."""
    m, scale = len(r), float(np.max(np.abs(r)))
    if scale == 0.0:
        return 0.0
    dt = np.diff(forecasts)
    D = sparse.diags([np.ones(m - 1), -np.ones(m - 1)], [0, 1],
                     shape=(m - 1, m))
    res = linprog(-r / scale, A_ub=sparse.vstack([D, -D]).tocsc(),
                  b_ub=np.concatenate([dt, dt]), bounds=(-1.0, 1.0),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun * scale


def chain_dp_wce(data):
    """sum_j w_j r_j / n for the weights of an exact primal chain DP, an
    oracle independent of the dual and fast enough for long chains.

    V_0(u) = r_0 u and V_j(u) = r_j u + max_{|v-u| <= dt_{j-1}} V_{j-1}(v)
    on [-1, 1], on forecasts rounded to multiples of 2^-51 as in
    lipschitz_wce. V_j is concave and piecewise linear, kept as segments of
    length l. A segment has a base P: 0 for the initial segment of length
    2, and S_j (S = cumsum(r)) for the flat segment of length 2 dt_j that
    the window step inserts at the argmax after step j. At step j its
    slope is S_j - P, so segments sit in the order of P, every P is known
    up front, and the argmax is -1 plus the live length of the segments
    with P < S_j. Live lengths sit in a Fenwick tree over the ranks of P.
    The window step also trims dt_j from each end of [-1, 1]; segments are
    deleted from the lowest and highest live ranks (two heaps), so each is
    inserted and deleted once and the pass is O(m log m). A trim that
    leaves a segment partly alive reaches the tree only when that segment
    stops being the end the trims work on (the `pending` ranks). A
    backward pass clips each argmax into the window the next weight allows.
    """
    r = data.residual_sums / data.n
    m = len(r)
    if m == 1:
        return abs(float(r[0]))
    dt = np.diff(np.rint(data.forecasts * 2.0 ** 51)) / 2.0 ** 51
    S = _prefix_sums(r)[1:]
    P = np.concatenate([[0.0], S[:-1]])     # bases: initial, then S_0..
    order = np.argsort(P, kind="stable")
    rank = np.empty(m, dtype=np.int64)
    rank[order] = np.arange(1, m + 1)       # 1-based; rank 0 is a dummy
    below = np.searchsorted(P[order], S, "left").tolist()
    dt_l, rank = dt.tolist(), rank.tolist()
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
        return min(1.0, max(-1.0, s))

    def trim(heap, sign, side, need):
        while need > 0.0 and heap:
            k = sign * heap[0]
            if seg[k] <= need:
                heappop(heap)
                need -= seg[k]
                seg[k] = 0.0
                sync(k)
            else:
                seg[k] -= need
                need = 0.0
                if pending[side] != k:
                    sync(pending[side])
                    pending[side] = k

    seg[rank[0]] = 2.0
    sync(rank[0])
    heappush(lows, rank[0])
    heappush(highs, -rank[0])
    argmaxes = []
    for j in range(m - 1):
        argmaxes.append(argmax(j))
        k, d = rank[j + 1], dt_l[j]
        seg[k] = 2.0 * d
        sync(k)
        heappush(lows, k)
        heappush(highs, -k)
        trim(lows, 1, 0, d)
        trim(highs, -1, 1, d)
    w = [argmax(m - 1)]
    for u, d in zip(argmaxes[::-1], dt_l[::-1]):
        x = w[-1]
        w.append(x - d if u < x - d else x + d if u > x + d else u)
    return float(np.dot(w[::-1], r))


def assert_matches_chain_dp(lw, data):
    r = data.residual_sums / data.n
    tol = 1e-12 * max(1.0, float(np.sum(np.abs(r))))
    assert abs(lw.objective - chain_dp_wce(data)) <= tol


def oracle_case(rng, kind):
    m = int(np.exp(rng.uniform(np.log(2), np.log(2000))))
    t = np.unique(rng.random(m) if kind % 2 else np.round(rng.random(m), 3))
    m = len(t)
    scale = 10.0 ** rng.uniform(-6, 1)
    r = rng.normal(0.0, scale, m)
    if kind == 1:       # integer multiples: many equal partial sums
        r = np.round(rng.normal(0.0, 2.0, m)) * scale
    elif kind == 2:
        r = np.zeros(m)
    elif kind == 3:
        r = np.abs(r)
    elif kind == 4:
        r = -np.abs(r)
    elif kind == 5:     # one dominant group
        r[int(rng.integers(m))] += 1e3 * scale
    elif kind == 6:     # Bernoulli outcomes minus forecasts
        r = ((rng.random(m) < t) - t) * scale
    return GroupedDataset(t, r, np.ones(m), np.zeros(m), n=1.0)


def edge_cases():
    """One group of each sign, zero-sum chains (no step in the dual fit)
    and all-tie integer chains (nonnegative r: the fit equals S)."""
    for r0 in (-0.5, 0.0, 0.5):
        yield GroupedDataset([0.3], [r0], [1.0], [0.0], n=1.0)
    rng = np.random.default_rng(77)
    for m in (2, 3, 5, 40, 300):
        t = np.unique(rng.integers(0, 1025, m) / 1024.0)
        r = rng.integers(-3, 4, len(t)).astype(float)
        r[-1] -= r.sum()
        for chain in (r, np.zeros(len(t)), np.abs(r), -np.abs(r)):
            yield GroupedDataset(t, chain, np.ones(len(t)), np.zeros(len(t)),
                                 n=1.0)


def test_lipschitz_wce_matches_highs():
    rng = np.random.default_rng(4004)
    cases = itertools.chain((oracle_case(rng, k % 7) for k in range(315)),
                            edge_cases())
    for case, data in enumerate(cases):
        r = data.residual_sums
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(r))))
        lw = lipschitz_wce(data)
        if len(data) > 1:
            assert lw.objective == pytest.approx(
                highs_wce(data.forecasts, r), abs=tol), case
        assert lw.kkt_residual <= tol * 1e-3, case
        assert_matches_chain_dp(lw, data)


def test_lipschitz_weights_are_the_largest_optimal_point():
    # on dyadic inputs every prefix sum and tie is exact; the weights (for
    # the flipped r) dominate every optimal point, so they maximise the sum
    # of the flipped weights over the optimal face
    rng = np.random.default_rng(1414)
    for case in range(400):
        t = np.sort(rng.choice(65, 32, replace=False)) / 64.0
        r = rng.integers(-3, 4, 32).astype(float)
        if case % 3 == 0:
            r[-1] -= r.sum()
        data = GroupedDataset(t, r, np.ones(32), np.zeros(32), n=32.0)
        lw = lipschitz_wce(data)
        sign = -1.0 if r.sum() < 0 else 1.0
        D = sparse.diags([np.ones(31), -np.ones(31)], [0, 1], shape=(31, 32))
        res = linprog(-sign * np.ones(32),
                      A_ub=sparse.vstack([D, -D, -r[None, :] / 32.0]).tocsc(),
                      b_ub=np.r_[np.diff(t), np.diff(t),
                                 1e-12 - lw.objective],
                      bounds=(-1.0, 1.0), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10,
                               "dual_feasibility_tolerance": 1e-10})
        assert res.status == 0, res.message
        assert abs(-res.fun - sign * np.sum(lw.weights)) <= 1e-8, case


@st.composite
def chains(draw):
    t = draw(st.lists(st.floats(0, 1), min_size=1, max_size=40,
                      unique=True))
    r = draw(st.lists(st.sampled_from([-1.0, 0.0, 0.5, 1.0])
                      | st.floats(-10, 10), min_size=len(t),
                      max_size=len(t)))
    return GroupedDataset(sorted(t), r, np.ones(len(t)), np.zeros(len(t)),
                          n=float(len(t))), draw(st.integers(0, 2 ** 32 - 1))


@given(chains())
@settings(max_examples=300, deadline=None)
def test_lipschitz_wce_optimal_among_feasible(case):
    data, seed = case
    r = data.residual_sums / data.n
    dt = np.diff(data.forecasts)
    lw = lipschitz_wce(data)
    assert np.all(np.abs(lw.weights) <= 1.0 + 1e-12)
    assert np.all(np.abs(np.diff(lw.weights)) <= dt + 1e-12)
    # the objective is the compensated sum of w * r, within the
    # _prefix_sums bound ulp(S) + m^2 eps^2 sum|w r| of the exact sum
    wr = lw.weights * r
    assert lw.objective == float(_prefix_sums(wr)[-1])
    exact = math.fsum(wr.tolist())
    slack = len(r) ** 2 * 2.0 ** -104 * float(np.sum(np.abs(wr)))
    assert abs(lw.objective - exact) <= math.ulp(exact) + slack
    tol = 1e-12 * max(1.0, float(np.sum(np.abs(r))))
    rng = np.random.default_rng(seed)
    for _ in range(20):
        steps = rng.uniform(-dt, dt)
        w = [rng.uniform(-1.0, 1.0)]
        for step in steps:
            w.append(min(1.0, max(-1.0, w[-1] + step)))
        assert lw.objective >= float(np.dot(w, r)) - tol


def test_lipschitz_wce_adversarial_chain_is_fast():
    # tiny residuals then alternating signs: near-ties among the first
    # half's prefix sums, then a dual fit that must cut the long second
    # half into many short blocks; a primal DP that kept its segments in
    # two deques went quadratic here
    m = 64_000
    rng = np.random.default_rng(64)
    r = np.concatenate([rng.normal(0.0, 1e-6, m // 2),
                        np.where(np.arange(m - m // 2) % 2, 1.0, -1.0)])
    data = GroupedDataset(np.linspace(0.0, 1.0, m), r, np.ones(m),
                          np.zeros(m), n=float(m))
    start = time.perf_counter()
    lw = lipschitz_wce(data)
    assert time.perf_counter() - start < 10.0
    assert lw.kkt_residual < 1e-12
    assert_matches_chain_dp(lw, data)


@pytest.mark.parametrize("m", [50_000, 64_000])
@pytest.mark.parametrize("kind", ["positive", "sin"])
def test_lipschitz_wce_certificate_on_long_smooth_chains(kind, m):
    # tens of thousands of steps of the dual path and of its weights must
    # not carry a rounding per step
    t = np.linspace(0.0, 1.0, m)
    r = (np.full(m, 1.0 / m) if kind == "positive"
         else np.sin(np.linspace(0.0, 20.0, m)) / m)
    data = GroupedDataset(t, r, np.ones(m), np.zeros(m), n=1.0)
    lw = lipschitz_wce(data)
    assert lw.kkt_residual <= 1e-12 * max(1.0, math.fsum(np.abs(r).tolist()))
    if kind == "positive":
        assert abs(lw.objective - math.fsum(r.tolist())) <= 1e-12
    assert_matches_chain_dp(lw, data)


def test_lipschitz_wce_certificate_on_equal_residuals():
    # 1e5 equal residuals: r.w by np.dot is off by 3.1e-14, so the gap
    # is taken against exact sums
    m = 100_000
    data = GroupedDataset(np.linspace(0.0, 1.0, m), np.full(m, 1e-5),
                          np.ones(m), np.zeros(m), n=1.0)
    assert lipschitz_wce(data).kkt_residual <= 2e-15


def test_bv_lower_bound_sandwich():
    rng = np.random.default_rng(9)
    for _ in range(20):
        data = random_grouped(rng, max_groups=50)
        cut = cutoff_error(data).value
        for M in (2.0, 4.0):
            lb = bv_wce(data, M)
            assert lb >= cut - 1e-9
            assert lb <= (M + 2) * cut + 1e-9


def test_bv_lower_bound_zero_residuals():
    data = grouped_from_arrays([0.1, 0.9], [0.1, 0.9])
    assert bv_wce(data, 2.0) == pytest.approx(0.0, abs=1e-12)


def unit_chain(r, n=1.0):
    m = len(r)
    return GroupedDataset(np.arange(m) / m, r, np.ones(m), np.zeros(m), n=n)


def test_bv_wce_matches_brute_force():
    # even budgets: some optimum has every weight in {-1, 0, 1}
    rng = np.random.default_rng(11)
    for case in range(150):
        m = int(rng.integers(1, 9))
        r = (rng.normal(size=m) if case % 2
             else np.round(rng.normal(0.0, 2.0, m)))
        n = float(rng.integers(1, 5))
        ws = np.array(list(itertools.product((-1, 0, 1), repeat=m)))
        tv = np.abs(np.diff(ws, axis=1)).sum(axis=1)
        for M in (2, 4, 6):
            best = max(0.0, float(np.max(ws[tv <= M] @ r))) / n
            tol = 1e-9 * max(1.0, float(np.sum(np.abs(r))) / n)
            assert abs(bv_wce(unit_chain(r, n), M) - best) <= tol, (r, M)


def highs_bv(r, M):
    """max r.w over |w| <= 1 and sum_j u_j <= M with u_j >= |w_{j+1} - w_j|,
    solved by HiGHS with r scaled and tolerances tightened as in
    highs_wce."""
    m, scale = len(r), float(np.max(np.abs(r)))
    if scale == 0.0:
        return 0.0
    D = sparse.diags([np.ones(m - 1), -np.ones(m - 1)], [0, 1],
                     shape=(m - 1, m))
    eye = sparse.identity(m - 1)
    A = sparse.vstack([sparse.hstack([D, -eye]), sparse.hstack([-D, -eye]),
                       sparse.hstack([sparse.csr_matrix((1, m)),
                                      np.ones((1, m - 1))])]).tocsc()
    res = linprog(np.concatenate([-r / scale, np.zeros(m - 1)]), A_ub=A,
                  b_ub=np.r_[np.zeros(2 * (m - 1)), M],
                  bounds=[(-1.0, 1.0)] * m + [(0.0, None)] * (m - 1),
                  method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun * scale


def test_bv_wce_matches_highs():
    rng = np.random.default_rng(12)
    for case in range(60):
        m = int(rng.integers(2, 301 if case % 6 == 0 else 30))
        r = rng.normal(size=m)
        if case % 3 == 1:   # integer residuals: many tied partial sums
            r = np.round(rng.normal(0.0, 2.0, m))
        n = float(rng.integers(1, 10))
        tol = 1e-9 * max(1.0, float(np.sum(np.abs(r))) / n)
        for M in (2, 2.5, 3, 4, 6):
            assert abs(bv_wce(unit_chain(r, n), M) - highs_bv(r, M) / n) \
                <= tol, (case, M)


def test_bv_wce_unbounded_is_oracle_ece():
    rng = np.random.default_rng(13)
    for _ in range(20):
        data = random_grouped(rng, max_groups=300)
        assert bv_wce(data, math.inf) == pytest.approx(
            oracle_ece(data), abs=1e-12)


@given(st.lists(st.floats(-1e3, 1e3) | st.sampled_from([0.0, 1.0, -1.0]),
                min_size=1, max_size=60),
       st.floats(1e-3, 1e3))
@settings(max_examples=300, deadline=None)
def test_bv_wce_at_two_bounds_cutoff_bitwise(r, n):
    data = unit_chain(np.array(r), n)
    assert bv_wce(data, 2.0) >= cutoff_error(data).value


def test_effective_support_size():
    all_equal = grouped_from_arrays([0.4] * 7, [1.0] * 7)
    assert effective_support_size(all_equal, 0.5) == 1

    distinct = grouped_from_arrays(np.linspace(0.1, 0.9, 9), np.zeros(9))
    assert effective_support_size(distinct, 0.0) == 9

    masses = GroupedDataset([0.1, 0.2, 0.3], [0, 0, 0], [50, 30, 20],
                            [0, 0, 0], n=100)
    assert effective_support_size(masses, 0.25) == 2

    # 2e5 masses of 0.1: their cumsum ends 1e-8 below the exact total
    many = GroupedDataset(np.arange(1, 200_001) / 200_001, np.zeros(200_000),
                          np.full(200_000, 0.1), np.zeros(200_000),
                          n=math.fsum([0.1] * 200_000))
    assert effective_support_size(many, 0.0) == 200_000


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_effective_support_size_does_not_depend_on_mass_scale(scale):
    # 1 - gamma exceeds the heavier atom's share by 5e-7: both atoms count
    data = GroupedDataset.from_atoms([(0.2, 0.0, 0.6 * scale),
                                      (0.7, 0.0, 0.4 * scale)])
    assert effective_support_size(data, 0.3999995) == 2


def test_cutoff_le_ece_random_oracle():
    rng = np.random.default_rng(30)
    for _ in range(50):
        data = random_grouped(rng)
        assert cutoff_error(data).value <= oracle_ece(data) + 1e-12


def test_wce_squared_lower_chain():
    rng = np.random.default_rng(31)
    for _ in range(20):
        data = random_grouped(rng, max_groups=80)
        wce = lipschitz_wce(data).objective
        assert wce ** 2 / 36 <= cutoff_error(data).value + 1e-9
