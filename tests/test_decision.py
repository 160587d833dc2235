import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cutoffcal
from cutoffcal import (GroupedDataset, ValidationError, cutoff_error,
                       risk_st, risks)
from cutoffcal.metrics import _prefix_sums
from oracles import loss_bd
from paper import make_perturbed_constant, schervish_loss


def test_loss_bd_corners():
    assert loss_bd(1.0, 1, 0.3) == 0.0
    assert loss_bd(0.0, 0, 0.3) == 0.0
    assert loss_bd(0.0, 1, 0.3) == pytest.approx(0.3)   # false positive
    assert loss_bd(1.0, 0, 0.3) == pytest.approx(0.7)   # miss
    assert loss_bd(0.5, 1, 0.4) == pytest.approx(0.4 * 0.5)
    assert loss_bd(0.5, 0, 0.4) == pytest.approx(0.6 * 0.5)


def test_loss_bd_takes_sequences_and_gives_floats_for_scalars():
    assert loss_bd([0.2, 0.5], 1, 0.5).tolist() == [0.4, 0.25]
    assert loss_bd(0.2, [0, 1], 0.5).tolist() == [0.1, 0.4]
    assert loss_bd([[0.2], [1.0]], (0, 1), 0.3).tolist() == \
        loss_bd(np.array([[0.2], [1.0]]), np.array([0, 1]), 0.3).tolist()
    assert type(loss_bd(0.5, 1, 0.4)) is float
    assert type(loss_bd(np.float64(0.5), np.int64(0), 0.4)) is float


def test_risk_bd_direct_sum():
    rng = np.random.default_rng(4)
    t, mu = rng.random(30), rng.random(30)
    direct = math.fsum(loss_bd(m, int(f >= 0.35), 0.35)
                       for f, m in zip(t, mu)) / 30
    assert risks(t, mu, 0.35)[0] == pytest.approx(direct, abs=1e-12)


def test_perturbed_constant_golden_gap():
    # forecast hugs 0.75 with the slope flipped; at tau = 0.75 the plug-in
    # rule acts on exactly the wrong atom and loses 3/8 against Bayes
    atoms = make_perturbed_constant(0.01)
    t = np.array([a[0] for a in atoms])
    mu = np.array([a[1] for a in atoms])
    w = np.array([a[2] for a in atoms])
    risk, bayes, monotone = risks(t, mu, 0.75, weights=w)
    assert risk == pytest.approx(0.375, abs=1e-15)
    assert bayes == pytest.approx(0.0, abs=1e-15)
    gap, monotone_gap = risk - bayes, risk - monotone
    assert gap == pytest.approx(0.375, abs=1e-15)
    assert monotone_gap == pytest.approx(0.375, abs=1e-15)


def monotone_oracle(t, mu, tau, weights=None):
    """Direct enumeration over every candidate threshold and direction."""
    t, mu = np.asarray(t, dtype=float), np.asarray(mu, dtype=float)
    w = np.full(t.shape, 1.0 / t.size) if weights is None else weights
    w = np.asarray(w, dtype=float) / np.sum(w)
    cands = np.unique(np.concatenate([[0.0, 1.0, tau], t]))
    best = np.inf
    for tp in cands:
        for actions in ((t >= tp).astype(float), (t <= tp).astype(float)):
            losses = (tau * (1 - mu) * actions
                      + (1 - tau) * mu * (1 - actions))
            best = min(best, float(np.dot(w, losses)))
    return best


def test_best_monotone_matches_enumeration():
    # 1{t >= tau'} acts on a forecast of 1 and 1{t <= tau'} on a forecast of
    # 0, so with both present no monotone rule passes on every row (cost 0)
    ev = ([0.0, 1.0], [0.0, 0.0], 0.5)
    assert risks(*ev)[2] == monotone_oracle(*ev) == 0.25
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 51))
        ev = (np.round(rng.random(n), 2), rng.random(n), float(rng.random()),
              rng.random(n) + 0.1)
        fast = risks(*ev)[2]
        assert fast == pytest.approx(monotone_oracle(*ev), abs=1e-12)


def test_gaps_nonnegative_against_injective_forecasts():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(2, 200))
        t = np.unique(rng.random(n))
        risk, bayes, monotone = risks(t, rng.random(len(t)),
                                      float(rng.random()))
        gap, monotone_gap = risk - bayes, risk - monotone
        assert gap >= -1e-12
        assert monotone_gap >= -1e-12
        # monotone rules are a subset of arbitrary wrappers
        assert gap >= monotone_gap - 1e-12


grid = st.integers(0, 100).map(lambda k: k / 100)


@given(st.lists(st.tuples(grid, grid, st.integers(1, 3)), min_size=1,
                max_size=40), grid)
@settings(max_examples=300, deadline=None)
def test_gaps_nonnegative_exactly_on_tied_grids(rows, tau):
    t, mu, w = map(np.array, zip(*rows))
    risk, bayes, monotone = risks(t, mu, tau, weights=w)
    w = w / np.sum(w)
    actions = (t >= tau).astype(float)
    assert risk == float(np.sum(w * loss_bd(mu, actions, tau)))
    assert bayes <= monotone <= risk
    assert min(risk - bayes, risk - monotone) >= 0.0


def loss_bd_risks(t, mu, tau, w):
    """The three risks of `risks` with every cost priced by loss_bd; w is
    normalised."""
    act, skip = loss_bd(mu, 1, tau), loss_bd(mu, 0, tau)
    plug_in = float(np.sum(w * loss_bd(mu, (t >= tau).astype(int), tau)))
    bayes = float(np.sum(w * np.minimum(act, skip)))
    order = np.argsort(t, kind="stable")
    s = t[order]
    prefix = _prefix_sums((w * (mu - tau))[order])
    k = np.flatnonzero(np.concatenate(([True], s[1:] != s[:-1], [True])))
    ge = k[:-1] if s[-1] == 1.0 else k
    le = k[1:] if s[0] == 0.0 else k
    best = _prefix_sums(w * act)[-1] + min(prefix[ge].min(),
                                           prefix[-1] - prefix[le].max())
    return plug_in, bayes, min(max(float(best), bayes), plug_in)


unit = st.floats(0.0, 1.0) | st.sampled_from([-0.0, 0.0, 1.0])


@given(st.lists(st.tuples(unit, unit, st.floats(1e-3, 1e3)), min_size=1,
                max_size=40), unit)
@settings(max_examples=500, deadline=None)
def test_risks_equal_loss_bd_pricing_bitwise(rows, tau):
    t, mu, w = map(np.array, zip(*rows))
    expected = loss_bd_risks(t, mu, tau, w / np.sum(w))
    assert list(map(float.hex, risks(t, mu, tau, weights=w))) == \
        list(map(float.hex, expected))


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs two cores")
def test_risks_do_not_depend_on_blas_threads():
    # OpenBLAS splits a dot product of 3e5 rows by thread, and each split
    # rounds differently; numpy's pairwise sum has one order per length.
    # The Lipschitz objective and Platt's Newton sums must not follow it
    code = ("import numpy as np; from cutoffcal import fit_platt, "
            "grouped_from_arrays, lipschitz_wce, risk_st, risks; "
            "t, mu, u = np.random.default_rng(9).random((3, 300_000)); "
            "y = 1.0 * (u < mu); "
            "print(repr(risks(t, mu, 0.5)), "
            "repr(risk_st(t, mu, 0.4)), "
            "repr(lipschitz_wce(grouped_from_arrays(t, mu)).objective), "
            "repr(fit_platt(t, y).coefficients))")
    src = str(Path(cutoffcal.__file__).resolve().parents[1])
    outs = [subprocess.run([sys.executable, "-c", code], cwd=src, check=True,
                           capture_output=True, text=True,
                           env={**os.environ, "OPENBLAS_NUM_THREADS": k}
                           ).stdout for k in ("1", "2")]
    assert outs[0] == outs[1]


@given(st.lists(st.tuples(grid, grid, st.integers(1, 3)), min_size=1,
                max_size=40), grid)
@settings(max_examples=300, deadline=None)
def test_actionability_inequalities_on_tied_grids(rows, tau):
    """The plug-in rule loses at most the cutoff error to any rule
    1{t >= tau'}, at most twice it to the best monotone rule, and at most
    the row-level ECE sum w |mean - t| to Bayes.

    Passing costs mean - tau more than acting, and two rules differ on an
    interval of forecasts. Below the plug-in cut (t < tau) mean - tau <=
    mean - t; at or above it, tau - mean <= t - mean. So each interval the
    rules disagree on adds at most its residual sum, which is at most the
    cutoff; a 1{t <= tau'} rule disagrees on a prefix and a suffix, hence
    2 cut. Against Bayes the same bound holds row by row.
    """
    t, mu, w = map(np.array, zip(*rows))
    risk, bayes, monotone = risks(t, mu, tau, weights=w)
    w = w / np.sum(w)
    cut = cutoff_error(GroupedDataset.from_atoms(
        np.column_stack([t, mu, w]))).value
    act, skip = loss_bd(mu, 1, tau), loss_bd(mu, 0, tau)
    for tp in np.concatenate(([0.0, 1.0, tau], t)):
        rule = float(np.dot(w, np.where(t >= tp, act, skip)))
        assert risk - rule <= cut + 1e-12
    assert risk - monotone <= 2 * cut + 1e-12
    assert risk - bayes <= float(np.dot(w, np.abs(mu - t))) + 1e-12


def test_risk_st_termwise():
    t = np.array([0.2, 0.6, 0.5, 0.9])
    y = np.array([1.0, 0.0, 0.5, 0.2])
    ystar = 0.5
    expected = 0.0
    for f, o in zip(t, y):
        if f <= ystar and o > ystar:
            expected += o - ystar
        elif f > ystar and o <= ystar:
            expected += ystar - o
    expected /= len(t)
    assert risk_st(t, y, ystar) == pytest.approx(expected, abs=1e-15)


def test_risk_st_zero_when_sides_agree():
    assert risk_st([0.1, 0.9], [0.0, 1.0], 0.5) == 0.0


def test_schervish_mixture_direct_sum():
    mix = ((0.25, 0.5), (0.75, 0.5))
    for y in (0.0, 1.0, 0.4):
        for p in (0.1, 0.5, 0.9):
            direct = 0.5 * loss_bd(y, int(p >= 0.25), 0.25) \
                + 0.5 * loss_bd(y, int(p >= 0.75), 0.75)
            assert schervish_loss(mix, y, p) == pytest.approx(direct, abs=1e-15)


def test_schervish_reads_mixture_entries_as_numbers():
    # bools count as 0 and 1, as in rows
    assert schervish_loss(((True, 1),), 0.25, 0.5) == \
        schervish_loss(((1.0, 1.0),), 0.25, 0.5) == 0.0


def test_schervish_truthful_reporting_not_worse():
    # mixtures of threshold losses are proper: reporting p = y in expectation
    # never loses to any other report
    rng = np.random.default_rng(6)
    atoms = tuple((float(tau), 0.2) for tau in rng.random(5))
    total = sum(w for _, w in atoms)
    mix = tuple((t, w / total) for t, w in atoms)
    for q in rng.random(10):
        truth = (q * schervish_loss(mix, 1.0, q)
                 + (1 - q) * schervish_loss(mix, 0.0, q))
        for p in rng.random(10):
            other = (q * schervish_loss(mix, 1.0, p)
                     + (1 - q) * schervish_loss(mix, 0.0, p))
            assert truth <= other + 1e-12


@pytest.mark.parametrize("kwargs", [
    dict(tau=1.5),
    dict(tau=float("nan")),
    dict(forecasts=[0.2, float("nan")]),
    dict(forecasts=[0.2, 1.2]),
    dict(means=[-0.1, 0.5]),
    dict(means=[0.3, float("inf")]),
    dict(forecasts=[], means=[]),
    dict(means=[0.3]),
    dict(weights=[1.0, -0.5]),
    dict(weights=[1.0, float("inf")]),
    dict(weights=[0.0, 0.0]),
    dict(weights=[1.0]),
    dict(weights=[1e308, 1e308]),
    dict(tau=np.array([0.1, 0.9])),
    dict(tau=[0.1, 0.9]),
    dict(forecasts=[0.2, 0.5, 0.8], means=[0.3, 0.4, 0.6], tau=[0.1, 0.9]),
])
def test_eval_set_rejects_invalid_input(kwargs):
    args = dict(forecasts=[0.2, 0.8], means=[0.3, 0.6], tau=0.5)
    with pytest.raises(ValidationError):
        risks(**{**args, **kwargs})


def test_risk_st_rejects_invalid_input():
    for ystar in (float("nan"), 1.5, np.array([0.1, 0.9]), [0.1, 0.9]):
        with pytest.raises(ValidationError):
            risk_st([0.2, 0.8], [0.0, 1.0], ystar)
    with pytest.raises(ValidationError):
        risk_st([0.2, 0.8], [0.0, 2.0], 0.5)
    with pytest.raises(ValidationError, match="outcomes"):
        risk_st([0.2, 0.8], [0.0], 0.5)
    with pytest.raises(ValidationError, match="empty"):
        risk_st([], [], 0.5)


@pytest.mark.parametrize("weights", [[1.0, -0.5], [1.0, float("nan")],
                                     [0.0, 0.0], [1.0, 1.0, 1.0]])
def test_risk_st_rejects_invalid_weights(weights):
    with pytest.raises(ValidationError, match="weights"):
        risk_st([0.2, 0.8], [0.0, 1.0], 0.5, weights=weights)
