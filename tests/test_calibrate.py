import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from cutoffcal import (CalibratorMap, ValidationError, apply_map,
                       cutoff_error, default_epsilon, fit_isotonic,
                       fit_modified_platt, fit_platt, grouped_from_arrays)
from cutoffcal.calibrate import (PlattDivergence, _logistic_fit, _pava,
                                 _sigmoid, population_platt, smoothed_targets)
from oracles import exhaustive_monotone_lsq


def test_isotonic_no_violators_is_identity_on_points():
    t = [0.1, 0.4, 0.8]
    y = [0.0, 0.5, 1.0]
    cal = fit_isotonic(t, y)
    assert np.allclose(apply_map(cal, t), y)


def test_isotonic_pools_violators():
    cal = fit_isotonic([0.1, 0.2, 0.3], [1.0, 0.0, 0.0])
    fitted = apply_map(cal, [0.1, 0.2, 0.3])
    oracle = exhaustive_monotone_lsq([0.1, 0.2, 0.3], [1.0, 0.0, 0.0])
    assert np.allclose(fitted, oracle, atol=1e-9)


def test_isotonic_constant_outcomes():
    cal = fit_isotonic([0.2, 0.5, 0.9], [0.4, 0.4, 0.4])
    assert np.allclose(apply_map(cal, [0.0, 0.3, 1.0]), 0.4)


def test_isotonic_matches_exhaustive_oracle():
    rng = np.random.default_rng(42)
    for _ in range(200):
        n = int(rng.integers(1, 9))
        t = rng.random(n)
        y = rng.random(n)
        cal = fit_isotonic(t, y)
        fitted = apply_map(cal, np.sort(t))
        assert np.allclose(fitted, exhaustive_monotone_lsq(t, y), atol=1e-9)


def test_isotonic_block_identity():
    # on training data, block sums of fitted values equal block sums of y
    rng = np.random.default_rng(8)
    for _ in range(50):
        n = int(rng.integers(2, 40))
        t = np.round(rng.random(n), 1)  # force ties
        y = rng.random(n)
        cal = fit_isotonic(t, y)
        fitted = apply_map(cal, t)
        for v in np.unique(fitted):
            sel = fitted == v
            assert math.fsum(fitted[sel]) == pytest.approx(
                math.fsum(y[sel]), abs=1e-10)


def test_isotonic_monotone_and_bounded():
    rng = np.random.default_rng(17)
    t, y = rng.random(100), rng.random(100)
    cal = fit_isotonic(t, y)
    z = np.linspace(0, 1, 333)
    out = apply_map(cal, z)
    assert np.all(np.diff(out) >= -1e-15)
    assert np.all((out >= 0) & (out <= 1))


def test_isotonic_step_convention():
    cal = fit_isotonic([0.2, 0.8], [0.1, 0.9])
    # right-continuous step: between breakpoints the left block value holds
    assert apply_map(cal, 0.5) == pytest.approx(0.1)
    assert apply_map(cal, 0.8) == pytest.approx(0.9)
    assert apply_map(cal, 0.0) == pytest.approx(0.1)   # constant extension
    assert apply_map(cal, 1.0) == pytest.approx(0.9)


def test_isotonic_empty_raises():
    with pytest.raises(ValidationError):
        fit_isotonic([], [])


@given(st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0])
                          | st.floats(0, 1),
                          st.sampled_from([1.0, 2.0, 0.5]) | st.floats(0.01, 50)),
                min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_pava_matches_scipy_with_weights_and_ties(points):
    y, w = (np.array(c) for c in zip(*points))
    expected = isotonic_regression(y, weights=w).x
    assert np.max(np.abs(_pava(y, w) - expected)) <= 1e-12


@pytest.mark.parametrize("y", [
    np.linspace(1.0, 0.0, 100_000),                   # one block at the end
    np.tile(np.linspace(1.0, 0.0, 1_000), 100),       # sawtooth, 100 teeth
    np.tile([0.9, 0.1], 50_000),                      # alternating pairs
], ids=["decreasing", "sawtooth", "alternating"])
def test_pava_adversarial_100k_matches_scipy(y):
    w = np.random.default_rng(3).uniform(0.5, 2.0, size=len(y))
    fitted = _pava(y, w)
    assert np.all(np.diff(fitted) >= 0)
    assert np.max(np.abs(fitted - isotonic_regression(y, weights=w).x)) <= 1e-12


def test_platt_flat_data_recovers_adjusted_mean():
    rng = np.random.default_rng(5)
    y = (rng.random(400) < 0.3).astype(float)
    # outcomes independent of forecast; symmetric forecasts force a ~ 0
    t = np.concatenate([rng.random(200), 1 - rng.random(200)[::-1]])
    t = np.concatenate([t, 1 - t])
    y = np.concatenate([y, y])
    cal = fit_platt(t, y)
    a, b = cal.coefficients
    target = smoothed_targets(y, np.ones_like(y))
    target_mean = float(np.mean(target))
    # 1-D oracle: minimize with slope frozen at zero
    bs = np.linspace(-3, 3, 20001)
    losses = [np.sum(np.logaddexp(0, bb) - target * bb) for bb in bs]
    b_oracle = bs[int(np.argmin(losses))]
    assert abs(a) < 1e-6
    assert _sigmoid(np.array(b))[()] == pytest.approx(target_mean, abs=1e-8)
    assert b == pytest.approx(b_oracle, abs=1e-3)


def test_platt_constant_forecast_takes_lstsq_step(monkeypatch):
    # one forecast value makes the Hessian rank one; the minimum-norm
    # lstsq step still moves the one fitted value to the smoothed mean
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    y = (np.random.default_rng(5).random(100_000) < 0.3).astype(float)
    a, b = fit_platt(np.full(y.size, 0.3), y).coefficients
    assert calls
    target = smoothed_targets(y, np.ones_like(y))
    assert abs(_sigmoid(a * 0.3 + b) - float(np.mean(target))) <= 1e-12


@pytest.mark.parametrize("n", [50, 1000])
def test_platt_constant_forecast_without_positives_converges(n):
    # p = 0.5 (1 + tanh(z / 2)) is known only to an absolute eps, so a
    # stop floor of eps (n p + target sum) is out of reach here; the floor
    # scales with the count n instead
    y = np.zeros(n)
    a, b = fit_platt(np.full(n, 0.4), y).coefficients
    assert _sigmoid(a * 0.4 + b) == pytest.approx(1 / (n + 2), rel=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_platt_pools_ties_so_row_order_is_free(seed):
    rng = np.random.default_rng(seed)
    t = rng.integers(0, 101, 5000) / 100
    y = (rng.random(t.size) < t).astype(float)
    a, b = fit_platt(t, y).coefficients
    perm = rng.permutation(t.size)
    assert fit_platt(t[perm], y[perm]).coefficients == (a, b)
    # the pooled fit solves the row-level score equations to the stop floor
    p = _sigmoid(a * t + b)
    target = smoothed_targets(y, np.ones_like(y))
    e = p - target
    score = math.hypot(math.fsum((e * t).tolist()), math.fsum(e.tolist()))
    floor = (np.finfo(float).eps * (101).bit_length()
             * math.fsum((1.0 + target).tolist()))
    assert score <= floor


def test_platt_converges_on_millions_of_rows():
    # an absolute gradient tolerance of 1e-10 lies below the rounding of
    # these sums; the stop floor grows with the total mass
    n = 3_000_000
    rng = np.random.default_rng(1)
    t = rng.random(n)
    y = rng.random(n) < t
    a, b = fit_platt(t, y).coefficients
    assert a == pytest.approx(5.2, abs=0.05)
    assert b == pytest.approx(-2.6, abs=0.05)


def test_platt_separable_stays_finite():
    cal = fit_platt([0.2, 0.8], [0.0, 1.0])
    a, b = cal.coefficients
    assert np.isfinite(a) and np.isfinite(b)
    # smoothed targets are exactly {1/3, 2/3} here
    assert np.allclose(smoothed_targets(np.array([0.0, 1.0]), np.ones(2)),
                       [1 / 3, 2 / 3])


@pytest.mark.parametrize("t, y", [
    ([0.2, 0.4, 0.6, 0.8], [0, 0, 1, 1]),
    ([0.2, 0.4, 0.6, 0.8], [1, 1, 0, 0]),
    ([0.2, 0.5, 0.5, 0.8], [0, 0, 1, 1]),
    ([0.2, 0.4, 0.6], [0, 0, 0]),
    ([0.2, 0.4, 0.6], [1, 1, 1]),
    ([0.5, 0.5, 0.5], [1, 1, 1]),
], ids=["separable", "separable reversed", "touching", "all zero", "all one",
        "single forecast"])
def test_logistic_fit_without_finite_minimiser_raises_at_once(t, y,
                                                              monkeypatch):
    calls = []
    lstsq = np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: calls.append(1) or lstsq(*a, **k))
    t = np.array(t, dtype=float)
    with pytest.raises(PlattDivergence, match="separable"):
        _logistic_fit(t, np.array(y, dtype=float), np.ones_like(t))
    assert not calls


@pytest.mark.parametrize("t, target_sums, counts", [
    ([0.2, 0.4, 0.6, 0.8], [0, 1, 0, 1], [1, 1, 1, 1]),
    ([0.2, 0.5, 0.5, 0.8], [0, 1, 0, 0], [1, 1, 1, 1]),
    ([0.5, 0.5, 0.5], [0, 1, 1], [1, 1, 1]),
    # minimisers that saturate the sigmoid: there the loss written as
    # counts_g log(1 + e^z_g) - target_sums_g z_g cancels, and the line
    # search cannot see a step's progress
    ([0.0, 0.25, 0.75], [5, 1e6, 0], [10, 1e6, 1e5]),
    ([0.25, 0.75, 1.0], [1e5, 0, 100], [1e5, 0.01, 100]),
    ([0.0, 0.5, 1.0], [0, 1e7, 0], [0.1, 1e7, 1e5]),
], ids=["overlapping", "both outcomes inside", "single forecast",
        "saturated, light low group", "saturated, light middle group",
        "saturated, heavy middle group"])
def test_logistic_fit_with_finite_minimiser_converges(t, target_sums, counts):
    t, target_sums, counts = (np.array(v, dtype=float)
                              for v in (t, target_sums, counts))
    a, b = _logistic_fit(t, target_sums, counts)
    # the recomputed gradient meets the stop floor, which is below 1e-12
    # at unit counts
    e = counts * _sigmoid(a * t + b) - target_sums
    score = math.hypot(math.fsum((e * t).tolist()), math.fsum(e.tolist()))
    floor = (np.finfo(float).eps * t.size.bit_length()
             * math.fsum((counts + target_sums).tolist()))
    assert score <= floor
    assert abs(a) < 100 and abs(b) < 100


def test_logistic_fit_halves_steps_that_raise_the_loss(monkeypatch):
    # full Newton steps overshoot on this input; the line search halves
    # them, so the loss is evaluated more often than once per step
    losses, steps = [], []
    logaddexp, lstsq = np.logaddexp, np.linalg.lstsq
    monkeypatch.setattr(np, "logaddexp",
                        lambda *a: losses.append(1) or logaddexp(*a))
    monkeypatch.setattr(np.linalg, "lstsq",
                        lambda *a, **k: steps.append(1) or lstsq(*a, **k))
    t = np.array([0.0, 0.25, 0.5, 1.0])
    counts = np.array([1e6, 1e4, 1e4, 1.0])
    target_sums = np.array([1e6, 1e4, 9990.0, 0.001])
    a, b = _logistic_fit(t, target_sums, counts)
    monkeypatch.undo()
    assert len(losses) > len(steps) + 1
    assert a == pytest.approx(-34.359, abs=1e-3)
    assert b == pytest.approx(24.086, abs=1e-3)
    # the recomputed gradient meets the stop floor
    e = counts * _sigmoid(a * t + b) - target_sums
    score = math.hypot(math.fsum((e * t).tolist()), math.fsum(e.tolist()))
    floor = (np.finfo(float).eps * t.size.bit_length()
             * math.fsum((counts + target_sums).tolist()))
    assert score <= floor


def test_logistic_fit_raises_after_max_iter(monkeypatch):
    monkeypatch.setattr("cutoffcal.calibrate._MAX_ITER", 1)
    t = np.array([0.2, 0.4, 0.6, 0.8])
    with pytest.raises(PlattDivergence,
                       match=r"did not converge in 1 Newton steps: last "
                             r"\|grad\|=\S+ above the stop floor \S+"):
        _logistic_fit(t, np.array([0.0, 1.0, 0.0, 1.0]), np.ones_like(t))


@pytest.mark.parametrize("atoms", [
    [(0.2, 0.0, 0.5), (0.8, 1.0, 0.5)],
    [(0.25, 1.0, 0.5), (0.75, 0.0, 0.5)],
    [(0.2, 0.0, 1.0), (0.8, 1.0, 1.0), (0.9, 0.0, 0.0)],
], ids=["separable", "separable reversed", "a massless atom overlaps"])
def test_population_platt_raises_on_separable_atoms(atoms):
    with pytest.raises(PlattDivergence, match="separable"):
        population_platt(*zip(*atoms))


def test_population_platt_ignores_massless_atoms():
    # one atom with mass: the minimiser is a line of (a, b), not missing
    a, b = population_platt([0.3, 0.6], [0.5, 0.0], [1.0, 0.0])
    assert _sigmoid(a * 0.3 + b) == pytest.approx(0.5, abs=1e-15)


def grid_refine_logistic(t, target, w, lo=(-60, -60), hi=(60, 60), rounds=12):
    """2-D grid search with iterative refinement around the best cell."""
    lo, hi = np.array(lo, float), np.array(hi, float)
    best = None
    for _ in range(rounds):
        aa = np.linspace(lo[0], hi[0], 21)
        bb = np.linspace(lo[1], hi[1], 21)
        A, B = np.meshgrid(aa, bb, indexing="ij")
        z = A[..., None] * t + B[..., None]
        loss = np.sum(w * (np.logaddexp(0, z) - target * z), axis=-1)
        i, j = np.unravel_index(np.argmin(loss), loss.shape)
        best = (aa[i], bb[j])
        span_a, span_b = (hi - lo) / 10
        lo = np.array([aa[i] - span_a, bb[j] - span_b])
        hi = np.array([aa[i] + span_a, bb[j] + span_b])
    return best


def test_population_platt_matches_grid_refinement():
    t = np.array([0.0, 0.25, 0.5, 1.0])
    q = np.array([0.1, 0.3, 0.35, 0.9])
    w = np.array([0.25] * 4)
    a, b = population_platt(t, q, w)
    ga, gb = grid_refine_logistic(t, q, w)
    assert a == pytest.approx(ga, abs=1e-4)
    assert b == pytest.approx(gb, abs=1e-4)


def test_platt_newton_monotone_descent_and_tolerance():
    rng = np.random.default_rng(77)
    t = rng.random(300)
    y = (rng.random(300) < _sigmoid(3 * t - 1)).astype(float)
    target = smoothed_targets(y, np.ones_like(y))
    X = np.column_stack([t, np.ones_like(t)])

    losses = []
    orig_loss = None
    theta = _logistic_fit(t, target, np.ones_like(t))
    p = _sigmoid(X @ theta)
    grad = X.T @ (p - target)
    assert np.linalg.norm(grad) < 1e-10


def test_apply_constant_and_platt_identity():
    const = CalibratorMap("constant", constant_value=0.42)
    assert apply_map(const, [0.0, 1.0]).tolist() == [0.42, 0.42]
    platt = CalibratorMap("platt", coefficients=(0.0, 0.0))
    assert apply_map(platt, 0.5) == pytest.approx(0.5)


def test_modified_platt_keeps_good_fit():
    rng = np.random.default_rng(101)
    n = 20000
    t = rng.random(n)
    p = _sigmoid(2.5 * t - 1.0)
    y = (rng.random(n) < p).astype(float)
    cal = fit_modified_platt(t, y)
    assert cal.kind == "platt"


def test_modified_platt_falls_back_on_counterexample():
    from cutoffcal import platt_counterexample
    atoms, _, _ = platt_counterexample()
    rng = np.random.default_rng(202)
    n = 100000
    idx = rng.integers(0, len(atoms), size=n)
    t = np.array([atoms[i][0] for i in idx])
    q = np.array([atoms[i][1] for i in idx])
    y = (rng.random(n) < q).astype(float)
    cal = fit_modified_platt(t, y)
    assert cal.kind == "constant"
    assert cal.constant_value == pytest.approx(float(np.mean(y)))


def test_modified_platt_constant_outcomes():
    # With y identically 0.6 the constant map at the sample mean has scan
    # error exactly zero; the logistic branch lands at the smoothed target
    # mean instead, so the returned map is only guaranteed to clear the
    # epsilon_n gate, not to be exactly zero.
    t = np.linspace(0.1, 0.9, 50)
    y = np.full(50, 0.6)

    const = CalibratorMap("constant", constant_value=float(np.mean(y)))
    data = grouped_from_arrays(apply_map(const, t), y)
    assert cutoff_error(data).value == pytest.approx(0.0, abs=1e-12)

    cal = fit_modified_platt(t, y)
    returned = grouped_from_arrays(apply_map(cal, t), y)
    assert cutoff_error(returned).value <= default_epsilon(50)


def test_default_epsilon_value():
    assert default_epsilon(400) == pytest.approx(
        (20 + math.sqrt(2 * math.log(20))) / 20)


def test_isotonic_breakpoints_array_and_dict():
    rng = np.random.default_rng(23)
    t, y = np.round(rng.random(200), 2), rng.random(200)
    cal = fit_isotonic(t, y)
    data = grouped_from_arrays(t, y)
    assert cal.breakpoints.shape == (len(data), 2)
    assert cal.breakpoints.dtype == np.float64
    expected = [[x, v] for x, v in zip(data.forecasts.tolist(),
                                       apply_map(cal, data.forecasts).tolist())]
    assert cal.to_dict()["breakpoints"] == expected
    assert all(type(v) is float for row in cal.to_dict()["breakpoints"]
               for v in row)


MAPS = {
    "platt": CalibratorMap("platt", coefficients=(1.0, 0.0)),
    "constant": CalibratorMap("constant", constant_value=0.3),
    "isotonic": CalibratorMap("isotonic",
                              breakpoints=np.array([[0.2, 0.1], [0.8, 0.9]])),
}


@pytest.mark.parametrize("bad", [math.nan, -0.5, 1.7, math.inf])
@pytest.mark.parametrize("kind", sorted(MAPS))
def test_apply_map_rejects_out_of_range(kind, bad):
    with pytest.raises(ValidationError, match="forecasts"):
        apply_map(MAPS[kind], [0.5, bad])
    with pytest.raises(ValidationError, match="forecasts"):
        apply_map(MAPS[kind], bad)


@pytest.mark.parametrize("where", ["forecasts", "outcomes"])
@pytest.mark.parametrize("bad", [1.5, math.nan])
def test_platt_rejects_out_of_range(where, bad):
    cols = {"forecasts": [0.2, 0.5, 0.9], "outcomes": [0.0, 1.0, 1.0]}
    cols[where][1] = bad
    for fit in (fit_platt, fit_isotonic):
        with pytest.raises(ValidationError, match=where):
            fit(cols["forecasts"], cols["outcomes"])


@pytest.mark.parametrize("fit", [fit_platt, fit_modified_platt, fit_isotonic])
@pytest.mark.parametrize("t, y, match", [
    ([0.2, 0.5], [0.0], "outcomes"),
    ([], [], "empty"),
    ([[0.2, 0.5], [0.6, 0.9]], [[0.0, 1.0], [1.0, 1.0]], "1-D"),
], ids=["length mismatch", "empty", "2-D"])
def test_platt_rejects_malformed_columns(fit, t, y, match):
    with pytest.raises(ValidationError, match=match):
        fit(t, y)


@pytest.mark.parametrize("t, q, w, match", [
    ([0.2, 0.5], [0.3], [1.0, 1.0], "means"),
    ([0.2, 0.5], [0.3, 0.4], [1.0], "masses"),
    ([0.2, 0.5], [0.3, 0.4], [1.0, -0.5], "masses"),
    ([0.2, 0.5], [0.3, 0.4], [0.0, 0.0], "masses"),
    ([0.2, 0.5], [math.nan, 0.4], [1.0, 1.0], "means"),
    ([0.2, 1.5], [0.3, 0.4], [1.0, 1.0], "forecasts"),
    ([0.2, 0.5], [0.3, 0.4], [1.0, math.inf], "masses"),
    ([0.2, 0.5], [0.3, 0.4], [1e308, 1e308], "masses"),
], ids=["length mismatch", "masses mismatch", "negative mass", "zero mass",
        "NaN mean", "forecast out of range", "infinite mass",
        "mass sum overflows"])
def test_population_platt_rejects_malformed_atoms(t, q, w, match):
    with pytest.raises(ValidationError, match=match):
        population_platt(t, q, w)


def isotonic_map(rows):
    return CalibratorMap("isotonic", breakpoints=np.array(rows, dtype=float))


def reference_json(cal):
    return json.dumps(cal.to_dict(), allow_nan=False)


@pytest.mark.parametrize("cal", list(MAPS.values()) + [
    CalibratorMap("isotonic", breakpoints=np.array([[0, 0], [1, 1]])),
    CalibratorMap("isotonic", breakpoints=[[0.2, 0.1], [0.8, 0.9]]),
], ids=list(MAPS) + ["isotonic-int", "isotonic-list"])
def test_to_json_is_json_dumps_of_to_dict(cal):
    assert cal.to_json() == reference_json(cal)


@pytest.mark.parametrize("rows", [
    [[0.5, 0.25]],                                       # one breakpoint
    [[0.1, 0.3], [0.2, 0.3], [0.9, 0.3]],                # one run
    [[0.1, 0.0], [0.2, 0.1], [0.3, 0.7], [0.4, 1.0]],    # all distinct
    [[0.0, -0.0], [0.1, -0.0], [0.2, 0.0], [0.3, 0.0]],  # -0.0 run, 0.0 run
    [[-0.0, 0.0], [0.1, -0.0], [0.5, 0.0]],              # and back again
    [[5e-324, 5e-324], [1e-05, 1e-05], [0.5, 1e-05]],    # exponent reprs
    [[0.1, 0.25], [0.2, 0.5], [0.3, 0.5], [0.4, 0.75], [1.0, 0.75]],
])
def test_isotonic_to_json_edge_cases(rows):
    cal = isotonic_map(rows)
    assert cal.to_json() == reference_json(cal)


@given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60, unique=True),
       st.lists(st.sampled_from([0.0, -0.0, 1e-05, 5e-324, 0.1, 0.5, 1.0])
                | st.floats(0.0, 1.0), min_size=1, max_size=60))
@settings(max_examples=300, deadline=None)
def test_isotonic_to_json_matches_json_dumps(xs, vs):
    m = min(len(xs), len(vs))
    # strictly increasing inputs and sorted values, as fit_isotonic writes
    # them; the stable sort keeps -0.0 and 0.0 in drawn order, so both
    # meet in one array
    cal = isotonic_map(np.column_stack((np.sort(xs[:m]),
                                        np.sort(vs[:m], kind="stable"))))
    assert cal.to_json() == reference_json(cal)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", [(0, 0), (1, 1), (2, 1)])
def test_isotonic_to_json_rejects_non_finite(bad, where):
    # a map checks itself when built, so to_json never meets such a map
    bp = np.array([[0.1, 0.2], [0.5, 0.6], [0.9, 0.6]])
    bp[where] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        isotonic_map(bp)


@pytest.mark.parametrize("kwargs, match", [
    (dict(kind="platt", coefficients=(math.nan, 0.0)), "non-finite"),
    (dict(kind="platt", coefficients=(1.0, -math.inf)), "non-finite"),
    (dict(kind="constant", constant_value=math.nan), "non-finite"),
    (dict(kind="isotonic", breakpoints=[[0.2, 0.1], [0.8, math.nan]]),
     "non-finite"),
    (dict(kind="isotonic", breakpoints=[[0.8, 0.9], [0.2, 0.1]]),
     "strictly increase"),
    (dict(kind="isotonic", breakpoints=[[0.2, 0.1], [0.2, 0.9]]),
     "strictly increase"),
    (dict(kind="isotonic", breakpoints=np.empty((0, 2))), "non-empty"),
    (dict(kind="isotonic", breakpoints=[0.2, 0.1]), r"\(m, 2\)"),
    (dict(kind="isotonic", breakpoints=[[0.2, 0.1, 0.3], [0.5, 0.6, 0.7]]),
     r"\(m, 2\)"),
    (dict(kind="unknown"), "unknown map kind"),
    (dict(kind="isotonic", breakpoints=[[0.2, 0.1], [0.8, 1.5]]),
     r"values must be finite and in \[0, 1\]"),
    (dict(kind="constant", constant_value=-0.1),
     r"values must be finite and in \[0, 1\]"),
    (dict(kind="platt", coefficients=(1.0, 0.0, 0.5)), "two coefficients"),
    (dict(kind="constant", constant_value=[0.2, 0.4]), "one value"),
], ids=["platt nan", "platt inf", "constant nan", "isotonic nan",
        "isotonic decreasing", "isotonic repeated", "isotonic empty",
        "isotonic 1-D", "isotonic 3 columns", "unknown kind",
        "isotonic value above 1", "constant below 0", "platt 3 coefficients",
        "constant 2 values"])
def test_apply_map_rejects_malformed_maps(kwargs, match):
    # the map raises where it is built, so apply_map never meets it
    with pytest.raises(ValidationError, match=match):
        CalibratorMap(**kwargs)


def test_isotonic_map_keeps_its_own_breakpoints():
    rows = np.array([[0.2, 0.1], [0.8, 0.9]])
    cal = CalibratorMap("isotonic", breakpoints=rows)
    before = apply_map(cal, [0.1, 0.5, 0.9]).tolist(), cal.to_json()
    rows[:] = [[0.5, 1.0], [0.6, 0.0]]
    assert (apply_map(cal, [0.1, 0.5, 0.9]).tolist(), cal.to_json()) == before
    with pytest.raises(ValueError, match="read-only"):
        cal.breakpoints[0, 1] = 0.5
