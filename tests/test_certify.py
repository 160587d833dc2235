import importlib
import json
import math

import numpy as np
import pytest

import cutoffcal
from cutoffcal import (CertificationVerdict, SeededRng, ValidationError,
                       certify, min_admissible_c)
from cutoffcal.calibrate import CalibratorMap, fit_modified_platt
from cutoffcal.core import grouped_from_arrays
from cutoffcal.experiments import SimulationConfig
from cutoffcal.metrics import concentration_radius, cutoff_error


def identity_trainer(train_cov, train_y):
    # covariates are already forecasts
    return lambda x: x


def test_accepts_well_calibrated_forecasts():
    # constant forecast 0.5 with alternating outcomes: second-half scan
    # error is exactly 0, so any c above the radius-adjusted floor accepts
    n = 2000
    forecasts = [0.5] * n
    outcomes = [i % 2 for i in range(n)]
    verdict = certify(forecasts, outcomes, identity_trainer, c=0.8, delta=0.05)
    assert verdict.accepted
    assert verdict.estimate == pytest.approx(0.0, abs=1e-12)
    assert verdict.threshold == pytest.approx(
        0.8 - concentration_radius(1000, 0.05))
    assert not isinstance(verdict.returned_model, CalibratorMap)


def test_rejects_degenerate_and_returns_fallback():
    n = 2000
    verdict = certify([1.0] * n, [0.0] * n, identity_trainer, c=0.8, delta=0.05)
    assert not verdict.accepted
    assert verdict.estimate == pytest.approx(1.0)
    model = verdict.returned_model
    assert isinstance(model, CalibratorMap) and model.kind == "constant"
    assert model.constant_value == 0.0
    assert verdict.fallback_mean == 0.0


def test_c_floor_enforced_with_value_in_message():
    n, delta = 100, 0.05
    floor = math.sqrt(math.log(1 / delta) / (2 * (n // 2)))
    assert min_admissible_c(n // 2, delta) == pytest.approx(floor)
    with pytest.raises(ValidationError, match=f"{floor:.6g}"):
        certify([0.5] * n, [0.0] * n, identity_trainer,
                c=floor * 0.99, delta=delta)


def test_odd_n_split_sizes_and_radius():
    n = 101  # train gets ceil(n/2) = 51, radius uses floor(n/2) = 50
    seen = {}

    def trainer(train_cov, train_y):
        seen["train"] = len(train_cov)
        return lambda x: x

    verdict = certify([0.5] * n, [0] * n, trainer, c=4.0, delta=0.1)
    assert seen["train"] == 51
    assert verdict.n == n
    assert verdict.threshold == pytest.approx(4.0 - concentration_radius(50, 0.1))


def test_too_few_samples():
    with pytest.raises(ValidationError):
        certify([0.5] * 3, [0, 1, 0], identity_trainer, c=4.0, delta=0.1)


def test_shuffle_seed_deterministic():
    rng = np.random.default_rng(55)
    t = rng.random(400).tolist()
    y = (rng.random(400) < 0.5).astype(float).tolist()
    v1 = certify(t, y, identity_trainer, c=2.0, delta=0.05,
                 split_seed=SeededRng(9))
    v2 = certify(t, y, identity_trainer, c=2.0, delta=0.05,
                 split_seed=SeededRng(9))
    assert v1.estimate == v2.estimate
    assert v1.accepted == v2.accepted


def test_shuffle_changes_split():
    # sorted outcomes make the unshuffled split degenerate; the shuffled
    # estimate must differ
    t = [0.5] * 400
    y = [0.0] * 200 + [1.0] * 200
    plain = certify(t, y, identity_trainer, c=2.0, delta=0.05)
    shuffled = certify(t, y, identity_trainer, c=2.0, delta=0.05,
                       split_seed=SeededRng(3))
    assert plain.estimate == pytest.approx(0.5)
    assert shuffled.estimate != plain.estimate


def test_verdict_to_dict_roundtrips_fallback():
    verdict = certify([1.0] * 100, [0.0] * 100, identity_trainer,
                      c=4.0, delta=0.1)
    d = verdict.to_dict()
    assert d["accepted"] is False
    assert d["returned_model"]["kind"] == "constant"
    assert set(d) >= {"estimate", "threshold", "c", "delta", "n",
                      "fallback_mean"}


def test_verdict_to_dict_keys_in_report_order():
    verdict = certify([0.5] * 100, [0.0, 1.0] * 50, identity_trainer,
                      c=4.0, delta=0.1)
    assert list(verdict.to_dict()) == ["accepted", "estimate", "threshold",
                                       "c", "delta", "fallback_mean", "n",
                                       "returned_model"]


def test_verdict_with_list_breakpoints_map_serialises():
    rows = [[0.2, 0.1], [0.8, 0.9]]
    model = CalibratorMap("isotonic", breakpoints=rows)
    verdict = CertificationVerdict(True, 0.1, 0.5, 1.0, 0.05, model, 0.5, 100)
    d = json.loads(json.dumps(verdict.to_dict(), allow_nan=False))
    assert d["returned_model"] == {"kind": "isotonic", "breakpoints": rows}


@pytest.mark.parametrize("bad", [float("nan"), 3.0])
def test_trainer_output_out_of_range_raises(bad):
    def trainer(train_cov, train_y):
        return lambda x: np.full_like(x, bad)

    with pytest.raises(ValidationError, match="forecasts"):
        certify([0.5] * 2000, [i % 2 for i in range(2000)], trainer,
                c=0.8, delta=0.05)


def test_trainer_gets_arrays_and_model_is_called_once():
    n = 101
    x = np.linspace(0.0, 1.0, n)
    y = (np.arange(n) % 2).astype(float)
    calls = []

    def trainer(train_cov, train_y):
        calls.append(("train", train_cov, train_y))

        def model(rows):
            calls.append(("model", rows))
            return rows
        return model

    verdict = certify(x, y, trainer, c=4.0, delta=0.1,
                      split_seed=SeededRng(5))
    perm = SeededRng(5).generator().permutation(n)
    (_, train_cov, train_y), (_, rows) = calls
    assert isinstance(train_cov, np.ndarray)
    assert isinstance(train_y, np.ndarray)
    np.testing.assert_array_equal(train_cov, x[perm[:51]])
    np.testing.assert_array_equal(train_y, y[perm[:51]])
    np.testing.assert_array_equal(rows, x[perm[51:]])
    expected = cutoff_error(grouped_from_arrays(x[perm[51:]], y[perm[51:]]))
    assert verdict.estimate == expected.value


def test_two_dimensional_covariates():
    rng = np.random.default_rng(8)
    n = 400
    t = rng.random(n)
    y = (rng.random(n) < t).astype(float)
    features = np.column_stack([t, rng.random(n)])

    def trainer(train_cov, train_y):
        assert train_cov.shape == (200, 2)
        return lambda rows: rows[:, 0]

    verdict = certify(features, y, trainer, c=2.0, delta=0.05)
    flat = certify(t, y, identity_trainer, c=2.0, delta=0.05)
    assert verdict.estimate == flat.estimate
    assert verdict.accepted == flat.accepted


def test_object_covariates_stay_opaque_handles():
    handles = [{"p": 0.5} for _ in range(100)]

    def trainer(train_cov, train_y):
        assert train_cov.dtype == object and train_cov[0] is handles[0]
        return lambda rows: np.array([h["p"] for h in rows])

    verdict = certify(handles, [i % 2 for i in range(100)], trainer,
                      c=4.0, delta=0.1)
    assert verdict.estimate == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("covariates, outcomes", [
    ([0.5] * 10, [0, 1, 0, 1, 0, 1]),
    ([0.5] * 3, [0, 1, 0, 1, 0, 1]),
    (0.5, [0, 1, 0, 1, 0, 1]),
    ([0.5] * 6, [[0, 1]] * 6),
])
def test_covariate_outcome_length_mismatch_raises(covariates, outcomes):
    with pytest.raises(ValidationError, match="one covariate row per outcome"):
        certify(covariates, outcomes, identity_trainer, c=4.0, delta=0.1)


@pytest.mark.parametrize("bad", [5.0, -0.5, float("nan")])
def test_outcomes_out_of_range_raise_in_either_half(bad):
    # the bad values sit in the training half, which the scan never pools
    with pytest.raises(ValidationError, match="outcomes"):
        certify([0.5] * 8, [bad] * 4 + [0, 1, 0, 1], identity_trainer,
                c=4.0, delta=0.1)


@pytest.mark.parametrize("model", [
    lambda rows: 0.5,
    lambda rows: rows[:-1],
    lambda rows: np.column_stack([rows, rows]),
])
def test_model_output_shape_checked(model):
    with pytest.raises(ValidationError, match="model .*lambda.* one forecast "
                                              "per held-out row"):
        certify([0.5] * 100, [i % 2 for i in range(100)],
                lambda cov, y: model, c=4.0, delta=0.1)


@pytest.mark.parametrize("c", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_c_raises(c):
    with pytest.raises(ValidationError, match=r"c must be in \(-inf, inf\)"):
        certify([0.5] * 100, [i % 2 for i in range(100)], identity_trainer,
                c=c, delta=0.1)


@pytest.mark.parametrize("m", [0, -3, 0.5])
def test_min_admissible_c_needs_one_row(m):
    with pytest.raises(ValidationError, match=r"m must be in \[1, inf\]"):
        min_admissible_c(m, 0.05)
    assert min_admissible_c(1, 0.05) == math.sqrt(math.log(20) / 2)


def test_min_admissible_c_at_tiny_delta():
    # 1/delta overflows for the smallest subnormal; ln(1/delta) does not
    ln_inverse = 300 * math.log(10) - math.log(5e-324 * 1e300)
    assert min_admissible_c(100 // 2, 5e-324) == pytest.approx(
        math.sqrt(ln_inverse / 100), rel=1e-12)


def test_certify_is_a_function_of_calibrate_not_a_module():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("cutoffcal.certify")
    import cutoffcal.calibrate as m
    assert cutoffcal.certify is m.certify
    assert m.CertificationVerdict is CertificationVerdict
    assert m.min_admissible_c is min_admissible_c


def test_forecasts_are_tested_on_every_row():
    rng = np.random.default_rng(27)
    n, c, delta = 2000, 0.8, 0.05
    t = np.round(rng.random(n), 2)
    y = (rng.random(n) < t).astype(float)
    verdict = certify(t, y, None, c, delta)
    assert verdict.n == n
    assert verdict.estimate == cutoff_error(grouped_from_arrays(t, y)).value
    assert verdict.threshold == c - concentration_radius(n, delta)
    assert verdict.fallback_mean == float(np.mean(y))
    assert verdict.accepted and verdict.returned_model is None
    assert verdict.to_dict()["returned_model"] == "forecasts"
    # the floor prices the fallback mean of all n rows
    floor = min_admissible_c(n, delta)
    assert certify(t, y, None, floor, delta).n == n
    with pytest.raises(ValidationError, match="floor"):
        certify(t, y, None, np.nextafter(floor, 0.0), delta)


def test_forecasts_fall_back_to_the_mean_of_every_row():
    y = [0.0] * 500 + [1.0] * 1500
    verdict = certify([1.0] * 2000, y, None, c=0.7, delta=0.1)
    assert not verdict.accepted
    assert verdict.estimate == pytest.approx(0.25)
    assert verdict.returned_model.to_dict() == {"kind": "constant",
                                                "constant_value": 0.75}
    assert verdict.fallback_mean == 0.75


def test_split_seed_needs_a_trainer():
    with pytest.raises(ValidationError, match="split_seed needs a trainer"):
        certify([0.5] * 100, [i % 2 for i in range(100)], None, c=4.0,
                delta=0.1, split_seed=SeededRng(1))


def test_forecasts_without_a_trainer_must_be_one_column():
    features = np.full((100, 2), 0.5)
    with pytest.raises(ValidationError, match="forecasts must be 1-D"):
        certify(features, [i % 2 for i in range(100)], None, c=4.0, delta=0.1)


@pytest.mark.parametrize("call", [
    lambda: SimulationConfig(tau=np.array([0.3, 0.4])),
    lambda: certify([0.5] * 100, [0, 1] * 50, None, c=np.array([1.0, 2.0]),
                    delta=0.05),
    lambda: certify([0.5] * 100, [0, 1] * 50, identity_trainer,
                    c=np.array([1.0, 2.0]), delta=0.05),
    lambda: certify([0.5] * 100, [0, 1] * 50, None, c=4.0,
                    delta=np.array([0.05, 0.1])),
    lambda: fit_modified_platt([0.2, 0.4, 0.6, 0.8], [0, 1, 0, 1],
                               epsilon_n=np.array([0.1, 0.2])),
    lambda: certify([0.5] * 100, [0, 1] * 50, None, c=True, delta=0.05),
    lambda: certify([0.5] * 100, [0, 1] * 50, None, c="4", delta=0.05),
    lambda: min_admissible_c(np.array([100, 200]), 0.05),
    lambda: concentration_radius(100, np.array([0.05, 0.1])),
], ids=["simulation tau", "c array", "c array with trainer", "delta array",
        "epsilon_n array", "c bool", "c string", "m array", "radius delta"])
def test_scalar_arguments_must_be_one_number(call):
    with pytest.raises(ValidationError, match="one number"):
        call()


@pytest.mark.parametrize("n", [200, 2000])
@pytest.mark.parametrize("scenario", ["truthful", "adversarial"])
def test_forecasts_coverage(n, scenario):
    # criterion 07's bound on the unsplit path, at its c and at the floor,
    # where the fallback mean's Hoeffding share of the level is tight. The
    # population errors are exact: forecasts f against the conditional
    # mean mu have error 0 (truthful, f = mu = x) or 0.7 (adversarial,
    # f = 1, mu = 0.3), and a constant q has |E mu - q|.
    delta = 0.05
    mean_mu, err_f = (0.5, 0.0) if scenario == "truthful" else (0.3, 0.7)
    for c in (min_admissible_c(n, delta), 0.75):
        gen = SeededRng(7007 + n).generator()
        hits = 0
        for _ in range(500):
            x = gen.random(n)
            mu = x if scenario == "truthful" else np.full(n, 0.3)
            f = x if scenario == "truthful" else np.ones(n)
            y = (gen.random(n) < mu).astype(float)
            verdict = certify(f, y, None, c=c, delta=delta)
            err = (err_f if verdict.accepted
                   else abs(mean_mu - verdict.fallback_mean))
            hits += err <= c
        assert hits / 500 >= 1 - 2 * delta - 0.03, (c, hits)
