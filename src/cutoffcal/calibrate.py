"""Post-hoc calibrators: isotonic regression, logistic rescaling, and a
guarded logistic variant that falls back to a constant predictor when the
recalibrated training data still shows a large interval-supremum error.
Each fitter takes per-row forecasts and outcomes.

Certification with a distribution-free guarantee: estimate a model's
interval-supremum calibration error on rows it has not seen, and accept it
only if the estimate clears a concentration-corrected threshold; otherwise
fall back to the constant predictor at those rows' outcome mean. Forecasts
fixed before the outcomes are tested on every row; a model trained on the
data is trained on the first half and tested on the second.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields
from typing import Callable, Optional

import numpy as np

from .core import (SeededRng, ValidationError, _check_number, _check_rows,
                   _check_unit, _check_weights, _floats, grouped_from_arrays)
from .metrics import concentration_radius, cutoff_error

__all__ = [
    "CalibratorMap",
    "PlattDivergence",
    "fit_isotonic",
    "fit_platt",
    "fit_modified_platt",
    "apply_map",
    "default_epsilon",
    "CertificationVerdict",
    "certify",
    "min_admissible_c",
]


class PlattDivergence(RuntimeError):
    """The logistic loss has no finite minimiser (the groups are separable),
    or Newton did not bring the gradient to its sums' rounding floor."""


@dataclass(frozen=True, eq=False)
class CalibratorMap:
    """A monotone map from forecasts to recalibrated probabilities.

    kind "isotonic": right-continuous step over the (input, value) rows of
    breakpoints, constant beyond the data range. kind "platt":
    sigmoid(a*z + b). kind "constant": a single value. A map checks itself
    when built, raising ValidationError unless every entry is finite,
    every value is in [0, 1], platt has two coefficients and isotonic
    breakpoints are a non-empty (m, 2) array with strictly increasing
    inputs, which the map keeps as a read-only float copy. Entries must be
    numbers, not strings or bools; coefficients are kept as a tuple of two
    floats and constant_value as a float.
    """

    kind: str
    breakpoints: Optional[np.ndarray] = None  # isotonic: (m, 2) array-like
    coefficients: Optional[tuple] = None    # (a, b) for platt
    constant_value: Optional[float] = None

    def __post_init__(self):
        field = {"isotonic": self.breakpoints, "platt": self.coefficients,
                 "constant": self.constant_value}
        if self.kind not in field:
            raise ValidationError(f"unknown map kind: {self.kind!r}")
        try:
            values = np.asarray(field[self.kind])
        except ValueError:  # ragged
            values = None
        # strings and bools are refused even where numpy would convert them
        if values is None or values.dtype.kind not in "iuf":
            raise ValidationError(f"{self.kind} map entries must be numbers")
        values = values.astype(float)  # a copy
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{self.kind} map has a non-finite entry")
        if self.kind == "isotonic":
            if (values.ndim != 2 or values.shape[1] != 2 or len(values) == 0
                    or np.any(np.diff(values[:, 0]) <= 0)):
                raise ValidationError("isotonic breakpoints must be a "
                                      "non-empty (m, 2) array whose inputs "
                                      "strictly increase")
            values.flags.writeable = False
            object.__setattr__(self, "breakpoints", values)
            values = values[:, 1]
        elif values.shape != ((2,) if self.kind == "platt" else ()):
            raise ValidationError("a platt map has two coefficients (a, b), "
                                  "a constant map one value")
        elif self.kind == "platt":
            object.__setattr__(self, "coefficients", tuple(values.tolist()))
        else:
            object.__setattr__(self, "constant_value", values.item())
        if self.kind != "platt":
            _check_unit(f"{self.kind} map values", values)

    def to_dict(self) -> dict:
        if self.kind == "isotonic":
            return {"kind": "isotonic", "breakpoints": self.breakpoints.tolist()}
        if self.kind == "platt":
            a, b = self.coefficients
            return {"kind": "platt", "coefficients": {"a": a, "b": b}}
        return {"kind": "constant", "constant_value": self.constant_value}

    def to_json(self) -> str:
        """json.dumps(self.to_dict(), allow_nan=False), the same bytes. An
        isotonic map is written from its breakpoints: each input and each
        run of bit-identical values (-0.0 apart from 0.0) is formatted once
        with float.__repr__, as the encoder does; a run is one join."""
        if self.kind != "isotonic":
            return json.dumps(self.to_dict(), allow_nan=False)
        bp = self.breakpoints
        bits = bp.view(np.int64)[:, 1]
        cut = (np.flatnonzero(bits[1:] != bits[:-1]) + 1).tolist()
        starts, ends = [0] + cut, cut + [len(bp)]
        inputs = list(map(float.__repr__, bp[:, 0].tolist()))
        values = map(float.__repr__, bp[starts, 1].tolist())
        runs = "], [".join((", " + v + "], [").join(inputs[s:e]) + ", " + v
                           for s, e, v in zip(starts, ends, values))
        return "".join(('{"kind": "isotonic", "breakpoints": [[', runs, "]]}"))


def _pava(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators in O(n); fitted values per point.

    Blocks live on a stack with non-decreasing means; each new point merges
    with the top while the top's mean exceeds it, so every point is pushed
    and popped at most once.
    """
    means, weights, sizes = [], [], []
    for m, wt in zip(y.tolist(), w.tolist()):
        size = 1
        while means and means[-1] > m:
            left = weights.pop()
            tot = left + wt
            m = (left * means.pop() + wt * m) / tot
            wt = tot
            size += sizes.pop()
        means.append(m)
        weights.append(wt)
        sizes.append(size)
    return np.repeat(means, sizes)


def fit_isotonic(forecasts, outcomes) -> CalibratorMap:
    """Least-squares monotone fit of outcomes on forecasts.

    Ties are pooled into weighted points, so the fitted map is a function
    of the forecast value. Block values are weighted outcome means.
    Prediction uses a right-continuous step between breakpoints with
    constant extension beyond the data range.
    """
    t, y = _check_rows(forecasts, outcomes=outcomes)
    data = grouped_from_arrays(t, y)
    fitted = _pava(data.target_sums / data.counts, data.counts)
    return CalibratorMap("isotonic",
                         breakpoints=np.column_stack((data.forecasts, fitted)))


def _sigmoid(z):
    return 0.5 * (1.0 + np.tanh(0.5 * z))


_MAX_ITER = 200


def _logistic_fit(t: np.ndarray, target_sums: np.ndarray, counts: np.ndarray):
    """Damped Newton for the logistic loss of pooled groups: minimizes
    sum_g [counts_g log(1 + e^z_g) - target_sums_g z_g], z_g = a t_g + b.
    Each term is taken as target_sums_g log(1 + e^-z_g) + (counts_g -
    target_sums_g) log(1 + e^z_g), whose parts cannot cancel at saturation.

    Each step is lstsq(H, grad), halved up to 50 times until the loss does
    not rise beyond rounding slack. The fit stops once |grad| is within the
    rounding floor of its own sums over m groups, eps ceil(log2(m + 1))
    sum_g (counts_g + target_sums_g); p_g is known to an absolute eps, so
    counts_g, not counts_g p_g, bounds the error of counts_g p_g. Raises
    PlattDivergence, naming the last |grad|, the floor and the steps
    taken, after _MAX_ITER steps, a step that 50 halvings cannot make
    descend, or a Newton step that is not finite or does not move (a, b),
    which it reports as a stall. Sums are pairwise np.sum.

    Raises PlattDivergence at once when no finite minimiser exists. Call a
    group lo if target_sums_g < counts_g and hi if target_sums_g > 0 (a
    massless group is neither); then the loss falls without bound along
    some (a, b) exactly when no group is lo, no group is hi, or the
    forecasts of positive mass differ and every lo forecast is <= every hi
    one (or every hi forecast <= every lo one). Smoothed targets never do.
    """
    lo, hi = t[target_sums < counts], t[target_sums > 0]
    if (lo.size == 0 or hi.size == 0
            or (np.ptp(t[counts > 0]) > 0
                and (lo.max() <= hi.min() or hi.max() <= lo.min()))):
        raise PlattDivergence("the groups are separable: the logistic loss "
                              "has no finite minimiser")
    theta = np.zeros(2)
    floor = (np.finfo(float).eps * t.size.bit_length()  # ceil(log2(m + 1))
             * np.sum(counts + target_sums))

    def loss(th):
        z = th[0] * t + th[1]
        return float(np.sum(target_sums * np.logaddexp(0.0, -z)
                            + (counts - target_sums) * np.logaddexp(0.0, z))), z

    cur, z = loss(theta)
    steps = 0
    for _ in range(_MAX_ITER):
        p = _sigmoid(z)
        e = counts * p - target_sums
        grad = np.array([np.sum(e * t), np.sum(e)])
        if np.linalg.norm(grad) <= floor:
            return theta
        h = counts * p * (1.0 - p)
        off = np.sum(h * t)
        H = np.array([[np.sum(h * t * t), off], [off, np.sum(h)]])
        step = np.linalg.lstsq(H, grad, rcond=None)[0]
        if not (np.all(np.isfinite(step)) and np.any(theta - step != theta)):
            # e.g. H is 0 once p rounds to 0 or 1 at every group; theta
            # would then never move again
            raise PlattDivergence(
                f"logistic fit stalled after {steps} Newton steps: the step "
                f"does not move (a, b) at |grad|={np.linalg.norm(grad):.3e}, "
                f"above the stop floor {floor:.3e}")
        for _ in range(50):
            cand = theta - step
            new, z_new = loss(cand)
            if new <= cur + 1e-12 * max(1.0, abs(cur)):
                break
            step *= 0.5
        else:
            break
        theta, cur, z = cand, new, z_new
        steps += 1
    raise PlattDivergence(
        f"logistic fit did not converge in {steps} Newton steps: last "
        f"|grad|={np.linalg.norm(grad):.3e} above the stop floor {floor:.3e}")


def smoothed_targets(target_sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Shrink outcome sums toward the interior before logistic rescaling.

    Each row's y becomes y*(S+1)/(S+2) + (1-y)/(F+2), with S and F the sums
    of y and 1 - y; that is linear in y, so a group's target sum follows
    from its outcome sum and count. Keeps the logistic minimizer finite.
    """
    s = float(np.sum(target_sums))
    f = float(np.sum(counts - target_sums))
    return (target_sums * (s + 1.0) / (s + 2.0)
            + (counts - target_sums) / (f + 2.0))


def fit_platt(forecasts, outcomes) -> CalibratorMap:
    """Logistic rescaling of forecasts with smoothed outcome targets, fitted
    on rows pooled by forecast, so row order does not change the map."""
    t, y = _check_rows(forecasts, outcomes=outcomes)
    data = grouped_from_arrays(t, y)
    theta = _logistic_fit(data.forecasts,
                          smoothed_targets(data.target_sums, data.counts),
                          data.counts)
    return CalibratorMap("platt", coefficients=(float(theta[0]), float(theta[1])))


def population_platt(forecasts, means, masses) -> tuple:
    """Exact population logistic minimizer on weighted atoms (no smoothing);
    atoms are checked like GroupedDataset.from_atoms's. Masses are fitted
    scaled to total 1, so the stop floor cannot underflow or overflow."""
    t, q = _check_rows(forecasts, means=means)
    w = _check_weights("masses", masses, t.shape)
    w = w / np.sum(w)
    theta = _logistic_fit(t, w * q, w)
    return float(theta[0]), float(theta[1])


def _guard(model, forecasts, outcomes, threshold: float):
    """The fallback policy of both guards: the scan error of forecasts
    against outcomes, the outcome mean, and model if the error is at most
    threshold, else the constant map at that mean."""
    est = cutoff_error(grouped_from_arrays(forecasts, outcomes)).value
    mean = float(np.mean(outcomes))
    return est, mean, (model if est <= threshold else
                       CalibratorMap("constant", constant_value=mean))


def default_epsilon(n: int) -> float:
    """Acceptance tolerance matching the delta = 0.05 concentration radius."""
    return concentration_radius(n, 0.05)


def fit_modified_platt(forecasts, outcomes,
                       epsilon_n: Optional[float] = None) -> CalibratorMap:
    """Logistic rescaling guarded by an interval-supremum check.

    Fits the logistic map, then measures the scan error of the recalibrated
    training data (residuals y - h(t), grouped by h(t), no data splitting).
    Returns the logistic map if the error is <= epsilon_n, otherwise the
    constant map at the sample mean of the outcomes (whose in-sample scan
    error is zero).
    """
    t, y = _check_rows(forecasts, outcomes=outcomes)
    if epsilon_n is None:
        epsilon_n = default_epsilon(len(t))
    _check_number("epsilon_n", epsilon_n, "(0, inf]")
    platt = fit_platt(t, y)
    return _guard(platt, apply_map(platt, t), y, epsilon_n)[2]


@dataclass(frozen=True)
class CertificationVerdict:
    """Accept/fallback decision with the quantities behind it.

    The estimate uses m rows: all n without a trainer, the floor(n/2)
    held-out rows with one. accepted iff estimate <= threshold = c -
    radius(m, delta). returned_model is None (the forecasts) or the trained
    model when accepted, else the constant map at those m rows' outcome
    mean. With c >= min_admissible_c(m, delta), the returned model's
    cutoff error is at most c with probability at least 1 - 3*delta.
    """

    accepted: bool
    estimate: float
    threshold: float
    c: float
    delta: float
    returned_model: object
    fallback_mean: float
    n: int

    def to_dict(self) -> dict:
        """Fields in order, returned_model last: its dict, "forecasts" for
        None, or trained:<type>."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        model = d.pop("returned_model")
        d["returned_model"] = (model.to_dict()
                               if isinstance(model, CalibratorMap)
                               else "forecasts" if model is None
                               else f"trained:{type(model).__name__}")
        return d


def min_admissible_c(m: int, delta: float) -> float:
    """Smallest threshold c, sqrt(ln(1/delta)/(2m)), for which the 1 -
    3*delta guarantee applies when the estimate uses m rows.

    The estimate misses the truth by more than its radius with probability
    at most delta. At this c, two-sided Hoeffding puts the chance that the
    fallback mean of the m rows misses E Y by more than c at 2 exp(-2 m
    c^2) <= 2*delta; the union bound leaves 1 - 3*delta.
    """
    _check_number("m", m, "[1, inf]")
    _check_number("delta", delta, "(0, 1]")
    return math.sqrt(-math.log(delta) / (2.0 * m))


def certify(covariates, outcomes,
            trainer: Optional[Callable[[np.ndarray, np.ndarray], Callable]],
            c: float, delta: float,
            split_seed: Optional[SeededRng] = None) -> CertificationVerdict:
    """Certify a model's cutoff error at level c and return the verdict.

    covariates: rows along the first axis as np.asarray sees them, one per
    outcome (an object array carries opaque handles). With trainer None
    the covariates are forecasts fixed before the outcomes were drawn, and
    every row tests them. Otherwise trainer gets the first ceil(n/2) rows
    and outcomes and returns a model, called once on the other rows, that
    must return one forecast in [0, 1] per row. The split is in input
    order; split_seed permutes the rows first (for sorted files) and needs
    a trainer.
    """
    x = np.asarray(covariates)
    outcomes = _floats("outcomes", outcomes)
    if outcomes.ndim != 1 or x.shape[:1] != outcomes.shape:
        raise ValidationError(
            f"need one covariate row per outcome, got covariates of shape "
            f"{x.shape} and outcomes of shape {outcomes.shape}")
    _check_unit("outcomes", outcomes)
    n = len(outcomes)
    if n < 4:
        raise ValidationError("need at least 4 samples")
    _check_number("c", c, "(-inf, inf)")
    if trainer is None and split_seed is not None:
        raise ValidationError("split_seed needs a trainer: forecasts are "
                              "tested on every row, unsplit")
    m = n if trainer is None else n // 2
    floor = min_admissible_c(m, delta)
    if c < floor:
        raise ValidationError(f"c={c} below the admissible floor "
                              f"sqrt(ln(1/delta)/(2*{m})) = {floor:.6g}")

    if trainer is None:
        model, forecasts, test_y = None, x, outcomes
    else:
        idx = (np.arange(n) if split_seed is None
               else split_seed.generator().permutation(n))
        k = -(-n // 2)  # train on ceil(n/2) rows, test on the rest
        model = trainer(x[idx[:k]], outcomes[idx[:k]])
        test_y = outcomes[idx[k:]]
        forecasts = _floats("forecasts", model(x[idx[k:]]))
        if forecasts.shape != test_y.shape:
            name = getattr(model, "__qualname__", type(model).__name__)
            raise ValidationError(
                f"model {name} must return one forecast per held-out row: "
                f"expected shape {test_y.shape}, got {forecasts.shape}")

    threshold = c - concentration_radius(m, delta)
    est, fallback_mean, returned = _guard(model, forecasts, test_y, threshold)
    return CertificationVerdict(returned is model, est, threshold, c, delta,
                                returned, fallback_mean, n)


def apply_map(cal: CalibratorMap, forecasts) -> np.ndarray:
    """Map forecasts in [0, 1] element-wise; outputs lie in [0, 1], as the
    map was checked when it was built. A scalar forecast gives a float."""
    z = _check_unit("forecasts", forecasts)
    if cal.kind == "constant":
        out = np.full_like(z, cal.constant_value)
    elif cal.kind == "platt":
        a, b = cal.coefficients
        out = _sigmoid(a * z + b)
    else:
        xs, vs = cal.breakpoints.T
        out = vs[np.maximum(np.searchsorted(xs, z, side="right") - 1, 0)]
    return float(out) if out.ndim == 0 else out
