"""Cost-sensitive binary decision losses, plug-in risks, and risk gaps.

Evaluation follows the oracle plug-in convention: conditional means stand
in for outcomes, so risks are exact functionals of the evaluation atoms
rather than Monte Carlo draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .core import (ValidationError, _check_rows, _check_unit, _check_weights,
                   _normalised_weights)

__all__ = [
    "DecisionEvalSet",
    "DiscreteMixture",
    "loss_bd",
    "risk_bd",
    "best_wrapper_risk",
    "best_monotone_wrapper_risk",
    "risk_gaps",
    "risks",
    "risk_st",
    "schervish_loss",
]


@dataclass(frozen=True)
class DecisionEvalSet:
    """Forecast / conditional-mean pairs with a decision threshold tau.

    weights defaults to uniform; fractional weights let analytic atom
    constructions be evaluated exactly. Raises ValidationError unless tau,
    the forecasts and the means are finite values in [0, 1], the set is
    non-empty, and the weights are finite, non-negative and not all zero.
    """

    forecasts: np.ndarray
    means: np.ndarray
    tau: float
    weights: Optional[np.ndarray] = None

    def __post_init__(self):
        _check_unit(f"tau ({self.tau!r})", self.tau)
        t, mu = _check_rows(self.forecasts, means=self.means)
        object.__setattr__(self, "forecasts", t)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "weights",
                           _normalised_weights(self.weights, t.shape))

    @property
    def n_eval(self) -> int:
        return len(self.forecasts)


@dataclass(frozen=True)
class DiscreteMixture:
    """Finite mixture over decision thresholds. Raises ValidationError
    unless atoms form a (k, 2) array, every tau is in [0, 1] and the
    weights are finite, non-negative and sum to 1 within 1e-12."""

    atoms: Tuple[Tuple[float, float], ...]  # (tau, weight)

    def __post_init__(self):
        if not all(np.shape(atom) == (2,) for atom in self.atoms):
            raise ValidationError("mixture atoms must be (tau, weight) pairs")
        taus, weights = np.array(self.atoms, dtype=float).reshape(-1, 2).T
        _check_unit("mixture taus", taus)
        _check_weights("mixture weights", weights, taus.shape)
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"mixture weights sum to {total}, expected 1")


def loss_bd(y: float, yhat: int, tau: float) -> float:
    """Threshold loss: tau for a false positive, (1-tau) scaled by y for a miss."""
    return tau * (1.0 - y) * yhat + (1.0 - tau) * y * (1 - yhat)


def risk_bd(ev: DecisionEvalSet,
            rule: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
    """Plug-in risk of a forecast-threshold rule (default 1{t >= tau})."""
    if rule is None:
        actions = (ev.forecasts >= ev.tau).astype(float)
    else:
        actions = np.asarray(rule(ev.forecasts), dtype=float)
    return float(np.dot(ev.weights, loss_bd(ev.means, actions, ev.tau)))


def risks(ev: DecisionEvalSet) -> Tuple[float, float, float]:
    """(plug-in, Bayes, best monotone) risks from one table of row costs:
    tau (1 - mean) to act, (1 - tau) mean to pass. risk_bd prices the
    plug-in rule with one cost per row and Bayes takes the smaller, summed
    alike, so Bayes <= plug-in in floating point. The monotone risk is the
    cheapest rule 1{t >= tau'} or 1{t <= tau'}, tau' in {0, forecasts...,
    1}, from sorted prefix sums, with the plug-in rule at its own price.
    """
    act, skip = loss_bd(ev.means, 1, ev.tau), loss_bd(ev.means, 0, ev.tau)
    plug_in = risk_bd(ev)
    bayes = float(np.dot(ev.weights, np.minimum(act, skip)))
    order = np.argsort(ev.forecasts, kind="stable")
    t = ev.forecasts[order]
    # prefix[k] = cost over the k smallest forecasts
    act_pre = np.concatenate(([0.0], np.cumsum((ev.weights * act)[order])))
    skip_pre = np.concatenate(([0.0], np.cumsum((ev.weights * skip)[order])))
    cands = np.unique(np.concatenate(([0.0, 1.0], t)))
    # >=-rule at tau': act on t >= tau'  -> k = #{t < tau'}
    k = np.searchsorted(t, cands, side="left")
    risks_ge = skip_pre[k] + (act_pre[-1] - act_pre[k])
    # <=-rule at tau': act on t <= tau'  -> k = #{t <= tau'}
    k = np.searchsorted(t, cands, side="right")
    risks_le = act_pre[k] + (skip_pre[-1] - skip_pre[k])
    monotone = min(float(risks_ge.min()), float(risks_le.min()), plug_in)
    return plug_in, bayes, monotone


def best_wrapper_risk(ev: DecisionEvalSet) -> float:
    """Plug-in Bayes risk: act on 1{mean >= tau}.

    Valid as the infimum over arbitrary wrappers when the forecast is
    injective on the evaluation set (the oracle simulation regime).
    """
    return risks(ev)[1]


def best_monotone_wrapper_risk(ev: DecisionEvalSet) -> float:
    """Exact minimum risk over monotone threshold rules (see risks)."""
    return risks(ev)[2]


def risk_gaps(ev: DecisionEvalSet) -> Tuple[float, float]:
    """(plug-in - Bayes, plug-in - best monotone) risk gaps, both >= 0."""
    plug_in, bayes, monotone = risks(ev)
    return plug_in - bayes, plug_in - monotone


def risk_st(forecasts, outcomes, ystar: float, weights=None) -> float:
    """Sign-testing risk: penalty |y - ystar| when the forecast sits on the
    wrong side of ystar. ystar, forecasts and outcomes must be in [0, 1],
    and forecasts and outcomes non-empty 1-D arrays of equal length."""
    _check_unit(f"ystar ({ystar!r})", ystar)
    t, y = _check_rows(forecasts, outcomes=outcomes)
    w = _normalised_weights(weights, t.shape)
    over = (y - ystar) * (t <= ystar) * (y > ystar)
    under = (ystar - y) * (t > ystar) * (y <= ystar)
    return float(np.dot(w, over + under))


def schervish_loss(mixture: DiscreteMixture, y: float, p: float) -> float:
    """Proper scoring rule assembled as a mixture of threshold losses."""
    return math.fsum(weight * loss_bd(y, int(p >= tau), tau)
                     for tau, weight in mixture.atoms)
