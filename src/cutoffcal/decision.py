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
    unless every tau is in [0, 1] and the weights are finite, non-negative
    and sum to 1 within 1e-12."""

    atoms: Tuple[Tuple[float, float], ...]  # (tau, weight)

    def __post_init__(self):
        taus, weights = np.array(self.atoms, dtype=float).reshape(
            len(self.atoms), 2).T
        _check_unit("mixture taus", taus)
        _check_weights("mixture weights", weights, taus.shape)
        total = math.fsum(weights)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"mixture weights sum to {total}, expected 1")


def loss_bd(y: float, yhat: int, tau: float) -> float:
    """Threshold loss: tau for a false positive, (1-tau) scaled by y for a miss."""
    return tau * (1.0 - y) * yhat + (1.0 - tau) * y * (1 - yhat)


def _rule_losses(ev: DecisionEvalSet, actions: np.ndarray) -> float:
    """Weighted average of loss_bd(mean, action, tau)."""
    tau = ev.tau
    losses = (tau * (1.0 - ev.means) * actions
              + (1.0 - tau) * ev.means * (1.0 - actions))
    return float(np.dot(ev.weights, losses))


def risk_bd(ev: DecisionEvalSet,
            rule: Optional[Callable[[np.ndarray], np.ndarray]] = None) -> float:
    """Plug-in risk of a forecast-threshold rule (default 1{t >= tau})."""
    if rule is None:
        actions = (ev.forecasts >= ev.tau).astype(float)
    else:
        actions = np.asarray(rule(ev.forecasts), dtype=float)
    return _rule_losses(ev, actions)


def best_wrapper_risk(ev: DecisionEvalSet) -> float:
    """Plug-in Bayes risk: act on 1{mean >= tau}.

    Valid as the infimum over arbitrary wrappers when the forecast is
    injective on the evaluation set (the oracle simulation regime).
    """
    return _rule_losses(ev, (ev.means >= ev.tau).astype(float))


def best_monotone_wrapper_risk(ev: DecisionEvalSet) -> float:
    """Exact minimum risk over monotone threshold rules.

    Candidate thresholds are {0, forecasts..., 1} plus tau itself (so the
    plug-in rule is always a candidate and gaps are nonnegative), each used
    both as 1{t >= tau'} and 1{t <= tau'}. Computed with prefix sums after
    sorting.
    """
    tau = ev.tau
    order = np.argsort(ev.forecasts, kind="stable")
    t = ev.forecasts[order]
    fp = (ev.weights * tau * (1.0 - ev.means))[order]        # cost when acting
    fn = (ev.weights * (1.0 - tau) * ev.means)[order]        # cost when passing
    # prefix[k] = sum over the k smallest forecasts
    fp_pre = np.concatenate([[0.0], np.cumsum(fp)])
    fn_pre = np.concatenate([[0.0], np.cumsum(fn)])
    fp_tot, fn_tot = fp_pre[-1], fn_pre[-1]

    cands = np.unique(np.concatenate([[0.0, 1.0, tau], t]))
    # >=-rule at tau': act on t >= tau'  -> k = #{t < tau'}
    k_ge = np.searchsorted(t, cands, side="left")
    risks_ge = fn_pre[k_ge] + (fp_tot - fp_pre[k_ge])
    # <=-rule at tau': act on t <= tau'  -> k = #{t <= tau'}
    k_le = np.searchsorted(t, cands, side="right")
    risks_le = fp_pre[k_le] + (fn_tot - fn_pre[k_le])
    return float(min(risks_ge.min(), risks_le.min()))


def risk_gaps(ev: DecisionEvalSet) -> Tuple[float, float]:
    """(plug-in risk - Bayes risk, plug-in risk - best monotone risk)."""
    base = risk_bd(ev)
    gap = base - best_wrapper_risk(ev)
    monotone_gap = base - best_monotone_wrapper_risk(ev)
    return gap, monotone_gap


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
