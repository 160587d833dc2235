"""Independent references for the program's outputs.

Every reference is computed from the generated inputs with code that shares
nothing with the program: exact rational prefix scans over math.fsum group
sums, a direct numpy binned ECE, the Lipschitz LP in its own formulation
solved with HiGHS, and scipy's isotonic regression. A check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
from scipy import sparse
from scipy.optimize import isotonic_regression, linprog

SCAN_TOL = 1e-12
ECE_TOL = 1e-12
LP_TOL = 1e-9
ISO_TOL = 1e-12
RISK_TOL = 1e-12

SIMULATE_FIELDS = ("alpha", "cutoff", "ece", "lipschitz_wce", "risk",
                   "bayes_risk", "monotone_risk", "gap", "monotone_gap",
                   "seed", "refits")


class ExactGroups:
    """Rows pooled by bitwise-equal forecast, with exact prefix sums.

    A group's residual sum is fsum(targets) - count * forecast. Every float
    is a dyadic rational, so the sums are held as integers over one common
    power-of-two denominator and the prefix sums carry no rounding at all.
    """

    def __init__(self, forecasts, targets):
        t = np.asarray(forecasts, dtype=float)
        v = np.asarray(targets, dtype=float)
        order = np.argsort(t, kind="stable")
        t, v = t[order], v[order]
        self.forecasts, start, counts = np.unique(
            t, return_index=True, return_counts=True)
        self.n = len(t)
        sums = [Fraction(math.fsum(v[a:a + c])) - c * Fraction(g)
                for a, c, g in zip(start.tolist(), counts.tolist(),
                                   self.forecasts.tolist())]
        self.den = max(s.denominator for s in sums)
        self.nums = [s.numerator * (self.den // s.denominator) for s in sums]
        self.prefix = [0, *itertools.accumulate(self.nums)]

    def __len__(self):
        return len(self.nums)

    def _mean(self, num) -> float:
        return float(Fraction(num, self.den * self.n))

    def scan(self) -> float:
        """Largest |sum over a contiguous group range| / n."""
        return self._mean(max(self.prefix) - min(self.prefix))

    def range_mean(self, lo, hi) -> float:
        """|sum over groups lo..hi (inclusive)| / n."""
        return self._mean(abs(self.prefix[hi + 1] - self.prefix[lo]))

    def abs_mean(self) -> float:
        """Sum of |group residual sum| / n, the oracle ECE."""
        return self._mean(sum(map(abs, self.nums)))

    def residuals(self) -> np.ndarray:
        """Group residual sums / n, rounded once to float."""
        return np.array([self._mean(x) for x in self.nums])

    def check_scan(self, value, interval, label) -> list:
        problems = []
        ref = self.scan()
        if not abs(value - ref) <= SCAN_TOL:
            problems.append(f"{label}: {value!r} != exact scan {ref!r}")
        if interval is None:
            if ref != 0.0:
                problems.append(f"{label}: no argmax interval, scan is {ref!r}")
            return problems
        lo, hi = interval
        if not (0 <= lo <= hi < len(self)):
            problems.append(f"{label}: argmax interval {interval} out of range "
                            f"for {len(self)} groups")
        elif not abs(self.range_mean(lo, hi) - value) <= SCAN_TOL:
            problems.append(f"{label}: argmax interval {interval} attains "
                            f"{self.range_mean(lo, hi)!r}, not {value!r}")
        return problems


def binned_ece(forecasts, outcomes, bins) -> float:
    """Row-level equal-width binned ECE on [0,1/N], (1/N,2/N], ..."""
    t = np.asarray(forecasts, dtype=float)
    y = np.asarray(outcomes, dtype=float)
    idx = np.clip(np.ceil(t * bins).astype(int), 1, bins) - 1
    gap = np.bincount(idx, weights=y - t, minlength=bins)
    return float(np.abs(gap).sum() / len(t))


def lipschitz_lp(groups: ExactGroups) -> float:
    """max r.w over |w_j| <= 1, |w_{j+1} - w_j| <= dt_j, solved with HiGHS.

    The adjacent differences are variables of their own, bounded by dt and
    tied to w by equalities, which is a different LP from the program's
    pair of inequality rows per difference.
    """
    r = groups.residuals()
    m = len(r)
    if m == 1:
        return abs(float(r[0]))
    k = m - 1
    dt = np.diff(groups.forecasts)
    # variables [w, d] with w_{j+1} - w_j - d_j = 0
    diff = sparse.diags([-np.ones(k), np.ones(k)], [0, 1], shape=(k, m))
    A = sparse.hstack([diff, -sparse.identity(k)]).tocsc()
    bounds = np.concatenate([np.tile([-1.0, 1.0], (m, 1)),
                             np.column_stack([-dt, dt])])
    res = linprog(np.concatenate([-r, np.zeros(k)]), A_eq=A, b_eq=np.zeros(k),
                  bounds=bounds, method="highs-ipm")
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def _close(label, value, ref, tol) -> list:
    if isinstance(value, (int, float)) and abs(value - ref) <= tol:
        return []
    return [f"{label}: {value!r} differs from reference {ref!r} by more "
            f"than {tol:g}"]


class AuditReference:
    """Expected `audit` report for one input file."""

    def __init__(self, forecasts, outcomes, bins, delta, oracle=None):
        self.n = len(forecasts)
        self.delta = delta
        self.scans = {"cutoff": ExactGroups(forecasts, outcomes)}
        self.expected = {
            "binned_ece": (binned_ece(forecasts, outcomes, bins), ECE_TOL),
            "lipschitz_wce": (lipschitz_lp(self.scans["cutoff"]), LP_TOL),
        }
        if oracle is not None:
            og = ExactGroups(forecasts, oracle)
            self.scans["oracle_cutoff"] = og
            self.expected["oracle_ece"] = (og.abs_mean(), ECE_TOL)
            self.expected["oracle_lipschitz_wce"] = (lipschitz_lp(og),
                                                     LP_TOL)

    def check(self, output: bytes) -> list:
        try:
            reports = {r["metric_name"]: r
                       for r in json.loads(output)["reports"]}
        except (ValueError, KeyError, TypeError) as e:
            return [f"unreadable audit report: {e!r}"]
        want = set(self.scans) | set(self.expected)
        if set(reports) != want:
            return [f"report names {sorted(reports)} != {sorted(want)}"]
        problems = []
        for name, rep in reports.items():
            if rep.get("n") != self.n:
                problems.append(f"{name}: n={rep.get('n')!r}, not {self.n}")
        for name, groups in self.scans.items():
            rep = reports[name]
            problems += groups.check_scan(rep["value"], rep["argmax_interval"],
                                          name)
        for name, (ref, tol) in self.expected.items():
            problems += _close(name, reports[name]["value"], ref, tol)
        radius = (20.0 + math.sqrt(2.0 * math.log(1.0 / self.delta))) \
            / math.sqrt(self.n)
        problems += _close("cutoff radius",
                           reports["cutoff"]["params"].get("radius"), radius,
                           1e-15)
        return problems


class IsotonicReference:
    """Expected `calibrate --method isotonic --test-input` output."""

    def __init__(self, forecasts, outcomes, test_forecasts, test_outcomes):
        self.inputs, inv = np.unique(forecasts, return_inverse=True)
        w = np.bincount(inv).astype(float)
        ybar = np.bincount(inv, weights=outcomes) / w
        self.values = isotonic_regression(ybar, weights=w).x
        self.t_test = np.asarray(test_forecasts, dtype=float)
        self.y_test = np.asarray(test_outcomes, dtype=float)
        self.pre = ExactGroups(self.t_test, self.y_test).scan()

    def check(self, output: bytes) -> list:
        try:
            obj = json.loads(output)
            cal, ev = obj["calibrator"], obj["evaluation"]
            bp = np.array(cal["breakpoints"], dtype=float).reshape(-1, 2)
        except (ValueError, KeyError, TypeError) as e:
            return [f"unreadable calibrate output: {e!r}"]
        if cal.get("kind") != "isotonic":
            return [f"calibrator kind {cal.get('kind')!r}, not isotonic"]
        xs, vs = bp[:, 0], bp[:, 1]
        if len(xs) != len(self.inputs) or not np.array_equal(xs, self.inputs):
            return ["breakpoint inputs differ from the distinct forecasts"]
        problems = []
        down = np.flatnonzero(np.diff(vs) < 0)
        if len(down):
            problems.append(f"non-monotone breakpoint at index {down[0] + 1}")
        if not (np.all(vs >= 0.0) and np.all(vs <= 1.0)):
            problems.append("breakpoint values outside [0, 1]")
        err = float(np.max(np.abs(vs - self.values)))
        if not err <= ISO_TOL:
            problems.append(f"breakpoint values differ from scipy isotonic "
                            f"regression by {err:g}")
        if ev.get("n_test") != len(self.t_test):
            problems.append(f"n_test={ev.get('n_test')!r}")
        problems += _close("pre_cutoff", ev.get("pre_cutoff"), self.pre,
                           SCAN_TOL)
        # post-calibration scan of the reported map (the map itself is
        # checked against scipy above)
        idx = np.clip(np.searchsorted(xs, self.t_test, side="right") - 1,
                      0, len(xs) - 1)
        post = ExactGroups(vs[idx], self.y_test).scan()
        problems += _close("post_cutoff", ev.get("post_cutoff"), post,
                           SCAN_TOL)
        return problems


class SimulateReference:
    """Invariants of `simulate` records, and bitwise repeatability."""

    def __init__(self, runs):
        self.runs = runs
        self.first = None

    def check(self, output: bytes) -> list:
        if self.first is None:
            self.first = output
        problems = []
        if output != self.first:
            problems.append("output differs from an earlier run of this seed")
        try:
            rows = list(csv.reader(io.StringIO(output.decode())))
            header, records = tuple(rows[0]), rows[1:]
            if header != SIMULATE_FIELDS:
                return problems + [f"header {header} != {SIMULATE_FIELDS}"]
            records = [dict(zip(header, map(float, r))) for r in records]
        except (ValueError, IndexError, UnicodeDecodeError) as e:
            return problems + [f"unreadable simulate output: {e!r}"]
        if len(records) != self.runs:
            problems.append(f"{len(records)} records, not {self.runs}")
        for i, r in enumerate(records):
            problems += [f"record {i}: {p}" for p in _record_problems(r, i)]
        return problems


def _record_problems(r, index) -> list:
    if not all(math.isfinite(v) for v in r.values()):
        return ["non-finite field"]
    tol = RISK_TOL
    rules = {
        "0 <= cutoff <= ece": 0.0 <= r["cutoff"] <= r["ece"] + tol,
        # the LP value is certified to LP_TOL only; 1.5e-12 above ece has
        # been seen where the bound is tight
        "0 <= lipschitz_wce <= ece":
            0.0 <= r["lipschitz_wce"] <= r["ece"] + LP_TOL,
        "bayes_risk <= monotone_risk <= risk":
            r["bayes_risk"] <= r["monotone_risk"] + tol
            and r["monotone_risk"] <= r["risk"] + tol,
        "gap = risk - bayes_risk":
            abs(r["gap"] - (r["risk"] - r["bayes_risk"])) <= tol,
        "monotone_gap = risk - monotone_risk":
            abs(r["monotone_gap"] - (r["risk"] - r["monotone_risk"])) <= tol,
        "seed is the run index": r["seed"] == index,
        "refits is a count": r["refits"] >= 0 and r["refits"] % 1 == 0,
    }
    return [f"violates {rule}" for rule, ok in rules.items() if not ok]
