"""Command-line driver: audit, calibrate, certify, decide, simulate, and the
population logistic-rescaling counterexample. Each command returns its
JSON/CSV report and main writes it, to stdout or --out; exit codes 0 (ok),
2 (input error), 3 (internal error).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import traceback

from . import calibrate as cal
from . import decision as dec
from . import experiments as exp
from . import metrics as met
from .core import (SeededRng, ValidationError, grouped_from_arrays,
                   load_columns)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _metric_report(name, value, n, params=None, argmax_interval=None):
    return {
        "metric_name": name,
        "value": value,
        "n": n,
        "params": params or {},
        "argmax_interval": list(argmax_interval) if argmax_interval else None,
    }


def _lipschitz_report(name, data):
    lw = met.lipschitz_wce(data)
    return _metric_report(name, lw.objective, data.n,
                          {"certificate": lw.kkt_residual})


def _read_columns(path, oracle=False):
    """The file's columns; with oracle, the file must have oracle_mean."""
    cols = load_columns(path)
    if oracle and cols.oracle_means is None:
        raise ValidationError(f"{path} has no oracle_mean column")
    return cols


def _json(obj) -> str:
    """obj as one line of compact JSON, NaN refused. Without indent,
    json.dumps runs CPython's C encoder; with it, a pure-Python one at about
    3x the time. calibrate builds the same bytes itself, taking an isotonic
    map's breakpoints from CalibratorMap.to_json, one repr per distinct
    value."""
    return json.dumps(obj, allow_nan=False)


def cmd_audit(args) -> str:
    cols = _read_columns(args.input, oracle=args.oracle)
    data = grouped_from_arrays(cols.forecasts, cols.outcomes)
    est = met.cutoff_error(data)
    reports = [
        _metric_report("cutoff", est.value, data.n,
                       {"delta": args.delta,
                        "radius": met.concentration_radius(data.n,
                                                           args.delta)},
                       est.argmax_interval),
        _metric_report("binned_ece", met.binned_ece(data, args.bins), data.n,
                       {"bins": args.bins}),
        _lipschitz_report("lipschitz_wce", data),
    ]
    if args.oracle:
        odata = grouped_from_arrays(cols.forecasts, cols.oracle_means)
        oest = met.cutoff_error(odata)
        reports += [
            _metric_report("oracle_ece", met.oracle_ece(odata), odata.n),
            _metric_report("oracle_cutoff", oest.value, odata.n,
                           argmax_interval=oest.argmax_interval),
            _lipschitz_report("oracle_lipschitz_wce", odata),
        ]
    return _json({"reports": reports})


def cmd_calibrate(args) -> str:
    if args.epsilon is not None and args.method != "modified-platt":
        raise ValidationError("--epsilon applies only to --method "
                              "modified-platt")
    t, y, _ = _read_columns(args.input)
    if args.method == "isotonic":
        cmap = cal.fit_isotonic(t, y)
    elif args.method == "platt":
        cmap = cal.fit_platt(t, y)
    else:
        cmap = cal.fit_modified_platt(t, y, args.epsilon)
    parts = ['{"calibrator": ', cmap.to_json()]
    if args.test_input:
        t, y, _ = _read_columns(args.test_input)
        pre = met.cutoff_error(grouped_from_arrays(t, y)).value
        post = met.cutoff_error(
            grouped_from_arrays(cal.apply_map(cmap, t), y)).value
        parts += [', "evaluation": ', _json(
            {"pre_cutoff": pre, "post_cutoff": post, "n_test": len(t)})]
    return "".join(parts + ["}"])


def cmd_certify(args) -> str:
    cols = _read_columns(args.input)

    def pretrained(train_cov, train_y):
        # the file already carries model forecasts; the model is identity
        return lambda x: x

    seed = SeededRng(args.shuffle_seed) if args.shuffle_seed is not None else None
    verdict = cal.certify(cols.forecasts, cols.outcomes, pretrained,
                          args.c, args.delta, split_seed=seed)
    return _json(verdict.to_dict())


def cmd_decide(args) -> str:
    t, y, mu = _read_columns(args.input, oracle=True)
    risk, bayes, mono = dec.risks(t, mu, args.tau)
    result = {"risk": risk, "bayes_risk": bayes, "monotone_risk": mono,
              "gap": risk - bayes, "monotone_gap": risk - mono}
    if args.ystar is not None:
        result["sign_testing_risk"] = dec.risk_st(t, y, args.ystar)
    return _json(result)


def cmd_simulate(args) -> str:
    config = exp.SimulationConfig(runs=args.runs, n_train=args.n_train,
                                  n_eval=args.n_eval, tau=args.tau,
                                  master_seed=args.seed)
    records = exp.run_simulation(config)
    fields = [f.name for f in dataclasses.fields(exp.SimulationRunRecord)]
    rows = [fields] + [[str(getattr(rec, f)) for f in fields]
                       for rec in records]
    return "\n".join(map(",".join, rows))


def cmd_counterexample(args) -> str:
    atoms, (a, b), wce = exp.platt_counterexample()
    return _json({
        "atoms": [{"forecast": t, "conditional_mean": q, "mass": m}
                  for t, q, m in atoms],
        "population_platt": {"a": a, "b": b},
        "certified_wce": wce,
        "implied_dce_lower_bound": wce / 2.0,
    })


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="cutoffcal",
                                description="Calibration audit toolkit")
    sub = p.add_subparsers(dest="command", required=True)
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out")

    a = sub.add_parser("audit", parents=[out],
                       help="compute calibration metrics on a CSV")
    a.add_argument("input")
    a.add_argument("--delta", type=float, default=0.05)
    a.add_argument("--bins", type=int, default=10)
    a.add_argument("--oracle", action="store_true")
    a.set_defaults(func=cmd_audit)

    c = sub.add_parser("calibrate", parents=[out],
                       help="fit a post-hoc calibrator")
    c.add_argument("input")
    c.add_argument("--method", choices=["isotonic", "platt", "modified-platt"],
                   required=True)
    c.add_argument("--epsilon", type=float, default=None)
    c.add_argument("--test-input", help="held-out CSV for pre/post audit")
    c.set_defaults(func=cmd_calibrate)

    ce = sub.add_parser("certify", parents=[out],
                        help="two-stage certification of forecasts")
    ce.add_argument("input")
    ce.add_argument("--c", type=float, required=True)
    ce.add_argument("--delta", type=float, default=0.05)
    ce.add_argument("--shuffle-seed", type=int, default=None)
    ce.set_defaults(func=cmd_certify)

    d = sub.add_parser("decide", parents=[out],
                       help="risk gaps on an oracle CSV")
    d.add_argument("input")
    d.add_argument("--tau", type=float, required=True)
    d.add_argument("--ystar", type=float, default=None)
    d.set_defaults(func=cmd_decide)

    s = sub.add_parser("simulate", parents=[out],
                       help="misspecified-logistic simulation")
    cfg = exp.SimulationConfig  # the options' defaults are its fields'
    s.add_argument("--runs", type=int, default=cfg.runs)
    s.add_argument("--n-train", type=int, default=cfg.n_train)
    s.add_argument("--n-eval", type=int, default=cfg.n_eval)
    s.add_argument("--tau", type=float, default=cfg.tau)
    s.add_argument("--seed", type=int, default=cfg.master_seed)
    s.set_defaults(func=cmd_simulate)

    x = sub.add_parser("counterexample-platt", parents=[out],
                       help="population logistic-rescaling counterexample")
    x.set_defaults(func=cmd_counterexample)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text = args.func(args)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        else:
            print(text)
        return EXIT_OK
    except (ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as e:
        traceback.print_exc(file=sys.stderr)
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
