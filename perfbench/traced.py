"""In-process traced run of one CLI argv, and the per-layer metrics.

Run as a script in a child with the benchmark's pinned environment:

    python3 perfbench/traced.py --seconds S --outdir DIR -- <cutoffcal argv>

After one untraced warm-up call, it calls cutoffcal.cli.main(argv) for S
seconds, alternating an untraced call with a traced one. A traced call
goes through wrappers that this file installs over each layer's public
functions, under every name a caller in the package sees. It writes DIR/trace.json with the spans, the
counts, every call's wall time and exit code, and the per-layer metrics of
each traced call. Each call's stdout goes to its own file in DIR.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from spans import Tracer, self_by_name

PACKAGE = "cutoffcal"
LAYERS = ("core", "metrics", "calibrate", "decision", "experiments", "cli")

# name -> unit; the order is the order of the benchmark's output
PER_LAYER = {
    "core.load_samples_s": "s",
    "core.rows": "count",
    "core.group_by_forecast_s": "s",
    "core.groups": "count",
    "core.tie_frac": "ratio",
    "core.grouped_from_arrays_s": "s",
    "metrics.lipschitz_wce_s": "s",
    "metrics.lipschitz_wce_calls": "count",
    "metrics.lipschitz_wce_groups": "count",
    "metrics.lp_solves_per_call": "ratio",
    "metrics.kkt_residual_max": "abs",
    "metrics.cutoff_error_s": "s",
    "metrics.binned_ece_s": "s",
    "metrics.oracle_ece_s": "s",
    "calibrate.fit_isotonic_s": "s",
    "calibrate.apply_map_s": "s",
    "calibrate.breakpoints": "count",
    "decision.risk_s": "s",
    "experiments.run_simulation_self_s": "s",
    "experiments.fit_success_ratio": "ratio",
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    **{f"{layer}.errors": "count" for layer in LAYERS},
    "trace.overhead_frac": "ratio",
}

RISKS = ("decision.risk_bd", "decision.best_wrapper_risk",
         "decision.best_monotone_wrapper_risk")


def _grouped(tracer, args, result):
    tracer.add("core.groups", len(result))
    tracer.add("core.grouped_rows", result.n)


def _lipschitz(tracer, args, result):
    tracer.add("metrics.lipschitz_wce_calls")
    tracer.add("metrics.lipschitz_wce_groups", len(args[0]))
    tracer.maximum("metrics.kkt_residual_max", result.kkt_residual)


def _simulation(tracer, args, result):
    tracer.add("experiments.runs", len(result))
    tracer.add("experiments.refits", sum(r.refits for r in result))


OBSERVERS = {
    "core.load_samples":
        lambda tracer, args, result: tracer.add("core.rows", len(result)),
    "core.group_by_forecast": _grouped,
    "core.grouped_from_arrays": _grouped,
    "metrics.lipschitz_wce": _lipschitz,
    "calibrate.fit_isotonic":
        lambda tracer, args, result: tracer.add("calibrate.breakpoints",
                                                len(result.breakpoints)),
    "experiments.run_simulation": _simulation,
}


def install(tracer: Tracer):
    """Wrap each layer's public functions wherever the package refers to
    them, and count `cutoffcal.metrics.linprog` calls if that name exists."""
    layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}")
              for layer in LAYERS}
    wrapped = {}
    for layer, module in layers.items():
        for attr, fn in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(fn)
                    and fn.__module__ == module.__name__):
                name = f"{layer}.{attr}"
                wrapped[fn] = tracer.wrap(fn, name, OBSERVERS.get(name))
    modules = [m for n, m in sys.modules.items()
               if n == PACKAGE or n.startswith(PACKAGE + ".")]
    for module in modules:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                tracer.patch(module, attr, wrapped[value])
    if hasattr(layers["metrics"], "linprog"):
        tracer.patch(layers["metrics"], "linprog",
                     tracer.counter(layers["metrics"].linprog,
                                    "metrics.linprog_calls"))


def layer_metrics(tracer: Tracer, invocation: int, output_bytes: int) -> dict:
    """Per-layer metrics of one traced call (all but trace.overhead_frac)."""
    own = self_by_name(tracer.spans).get(invocation, {})

    def count(name):
        return tracer.counts.get((invocation, name), 0.0)

    lp_calls = count("metrics.lipschitz_wce_calls")
    rows = count("core.grouped_rows")
    runs = count("experiments.runs")
    out = {
        "core.load_samples_s": own.get("core.load_samples", 0.0),
        "core.rows": count("core.rows"),
        "core.group_by_forecast_s": own.get("core.group_by_forecast", 0.0),
        "core.groups": count("core.groups"),
        "core.tie_frac": 1.0 - count("core.groups") / rows if rows else 0.0,
        "core.grouped_from_arrays_s": own.get("core.grouped_from_arrays",
                                              0.0),
        "metrics.lipschitz_wce_s": own.get("metrics.lipschitz_wce", 0.0),
        "metrics.lipschitz_wce_calls": lp_calls,
        "metrics.lipschitz_wce_groups": count("metrics.lipschitz_wce_groups"),
        "metrics.lp_solves_per_call":
            count("metrics.linprog_calls") / lp_calls if lp_calls else 0.0,
        "metrics.kkt_residual_max": count("metrics.kkt_residual_max"),
        "metrics.cutoff_error_s": own.get("metrics.cutoff_error", 0.0),
        "metrics.binned_ece_s": own.get("metrics.binned_ece", 0.0),
        "metrics.oracle_ece_s": own.get("metrics.oracle_ece", 0.0),
        "calibrate.fit_isotonic_s": own.get("calibrate.fit_isotonic", 0.0),
        "calibrate.apply_map_s": own.get("calibrate.apply_map", 0.0),
        "calibrate.breakpoints": count("calibrate.breakpoints"),
        "decision.risk_s": sum(own.get(n, 0.0) for n in RISKS),
        "experiments.run_simulation_self_s":
            own.get("experiments.run_simulation", 0.0),
        "experiments.fit_success_ratio":
            runs / (runs + count("experiments.refits")) if runs else 0.0,
        "cli.self_s": sum(v for n, v in own.items() if n.startswith("cli.")),
        "cli.output_bytes": output_bytes,
    }
    for layer in LAYERS:
        out[f"{layer}.errors"] = count(f"{layer}.errors")
    return out


def _call(cli, argv, out_path: Path):
    with open(out_path, "w") as fh, contextlib.redirect_stdout(fh):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse rejects the argv
            code = e.code
        wall = time.perf_counter() - start
    return wall, code


def run(argv, seconds: float, outdir: Path) -> dict:
    tracer = Tracer()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    calls, metrics = [], []

    def call(traced, warmup=False):
        out_path = outdir / f"out-{len(calls)}.txt"
        if traced:
            tracer.invocation = len(calls)
            install(tracer)
            try:
                wall, code = _call(cli, argv, out_path)
            finally:
                tracer.restore()
            metrics.append(layer_metrics(tracer, len(calls),
                                         out_path.stat().st_size))
        else:
            wall, code = _call(cli, argv, out_path)
        calls.append({"traced": traced, "warmup": warmup, "wall_s": wall,
                      "exit": code, "output": out_path.name})

    # the first call in a process pays one-time costs; keep it out of the
    # traced/untraced comparison
    call(False, warmup=True)
    began = time.perf_counter()
    pair = 0
    while pair == 0 or time.perf_counter() - began < seconds:
        # alternate which of the two calls goes first
        for traced in ((False, True) if pair % 2 == 0 else (True, False)):
            call(traced)
        pair += 1
    return {
        "calls": calls,
        "metrics": metrics,
        "spans": [asdict(s) for s in tracer.spans],
        "counts": [{"invocation": i, "name": n, "value": v}
                   for (i, n), v in tracer.counts.items()],
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--outdir", type=Path, required=True)
    p.add_argument("argv", nargs=argparse.REMAINDER)
    args = p.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    result = run(argv, args.seconds, args.outdir)
    (args.outdir / "trace.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
