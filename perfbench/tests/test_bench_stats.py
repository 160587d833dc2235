"""Median and tail-percentile reporting, and metric names."""

import json
import re
from pathlib import Path

import pytest

import run
import traced
from stats import summarize, tail_percentile
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def test_median_with_sample_count():
    s = summarize([3.0, 1.0, 2.0, 10.0])
    assert s == {"median": 2.5, "n": 4, "tail": None}


def test_tail_has_ten_samples_beyond_it():
    assert tail_percentile(20) is None
    assert tail_percentile(21) == 52
    assert tail_percentile(100) == 90
    assert tail_percentile(1000) == 99
    values = list(range(1, 101))
    s = summarize(values)
    assert s["tail"] == {"percentile": 90, "value": 90}
    assert sum(v > s["tail"]["value"] for v in values) == 10


def test_summarize_rejects_no_samples():
    with pytest.raises(ValueError):
        summarize([])


def test_metric_names_and_units():
    names = list(run.END_TO_END) + list(traced.PER_LAYER)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*run.END_TO_END.values(), *traced.PER_LAYER.values()]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", unit), unit


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads(BENCHMARK.read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        traced.PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == \
        sorted(WORKLOADS)
