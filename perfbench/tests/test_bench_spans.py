"""Span recording and self time."""

import pytest

from spans import Span, Tracer, self_by_name, self_times


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, "cli.main", 0.0, 10.0, None, 0),
        Span(1, "core.load_samples", 1.0, 4.0, 0, 0),
        Span(2, "metrics.lipschitz_wce", 5.0, 9.0, 0, 0),
        Span(3, "metrics.cutoff_error", 6.0, 7.0, 2, 0),
    ]
    own = self_times(spans)
    assert own == {0: 3.0, 1: 3.0, 2: 3.0, 3: 1.0}
    assert sum(own.values()) == 10.0


def test_self_time_counts_overlapping_children_once():
    spans = [Span(0, "a.f", 0.0, 10.0, None, 0),
             Span(1, "b.g", 2.0, 6.0, 0, 0),
             Span(2, "b.h", 4.0, 8.0, 0, 0)]
    assert self_times(spans)[0] == 4.0


def test_tracer_records_parents_invocations_and_self_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    def outer():
        clock.now += 1.0
        wrapped_inner()
        clock.now += 1.0

    wrapped_inner = tracer.wrap(inner, "core.inner")
    wrapped_outer = tracer.wrap(outer, "cli.outer")
    for invocation in (0, 1):
        tracer.invocation = invocation
        wrapped_outer()
    by_name = {(s.invocation, s.name): s for s in tracer.spans}
    assert by_name[(0, "core.inner")].parent == by_name[(0, "cli.outer")].id
    assert by_name[(1, "cli.outer")].parent is None
    own = self_by_name(tracer.spans)
    assert own[0] == own[1] == {"cli.outer": 2.0, "core.inner": 2.0}


def test_tracer_counts_errors_by_layer_and_reraises():
    tracer = Tracer(FakeClock())

    def bad():
        raise ValueError("bad input")

    with pytest.raises(ValueError):
        tracer.wrap(bad, "core.load_samples")()
    assert tracer.counts[(0, "core.errors")] == 1
    assert len(tracer.spans) == 1


def test_patch_and_restore():
    class Owner:
        f = staticmethod(lambda: 1)

    tracer = Tracer(FakeClock())
    original = Owner.f
    tracer.patch(Owner, "f", tracer.counter(original, "calls"))
    Owner.f()
    Owner.f()
    tracer.restore()
    assert Owner.f is original
    assert tracer.counts[(0, "calls")] == 2
