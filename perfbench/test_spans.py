"""Self-time arithmetic of the benchmark's spans.

    python3 -m pytest perfbench/test_spans.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from spans import Span, Tracer, layer_totals, self_times  # noqa: E402


def _span(name, layer, start, end, parent=None, **attrs):
    return Span(name, layer, start, end, parent, attrs)


def test_leaf_self_time_is_its_duration():
    assert self_times([_span("pii.tuned_solution", "pii", 1.0, 4.0)]) == [3.0]


def test_children_are_subtracted_from_the_parent():
    spans = [
        _span("round", "bench", 0.0, 10.0),
        _span("pii.v", "pii", 1.0, 3.0, parent=0),
        _span("integrals.v_hat", "integrals", 4.0, 8.5, parent=0),
    ]
    assert self_times(spans) == [3.5, 2.0, 4.5]


def test_overlapping_and_overhanging_children_count_once():
    spans = [
        _span("pair", "bench", 0.0, 10.0),
        _span("a", "pii", 2.0, 6.0, parent=0),
        _span("b", "pii", 5.0, 7.0, parent=0),   # overlaps a by 1
        _span("c", "pii", 9.0, 12.0, parent=0),  # runs past the parent's end
    ]
    assert self_times(spans)[0] == 10.0 - (5.0 + 1.0)


def test_grandchildren_only_reduce_their_own_parent():
    spans = [
        _span("round", "bench", 0.0, 10.0),
        _span("pair", "bench", 1.0, 9.0, parent=0),
        _span("cli.emit_grid", "cli", 2.0, 5.0, parent=1),
    ]
    assert self_times(spans) == [2.0, 5.0, 3.0]


def test_layer_totals_sum_self_time_and_batched_calls():
    spans = [
        _span("round", "bench", 0.0, 10.0),
        _span("specfun.pcf_d", "specfun", 1.0, 2.0, parent=0, n=100),
        _span("specfun.airy_ai", "specfun", 3.0, 3.5, parent=0, n=28),
        _span("rh_verify.stationary_identity", "rh_verify", 4.0, 7.0, parent=0),
    ]
    totals = layer_totals(spans)
    assert totals["specfun"] == (128, 1.5)
    assert totals["rh_verify"] == (1, 3.0)
    assert totals["bench"] == (1, 5.5)


def test_tracer_records_nesting_and_is_silent_when_off():
    tracer = Tracer(True)
    with tracer.span("round", "bench"):
        with tracer.span("pii.v", "pii", points=5):
            pass
    assert [s.parent for s in tracer.spans] == [None, 0]
    assert tracer.spans[1].attrs == {"points": 5}
    assert all(s.end >= s.start for s in tracer.spans)
    off = Tracer(False)
    with off.span("pii.v", "pii") as span:
        assert span is None
    assert off.spans == []


if __name__ == "__main__":
    import pytest
    sys.exit(pytest.main([__file__, "-q"]))
