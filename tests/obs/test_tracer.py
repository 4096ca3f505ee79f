"""Unit coverage for the structured tracer: emission, filtering, ring
eviction, ordered readout, JSONL round-trips, and the null tracer's
zero-cost contract."""

import json

import pytest

from repro.obs.trace import (
    CATEGORIES,
    NULL_TRACER,
    TRACE_JSONL_SCHEMA,
    NullTracer,
    TraceEvent,
    Tracer,
    load_jsonl,
)


class FakeSim:
    def __init__(self, now=0.0):
        self.now = now


def test_emit_records_seq_time_and_category():
    tr = Tracer()
    ev = tr.emit("gateway.elect", node=4, t=1.5, cell=(2, 3))
    assert isinstance(ev, TraceEvent)
    assert (ev.seq, ev.t, ev.name, ev.category, ev.node) == (
        1, 1.5, "gateway.elect", "gateway", 4
    )
    assert ev.fields == {"cell": (2, 3)}
    assert tr.count("gateway") == 1


def test_emit_defaults_to_the_bound_simulators_clock():
    tr = Tracer()
    assert tr.emit("page.sent", node=1).t == 0.0  # unbound: t=0
    sim = FakeSim(now=42.25)
    tr.bind(sim)
    assert tr.emit("page.sent", node=1).t == 42.25


def test_disabled_category_drops_the_event():
    tr = Tracer(categories=("gateway",))
    assert tr.gateway and not tr.page
    assert tr.emit("page.sent", node=1) is None
    assert tr.count("page") == 0
    assert tr.enabled_categories() == ("gateway",)


def test_enable_disable_toggle_the_guard_flags():
    tr = Tracer(categories=("gateway",))
    tr.enable("page")
    assert tr.emit("page.sent", node=1) is not None
    tr.disable("page", "gateway")
    assert tr.emit("gateway.elect", node=1) is None
    with pytest.raises(ValueError):
        tr.enable("bogus")
    with pytest.raises(ValueError):
        tr.disable("bogus")


def test_unknown_categories_fail_loudly():
    with pytest.raises(ValueError, match="unknown trace categories"):
        Tracer(categories=("gateway", "nope"))
    tr = Tracer()
    with pytest.raises(ValueError, match="no known category"):
        tr.emit("nonsense.event")


def test_ring_eviction_counts_and_keeps_the_newest():
    tr = Tracer(ring=4)
    for i in range(6):
        tr.emit("drop.no_route", node=i, t=float(i))
    assert tr.count("drop") == 4
    assert tr.evicted["drop"] == 2
    assert [e.node for e in tr.events("drop")] == [2, 3, 4, 5]


def test_events_merge_categories_in_emission_order():
    tr = Tracer()
    tr.emit("gateway.elect", node=1, t=1.0)
    tr.emit("page.sent", node=2, t=2.0)
    tr.emit("gateway.demote", node=1, t=3.0)
    merged = tr.events()
    assert [e.name for e in merged] == [
        "gateway.elect", "page.sent", "gateway.demote"
    ]
    assert [e.seq for e in merged] == [1, 2, 3]
    assert tr.counts() == {"gateway": 2, "page": 1}


def test_jsonl_round_trip_restores_events_exactly(tmp_path):
    tr = Tracer(categories=("gateway", "cell"))
    tr.emit("gateway.elect", node=3, t=1.25, cell=(1, 2), enat=7.5)
    tr.emit("cell.enter", node=5, t=2.0, cell=(0, 1))
    tr.emit("gateway.demote", node=3, t=4.0, reason="retire")
    path = str(tmp_path / "trace.jsonl")
    written = tr.export_jsonl(path)
    assert written == 3

    header, events = load_jsonl(path)
    assert header["schema"] == TRACE_JSONL_SCHEMA
    assert header["kind"] == "ecgrid-trace"
    assert header["categories"] == ["gateway", "cell"]
    assert header["counts"] == {"gateway": 2, "cell": 1}
    # Tuples (grid cells) survive the JSON round-trip.
    assert events == tr.events()
    assert events[0].fields["cell"] == (1, 2)


def test_load_jsonl_rejects_foreign_and_stale_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty trace"):
        load_jsonl(str(empty))

    foreign = tmp_path / "foreign.jsonl"
    foreign.write_text(json.dumps({"kind": "something-else"}) + "\n")
    with pytest.raises(ValueError, match="not an ecgrid trace"):
        load_jsonl(str(foreign))

    stale = tmp_path / "stale.jsonl"
    stale.write_text(
        json.dumps({"kind": "ecgrid-trace", "schema": TRACE_JSONL_SCHEMA + 1})
        + "\n"
    )
    with pytest.raises(ValueError, match="schema"):
        load_jsonl(str(stale))


def test_subscribe_force_enables_and_deduplicates():
    class Probe:
        categories = ("page",)

        def __init__(self):
            self.seen = []

        def on_event(self, event):
            self.seen.append(event.name)

    tr = Tracer(categories=("gateway",))
    probe = Probe()
    tr.subscribe(probe)
    tr.subscribe(probe)  # idempotent
    assert tr.page
    tr.emit("page.sent", node=1)
    assert probe.seen == ["page.sent"]
    tr.unsubscribe(probe)
    tr.emit("page.sent", node=1)
    assert probe.seen == ["page.sent"]
    assert tr.page  # the category stays enabled


def test_null_tracer_is_fully_dark():
    assert not NULL_TRACER.active
    for category in CATEGORIES:
        assert getattr(NULL_TRACER, category) is False
    assert NULL_TRACER.emit("gateway.elect", node=1) is None
    assert NULL_TRACER.bind(object()) is None
    with pytest.raises(RuntimeError, match="null tracer"):
        NullTracer().subscribe(object())
