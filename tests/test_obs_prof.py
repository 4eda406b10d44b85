"""Tests for the phase-attributed self-profiler (``repro.obs.prof``).

Synthetic span trees use the injectable span clock so every duration —
and therefore every exclusive/inclusive attribution — is exact.
"""

import json

import pytest

from repro import obs
from repro.core.planner import Hetero2PipePlanner
from repro.hardware.soc import get_soc
from repro.models.zoo import get_model
from repro.obs import prof
from repro.obs.spans import set_clock


class FakeClock:
    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, seconds):
        self.now += seconds


@pytest.fixture
def fake_clock():
    clock = FakeClock()
    previous = set_clock(clock)
    yield clock
    set_clock(previous)


@pytest.fixture
def recorder():
    with obs.use_recorder(obs.InMemoryRecorder()) as rec:
        yield rec


def _record_plan_like_tree(clock):
    """A deterministic miniature of the planner's span tree.

    plan (total 100 ms)
      plan.partition      10 ms
      plan.mitigate        5 ms
      plan.vertical       70 ms           -> stealing
        plan.steal        20 ms           -> stealing (nested, same phase)
        plan.objective    40 ms
      (plan glue: 15 ms exclusive)
    """
    with obs.span("plan") as root:
        with obs.span("plan.partition"):
            clock.tick(0.010)
        with obs.span("plan.mitigate"):
            clock.tick(0.005)
        with obs.span("plan.vertical"):
            with obs.span("plan.steal"):
                clock.tick(0.020)
            with obs.span("plan.objective"):
                clock.tick(0.040)
            clock.tick(0.010)
        clock.tick(0.015)
    return root


class TestProfileSpans:
    def test_exclusive_times_partition_the_total(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        profile = prof.profile_spans(recorder.spans)
        assert profile.total_ms == pytest.approx(100.0)
        summed = sum(p.exclusive_ms for p in profile.phases.values())
        assert summed == pytest.approx(profile.total_ms)

    def test_phase_attribution(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        profile = prof.profile_spans(recorder.spans)
        phases = profile.phases
        assert phases["partition"].exclusive_ms == pytest.approx(10.0)
        assert phases["mitigation"].exclusive_ms == pytest.approx(5.0)
        # stealing: vertical self (10) + steal (20); inclusive counted
        # once at the top-most stealing span (the whole vertical: 70).
        assert phases["stealing"].exclusive_ms == pytest.approx(30.0)
        assert phases["stealing"].inclusive_ms == pytest.approx(70.0)
        assert phases["objective"].exclusive_ms == pytest.approx(40.0)
        # plan root glue is unattributed.
        assert phases["other"].exclusive_ms == pytest.approx(15.0)
        assert profile.attributed_frac == pytest.approx(0.85)

    def test_span_stats(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        profile = prof.profile_spans(recorder.spans)
        steal = profile.spans["plan.steal"]
        assert steal.calls == 1
        assert steal.phase == "stealing"
        assert steal.inclusive_ms == pytest.approx(20.0)
        assert steal.min_ms == steal.max_ms == pytest.approx(20.0)

    def test_empty_roots(self):
        profile = prof.profile_spans([])
        assert profile.total_ms == 0.0
        assert profile.attributed_frac == 0.0
        assert profile.phases == {}

    def test_custom_phase_mapping(self, fake_clock, recorder, monkeypatch):
        _record_plan_like_tree(fake_clock)
        monkeypatch.setattr(prof, "DEFAULT_PHASES", {})
        profile = prof.profile_spans(recorder.spans)
        assert set(profile.phases) == {prof.OTHER_PHASE}
        # One phase, counted at the root only: inclusive == total.
        assert profile.phases[prof.OTHER_PHASE].inclusive_ms == pytest.approx(
            100.0
        )

    def test_to_dict_shape(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        doc = prof.profile_spans(recorder.spans).to_dict()
        assert set(doc) == {"total_ms", "attributed_frac", "phases", "spans"}
        for stat in doc["phases"].values():
            assert set(stat) == {
                "calls", "inclusive_ms", "exclusive_ms", "alloc_net_bytes"
            }
        for stat in doc["spans"].values():
            assert set(stat) == {
                "phase", "calls", "inclusive_ms", "exclusive_ms",
                "min_ms", "max_ms", "alloc_net_bytes",
            }
        json.dumps(doc)  # JSON-ready

    def test_render_phase_table(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        table = prof.render_phase_table(prof.profile_spans(recorder.spans))
        lines = table.splitlines()
        assert "phase" in lines[0]
        assert "objective" in lines[1]  # descending exclusive time
        assert "85.0% attributed" in lines[-1]


class TestExports:
    def test_collapsed_stacks(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        text = prof.collapsed_stacks(recorder.spans)
        assert text.endswith("\n")
        weights = {}
        for line in text.splitlines():
            stack, _, weight = line.rpartition(" ")
            weights[stack] = int(weight)
        assert weights["plan;plan.vertical;plan.steal"] == 20_000
        assert weights["plan;plan.vertical;plan.objective"] == 40_000
        # Widths add up exactly to the recorded total (in us).
        assert sum(weights.values()) == 100_000

    def test_collapsed_stacks_empty(self):
        assert prof.collapsed_stacks([]) == ""

    def test_speedscope_document(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        doc = prof.speedscope_document(recorder.spans)
        assert doc["$schema"] == prof.SPEEDSCOPE_SCHEMA
        frames = doc["shared"]["frames"]
        profile = doc["profiles"][0]
        assert profile["type"] == "evented"
        assert profile["unit"] == "microseconds"
        assert profile["endValue"] == pytest.approx(100_000.0)
        events = profile["events"]
        # Balanced, properly nested open/close events over valid frames.
        stack = []
        for event in events:
            assert 0 <= event["frame"] < len(frames)
            if event["type"] == "O":
                stack.append(event["frame"])
            else:
                assert event["type"] == "C"
                assert stack.pop() == event["frame"]
        assert stack == []
        # Timestamps never go backwards.
        ats = [e["at"] for e in events]
        assert ats == sorted(ats)
        json.dumps(doc)

    def test_speedscope_empty(self):
        doc = prof.speedscope_document([])
        assert doc["profiles"] == []

    def test_phase_track_events(self, fake_clock, recorder):
        _record_plan_like_tree(fake_clock)
        profile = prof.profile_spans(recorder.spans)
        events = prof.phase_track_events(profile, pid=1, tid=7)
        assert all(e["ph"] == "X" for e in events)
        assert all(e["pid"] == 1 and e["tid"] == 7 for e in events)
        assert events[0]["ts"] == 0.0
        # Back-to-back slices, descending exclusive time.
        durs = [e["dur"] for e in events]
        assert durs == sorted(durs, reverse=True)
        for prev, cur in zip(events, events[1:]):
            assert cur["ts"] == pytest.approx(prev["ts"] + prev["dur"])
        assert sum(durs) == pytest.approx(100_000.0)

    def test_phase_track_empty_profile(self):
        assert prof.phase_track_events(prof.PhaseProfile(0.0), pid=1) == []


class TestProfilingRecorder:
    def test_cprofile_scoped_to_span(self):
        with prof.profiling_session(cprofile_span="plan") as rec:
            with obs.span("outside"):
                pass
            with obs.span("plan"):
                sum(range(1000))
        rows = rec.cprofile_rows(top=5)
        assert rows, "scoped capture produced no rows"
        assert all(
            {"function", "calls", "self_s", "cumulative_s"} <= set(r)
            for r in rows
        )
        # Rows sorted by cumulative time, descending.
        cums = [r["cumulative_s"] for r in rows]
        assert cums == sorted(cums, reverse=True)

    def test_cprofile_rows_empty_without_capture(self):
        rec = prof.ProfilingRecorder()
        assert rec.cprofile_rows() == []

    def test_allocation_attribution(self):
        with prof.profiling_session(trace_allocations=True) as rec:
            with obs.span("plan"):
                with obs.span("plan.partition"):
                    keep = [bytearray(64_000) for _ in range(8)]
        (root,) = rec.spans
        part = root.children[0]
        assert part.attrs["alloc_net_bytes"] > 8 * 64_000 // 2
        profile = prof.profile_spans(rec.spans)
        assert profile.phases["partition"].alloc_net_bytes > 0
        del keep

    def test_session_restores_previous_recorder(self):
        before = obs.get_recorder()
        with prof.profiling_session():
            assert obs.get_recorder() is not before
        assert obs.get_recorder() is before

    def test_no_alloc_attrs_when_disabled(self, recorder):
        with obs.span("plan"):
            pass
        (root,) = recorder.spans
        assert "alloc_net_bytes" not in root.attrs


class TestRealPlannerAttribution:
    def test_cold_plan_attribution_meets_bar(self):
        """Acceptance: >= 90% of a cold plan's inclusive wall time lands
        in named phases (partition/classify/objective/stealing/...)."""
        soc = get_soc("kirin990")
        models = [get_model(n) for n in ("yolov4", "bert", "squeezenet")]
        with obs.use_recorder(obs.InMemoryRecorder()) as rec:
            Hetero2PipePlanner(soc).plan(models)
        profile = prof.profile_spans(rec.spans)
        assert profile.total_ms > 0
        assert profile.attributed_frac >= 0.90
        # The vertical phase's probes dominate a cold plan.
        assert profile.phases["objective"].calls > 10
