"""Tests for the observability layer (repro.obs)."""

import json

import pytest

from repro.datasets.generator import SimulationParams, simulate_alignment
from repro.hybrid.checkpoint import config_fingerprint
from repro.hybrid.driver import HybridConfig, run_hybrid_analysis
from repro.obs.metrics import Histogram, MetricsRegistry, aggregate
from repro.obs.recorder import MAIN_TRACK, Recorder, current, recording
from repro.obs.report import (
    ALL_STAGES,
    PAPER_STAGES,
    fig34_decomposition,
    format_stage_report,
    run_report,
    stage_decomposition,
)
from repro.obs.trace import (
    TraceValidationError,
    chrome_trace,
    validate_chrome_trace,
    validate_trace_file,
    write_chrome_trace,
)
from repro.search.comprehensive import STAGE_ORDER, ComprehensiveConfig
from repro.search.searches import StageParams
from repro.seq.patterns import compress_alignment
from repro.util.timing import VirtualClock


class TestRecorder:
    def test_span_timestamps_come_from_the_clock(self):
        clock = VirtualClock()
        rec = Recorder(rank=3, clock=clock)
        clock.advance(1.5)
        rec.span("stage-a", "stage", 0.5)
        (e,) = rec.export_events()
        assert e == {
            "type": "span", "name": "stage-a", "cat": "stage",
            "rank": 3, "track": MAIN_TRACK, "t0": 0.5, "t1": 1.5, "args": None,
        }

    def test_measure_context_manager(self):
        clock = VirtualClock()
        rec = Recorder(clock=clock)
        with rec.measure("work", "stage"):
            clock.advance(2.0)
        (e,) = rec.export_events()
        assert (e["t0"], e["t1"]) == (0.0, 2.0)

    def test_instant_defaults_to_now(self):
        clock = VirtualClock(7.0)
        rec = Recorder(clock=clock)
        rec.instant("retry", "comm", args={"attempt": 1})
        (e,) = rec.export_events()
        assert e["type"] == "instant" and e["t"] == 7.0

    def test_metrics_only_mode_drops_events_keeps_counters(self):
        rec = Recorder(record_events=False)
        rec.span("x", "stage", 0.0, 1.0)
        rec.instant("y", "comm")
        rec.thread_regions(0.0, 1.0, [1.0], count=5)
        rec.count("calls", 3)
        assert rec.export_events() == []
        assert rec.metrics.counters["calls"] == 3

    def test_max_events_overflow_counts_dropped(self):
        rec = Recorder(max_events=2)
        for i in range(5):
            rec.instant(f"e{i}", "comm", t=float(i))
        assert len(rec.export_events()) == 2
        assert rec.dropped == 3

    def test_export_is_sorted_by_start_time(self):
        rec = Recorder()
        rec.instant("late", "comm", t=5.0)
        rec.span("early", "stage", 1.0, 2.0)
        names = [e["name"] for e in rec.export_events()]
        assert names == ["early", "late"]

    def test_thread_local_current(self):
        assert current() is None
        rec = Recorder()
        with recording(rec):
            assert current() is rec
            with recording(None):  # masking nests
                assert current() is None
            assert current() is rec
        assert current() is None


class TestRegionCoalescing:
    def test_abutting_regions_merge_into_one_span_per_thread(self):
        rec = Recorder(n_threads=2)
        rec.thread_regions(0.0, 1.0, [1.0, 0.5])
        rec.thread_regions(1.0, 2.0, [1.0, 0.25])
        events = rec.export_events()
        assert len(events) == 2  # one per thread lane, not per region
        by_track = {e["track"]: e for e in events}
        assert by_track[1]["args"] == {"regions": 2, "busy_s": 2.0, "util": 1.0}
        assert by_track[2]["args"]["busy_s"] == 0.75
        assert by_track[2]["t0"] == 0.0 and by_track[2]["t1"] == 2.0

    def test_gap_in_virtual_time_flushes_the_batch(self):
        rec = Recorder(n_threads=1)
        rec.thread_regions(0.0, 1.0, [1.0])
        rec.thread_regions(1.5, 2.0, [0.5])  # comm advanced the clock
        events = rec.export_events()
        assert len(events) == 2
        assert [e["args"]["regions"] for e in events] == [1, 1]

    def test_main_track_span_flushes_pending_regions(self):
        rec = Recorder(n_threads=1)
        rec.thread_regions(0.0, 1.0, [1.0])
        rec.span("bootstrap", "stage", 0.0, 1.0)
        rec.thread_regions(1.0, 2.0, [1.0])  # would abut without the span
        events = rec.export_events()
        kernel = [e for e in events if e["cat"] == "kernel"]
        assert len(kernel) == 2  # segmented at the stage boundary

    def test_batch_limit_forces_flush(self):
        rec = Recorder(n_threads=1, region_batch_limit=3)
        for i in range(7):
            rec.thread_regions(float(i), float(i + 1), [1.0])
        counts = [e["args"]["regions"] for e in rec.export_events()]
        assert counts == [3, 3, 1]


class TestMetrics:
    def test_histogram_power_of_two_buckets(self):
        h = Histogram()
        for v in (0.0, 1.0, 3.0, 4.0, 1000.0):
            h.observe(v)
        d = h.to_dict()
        assert d["count"] == 5 and d["min"] == 0.0 and d["max"] == 1000.0
        assert d["buckets"] == {"0": 1, "2^0": 1, "2^2": 2, "2^10": 1}

    def test_histogram_rejects_negative(self):
        with pytest.raises(ValueError):
            Histogram().observe(-1.0)

    def test_registry_roundtrip(self):
        m = MetricsRegistry()
        m.inc("calls")
        m.inc("calls", 2)
        m.set_gauge("depth", 4.0)
        m.observe("bytes", 100.0)
        d = m.to_dict()
        assert d["counters"] == {"calls": 3.0}
        assert d["gauges"] == {"depth": 4.0}
        assert d["histograms"]["bytes"]["count"] == 1

    def test_aggregate_sums_counters_extremes_gauges(self):
        a = MetricsRegistry()
        a.inc("calls", 2)
        a.set_gauge("t", 1.0)
        a.observe("b", 8.0)
        b = MetricsRegistry()
        b.inc("calls", 3)
        b.set_gauge("t", 5.0)
        b.observe("b", 2.0)
        agg = aggregate([a.to_dict(), b.to_dict()])
        assert agg["counters"]["calls"] == 5.0
        assert agg["gauges"]["t"] == {"min": 1.0, "max": 5.0}
        assert agg["histograms"]["b"]["count"] == 2
        assert agg["histograms"]["b"]["mean"] == 5.0


class TestChromeTrace:
    def _events(self):
        rec = Recorder(rank=0, n_threads=1)
        rec.span("bootstrap", "stage", 0.0, 2.0)
        rec.instant("retry", "comm", t=1.0)
        return rec.export_events()

    def test_document_structure_and_validation(self):
        doc = chrome_trace(self._events(), n_threads=1, meta={"machine": "dash"})
        stats = validate_chrome_trace(doc)
        assert stats["spans"] == 1 and stats["instants"] == 1
        assert stats["processes"] == 1
        assert doc["otherData"] == {"machine": "dash"}

    def test_metadata_names_every_rank_and_track(self):
        doc = chrome_trace(self._events(), n_threads=2)
        names = {
            (e["pid"], e["tid"], e["args"]["name"])
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names == {
            (0, 0, "rank main"), (0, 1, "vthread 1"), (0, 2, "vthread 2"),
        }

    def test_timestamps_scaled_to_microseconds(self):
        doc = chrome_trace(self._events())
        span = next(e for e in doc["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 0.0 and span["dur"] == 2.0e6

    def test_validator_rejects_bad_documents(self):
        with pytest.raises(TraceValidationError):
            validate_chrome_trace({"traceEvents": "nope"})
        with pytest.raises(TraceValidationError):
            validate_chrome_trace({"traceEvents": [{"ph": "Z", "name": "x",
                                                   "pid": 0, "tid": 0}]})
        with pytest.raises(TraceValidationError):
            validate_chrome_trace({"traceEvents": [
                {"ph": "X", "name": "x", "pid": 0, "tid": 0,
                 "ts": -1.0, "dur": 1.0},
            ]})

    def test_write_and_validate_file(self, tmp_path):
        doc = chrome_trace(self._events(), n_threads=1)
        path = write_chrome_trace(tmp_path / "t.json", doc)
        stats = validate_trace_file(path)
        assert stats["events"] == len(doc["traceEvents"])

    def test_file_validator_rejects_non_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json", encoding="ascii")
        with pytest.raises(TraceValidationError):
            validate_trace_file(p)


class TestStageReport:
    PER_RANK = [
        {"bootstrap": 4.0, "fast": 2.0, "slow": 1.0, "thorough": 3.0},
        {"bootstrap": 2.0, "fast": 4.0, "slow": 1.0, "thorough": 5.0},
    ]

    def test_stage_lists_agree_with_the_pipeline(self):
        assert ALL_STAGES == STAGE_ORDER + ("finalize", "recovery")
        assert PAPER_STAGES == STAGE_ORDER[1:]

    def test_fig34_takes_last_process_to_finish(self):
        fig34 = fig34_decomposition(self.PER_RANK)
        assert fig34 == {
            "bootstrap": 4.0, "fast": 4.0, "slow": 1.0, "thorough": 5.0,
        }
        # The maxima come from different ranks, so the bars sum past
        # every single rank's total.
        assert sum(fig34.values()) == 14.0
        assert max(sum(r.values()) for r in self.PER_RANK) == 12.0

    def test_stage_decomposition_hand_computed(self):
        rows = {r["stage"]: r for r in stage_decomposition(self.PER_RANK)}
        boot = rows["bootstrap"]
        assert boot["max"] == 4.0 and boot["mean"] == 3.0 and boot["min"] == 2.0
        assert boot["imbalance"] == pytest.approx(4.0 / 3.0)
        assert boot["efficiency"] == pytest.approx(0.75)
        slow = rows["slow"]  # perfectly balanced stage
        assert slow["imbalance"] == 1.0 and slow["efficiency"] == 1.0
        assert "setup" not in rows  # zero stages omitted

    def test_run_report_totals_and_comm_fraction(self):
        doc = run_report(self.PER_RANK, comm_seconds=[1.0, 3.0],
                         n_processes=2, n_threads=4)
        assert doc["total_seconds"] == 12.0  # slowest rank: 2+4+1+5
        assert doc["total_imbalance"] == pytest.approx(12.0 * 2 / 22.0)
        assert doc["comm_fraction"] == [pytest.approx(0.1), pytest.approx(0.25)]
        assert doc["layout"] == {"n_processes": 2, "n_threads": 4}
        assert doc["comm_seconds"] == [1.0, 3.0]
        assert "comm_split" not in doc

    def test_format_stage_report_renders_all_rows(self):
        text = format_stage_report(stage_decomposition(self.PER_RANK))
        for stage in ("bootstrap", "fast", "slow", "thorough"):
            assert stage in text

    def test_empty_per_rank_rejected(self):
        with pytest.raises(ValueError):
            stage_decomposition([])
        with pytest.raises(ValueError):
            fig34_decomposition([])


# -- hybrid-run integration ---------------------------------------------------


def _tiny_pal():
    aln, _ = simulate_alignment(SimulationParams(n_taxa=6, n_sites=80, seed=5))
    return compress_alignment(aln)


def _tiny_config(**kwargs) -> HybridConfig:
    return HybridConfig(
        n_processes=2,
        n_threads=2,
        comprehensive=ComprehensiveConfig(
            n_bootstraps=2,
            stage_params=StageParams(slow_max_rounds=1, thorough_max_rounds=1),
        ),
        **kwargs,
    )


class TestHybridObservability:
    def test_trace_covers_every_rank_and_thread_lane(self):
        result = run_hybrid_analysis(_tiny_pal(), _tiny_config(collect_trace=True))
        stats = validate_chrome_trace(result.trace)
        assert stats["processes"] == 2
        assert stats["tracks"] >= 2 * 3  # main + 2 vthread lanes per rank
        cats = {
            e.get("cat") for e in result.trace["traceEvents"] if e["ph"] == "X"
        }
        assert {"stage", "comm", "kernel", "search"} <= cats
        stage_names = {
            e["name"] for e in result.trace["traceEvents"]
            if e["ph"] == "X" and e.get("cat") == "stage"
        }
        assert {"setup", "bootstrap", "fast", "slow", "thorough",
                "finalize"} <= stage_names

    def test_metrics_report_matches_result_stage_seconds(self):
        result = run_hybrid_analysis(
            _tiny_pal(), _tiny_config(collect_metrics=True)
        )
        assert result.trace is None  # metrics-only mode records no events
        fig34 = result.metrics["report"]["fig34_stage_seconds"]
        for stage, seconds in fig34.items():
            assert seconds == pytest.approx(result.stage_seconds[stage])
        agg = result.metrics["aggregate"]["counters"]
        assert agg["comm.calls.barrier"] == 2.0  # one per rank
        assert agg["threads.regions"] > 0
        assert json.dumps(result.metrics)  # JSON-serialisable throughout

    def test_observability_does_not_change_results(self):
        pal = _tiny_pal()
        plain = run_hybrid_analysis(pal, _tiny_config())
        traced = run_hybrid_analysis(pal, _tiny_config(collect_trace=True,
                                                       collect_metrics=True))
        assert traced.best_lnl == plain.best_lnl
        assert traced.total_seconds == plain.total_seconds
        assert traced.stage_seconds == plain.stage_seconds
        assert plain.trace is None and plain.metrics is None

    def test_fingerprint_ignores_observability_flags(self):
        pal = _tiny_pal()
        assert config_fingerprint(pal, _tiny_config()) == config_fingerprint(
            pal, _tiny_config(collect_trace=True, collect_metrics=True)
        )

    def test_resumed_run_splices_trace_and_stays_identical(self, tmp_path):
        pal = _tiny_pal()
        ckpt = str(tmp_path / "ckpt")
        full = run_hybrid_analysis(
            pal, _tiny_config(checkpoint_dir=ckpt, collect_trace=True)
        )
        resumed = run_hybrid_analysis(
            pal, _tiny_config(checkpoint_dir=ckpt, resume=True,
                              collect_trace=True)
        )
        assert resumed.best_lnl == full.best_lnl
        assert resumed.total_seconds == full.total_seconds
        spans = [e for e in resumed.trace["traceEvents"] if e["ph"] == "X"]
        resumed_stages = {
            e["name"] for e in spans if e["args"].get("resumed")
        }
        # Every checkpointed stage splices in as one flagged span; the
        # trace still validates as a whole.
        assert {"bootstrap", "fast", "slow", "thorough"} <= resumed_stages
        validate_chrome_trace(resumed.trace)
