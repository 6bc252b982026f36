"""Tests for the observability subsystem (repro.obs) and its wiring.

Covers the metrics primitives (nearest-rank quantile helper, mergeable
histograms, labelled families, Prometheus exposition with escaping), the
span tracer with probabilistic head sampling and slowlog tail capture, the
slow-query log, the ExecutionPolicy knobs, per-query resource accounting
(``QueryReport.cost`` and the labelled cost counters), the server's
histogram-backed stats with the queue-wait/execution split and per-client
cost attribution, the stdlib HTTP exposition endpoint, the NDJSON
protocol's ``metrics``/``slowlog`` ops, cross-process histogram merging
under the processes strategy, the per-query span tree on QueryReport, and
span-driven cost-model calibration.
"""

from __future__ import annotations

import asyncio
import json
import math
import pickle
import random
import time
import urllib.error
import urllib.request

import pytest

from repro.corpus import CorpusExecutor, DocumentStore
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SlowQueryLog,
    default_latency_bounds,
    quantile,
)
from repro.obs import calibrate as obs_calibrate
from repro.obs import trace as obs_trace
from repro.obs.http import ObsHTTPServer
from repro.obs.metrics import series_key
from repro.serve import CorpusServer, ProtocolServer, request_lines
from repro.session import ExecutionPolicy, ServingPolicy, Session
from repro.trees.xml_io import tree_to_xml
from repro.workloads.bibliography import generate_bibliography

PAIR_QUERY = "descendant::book[child::author[. is $y] and child::title[. is $z]]"
PAIR_VARS = ("y", "z")


def run(coroutine):
    return asyncio.run(coroutine)


def make_store(documents: int = 4, *, seed: int = 0) -> DocumentStore:
    store = DocumentStore()
    for index in range(documents):
        tree = generate_bibliography(2 + index % 3, seed=seed + index)
        store.add_xml(f"doc{index:03d}", tree_to_xml(tree))
    return store


@pytest.fixture(autouse=True)
def _tracing_off():
    """Leave the process-global tracer the way each test found it."""
    previous = obs_trace.set_tracing(False)
    previous_sample = obs_trace.set_trace_sample(0.0)
    obs_trace.take_last_trace()
    yield
    obs_trace.set_tracing(previous)
    obs_trace.set_trace_sample(previous_sample)
    obs_trace.take_last_trace()
    obs_trace.drain_finished()


# =====================================================================
# Nearest-rank quantile helper
# =====================================================================
class TestQuantile:
    def test_nearest_rank_definition(self):
        values = list(range(1, 11))  # 1..10, already sorted
        assert quantile(values, 0.50) == 5
        assert quantile(values, 0.90) == 9
        assert quantile(values, 1.00) == 10
        assert quantile(values, 0.05) == 1

    def test_size_20_p95_regression(self):
        # The old server computed window[int(0.95 * len)] which is the MAX
        # for a 20-element window (int(19.0) == 19).  Nearest rank says the
        # p95 of 20 samples is the 19th order statistic, not the 20th.
        values = list(range(1, 21))
        assert quantile(values, 0.95) == 19
        assert quantile(values, 0.95) != max(values)

    def test_single_element_and_errors(self):
        assert quantile([7.0], 0.5) == 7.0
        with pytest.raises(ValueError):
            quantile([], 0.5)
        with pytest.raises(ValueError):
            quantile([1.0], 0.0)
        with pytest.raises(ValueError):
            quantile([1.0], 1.5)


# =====================================================================
# Histogram
# =====================================================================
class TestHistogram:
    def test_observe_tracks_count_sum_min_max(self):
        histogram = Histogram("h")
        for value in (0.001, 0.002, 0.004):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.007)
        assert histogram.min == 0.001
        assert histogram.max == 0.004

    def test_empty_quantile_is_none(self):
        assert Histogram("h").quantile(0.5) is None

    def test_quantile_within_one_bucket_of_exact(self):
        # The acceptance bar for the bucket layout: any quantile the
        # histogram reports is within one factor-sqrt(2) bucket of the
        # exact nearest-rank quantile of the raw samples.
        rng = random.Random(7)
        samples = sorted(rng.uniform(0.0005, 2.0) for _ in range(500))
        histogram = Histogram("h")
        for value in samples:
            histogram.observe(value)
        for q in (0.50, 0.90, 0.95, 0.99):
            exact = quantile(samples, q)
            reported = histogram.quantile(q)
            assert exact <= reported <= exact * math.sqrt(2) * (1 + 1e-9)

    def test_overflow_bucket_reports_observed_max(self):
        histogram = Histogram("h")
        histogram.observe(1e9)  # way past the last finite bound
        assert histogram.quantile(0.99) == 1e9

    def test_merge_equals_single_histogram(self):
        # Shard-worker merge correctness: observing a sample set split
        # across N histograms then merging is identical to observing it
        # all in one histogram.
        rng = random.Random(13)
        samples = [rng.uniform(1e-6, 10.0) for _ in range(300)]
        whole = Histogram("h")
        shards = [Histogram("h") for _ in range(3)]
        for index, value in enumerate(samples):
            whole.observe(value)
            shards[index % 3].observe(value)
        merged = Histogram("h")
        merged.merge(shards[0])
        merged.merge(shards[1].to_dict())  # dict form: the pool transport
        merged.merge(shards[2])
        assert merged.counts == whole.counts
        assert merged.count == whole.count
        assert merged.sum == pytest.approx(whole.sum)
        assert merged.min == whole.min
        assert merged.max == whole.max
        for q in (0.5, 0.9, 0.95, 0.99):
            assert merged.quantile(q) == whole.quantile(q)

    def test_merge_rejects_mismatched_bounds(self):
        left = Histogram("h", bounds=(1.0, 2.0))
        right = Histogram("h", bounds=(1.0, 4.0))
        with pytest.raises(ValueError):
            left.merge(right)

    def test_dict_roundtrip_is_picklable(self):
        histogram = Histogram("h")
        histogram.observe(0.25)
        data = pickle.loads(pickle.dumps(histogram.to_dict()))
        clone = Histogram.from_dict(data)
        assert clone.counts == histogram.counts
        assert clone.summary() == histogram.summary()

    def test_default_bounds_span_microseconds_to_seconds(self):
        bounds = default_latency_bounds()
        assert bounds[0] < 1e-5
        assert bounds[-1] >= 100.0
        assert list(bounds) == sorted(bounds)


# =====================================================================
# Registry and exposition
# =====================================================================
class TestRegistry:
    def test_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", "help")
        assert registry.counter("c") is counter
        with pytest.raises(ValueError):
            registry.gauge("c")

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1)

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4

    def test_merge_creates_unknown_metrics(self):
        source = MetricsRegistry()
        source.counter("requests").inc(3)
        source.histogram("lat").observe(0.1)
        target = MetricsRegistry()
        target.merge(source.to_dict())
        assert target.get("requests").value == 3
        assert target.get("lat").count == 1

    def test_render_prometheus_text(self):
        registry = MetricsRegistry()
        registry.counter("repro_requests_total", "Requests").inc(2)
        registry.gauge("repro_in_flight", "In flight").set(1)
        histogram = registry.histogram("repro_seconds", "Latency")
        histogram.observe(0.002)
        histogram.observe(0.004)
        text = registry.render()
        assert text.endswith("\n")
        assert "# HELP repro_requests_total Requests" in text
        assert "# TYPE repro_requests_total counter" in text
        assert "repro_requests_total 2" in text
        assert "# TYPE repro_in_flight gauge" in text
        assert "# TYPE repro_seconds histogram" in text
        assert 'repro_seconds_bucket{le="+Inf"} 2' in text
        assert "repro_seconds_count 2" in text
        # Bucket counts must be cumulative and non-decreasing.
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_seconds_bucket")
        ]
        assert cumulative == sorted(cumulative)
        assert cumulative[-1] == 2


# =====================================================================
# Labelled metric families
# =====================================================================
class TestLabels:
    def test_series_key_is_canonical(self):
        assert series_key("c") == "c"
        assert (
            series_key("c", {"strategy": "serial", "engine": "polynomial"})
            == 'c{engine="polynomial",strategy="serial"}'
        )
        # Label order in the mapping does not matter: keys sort.
        assert series_key("c", {"b": "2", "a": "1"}) == series_key("c", {"a": "1", "b": "2"})

    def test_get_or_create_per_label_set(self):
        registry = MetricsRegistry()
        serial = registry.counter("ops", "Ops", labels={"strategy": "serial"})
        processes = registry.counter("ops", "Ops", labels={"strategy": "processes"})
        assert serial is not processes
        assert registry.counter("ops", labels={"strategy": "serial"}) is serial
        serial.inc(2)
        processes.inc(3)
        assert registry.get("ops", {"strategy": "serial"}).value == 2
        assert registry.get("ops", {"strategy": "processes"}).value == 3
        assert registry.get("ops") is None  # the unlabelled series was never made
        assert len(registry.series("ops")) == 2
        assert registry.names() == ["ops"]

    def test_type_conflict_across_label_sets(self):
        registry = MetricsRegistry()
        registry.counter("m", labels={"op": "a"})
        with pytest.raises(ValueError):
            registry.gauge("m", labels={"op": "b"})
        with pytest.raises(ValueError):
            registry.histogram("m")

    def test_labels_must_be_strings(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.counter("m", labels={"n": 5})

    def test_merge_lines_up_identical_label_sets(self):
        worker = MetricsRegistry()
        worker.counter("ops", "Ops", labels={"engine": "polynomial"}).inc(4)
        worker.histogram("lat", "Latency", labels={"strategy": "processes"}).observe(0.1)
        parent = MetricsRegistry()
        parent.counter("ops", "Ops", labels={"engine": "polynomial"}).inc(1)
        parent.merge(worker.to_dict())
        assert parent.get("ops", {"engine": "polynomial"}).value == 5
        assert parent.get("lat", {"strategy": "processes"}).count == 1

    def test_merge_unknown_label_sets_creates_disjoint_series(self):
        worker = MetricsRegistry()
        worker.counter("ops", labels={"engine": "naive"}).inc(7)
        parent = MetricsRegistry()
        parent.counter("ops", labels={"engine": "polynomial"}).inc(2)
        parent.merge(worker)
        assert parent.get("ops", {"engine": "polynomial"}).value == 2
        assert parent.get("ops", {"engine": "naive"}).value == 7
        assert len(parent.series("ops")) == 2

    def test_merge_accepts_legacy_name_keyed_payload(self):
        # Pre-label payloads were keyed by bare name with no "name"/"labels"
        # fields; they must still merge (into the unlabelled series).
        target = MetricsRegistry()
        target.merge({"requests": {"type": "counter", "value": 3.0}})
        assert target.get("requests").value == 3

    def test_render_emits_one_family_header_and_per_series_lines(self):
        registry = MetricsRegistry()
        registry.counter("repro_ops_total", "Ops", labels={"engine": "polynomial"}).inc(2)
        registry.counter("repro_ops_total", "Ops", labels={"engine": "naive"}).inc(1)
        histogram = registry.histogram(
            "repro_lat_seconds", "Latency", labels={"strategy": "serial"}
        )
        histogram.observe(0.002)
        text = registry.render()
        assert text.count("# TYPE repro_ops_total counter") == 1
        assert text.count("# HELP repro_ops_total Ops") == 1
        assert 'repro_ops_total{engine="polynomial"} 2' in text
        assert 'repro_ops_total{engine="naive"} 1' in text
        # Histogram series merge the `le` label into the series label string.
        assert 'repro_lat_seconds_bucket{strategy="serial",le="+Inf"} 1' in text
        assert 'repro_lat_seconds_count{strategy="serial"} 1' in text
        assert 'repro_lat_seconds_sum{strategy="serial"}' in text
        # Cumulative bucket counts stay non-decreasing per series.
        cumulative = [
            int(line.rsplit(" ", 1)[1])
            for line in text.splitlines()
            if line.startswith("repro_lat_seconds_bucket")
        ]
        assert cumulative == sorted(cumulative)


class TestExpositionEscaping:
    def test_help_escapes_backslash_and_newline(self):
        registry = MetricsRegistry()
        registry.counter("c_total", 'path C:\\dir\nsecond "line"').inc(1)
        text = registry.render()
        # Backslash doubles, newline becomes the two characters \n; double
        # quotes are legal in HELP text and pass through unescaped.
        assert '# HELP c_total path C:\\\\dir\\nsecond "line"' in text
        assert "\nsecond" not in text  # the newline never lands literally

    def test_label_values_escape_quotes_backslashes_newlines(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "C", labels={"q": 'say "hi"\\now\nplease'}).inc(1)
        text = registry.render()
        assert 'c_total{q="say \\"hi\\"\\\\now\\nplease"} 1' in text


# =====================================================================
# Span tracer
# =====================================================================
class TestTracer:
    def test_disabled_returns_shared_null_span(self):
        first = obs_trace.span("anything")
        second = obs_trace.span("else")
        assert first is second
        with first as open_span:
            open_span.set(key="value")  # no-ops, no errors
        assert obs_trace.last_trace() is None

    def test_nested_spans_build_a_tree(self):
        obs_trace.set_tracing(True)
        with obs_trace.span("root", engine="polynomial"):
            with obs_trace.span("child.a"):
                pass
            with obs_trace.span("child.b") as child:
                child.set(hit=True)
        tree = obs_trace.take_last_trace()
        assert tree["name"] == "root"
        assert tree["attrs"] == {"engine": "polynomial"}
        assert [child["name"] for child in tree["children"]] == ["child.a", "child.b"]
        assert tree["children"][1]["attrs"] == {"hit": True}
        for child in tree["children"]:
            assert child["parent_id"] == tree["span_id"]
            assert child["trace_id"] == tree["trace_id"]
        assert obs_trace.take_last_trace() is None  # take clears

    def test_exception_is_recorded_and_stack_unwinds(self):
        obs_trace.set_tracing(True)
        with pytest.raises(RuntimeError):
            with obs_trace.span("root"):
                raise RuntimeError("boom")
        tree = obs_trace.take_last_trace()
        assert tree["attrs"]["error"] == "RuntimeError"
        # The stack unwound: a new span starts a fresh trace.
        with obs_trace.span("next"):
            pass
        assert obs_trace.take_last_trace()["name"] == "next"

    def test_record_span_with_explicit_timestamps(self):
        obs_trace.set_tracing(True)
        now = time.perf_counter()
        tree = obs_trace.record_span(
            "server.request",
            now,
            now + 0.5,
            children=[
                {"name": "queue.wait", "started": now, "ended": now + 0.1},
                {"name": "execute", "started": now + 0.1, "ended": now + 0.5},
            ],
            document="doc000",
        )
        assert tree["seconds"] == pytest.approx(0.5)
        assert [child["name"] for child in tree["children"]] == ["queue.wait", "execute"]
        assert tree["children"][0]["seconds"] == pytest.approx(0.1)
        assert tree["attrs"]["document"] == "doc000"
        assert obs_trace.record_span is not None
        obs_trace.set_tracing(False)
        assert obs_trace.record_span("x", 0.0, 1.0) is None

    def test_ndjson_export_parses(self):
        obs_trace.set_tracing(True)
        with obs_trace.span("root"):
            with obs_trace.span("child"):
                pass
        tree = obs_trace.take_last_trace()
        text = obs_trace.render_events([tree])
        events = [json.loads(line) for line in text.splitlines()]
        assert [event["name"] for event in events] == ["root", "child"]
        assert events[1]["parent_id"] == events[0]["span_id"]

    def test_format_tree_is_indented(self):
        obs_trace.set_tracing(True)
        with obs_trace.span("root"):
            with obs_trace.span("child"):
                pass
        rendered = obs_trace.format_tree(obs_trace.take_last_trace())
        lines = rendered.splitlines()
        assert lines[0].startswith("root")
        assert lines[1].startswith("  child")

    def test_drain_finished_collects_roots(self):
        obs_trace.set_tracing(True)
        obs_trace.drain_finished()
        for _ in range(3):
            with obs_trace.span("query"):
                pass
        drained = obs_trace.drain_finished()
        assert len(drained) == 3
        assert obs_trace.drain_finished() == []


# =====================================================================
# Sampled always-on tracing
# =====================================================================
class TestSampledTracing:
    def test_sampling_activates_recording_without_full_tracing(self):
        obs_trace.set_trace_sample(0.5)
        assert obs_trace.enabled()  # spans ARE recorded
        assert not obs_trace.tracing_enabled()  # but full tracing stays off
        assert obs_trace.sample_rate() == 0.5
        obs_trace.set_trace_sample(None)
        assert not obs_trace.enabled()
        assert obs_trace.sample_rate() == 0.0

    def test_set_trace_sample_clamps_and_returns_previous(self):
        assert obs_trace.set_trace_sample(2.0) == 0.0
        assert obs_trace.sample_rate() == 1.0
        assert obs_trace.set_trace_sample(-3.0) == 1.0
        assert obs_trace.sample_rate() == 0.0

    def test_unsampled_trace_feeds_tail_capture_not_the_ring(self, monkeypatch):
        obs_trace.set_trace_sample(0.5)
        monkeypatch.setattr(obs_trace, "_random", lambda: 0.9)  # 0.9 >= 0.5: skip
        with obs_trace.span("query.answer"):
            with obs_trace.span("engine.answer"):
                pass
        # The ring stays empty, but the thread's last-trace slot still holds
        # the full tree — the slowlog's exemplar hook for unsampled queries.
        assert obs_trace.drain_finished() == []
        tree = obs_trace.take_last_trace()
        assert tree is not None
        assert tree["sampled"] is False
        assert tree["children"][0]["sampled"] is False

    def test_sampled_trace_publishes_to_the_ring(self, monkeypatch):
        obs_trace.set_trace_sample(0.5)
        monkeypatch.setattr(obs_trace, "_random", lambda: 0.1)  # 0.1 < 0.5: keep
        with obs_trace.span("query.answer"):
            pass
        drained = obs_trace.drain_finished()
        assert len(drained) == 1
        assert drained[0]["sampled"] is True
        assert obs_trace.last_trace() is not None  # tail capture sees it too

    def test_head_decision_is_made_once_per_trace(self, monkeypatch):
        # The sampling decision happens at the root; children inherit it even
        # if the RNG would flip mid-trace.
        obs_trace.set_trace_sample(0.5)
        draws = iter([0.1, 0.9, 0.9])
        monkeypatch.setattr(obs_trace, "_random", lambda: next(draws))
        with obs_trace.span("root"):
            with obs_trace.span("child.a"):
                pass
            with obs_trace.span("child.b"):
                pass
        tree = obs_trace.drain_finished()[0]
        assert all(child["sampled"] for child in tree["children"])

    def test_rate_one_publishes_every_trace(self):
        obs_trace.set_trace_sample(1.0)
        for _ in range(3):
            with obs_trace.span("query"):
                pass
        assert len(obs_trace.drain_finished()) == 3

    def test_full_tracing_wins_over_sampling(self, monkeypatch):
        obs_trace.set_tracing(True)
        obs_trace.set_trace_sample(0.5)
        monkeypatch.setattr(obs_trace, "_random", lambda: 0.99)
        with obs_trace.span("query"):
            pass
        assert len(obs_trace.drain_finished()) == 1  # trace=True: keep all

    def test_record_span_respects_sampling(self, monkeypatch):
        obs_trace.set_trace_sample(0.5)
        monkeypatch.setattr(obs_trace, "_random", lambda: 0.9)
        now = time.perf_counter()
        tree = obs_trace.record_span("server.request", now, now + 0.1)
        assert tree is not None  # still recorded for tail capture
        assert tree["sampled"] is False
        assert obs_trace.drain_finished() == []

    def test_ring_is_bounded(self):
        obs_trace.set_trace_sample(1.0)
        for _ in range(300):
            with obs_trace.span("query"):
                pass
        assert len(obs_trace.drain_finished()) == 256  # deque maxlen

    def test_finished_traces_snapshot_with_limit(self):
        obs_trace.set_trace_sample(1.0)
        for index in range(4):
            with obs_trace.span(f"q{index}"):
                pass
        snapshot = obs_trace.finished_traces(limit=2)
        assert [tree["name"] for tree in snapshot] == ["q2", "q3"]
        # Non-destructive: the ring still drains all four.
        assert len(obs_trace.drain_finished()) == 4


# =====================================================================
# Slow-query log
# =====================================================================
class TestSlowQueryLog:
    def test_disabled_without_threshold(self):
        log = SlowQueryLog(None)
        assert not log.enabled
        assert not log.should_log(1e9)
        assert log.record(1e9, query="q") is None
        assert len(log) == 0

    def test_threshold_gates_recording(self):
        log = SlowQueryLog(0.5)
        assert log.record(0.4, query="fast") is None
        entry = log.record(0.6, query="slow", document="doc", queue_wait=0.1)
        assert entry["seconds"] == 0.6
        assert entry["queue_wait"] == 0.1
        assert len(log) == 1
        assert log.entries()[0]["query"] == "slow"

    def test_ring_capacity_and_dropped(self):
        log = SlowQueryLog(0.0, capacity=2)
        for index in range(5):
            log.record(float(index), query=f"q{index}")
        assert len(log) == 2
        assert [entry["query"] for entry in log.entries()] == ["q4", "q3"]
        assert log.to_dict()["dropped"] == 3
        assert log.entries(limit=1)[0]["query"] == "q4"

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            SlowQueryLog(-1.0)


# =====================================================================
# Policy knobs
# =====================================================================
class TestPolicyKnobs:
    def test_trace_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE", raising=False)
        assert ExecutionPolicy().resolve("trace").value is False
        monkeypatch.setenv("REPRO_TRACE", "1")
        resolved = ExecutionPolicy().resolve("trace")
        assert resolved.value is True
        assert resolved.source == "env"
        monkeypatch.setenv("REPRO_TRACE", "off")
        assert ExecutionPolicy().resolve("trace").value is False
        assert ExecutionPolicy(trace=True).resolve("trace").source == "policy"

    def test_slow_query_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_SLOW_QUERY_SECONDS", raising=False)
        assert ExecutionPolicy().resolve("slow_query_seconds").value is None
        monkeypatch.setenv("REPRO_SLOW_QUERY_SECONDS", "0.25")
        resolved = ExecutionPolicy().resolve("slow_query_seconds")
        assert resolved.value == 0.25
        assert resolved.source == "env"
        assert ExecutionPolicy(slow_query_seconds=1.5).resolved("slow_query_seconds") == 1.5

    def test_trace_sample_env_resolution(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRACE_SAMPLE", raising=False)
        assert ExecutionPolicy().resolve("trace_sample").value is None
        monkeypatch.setenv("REPRO_TRACE_SAMPLE", "0.25")
        resolved = ExecutionPolicy().resolve("trace_sample")
        assert resolved.value == 0.25
        assert resolved.source == "env"
        assert ExecutionPolicy(trace_sample=0.1).resolve("trace_sample").source == "policy"

    def test_session_trace_sample_policy_sets_global_rate(self):
        with Session(execution=ExecutionPolicy(trace_sample=0.25)) as session:
            assert obs_trace.sample_rate() == 0.25
            assert obs_trace.enabled()
            assert not obs_trace.tracing_enabled()
            name = session.add_tree("doc", generate_bibliography(2, seed=9))
            session.query(name, PAIR_QUERY, PAIR_VARS)
        # Like trace=True, the rate is process-wide and deliberately not
        # reset on close (the autouse fixture restores it for other tests).

    def test_serving_policy_obs_port_defaults_off(self):
        assert ServingPolicy().obs_port is None


# =====================================================================
# Server stats: histogram quantiles, queue-wait split, uptime
# =====================================================================
class TestServerObservability:
    def test_stats_quantiles_and_queue_wait_split(self):
        async def body():
            store = make_store(6)
            async with CorpusServer(store, max_concurrent=2) as server:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                stats = server.stats
                assert stats.completed == 6
                # Full quantile ladder, from the execution histogram.
                for name in ("p50_latency", "p90_latency", "p95_latency", "p99_latency"):
                    assert getattr(stats, name) is not None
                assert stats.p50_latency <= stats.p99_latency
                # Queue-wait recorded separately for every document.
                assert stats.queue_wait["count"] == 6
                assert stats.latency["count"] == 6
                assert stats.queue_wait_p50 is not None
                assert stats.uptime_seconds > 0
                assert stats.stats_at > 0
                payload = stats.to_dict()
                for key in (
                    "p90_latency",
                    "p99_latency",
                    "queue_wait_p50",
                    "queue_wait_p99",
                    "latency",
                    "queue_wait",
                    "uptime_seconds",
                    "stats_at",
                    "slow_queries",
                ):
                    assert key in payload
                json.dumps(payload)

        run(body())

    def test_histogram_quantiles_track_exact_latencies(self):
        async def body():
            store = make_store(8)
            async with CorpusServer(store) as server:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                histogram = server.metrics_registry.get(
                    "repro_request_execution_seconds"
                )
                assert histogram.count == 8
                # The histogram quantile is within one sqrt(2) bucket of
                # any possible exact value: bracketed by observed min/max.
                for q in (0.5, 0.95):
                    reported = histogram.quantile(q)
                    assert histogram.min <= reported * math.sqrt(2)
                    assert reported <= histogram.max * math.sqrt(2)

        run(body())

    def test_metrics_text_exposition(self):
        async def body():
            store = make_store(3)
            async with CorpusServer(store) as server:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                text = server.metrics_text()
            assert "# TYPE repro_request_execution_seconds histogram" in text
            assert "# TYPE repro_request_queue_wait_seconds histogram" in text
            assert 'repro_request_execution_seconds_bucket{le="+Inf"} 3' in text
            assert "repro_server_completed_total 3" in text
            assert "repro_server_submitted_total 1" in text
            assert "# TYPE repro_server_in_flight gauge" in text
            return None

        run(body())

    def test_server_slowlog_records_with_zero_threshold(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_SECONDS", "0")

        async def body():
            store = make_store(2)
            async with CorpusServer(store) as server:
                assert server.slowlog.enabled
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                assert len(server.slowlog) == 2
                entry = server.slowlog.entries()[0]
                assert entry["queue_wait"] >= 0
                assert entry["document"] is not None
                assert server.stats.slow_queries == 2

        run(body())


# =====================================================================
# NDJSON protocol: metrics and slowlog ops
# =====================================================================
class TestProtocolOps:
    def test_metrics_op_returns_prometheus_text(self):
        async def body():
            store = make_store(2)
            server = CorpusServer(store)
            tcp = await ProtocolServer(server).serve_tcp("127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                lines = [
                    line
                    async for line in request_lines(
                        "127.0.0.1", port, {"op": "metrics", "id": 5}
                    )
                ]
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.aclose()
            assert len(lines) == 1
            reply = lines[0]
            assert reply["type"] == "metrics"
            assert reply["content_type"].startswith("text/plain")
            body_text = reply["body"]
            assert 'repro_request_execution_seconds_bucket{le="+Inf"} 2' in body_text
            assert "repro_server_completed_total 2" in body_text

        run(body())

    def test_slowlog_op(self, monkeypatch):
        monkeypatch.setenv("REPRO_SLOW_QUERY_SECONDS", "0")

        async def body():
            store = make_store(3)
            server = CorpusServer(store)
            tcp = await ProtocolServer(server).serve_tcp("127.0.0.1", 0)
            port = tcp.sockets[0].getsockname()[1]
            try:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                lines = [
                    line
                    async for line in request_lines(
                        "127.0.0.1", port, {"op": "slowlog", "id": 6, "limit": 2}
                    )
                ]
            finally:
                tcp.close()
                await tcp.wait_closed()
                await server.aclose()
            reply = lines[0]
            assert reply["type"] == "slowlog"
            assert reply["threshold"] == 0.0
            assert len(reply["entries"]) == 2
            json.dumps(reply)

        run(body())


# =====================================================================
# Cross-process histogram merge (processes strategy)
# =====================================================================
class TestExecutorMetrics:
    def test_serial_metrics_count_matches_results(self):
        store = make_store(4)
        with CorpusExecutor(store, strategy="serial") as executor:
            results = list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
            merged = executor.metrics()
        histogram = merged.get(
            "repro_eval_seconds", {"engine": "polynomial", "strategy": "serial"}
        )
        assert histogram.count == len(results) == 4
        assert histogram.sum > 0

    def test_processes_metrics_merge_across_shards(self):
        store = make_store(6)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            results = list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
            merged = executor.metrics()
        # Worker-side histograms shipped back as dicts and merged in the
        # parent must account for every (document, query) evaluation; the
        # shard workers observe under the same label set, so the series
        # line up instead of appearing as duplicates.
        histogram = merged.get(
            "repro_eval_seconds", {"engine": "polynomial", "strategy": "processes"}
        )
        assert histogram.count == len(results) == 6
        assert histogram.quantile(0.95) is not None
        assert len(merged.series("repro_eval_seconds")) == 1


# =====================================================================
# Per-query resource accounting
# =====================================================================
class TestCostAccounting:
    def test_report_carries_cost_block(self):
        with Session() as session:
            name = session.add_tree("doc", generate_bibliography(3, seed=21))
            report = session.report(name, PAIR_QUERY, PAIR_VARS)
        cost = report.cost
        assert cost is not None
        assert cost["seconds"] > 0
        for key in (
            "compose_ops",
            "row_union_ops",
            "relations_built",
            "set_steps",
            "matrix_bytes",
            "matrix_cache_hits",
            "matrix_cache_misses",
        ):
            assert key in cost
        assert cost["set_steps"] > 0  # the pair query runs set-at-a-time axis steps
        json.dumps(cost)  # the block is plain JSON-serialisable data

    def test_corpus_results_carry_cost_blocks(self):
        store = make_store(3)
        with CorpusExecutor(store, strategy="serial") as executor:
            results = list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
        for result in results:
            assert result.report.cost is not None
            assert result.report.cost["seconds"] > 0

    def test_executor_folds_costs_into_labelled_counters(self):
        store = make_store(3)
        with CorpusExecutor(store, strategy="serial") as executor:
            results = list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
            merged = executor.metrics()
        labels = {"engine": "polynomial", "strategy": "serial"}
        counter = merged.get("repro_set_steps_total", labels)
        assert counter is not None
        expected = sum(result.report.cost["set_steps"] for result in results)
        assert counter.value == expected > 0

    def test_processes_strategy_ships_cost_counters_back(self):
        store = make_store(4)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            results = list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
            merged = executor.metrics()
        counter = merged.get(
            "repro_set_steps_total",
            {"engine": "polynomial", "strategy": "processes"},
        )
        assert counter is not None
        expected = sum(result.report.cost["set_steps"] for result in results)
        assert counter.value == expected > 0

    def test_server_attributes_costs_per_client(self):
        async def body():
            store = make_store(3)
            async with CorpusServer(store) as server:
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                stats = server.stats
            per_client = stats.cost_per_client
            assert per_client is not None
            totals = per_client["anonymous"]  # direct submissions have no peer
            assert totals["queries"] == 3
            assert totals["queue_wait"] >= 0
            assert totals["set_steps"] > 0
            assert totals["seconds"] > 0
            assert "cost_per_client" in stats.to_dict()
            json.dumps(stats.to_dict())

        run(body())


# =====================================================================
# Per-query span tree on QueryReport
# =====================================================================
class TestQueryTrace:
    def test_report_has_no_trace_by_default(self):
        with Session() as session:
            name = session.add_tree("doc", generate_bibliography(3, seed=1))
            report = session.report(name, PAIR_QUERY, PAIR_VARS)
        assert report.trace is None

    def test_session_trace_policy_enables_span_tree(self):
        try:
            with Session(execution=ExecutionPolicy(trace=True)) as session:
                name = session.add_tree("doc", generate_bibliography(4, seed=2))
                report = session.report(name, PAIR_QUERY, PAIR_VARS)
        finally:
            obs_trace.set_tracing(False)
        tree = report.trace
        assert tree is not None
        assert tree["name"] == "query.answer"
        names = [child["name"] for child in tree["children"]]
        assert "engine.answer" in names
        # Stage durations account for the root's wall time: the children
        # sum to within 10% of the root span (acceptance criterion).
        stage_sum = sum(child["seconds"] for child in tree["children"])
        assert abs(stage_sum - tree["seconds"]) <= 0.10 * tree["seconds"]
        # The tree is a plain dict: picklable across the pool boundary.
        pickle.loads(pickle.dumps(tree))

    def test_trace_attached_under_processes_strategy(self):
        # set_tracing (not the env) is the in-process switch; the shard
        # pool captures it at spawn time and re-enables it in each worker.
        obs_trace.set_tracing(True)
        store = make_store(2)
        with CorpusExecutor(store, strategy="processes", max_workers=2) as executor:
            results = list(executor.run((PAIR_QUERY, list(PAIR_VARS))))
        for result in results:
            assert result.report.trace is not None
            assert result.report.trace["name"] == "query.answer"


# =====================================================================
# Session stats and CLI
# =====================================================================
class TestSessionSurface:
    def test_session_stats_gain_uptime_and_slow_queries(self):
        with Session() as session:
            name = session.add_tree("doc", generate_bibliography(3, seed=3))
            session.query(name, PAIR_QUERY, PAIR_VARS)
            stats = session.stats()
        assert stats["uptime_seconds"] > 0
        assert stats["stats_at"] > 0
        assert stats["slow_queries"] == 0

    def test_session_metrics_merges_executor(self):
        with Session() as session:
            name = session.add_tree("doc", generate_bibliography(3, seed=4))
            list(session.query_corpus((PAIR_QUERY, list(PAIR_VARS)), documents=[name]))
            merged = session.metrics()
        histogram = merged.get(
            "repro_eval_seconds", {"engine": "polynomial", "strategy": "serial"}
        )
        assert histogram is not None
        assert histogram.count >= 1

    def test_cli_obs_trace(self, tmp_path, capsys):
        from repro.cli import main

        xml = tmp_path / "doc.xml"
        xml.write_text(tree_to_xml(generate_bibliography(3, seed=5)), encoding="utf-8")
        code = main(
            ["obs", "trace", "--xml", str(xml), "--query", PAIR_QUERY,
             "--vars", ",".join(PAIR_VARS)]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("query.answer")
        assert "engine.answer" in captured.out
        assert not obs_trace.enabled()  # the CLI restored the global flag

    def test_cli_obs_trace_ndjson(self, tmp_path, capsys):
        from repro.cli import main

        xml = tmp_path / "doc.xml"
        xml.write_text(tree_to_xml(generate_bibliography(2, seed=6)), encoding="utf-8")
        code = main(
            ["obs", "trace", "--xml", str(xml), "--query", PAIR_QUERY,
             "--vars", ",".join(PAIR_VARS), "--ndjson"]
        )
        captured = capsys.readouterr()
        assert code == 0
        events = [json.loads(line) for line in captured.out.splitlines()]
        assert events[0]["name"] == "query.answer"


# =====================================================================
# HTTP exposition
# =====================================================================
def _http_get(host: str, port: int, path: str):
    with urllib.request.urlopen(f"http://{host}:{port}{path}", timeout=5) as reply:
        return reply.status, reply.headers.get("Content-Type", ""), reply.read()


class TestObsHTTP:
    def test_endpoints_serve_metrics_health_slowlog_traces(self):
        registry = MetricsRegistry()
        registry.counter("repro_demo_total", "Demo", labels={"op": "x"}).inc(3)
        slowlog = SlowQueryLog(0.0)
        slowlog.record(0.2, query="slow one")
        endpoint = ObsHTTPServer(
            registry.render,
            slowlog=slowlog,
            health=lambda: {"documents": 7},
        )
        with endpoint:
            assert endpoint.port != 0  # port 0 resolves to a bound port
            status, content_type, body = _http_get(endpoint.host, endpoint.port, "/metrics")
            assert status == 200
            assert content_type.startswith("text/plain")
            assert 'repro_demo_total{op="x"} 3' in body.decode()

            status, content_type, body = _http_get(endpoint.host, endpoint.port, "/healthz")
            assert status == 200
            payload = json.loads(body)
            assert payload["status"] == "ok"
            assert payload["documents"] == 7

            status, _, body = _http_get(endpoint.host, endpoint.port, "/slowlog.json")
            assert status == 200
            payload = json.loads(body)
            assert payload["entries"][0]["query"] == "slow one"

            obs_trace.set_trace_sample(1.0)
            with obs_trace.span("query.answer"):
                pass
            status, content_type, body = _http_get(
                endpoint.host, endpoint.port, "/traces.ndjson"
            )
            assert status == 200
            assert content_type.startswith("application/x-ndjson")
            events = [json.loads(line) for line in body.decode().splitlines()]
            assert events[0]["name"] == "query.answer"
            # The scrape drained the ring: a second scrape is empty.
            _, _, body = _http_get(endpoint.host, endpoint.port, "/traces.ndjson")
            assert body == b""

    def test_unknown_path_is_404_and_scrape_errors_are_500(self):
        calls = {"n": 0}

        def broken_metrics():
            calls["n"] += 1
            raise RuntimeError("scrape bug")

        with ObsHTTPServer(broken_metrics) as endpoint:
            with pytest.raises(urllib.error.HTTPError) as info:
                _http_get(endpoint.host, endpoint.port, "/nope")
            assert info.value.code == 404
            with pytest.raises(urllib.error.HTTPError) as info:
                _http_get(endpoint.host, endpoint.port, "/metrics")
            assert info.value.code == 500
            # The serving thread survived the error: /healthz still answers.
            status, _, _ = _http_get(endpoint.host, endpoint.port, "/healthz")
            assert status == 200
        assert calls["n"] == 1

    def test_server_starts_endpoint_from_serving_policy(self):
        async def body():
            store = make_store(2)
            server = CorpusServer(store, policy=ServingPolicy(obs_port=0))
            try:
                assert server.obs_http is not None
                port = server.obs_http.port
                await server.answer((PAIR_QUERY, list(PAIR_VARS)))
                status, _, text = _http_get("127.0.0.1", port, "/metrics")
                assert status == 200
                assert "repro_server_completed_total 2" in text.decode()
                status, _, health = _http_get("127.0.0.1", port, "/healthz")
                assert json.loads(health)["documents"] == 2
            finally:
                await server.aclose()
            # aclose() stopped the endpoint: the port no longer answers.
            with pytest.raises(OSError):
                _http_get("127.0.0.1", port, "/healthz")

        run(body())

    def test_server_reads_obs_port_from_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_OBS_PORT", "0")

        async def body():
            store = make_store(1)
            async with CorpusServer(store) as server:
                assert server.obs_http is not None
                status, _, _ = _http_get("127.0.0.1", server.obs_http.port, "/healthz")
                assert status == 200

        run(body())

    def test_server_endpoint_off_by_default(self):
        async def body():
            store = make_store(1)
            async with CorpusServer(store) as server:
                assert server.obs_http is None

        run(body())


# =====================================================================
# Span-driven cost-model calibration
# =====================================================================
class TestCalibration:
    def test_density_bucket_is_log2_of_per_node_successors(self):
        assert obs_calibrate.density_bucket(128, 256) == 1
        assert obs_calibrate.density_bucket(128, 128 * 8) == 3
        assert obs_calibrate.density_bucket(0, 10) == 0

    def test_samples_from_traces_extracts_compose_spans(self):
        obs_trace.set_tracing(True)
        with obs_trace.span("query.answer"):
            with obs_trace.span(
                "kernel.compose", representation="dense", n=64, left_nnz=100, right_nnz=90
            ):
                pass
            with obs_trace.span("kernel.compose"):  # unattributed: skipped
                pass
        tree = obs_trace.take_last_trace()
        samples = obs_calibrate.samples_from_traces([tree, None])
        assert len(samples) == 1
        sample = samples[0]
        assert sample["representation"] == "dense"
        assert sample["n"] == 64
        assert sample["left_nnz"] == 100
        assert sample["right_nnz"] == 90
        assert sample["seconds"] >= 0

    def test_group_samples_median_reduces_per_cell(self):
        samples = [
            {"representation": "dense", "n": 64, "left_nnz": 128, "right_nnz": 128,
             "seconds": s}
            for s in (0.001, 0.002, 0.009)  # the 0.009 outlier must not win
        ]
        groups = obs_calibrate.group_samples(samples)
        assert len(groups) == 1
        assert groups[0]["samples"] == 3
        assert groups[0]["median_seconds"] == 0.002

    def test_fit_constants_recovers_synthetic_dense_constant(self):
        # Exact synthetic groups: median_seconds = c * n^3 ns with c = 0.05.
        groups = [
            {"representation": "dense", "n": n, "density_bucket": 2,
             "samples": 3, "median_seconds": 0.05 * n**3 * 1e-9,
             "left_nnz": 4 * n, "right_nnz": 4 * n}
            for n in (64, 128, 256)
        ]
        constants = obs_calibrate.fit_constants(groups)
        assert constants["BLAS_NS_PER_CELL"] == pytest.approx(0.05)

    def test_fit_constants_recovers_synthetic_sparse_constant(self):
        groups = []
        for n in (64, 128, 256):
            nnz = 4 * n
            touched = nnz + nnz * nnz / n
            groups.append(
                {"representation": "sparse", "n": n, "density_bucket": 2,
                 "samples": 3, "median_seconds": 400.0 * touched * 1e-9,
                 "left_nnz": nnz, "right_nnz": nnz}
            )
        constants = obs_calibrate.fit_constants(groups)
        assert constants["SPARSE_ELEMENT_NS"] == pytest.approx(400.0)

    def test_fit_constants_needs_enough_points(self):
        groups = [
            {"representation": "dense", "n": 64, "density_bucket": 2, "samples": 3,
             "median_seconds": 0.001, "left_nnz": 128, "right_nnz": 128}
        ]
        assert obs_calibrate.fit_constants(groups) == {}

    def test_calibrate_produces_profile_and_roundtrips(self, tmp_path):
        profile = obs_calibrate.calibrate(
            sizes=(64, 96, 128), per_node_densities=(2.0, 8.0), repeats=1, seed=0
        )
        assert profile["format"] == obs_calibrate.PROFILE_FORMAT
        assert profile["samples"] > 0
        assert profile["groups"]
        assert profile["constants"]  # the controlled grid always fits something
        for value in profile["constants"].values():
            assert value > 0
        path = str(tmp_path / "profile.json")
        assert obs_calibrate.save_profile(path, profile) == path
        loaded = obs_calibrate.load_profile(path)
        assert loaded["constants"] == profile["constants"]
        # Calibration restored the tracer state it flipped on.
        assert not obs_trace.tracing_enabled()

    def test_load_profile_rejects_non_profiles(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("[1, 2, 3]\n", encoding="utf-8")
        with pytest.raises(ValueError):
            obs_calibrate.load_profile(str(path))

    def test_bitmatrix_applies_fitted_constants(self, tmp_path):
        from repro.pplbin import bitmatrix

        try:
            bitmatrix.set_cost_constants({"WORD_NS": 123.0, "bogus": 1.0, "CELL_NS": -4})
            constants = bitmatrix.cost_constants()
            assert constants["WORD_NS"] == 123.0
            assert "bogus" not in constants
            assert constants["CELL_NS"] == bitmatrix.CELL_NS  # negative ignored

            profile = {"format": 1, "constants": {"SPARSE_ELEMENT_NS": 250.0}}
            path = tmp_path / "profile.json"
            path.write_text(json.dumps(profile), encoding="utf-8")
            applied = bitmatrix.load_cost_profile(str(path))
            assert applied["SPARSE_ELEMENT_NS"] == 250.0
            # Unfitted constants fall back to the built-in defaults.
            assert applied["WORD_NS"] == bitmatrix.WORD_NS
        finally:
            bitmatrix.set_cost_constants(None)
        assert bitmatrix.cost_constants()["SPARSE_ELEMENT_NS"] == (
            bitmatrix.SPARSE_ELEMENT_NS
        )

    def test_cli_obs_calibrate(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "profile.json"
        code = main(
            ["obs", "calibrate", "--sizes", "64,96,128", "--densities", "2,8",
             "--repeats", "1", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert code == 0
        payload = json.loads(captured.out)
        assert payload["constants"]
        assert payload["path"] == str(out)
        saved = json.loads(out.read_text(encoding="utf-8"))
        assert saved["constants"] == payload["constants"]


# =====================================================================
# CLI: serve run --obs-port
# =====================================================================
class TestServeCLIObsPort:
    def test_serve_run_parser_accepts_obs_port(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["serve", "run", "--dir", "corpus/", "--obs-port", "0"]
        )
        assert args.obs_port == 0
        args = build_parser().parse_args(["serve", "run", "--dir", "corpus/"])
        assert args.obs_port is None
