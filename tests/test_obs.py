"""Tests for the unified observability layer (:mod:`repro.obs`) and the
three MBM event-loss / attribution regressions it was built around:

* ring-buffer tail write-back charged to the consumer's own ``writer``;
* span-aware ``BusTracer.writes_to`` / ``summary`` page bucketing;
* no IRQ for detections the ring dropped on overflow.
"""

import json

import pytest

from repro.config import PAGE_BYTES, WORD_BYTES
from repro.core.hypernel import build_hypernel, build_native
from repro.core.mbm.mbm import MemoryBusMonitor
from repro.core.mbm.ringbuf import EventRingBuffer
from repro.errors import IntegrityError
from repro.hw.platform import MBM_IRQ, Platform
from repro.obs import (
    DetectionTrace,
    RunMetrics,
    attribute_cycles,
    bus_trace_records,
    collect_metrics,
    metrics_records,
    verify_payload_integrity,
    write_jsonl,
)
from repro.obs.export import read_jsonl
from repro.security import CredIntegrityMonitor
from repro.tools.trace import BusTracer
from tests.conftest import small_platform_config
from tests.helpers import small_config, small_platform

TARGET = 0x8100_0000
RING_BASE = 0x8200_0000


@pytest.fixture
def platform():
    return small_platform()


@pytest.fixture
def monitored(platform_config):
    system = build_hypernel(
        platform_config=platform_config,
        monitors=[CredIntegrityMonitor()],
    )
    system.spawn_init()
    return system


def arm(mbm, paddr):
    word_addr, bit = mbm.bitmap.locate(paddr)
    bus = mbm.platform.bus
    bus.poke(word_addr, bus.peek(word_addr) | (1 << bit))


def force_fifo_overrun(system):
    """Latch a FIFO overrun directly (the drain is synchronous, so a
    real burst can't outrun it in simulation)."""
    fifo = system.mbm.fifo
    for index in range(fifo.depth + 1):
        fifo.push(TARGET, index)
    assert fifo.overrun


# ----------------------------------------------------------------------
# Regression 1: consume_all tail write-back attribution
# ----------------------------------------------------------------------
class TestRingWriterAttribution:
    def test_consume_all_routes_tail_through_supplied_writer(self, platform):
        ring = EventRingBuffer(platform.bus, RING_BASE, entries=8)
        ring.produce(TARGET, 5)
        writes = []

        def writer(paddr, value):
            writes.append((paddr, value))
            platform.bus.write(paddr, value)

        events = ring.consume_all(
            reader=lambda paddr: platform.bus.read(paddr), writer=writer
        )
        assert events == [(TARGET, 5)]
        # Pre-fix the write-back bypassed the writer entirely.
        assert writes == [(ring.base + WORD_BYTES, 1)]
        assert platform.bus.peek(ring.base + WORD_BYTES) == 1

    def test_tail_writeback_initiator_follows_consumer(self, platform):
        ring = EventRingBuffer(platform.bus, RING_BASE, entries=8)
        ring.produce(TARGET, 5)
        with BusTracer(platform, base=RING_BASE, size=0x1000) as tracer:
            ring.consume_all(
                reader=lambda p: platform.bus.read(p, initiator="monitor"),
                writer=lambda p, v: platform.bus.write(
                    p, v, initiator="monitor"
                ),
            )
        [record] = tracer.writes_to(ring.base + WORD_BYTES)
        # Pre-fix this store was a plain bus write: initiator "cpu".
        assert record.initiator == "monitor"

    def test_default_writer_preserves_readerless_behaviour(self, platform):
        ring = EventRingBuffer(platform.bus, RING_BASE, entries=8)
        ring.produce(TARGET, 1)
        ring.produce(TARGET + 8, 2)
        assert ring.consume_all() == [(TARGET, 1), (TARGET + 8, 2)]
        assert platform.bus.peek(ring.base + WORD_BYTES) == 2

    def test_hypersec_drain_charges_tail_store_as_uncached(self, monitored):
        """System-level: Hypersec's one store per drain now shows up in
        the cache hierarchy's uncached-store count (it used to be a raw
        bus write, invisible to the consuming agent's accounting)."""
        monitored.mbm.ring.produce(TARGET, 7)  # unmonitored -> orphan
        caches = monitored.platform.caches
        reads_before = caches.stats.get("uncached_reads")
        writes_before = caches.stats.get("uncached_writes")
        monitored.hypersec._h_mbm_service()
        # head + tail + one (addr, value) entry = 4 uncached loads ...
        assert caches.stats.get("uncached_reads") - reads_before == 4
        # ... and exactly one uncached store: the tail write-back.
        assert caches.stats.get("uncached_writes") - writes_before == 1


# ----------------------------------------------------------------------
# Regression 2: span-aware trace queries
# ----------------------------------------------------------------------
class TestTraceSpans:
    def test_writes_to_matches_inside_block_span(self, platform):
        with BusTracer(platform) as tracer:
            platform.bus.write_block(TARGET, 8)  # 8 words = 64 bytes
        assert len(tracer.writes_to(TARGET + 32)) == 1
        assert tracer.writes_to(TARGET + 32)[0].kind == "block_write"

    def test_writes_to_excludes_past_span_end(self, platform):
        with BusTracer(platform) as tracer:
            platform.bus.write_block(TARGET, 8)
        assert tracer.writes_to(TARGET + 8 * WORD_BYTES) == []

    def test_writes_to_still_matches_single_words(self, platform):
        with BusTracer(platform) as tracer:
            platform.bus.write(TARGET, 1)
            platform.bus.read(TARGET)
        assert [r.kind for r in tracer.writes_to(TARGET)] == ["write"]

    def test_summary_buckets_every_page_a_span_touches(self, platform):
        span_start = TARGET + PAGE_BYTES - 2 * WORD_BYTES
        with BusTracer(platform) as tracer:
            platform.bus.write_block(span_start, 4)  # straddles the page
        pages = tracer.summary()["hot_pages"]
        assert f"{TARGET:#x}" in pages
        assert f"{TARGET + PAGE_BYTES:#x}" in pages


# ----------------------------------------------------------------------
# Regression 3: overflow-dropped detections must not raise IRQs
# ----------------------------------------------------------------------
class TestOverflowIrqSuppression:
    def make_mbm(self, ring_entries=2):
        platform = Platform(small_config(mbm_ring_entries=ring_entries))
        mbm = MemoryBusMonitor(platform)
        mbm.attach()
        fired = []
        platform.gic.register(MBM_IRQ, fired.append)
        arm(mbm, TARGET)
        return platform, mbm, fired

    def test_no_irq_for_dropped_events(self):
        platform, mbm, fired = self.make_mbm(ring_entries=2)
        for index in range(4):
            platform.caches.write(TARGET, index, cacheable=False)
        assert mbm.events_detected == 4
        assert mbm.ring.stats.get("overflow_drops") == 2
        assert mbm.decision.stats.get("lost_events") == 2
        assert mbm.events_lost == 2
        # Pre-fix: 4 interrupts for 2 queued events — the handler would
        # find an empty ring twice and the two losses stayed silent.
        assert len(fired) == 2

    def test_on_hit_hook_sees_queued_flag(self):
        platform, mbm, fired = self.make_mbm(ring_entries=2)
        hits = []
        mbm.decision.on_hit = lambda paddr, value, queued: hits.append(queued)
        for index in range(3):
            platform.caches.write(TARGET, index, cacheable=False)
        assert hits == [True, True, False]


# ----------------------------------------------------------------------
# Regression 4 (found by the integrity gate): Hypersec's registration
# flush must not be booked as a writeback hazard
# ----------------------------------------------------------------------
class TestRegistrationFlushAttribution:
    def test_expected_flush_rebuckets_hazards(self):
        platform = Platform(small_config())
        mbm = MemoryBusMonitor(platform, raise_interrupts=False)
        mbm.attach()
        arm(mbm, TARGET)
        mbm.note_writeback(TARGET, 8)
        assert mbm.stats.get("writeback_hazards") == 1
        with mbm.expected_flush():
            mbm.note_writeback(TARGET, 8)
        assert mbm.stats.get("writeback_hazards") == 1
        assert mbm.stats.get("flushed_writebacks") == 1
        # The bracket is transient: back to hazard accounting after.
        mbm.note_writeback(TARGET, 8)
        assert mbm.stats.get("writeback_hazards") == 2

    def test_registration_flush_is_not_a_hazard(self, monitored):
        # Register a region over a page with a dirty cache line (the
        # normal life cycle of a freshly written kernel object): the
        # registration's own clean-invalidate used to latch a
        # writeback_hazard and fail the run's integrity check.
        from repro.core import hypercalls as hc

        kernel, hypersec = monitored.kernel, monitored.hypersec
        paddr = kernel.allocator.alloc("test-object")
        monitored.platform.caches.write(paddr, 0x1234, cacheable=True)
        sid = next(iter(hypersec._apps))
        rc = hypersec._h_register_region(
            sid, kernel.linear_map.kva(paddr), 8
        )
        assert rc == hc.HVC_OK
        assert monitored.mbm.stats.get("flushed_writebacks") == 1
        assert monitored.mbm.stats.get("writeback_hazards") == 0
        assert collect_metrics(monitored).check(
            "mbm.writeback_hazards"
        ).passed


# ----------------------------------------------------------------------
# RunMetrics collection and integrity checks
# ----------------------------------------------------------------------
class TestRunMetrics:
    def test_collection_is_clock_neutral_and_idempotent(self, monitored):
        monitored.kernel.sys.setuid(monitored.kernel.procs.current, 1000)
        before = monitored.platform.clock.now
        first = collect_metrics(monitored)
        assert monitored.platform.clock.now == before
        second = collect_metrics(monitored)
        assert first.to_dict() == second.to_dict()

    def test_clean_run_has_all_checks_passing(self, monitored):
        monitored.kernel.sys.setuid(monitored.kernel.procs.current, 1000)
        metrics = collect_metrics(monitored)
        assert metrics.clean
        assert len(metrics.checks) == 5
        assert metrics.check("mbm_fifo.overrun").value == 0
        assert metrics.gauges["events_detected"] > 0
        assert metrics.gauges["fifo_depth"] == 64
        assert metrics.counter("mbm_decision", "hits") > 0

    def test_no_mbm_means_no_checks(self):
        system = build_native(platform_config=small_platform_config())
        metrics = collect_metrics(system)
        assert metrics.checks == []
        assert metrics.clean

    def test_round_trip_and_json_clean(self, monitored):
        metrics = collect_metrics(monitored)
        data = metrics.to_dict()
        json.dumps(data)  # must be JSON-serializable as-is
        assert RunMetrics.from_dict(data).to_dict() == data

    def test_forced_overrun_fails_loudly(self, monitored):
        force_fifo_overrun(monitored)
        metrics = collect_metrics(monitored)
        assert not metrics.clean
        names = {check.name for check in metrics.failures}
        assert "mbm_fifo.overrun" in names
        assert "mbm_fifo.dropped" in names
        with pytest.raises(IntegrityError, match="mbm_fifo.overrun"):
            metrics.raise_on_failure("test run")

    def test_waiver_silences_named_checks_only(self, monitored):
        force_fifo_overrun(monitored)
        metrics = collect_metrics(
            monitored, waive=("mbm_fifo.overrun", "mbm_fifo.dropped")
        )
        assert metrics.clean
        assert metrics.check("mbm_fifo.overrun").waived

    def test_unknown_waiver_name_raises(self, monitored):
        with pytest.raises(IntegrityError, match="no_such.check"):
            collect_metrics(monitored, waive=("no_such.check",))


# ----------------------------------------------------------------------
# Cycle attribution
# ----------------------------------------------------------------------
class TestProfiler:
    def test_buckets_plus_residual_equal_total(self, monitored):
        monitored.kernel.sys.setuid(monitored.kernel.procs.current, 1000)
        attribution = attribute_cycles(monitored)
        assert attribution.total == monitored.platform.clock.now
        assert attribution.residual >= 0
        assert (
            sum(attribution.buckets.values()) + attribution.residual
            == attribution.total
        )
        assert attribution.buckets["hypercall_round_trips"] > 0

    def test_clock_scopes_are_attributed(self, monitored):
        with monitored.platform.clock.scope("workload"):
            monitored.kernel.sys.setuid(monitored.kernel.procs.current, 1000)
        attribution = attribute_cycles(monitored)
        assert attribution.scopes["workload"] > 0
        assert attribution.as_flat_dict()["scope:workload"] > 0


# ----------------------------------------------------------------------
# JSONL export
# ----------------------------------------------------------------------
class TestExport:
    def test_bus_trace_records(self, platform):
        with BusTracer(platform, base=TARGET, size=0x100) as tracer:
            platform.bus.write(TARGET, 1)
            platform.bus.write(TARGET + 8, 2)
        records = bus_trace_records(tracer)
        assert len(records) == 2
        assert all(record["type"] == "bus_txn" for record in records)
        assert records[0]["paddr"] == TARGET

    def test_detection_trace_records_hits(self):
        platform = Platform(small_config())
        mbm = MemoryBusMonitor(platform, raise_interrupts=False)
        mbm.attach()
        arm(mbm, TARGET)
        with DetectionTrace(mbm) as trace:
            platform.caches.write(TARGET, 0x42, cacheable=False)
        assert len(trace) == 1
        assert trace.records[0]["paddr"] == TARGET
        assert trace.records[0]["queued"] is True
        # Detached: further detections are not recorded.
        platform.caches.write(TARGET, 0x43, cacheable=False)
        assert len(trace) == 1

    def test_detection_trace_refuses_double_attach(self):
        platform = Platform(small_config())
        mbm = MemoryBusMonitor(platform, raise_interrupts=False)
        mbm.attach()
        first = DetectionTrace(mbm).attach()
        with pytest.raises(ValueError):
            DetectionTrace(mbm).attach()
        first.detach()

    def test_jsonl_round_trip(self, tmp_path, monitored):
        metrics = collect_metrics(monitored)
        records = metrics_records(metrics)
        path = tmp_path / "metrics.jsonl"
        assert write_jsonl(path, records) == len(records)
        assert read_jsonl(path) == records
        types = {record["type"] for record in records}
        assert {"counter", "gauge", "integrity_check",
                "cycle_attribution"} <= types


# ----------------------------------------------------------------------
# Payload-level enforcement (runner integration surface)
# ----------------------------------------------------------------------
class TestPayloadIntegrity:
    def test_skips_payloads_without_metrics(self):
        # Pre-observability cache entries carry no report: tolerated.
        verify_payload_integrity(["cell"], [{"rows": {}}])

    def test_raises_naming_cell_and_check(self, monitored):
        force_fifo_overrun(monitored)
        payload = {"metrics": collect_metrics(monitored).to_dict()}
        with pytest.raises(IntegrityError) as excinfo:
            verify_payload_integrity(["table1:hypernel:lmbench"], [payload])
        message = str(excinfo.value)
        assert "table1:hypernel:lmbench" in message
        assert "mbm_fifo.overrun" in message

    def test_waiver_applies_at_verification_time(self, monitored):
        force_fifo_overrun(monitored)
        payload = {"metrics": collect_metrics(monitored).to_dict()}
        verify_payload_integrity(
            ["cell"], [payload],
            waive=("mbm_fifo.overrun", "mbm_fifo.dropped"),
        )

    def test_run_cells_rejects_lossy_cached_payload(self, tmp_path,
                                                    monitored):
        # Enforcement is the only policy: a lossy payload already in the
        # cache fails the run by default, and only a waiver accepts it.
        from repro.tools.runner import Cell, CellCache, run_cells

        force_fifo_overrun(monitored)
        cell = Cell(kind="selftest", environment="lossy", workload="echo",
                    spec={"mode": "echo", "value": 1})
        cache = CellCache(tmp_path)
        assert cache.store(cell, {
            "value": 1, "metrics": collect_metrics(monitored).to_dict(),
        })
        with pytest.raises(IntegrityError) as excinfo:
            run_cells([cell], cache=cache)
        message = str(excinfo.value)
        assert "selftest:lossy:echo" in message
        assert "mbm_fifo.overrun" in message
        [payload] = run_cells(
            [cell], cache=cache,
            waive=("mbm_fifo.overrun", "mbm_fifo.dropped"),
        )
        assert payload["value"] == 1
        assert cache.hits == 2


# ----------------------------------------------------------------------
# Report health section
# ----------------------------------------------------------------------
class TestHealthReport:
    def test_health_lines_flag_failed_checks(self, monitored):
        from repro.analysis.report import health_lines

        force_fifo_overrun(monitored)
        data = collect_metrics(monitored).to_dict()
        text = "\n".join(health_lines({"table1": {"hypernel": data}}))
        assert "FAILED" in text
        assert "mbm_fifo.overrun" in text

    def test_health_lines_report_na_without_mbm(self):
        from repro.analysis.report import health_lines

        system = build_native(platform_config=small_platform_config())
        data = collect_metrics(system).to_dict()
        text = "\n".join(health_lines({"table1": {"native": data}}))
        assert "n/a (no MBM)" in text


# ----------------------------------------------------------------------
# CLI: python -m repro metrics
# ----------------------------------------------------------------------
class TestMetricsCli:
    """``metrics`` on the in-memory fixture system, handed to the CLI
    through its ``_system_under_test`` seam."""

    @pytest.fixture
    def clean(self, monkeypatch, monitored):
        from repro import cli

        monitored.kernel.sys.setuid(monitored.kernel.procs.current, 1000)
        monkeypatch.setattr(cli, "_system_under_test", lambda args: monitored)
        return monitored

    @pytest.fixture
    def lossy(self, monkeypatch, monitored):
        from repro import cli

        force_fifo_overrun(monitored)
        monkeypatch.setattr(cli, "_system_under_test", lambda args: monitored)
        return monitored

    def test_clean_system_exits_zero(self, capsys, clean):
        from repro.cli import main

        assert main(["metrics"]) == 0
        out = capsys.readouterr().out
        assert "integrity checks" in out
        assert "[    ok] mbm_fifo.overrun = 0" in out

    def test_forced_overrun_fails_with_named_check(self, capsys, lossy):
        from repro.cli import main

        assert main(["metrics"]) == 1
        out = capsys.readouterr().out
        assert "FAILED" in out  # the report prints before the exit
        assert "INTEGRITY FAILURE" in out
        assert "mbm_fifo.overrun = 1" in out

    def test_waive_turns_failure_into_success(self, capsys, lossy):
        from repro.cli import main

        assert main([
            "metrics",
            "--waive", "mbm_fifo.overrun", "--waive", "mbm_fifo.dropped",
        ]) == 0

    def test_unknown_waiver_is_an_error(self, capsys, clean):
        from repro.cli import main

        # A usage error: the parser rejects the name before any system
        # is built.
        with pytest.raises(SystemExit) as excinfo:
            main(["metrics", "--waive", "nope.nope"])
        assert excinfo.value.code == 2
        assert "unknown integrity check 'nope.nope'" in (
            capsys.readouterr().err)

    def test_json_export(self, capsys, tmp_path, clean):
        from repro.cli import main

        out_path = tmp_path / "metrics.jsonl"
        assert main(["metrics", "--json", str(out_path)]) == 0
        records = read_jsonl(out_path)
        assert records
        assert any(r["type"] == "integrity_check" for r in records)
