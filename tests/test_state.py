"""Checkpoint/restore subsystem tests (``repro.state``).

Three layers of guarantees:

* **section round-trips** — every component's ``state_dict`` survives
  the snapshot file format (JSON + zlib + checksums) and ``load_state``
  reproduces it exactly on a rebuilt skeleton;
* **bit-identical replay** — restore-then-run produces the same cycles,
  statistics, ring-buffer contents and alerts as cold-boot-then-run
  (the contract the fuzzer's per-example restores depend on);
* **format integrity** — corrupt or mismatched snapshot files fail
  loudly with :class:`~repro.errors.SnapshotError`.
"""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hypernel import build_kvm_guest, build_native, build_system
from repro.errors import ConfigurationError, SnapshotError
from repro.hw.memory import PhysicalMemory
from repro.kernel.objects import CRED
from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
from repro.state import (
    MAGIC,
    capture_snapshot,
    diff_snapshots,
    load_snapshot,
    restore_from_snapshot,
    restore_system,
    save_snapshot,
    snapshot_info,
)
from repro.utils.stats import merge
from tests.conftest import small_platform_config


def _normalize(value):
    """JSON round-trip: tuples become lists, exactly as the file format
    stores them, so fresh state dicts compare equal to loaded sections."""
    return json.loads(json.dumps(value))


def _build_monitored():
    return build_system(
        "hypernel",
        platform_config=small_platform_config(),
        monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
    )


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    """One monitored system, snapshotted and restored, shared per module."""
    path = tmp_path_factory.mktemp("snaps") / "monitored.snap"
    original = _build_monitored()
    original.spawn_init()
    snapshot = save_snapshot(original, path)
    restored = restore_system(path)
    return original, snapshot, restored, path


_ACCESSORS = {
    "memory": lambda s: s.platform.memory,
    "clock": lambda s: s.platform.clock,
    "caches": lambda s: s.platform.caches,
    "dram": lambda s: s.platform.dram,
    "bus": lambda s: s.platform.bus,
    "gic": lambda s: s.platform.gic,
    "cpu": lambda s: s.cpu,
    "kernel": lambda s: s.kernel,
    "hypersec": lambda s: s.hypersec,
    "mbm": lambda s: s.mbm,
}


class TestSectionRoundTrips:
    @pytest.mark.parametrize("section", sorted(_ACCESSORS))
    def test_section_roundtrips_exactly(self, roundtrip, section):
        original, snapshot, restored, _ = roundtrip
        assert section in snapshot.sections
        fresh = _ACCESSORS[section](restored).state_dict()
        assert _normalize(fresh) == _normalize(snapshot.sections[section])

    def test_monitor_sections_roundtrip(self, roundtrip):
        original, snapshot, restored, _ = roundtrip
        assert [app.name for app in restored.monitors] == [
            app.name for app in original.monitors
        ]
        assert _normalize(
            [app.state_dict() for app in restored.monitors]
        ) == _normalize(snapshot.sections["monitors"])

    def test_kvm_section_roundtrips(self, tmp_path):
        path = tmp_path / "kvm.snap"
        original = build_kvm_guest(
            platform_config=small_platform_config(), prepopulate_stage2=True
        )
        snapshot = save_snapshot(original, path)
        restored = restore_system(path)
        assert _normalize(restored.kvm.state_dict()) == _normalize(
            snapshot.sections["kvm"]
        )
        assert restored.cpu.regs.read("VTTBR_EL2") == original.cpu.regs.read(
            "VTTBR_EL2"
        )

    def test_resnapshot_is_content_identical(self, roundtrip, tmp_path):
        _, snapshot, restored, _ = roundtrip
        again = save_snapshot(restored, tmp_path / "again.snap")
        assert again.content_hash == snapshot.content_hash


class TestPhysicalMemoryProperty:
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3 * (1 << 13) - 1),  # word index, 3 chunks
                st.integers(0, (1 << 64) - 1),
            ),
            max_size=120,
        )
    )
    def test_random_write_patterns_survive_roundtrip(self, writes):
        base_a, base_b = 0x8000_0000, 0x9000_0000
        span = 3 * (1 << 16)  # three chunks per range

        def fresh():
            memory = PhysicalMemory()
            memory.add_range(base_a, span)
            memory.add_range(base_b, span)
            return memory

        original = fresh()
        for index, value in writes:
            base = base_a if index % 2 else base_b
            original.write_word(base + (index * 8) % span, value)
        clone = fresh()
        clone.load_state(_normalize(original.state_dict()))
        assert clone.population() == original.population()
        for base in (base_a, base_b):
            for addr in range(base, base + span, 8):
                assert clone.read_word(addr) == original.read_word(addr)


def _run_scenario(system):
    """The determinism-guard scenario: benign work + one monitored-write
    attack; returns every observable the engine produces."""
    kernel = system.kernel
    init = system.spawn_init()
    kernel.vfs.mkdir_p("/home/user")
    kernel.sys.creat(init, "/home/user/notes.txt")
    handle = kernel.sys.open(init, "/home/user/notes.txt")
    kernel.sys.write(init, handle, 4096)
    kernel.sys.close(init, handle)
    child = kernel.sys.fork(init)
    kernel.procs.context_switch(child)
    kernel.sys.exit(child)
    kernel.procs.context_switch(init)
    kernel.sys.wait(init)
    kernel.sys.setuid(init, 1000)
    euid_kva = kernel.linear_map.kva(
        init.cred_pa + CRED.field("euid").byte_offset
    )
    kernel.cpu.write(euid_kva, 0)

    monitor = system.monitor_by_name("cred_monitor")
    ring_words = [
        system.platform.bus.peek(system.mbm.ring.base + offset * 8)
        for offset in range(2 + 2 * min(system.mbm.ring.entries, 32))
    ]
    platform = system.platform
    stats = merge(
        system.cpu.stats,
        system.cpu.mmu.stats,
        system.cpu.mmu.tlb.stats,
        system.cpu.mmu.stage2_tlb.stats,
        platform.bus.stats,
        platform.dram.stats,
        platform.l1.stats,
        platform.l2.stats,
        platform.caches.stats,
        system.mbm.stats,
        system.mbm.snooper.stats,
        system.mbm.translator.stats,
        system.mbm.decision.stats,
        system.mbm.ring.stats,
    )
    return {
        "cycles": platform.clock.now,
        "stats": stats,
        "summary": system.stats_summary(),
        "ring_words": ring_words,
        "alerts": [
            (alert.reason, alert.addr, alert.observed, alert.expected)
            for alert in monitor.alerts
        ],
        "events": monitor.event_count,
        "population": platform.memory.population(),
    }


class TestBitIdenticalReplay:
    def test_restore_then_run_equals_cold_boot_then_run(self, tmp_path):
        """The tentpole contract: a machine restored from a post-boot
        snapshot replays a monitored attack scenario bit-identically."""
        path = tmp_path / "boot.snap"
        cold = _build_monitored()
        save_snapshot(cold, path)
        warm = restore_system(path)
        first = _run_scenario(cold)
        second = _run_scenario(warm)
        assert first == second
        assert first["events"] > 0 and first["alerts"]

    def test_post_run_snapshots_diff_clean(self, tmp_path):
        path = tmp_path / "boot.snap"
        cold = _build_monitored()
        save_snapshot(cold, path)
        warm = restore_system(path)
        _run_scenario(cold)
        _run_scenario(warm)
        path_a, path_b = tmp_path / "a.snap", tmp_path / "b.snap"
        save_snapshot(cold, path_a)
        save_snapshot(warm, path_b)
        assert "identical" in diff_snapshots(path_a, path_b)

    def test_lmbench_replay_all_systems(self, tmp_path):
        from repro.workloads.lmbench import LmbenchSuite

        for name, kwargs in [
            ("native", {}),
            ("kvm-guest", {"prepopulate_stage2": True}),
            ("hypernel", {"with_mbm": False}),
        ]:
            path = tmp_path / f"{name}.snap"
            cold = build_system(
                name, platform_config=small_platform_config(), **kwargs
            )
            save_snapshot(cold, path)
            warm = restore_system(path)
            for system in (cold, warm):
                suite = LmbenchSuite(system, warmup=1, iterations=2)
                suite.setup()
                suite.run_op("fork+execv")
                suite.run_op("mmap")
            assert warm.platform.clock.now == cold.platform.clock.now, name


class TestInMemoryRestore:
    """``restore_from_snapshot``: decode once, materialize many.

    The fuzzer leans on this — it builds one boot image per profile
    and restores a fresh system from it for every example, so restores
    from one :class:`Snapshot` must be mutually independent and
    bit-identical to a from-disk restore.
    """

    def test_one_decode_materializes_independent_systems(self, tmp_path):
        path = tmp_path / "boot.snap"
        save_snapshot(_build_monitored(), path)
        snapshot = load_snapshot(path)
        first = restore_from_snapshot(snapshot)
        second = restore_from_snapshot(snapshot)
        run_first = _run_scenario(first)
        # `first` has now mutated its machine; a third restore from the
        # same decoded snapshot must still start pristine.
        third = restore_from_snapshot(snapshot)
        assert _run_scenario(second) == run_first
        assert _run_scenario(third) == run_first
        assert run_first["events"] > 0

    def test_restore_does_not_consume_or_mutate_the_snapshot(self, tmp_path):
        path = tmp_path / "boot.snap"
        original = save_snapshot(_build_monitored(), path)
        snapshot = load_snapshot(path)
        _run_scenario(restore_from_snapshot(snapshot))
        again = save_snapshot(
            restore_from_snapshot(snapshot), tmp_path / "again.snap"
        )
        assert again.content_hash == original.content_hash

    def test_in_memory_restore_matches_from_disk_restore(self, tmp_path):
        path = tmp_path / "boot.snap"
        save_snapshot(_build_monitored(), path)
        via_disk = _run_scenario(restore_system(path))
        via_memory = _run_scenario(restore_from_snapshot(load_snapshot(path)))
        assert via_memory == via_disk


class TestFormatIntegrity:
    def test_info_names_every_section(self, roundtrip):
        _, snapshot, _, path = roundtrip
        text = snapshot_info(path)
        for entry in snapshot.manifest["sections"]:
            assert entry["name"] in text
        assert snapshot.content_hash in text
        assert "CredIntegrityMonitor" in text

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.snap"
        path.write_bytes(b"NOTASNAPSHOT" + b"\0" * 64)
        with pytest.raises(SnapshotError, match="magic"):
            load_snapshot(path)

    def test_corrupt_section_rejected(self, roundtrip, tmp_path):
        _, _, _, path = roundtrip
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF  # flip a byte inside the last section
        broken = tmp_path / "broken.snap"
        broken.write_bytes(bytes(blob))
        with pytest.raises(SnapshotError):
            load_snapshot(broken)

    def test_expect_hash_mismatch_rejected(self, roundtrip):
        _, _, _, path = roundtrip
        with pytest.raises(SnapshotError, match="content hash"):
            restore_system(path, expect_hash="0" * 64)

    def test_unbooted_skeleton_cannot_snapshot(self, tmp_path):
        skeleton = build_native(
            platform_config=small_platform_config(), _skeleton=True
        )
        with pytest.raises(ConfigurationError, match="unbooted"):
            capture_snapshot(skeleton)

    def test_diff_reports_changed_sections(self, roundtrip, tmp_path):
        original, _, _, path = roundtrip
        changed = restore_system(path)
        changed.cpu.compute(100)  # advance the clock only
        other = tmp_path / "other.snap"
        save_snapshot(changed, other)
        text = diff_snapshots(path, other)
        assert "clock" in text

    def test_magic_prefix_on_disk(self, roundtrip):
        _, _, _, path = roundtrip
        assert path.read_bytes()[: len(MAGIC)] == MAGIC
