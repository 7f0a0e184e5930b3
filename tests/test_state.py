"""Evidence snapshots (``repro.state``) and ``pickle`` copies of machines.

Three layers of guarantees:

* **evidence round-trips** — every section a snapshot carries survives
  the file format (JSON + zlib + checksums) exactly;
* **bit-identical replay** — a ``pickle`` copy of a live machine runs
  exactly like the original: the same cycles, statistics, ring-buffer
  contents and alerts (the contract the fuzzer's per-example copies
  depend on);
* **format integrity** — corrupt or mismatched snapshot files fail
  loudly with :class:`~repro.errors.SnapshotError`.
"""

import json
import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hypernel import build_native, build_system
from repro.errors import SnapshotError
from repro.hw.memory import PhysicalMemory
from repro.kernel.objects import CRED
from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
from repro.state import (
    MAGIC,
    SNAPSHOT_SCHEMA,
    diff_snapshots,
    load_snapshot,
    save_snapshot,
    snapshot_info,
)
from repro.utils.stats import merge
from tests.conftest import small_platform_config


def _normalize(value):
    """JSON round-trip: tuples become lists, exactly as the file format
    stores them, so captured sections compare equal to loaded ones."""
    return json.loads(json.dumps(value))


def _build_monitored():
    return build_system(
        "hypernel",
        platform_config=small_platform_config(),
        monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
    )


@pytest.fixture(scope="module")
def roundtrip(tmp_path_factory):
    """One monitored system, saved and loaded back, shared per module."""
    path = tmp_path_factory.mktemp("snaps") / "monitored.snap"
    original = _build_monitored()
    original.spawn_init()
    snapshot = save_snapshot(original, path)
    return original, snapshot, load_snapshot(path), path


class TestSectionRoundTrips:
    @pytest.mark.parametrize("section", ["cpu", "hypersec", "mbm", "memory"])
    def test_section_roundtrips_exactly(self, roundtrip, section):
        _, snapshot, loaded, _ = roundtrip
        assert section in snapshot.sections
        assert loaded.sections[section] == _normalize(
            snapshot.sections[section])

    def test_resnapshot_is_content_identical(self, roundtrip, tmp_path):
        original, snapshot, _, _ = roundtrip
        copy = pickle.loads(pickle.dumps(original))
        again = save_snapshot(copy, tmp_path / "again.snap")
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
    def test_post_run_snapshots_diff_clean(self, tmp_path):
        cold = _build_monitored()
        warm = pickle.loads(pickle.dumps(cold))
        _run_scenario(cold)
        _run_scenario(warm)
        path_a, path_b = tmp_path / "a.snap", tmp_path / "b.snap"
        save_snapshot(cold, path_a)
        save_snapshot(warm, path_b)
        assert "identical" in diff_snapshots(path_a, path_b)


class TestPickleCopy:
    """A ``pickle`` copy of a live machine runs exactly like the
    original: the fuzzer copies its boot machine this way for every
    example."""

    def test_pickle_copy_then_run_equals_cold_boot_then_run(self):
        cold = _build_monitored()
        warm = pickle.loads(pickle.dumps(cold))
        first = _run_scenario(cold)
        second = _run_scenario(warm)
        assert first == second
        assert first["events"] > 0 and first["alerts"]

    def test_lmbench_pickle_copy_all_systems(self):
        from repro.workloads.lmbench import LmbenchSuite

        for name, kwargs in [
            ("native", {}),
            ("kvm-guest", {"prepopulate_stage2": True}),
            ("hypernel", {"with_mbm": False}),
        ]:
            cold = build_system(
                name, platform_config=small_platform_config(), **kwargs
            )
            warm = pickle.loads(pickle.dumps(cold))
            runs = []
            for system in (cold, warm):
                suite = LmbenchSuite(system, warmup=1, iterations=2)
                suite.setup()
                rows = [suite.run_op("fork+execv"), suite.run_op("mmap")]
                runs.append((rows, system.platform.clock.now,
                             system.count_accesses()))
            assert runs[0] == runs[1], name


class TestInMemoryRestore:
    """Pickle once, copy many: the fuzzer pickles one boot machine per
    profile and unpickles a fresh copy for every example, so copies of
    one image must be mutually independent."""

    def test_one_decode_materializes_independent_systems(self):
        image = pickle.dumps(_build_monitored())
        first = pickle.loads(image)
        second = pickle.loads(image)
        run_first = _run_scenario(first)
        # `first` has now mutated its machine; a third copy of the same
        # image must still start pristine.
        third = pickle.loads(image)
        assert _run_scenario(second) == run_first
        assert _run_scenario(third) == run_first
        assert run_first["events"] > 0

    def test_restore_does_not_consume_or_mutate_the_snapshot(self, tmp_path):
        image = pickle.dumps(_build_monitored())
        before = save_snapshot(pickle.loads(image), tmp_path / "before.snap")
        _run_scenario(pickle.loads(image))
        after = save_snapshot(pickle.loads(image), tmp_path / "after.snap")
        assert after.content_hash == before.content_hash


class TestFormatIntegrity:
    def test_info_names_every_section(self, roundtrip):
        _, snapshot, _, path = roundtrip
        text = snapshot_info(path)
        assert f"schema {SNAPSHOT_SCHEMA}," in text
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

    def test_native_image_carries_no_policy(self, tmp_path):
        from repro.security.fuzz.snapshot_checker import check_snapshot

        path = tmp_path / "native.snap"
        save_snapshot(build_native(platform_config=small_platform_config()),
                      path)
        snapshot = load_snapshot(path)
        assert sorted(snapshot.sections) == ["cpu", "mbm", "memory"]
        with pytest.raises(SnapshotError, match="only hypernel images"):
            check_snapshot(snapshot)

    def test_diff_reports_changed_sections(self, roundtrip, tmp_path):
        original, _, _, path = roundtrip
        changed = pickle.loads(pickle.dumps(original))
        changed.cpu.regs.write("VBAR_EL1", 0x1000)  # one register only
        other = tmp_path / "other.snap"
        save_snapshot(changed, other)
        text = diff_snapshots(path, other)
        assert "section cpu: 1 difference" in text
        assert "VBAR_EL1" in text
        assert "memory" not in text

    def test_magic_prefix_on_disk(self, roundtrip):
        _, _, _, path = roundtrip
        assert path.read_bytes()[: len(MAGIC)] == MAGIC
