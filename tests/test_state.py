"""Captured audit evidence and ``pickle`` copies of machines.

Two layers of guarantees:

* **exact, private evidence** — every part of a machine the offline
  checker reads (memory, registers, Hypersec's claimed policy, MBM
  presence) is captured exactly, and later writes to the machine never
  reach the captured copy;
* **bit-identical replay** — a ``pickle`` copy of a live machine runs
  exactly like the original: the same cycles, statistics, ring-buffer
  contents and alerts (the contract the fuzzer's per-example copies
  depend on).
"""

import pickle

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hypernel import build_native, build_system
from repro.errors import SnapshotError
from repro.kernel.objects import CRED
from repro.obs import collect_metrics
from repro.security import CredIntegrityMonitor, DentryIntegrityMonitor
from repro.security.fuzz.invariants import run_invariants
from repro.security.fuzz.snapshot_checker import (
    SnapshotEvidence,
    capture_snapshot,
)
from tests.conftest import small_platform_config


def _build_monitored():
    return build_system(
        "hypernel",
        platform_config=small_platform_config(),
        monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
    )


def _contents(snapshot):
    """Everything a snapshot holds, as comparable values.  All-zero
    memory chunks are dropped: reads of an absent chunk return zero, so
    which chunks were ever materialized is not part of the evidence."""
    memory = [{key: bytes(chunk) for key, chunk in chunks.items()
               if any(chunk)}
              for chunks in snapshot.memory._chunk_maps]
    return (snapshot.config, memory, snapshot.regs, snapshot.policy,
            snapshot.has_mbm)


@pytest.fixture
def captured():
    """A booted monitored system, its snapshot and the checker's view."""
    system = _build_monitored()
    system.spawn_init()
    snapshot = capture_snapshot(system)
    return system, snapshot, SnapshotEvidence(snapshot)


class TestSectionRoundTrips:
    """Each part of the evidence reads back exactly what the live
    machine held at capture, and keeps reading it after the machine
    changes."""

    @pytest.mark.parametrize("section", ["cpu", "hypersec", "mbm", "memory"])
    def test_section_roundtrips_exactly(self, captured, section):
        system, _, evidence = captured
        if section == "cpu":
            regs = dict(system.cpu.regs._values)
            assert {name: evidence.reg(name) for name in regs} == regs
            system.cpu.regs.write("VBAR_EL1", regs["VBAR_EL1"] ^ 0x1000)
            assert evidence.reg("VBAR_EL1") == regs["VBAR_EL1"]
        elif section == "hypersec":
            hypersec = system.hypersec
            claimed = (set(hypersec.table_pages), set(hypersec.root_tables),
                       hypersec.kernel_root, dict(hypersec.recorded_regs))

            def view():
                return (evidence.claimed_tables(),
                        evidence.recorded_root_tables(),
                        evidence.recorded_kernel_root(),
                        {name: evidence.recorded_reg(name)
                         for name in claimed[3]})

            assert view() == claimed
            hypersec.table_pages.add(system.kernel.allocator.alloc("probe"))
            hypersec.recorded_regs["TCR_EL1"] ^= 0x1000
            assert view() == claimed
        elif section == "mbm":
            storage = system.mbm.bitmap_storage
            assert evidence.bitmap_storage() == storage
            system.mbm = None
            assert evidence.bitmap_storage() == storage
        else:
            root = system.hypersec.kernel_root
            bitmap_base, bitmap_limit = system.mbm.bitmap_storage
            spans = [(root, 512), (bitmap_base,
                                   (bitmap_limit - bitmap_base) // 8)]
            memory = system.platform.memory
            live = [memory.read_words(base, n) for base, n in spans]
            assert [evidence.peek_words(base, n) for base, n in spans] == live
            memory.write_word(root, live[0][0] ^ 1)
            memory.write_word(bitmap_base, live[1][0] ^ 1)
            assert [evidence.peek_words(base, n) for base, n in spans] == live

    def test_later_writes_do_not_reach_the_offline_report(self, captured):
        system, snapshot, evidence = captured
        before = run_invariants(evidence)
        assert before.clean, str(before)
        system.platform.bus.poke(system.mbm.bitmap.bitmap_base + 0x2000,
                                 0xFFFF)
        assert not system.hypersec.audit().clean
        after = run_invariants(SnapshotEvidence(snapshot))
        assert after.clean and after.findings == before.findings

    def test_resnapshot_is_content_identical(self, captured):
        original, snapshot, _ = captured
        copy = pickle.loads(pickle.dumps(original))
        assert _contents(capture_snapshot(copy)) == _contents(snapshot)


@pytest.fixture(scope="module")
def scratch_system():
    """A small machine whose memory the property below scribbles on; it
    is never run, only captured."""
    return build_system("hypernel", platform_config=small_platform_config(),
                        with_mbm=False)


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
    def test_random_write_patterns_survive_roundtrip(self, scratch_system,
                                                     writes):
        """``SnapshotEvidence.peek_words`` equals live memory after
        random writes, and stays put when the machine is written again."""
        system = scratch_system
        memory = system.platform.memory
        span = 3 * (1 << 16)  # three 64 KB chunks per area
        base_b = system.platform.secure_base - span
        base_a = base_b - 2 * span
        for index, value in writes:
            base = base_a if index % 2 else base_b
            memory.write_word(base + (index * 8) % span, value)
        evidence = SnapshotEvidence(capture_snapshot(system))
        live = [memory.read_words(base, span // 8)
                for base in (base_a, base_b)]
        assert [evidence.peek_words(base, span // 8)
                for base in (base_a, base_b)] == live
        for base in (base_a, base_b):
            memory.write_word(base, memory.read_word(base) ^ 1)
        assert [evidence.peek_words(base, span // 8)
                for base in (base_a, base_b)] == live


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
    return {
        "cycles": platform.clock.now,
        "metrics": collect_metrics(system).to_dict(),
        "ring_words": ring_words,
        "alerts": [
            (alert.reason, alert.addr, alert.observed, alert.expected)
            for alert in monitor.alerts
        ],
        "events": monitor.event_count,
        "population": platform.memory.population(),
    }


class TestBitIdenticalReplay:
    def test_post_run_snapshots_diff_clean(self):
        cold = _build_monitored()
        warm = pickle.loads(pickle.dumps(cold))
        _run_scenario(cold)
        _run_scenario(warm)
        assert (_contents(capture_snapshot(cold))
                == _contents(capture_snapshot(warm)))


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

    def test_restore_does_not_consume_or_mutate_the_snapshot(self):
        image = pickle.dumps(_build_monitored())
        before = _contents(capture_snapshot(pickle.loads(image)))
        _run_scenario(pickle.loads(image))
        assert _contents(capture_snapshot(pickle.loads(image))) == before


class TestEvidenceScope:
    def test_native_image_carries_no_policy(self):
        snapshot = capture_snapshot(
            build_native(platform_config=small_platform_config()))
        assert snapshot.policy is None and not snapshot.has_mbm
        with pytest.raises(SnapshotError, match="only hypernel images"):
            SnapshotEvidence(snapshot)
