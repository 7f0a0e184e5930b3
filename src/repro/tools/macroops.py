"""Macro-op memoization: collapse periodic interpreter hot loops.

The lmbench-style latency drivers (``repro.workloads.lmbench``) run one
*kernel operation* — a monitored write, a fork/execv round trip, an
mmap/touch/munmap cycle — thousands of times against the same machine.
After a short warmup the machine state is **periodic**: every component
either returns to an identical configuration each period (memory words,
cache and TLB content, allocator pools, monitor shadows) or advances by
an identical *delta* (the clock, every StatSet counter, the MBM's
busy-cycle meters, the monitors' alert logs).

This engine detects that period at runtime and replays whole periods as
a single aggregate effect application:

1. **Record.**  Ops run raw, one at a time, with physical memory traced
   (a ``__class__`` swap onto a logging subclass — zero cost when not
   tracing).  After each op the write log is folded into a *shadow*
   (addr → final value of every word written this call) and a cheap
   sample is taken: shadow checksum, the small mutable component states
   (DRAM open rows, interrupt controller, capture FIFO, bitmap cache,
   monitor shadows…), a snapshot of every StatSet, the clock and its
   attribution buckets, and the alert-log lengths.
2. **Detect.**  When a sample's shadow and small state exactly match an
   earlier sample's, the ops between them are a candidate cycle.
3. **Verify.**  The candidate is *constructively verified*: a full
   fingerprint (normalized state digests of the kernel, Hypersec, KVM,
   both caches and the MMU) is taken, the candidate period is run once
   more raw, and the fingerprint plus every per-period delta — clock
   charge, each counter increment, busy cycles, appended alerts — must
   reproduce exactly.  A mismatch counts as ``replay_divergence`` and
   the candidate is discarded; this is the integrity check that
   replayed cycle charges equal recorded ones.
4. **Replay.**  All remaining whole periods are applied as one batched
   effect: ``clock.advance(Δcycles · n)``, ``stats.add(key, Δ · n)``,
   attribution and busy-cycle adds, and alert-log extension.  Component
   *content* needs no touch-up — a verified cycle is an identity on
   machine state by construction.  The leftover ``count mod period``
   ops run raw, so the final machine state is bit-identical to the
   unmemoized run.

Keying is content-addressed like the runner's CellCache: a confirmed
cycle is stored under a digest of (op key, CostModel/OpCosts, package
version) plus the full state fingerprint, memory digest and small-state
image of its starting point.  There is no explicit invalidation
protocol to get wrong — a monitored-page write, a Hypersec registration
change or TLB/ASID churn between calls lands in those digests and
simply misses the table, falling back to fresh detection.

Anything that cannot be proven periodic falls back to raw execution:
ops that return values, ops that read the clock (``kernel.uptime()`` —
their behaviour depends on absolute time), ops that exceed the
write-tracing budget, and loops that never revisit a state within the
sampling window.

Disable with ``REPRO_MACROOPS=0`` (or ``--no-macroops`` on the bench
CLIs); counters surface through ``repro.obs.metrics`` as the
``macroops`` component and the profiler's ``macroop_replay`` charge
site.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.hw.clock import Clock
from repro.hw.memory import _CHUNK_BYTES, _ZERO_CHUNK, PhysicalMemory
from repro.utils.stats import StatSet

_WORD = 8
_MIX_A = 0x9E3779B97F4A7C15
_MIX_B = 0xBF58476D1CE4E5B9
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1

#: Keys dropped when normalizing component state for fingerprints.  All
#: are monotonic observer-side logs whose *deltas* are replayed instead
#: of being required to match: StatSet counters ("stats", "syscalls"),
#: busy-cycle meters, TLB version counters ("epoch") and alert logs.
_STRIP_KEYS = frozenset({"stats", "busy_cycles", "epoch", "alerts", "syscalls"})


def memoization_enabled() -> bool:
    """Process-wide default: on unless ``REPRO_MACROOPS=0``."""
    return os.environ.get("REPRO_MACROOPS", "1") != "0"


def _strip(obj: Any) -> Any:
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in _STRIP_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _digest(state: Any) -> str:
    payload = json.dumps(_strip(state), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode()).hexdigest()


# ----------------------------------------------------------------------
# Tracing shims (installed via __class__ swap while the engine samples)
# ----------------------------------------------------------------------
class _TracedMemory(PhysicalMemory):
    """PhysicalMemory that logs every mutation (class-swapped in)."""

    __slots__ = ()  # must stay layout-compatible for __class__ assignment

    _LOG: List[tuple] = []

    def write_word(self, paddr: int, value: int) -> None:
        _TracedMemory._LOG.append(("w", paddr, value & _MASK64))
        PhysicalMemory.write_word(self, paddr, value)

    def fill(self, paddr: int, nwords: int, value: int = 0) -> None:
        if nwords > 0:
            _TracedMemory._LOG.append(("f", paddr, nwords, value & _MASK64))
        PhysicalMemory.fill(self, paddr, nwords, value)

    def copy_words(self, src: int, dst: int, nwords: int) -> None:
        PhysicalMemory.copy_words(self, src, dst, nwords)
        if nwords > 0:
            # Destination values are resolved at flatten time from the
            # (by then final) memory image; any word a later log entry
            # overlaps is corrected by that later entry, so log-order
            # folding still yields the exact final-value shadow.
            _TracedMemory._LOG.append(("c", dst, nwords))


class _TracedClock(Clock):
    """Clock whose ``now`` reads are counted (class-swapped in).

    An op that reads the clock depends on absolute time (file mtimes,
    ``uptime``) and is never safe to replay from a recorded period.
    Internal fast paths (``scope``, ``elapsed_since``, the engine
    itself) read ``_cycles`` directly and do not trip the counter.
    """

    _NOW_READS = 0

    @property
    def now(self) -> int:
        _TracedClock._NOW_READS += 1
        return self._cycles


# ----------------------------------------------------------------------
# Samples, deltas, confirmed cycles
# ----------------------------------------------------------------------
@dataclass
class _Sample:
    index: int                      #: ops completed when taken
    shadow: Dict[int, int]          #: copy of the write shadow
    checksum: int
    small: tuple                    #: small mutable component states
    stats: List[Dict[str, int]]     #: one snapshot per StatSet
    clock: int
    attribution: Dict[str, int]
    busy: Tuple[int, ...]
    alert_lens: Tuple[int, ...]


@dataclass(eq=True)
class _Delta:
    """Per-period observer-side increments of one candidate cycle."""

    clock: int
    stats: List[Dict[str, int]]
    attribution: Dict[str, int]
    busy: Tuple[int, ...]
    alerts: List[List[Any]]


@dataclass
class _Cycle:
    """A verified cycle: its length and per-period deltas."""

    length: int
    delta: _Delta


@dataclass
class EngineReport:
    """What one ``run_repeated`` call did (for gates and tests)."""

    key: str
    count: int
    replayed_ops: int = 0       #: ops satisfied by aggregate replay
    recorded_ops: int = 0       #: ops run raw under tracing
    raw_ops: int = 0            #: ops run raw without tracing
    cycle_length: int = 0
    replayed_periods: int = 0
    replayed_sim_cycles: int = 0
    bail_reason: str = ""       #: why (part of) the loop ran unmemoized


class MacroOpEngine:
    """Per-system macro-op memoizer (see module docstring)."""

    def __init__(
        self,
        system,
        *,
        enabled: Optional[bool] = None,
        max_samples: int = 128,
        write_budget: int = 60_000,
        min_iterations: int = 8,
        confirm_attempts: int = 4,
    ):
        self.system = system
        self.enabled = memoization_enabled() if enabled is None else enabled
        self.max_samples = max_samples
        self.write_budget = write_budget
        self.min_iterations = min_iterations
        self.confirm_attempts = confirm_attempts
        self.stats = self._attach_stats(system)
        self.memory: PhysicalMemory = system.platform.memory
        self.clock: Clock = system.platform.clock
        #: content-addressed table: op key → {entry-state key: _Cycle}
        self._confirmed: Dict[str, Dict[tuple, _Cycle]] = {}
        #: op keys that bailed for a structural reason (clock reads,
        #: return values, no cycle within the window): further calls go
        #: straight to raw execution instead of re-sampling.
        self._hopeless: Dict[str, str] = {}
        #: run_repeated invocations seen so far; cross-call entries are
        #: only stored once a second call proves the engine is reused.
        self._calls = 0
        self._config_key = self._compute_config_key()
        # Fixed observation sites (their order is the delta layout).
        from repro.obs.metrics import component_stat_sets
        self._stat_sets: List[StatSet] = [
            s for s in component_stat_sets(system) if s is not self.stats
        ]
        self._busy_sites: List[tuple] = []
        mbm = getattr(system, "mbm", None)
        if mbm is not None:
            self._busy_sites = [(mbm.translator, "busy_cycles"),
                                (mbm.decision, "busy_cycles")]
        self._alert_lists: List[list] = [
            app.alerts for app in getattr(system, "monitors", [])
        ]

    @staticmethod
    def _attach_stats(system) -> StatSet:
        stats = getattr(system, "macroop_stats", None)
        if stats is None:
            stats = StatSet("macroops")
            system.macroop_stats = stats
        return stats

    def _compute_config_key(self) -> str:
        """Digest of everything that changes what an op *does* for a
        given machine state: the cost/config tables and the package
        version (content-addressed keying, like the runner's
        CellCache)."""
        from dataclasses import asdict

        from repro import __version__

        config = self.system.platform.config
        parts: Dict[str, Any] = {
            "version": __version__,
            "system": self.system.name,
            "config": asdict(config),
        }
        return hashlib.sha256(
            json.dumps(parts, sort_keys=True, default=str).encode()
        ).hexdigest()

    # ------------------------------------------------------------------
    # Observation helpers
    # ------------------------------------------------------------------
    def _small_state(self) -> tuple:
        """Cheap exact image of the small mutable component states.

        Everything not covered here or by the write shadow is covered
        by the confirm-time full fingerprint instead (kernel, caches,
        MMU, Hypersec, KVM).
        """
        system = self.system
        platform = system.platform
        mmu = system.cpu.mmu
        gic = platform.gic
        parts: List[Any] = [
            system.cpu.current_el, mmu.asid, mmu.vmid,
            tuple(sorted(system.cpu.regs._values.items())),
            tuple(sorted(platform.dram._open_rows.items())),
            tuple(sorted(gic._masked.items())),
            tuple(sorted(gic._pending.items())),
            tuple(sorted(gic._in_service.items())),
        ]
        mbm = getattr(system, "mbm", None)
        if mbm is not None:
            parts += [tuple(mbm.fifo._entries), mbm.fifo.overrun,
                      tuple(mbm.bitmap_cache._lines.items()),
                      mbm._undelivered]
        for app in getattr(system, "monitors", []):
            bases = getattr(app, "_bases", None)
            parts += [
                tuple(sorted(app._shadow.items())),
                tuple(sorted((a, tuple(q)) for a, q in app._pending.items())),
                None if bases is None else tuple(sorted(bases.items())),
            ]
        return tuple(parts)

    @staticmethod
    def _shallow_strip(state: dict, deep: Tuple[str, ...] = ()) -> dict:
        """Drop observer keys at the top two levels (where this
        codebase's ``state_dict`` convention puts them), recursing
        fully only into the named ``deep`` subtrees."""
        out = {}
        for key, value in state.items():
            if key in _STRIP_KEYS:
                continue
            if key in deep:
                value = _strip(value)
            elif isinstance(value, dict):
                value = {k: v for k, v in value.items()
                         if k not in _STRIP_KEYS}
            out[key] = value
        return out

    def _full_state(self) -> list:
        """Exact normalized state of the big stateful components.

        Plain Python objects compared with ``==`` — taken only while
        verifying a candidate (a handful of times per call).  Cache
        state is read straight off the internals (cheaper than
        ``state_dict``, order-insensitive via the outer dict).  A
        normalization miss (an unstripped deep counter) can only cause
        a false divergence, never a false confirm.
        """
        system = self.system
        caches = system.platform.caches
        parts: List[Any] = [
            # "slab" is the one kernel subtree with deeper stats.
            self._shallow_strip(system.kernel.state_dict(), deep=("slab",)),
            {index: tuple(lines.items())
             for index, lines in caches.l1._sets.items()},
            {index: tuple(lines.items())
             for index, lines in caches.l2._sets.items()},
            self._shallow_strip(system.cpu.mmu.state_dict()),
        ]
        for attr in ("hypersec", "kvm"):
            component = getattr(system, attr, None)
            parts.append(None if component is None
                         else self._shallow_strip(component.state_dict()))
        return parts

    def _memory_digest(self) -> str:
        """Digest of the physical memory image.

        An allocated chunk that decayed back to all zeros is skipped so
        it digests identically to a never-allocated one (sparse writes
        of zero do not allocate; non-zero-then-zero does).
        """
        sha = hashlib.sha256()
        for base, chunks in zip(self.memory._bases, self.memory._chunk_maps):
            sha.update(base.to_bytes(8, "little"))
            for key in sorted(chunks):
                chunk = chunks[key]
                if len(chunk) == _CHUNK_BYTES and chunk == _ZERO_CHUNK:
                    continue
                sha.update(key.to_bytes(8, "little"))
                sha.update(bytes(chunk))
        return sha.hexdigest()

    def _entry_key(self) -> tuple:
        """Hashable content address of the machine's current state."""
        return (
            self._config_key,
            self._memory_digest(),
            hashlib.sha256(repr(self._small_state()).encode()).hexdigest(),
            _digest(self._full_state()),
        )

    def _snapshot(self, index: int, shadow: Dict[int, int],
                  checksum: int) -> _Sample:
        return _Sample(
            index=index,
            shadow=dict(shadow),
            checksum=checksum,
            small=self._small_state(),
            stats=[s.snapshot() for s in self._stat_sets],
            clock=self.clock._cycles,
            attribution=dict(self.clock.attribution),
            busy=tuple(getattr(obj, attr) for obj, attr in self._busy_sites),
            alert_lens=tuple(len(lst) for lst in self._alert_lists),
        )

    def _delta(self, older: _Sample, newer: _Sample) -> Optional[_Delta]:
        stats_delta: List[Dict[str, int]] = []
        for before, after in zip(older.stats, newer.stats):
            changes = {}
            for stat_key, value in after.items():
                diff = value - before.get(stat_key, 0)
                if diff < 0:
                    return None  # a counter ran backwards: not replayable
                if diff:
                    changes[stat_key] = diff
            stats_delta.append(changes)
        attribution_delta = {}
        for label, value in newer.attribution.items():
            diff = value - older.attribution.get(label, 0)
            if diff < 0:
                return None
            if diff:
                attribution_delta[label] = diff
        return _Delta(
            clock=newer.clock - older.clock,
            stats=stats_delta,
            attribution=attribution_delta,
            busy=tuple(b - a for a, b in zip(older.busy, newer.busy)),
            alerts=[list(lst[a:b]) for lst, a, b in
                    zip(self._alert_lists, older.alert_lens,
                        newer.alert_lens)],
        )

    def _apply(self, delta: _Delta, periods: int) -> None:
        self.clock.advance(delta.clock * periods)
        for stat_set, changes in zip(self._stat_sets, delta.stats):
            for stat_key, diff in changes.items():
                stat_set.add(stat_key, diff * periods)
        attribution = self.clock.attribution
        for label, diff in delta.attribution.items():
            attribution[label] = attribution.get(label, 0) + diff * periods
        for (obj, attr), diff in zip(self._busy_sites, delta.busy):
            setattr(obj, attr, getattr(obj, attr) + diff * periods)
        for alert_list, appended in zip(self._alert_lists, delta.alerts):
            if appended:
                # Alerts are frozen dataclasses: sharing references
                # across replayed periods is safe.
                alert_list.extend(appended * periods)

    def _flatten(self, log: List[tuple], shadow: Dict[int, int],
                 checksum: int) -> int:
        """Fold the write log into the shadow, maintaining the rolling
        order-independent checksum used for cheap bucket matching."""
        get = shadow.get
        for entry in log:
            kind = entry[0]
            if kind == "w":
                start, values = entry[1], (entry[2],)
            elif kind == "f":
                start, values = entry[1], (entry[3],) * entry[2]
            else:  # "c": resolve from the (by now final) memory image
                start = entry[1]
                values = PhysicalMemory.read_words(self.memory, start,
                                                   entry[2])
            addr = start
            for value in values:
                old = get(addr)
                if old is None:
                    shadow[addr] = value
                    checksum += (addr * _MIX_A ^ value * _MIX_B) & _MASK64
                elif old != value:
                    shadow[addr] = value
                    checksum += ((addr * _MIX_A ^ value * _MIX_B) & _MASK64) \
                        - ((addr * _MIX_A ^ old * _MIX_B) & _MASK64)
                addr += _WORD
        return checksum & _MASK128

    # ------------------------------------------------------------------
    # The hot loop
    # ------------------------------------------------------------------
    def run_repeated(self, key: str, op: Callable[[], Any],
                     count: int) -> EngineReport:
        """Run ``op()`` ``count`` times, replaying detected cycles.

        Machine state, counters and the clock end bit-identical to the
        plain ``for _ in range(count): op()`` loop.
        """
        self._calls += 1
        report = EngineReport(key=key, count=count)
        if not self.enabled or count < self.min_iterations:
            for _ in range(count):
                op()
            report.raw_ops = count
            if self.enabled:
                report.bail_reason = "short"
                self.stats.add("skipped_short")
            else:
                report.bail_reason = "disabled"
            self.stats.add("raw_ops", count)
            return report

        hopeless = self._hopeless.get(key)
        if hopeless is not None:
            for _ in range(count):
                op()
            report.raw_ops = count
            report.bail_reason = hopeless
            self.stats.add("raw_ops", count)
            return report

        # Cross-call reuse: when a cycle confirmed for this op key is
        # known and the entry state matches its starting point exactly,
        # skip detection and replay immediately.
        known_for_key = self._confirmed.get(key)
        if known_for_key:
            known = known_for_key.get(self._entry_key())
            if known is not None and count >= known.length:
                periods = count // known.length
                self._apply(known.delta, periods)
                for _ in range(count - periods * known.length):
                    op()
                self._note_replay(report, known, periods,
                                  count - periods * known.length)
                self.stats.add("entry_reuse")
                return report

        self._detect_and_replay(key, op, count, report)
        return report

    def _note_replay(self, report: EngineReport, cycle: _Cycle,
                     periods: int, raw_tail: int) -> None:
        report.replayed_ops += periods * cycle.length
        report.raw_ops += raw_tail
        report.cycle_length = cycle.length
        report.replayed_periods += periods
        report.replayed_sim_cycles += cycle.delta.clock * periods
        self.stats.add("hits", periods * cycle.length)
        self.stats.add("cycle_replays", periods)
        self.stats.add("raw_ops", raw_tail)
        self.stats.add("replayed_sim_cycles", cycle.delta.clock * periods)

    def _detect_and_replay(self, key: str, op: Callable[[], Any],
                           count: int, report: EngineReport) -> None:
        memory, clock = self.memory, self.clock
        log: List[tuple] = []
        _TracedMemory._LOG = log
        shadow: Dict[int, int] = {}
        checksum = 0
        flattened = 0
        samples: List[_Sample] = []
        buckets: Dict[tuple, List[int]] = {}
        i = 0
        attempts = 0
        memory.__class__ = _TracedMemory
        clock.__class__ = _TracedClock
        try:
            samples.append(self._snapshot(0, shadow, checksum))
            buckets[(0, 0)] = [0]
            while i < count:
                reads_before = _TracedClock._NOW_READS
                result = op()
                i += 1
                report.recorded_ops += 1
                if result is not None:
                    report.bail_reason = "return_value"
                    break
                if _TracedClock._NOW_READS != reads_before:
                    report.bail_reason = "clock_read"
                    break
                flattened += len(log)
                checksum = self._flatten(log, shadow, checksum)
                log.clear()
                if flattened > self.write_budget:
                    report.bail_reason = "budget"
                    break
                sample = self._snapshot(i, shadow, checksum)
                candidate = self._find_candidate(sample, buckets, samples)
                samples.append(sample)
                buckets.setdefault((len(shadow), checksum),
                                   []).append(len(samples) - 1)
                if candidate is None:
                    if len(samples) > self.max_samples:
                        report.bail_reason = "no_cycle"
                        break
                    continue
                length = sample.index - candidate.index
                if count - i < 2 * length:
                    report.bail_reason = "not_profitable"
                    break
                cycle, i, checksum, confirm = self._verify(
                    op, candidate, sample, i, log, shadow, checksum, report)
                if cycle is None:
                    if confirm is None:  # op disqualified mid-verify
                        break
                    attempts += 1
                    if attempts >= self.confirm_attempts:
                        report.bail_reason = "divergence"
                        break
                    # The verification ops were legitimate samples too:
                    # register the post-verify state and keep detecting.
                    samples.append(confirm)
                    buckets.setdefault(
                        (len(confirm.shadow), confirm.checksum), []
                    ).append(len(samples) - 1)
                    continue
                self.stats.add("cycle_confirms")
                # Remember the cycle under its *starting* state (which
                # is the machine's state right now — the verified cycle
                # is an identity) so a later call entering exactly here
                # replays instantly.  Computing the entry key digests
                # the full machine state, so skip it for single-use
                # engines (one engine per one-off loop).
                if self._calls > 1:
                    self._confirmed.setdefault(
                        key, {})[self._entry_key()] = cycle
                periods = (count - i) // cycle.length
                self._apply(cycle.delta, periods)
                done = i + periods * cycle.length
                # Finish the remainder raw (tracing no longer needed).
                memory.__class__ = PhysicalMemory
                clock.__class__ = Clock
                for _ in range(count - done):
                    op()
                self._note_replay(report, cycle, periods, count - done)
                self.stats.add("recorded_ops", report.recorded_ops)
                return
            # No usable cycle: run whatever remains raw.
            memory.__class__ = PhysicalMemory
            clock.__class__ = Clock
            remaining = count - i
            for _ in range(remaining):
                op()
            report.raw_ops += remaining
            if not report.bail_reason:
                report.bail_reason = "no_cycle"
            self.stats.add("misses", count)
            self.stats.add("recorded_ops", report.recorded_ops)
            self.stats.add("raw_ops", remaining)
            self.stats.add(f"bail_{report.bail_reason}")
            hopeless = report.bail_reason in ("clock_read", "return_value",
                                              "budget", "divergence")
            if report.bail_reason == "no_cycle":
                # Only structural: a call shorter than the period is not
                # evidence that a longer one would fail too.
                hopeless = len(samples) > self.max_samples
            if hopeless:
                self._hopeless[key] = report.bail_reason
        finally:
            memory.__class__ = PhysicalMemory
            clock.__class__ = Clock
            _TracedMemory._LOG = []

    @staticmethod
    def _find_candidate(sample: _Sample, buckets: Dict[tuple, List[int]],
                        samples: List[_Sample]) -> Optional[_Sample]:
        indices = buckets.get((len(sample.shadow), sample.checksum))
        if not indices:
            return None
        # Latest match first: the shortest (most profitable) period.
        for sample_index in reversed(indices):
            earlier = samples[sample_index]
            if (earlier.small == sample.small
                    and earlier.shadow == sample.shadow):
                return earlier
        return None

    def _verify(self, op: Callable[[], Any], candidate: _Sample,
                sample: _Sample, i: int, log: List[tuple],
                shadow: Dict[int, int], checksum: int,
                report: EngineReport):
        """Constructively verify a candidate cycle by re-running it.

        Returns ``(cycle, i, checksum, confirm_sample)``; ``cycle`` is
        ``None`` on divergence, and both ``cycle`` and
        ``confirm_sample`` are ``None`` when the op disqualified itself
        mid-verify (bail_reason is set on the report).
        """
        length = sample.index - candidate.index
        first = self._delta(candidate, sample)
        fingerprint = self._full_state()
        for _ in range(length):
            reads_before = _TracedClock._NOW_READS
            result = op()
            i += 1
            report.recorded_ops += 1
            disqualified = (result is not None
                            or _TracedClock._NOW_READS != reads_before)
            checksum = self._flatten(log, shadow, checksum)
            log.clear()
            if disqualified:
                report.bail_reason = ("return_value" if result is not None
                                      else "clock_read")
                return None, i, checksum, None
        confirm = self._snapshot(i, shadow, checksum)
        second = self._delta(sample, confirm)
        self.stats.add("integrity_checks")
        if (first is None or second is None or first != second
                or confirm.shadow != sample.shadow
                or confirm.small != sample.small
                or self._full_state() != fingerprint):
            self.stats.add("replay_divergence")
            return None, i, checksum, confirm
        return _Cycle(length=length, delta=second), i, checksum, confirm
