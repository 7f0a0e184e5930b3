"""Adversarial hypercall fuzzing of Hypersec (stateful, snapshot-reset).

A Hypothesis :class:`RuleBasedStateMachine` drives random — but
structurally adversarial — sequences of hypercalls, trapped system
register writes, attack mounts and kernel lifecycle operations against
a booted Hypernel machine.  The machine's oracle is the *shared
invariant specification* of :mod:`repro.security.fuzz.invariants`:

* before every ``pgtable_write`` the fuzzer evaluates the same
  :data:`~repro.security.fuzz.invariants.LEAF_INVARIANTS` predicate
  objects the auditors use, and predicts whether Hypersec **must deny**
  the request (the write would create a violating descriptor) or
  **must allow** it (a clearly legitimate update, e.g. installing a
  clean descriptor over an empty slot);
* after every rule the live auditor must report a clean machine
  (an *accepted* operation followed by a dirty audit is a policy hole
  by definition);
* at teardown the differential gate
  (:mod:`repro.security.fuzz.differential`) re-derives the machine
  state from a raw snapshot and must agree with the live channel.

A disagreement anywhere raises :class:`FuzzViolation`; Hypothesis then
shrinks the rule sequence to a minimal reproducer, which
:data:`LAST_TRACE` captures as a portable JSON operation list (see
``trace_document``/``replay_ops`` and ``tests/corpus/``).

Every test case starts from a copy of a cached post-boot machine
(:func:`restore_from_snapshot` unpickles it, in about 2 ms) instead of
re-booting, which is what makes hundreds of examples per CI run
affordable.

**Taming.**  Hypersec's policy deliberately allows some operations that
are *structurally* destructive — e.g. unlinking a table pointer whose
subtree holds live descriptors, or rewriting kernel-owned process
mappings — because they violate no security invariant.  Replaying them
blindly would wreck kernel bookkeeping and drown the fuzzer in false
positives, so the executor converts any *allowed* state-changing write
outside fuzz-owned tables (and any unlink of a non-empty subtree) into
a reissue of the current descriptor value: the hypercall path is still
exercised end to end, but the machine stays in the envelope where
"accepted + dirty audit" can only mean a genuine Hypersec bug.
Predicted-deny requests are never tamed — they must bounce off the
policy unchanged.

**Inputs depend on the source text.**  A seed fixes the inputs only
together with the code Hypothesis can see: its "local constants"
feature collects the literals of every loaded module outside
site-packages and the standard library, and answers about 5% of
integer draws with one of them.  Hypothesis skips integers between
-100 and 100, so an added integer literal up to ``2**16`` (the
``index`` range) in a module ``fuzz`` imports, or a change in which
``repro`` modules it imports, can change what ``fuzz --seed N`` runs.
Such a change must re-check the fuzz golden
(``benchmarks/e2e/expected/fuzz-seed0.txt``); name a bound through an
existing constant instead of a new literal where that will do.  The
same feature parses the ``repro`` sources on a cold run (about 0.2 s)
and caches the result in ``./.hypothesis/constants``.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
from typing import Dict, List, Optional, Set, Tuple

from repro.config import PAGE_BYTES, PAGE_WORDS, WORD_BYTES
from repro.errors import SecurityViolation
from repro.arch.pagetable import (
    DESC_AP_WRITE,
    DESC_NC,
    DESC_TABLE,
    DESC_USER,
    DESC_VALID,
    DESC_XN,
    Descriptor,
    LEVEL_SPAN,
    make_table_desc,
)
from repro.core import hypercalls as hc
from repro.security.fuzz.differential import differential_audit
from repro.security.fuzz.invariants import Geometry, LEAF_INVARIANTS
from repro.utils.bitops import align_down

__all__ = [
    "FUZZ_STATS",
    "FuzzViolation",
    "LAST_TRACE",
    "PROFILES",
    "apply_op",
    "fuzz_machine",
    "load_trace",
    "replay_ops",
    "reset_stats",
    "run_fuzz",
    "trace_document",
]

#: Hypercall-sequence trace of the most recent test case (minimal
#: reproducer after Hypothesis shrinking): ``{"op": ..., "result": ...}``
#: entries, JSON-serializable.
LAST_TRACE: List[dict] = []

#: Aggregate counters of the most recent :func:`run_fuzz`/replay —
#: examples executed, per-rule allowed/denied/tamed splits, violations.
FUZZ_STATS: Dict[str, int] = {}

#: Fuzzing profiles: linear-map mode of the machine under test.
PROFILES = ("section", "page")

_DENY, _ALLOW, _EITHER = "deny", "allow", "either"

_ADDR_MASK = ((1 << 48) - 1) & ~(PAGE_BYTES - 1)

#: SID no application ever owns.
_BOGUS_SID = 0x7777

_BOOT_SNAPSHOTS: Dict[str, bytes] = {}


class FuzzViolation(AssertionError):
    """The machine's verdict and the invariant spec disagree."""


def reset_stats() -> None:
    FUZZ_STATS.clear()


def _bump(key: str, amount: int = 1) -> None:
    FUZZ_STATS[key] = FUZZ_STATS.get(key, 0) + amount


def _hash64(index: int) -> int:
    """Deterministic pseudo-random 64-bit value for payload bytes."""
    return (index * 0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03) % (1 << 64)


# ----------------------------------------------------------------------
# Boot-image cache
# ----------------------------------------------------------------------
def _fuzz_platform_config():
    from repro.config import PlatformConfig

    # The smallest geometry that boots: keeps every audit walk and
    # bitmap scan cheap so hundreds of examples fit in a CI run.
    return PlatformConfig(
        dram_bytes=32 * 1024 * 1024,
        secure_bytes=4 * 1024 * 1024,
    )


def boot_snapshot(profile: str) -> bytes:
    """Boot (once) and return the pickled post-boot machine for a
    profile."""
    if profile not in PROFILES:
        raise ValueError(f"unknown fuzz profile {profile!r}; "
                         f"choose from {sorted(PROFILES)}")
    image = _BOOT_SNAPSHOTS.get(profile)
    if image is None:
        from repro.core.hypernel import build_hypernel
        from repro.kernel.kernel import KernelConfig
        from repro.security import (
            CredIntegrityMonitor,
            DentryIntegrityMonitor,
        )

        system = build_hypernel(
            platform_config=_fuzz_platform_config(),
            kernel_config=KernelConfig(linear_map_mode=profile),
            monitors=[CredIntegrityMonitor(), DentryIntegrityMonitor()],
        )
        system.spawn_init()
        image = _BOOT_SNAPSHOTS[profile] = pickle.dumps(system)
    return image


def restore_from_snapshot(image: bytes):
    """A fresh, independent copy of the machine ``image`` holds.

    ``image`` must come from :func:`boot_snapshot` in this process:
    unpickling runs code, so this never reads bytes from a file.
    """
    return pickle.loads(image)


# ----------------------------------------------------------------------
# The machine-under-test wrapper
# ----------------------------------------------------------------------
class FuzzContext:
    """One restored system plus the fuzzer's own shadow bookkeeping.

    The shadow state (owned tables, registered regions) is maintained
    *independently* of Hypersec's: a divergence between the two shows
    up as a wrong prediction and fails the run.
    """

    def __init__(self, system):
        self.system = system
        self.hypersec = system.hypersec
        self.kernel = system.kernel
        self.bus = system.platform.bus
        config = system.platform.config
        self.geometry = Geometry(
            dram_base=config.dram_base,
            dram_limit=config.dram_base + config.dram_bytes,
            secure_base=system.platform.secure_base,
            secure_limit=system.platform.secure_limit,
        )
        #: table pages this fuzzer allocated/registered, in order.
        self.fuzz_tables: List[int] = []
        self.fuzz_roots: List[int] = []
        #: data pages owned by the fuzzer: [0:2] monitored-region
        #: targets, [2:4] emulated-write targets.  Never mapped into a
        #: process tree, never freed — safe to monitor and scribble on.
        self.scratch: List[int] = [
            self._fresh_page(f"fuzz_scratch{i}") for i in range(4)
        ]
        #: shadow of every registered (base_pa, end_pa, sid) triple.
        self.regions: Set[Tuple[int, int, int]] = set()
        for ranges in self.hypersec._region_index.values():
            self.regions.update(ranges)
        self.monitor_sid = system.monitors[0].sid

    def _fresh_page(self, owner: str) -> int:
        frame = self.kernel.allocator.alloc(owner)
        self.system.platform.memory.fill(frame, PAGE_WORDS, 0)
        return frame

    @property
    def fuzz_table_set(self) -> Set[int]:
        return set(self.fuzz_tables)

    def hvc(self, func: int, *args: int) -> int:
        return self.kernel.cpu.hvc(func, *args)

    def table_is_empty(self, table: int) -> bool:
        return not any(self.bus.peek_words(table, PAGE_WORDS))

    def pick(self, pool, index: int):
        """Deterministic modular pick from a pool (None when empty)."""
        pool = sorted(pool) if isinstance(pool, (set, frozenset)) else list(pool)
        if not pool:
            return None
        return pool[index % len(pool)]


# ----------------------------------------------------------------------
# Prediction: what must Hypersec do with this request?
# ----------------------------------------------------------------------
def predict_pgtable_write(ctx: FuzzContext, desc_addr: int, value: int,
                          level: int) -> str:
    """Classify a ``pgtable_write`` request against the invariant spec.

    ``_DENY``: accepting the write would break a shared invariant (or
    the structural typing rules that keep the walk sound) — Hypersec
    *must* refuse.  ``_ALLOW``: a clearly legitimate update Hypersec
    *must* accept.  ``_EITHER``: legality depends on structural policy
    (monitored spans, the immutable linear map); only consistency is
    checked — a denial must change nothing, an accept must leave the
    audit clean.
    """
    h = ctx.hypersec
    if (level not in LEVEL_SPAN or desc_addr % WORD_BYTES
            or not 0 <= value < (1 << 64)):
        return _DENY
    table_page = align_down(desc_addr, PAGE_BYTES)
    if table_page not in h.table_pages:
        return _DENY
    known_level = h._table_levels.get(table_page)
    if known_level is None:
        return _ALLOW if value == 0 else _DENY
    if level != known_level:
        return _DENY
    desc = Descriptor(value)
    old = Descriptor(ctx.bus.peek(desc_addr))
    if desc.valid and level < 3 and desc.is_table:
        if desc.address not in h.table_pages:
            return _DENY
        child_level = h._table_levels.get(desc.address)
        if child_level is not None and child_level != level + 1:
            return _DENY
        return _predict_old_mapping(old, desc, level)
    if desc.valid:
        if any(invariant.violated(ctx.geometry, level, desc, h.table_pages)
               for invariant in LEAF_INVARIANTS):
            return _DENY
        return _predict_old_mapping(old, desc, level)
    return _predict_old_mapping(old, None, level)


def _predict_old_mapping(old: Descriptor, new: Optional[Descriptor],
                         level: int) -> str:
    if not old.valid:
        return _ALLOW
    old_is_table = level < 3 and old.is_table
    new_is_table = (new is not None and new.valid
                    and level < 3 and new.is_table)
    if (new is not None and new.valid and old_is_table == new_is_table
            and old.address == new.address):
        return _ALLOW  # attribute-only rewrite: same translation
    return _EITHER  # monitored-span / linear-map structural rules


def _predict_free(ctx: FuzzContext, table: int) -> str:
    h = ctx.hypersec
    if table not in h.table_pages:
        return _DENY
    if (table == align_down(h.kernel_root, PAGE_BYTES)
            or table in h.linear_tables):
        return _DENY
    if h._table_refs.get(table):
        return _DENY
    regs = ctx.kernel.cpu.regs
    for reg in ("TTBR0_EL1", "TTBR1_EL1"):
        if align_down(regs.read(reg), PAGE_BYTES) == table:
            return _DENY
    if not ctx.table_is_empty(table):
        return _DENY
    return _ALLOW


# ----------------------------------------------------------------------
# Operand resolution (symbolic anchors keep corpus traces portable)
# ----------------------------------------------------------------------
def _resolve_table(ctx: FuzzContext, anchor: dict) -> Optional[int]:
    kind, index = anchor["kind"], anchor.get("index", 0)
    h = ctx.hypersec
    if kind == "fuzz":
        return ctx.pick(ctx.fuzz_tables, index)
    if kind == "pgd":
        return ctx.kernel.procs.current.mm.pgd
    if kind == "root":
        return align_down(h.kernel_root, PAGE_BYTES)
    if kind == "linear":
        return ctx.pick(h.linear_tables, index)
    if kind == "unreg":
        return ctx.scratch[0]
    raise ValueError(f"unknown table anchor {kind!r}")


def _resolve_target(ctx: FuzzContext, space: str, index: int) -> int:
    geometry = ctx.geometry
    h = ctx.hypersec
    if space == "ram":
        pages = (geometry.secure_base - geometry.dram_base) // PAGE_BYTES
        return geometry.dram_base + (index % pages) * PAGE_BYTES
    if space == "secure":
        pages = (geometry.secure_limit - geometry.secure_base) // PAGE_BYTES
        return geometry.secure_base + (index % pages) * PAGE_BYTES
    if space == "table":
        return ctx.pick(h.table_pages, index) or geometry.dram_base
    if space == "fuzz":
        return ctx.pick(ctx.fuzz_tables, index) or ctx.scratch[0]
    if space == "monitored":
        return (ctx.pick(h._monitored_page_refs, index)
                or geometry.dram_base)
    if space == "off":
        return geometry.dram_limit + (index % 16) * PAGE_BYTES
    raise ValueError(f"unknown target space {space!r}")


def _build_desc(ctx: FuzzContext, spec: dict, level: int) -> int:
    kind = spec["kind"]
    if kind == "zero":
        return 0
    if kind == "garbage":
        return _hash64(spec.get("index", 0))
    target = _resolve_target(ctx, spec["space"], spec.get("index", 0))
    if kind == "table":
        # Allowed table installs must stay inside the fuzz-owned forest
        # (a verified pointer to a kernel-owned table would leave a
        # reference the kernel cannot know about); nudge any other
        # registered page off the registered set so the policy must
        # refuse it.
        if spec["space"] != "fuzz":
            while target in ctx.hypersec.table_pages:
                target += PAGE_BYTES
        return make_table_desc(align_down(target, PAGE_BYTES)
                               & ((1 << 48) - 1))
    raw = (target & _ADDR_MASK) | DESC_VALID
    if level == 3:
        raw |= DESC_TABLE  # page descriptors carry the table bit
    if spec.get("writable"):
        raw |= DESC_AP_WRITE
    if not spec.get("executable"):
        raw |= DESC_XN
    if not spec.get("cacheable", True):
        raw |= DESC_NC
    if spec.get("user"):
        raw |= DESC_USER
    return raw


# ----------------------------------------------------------------------
# The shared operation executor (rules AND corpus replay run this)
# ----------------------------------------------------------------------
def apply_op(ctx: FuzzContext, op: dict) -> str:
    """Execute one fuzz operation; returns a result tag for stats.

    Raises :class:`FuzzViolation` whenever Hypersec's verdict
    contradicts the invariant-spec prediction, a denied request changed
    state, or an accepted request did not take effect.
    """
    handler = _OP_HANDLERS.get(op.get("op"))
    if handler is None:
        raise ValueError(f"unknown fuzz op {op.get('op')!r}")
    tag = handler(ctx, op)
    _bump("ops")
    _bump(f"{op['op']}.{tag}")
    LAST_TRACE.append({"op": op, "result": tag})
    return tag


def _op_alloc(ctx: FuzzContext, op: dict) -> str:
    flaw = op.get("flaw", "none")
    geometry = ctx.geometry
    if flaw in ("none", "dirty"):
        frame = ctx._fresh_page("fuzz_table")
        if flaw == "dirty":
            ctx.bus.poke(frame + 8 * WORD_BYTES, 0xDEAD)
    elif flaw == "secure":
        frame = geometry.secure_base + PAGE_BYTES
    elif flaw == "off":
        frame = geometry.dram_limit + PAGE_BYTES
    elif flaw == "misaligned":
        frame = geometry.dram_base + 8
    elif flaw == "dup":
        frame = ctx.pick(ctx.hypersec.table_pages, op.get("index", 0))
    else:
        raise ValueError(f"unknown alloc flaw {flaw!r}")
    expect_ok = flaw == "none"
    result = ctx.hvc(hc.HVC_PGTABLE_ALLOC, frame, int(op.get("root", False)))
    if expect_ok and result != hc.HVC_OK:
        raise FuzzViolation(
            f"legitimate pgtable_alloc of {frame:#x} denied")
    if not expect_ok and result != hc.HVC_DENIED:
        raise FuzzViolation(
            f"flawed pgtable_alloc ({flaw}) of {frame:#x} accepted")
    if result == hc.HVC_OK:
        ctx.fuzz_tables.append(frame)
        if op.get("root"):
            ctx.fuzz_roots.append(frame)
        return "ok"
    return "denied"


def _op_write(ctx: FuzzContext, op: dict) -> str:
    table = _resolve_table(ctx, op["table"])
    if table is None:
        return "skip"
    slot = table + (op["slot"] % PAGE_WORDS) * WORD_BYTES
    level = op["level"]
    if level == 0:  # "auto": use the table's recorded level
        level = ctx.hypersec._table_levels.get(
            align_down(table, PAGE_BYTES), 1)
    value = _build_desc(ctx, op["desc"], level)
    prediction = predict_pgtable_write(ctx, slot, value, level)
    old_raw = ctx.bus.peek(slot)
    tamed = False
    if prediction != _DENY and value != old_raw:
        old = Descriptor(old_raw)
        unsafe = False
        if table not in ctx.fuzz_table_set:
            # Outside fuzz-owned tables any accepted state change wrecks
            # kernel bookkeeping (module docstring): probe with the
            # current value instead.
            unsafe = old_raw != 0 or value != 0
        elif old.valid and level < 3 and old.is_table:
            # Never orphan a non-empty subtree, never unhook a
            # kernel-owned child: the policy allows both.
            child = old.address
            unsafe = not (child in ctx.fuzz_table_set
                          and ctx.table_is_empty(child))
        if unsafe:
            value = old_raw
            prediction = predict_pgtable_write(ctx, slot, value, level)
            tamed = True
    result = ctx.hvc(hc.HVC_PGTABLE_WRITE, slot, value, level)
    after = ctx.bus.peek(slot)
    if result == hc.HVC_OK:
        if prediction == _DENY:
            raise FuzzViolation(
                f"invariant-violating write accepted: slot {slot:#x} "
                f"level {level} value {value:#x}")
        if after != value:
            raise FuzzViolation(
                f"accepted write to {slot:#x} not applied")
        return "tamed" if tamed else "allowed"
    if prediction == _ALLOW:
        raise FuzzViolation(
            f"legitimate write denied: slot {slot:#x} level {level} "
            f"value {value:#x}")
    if after != old_raw:
        raise FuzzViolation(
            f"denied write to {slot:#x} changed state anyway")
    return "denied"


def _op_link(ctx: FuzzContext, op: dict) -> str:
    """A guaranteed-legitimate table install: fuzz child, empty slot."""
    h = ctx.hypersec
    parents = [t for t in (ctx.fuzz_roots + ctx.fuzz_tables)
               if h._table_levels.get(t, 3) < 3]
    parent = ctx.pick(parents, op.get("parent", 0))
    if parent is None:
        return "skip"
    level = h._table_levels[parent]
    children = [t for t in ctx.fuzz_tables
                if t != parent
                and h._table_levels.get(t, level + 1) == level + 1]
    child = ctx.pick(children, op.get("child", 0))
    if child is None:
        return "skip"
    start = op.get("slot", 0) % PAGE_WORDS
    words = ctx.bus.peek_words(parent, PAGE_WORDS)
    slot = next(
        (parent + index * WORD_BYTES
         for index in (*range(start, PAGE_WORDS), *range(start))
         if words[index] == 0),
        None,
    )
    if slot is None:
        return "skip"
    result = ctx.hvc(hc.HVC_PGTABLE_WRITE, slot, make_table_desc(child),
                     level)
    if result != hc.HVC_OK:
        raise FuzzViolation(
            f"legitimate table link denied: {child:#x} under {parent:#x} "
            f"at level {level}")
    return "ok"


def _op_free(ctx: FuzzContext, op: dict) -> str:
    kind = op.get("target", "fuzz")
    h = ctx.hypersec
    if kind == "fuzz":
        table = ctx.pick(ctx.fuzz_tables, op.get("index", 0))
    elif kind == "root":
        table = align_down(h.kernel_root, PAGE_BYTES)
    elif kind == "linear":
        table = ctx.pick(h.linear_tables, op.get("index", 0))
    elif kind == "unreg":
        table = ctx.scratch[0]
    else:
        raise ValueError(f"unknown free target {kind!r}")
    if table is None:
        return "skip"
    prediction = _predict_free(ctx, table)
    result = ctx.hvc(hc.HVC_PGTABLE_FREE, table)
    if result == hc.HVC_OK:
        if prediction == _DENY:
            raise FuzzViolation(f"unsafe pgtable_free of {table:#x} accepted")
        if table in ctx.fuzz_tables:
            ctx.fuzz_tables.remove(table)
        if table in ctx.fuzz_roots:
            ctx.fuzz_roots.remove(table)
        return "ok"
    if prediction == _ALLOW:
        raise FuzzViolation(f"legitimate pgtable_free of {table:#x} denied")
    return "denied"


def _op_region(ctx: FuzzContext, op: dict) -> str:
    h = ctx.hypersec
    act = op["act"]
    kind = op.get("target", "scratch")
    sid = ctx.monitor_sid
    index = op.get("index", 0)
    if kind == "dup":
        triple = ctx.pick(ctx.regions, index)
        if triple is None:
            return "skip"
        base_pa, end_pa, sid = triple
        size = end_pa - base_pa
    elif kind == "scratch":
        page = ctx.scratch[index % 2]
        offset = (op.get("offset", 0) // WORD_BYTES * WORD_BYTES
                  ) % (PAGE_BYTES - WORD_BYTES)
        base_pa = page + offset
        size = max(WORD_BYTES,
                   min(op.get("size", WORD_BYTES) // WORD_BYTES * WORD_BYTES,
                       PAGE_BYTES - offset))
    elif kind == "secure":
        base_pa = ctx.geometry.secure_base + PAGE_BYTES
        size = op.get("size", 64) or 64
    elif kind == "off":
        base_pa = ctx.geometry.dram_limit + PAGE_BYTES
        size = op.get("size", 64) or 64
    elif kind == "bogus":
        base_pa = ctx.scratch[0]
        size = 64
        sid = _BOGUS_SID
    else:
        raise ValueError(f"unknown region target {kind!r}")
    end_pa = base_pa + size
    triple = (base_pa, end_pa, sid)
    in_coverage = (h.mbm is not None and size > 0
                   and h.mbm.bitmap.covers(base_pa)
                   and h.mbm.bitmap.covers(end_pa - 1))
    if act == "reg":
        if sid not in h._apps or not in_coverage or triple in ctx.regions:
            prediction = _DENY
        else:
            prediction = _ALLOW
        func = hc.HVC_REGISTER_REGION
    else:
        prediction = _ALLOW if (triple in ctx.regions and in_coverage
                                and sid in h._apps) else _DENY
        func = hc.HVC_UNREGISTER_REGION
    kva = ctx.kernel.linear_map.kva(base_pa)
    result = ctx.hvc(func, sid, kva, size)
    if result == hc.HVC_OK:
        if prediction == _DENY:
            raise FuzzViolation(
                f"{act} of region {base_pa:#x}+{size} (sid {sid}) accepted "
                "against the shadow registry")
        if act == "reg":
            ctx.regions.add(triple)
        else:
            ctx.regions.discard(triple)
        return "ok"
    if prediction == _ALLOW:
        raise FuzzViolation(
            f"legitimate region {act} of {base_pa:#x}+{size} denied")
    return "denied"


def _op_msr(ctx: FuzzContext, op: dict) -> str:
    cpu = ctx.kernel.cpu
    reg, kind = op["reg"], op["kind"]
    saved = cpu.mrs(reg)
    restore = False
    if kind == "good":
        value, expect_violation = saved, False
    elif kind == "rogue":
        expect_violation = True
        if reg == "TTBR1_EL1":
            value = saved ^ PAGE_BYTES
        elif reg == "TTBR0_EL1":
            value = ctx.scratch[0]  # never a registered root
        elif reg == "SCTLR_EL1":
            from repro.arch.registers import SCTLR_M
            value = saved & ~SCTLR_M
        else:  # TCR_EL1 / MAIR_EL1
            value = saved ^ 0x10
    elif kind == "fuzz_root":
        if reg != "TTBR0_EL1":
            return "skip"
        value = ctx.pick(ctx.fuzz_roots, op.get("index", 0))
        if value is None:
            return "skip"
        expect_violation, restore = False, True
    elif kind == "park":
        if reg != "TTBR0_EL1":
            return "skip"
        value, expect_violation, restore = 0, False, True
    else:
        raise ValueError(f"unknown msr kind {kind!r}")
    try:
        cpu.msr(reg, value)
        violated = False
    except SecurityViolation:
        violated = True
    if violated != expect_violation:
        raise FuzzViolation(
            f"msr {reg} <- {value:#x}: expected "
            f"{'a trap' if expect_violation else 'acceptance'}, got "
            f"{'a trap' if violated else 'acceptance'}")
    if violated and cpu.mrs(reg) != saved:
        raise FuzzViolation(f"refused msr {reg} changed the register")
    if not violated and cpu.mrs(reg) != value:
        raise FuzzViolation(f"accepted msr {reg} did not take effect")
    if restore:
        cpu.msr(reg, saved)
    return "trapped" if violated else "ok"


def _op_emulate(ctx: FuzzContext, op: dict) -> str:
    kind = op.get("target", "scratch")
    index = op.get("index", 0)
    geometry = ctx.geometry
    offset = (op.get("offset", 0) // WORD_BYTES * WORD_BYTES
              ) % (PAGE_BYTES // 2)
    if kind == "scratch":
        dest = ctx.scratch[2 + index % 2] + offset
        expect_ok = True
    elif kind == "table":
        dest = (ctx.pick(ctx.hypersec.table_pages, index)
                or geometry.dram_base) + offset
        expect_ok = False
    elif kind == "secure":
        dest = geometry.secure_base + offset
        expect_ok = False
    elif kind == "off":
        dest = geometry.dram_limit + offset
        expect_ok = False
    elif kind == "misaligned":
        dest = ctx.scratch[2] + offset + 4
        expect_ok = False
    else:
        raise ValueError(f"unknown emulate target {kind!r}")
    if op.get("block"):
        nwords = max(1, op.get("nwords", 1) % 64)
        if kind == "scratch":
            nwords = min(nwords, (PAGE_BYTES - offset) // WORD_BYTES)
        if kind == "misaligned":
            expect_ok = False
        result = ctx.hvc(hc.HVC_EMULATE_WRITE_BLOCK, dest, nwords)
    else:
        value = _hash64(index)
        result = ctx.hvc(hc.HVC_EMULATE_WRITE, dest, value)
        if result == hc.HVC_OK and ctx.bus.peek(dest) != value:
            raise FuzzViolation(
                f"accepted emulated write to {dest:#x} not applied")
    if expect_ok and result != hc.HVC_OK:
        raise FuzzViolation(f"legitimate emulated write to {dest:#x} denied")
    if not expect_ok and result != hc.HVC_DENIED:
        raise FuzzViolation(f"hostile emulated write to {dest:#x} accepted")
    return "ok" if result == hc.HVC_OK else "denied"


def _op_attack(ctx: FuzzContext, op: dict) -> str:
    from repro.attacks import FUZZABLE_ATTACKS

    attack_cls = FUZZABLE_ATTACKS[op["name"]]
    outcome = attack_cls().mount(ctx.system)
    if outcome.succeeded or not outcome.blocked:
        raise FuzzViolation(
            f"attack {op['name']!r} was not blocked: {outcome.notes}")
    return "blocked"


def _op_hvc_raw(ctx: FuzzContext, op: dict) -> str:
    func, nargs = op["func"], op["nargs"] % 8
    bounds = ctx.hypersec._HVC_ARITY.get(func)
    if bounds is not None and bounds[0] <= nargs <= bounds[1]:
        return "skip"  # a well-formed call belongs to the typed rules
    result = ctx.hvc(func, *([0] * nargs))
    if result != hc.HVC_DENIED:
        raise FuzzViolation(
            f"malformed hypercall (func {func}, {nargs} args) accepted")
    return "denied"


def _op_process(ctx: FuzzContext, op: dict) -> str:
    kernel = ctx.kernel
    tables_before = set(ctx.hypersec.table_pages)
    parent = kernel.procs.current
    child = kernel.sys.fork(parent)
    kernel.procs.context_switch(child)
    kernel.sys.execv(child)
    kernel.sys.exit(child)
    kernel.procs.context_switch(parent)
    kernel.sys.wait(parent)
    if set(ctx.hypersec.table_pages) != tables_before:
        raise FuzzViolation(
            "process lifecycle leaked or lost registered table pages")
    return "ok"


def _op_mbm(ctx: FuzzContext, op: dict) -> str:
    result = ctx.hvc(hc.HVC_MBM_SERVICE)
    if result != hc.HVC_OK:
        raise FuzzViolation("MBM interrupt service hypercall denied")
    return "ok"


_OP_HANDLERS = {
    "alloc": _op_alloc,
    "write": _op_write,
    "link": _op_link,
    "free": _op_free,
    "region": _op_region,
    "msr": _op_msr,
    "emulate": _op_emulate,
    "attack": _op_attack,
    "hvc_raw": _op_hvc_raw,
    "process": _op_process,
    "mbm": _op_mbm,
}


# ----------------------------------------------------------------------
# What every example checks (rules AND corpus replay run these)
# ----------------------------------------------------------------------
def _check_live_audit(ctx: FuzzContext) -> None:
    """After every operation: the live auditor must find a clean
    machine (an accepted operation followed by a dirty audit is a
    policy hole)."""
    report = ctx.hypersec.audit()
    if not report.clean:
        _bump("violations")
        tail = LAST_TRACE[-1]["op"] if LAST_TRACE else None
        raise FuzzViolation(f"live audit dirty after {tail!r}: {report}")


def _check_differential_gate(ctx: FuzzContext) -> None:
    """Closing an example: the snapshot-grounded channel must agree
    with the live one."""
    result = differential_audit(ctx.system)
    if not result.clean:
        _bump("differential_disagreements")
        raise FuzzViolation(str(result))
    _bump("differential_gates")


# ----------------------------------------------------------------------
# The Hypothesis state machine
# ----------------------------------------------------------------------
def fuzz_machine(profile: str = "section"):
    """Build the RuleBasedStateMachine class for one profile."""
    from hypothesis import strategies as st
    from hypothesis.stateful import (
        RuleBasedStateMachine,
        invariant,
        rule,
    )

    boot = boot_snapshot(profile)
    index = st.integers(min_value=0, max_value=2 ** 16)
    desc_spec = st.fixed_dictionaries({
        "kind": st.sampled_from(
            ["zero", "zero", "leaf", "leaf", "leaf", "table", "garbage"]),
        "space": st.sampled_from(
            ["ram", "secure", "table", "fuzz", "monitored", "off"]),
        "index": index,
        "writable": st.booleans(),
        "executable": st.booleans(),
        "user": st.booleans(),
        "cacheable": st.booleans(),
    })
    table_anchor = st.fixed_dictionaries({
        "kind": st.sampled_from(["fuzz", "fuzz", "pgd", "root", "linear",
                                 "unreg"]),
        "index": index,
    })

    class HypersecFuzzMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            LAST_TRACE.clear()
            _bump("examples")
            # The previous example's machine is garbage by now, but its
            # kernel, Hypersec and platform objects reference each
            # other, so only the cyclic collector frees them.  Collect
            # it here rather than whenever allocation volume next
            # triggers a full collection, so discarded machines do not
            # pile up and raise peak memory.  ``run_fuzz`` froze the
            # heap it started with, so this walks only what the run
            # allocated since.
            gc.collect()
            self.ctx = FuzzContext(restore_from_snapshot(boot))

        @rule(root=st.booleans(),
              flaw=st.sampled_from(["none", "none", "none", "dirty",
                                    "secure", "off", "misaligned", "dup"]),
              idx=index)
        def op_alloc(self, root, flaw, idx):
            apply_op(self.ctx, {"op": "alloc", "root": bool(root),
                                "flaw": flaw, "index": idx})

        @rule(anchor=table_anchor, slot=index,
              level=st.integers(min_value=0, max_value=3), desc=desc_spec)
        def op_write(self, anchor, slot, level, desc):
            apply_op(self.ctx, {"op": "write", "table": anchor,
                                "slot": slot, "level": level, "desc": desc})

        @rule(parent=index, child=index, slot=index)
        def op_link(self, parent, child, slot):
            apply_op(self.ctx, {"op": "link", "parent": parent,
                                "child": child, "slot": slot})

        @rule(kind=st.sampled_from(["fuzz", "fuzz", "fuzz", "root",
                                    "linear", "unreg"]),
              idx=index)
        def op_free(self, kind, idx):
            apply_op(self.ctx, {"op": "free", "target": kind,
                                "index": idx})

        @rule(act=st.sampled_from(["reg", "reg", "unreg"]),
              kind=st.sampled_from(["scratch", "scratch", "scratch",
                                    "dup", "secure", "off", "bogus"]),
              idx=index, offset=index, size=index)
        def op_region(self, act, kind, idx, offset, size):
            apply_op(self.ctx, {"op": "region", "act": act,
                                "target": kind, "index": idx,
                                "offset": offset, "size": size})

        @rule(reg=st.sampled_from(["TTBR0_EL1", "TTBR1_EL1", "SCTLR_EL1",
                                   "TCR_EL1", "MAIR_EL1"]),
              kind=st.sampled_from(["good", "rogue", "rogue", "fuzz_root",
                                    "park"]),
              idx=index)
        def op_msr(self, reg, kind, idx):
            apply_op(self.ctx, {"op": "msr", "reg": reg, "kind": kind,
                                "index": idx})

        @rule(kind=st.sampled_from(["scratch", "scratch", "table",
                                    "secure", "off", "misaligned"]),
              block=st.booleans(), idx=index, offset=index, nwords=index)
        def op_emulate(self, kind, block, idx, offset, nwords):
            apply_op(self.ctx, {"op": "emulate", "target": kind,
                                "block": bool(block), "index": idx,
                                "offset": offset, "nwords": nwords})

        @rule(name=st.sampled_from(sorted(_attack_names())))
        def op_attack(self, name):
            apply_op(self.ctx, {"op": "attack", "name": name})

        @rule(func=st.integers(min_value=0, max_value=64), nargs=index)
        def op_hvc_raw(self, func, nargs):
            apply_op(self.ctx, {"op": "hvc_raw", "func": func,
                                "nargs": nargs})

        @rule()
        def op_process(self):
            apply_op(self.ctx, {"op": "process"})

        @rule()
        def op_mbm(self):
            apply_op(self.ctx, {"op": "mbm"})

        @invariant()
        def live_audit_clean(self):
            _check_live_audit(self.ctx)

        def teardown(self):
            _check_differential_gate(self.ctx)

    HypersecFuzzMachine.__name__ = f"HypersecFuzzMachine_{profile}"
    return HypersecFuzzMachine


def _attack_names():
    from repro.attacks import FUZZABLE_ATTACKS

    return FUZZABLE_ATTACKS.keys()


# ----------------------------------------------------------------------
# Drivers: seeded runs and corpus replay
# ----------------------------------------------------------------------
def run_fuzz(profile: str = "section", seed: int = 0,
             max_examples: int = 100, steps: int = 8) -> Dict[str, int]:
    """Run the state machine; returns the stats counters.

    Deterministic for a fixed ``(profile, seed, max_examples, steps)``;
    raises :class:`FuzzViolation` (with :data:`LAST_TRACE` holding the
    shrunk reproducer) on any verdict/invariant disagreement.
    """
    from hypothesis import HealthCheck, seed as hypothesis_seed, settings
    from hypothesis.stateful import run_state_machine_as_test

    reset_stats()
    machine = fuzz_machine(profile)

    # Hypothesis digests the factory's source for a database key it
    # never uses here (``database=None``): a function's source is its
    # own few lines, a nested class's means parsing this whole module.
    def new_machine():
        return machine()

    # Everything alive now (the boot images, the imported modules,
    # Hypothesis itself) outlives the run: move it out of the
    # collector's reach, so each example's collection walks only the
    # objects the run allocated.
    gc.collect()
    gc.freeze()
    try:
        run_state_machine_as_test(
            hypothesis_seed(seed)(new_machine),
            settings=settings(
                max_examples=max_examples,
                stateful_step_count=steps,
                deadline=None,
                database=None,
                suppress_health_check=list(HealthCheck),
            ),
        )
    finally:
        gc.unfreeze()
    return dict(FUZZ_STATS)


def replay_ops(profile: str, ops: List[dict]) -> Dict[str, int]:
    """Replay a recorded operation list against a fresh machine.

    Runs the identical executor and checks (per-op live audit, final
    differential gate) as the state machine, so a trace that failed
    once keeps failing until the underlying bug is fixed.
    """
    reset_stats()
    LAST_TRACE.clear()
    _bump("examples")
    ctx = FuzzContext(restore_from_snapshot(boot_snapshot(profile)))
    for op in ops:
        apply_op(ctx, op)
        _check_live_audit(ctx)
    _check_differential_gate(ctx)
    return dict(FUZZ_STATS)


def trace_document(profile: str, note: str = "") -> dict:
    """:data:`LAST_TRACE` as a corpus document (what :func:`load_trace`
    reads)."""
    return {
        "schema": "repro.fuzz.trace/1",
        "profile": profile,
        "note": note,
        "ops": [entry["op"] for entry in LAST_TRACE],
    }


def load_trace(path: str) -> Tuple[str, List[dict]]:
    """Read a corpus file; returns ``(profile, ops)``."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if document.get("schema") != "repro.fuzz.trace/1":
        raise ValueError(f"{path}: not a fuzz trace file")
    return document["profile"], document["ops"]


def replay_corpus(directory: str) -> Dict[str, int]:
    """Replay every ``*.json`` trace under a corpus directory."""
    totals: Dict[str, int] = {}
    files = sorted(
        name for name in os.listdir(directory) if name.endswith(".json")
    )
    for name in files:
        profile, ops = load_trace(os.path.join(directory, name))
        stats = replay_ops(profile, ops)
        for key, value in stats.items():
            totals[key] = totals.get(key, 0) + value
    totals["corpus_files"] = len(files)
    FUZZ_STATS.clear()
    FUZZ_STATS.update(totals)
    return totals
