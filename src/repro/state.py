"""Machine checkpoint/restore: versioned snapshots with bit-identical replay.

A :class:`Snapshot` captures *everything* that makes a simulated machine
deterministic — physical memory, caches and TLBs, CPU and system
registers, the interrupt controller, the clock, every kernel subsystem,
the KVM stage-2 tables, Hypersec's policy/monitoring state, the MBM
pipeline and all :class:`~repro.utils.stats.StatSet` counters (flushed
before capture).  The contract is **bit-identical replay**: restoring a
snapshot and running a workload must produce exactly the same cycles,
statistics and ring-buffer contents as booting cold and running the same
workload (guarded by ``tests/test_state.py``).

On-disk format (version :data:`SNAPSHOT_SCHEMA`)::

    MAGIC | manifest_len (8 bytes BE) | manifest JSON | blob … blob

The manifest records the schema, the package's source digest
(:func:`repro.tools.runner.source_digest`), the full cost
fingerprint (the :class:`~repro.config.PlatformConfig` +
:class:`~repro.config.CostModel` + :class:`~repro.kernel.kernel.OpCosts`
recipe shared with the runner's cell cache), the system build recipe,
and one entry per section: name, raw/compressed sizes and a SHA-256
checksum.  Sections are zlib-compressed JSON; the whole snapshot gets a
content hash over its checksums, fingerprint and recipe.

Restore rebuilds the system *skeleton* (all wiring, no boot), loads the
memory image, then loads every component's state dict — see
``DESIGN.md`` section 5c.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.config import CostModel, PlatformConfig
from repro.errors import SnapshotError
from repro.kernel.kernel import KernelConfig, OpCosts

MAGIC = b"REPROSNAP\x00"
SNAPSHOT_SCHEMA = 2

#: capture/restore order; restore applies "memory" first so component
#: loads see the snapshotted image, not skeleton-construction leftovers.
_SECTION_ORDER = [
    "memory",
    "clock",
    "caches",
    "dram",
    "bus",
    "gic",
    "cpu",
    "kernel",
    "kvm",
    "hypersec",
    "mbm",
    "monitors",
]


def _json_bytes(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False).encode(
        "utf-8"
    )


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Snapshot:
    """A decoded snapshot: manifest plus per-section state dicts."""

    manifest: Dict[str, Any]
    sections: Dict[str, Any] = field(default_factory=dict)

    @property
    def content_hash(self) -> str:
        return self.manifest["content_hash"]

    @property
    def system_name(self) -> str:
        return self.manifest["recipe"]["system"]

    def platform_config(self) -> PlatformConfig:
        """Reconstruct the platform config from the cost fingerprint."""
        document = dict(self.manifest["fingerprint"]["platform"])
        costs = CostModel(**document.pop("costs"))
        return PlatformConfig(costs=costs, **document)

    def section(self, name: str) -> Any:
        """One decoded section's state dict.

        Raises :exc:`~repro.errors.SnapshotError` when the snapshot does
        not carry the section (e.g. asking a native image for
        ``hypersec``), so offline analysers get a typed error instead of
        a bare ``KeyError``.
        """
        try:
            return self.sections[name]
        except KeyError:
            raise SnapshotError(f"snapshot has no {name!r} section") from None

    def kernel_config(self) -> KernelConfig:
        document = self.manifest["recipe"]["kernel_config"]
        return KernelConfig(
            linear_map_mode=document["linear_map_mode"],
            image_reserve_bytes=document["image_reserve_bytes"],
            op_costs=OpCosts(**document["op_costs"]),
        )


# ----------------------------------------------------------------------
# Capture
# ----------------------------------------------------------------------
def _system_sections(system) -> Dict[str, Any]:
    """Collect every component's state dict, in section order."""
    platform = system.platform
    sections: Dict[str, Any] = {
        "memory": platform.memory.state_dict(),
        "clock": platform.clock.state_dict(),
        "caches": platform.caches.state_dict(),
        "dram": platform.dram.state_dict(),
        "bus": platform.bus.state_dict(),
        "gic": platform.gic.state_dict(),
        "cpu": system.cpu.state_dict(),
        "kernel": system.kernel.state_dict(),
    }
    if system.kvm is not None:
        sections["kvm"] = system.kvm.state_dict()
    if system.hypersec is not None:
        sections["hypersec"] = system.hypersec.state_dict()
    if system.mbm is not None:
        sections["mbm"] = system.mbm.state_dict()
    if system.monitors:
        sections["monitors"] = [app.state_dict() for app in system.monitors]
    return sections


def capture_snapshot(system) -> Snapshot:
    """Snapshot a live system (in memory; see :func:`save_snapshot`)."""
    if not system.recipe:
        raise SnapshotError(
            f"system {system.name!r} carries no build recipe; build it "
            "through repro.core.hypernel to make it snapshottable"
        )
    from repro.tools.runner import cost_fingerprint, source_digest

    sections = _system_sections(system)
    entries = []
    for name in _SECTION_ORDER:
        if name not in sections:
            continue
        raw = _json_bytes(sections[name])
        entries.append({"name": name, "raw_len": len(raw),
                        "sha256": _sha256(raw)})
    fingerprint = cost_fingerprint(system.platform.config)
    source = source_digest()
    manifest = {
        "schema": SNAPSHOT_SCHEMA,
        "source": source,
        "fingerprint": fingerprint,
        "recipe": system.recipe,
        "sections": entries,
        "content_hash": _sha256(_json_bytes({
            "schema": SNAPSHOT_SCHEMA,
            "source": source,
            "fingerprint": fingerprint,
            "recipe": system.recipe,
            "sections": entries,
        })),
    }
    return Snapshot(manifest=manifest, sections=sections)


def save_snapshot(system, path: os.PathLike | str) -> Snapshot:
    """Capture ``system`` and write the snapshot file atomically."""
    snapshot = capture_snapshot(system)
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    blobs: List[bytes] = []
    for entry in snapshot.manifest["sections"]:
        blob = zlib.compress(_json_bytes(snapshot.sections[entry["name"]]), 6)
        entry["blob_len"] = len(blob)
        blobs.append(blob)
    manifest_bytes = _json_bytes(snapshot.manifest)
    tmp = target.with_suffix(target.suffix + ".tmp")
    with open(tmp, "wb") as handle:
        handle.write(MAGIC)
        handle.write(len(manifest_bytes).to_bytes(8, "big"))
        handle.write(manifest_bytes)
        for blob in blobs:
            handle.write(blob)
    tmp.replace(target)
    return snapshot


# ----------------------------------------------------------------------
# Load
# ----------------------------------------------------------------------
def read_manifest(path: os.PathLike | str) -> Dict[str, Any]:
    """Parse and sanity-check only the manifest (cheap)."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise SnapshotError(f"{path}: not a repro snapshot (bad magic)")
        manifest_len = int.from_bytes(handle.read(8), "big")
        try:
            manifest = json.loads(handle.read(manifest_len))
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: corrupt manifest: {exc}") from exc
    if manifest.get("schema") != SNAPSHOT_SCHEMA:
        raise SnapshotError(
            f"{path}: snapshot schema {manifest.get('schema')!r} is not "
            f"supported (expected {SNAPSHOT_SCHEMA})"
        )
    return manifest


def load_snapshot(path: os.PathLike | str) -> Snapshot:
    """Read, checksum-verify and decode a snapshot file."""
    with open(path, "rb") as handle:
        magic = handle.read(len(MAGIC))
        if magic != MAGIC:
            raise SnapshotError(f"{path}: not a repro snapshot (bad magic)")
        manifest_len = int.from_bytes(handle.read(8), "big")
        try:
            manifest = json.loads(handle.read(manifest_len))
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"{path}: corrupt manifest: {exc}") from exc
        if manifest.get("schema") != SNAPSHOT_SCHEMA:
            raise SnapshotError(
                f"{path}: snapshot schema {manifest.get('schema')!r} is not "
                f"supported (expected {SNAPSHOT_SCHEMA})"
            )
        sections: Dict[str, Any] = {}
        for entry in manifest["sections"]:
            blob = handle.read(entry["blob_len"])
            if len(blob) != entry["blob_len"]:
                raise SnapshotError(
                    f"{path}: truncated section {entry['name']!r}"
                )
            try:
                raw = zlib.decompress(blob)
            except zlib.error as exc:
                raise SnapshotError(
                    f"{path}: section {entry['name']!r} is corrupt: {exc}"
                ) from exc
            if len(raw) != entry["raw_len"] or _sha256(raw) != entry["sha256"]:
                raise SnapshotError(
                    f"{path}: checksum mismatch in section {entry['name']!r}"
                )
            sections[entry["name"]] = json.loads(raw)
    return Snapshot(manifest=manifest, sections=sections)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore_system(
    path: os.PathLike | str,
    expect_hash: Optional[str] = None,
):
    """Rebuild a live system from a snapshot file.

    Convenience wrapper: :func:`load_snapshot` followed by
    :func:`restore_from_snapshot`.
    """
    snapshot = load_snapshot(path)
    if expect_hash is not None and snapshot.content_hash != expect_hash:
        raise SnapshotError(
            f"{path}: content hash {snapshot.content_hash[:12]}… does not "
            f"match the expected {expect_hash[:12]}…"
        )
    return restore_from_snapshot(snapshot)


def restore_from_snapshot(snapshot: Snapshot):
    """Rebuild a live system from an already-decoded :class:`Snapshot`.

    The skeleton is rebuilt from the recorded recipe (all wiring, no
    boot), the memory image is loaded first — overwriting any pokes the
    skeleton construction made — and then every component's state dict
    is applied.  The returned system is indistinguishable, cycle for
    cycle and counter for counter, from the one that was captured.

    This is the in-memory entry point: long-lived processes (the
    fuzzer, repeated restores in tests) decode a snapshot once with
    :func:`load_snapshot` or build one in memory, and then materialize
    any number of live systems from it without touching disk again.
    The snapshot object itself is not consumed or mutated.
    """
    from repro.core.hypernel import _BUILDERS
    from repro.security.registry import monitor_from_spec

    recipe = snapshot.manifest["recipe"]
    name = recipe["system"]
    if name not in _BUILDERS:
        raise SnapshotError(f"unknown system {name!r} in snapshot recipe")
    monitors = [monitor_from_spec(spec) for spec in recipe["monitors"]]
    kwargs: Dict[str, Any] = dict(recipe["kwargs"])
    if name == "kvm-guest":
        # Stage-2 population is state, not structure: the snapshot's
        # table image already reflects it.
        kwargs.pop("prepopulate_stage2", None)
    if monitors:
        kwargs["monitors"] = monitors
    system = _BUILDERS[name](
        platform_config=snapshot.platform_config(),
        kernel_config=snapshot.kernel_config(),
        _skeleton=True,
        **kwargs,
    )
    # Carry the captured recipe verbatim (the skeleton re-derives one,
    # but e.g. a dropped prepopulate_stage2 flag must survive so a
    # re-snapshot of the restored system is bit-identical).
    system.recipe = recipe
    sections = snapshot.sections
    platform = system.platform
    platform.memory.load_state(sections["memory"])
    platform.clock.load_state(sections["clock"])
    platform.caches.load_state(sections["caches"])
    platform.dram.load_state(sections["dram"])
    platform.bus.load_state(sections["bus"])
    platform.gic.load_state(sections["gic"])
    system.cpu.load_state(sections["cpu"])
    system.kernel.load_state(sections["kernel"])
    if system.kvm is not None:
        system.kvm.load_state(sections["kvm"])
    if system.hypersec is not None:
        # protect() normally wires this; the skeleton skipped it.
        system.hypersec.kernel = system.kernel
        system.hypersec.load_state(sections["hypersec"])
    if system.mbm is not None:
        system.mbm.load_state(sections["mbm"])
    monitor_states = sections.get("monitors", [])
    if len(monitor_states) != len(system.monitors):
        raise SnapshotError(
            f"snapshot carries {len(monitor_states)} monitor states for "
            f"{len(system.monitors)} rebuilt monitors"
        )
    for app, state in zip(system.monitors, monitor_states):
        app.load_state(state)
    return system


# ----------------------------------------------------------------------
# Introspection: info and diff
# ----------------------------------------------------------------------
def snapshot_info(path: os.PathLike | str) -> str:
    """Human-readable summary of a snapshot file's manifest."""
    manifest = read_manifest(path)
    platform = manifest["fingerprint"]["platform"]
    lines = [
        f"snapshot {pathlib.Path(path).name}",
        f"  schema {manifest['schema']}, source digest "
        f"{manifest['source'][:12]}",
        f"  system: {manifest['recipe']['system']} "
        f"(linear map: {manifest['recipe']['kernel_config']['linear_map_mode']})",
        f"  platform: {platform['dram_bytes'] >> 20} MB DRAM, "
        f"{platform['secure_bytes'] >> 20} MB secure",
        f"  content hash: {manifest['content_hash']}",
        "  sections:",
    ]
    for entry in manifest["sections"]:
        blob_len = entry.get("blob_len", 0)
        lines.append(
            f"    {entry['name']:10s} {entry['raw_len']:>10d} B raw, "
            f"{blob_len:>9d} B compressed  {entry['sha256'][:12]}…"
        )
    monitors = manifest["recipe"]["monitors"]
    if monitors:
        lines.append("  monitors: "
                     + ", ".join(spec["class"] for spec in monitors))
    return "\n".join(lines)


def _diff_values(prefix: str, a: Any, b: Any, out: List[str],
                 limit: int) -> None:
    if len(out) >= limit:
        return
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b), key=str):
            if a.get(key) != b.get(key):
                _diff_values(f"{prefix}.{key}", a.get(key), b.get(key),
                             out, limit)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            out.append(f"{prefix}: length {len(a)} != {len(b)}")
            return
        for index, (left, right) in enumerate(zip(a, b)):
            if left != right:
                _diff_values(f"{prefix}[{index}]", left, right, out, limit)
                if len(out) >= limit:
                    return
        return
    out.append(f"{prefix}: {_clip(a)} != {_clip(b)}")


def _clip(value: Any, limit: int = 48) -> str:
    """repr() capped for display — memory chunk blobs are 64 KB each."""
    text = repr(value)
    if len(text) <= limit:
        return text
    return f"{text[:limit]}… ({len(text)} chars)"


def diff_snapshots(
    path_a: os.PathLike | str,
    path_b: os.PathLike | str,
    max_details: int = 20,
) -> str:
    """Report which sections (and which words/keys) differ."""
    a, b = load_snapshot(path_a), load_snapshot(path_b)
    if a.content_hash == b.content_hash:
        return "snapshots are identical (content hashes match)"
    lines: List[str] = []
    hashes_a = {e["name"]: e["sha256"] for e in a.manifest["sections"]}
    hashes_b = {e["name"]: e["sha256"] for e in b.manifest["sections"]}
    if a.manifest["recipe"] != b.manifest["recipe"]:
        lines.append("recipe differs (different build configuration)")
    if a.manifest["fingerprint"] != b.manifest["fingerprint"]:
        lines.append("cost fingerprint differs (platform/cost constants)")
    for name in _SECTION_ORDER:
        in_a, in_b = name in hashes_a, name in hashes_b
        if not in_a and not in_b:
            continue
        if in_a != in_b:
            lines.append(f"section {name}: only in "
                         f"{'first' if in_a else 'second'} snapshot")
            continue
        if hashes_a[name] == hashes_b[name]:
            continue
        details: List[str] = []
        _diff_values(name, a.sections[name], b.sections[name],
                     details, max_details)
        shown = details[:max_details]
        lines.append(f"section {name}: {len(details)} difference"
                     f"{'s' if len(details) != 1 else ''} (showing "
                     f"{len(shown)})")
        lines.extend(f"  {detail}" for detail in shown)
    return "\n".join(lines) if lines else (
        "sections match but content hashes differ (metadata change)"
    )
