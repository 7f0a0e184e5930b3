"""Evidence snapshots: the machine image the offline checker reads.

A :class:`Snapshot` holds what the dissimilar verification channel
(:mod:`repro.security.fuzz.snapshot_checker`) needs to re-derive a
machine's security state, and nothing else:

* the platform config, carried in the manifest's cost fingerprint;
* ``memory`` — the physical memory image;
* ``cpu`` — the system-register file;
* ``hypersec`` — Hypersec's *claimed* policy: registered tables and
  roots, the recorded kernel root and VM registers, and the registered
  monitored regions (Hypernel images only);
* ``mbm`` — whether an MBM is present.

A snapshot is evidence, not a machine: nothing rebuilds a live system
from one.  Code that needs a copy of a live machine pickles it in
memory (the fuzzer does, see :mod:`repro.security.fuzz.machine`).

On-disk format (version :data:`SNAPSHOT_SCHEMA`)::

    MAGIC | manifest_len (8 bytes BE) | manifest JSON | blob … blob

The manifest records the schema, the package's source digest
(:func:`repro.tools.runner.source_digest`), the cost fingerprint (the
:class:`~repro.config.PlatformConfig` + :class:`~repro.config.CostModel`
+ :class:`~repro.kernel.kernel.OpCosts` recipe shared with the
runner's cell cache), the system build recipe, and one entry per
section: name, raw/compressed sizes and a SHA-256 checksum.  Sections
are zlib-compressed JSON; the whole snapshot gets a content hash over
its checksums, fingerprint and recipe.  :func:`capture_snapshot` only
collects the sections in memory; :func:`save_snapshot` encodes, hashes
and writes them.  See ``DESIGN.md`` section 5c.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import zlib
from dataclasses import dataclass, field
from typing import Any, BinaryIO, Dict, List

from repro.config import CostModel, PlatformConfig
from repro.errors import SnapshotError

MAGIC = b"REPROSNAP\x00"
SNAPSHOT_SCHEMA = 3

#: Section order on disk and in diffs.
_SECTION_ORDER = ["memory", "cpu", "hypersec", "mbm"]


def _json_bytes(obj: Any) -> bytes:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False).encode(
        "utf-8"
    )


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


@dataclass
class Snapshot:
    """A decoded snapshot: manifest plus per-section evidence."""

    manifest: Dict[str, Any]
    sections: Dict[str, Any] = field(default_factory=dict)

    @property
    def content_hash(self) -> str:
        """Set by :func:`save_snapshot` and :func:`load_snapshot`."""
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
        """One decoded section.

        Raises :exc:`~repro.errors.SnapshotError` when the snapshot does
        not carry the section (e.g. asking a native image for
        ``hypersec``), so offline analysers get a typed error instead of
        a bare ``KeyError``.
        """
        try:
            return self.sections[name]
        except KeyError:
            raise SnapshotError(f"snapshot has no {name!r} section") from None


# ----------------------------------------------------------------------
# Capture and save
# ----------------------------------------------------------------------
def _claimed_policy(hypersec) -> Dict[str, Any]:
    """Hypersec's bookkeeping, which the offline checker treats as
    claims to verify against raw memory."""
    regions = {region for ranges in hypersec._region_index.values()
               for region in ranges}
    return {
        "table_pages": sorted(hypersec.table_pages),
        "root_tables": sorted(hypersec.root_tables),
        "kernel_root": hypersec.kernel_root,
        "recorded_regs": dict(hypersec.recorded_regs),
        "regions": [list(region) for region in sorted(regions)],
    }


def capture_snapshot(system) -> Snapshot:
    """Collect a live system's evidence in memory (no encoding, no
    hashing; see :func:`save_snapshot`)."""
    if not system.recipe:
        raise SnapshotError(
            f"system {system.name!r} carries no build recipe; build it "
            "through repro.core.hypernel to make it snapshottable"
        )
    from repro.tools.runner import cost_fingerprint

    sections: Dict[str, Any] = {
        "memory": system.platform.memory.state_dict(),
        "cpu": dict(system.cpu.regs._values),
        "mbm": {"present": system.mbm is not None},
    }
    if system.hypersec is not None:
        sections["hypersec"] = _claimed_policy(system.hypersec)
    manifest = {
        "schema": SNAPSHOT_SCHEMA,
        "fingerprint": cost_fingerprint(system.platform.config),
        "recipe": system.recipe,
    }
    return Snapshot(manifest=manifest, sections=sections)


def save_snapshot(system, path: os.PathLike | str) -> Snapshot:
    """Capture ``system`` and write the snapshot file atomically."""
    from repro.tools.runner import source_digest

    snapshot = capture_snapshot(system)
    manifest = snapshot.manifest
    manifest["source"] = source_digest()
    entries = []
    blobs: List[bytes] = []
    for name in _SECTION_ORDER:
        if name not in snapshot.sections:
            continue
        raw = _json_bytes(snapshot.sections[name])
        entries.append({"name": name, "raw_len": len(raw),
                        "sha256": _sha256(raw)})
        blobs.append(zlib.compress(raw, 6))
    manifest["sections"] = entries
    manifest["content_hash"] = _sha256(_json_bytes({
        key: manifest[key]
        for key in ("schema", "source", "fingerprint", "recipe", "sections")
    }))
    for entry, blob in zip(entries, blobs):
        entry["blob_len"] = len(blob)
    manifest_bytes = _json_bytes(manifest)
    target = pathlib.Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
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
def _read_header(handle: BinaryIO, path) -> Dict[str, Any]:
    """Check the magic and schema; returns the manifest."""
    if handle.read(len(MAGIC)) != MAGIC:
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


def read_manifest(path: os.PathLike | str) -> Dict[str, Any]:
    """Parse and sanity-check only the manifest (cheap)."""
    with open(path, "rb") as handle:
        return _read_header(handle, path)


def load_snapshot(path: os.PathLike | str) -> Snapshot:
    """Read, checksum-verify and decode a snapshot file."""
    with open(path, "rb") as handle:
        manifest = _read_header(handle, path)
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


def restore_system(*args, **kwargs):
    """Removed: a snapshot holds audit evidence, not a whole machine.

    This stub exists only because ``benchmarks/e2e/traced.py`` wraps
    ``repro.state.restore_system`` for its ``state.restore`` span.  The
    next change to the benchmark harness drops that wrap and then
    deletes this stub.  Nothing in ``src/`` calls it.
    """
    raise SnapshotError("snapshots hold audit evidence only and cannot "
                        "be restored into a machine")


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
        lines.append(
            f"    {entry['name']:10s} {entry['raw_len']:>10d} B raw, "
            f"{entry['blob_len']:>9d} B compressed  {entry['sha256'][:12]}…"
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
