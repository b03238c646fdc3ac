"""The snapshot manifest: the small JSON file that makes a snapshot real.

A snapshot directory holds one segment per component plus
``MANIFEST.json``.  The manifest is written last (and the whole
directory renamed into place after that), so its presence is the commit
point: a directory without a readable manifest is an aborted snapshot
and is ignored by the store.  It records:

* ``format`` / ``format_version`` — the snapshot layout version;
* ``height`` — the chain height every component state was captured at;
* ``chain`` — cheap consistency facts (tx/address counts, tip
  timestamp) used for sanity checks and reporting;
* ``segments`` — per component: filename, byte size, and the sha256 the
  segment file must hash to (so a segment swapped in from another
  snapshot fails closed even though it is internally consistent).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import SnapshotIntegrityError, UnsupportedSnapshotError

MANIFEST_NAME = "MANIFEST.json"
MANIFEST_FORMAT = "repro-state-snapshot"
MANIFEST_VERSION = 4
"""Snapshot layout version: eight segments (``store.COMPONENTS``), every
dense per-id array a raw little-endian int64 buffer, and a
``timetravel`` segment carrying the aggregate view's per-height delta
log and its base state."""

SUPPORTED_VERSIONS = frozenset({MANIFEST_VERSION})
"""Manifest versions :func:`read_manifest` accepts.  Older layouts
(list-shaped arrays, no delta log) are refused with
:class:`~repro.storage.errors.UnsupportedSnapshotError`: there is one
reader per segment, and the remedy for an old snapshot is a re-ingest
from the block files."""


@dataclass(frozen=True)
class SnapshotManifest:
    """Parsed manifest of one snapshot directory."""

    height: int
    chain: dict
    segments: dict[str, dict]
    created_unix: float
    format_version: int = MANIFEST_VERSION
    path: Path | None = field(default=None, compare=False)

    @property
    def directory(self) -> Path:
        """The snapshot directory this manifest was read from."""
        if self.path is None:
            raise ValueError("manifest was not read from disk")
        return self.path.parent

    def to_json(self) -> dict:
        return {
            "format": MANIFEST_FORMAT,
            "format_version": self.format_version,
            "height": self.height,
            "created_unix": self.created_unix,
            "chain": self.chain,
            "segments": self.segments,
        }


def write_manifest(directory: str | os.PathLike[str], manifest: SnapshotManifest) -> Path:
    """Write ``MANIFEST.json`` durably (flush + fsync) into ``directory``."""
    path = Path(directory) / MANIFEST_NAME
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    return path


def read_manifest(directory: str | os.PathLike[str]) -> SnapshotManifest:
    """Read and validate a snapshot directory's manifest."""
    path = Path(directory) / MANIFEST_NAME

    def bad(reason: str) -> SnapshotIntegrityError:
        return SnapshotIntegrityError(f"manifest {path}: {reason}")

    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise bad("missing (snapshot incomplete?)") from exc
    except (OSError, json.JSONDecodeError) as exc:
        raise bad(f"unreadable ({exc})") from exc
    if raw.get("format") != MANIFEST_FORMAT:
        raise bad(f"unknown format {raw.get('format')!r}")
    if raw.get("format_version") not in SUPPORTED_VERSIONS:
        raise UnsupportedSnapshotError(
            f"manifest {path}: unrestorable — format version "
            f"{raw.get('format_version')!r} found, this build restores "
            f"version {MANIFEST_VERSION} only; re-ingest from blk*.dat and "
            f"snapshot again"
        )
    try:
        return SnapshotManifest(
            height=int(raw["height"]),
            chain=dict(raw["chain"]),
            segments={
                name: dict(record) for name, record in raw["segments"].items()
            },
            created_unix=float(raw["created_unix"]),
            format_version=int(raw["format_version"]),
            path=path,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise bad(f"malformed field ({exc})") from exc
