"""Durable state: snapshot/restore + tail replay for the serving layer.

The PR 1/PR 2 engines made the paper's full-chain analysis single-pass
and servable — but in-memory only, so every restart replayed from block
0.  This package bounds recovery by the *tail since the last snapshot*
instead:

* :mod:`~repro.storage.segments` — the per-component segment file
  format (versioned, checksummed, plain-data payloads);
* :mod:`~repro.storage.manifest` — the JSON manifest that commits a
  snapshot (written last; no manifest ⇒ no snapshot);
* :mod:`~repro.storage.store` — :class:`StateStore`
  (``snapshot``/``restore``/``warm_start`` with block-file tail replay)
  and :class:`SnapshotPolicy` (every-N-blocks capture, retain-K
  pruning).

The restore contract is *provable equivalence*: a restored-then-tail-
replayed service answers every query identically to one built cold from
block 0 (``tests/storage/test_restore_equivalence.py`` asserts it at
every snapshot height).
"""

from .errors import (
    NoSnapshotError,
    SnapshotIntegrityError,
    StorageError,
    UnsupportedSnapshotError,
)
from .manifest import SnapshotManifest, read_manifest, write_manifest
from .segments import read_segment, write_segment
from .store import (
    COMPONENTS,
    SnapshotPolicy,
    StateStore,
    WarmStart,
)

__all__ = [
    "COMPONENTS",
    "NoSnapshotError",
    "SnapshotIntegrityError",
    "SnapshotManifest",
    "SnapshotPolicy",
    "StateStore",
    "StorageError",
    "UnsupportedSnapshotError",
    "WarmStart",
    "read_manifest",
    "read_segment",
    "write_manifest",
    "write_segment",
]
