"""Errors raised by the durable state store."""

from __future__ import annotations


class StorageError(Exception):
    """Base class for state-store failures."""


class SnapshotIntegrityError(StorageError):
    """A snapshot file is corrupt, truncated, or mismatched against its
    manifest — the snapshot must not be restored."""


class UnsupportedSnapshotError(SnapshotIntegrityError):
    """A snapshot is intact but in a layout this build does not restore
    (an older manifest version, no ``timetravel`` segment, or an older
    chain state version) — it must not be restored either; re-ingesting
    from ``blk*.dat`` is the remedy."""


class NoSnapshotError(StorageError):
    """A restore was requested but the store holds no usable snapshot."""
