"""The state store: snapshot, restore, tail replay, retention.

:class:`StateStore` turns a directory into durable analysis state for a
:class:`~repro.service.service.ForensicsService`.  One snapshot is one
subdirectory (``snap-<height>``) of per-component segment files plus a
manifest, built atomically: segments are written and fsynced into a
hidden scratch directory, the manifest (the commit point) is written
last, and the directory is renamed into place — a crash mid-snapshot
leaves either the previous snapshots untouched or an ignorable scratch
directory, never a half-readable snapshot.

Recovery is the inverse plus *tail replay*: :meth:`StateStore.warm_start`
restores the newest snapshot (height ``h``) and re-ingests only blocks
``h+1..`` from the block files through
:meth:`ChainIndex.add_block <repro.chain.index.ChainIndex.add_block>`,
so the restored engine and views stream the tail through the exact
observer fan-out a never-restarted service used — which is why the
equivalence property test can demand bit-for-bit identical answers.
Recovery time is bounded by the snapshot size plus the tail length, not
the chain length (``snapshot_s`` / ``restore_s`` of the ``restart``
workload in ``benchmarks/e2e`` are the measured numbers).

:class:`SnapshotPolicy` automates capture: attached *after* the service
(so the fan-out order guarantees every component has folded the block
first), it snapshots every ``every`` blocks and prunes to the ``retain``
newest.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from ..chain.blockfile import BlockFileReader
from ..chain.index import ChainIndex
from ..obs import NULL_LOGGER, NULL_REGISTRY
from ..service.service import ForensicsService
from .errors import (
    NoSnapshotError,
    SnapshotIntegrityError,
    StorageError,
    UnsupportedSnapshotError,
)
from .manifest import (
    MANIFEST_VERSION,
    SnapshotManifest,
    read_manifest,
    write_manifest,
)
from .segments import read_segment, write_segment

SNAPSHOT_PREFIX = "snap-"
_SCRATCH_PREFIX = ".tmp-"

COMPONENTS = (
    "chain",
    "engine",
    "aggregates",
    "balances",
    "activity",
    "taint",
    "service",
    "timetravel",
)
"""Segment names, one per durable component of a forensics service
(``timetravel`` is the aggregate view's per-height delta log)."""


def _missing_segment(directory: Path, name: str) -> SnapshotIntegrityError:
    """A manifest without ``name``.  Version-4 snapshots written while
    the delta log was optional may lack ``timetravel``: intact, but not
    restorable by this build."""
    if name == "timetravel":
        return UnsupportedSnapshotError(
            f"snapshot {directory}: unrestorable — no 'timetravel' segment "
            f"found (written without the aggregate delta log), this build "
            f"restores only snapshots that carry it; re-ingest from "
            f"blk*.dat and snapshot again"
        )
    return SnapshotIntegrityError(
        f"snapshot {directory} lists no {name!r} segment"
    )


def _stale_chain_state(directory: Path, state) -> UnsupportedSnapshotError | None:
    """A chain segment in a state layout this build does not restore
    (intact — its checksum verified — but not restorable), else ``None``."""
    found = state.get("version")
    if found == ChainIndex.STATE_VERSION:
        return None
    return UnsupportedSnapshotError(
        f"snapshot {directory}: unrestorable — chain state version "
        f"{found!r} found, this build restores version "
        f"{ChainIndex.STATE_VERSION} only (wire blocks and flat history "
        f"columns); re-ingest from blk*.dat and snapshot again"
    )


@dataclass(frozen=True)
class WarmStart:
    """Result of :meth:`StateStore.warm_start`."""

    service: ForensicsService
    snapshot_height: int
    tail_blocks: int

    @property
    def height(self) -> int:
        """The service's height after tail replay."""
        return self.service.height


class StateStore:
    """Snapshots of forensics-service state under one root directory."""

    def __init__(
        self,
        root: str | os.PathLike[str],
        *,
        clock=time.time,
        metrics=None,
        log=None,
    ) -> None:
        """``clock`` stamps each manifest's ``created_unix`` — injected
        so tests can pin wall-clock fields; durations are always
        measured with the monotonic ``perf_counter`` regardless.
        ``metrics`` is an optional :class:`~repro.obs.MetricsRegistry`
        that receives snapshot/restore timings, byte counts, and
        integrity failures.  ``log`` is an optional
        :class:`~repro.obs.EventLogger` that records snapshot/restore
        events and integrity failures.
        """
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._clock = clock
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self.log = log if log is not None else NULL_LOGGER
        self.last_snapshot_seconds: float | None = None
        self.last_restore_seconds: float | None = None

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    def snapshot(self, service: ForensicsService) -> Path:
        """Capture the full analysis state at the service's height.

        Components must agree on the height (they always do between
        blocks, and during fan-out for observers registered after the
        service's own).  Re-snapshotting an existing height replaces the
        old snapshot atomically.
        """
        height = service.height
        if height < 0:
            raise StorageError("cannot snapshot a service with no blocks")
        for name, component_height in (
            ("engine", service.engine.height),
            ("aggregates", service.aggregates.height),
            ("balances", service.balances.height),
            ("activity", service.activity.height),
            ("taint", service.taint.height),
        ):
            if component_height != height:
                raise StorageError(
                    f"component {name} is at height {component_height}, "
                    f"index at {height}; snapshot requires a consistent "
                    f"service (is it detached?)"
                )
        final = self.root / f"{SNAPSHOT_PREFIX}{height:08d}"
        scratch = self.root / f"{_SCRATCH_PREFIX}{final.name}-{os.getpid()}"
        if scratch.exists():
            shutil.rmtree(scratch)
        scratch.mkdir(parents=True)
        start = perf_counter()
        try:
            index = service.index
            segments = self._write_segments(scratch, service)
            manifest = SnapshotManifest(
                height=height,
                chain={
                    "tx_count": index.tx_count,
                    "address_count": index.address_count,
                    "tip_timestamp": index.timestamp_at(height),
                },
                segments=segments,
                created_unix=self._clock(),
                format_version=MANIFEST_VERSION,
            )
            write_manifest(scratch, manifest)
            if final.exists():
                shutil.rmtree(final)
            os.rename(scratch, final)
        except BaseException:
            shutil.rmtree(scratch, ignore_errors=True)
            raise
        seconds = perf_counter() - start
        self.last_snapshot_seconds = seconds
        metrics = self.metrics
        if metrics.enabled:
            total_bytes = sum(record["bytes"] for record in segments.values())
            metrics.histogram("store.snapshot_seconds").observe(seconds)
            metrics.counter("store.snapshot_bytes").inc(total_bytes)
            metrics.flight.record(
                "snapshot",
                height=height,
                bytes=total_bytes,
                seconds=seconds,
            )
        if self.log.enabled:
            self.log.info(
                "snapshot_written",
                height=height,
                directory=str(final),
                seconds=seconds,
            )
        return final

    @staticmethod
    def _write_segments(scratch: Path, service: ForensicsService) -> dict:
        return {
            "chain": write_segment(scratch, "chain", service.index.export_state()),
            "engine": write_segment(scratch, "engine", service.engine.export_state()),
            "aggregates": write_segment(
                scratch, "aggregates", service.aggregates.export_state()
            ),
            "balances": write_segment(
                scratch, "balances", service.balances.export_state()
            ),
            "activity": write_segment(
                scratch, "activity", service.activity.export_state()
            ),
            "taint": write_segment(scratch, "taint", service.taint.export_state()),
            "service": write_segment(scratch, "service", service.export_state()),
            "timetravel": write_segment(
                scratch, "timetravel", service.aggregates.export_time_travel()
            ),
        }

    # ------------------------------------------------------------------
    # discovery / retention
    # ------------------------------------------------------------------

    def snapshots(self) -> list[SnapshotManifest]:
        """Manifests of every *valid* snapshot, oldest to newest.

        Directories without a readable manifest (aborted captures,
        foreign clutter) are skipped, not raised on — recovery should
        fall back to the newest snapshot that actually committed.
        """
        found: list[SnapshotManifest] = []
        for path in sorted(self.root.glob(f"{SNAPSHOT_PREFIX}*")):
            if not path.is_dir():
                continue
            try:
                found.append(read_manifest(path))
            except SnapshotIntegrityError:
                continue
        found.sort(key=lambda manifest: manifest.height)
        return found

    def latest(self) -> SnapshotManifest | None:
        """The newest valid snapshot, or ``None``."""
        snapshots = self.snapshots()
        return snapshots[-1] if snapshots else None

    def prune(self, retain: int) -> list[Path]:
        """Delete all but the ``retain`` newest snapshots; returns the
        removed directories.  Scratch directories are always removed."""
        if retain < 1:
            raise ValueError("retain must be at least 1")
        removed: list[Path] = []
        for stale in self.root.glob(f"{_SCRATCH_PREFIX}*"):
            shutil.rmtree(stale, ignore_errors=True)
            removed.append(stale)
        for manifest in self.snapshots()[:-retain]:
            directory = manifest.directory
            shutil.rmtree(directory)
            removed.append(directory)
        return removed

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------

    def restore(
        self,
        snapshot: SnapshotManifest | None = None,
        *,
        follow: bool = True,
    ) -> ForensicsService:
        """Rebuild a live service from a snapshot (default: the newest).

        Every segment is checksum-verified against the manifest before
        a byte of it is deserialized; the restored components are
        height-checked against each other.  The returned service is
        immediately queryable at the snapshot height and, with
        ``follow``, resumes streaming from the next ``add_block``.
        """
        if snapshot is None:
            snapshot = self.latest()
            if snapshot is None:
                raise NoSnapshotError(f"no snapshots under {self.root}")
        directory = snapshot.directory
        metrics = self.metrics
        start = perf_counter()
        try:
            states = {}
            total_bytes = 0
            for name in COMPONENTS:
                record = snapshot.segments.get(name)
                if record is None:
                    raise _missing_segment(directory, name)
                states[name] = read_segment(
                    directory / record["file"],
                    expected_name=name,
                    expected_sha256=record["sha256"],
                )
                total_bytes += record.get("bytes", 0)
            stale = _stale_chain_state(directory, states["chain"])
            if stale is not None:
                raise stale
            index = ChainIndex.restore_state(states["chain"])
            if index.height != snapshot.height:
                raise SnapshotIntegrityError(
                    f"snapshot {directory} manifest says height "
                    f"{snapshot.height} but the chain segment restores to "
                    f"{index.height}"
                )
            if index.tx_count != snapshot.chain.get("tx_count"):
                raise SnapshotIntegrityError(
                    f"snapshot {directory} chain segment holds "
                    f"{index.tx_count} txs, manifest promises "
                    f"{snapshot.chain.get('tx_count')}"
                )
            service = ForensicsService.from_snapshot(
                index,
                states,
                follow=follow,
                metrics=metrics if metrics.enabled else None,
                log=self.log if self.log.enabled else None,
            )
        except SnapshotIntegrityError as exc:
            metrics.counter("store.integrity_failures").inc()
            if self.log.enabled:
                self.log.error(
                    "snapshot_integrity_failure",
                    directory=str(directory),
                    error=repr(exc),
                )
            raise
        seconds = perf_counter() - start
        self.last_restore_seconds = seconds
        if metrics.enabled:
            metrics.histogram("store.restore_seconds").observe(seconds)
            metrics.counter("store.restore_bytes").inc(total_bytes)
            metrics.flight.record(
                "restore",
                height=snapshot.height,
                bytes=total_bytes,
                seconds=seconds,
            )
        if self.log.enabled:
            self.log.info(
                "snapshot_restored",
                height=snapshot.height,
                directory=str(directory),
                seconds=seconds,
            )
        return service

    def verify_snapshot(self, snapshot: SnapshotManifest) -> list[str]:
        """Checksum-verify every segment of one snapshot, without
        deserializing into a service.

        Returns a list of human-readable problems (empty when the
        snapshot is intact); used by ``repro doctor`` to grade each
        snapshot on disk independently of whether it will be restored.
        """
        directory = snapshot.directory
        problems: list[str] = []
        for name in COMPONENTS:
            record = snapshot.segments.get(name)
            if record is None:
                problems.append(str(_missing_segment(directory, name)))
                continue
            try:
                state = read_segment(
                    directory / record["file"],
                    expected_name=name,
                    expected_sha256=record["sha256"],
                )
            except (SnapshotIntegrityError, OSError) as exc:
                problems.append(f"segment {name!r}: {exc}")
                continue
            if name == "chain":
                stale = _stale_chain_state(directory, state)
                if stale is not None:
                    problems.append(str(stale))
        if problems:
            self.metrics.counter("store.integrity_failures").inc(
                len(problems)
            )
            if self.log.enabled:
                self.log.error(
                    "snapshot_verify_failed",
                    directory=str(directory),
                    problems=len(problems),
                )
        return problems

    def warm_start(
        self,
        blocks: str | os.PathLike[str],
        *,
        snapshot: SnapshotManifest | None = None,
    ) -> WarmStart:
        """Restore the newest snapshot, then tail-replay from block files.

        ``blocks`` is a ``blk*.dat`` directory (or single file) holding
        at least the snapshot's prefix; records past the snapshot height
        are re-ingested through the normal observer fan-out.  The block
        files below the resume point are skipped with frame arithmetic —
        never parsed — so recovery cost is snapshot size + tail length.
        """
        service = self.restore(snapshot)
        reader = BlockFileReader(blocks)
        tail = 0
        snapshot_height = service.height
        for block in reader.iter_blocks(start_height=snapshot_height + 1):
            service.index.add_block(block)
            tail += 1
        return WarmStart(
            service=service,
            snapshot_height=snapshot_height,
            tail_blocks=tail,
        )


class SnapshotPolicy:
    """Periodic snapshot capture with bounded retention.

    Attach *after* the service is constructed: observers fire in
    registration order, so the policy sees each block only when the
    engine and every view have already folded it — the state it
    captures is the consistent post-block state.  A snapshot failure
    propagates out of ``add_block`` (the chain fan-out still notifies
    every other observer first); durability problems should be loud.
    """

    def __init__(
        self, store: StateStore, *, every: int = 100, retain: int = 3
    ) -> None:
        if every < 1:
            raise ValueError("every must be at least 1")
        if retain < 1:
            raise ValueError("retain must be at least 1")
        self.store = store
        self.every = every
        self.retain = retain
        self.snapshots_taken = 0
        self._unsubscribe = None

    def attach(self, service: ForensicsService) -> "SnapshotPolicy":
        """Start snapshotting ``service`` every ``every`` blocks."""
        if self._unsubscribe is not None:
            raise StorageError("policy is already attached")

        def _on_block(delta) -> None:
            if (delta.height + 1) % self.every == 0:
                self.store.snapshot(service)
                self.snapshots_taken += 1
                self.store.prune(self.retain)

        self._unsubscribe = service.index.subscribe_deltas(
            _on_block, name="snapshot-policy"
        )
        return self

    def detach(self) -> None:
        """Stop snapshotting (already-written snapshots remain)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
