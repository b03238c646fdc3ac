"""Offline deep diagnostics: the engine behind ``repro doctor``.

:func:`run_doctor` points at a ``--state-dir`` laid out the way the CLI
and :func:`repro.experiments.warm_service` write it
(``<dir>/blocks/blk*.dat`` + ``<dir>/snapshots/snap-*``) and:

1. checksum-verifies **every** segment of **every** snapshot (an
   unreadable manifest or a flipped byte anywhere is a reported
   problem, not just in the snapshot a restore would pick; a snapshot
   in a layout this build no longer restores — manifest or chain state
   version — is reported as *unrestorable*, with the remedy, not as
   corrupt);
2. restores the newest *clean* snapshot and tail-replays the block
   files through the normal observer fan-out;
3. runs the full :class:`~repro.obs.audit.InvariantAuditor` suite in
   ``full`` mode — every cluster cross-checked against the batch
   rebuild, every block's fold twins compared;
4. grades the restored service with
   :func:`~repro.obs.health.collect_health`.

The returned :class:`DoctorReport` renders as text, serializes as
JSON, and maps to a process exit code (0 only when no problems were
found, the audit was clean, and health is not ``failing``) — the
contract the nightly CI corruption drill asserts both ways.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .health import FAILING, collect_health
from .log import NULL_LOGGER


@dataclass
class DoctorReport:
    """Everything one doctor run found."""

    state_dir: str
    problems: list[str] = field(default_factory=list)
    snapshots: list[dict] = field(default_factory=list)
    restored_height: int | None = None
    tail_blocks: int | None = None
    audit: dict | None = None
    health: dict | None = None

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1

    def as_dict(self) -> dict:
        return {
            "state_dir": self.state_dir,
            "ok": self.ok,
            "problems": list(self.problems),
            "snapshots": list(self.snapshots),
            "restored_height": self.restored_height,
            "tail_blocks": self.tail_blocks,
            "audit": self.audit,
            "health": self.health,
        }

    def render(self) -> str:
        lines = [f"doctor: {self.state_dir}"]
        clean = sum(1 for entry in self.snapshots if not entry["problems"])
        lines.append(
            f"  snapshots: {len(self.snapshots)} checked, {clean} clean"
        )
        for entry in self.snapshots:
            verdict = (
                "OK"
                if not entry["problems"]
                else "; ".join(entry["problems"])
            )
            lines.append(f"    {entry['name']}: {verdict}")
        if self.restored_height is not None:
            lines.append(
                f"  restored height {self.restored_height} "
                f"(+{self.tail_blocks} tail block(s))"
            )
        if self.audit is not None:
            lines.append(
                f"  audit: "
                + (
                    f"clean ({len(self.audit['checks'])} checks, "
                    f"{self.audit['seconds']:.2f}s)"
                    if self.audit["ok"]
                    else f"{self.audit['violations']} violation(s)"
                )
            )
        if self.health is not None:
            lines.append(f"  health: {self.health['status']}")
            for entry in self.health["components"]:
                lines.append(
                    f"    {entry['component']:<11} {entry['status']:<9} "
                    f"{entry['summary']}"
                )
        for problem in self.problems:
            lines.append(f"  PROBLEM: {problem}")
        lines.append(
            f"  result: {'HEALTHY' if self.ok else 'PROBLEMS FOUND'}"
        )
        return "\n".join(lines)


def run_doctor(state_dir, *, log=NULL_LOGGER) -> DoctorReport:
    """Deep-verify one durable state directory (see module docstring)."""
    from ..storage import (
        SnapshotIntegrityError,
        StateStore,
        UnsupportedSnapshotError,
        read_manifest,
    )
    from .audit import InvariantAuditor

    state_dir = Path(state_dir)
    report = DoctorReport(state_dir=str(state_dir))
    problems = report.problems
    snapshots_root = state_dir / "snapshots"
    blocks_dir = state_dir / "blocks"
    if not snapshots_root.is_dir():
        problems.append(f"no snapshots directory under {state_dir}")
        return report
    store = StateStore(snapshots_root, log=log)
    manifests = store.snapshots()
    readable = {manifest.directory for manifest in manifests}
    for path in sorted(snapshots_root.glob("snap-*")):
        if path.is_dir() and path not in readable:
            try:
                read_manifest(path)
            except UnsupportedSnapshotError as exc:
                problems.append(f"{path.name}: {exc}")
            except SnapshotIntegrityError:
                problems.append(f"{path.name}: unreadable or missing manifest")
    if not manifests:
        problems.append(f"no restorable snapshots under {snapshots_root}")
        return report

    clean = []
    for manifest in manifests:
        segment_problems = store.verify_snapshot(manifest)
        report.snapshots.append(
            {
                "name": manifest.directory.name,
                "height": manifest.height,
                "problems": segment_problems,
            }
        )
        problems.extend(segment_problems)
        if not segment_problems:
            clean.append(manifest)
    if not clean:
        problems.append("no snapshot passed verification; nothing to restore")
        return report

    newest = clean[-1]
    try:
        if blocks_dir.is_dir():
            warm = store.warm_start(blocks_dir, snapshot=newest)
            service = warm.service
            report.tail_blocks = warm.tail_blocks
        else:
            problems.append(
                f"no blocks directory under {state_dir}; verifying the "
                f"snapshot state without tail replay"
            )
            service = store.restore(newest)
            report.tail_blocks = 0
    except Exception as exc:  # noqa: BLE001 — every failure is a finding
        problems.append(f"restore from {newest.directory.name} failed: {exc!r}")
        return report
    report.restored_height = service.height

    auditor = InvariantAuditor(service, strict=False)
    audit = auditor.audit_now(full=True)
    report.audit = audit.as_dict()
    if not audit.ok:
        problems.append(
            f"full audit found {audit.violations} invariant violation(s) "
            f"at height {audit.height}"
        )

    health = collect_health(service, store=store, auditor=auditor)
    report.health = health.as_dict()
    if health.status == FAILING:
        failing = [
            entry.component
            for entry in health.components
            if entry.status == FAILING
        ]
        problems.append(f"health check failing: {failing}")
    if log.enabled:
        log.info(
            "doctor",
            state_dir=str(state_dir),
            ok=report.ok,
            problems=len(problems),
        )
    return report
