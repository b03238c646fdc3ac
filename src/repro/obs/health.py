"""Per-component health model rolled up to one pipeline verdict.

:func:`collect_health` inspects a
:class:`~repro.service.service.ForensicsService` (plus, optionally, its
:class:`~repro.storage.store.StateStore` and
:class:`~repro.obs.audit.InvariantAuditor`) and grades each component
``ok`` / ``degraded`` / ``failing``:

* **chain** — tip height, address count, last measured ingest rate;
* **engine** — must be at the chain tip; the open-label backlog (the
  overlay every differential consumer pays for) degrades health past a
  threshold;
* **aggregates** — must be at the tip (behind it, cluster queries are
  refused, not served stale: failing), with the pending flush-queue
  depth;
* **views** — balances/activity/taint must all be at the tip;
* **cache** — the height-keyed memo's hit ratio, graded only once it
  has seen enough lookups to mean anything;
* **snapshots** — newest snapshot age and height (when a store is
  given);
* **audit** — the last :class:`~repro.obs.audit.AuditReport` verdict
  (when an auditor is attached).

The rollup is the worst component status.  With an enabled metrics
registry the report also lands as ``health.status{component=…}`` and
``health.overall`` gauges (0=ok, 1=degraded, 2=failing).  Surfaced as
``ForensicsService.stats()["health"]`` and rendered by ``repro
health`` / ``repro doctor``; the model is documented in
``docs/observability.md``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

OK = "ok"
DEGRADED = "degraded"
FAILING = "failing"

_RANK = {OK: 0, DEGRADED: 1, FAILING: 2}

OPEN_LABEL_BACKLOG = 10_000
"""Open (still-voidable) labels past which the engine is degraded: the
overlay set every flush and query pays to re-walk."""

CACHE_GRADE_LOOKUPS = 256
"""Lookups before the cache hit ratio is graded at all."""

CACHE_HIT_RATE_FLOOR = 0.05
"""Hit ratio below which a well-exercised cache counts as degraded."""

MAX_SNAPSHOT_AGE_SECONDS = 3600.0
"""Newest-snapshot age past which durability is graded degraded."""


@dataclass(frozen=True)
class ComponentHealth:
    """One component's verdict."""

    component: str
    status: str
    summary: str
    details: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "component": self.component,
            "status": self.status,
            "summary": self.summary,
            "details": self.details,
        }


@dataclass(frozen=True)
class HealthReport:
    """Every component plus the worst-status rollup."""

    status: str
    components: tuple[ComponentHealth, ...]

    def component(self, name: str) -> ComponentHealth | None:
        for entry in self.components:
            if entry.component == name:
                return entry
        return None

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "components": [entry.as_dict() for entry in self.components],
        }


def _worst(components) -> str:
    return max(
        (entry.status for entry in components),
        key=_RANK.__getitem__,
        default=OK,
    )


def collect_health(
    service,
    *,
    store=None,
    auditor=None,
    clock=time.time,
    open_label_backlog: int = OPEN_LABEL_BACKLOG,
    max_snapshot_age: float = MAX_SNAPSHOT_AGE_SECONDS,
) -> HealthReport:
    """Grade every component of ``service`` and roll up the verdict.

    ``store``/``auditor`` extend the report with snapshot freshness and
    the last audit verdict; ``clock`` is injectable so snapshot-age
    tests can pin wall time.
    """
    height = service.height
    components: list[ComponentHealth] = []

    chain_details = {
        "height": height,
        "addresses": service.index.address_count,
        "txs": service.index.tx_count,
    }
    if service.metrics.enabled:
        gauges = service.metrics.snapshot().get("gauges", {})
        wall = gauges.get("ingest.wall_seconds")
        blocks = gauges.get("ingest.blocks")
        if wall and blocks:
            chain_details["ingest_blocks_per_second"] = blocks / wall
    components.append(
        ComponentHealth(
            component="chain",
            status=DEGRADED if height < 0 else OK,
            summary=(
                "no blocks ingested"
                if height < 0
                else f"height {height}, "
                f"{chain_details['addresses']} addresses"
            ),
            details=chain_details,
        )
    )

    backlog = service.engine.open_label_count
    if service.engine.height != height:
        engine_status = FAILING
        engine_summary = (
            f"engine at height {service.engine.height}, chain at {height} "
            f"(detached?)"
        )
    elif backlog > open_label_backlog:
        engine_status = DEGRADED
        engine_summary = (
            f"open-label backlog {backlog} exceeds {open_label_backlog}"
        )
    else:
        engine_status = OK
        engine_summary = f"at tip, {backlog} open label(s)"
    components.append(
        ComponentHealth(
            component="engine",
            status=engine_status,
            summary=engine_summary,
            details={
                "height": service.engine.height,
                "open_labels": backlog,
            },
        )
    )

    view = service.aggregates
    pending = view.pending_blocks
    behind = view.height != height
    components.append(
        ComponentHealth(
            component="aggregates",
            status=FAILING if behind else OK,
            summary=(
                f"view at height {view.height}, chain at {height}; "
                f"cluster queries are refused"
                if behind
                else f"at tip, {pending} block(s) queued for flush"
            ),
            details={"height": view.height, "pending_blocks": pending},
        )
    )

    view_heights = {
        "balances": service.balances.height,
        "activity": service.activity.height,
        "taint": service.taint.height,
    }
    lagging = {
        name: view_height
        for name, view_height in view_heights.items()
        if view_height != height
    }
    components.append(
        ComponentHealth(
            component="views",
            status=FAILING if lagging else OK,
            summary=(
                f"behind the tip: {sorted(lagging)}"
                if lagging
                else f"all views at height {height}"
            ),
            details=view_heights,
        )
    )

    cache_stats = service.cache.stats()
    lookups = cache_stats["hits"] + cache_stats["misses"]
    hit_rate = cache_stats["hit_rate"]
    cache_degraded = (
        lookups >= CACHE_GRADE_LOOKUPS and hit_rate < CACHE_HIT_RATE_FLOOR
    )
    components.append(
        ComponentHealth(
            component="cache",
            status=DEGRADED if cache_degraded else OK,
            summary=(
                f"hit rate {hit_rate:.1%} over {lookups} lookups"
                if lookups
                else "no lookups yet"
            ),
            details=cache_stats,
        )
    )

    if store is not None:
        newest = store.latest()
        if newest is None:
            components.append(
                ComponentHealth(
                    component="snapshots",
                    status=DEGRADED,
                    summary=f"no snapshots under {store.root}",
                )
            )
        else:
            age = max(0.0, clock() - newest.created_unix)
            stale = age > max_snapshot_age
            components.append(
                ComponentHealth(
                    component="snapshots",
                    status=DEGRADED if stale else OK,
                    summary=(
                        f"newest at height {newest.height}, "
                        f"{age:.0f}s old"
                        + (f" (> {max_snapshot_age:.0f}s)" if stale else "")
                    ),
                    details={
                        "height": newest.height,
                        "age_seconds": age,
                        "behind_blocks": max(0, height - newest.height),
                    },
                )
            )

    if auditor is not None:
        report = auditor.last_report
        if report is None:
            components.append(
                ComponentHealth(
                    component="audit",
                    status=OK,
                    summary="auditor attached, no audit run yet",
                )
            )
        else:
            components.append(
                ComponentHealth(
                    component="audit",
                    status=FAILING if report.violations else OK,
                    summary=(
                        f"{report.violations} violation(s) at height "
                        f"{report.height}"
                        if report.violations
                        else f"clean at height {report.height}"
                    ),
                    details=report.as_dict(),
                )
            )

    overall = _worst(components)
    health = HealthReport(status=overall, components=tuple(components))
    metrics = service.metrics
    if metrics.enabled:
        for entry in components:
            metrics.gauge(
                "health.status", component=entry.component
            ).set(_RANK[entry.status])
        metrics.gauge("health.overall").set(_RANK[overall])
    return health
