"""The component health model: grading, optional components, rollup.

Each case drives :func:`collect_health` over a real service and pins
one grading rule — the worst-component rollup, the optional
snapshot/audit components, the injectable clock for snapshot age, and
the ``health.*`` gauges an enabled registry carries away.
"""

from repro.chain.index import ChainIndex
from repro.obs import InvariantAuditor, MetricsRegistry, render_health
from repro.obs.health import (
    CACHE_GRADE_LOOKUPS,
    DEGRADED,
    FAILING,
    MAX_SNAPSHOT_AGE_SECONDS,
    OK,
    collect_health,
)
from repro.service import ForensicsService, Query
from repro.simulation import scenarios
from repro.storage import StateStore


def _service(seed=3, **kwargs):
    world = scenarios.micro_economy(seed=seed)
    return ForensicsService.from_world(world, **kwargs)


class TestComponentGrading:
    def test_healthy_service_is_all_ok(self):
        report = collect_health(_service())
        assert report.status == OK
        assert {entry.component for entry in report.components} == {
            "chain", "engine", "aggregates", "views", "cache",
        }
        assert all(entry.status == OK for entry in report.components)

    def test_empty_chain_degraded(self):
        service = ForensicsService(ChainIndex(), tags=None)
        report = collect_health(service)
        assert report.component("chain").status == DEGRADED
        assert report.status == DEGRADED

    def test_open_label_backlog_threshold(self):
        service = _service()
        report = collect_health(service, open_label_backlog=0)
        entry = report.component("engine")
        if service.engine.open_label_count:
            assert entry.status == DEGRADED
            assert "backlog" in entry.summary
        assert collect_health(service).component("engine").status == OK

    def test_cache_graded_only_after_enough_lookups(self):
        service = _service()
        assert collect_health(service).component("cache").status == OK
        # Miss-only traffic (every query distinct, none consulting the
        # shared rankings) past the grading floor drops the hit rate to
        # zero — only then is it graded.
        interner = service.index.interner
        for ident in range(min(CACHE_GRADE_LOOKUPS + 1, len(interner))):
            service.answer(
                Query("balance_of", (interner.address_of(ident),))
            )
        stats = service.cache.stats()
        assert stats["hits"] + stats["misses"] >= CACHE_GRADE_LOOKUPS
        assert stats["hit_rate"] < 0.05
        assert collect_health(service).component("cache").status == DEGRADED

    def test_rollup_is_worst_component(self):
        service = _service()
        auditor = InvariantAuditor(service)
        service.balances._balances[1] += 7
        auditor.audit_now()
        report = collect_health(service, auditor=auditor)
        assert report.component("audit").status == FAILING
        assert report.status == FAILING


class TestOptionalComponents:
    def test_store_and_auditor_absent_by_default(self):
        report = collect_health(_service())
        assert report.component("snapshots") is None
        assert report.component("audit") is None

    def test_empty_store_degraded(self, tmp_path):
        store = StateStore(tmp_path / "snapshots")
        entry = collect_health(_service(), store=store).component(
            "snapshots"
        )
        assert entry.status == DEGRADED
        assert "no snapshots" in entry.summary

    def test_snapshot_age_with_injectable_clock(self, tmp_path):
        service = _service()
        store = StateStore(tmp_path / "snapshots")
        store.snapshot(service)
        newest = store.latest()
        fresh = collect_health(
            service, store=store, clock=lambda: newest.created_unix + 10
        ).component("snapshots")
        assert fresh.status == OK
        assert fresh.details["behind_blocks"] == 0
        stale = collect_health(
            service,
            store=store,
            clock=lambda: newest.created_unix
            + MAX_SNAPSHOT_AGE_SECONDS
            + 60,
        ).component("snapshots")
        assert stale.status == DEGRADED

    def test_auditor_attached_before_first_audit(self):
        service = _service()
        auditor = InvariantAuditor(service)
        entry = collect_health(service, auditor=auditor).component("audit")
        assert entry.status == OK
        assert "no audit run yet" in entry.summary
        auditor.audit_now()
        entry = collect_health(service, auditor=auditor).component("audit")
        assert entry.status == OK
        assert "clean" in entry.summary


class TestSurfacing:
    def test_service_stats_carries_health(self):
        stats = _service().stats()
        assert stats["health"]["status"] == OK
        components = {
            entry["component"] for entry in stats["health"]["components"]
        }
        assert "chain" in components

    def test_service_health_report_includes_attached_auditor(self):
        service = _service()
        InvariantAuditor(service)  # registers itself as service.auditor
        report = service.health_report()
        assert report.component("audit") is not None

    def test_enabled_registry_gets_health_gauges(self):
        world = scenarios.micro_economy(seed=3, n_blocks=12)
        from repro.experiments import instrumented_service

        metrics = MetricsRegistry()
        service = instrumented_service(world, metrics=metrics)
        collect_health(service)
        gauges = metrics.snapshot()["gauges"]
        assert gauges["health.overall"] == 0
        assert gauges["health.status{component=chain}"] == 0

    def test_render_health_lists_every_component(self):
        report = collect_health(_service())
        rendered = render_health(report.as_dict())
        for entry in report.components:
            assert entry.component in rendered
        assert "ok" in rendered
