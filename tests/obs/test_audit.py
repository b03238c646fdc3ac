"""The online invariant auditor: clean pipelines audit clean at every
cadence, and seeded corruption is caught within one audit cycle.

The hypothesis property streams randomized worlds with a *strict*
auditor attached at a randomized cadence — any invariant violation
anywhere in the run raises out of ``add_block``, so a pass certifies
zero violations at every audit point.  The corruption cases then mutate
one slot of real component state (a balance, a canonical id, an
aggregate, a retained event) and assert the next audit reports exactly
that check.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.index import ChainIndex
from repro.obs import AuditViolationError, InvariantAuditor
from repro.service import ForensicsService
from repro.simulation import scenarios
from repro.storage import StateStore

from tests.helpers import component


def _fresh_service(seed=3, n_blocks=None, **auditor_kwargs):
    """A streamed micro world with its own mutable service + auditor."""
    world = scenarios.micro_economy(seed=seed)
    attack = world.extras.get("attack")
    index = ChainIndex()
    service = ForensicsService(
        index, tags=attack.tags if attack is not None else None
    )
    auditor = InvariantAuditor(service, **auditor_kwargs)
    blocks = world.blocks if n_blocks is None else world.blocks[:n_blocks]
    for block in blocks:
        index.add_block(block)
    return service, auditor


class TestCleanPipelinesAuditClean:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10**6),
        n_blocks=st.integers(min_value=6, max_value=30),
        n_users=st.integers(min_value=3, max_value=8),
        cadence=st.sampled_from([1, 2, 3, 5, 8]),
    )
    def test_random_scenarios_zero_violations_at_every_cadence(
        self, seed, n_blocks, n_users, cadence
    ):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        auditor = InvariantAuditor(
            service, audit_every=cadence, strict=True
        )
        for block in world.blocks:
            index.add_block(block)  # strict: a violation raises here
        assert auditor.audits_run == len(world.blocks) // cadence
        assert auditor.total_violations == 0
        final = auditor.audit_now(full=True)
        assert final.ok, final.as_dict()

    def test_cadence_counts_and_on_demand_audit(self):
        service, auditor = _fresh_service(audit_every=4, strict=True)
        n_blocks = service.height + 1
        assert auditor.audits_run == n_blocks // 4
        before = auditor.audits_run
        auditor.audit_now()
        assert auditor.audits_run == before + 1

    def test_full_audit_batch_cross_checks_every_cluster(self):
        service, auditor = _fresh_service(audit_every=0)
        report = auditor.audit_now(full=True)
        assert report.ok
        aggregates = next(
            check for check in report.checks if check.name == "aggregates"
        )
        n_clusters = service.aggregates.cluster_count
        assert f"{n_clusters} cluster(s) cross-checked" in aggregates.detail
        derived = next(
            check for check in report.checks if check.name == "tip_derived"
        )
        assert "3 ranking(s) match the column build" in derived.detail

    def test_zero_cadence_never_fires(self):
        _service, auditor = _fresh_service(audit_every=0)
        assert auditor.audits_run == 0

    def test_negative_cadence_rejected(self):
        world = scenarios.micro_economy(seed=3, n_blocks=6)
        service = ForensicsService.from_world(world)
        with pytest.raises(ValueError):
            InvariantAuditor(service, audit_every=-1)


class TestSeededCorruptionDetected:
    """Each case mutates one slot of live state and expects the *next*
    audit cycle to attribute the damage to the right check."""

    def test_mutated_balance_slot(self):
        service, auditor = _fresh_service(audit_every=0)
        service.balances._balances[1] += 7
        report = auditor.audit_now()
        assert not report.ok
        balance = next(
            check
            for check in report.checks
            if check.name == "balance_conservation"
        )
        assert balance.violations
        assert "differ from the row replay" in balance.detail

    def test_forged_canonical_id(self):
        service, auditor = _fresh_service(audit_every=0)
        view = service.aggregates
        view._flush()
        root = view._tip.uf.find(0)
        view._tip.min_member[root] = view._tip.min_member[root] + 999
        report = auditor.audit_now()
        assert not report.ok
        partition = next(
            check for check in report.checks if check.name == "partition"
        )
        assert partition.violations

    @pytest.mark.parametrize("column", ["balance", "tx_count"])
    def test_corrupted_aggregate_column(self, column):
        service, auditor = _fresh_service(audit_every=0)
        view = service.aggregates
        view._flush()
        root = view._tip.uf.find(0)
        getattr(view._tip.roots, column)[root] += 5
        report = auditor.audit_now(full=True)
        assert not report.ok
        aggregates = next(
            check for check in report.checks if check.name == "aggregates"
        )
        assert aggregates.violations

    @pytest.mark.parametrize("column", ["balance", "tx_count"])
    def test_tip_root_column_is_checked_against_the_column_build(self, column):
        """The full audit's ``tip_derived`` check builds the tip height
        from the delta log, so a corrupted tip column cannot also be
        its own reference; the ``aggregates`` check names it too."""
        service, auditor = _fresh_service(audit_every=0)
        view = service.aggregates
        view._flush()
        root = view._tip.uf.find(0)
        getattr(view._tip.roots, column)[root] += 1
        report = auditor.audit_now(full=True)
        aggregates = next(
            check for check in report.checks if check.name == "aggregates"
        )
        assert aggregates.violations == 1
        derived = next(
            check for check in report.checks if check.name == "tip_derived"
        )
        assert derived.violations
        assert "base columns differ from the column build" in derived.detail

    def test_stale_rank_entry(self):
        """A ranking that still lists a cluster id a merge retired.
        Routine audits do not read the rankings; the full audit's
        ``tip_derived`` check names the damaged one."""
        service, auditor = _fresh_service(audit_every=0)
        view = service.aggregates
        view._flush()
        tip = view._tip
        retired = next(
            ident
            for ident in range(len(tip.uf))
            if tip.min_member[tip.uf.find(ident)] != ident
        )
        tip.ranks["size"].set(retired, 1)
        assert auditor.audit_now().ok
        report = auditor.audit_now(full=True)
        assert not report.ok
        derived = next(
            check for check in report.checks if check.name == "tip_derived"
        )
        assert derived.violations == 1
        assert derived.detail == "size ranking differs from the column build"

    def test_stale_activity_rank_entry(self):
        """The same damage in the ``activity`` ranking is named too:
        every metric is checked, not only the ones the tip happens to
        hold."""
        service, auditor = _fresh_service(audit_every=0)
        view = service.aggregates
        view._flush()
        tip = view._tip
        retired = next(
            ident
            for ident in range(len(tip.uf))
            if tip.min_member[tip.uf.find(ident)] != ident
        )
        tip.ranks["activity"].set(retired, 1)
        report = auditor.audit_now(full=True)
        derived = next(
            check for check in report.checks if check.name == "tip_derived"
        )
        assert derived.violations == 1
        assert derived.detail == "activity ranking differs from the column build"

    def test_restored_tip_checks_rankings_it_has_not_built(self, tmp_path):
        """A restored tip builds no ranking until one is read; the full
        audit still checks all three."""
        service, _auditor = _fresh_service(audit_every=0)
        StateStore(tmp_path).snapshot(service)
        restored = StateStore(tmp_path).restore()
        restored.detach()
        assert not restored.aggregates._tip.ranks
        report = InvariantAuditor(restored).audit_now(full=True)
        derived = next(
            check for check in report.checks if check.name == "tip_derived"
        )
        assert report.ok
        assert derived.detail.endswith("3 ranking(s) match the column build")

    def test_replaced_retained_event_value(self):
        """The shadow fold holds the event columns the aggregate view's
        delta log retained to the ones rebuilt from the index's rows:
        one changed value in one height's record is one violation."""
        service, auditor = _fresh_service(audit_every=0, strict=True)
        view = service.aggregates
        view._flush()
        log = view._log
        height = next(
            h for h in range(log.height + 1) if len(log.churn(h, h)[1])
        )
        _event_ids, event_values, _involved = log.churn(height, height)
        event_values[0] += 1  # a view into the log's column
        with pytest.raises(AuditViolationError) as excinfo:
            auditor.audit_now(full=True)
        shadow = next(
            check
            for check in excinfo.value.report.checks
            if check.name == "shadow_fold"
        )
        assert shadow.violations == 1
        assert f"height {height}: retained delta columns" in shadow.detail

    def test_strict_mode_raises_and_still_records(self):
        service, auditor = _fresh_service(audit_every=0, strict=True)
        service.balances._balances[1] += 7
        with pytest.raises(AuditViolationError) as excinfo:
            auditor.audit_now()
        assert excinfo.value.report.violations >= 1
        assert auditor.last_report is excinfo.value.report
        assert auditor.total_violations >= 1

    def test_strict_cadence_raises_within_one_cycle(self):
        """Corruption mid-stream aborts ingest at the next audit point."""
        world = scenarios.micro_economy(seed=3)
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        InvariantAuditor(service, audit_every=4, strict=True)
        corrupted_at = None
        with pytest.raises(AuditViolationError):
            for block in world.blocks:
                index.add_block(block)
                if block.height == 17:  # between audit points
                    service.balances._balances[0] += 1
                    corrupted_at = block.height
                assert (
                    corrupted_at is None
                    or block.height < corrupted_at + 4
                ), "audit cycle passed without detecting the corruption"

    def test_non_strict_degrades_to_report(self):
        service, auditor = _fresh_service(audit_every=0, strict=False)
        service.balances._balances[1] += 7
        report = auditor.audit_now()
        assert not report.ok
        assert auditor.last_report is report
        health = service.health_report()
        audit_component = component(health, "audit")
        assert audit_component.status == "failing"
        assert health.status == "failing"


class TestAuditTelemetry:
    def test_metrics_and_flight_span_recorded(self):
        world = scenarios.micro_economy(seed=3, n_blocks=12)
        from repro.obs import MetricsRegistry

        metrics = MetricsRegistry()
        service = ForensicsService.from_world(world, metrics=metrics)
        auditor = InvariantAuditor(service)
        report = auditor.audit_now()
        assert report.ok
        snapshot = metrics.snapshot()
        assert snapshot["counters"]["audit.checks_total"] == len(
            report.checks
        )
        for check in report.checks:
            key = f"audit.violations_total{{check={check.name}}}"
            assert snapshot["counters"][key] == 0
            summary = snapshot["histograms"][
                f"audit.seconds{{check={check.name}}}"
            ]
            assert summary["count"] == 1
        spans = [
            span
            for span in metrics.flight.dump()
            if span["kind"] == "audit"
        ]
        assert len(spans) == 1
        assert spans[0]["violations"] == 0

    def test_report_shape(self):
        _service, auditor = _fresh_service(audit_every=0, n_blocks=12)
        report = auditor.audit_now()
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["violations"] == 0
        assert {check["name"] for check in payload["checks"]} == {
            "balance_conservation",
            "partition",
            "aggregates",
            "shadow_fold",
        }
        assert payload["seconds"] == pytest.approx(
            sum(check["seconds"] for check in payload["checks"])
        )
