"""Metric-catalogue drift guard: the pipeline and ``docs/metrics.md``
must agree.

One fully instrumented end-to-end run (ingest, queries, aggregate
flushes, snapshot/restore/verify, an audit, a health collection)
gathers every metric name and flight-span kind actually emitted; each
must appear in the catalogue.  For the observability families this PR
owns (``audit.*``, ``health.*``) the check also runs in reverse — a
documented name that is never emitted is drift too.
"""

import re
from pathlib import Path

import pytest

from repro.obs import InvariantAuditor, MetricsRegistry
from repro.obs.health import collect_health
from repro.service import ForensicsService, Query
from repro.simulation import scenarios
from repro.storage import StateStore

DOCS = Path(__file__).resolve().parents[2] / "docs" / "metrics.md"

_NAME = re.compile(r"^[a-z][a-z0-9_]*(?:\.[a-z0-9_]+)+$")


def documented_names() -> set[str]:
    """Every backticked dotted lowercase token in the catalogue."""
    names = set()
    for span in re.findall(r"`([^`]+)`", DOCS.read_text()):
        span = re.sub(r"\{[^}]*\}", "", span)
        for token in span.split(" / "):
            if _NAME.match(token):
                names.add(token)
    return names


@pytest.fixture(scope="module")
def emitted(tmp_path_factory):
    """Metric names + flight kinds from one instrumented everything-run."""
    world = scenarios.micro_economy(seed=3)
    metrics = MetricsRegistry()
    service = ForensicsService.from_world(world, metrics=metrics)
    interner = service.index.interner
    horizon = max(0, service.height // 2)
    service.answer_many(
        [
            Query("top_clusters", (5, "balance")),
            Query("cluster_of", (interner.address_of(0),)),
            Query("balance_of", (interner.address_of(1),)),
            # Historical horizon twice: the first builds from the delta
            # log (timetravel.build_seconds + the `timetravel` flight
            # span), the second hits the horizon memo
            # (timetravel.memo_hits).
            Query("top_clusters", (5, "size", horizon)),
            Query("cluster_profile", (interner.address_of(0), horizon)),
        ]
    )
    store = StateStore(
        tmp_path_factory.mktemp("snapshots"), metrics=metrics
    )
    store.snapshot(service)
    manifest = store.latest()
    store.restore(manifest)
    store.verify_snapshot(manifest)
    auditor = InvariantAuditor(service)
    auditor.audit_now()
    collect_health(service, store=store, auditor=auditor)

    snapshot = metrics.snapshot()
    names = set()
    for family in ("counters", "gauges", "histograms"):
        for key in snapshot[family]:
            names.add(re.sub(r"\{[^}]*\}", "", key))
    kinds = {span["kind"] for span in metrics.flight.dump()}
    return names, kinds


class TestCatalogueDrift:
    def test_every_emitted_metric_is_documented(self, emitted):
        names, _kinds = emitted
        undocumented = names - documented_names()
        assert not undocumented, (
            f"emitted but missing from docs/metrics.md: "
            f"{sorted(undocumented)}"
        )

    def test_every_emitted_flight_kind_is_documented(self, emitted):
        _names, kinds = emitted
        text = DOCS.read_text()
        missing = {kind for kind in kinds if f"`{kind}`" not in text}
        assert not missing, (
            f"flight span kinds missing from docs/metrics.md: "
            f"{sorted(missing)}"
        )

    def test_documented_observability_families_are_emitted(self, emitted):
        names, _kinds = emitted
        owned = {
            name
            for name in documented_names()
            if name.startswith(("audit.", "health."))
        }
        assert owned, "docs/metrics.md documents no audit.*/health.* names"
        stale = owned - names
        assert not stale, (
            f"documented in docs/metrics.md but never emitted: "
            f"{sorted(stale)}"
        )

    def test_run_covered_the_families_under_guard(self, emitted):
        """The fixture must actually exercise audit + health, else the
        reverse check proves nothing."""
        names, kinds = emitted
        assert any(name.startswith("audit.") for name in names)
        assert any(name.startswith("health.") for name in names)
        assert "audit" in kinds
