"""``ForensicsService.from_world``: one constructor, two ways to get the
blocks, read from the ``metrics`` argument.

Without an enabled registry the service attaches to the world's already
built index (catch-up, nothing to observe).  With one, the world's
blocks stream through a fresh index so the registry sees every ingest
stage.  Either way the analyst gets the same service: same tags, same
dice set, same answers.
"""

import pytest

from repro.experiments import watch_synthetic_thefts
from repro.obs import MetricsRegistry
from repro.service import ForensicsService, Query
from repro.simulation import scenarios


@pytest.fixture(scope="module")
def world():
    return scenarios.micro_economy(seed=3, n_blocks=24)


@pytest.fixture(scope="module")
def attached(world):
    service = ForensicsService.from_world(world)
    watch_synthetic_thefts(service)
    return service


@pytest.fixture(scope="module")
def streamed(world):
    metrics = MetricsRegistry()
    service = ForensicsService.from_world(world, metrics=metrics)
    watch_synthetic_thefts(service)
    return service, metrics


def _sample_queries(service):
    interner = service.index.interner
    step = max(1, len(interner) // 12)
    addresses = [
        interner.address_of(i) for i in range(0, len(interner), step)
    ]
    horizon = service.height // 2
    queries = []
    for address in addresses:
        queries += [
            Query("cluster_of", (address,)),
            Query("balance_of", (address,)),
            Query("cluster_balance", (address,)),
            Query("cluster_profile", (address,)),
            Query("cluster_of", (address, horizon)),
            Query("cluster_profile", (address, horizon)),
        ]
    for by in ("size", "balance", "activity"):
        queries += [
            Query("top_clusters", (10, by)),
            Query("top_clusters", (10, by, horizon)),
        ]
    queries += [Query("trace_taint", (label,)) for label in service.taint.labels]
    return queries


class TestFromWorldRule:
    def test_plain_call_attaches_to_the_world_index(self, world, attached):
        assert attached.index is world.index
        assert attached.height == world.index.height
        assert not attached.metrics.enabled

    def test_plain_call_records_no_ingest_histogram(self, world):
        """A disabled registry is not an enabled one: still the attach
        path, and nothing lands under ``ingest.*``."""
        metrics = MetricsRegistry(enabled=False)
        service = ForensicsService.from_world(world, metrics=metrics)
        assert service.index is world.index
        snapshot = metrics.snapshot()
        assert not any(
            key.startswith("ingest.") for key in snapshot["histograms"]
        )

    def test_enabled_registry_streams_through_a_fresh_index(
        self, world, streamed
    ):
        service, metrics = streamed
        assert service.index is not world.index
        assert service.height == world.index.height
        snapshot = metrics.snapshot()
        blocks = len(world.blocks)
        assert snapshot["histograms"]["ingest.index_seconds"]["count"] == blocks
        assert snapshot["gauges"]["ingest.blocks"] == blocks
        assert snapshot["gauges"]["ingest.wall_seconds"] > 0

    def test_both_ways_build_the_same_service(self, attached, streamed):
        service, _ = streamed
        assert service.tags.as_mapping() == attached.tags.as_mapping()
        assert service.engine.dice_addresses == attached.engine.dice_addresses
        assert service.taint.labels == attached.taint.labels

    def test_a_sample_of_every_kind_answers_alike(self, attached, streamed):
        service, _ = streamed
        queries = _sample_queries(attached)
        assert {query.kind for query in queries} == {
            "cluster_of",
            "balance_of",
            "cluster_balance",
            "cluster_profile",
            "top_clusters",
            "trace_taint",
        }
        assert service.answer_many(queries) == attached.answer_many(queries)
