"""Exact :class:`QueryCache` accounting under batch dispatch.

The cache's hit/miss/eviction counters feed the ``cache.*`` sampled
gauges and the CLI's ``cache_hit_rate`` — so their values must be
*exact*, not merely monotone.  These tests script a workload whose
every lookup is predictable: :meth:`QueryEngine.answer` performs
exactly one ``lookup`` per query (plus one ``put`` per miss), batch
grouping in :meth:`answer_many` changes dispatch *order* but never the
lookup count, and a tip advance re-keys everything (height-keyed
entries, invalidation by construction).

Query kinds are restricted to the live-aggregate fast path
(``balance_of`` / ``cluster_of`` / ``cluster_balance``) so no hidden
``_agg:*`` rebuild traffic perturbs the arithmetic.
"""

import pytest

from repro.chain.index import ChainIndex
from repro.chain.model import COIN
from repro.obs import MetricsRegistry
from repro.service import ForensicsService
from repro.service.queries import Query

from tests.helpers import addr, build_chain, coinbase, spend


@pytest.fixture()
def source():
    cb = coinbase(addr("acct/a"))
    pay = spend(
        [(cb, 0)],
        [(addr("acct/b"), 30 * COIN), (addr("acct/c"), 20 * COIN)],
    )
    sweep = spend([(pay, 0)], [(addr("acct/d"), 30 * COIN)])
    return build_chain([[cb], [pay], [sweep]])


def _counts(service):
    cache = service.cache
    return (cache.hits, cache.misses, cache.evictions)


class TestExactAccounting:
    def test_batch_with_repeats_then_rerun(self, source):
        target = ChainIndex()
        service = ForensicsService(target, metrics=MetricsRegistry())
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        assert _counts(service) == (0, 0, 0)

        batch = [
            Query("balance_of", (addr("acct/b"),)),
            Query("cluster_of", (addr("acct/b"),)),
            Query("balance_of", (addr("acct/b"),)),  # in-batch repeat
            Query("balance_of", (addr("acct/c"),)),
        ]
        answers = service.answer_many(batch)
        # Grouping preserves input order in the answers...
        assert answers[0] == 30 * COIN
        assert answers[2] == 30 * COIN
        assert answers[3] == 20 * COIN
        assert answers[1] is not None
        # ...and costs exactly one lookup per query: three distinct keys
        # miss, the in-batch repeat hits.
        assert _counts(service) == (1, 3, 0)

        # Unchanged tip: the identical batch is pure hits.
        assert service.answer_many(batch) == answers
        assert _counts(service) == (5, 3, 0)

    def test_tip_advance_rekeys_every_entry(self, source):
        target = ChainIndex()
        service = ForensicsService(target)
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        batch = [
            Query("balance_of", (addr("acct/b"),)),
            Query("balance_of", (addr("acct/d"),)),
        ]
        stale = service.answer_many(batch)
        assert stale == [30 * COIN, 0]
        assert _counts(service) == (0, 2, 0)

        # The new block spends acct/b's coin into acct/d: both answers
        # must be recomputed (misses), never served stale.
        target.add_block(source.block_at(2))
        assert service.answer_many(batch) == [0, 30 * COIN]
        assert _counts(service) == (0, 4, 0)
        # Old entries survive under the old height key (time-travel
        # repeats), so the rerun at the new tip is pure hits.
        assert service.answer_many(batch) == [0, 30 * COIN]
        assert _counts(service) == (2, 4, 0)

    def test_eviction_counted_and_evicted_key_misses_again(self, source):
        service = ForensicsService(source, cache_size=2)
        queries = [
            Query("balance_of", (addr(f"acct/{label}"),))
            for label in ("b", "c", "d")
        ]
        for query in queries:
            service.answer(query)
        # Three distinct keys through a 2-slot LRU: the first key was
        # evicted by the third put.
        assert _counts(service) == (0, 3, 1)
        service.answer(queries[0])
        assert _counts(service) == (0, 4, 2)
        service.answer(queries[0])
        assert _counts(service) == (1, 4, 2)

    def test_cache_gauges_sample_live_counters(self, source):
        metrics = MetricsRegistry()
        service = ForensicsService(source, metrics=metrics)
        batch = [
            Query("balance_of", (addr("acct/d"),)),
            Query("balance_of", (addr("acct/d"),)),
        ]
        service.answer_many(batch)
        gauges = metrics.snapshot()["gauges"]
        assert gauges["cache.hits"] == service.cache.hits == 1
        assert gauges["cache.misses"] == service.cache.misses == 1
        assert gauges["cache.evictions"] == 0
        assert gauges["cache.entries"] == len(service.cache) == 1
        assert gauges["cache.hit_rate"] == pytest.approx(0.5)


class TestRequestIdPropagation:
    def test_batch_spans_share_one_minted_request_id(self, source):
        metrics = MetricsRegistry()
        service = ForensicsService(source, metrics=metrics)
        service.answer_many([
            Query("balance_of", (addr("acct/b"),)),
            Query("cluster_of", (addr("acct/b"),)),
        ])
        service.answer_many([Query("balance_of", (addr("acct/c"),))])
        spans = [
            span for span in metrics.flight.dump()
            if span["kind"] == "query"
        ]
        assert len(spans) == 3
        first_batch, second_batch = spans[:2], spans[2:]
        assert len({span["request_id"] for span in first_batch}) == 1
        # A fresh batch mints a fresh id.
        assert (
            second_batch[0]["request_id"] != first_batch[0]["request_id"]
        )

    def test_caller_supplied_request_id_wins(self, source):
        metrics = MetricsRegistry()
        service = ForensicsService(source, metrics=metrics)
        service.answer_many(
            [Query("balance_of", (addr("acct/b"),))],
            request_id="req-external-7",
        )
        (span,) = [
            span for span in metrics.flight.dump()
            if span["kind"] == "query"
        ]
        assert span["request_id"] == "req-external-7"
        assert span["query"] == "balance_of"
        assert span["hit"] is False

    def test_single_answer_span_untagged_by_default(self, source):
        metrics = MetricsRegistry()
        service = ForensicsService(source, metrics=metrics)
        service.answer(Query("balance_of", (addr("acct/b"),)))
        (span,) = [
            span for span in metrics.flight.dump()
            if span["kind"] == "query"
        ]
        assert "request_id" not in span

class TestQueryAttribution:
    def test_each_span_names_its_path_and_the_flush_it_paid(self, source):
        """``path`` says how a dispatch was served and
        ``flush_paid_seconds`` what coalesced flush it paid: the first
        read after a block pays one, a cache hit and a past height built
        after it pay none."""
        metrics = MetricsRegistry()
        target = ChainIndex()
        service = ForensicsService(target, metrics=metrics)
        for height in range(3):
            target.add_block(source.block_at(height))
        ask = [
            Query("cluster_balance", (addr("acct/b"),)),  # tip, flushes
            Query("cluster_balance", (addr("acct/b"),)),  # cache
            Query("cluster_balance", (addr("acct/b"), 1)),  # built
            Query("cluster_of", (addr("acct/b"), 1)),  # memo
            Query("balance_of", (addr("acct/b"),)),  # no cluster read
        ]
        for query in ask:
            service.answer(query)
        spans = [
            span for span in metrics.flight.dump() if span["kind"] == "query"
        ]
        assert [span["path"] for span in spans] == [
            "tip", "cache", "built", "memo", "tip",
        ]
        paid = [span["flush_paid_seconds"] for span in spans]
        assert paid[0] > 0
        assert paid[1:] == [0.0] * 4
