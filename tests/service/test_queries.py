"""The query API: correctness vs batch, memoization, invalidation."""

import pytest

from repro.chain.index import ChainIndex
from repro.chain.model import COIN
from repro.core.clustering import ClusteringEngine
from repro.pipeline import AnalystView
from repro.service import ForensicsService, Query, parse_query
from repro.service.cache import QueryCache
from repro.simulation import scenarios

from tests.helpers import (
    addr,
    build_chain,
    coinbase,
    reference_answer,
    same_cluster,
    spend,
)


@pytest.fixture(scope="module")
def small_world():
    return scenarios.micro_economy(seed=13, n_blocks=60, n_users=8)


@pytest.fixture(scope="module")
def analyst(small_world):
    return AnalystView.build(small_world)


@pytest.fixture(scope="module")
def service(small_world, analyst):
    return ForensicsService(
        small_world.index,
        tags=analyst.tags,
        dice_addresses=analyst.dice_addresses,
    )


def _sample_addresses(index, n=40):
    interner = index.interner
    step = max(1, len(interner) // n)
    return [interner.address_of(i) for i in range(0, len(interner), step)]


class TestAnswersAgainstBatch:
    def test_cluster_of_induces_batch_partition(self, service, analyst):
        batch = ClusteringEngine(
            service.index,
            h2_config=analyst.h2_config,
            dice_addresses=analyst.dice_addresses,
        ).cluster()
        addresses = _sample_addresses(service.index)
        cluster = {a: service.answer(Query("cluster_of", (a,))) for a in addresses}
        for a in addresses:
            for b in addresses:
                together = same_cluster(batch.uf, a, b)
                assert (cluster[a] == cluster[b]) == together, (a, b)

    def test_balance_of_matches_records(self, service):
        for a in _sample_addresses(service.index):
            balance = service.index.address(a).balance
            assert service.answer(Query("balance_of", (a,))) == balance

    def test_cluster_balance_sums_members(self, service):
        clustering = service.engine.cluster_as_of()
        clusters = clustering.clusters()
        index = service.index
        interner = index.interner
        for a in _sample_addresses(index, n=10):
            members = clusters[clustering.uf.find(a)]
            expected = sum(index.address(m).balance for m in members)
            assert service.answer(Query("cluster_balance", (a,))) == expected
            # The public cluster id is canonical: the minimum member id.
            assert service.answer(Query("cluster_of", (a,))) == min(
                interner.id_of(m) for m in members
            )

    def test_top_clusters_by_size_matches_largest_clusters(self, service):
        expected = service.engine.cluster_as_of().largest_clusters(5)
        top = service.answer(Query("top_clusters", (5, "size")))
        answered = [(root, size) for root, size, _name in top]
        assert {s for _r, s in answered} == {s for _r, s in expected}

    def test_cluster_profile_fields(self, service):
        a = _sample_addresses(service.index, n=5)[1]
        profile = service.answer(Query("cluster_profile", (a,)))
        assert profile["address"] == a
        assert profile["cluster"] == service.answer(Query("cluster_of", (a,)))
        assert profile["balance"] == service.answer(Query("balance_of", (a,)))
        assert profile["cluster_balance"] == service.answer(
            Query("cluster_balance", (a,))
        )
        assert profile["cluster_size"] >= 1
        assert profile["tx_count"] >= 1
        assert 0 <= profile["first_seen"] <= profile["last_seen"]

    def test_unknown_address_answers(self, service):
        unknown = addr("never-on-chain")
        assert service.answer(Query("cluster_of", (unknown,))) is None
        assert service.answer(Query("balance_of", (unknown,))) == 0
        assert service.answer(Query("cluster_balance", (unknown,))) is None
        assert service.answer(Query("cluster_profile", (unknown,))) is None

    def test_trace_taint_matches_batch_result(self, service):
        from repro.analysis.taint import TaintTracker

        index = service.index
        theft_tx = next(
            tx for tx, _loc in index.iter_transactions() if not tx.is_coinbase
        )
        service.watch_theft("heist", [theft_tx.txid])
        answer = service.answer(Query("trace_taint", ("heist",)))
        batch = TaintTracker(
            index, name_of_address=service.taint.name_of_address
        ).propagate(
            list(service.taint.case("heist").sources), max_txs=10 ** 9
        )
        assert answer["initial_taint"] == batch.initial_taint
        assert answer["unspent_taint"] == pytest.approx(batch.unspent_taint)
        assert dict(answer["reached"]) == pytest.approx(
            batch.taint_at_entities
        )

    def test_trace_taint_unwatched_label(self, service):
        assert service.answer(Query("trace_taint", ("no-such-case",))) is None

    def test_answer_many_matches_individual_answers(self, service):
        addresses = _sample_addresses(service.index, n=8)
        queries = []
        for a in addresses:
            queries.append(Query("cluster_of", (a,)))
            queries.append(Query("balance_of", (a,)))
            queries.append(Query("cluster_profile", (a,)))
        queries.append(Query("top_clusters", (5, "balance")))
        batch_answers = service.answer_many(queries)
        assert len(batch_answers) == len(queries)
        for query, answer in zip(queries, batch_answers):
            assert service.answer(query) == answer

    def test_unknown_kind_rejected(self, service):
        with pytest.raises(ValueError, match="unknown query kind"):
            service.answer(Query("who_is", ("x",)))


class TestCacheBehaviour:
    def _service_over(self, target):
        return ForensicsService(target)

    def _streaming_world(self):
        cb = coinbase(addr("q/a"))
        pay = spend(
            [(cb, 0)],
            [(addr("q/b"), 30 * COIN), (addr("q/c"), 20 * COIN)],
        )
        sweep = spend([(pay, 0)], [(addr("q/d"), 30 * COIN)])
        return build_chain([[cb], [pay], [sweep]])

    def test_repeat_query_hits_cache(self):
        source = self._streaming_world()
        service = self._service_over(source)
        query = Query("cluster_profile", (addr("q/b"),))
        first = service.answer(query)
        hits_before = service.cache.hits
        assert service.answer(query) is first  # memo: identical object
        assert service.cache.hits == hits_before + 1

    def test_new_block_invalidates(self):
        source = self._streaming_world()
        target = ChainIndex()
        service = self._service_over(target)
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        assert service.answer(Query("balance_of", (addr("q/b"),))) == 30 * COIN
        # New block spends q/b's coin: the old answer must not be served.
        target.add_block(source.block_at(2))
        assert service.answer(Query("balance_of", (addr("q/b"),))) == 0
        assert service.answer(Query("balance_of", (addr("q/d"),))) == 30 * COIN
        # The stale entry still exists under the old height key — usable
        # for time-travel-style repeats, never for the new tip.
        assert (1, Query("balance_of", (addr("q/b"),))) in service.cache
        assert (2, Query("balance_of", (addr("q/b"),))) in service.cache

    def test_watch_at_unchanged_tip_invalidates_taint_answers(self):
        source = self._streaming_world()
        service = self._service_over(source)
        # Cached: unwatched.
        assert service.answer(Query("trace_taint", ("loot",))) is None
        pay_txid = source.block_at(1).transactions[1].txid
        service.watch_theft("loot", [pay_txid])
        # Same height, but the watch set changed: no stale None.
        answer = service.answer(Query("trace_taint", ("loot",)))
        assert answer is not None
        assert answer["initial_taint"] == 50 * COIN

    def test_aggregates_rebuilt_after_new_block(self):
        source = self._streaming_world()
        target = ChainIndex()
        service = self._service_over(target)
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        top_before = service.answer(Query("top_clusters", (3, "balance")))
        target.add_block(source.block_at(2))
        top_after = service.answer(Query("top_clusters", (3, "balance")))
        balances_before = dict(
            (root, value) for root, value, _ in top_before
        )
        balances_after = dict(
            (root, value) for root, value, _ in top_after
        )
        assert balances_before != balances_after

    def test_lru_eviction(self):
        cache = QueryCache(maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.evictions == 1
        assert "a" not in cache
        assert cache.lookup("b") == (True, 2)
        assert cache.hit_rate == 1.0
        assert cache.lookup("a") == (False, None)  # evicted
        assert cache.hit_rate == 0.5

    def test_cache_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            QueryCache(maxsize=0)


class TestRankingAnswers:
    """top_clusters and cluster_profile read one rank index per metric
    on the aggregate surface, whatever the ``(n, by)`` pair."""

    def test_distinct_n_are_prefixes_of_one_order(self, small_world):
        service = ForensicsService(small_world.index)
        five = service.answer(Query("top_clusters", (5, "size")))
        misses_after_first = service.cache.misses
        ten = service.answer(Query("top_clusters", (10, "size")))
        twenty = service.answer(Query("top_clusters", (20, "size")))
        assert ten[:5] == five
        assert twenty[:10] == ten
        # Nothing is rebuilt per n: the only misses after the first
        # answer are the two new (n, by) answer keys.
        assert service.cache.misses == misses_after_first + 2

    def test_ranking_matches_the_batch_oracle(self, small_world):
        service = ForensicsService(small_world.index)
        for by in ("size", "balance", "activity"):
            query = Query("top_clusters", (8, by))
            assert service.answer(query) == reference_answer(
                small_world.index, query
            )

    def test_profile_rank_agrees_with_top_clusters(self, small_world):
        service = ForensicsService(small_world.index)
        ranked = service.answer(Query("top_clusters", (1, "size")))
        top_cluster = ranked[0][0]
        # The canonical id is itself a member id of the cluster.
        member = small_world.index.interner.address_of(top_cluster)
        profile = service.answer(Query("cluster_profile", (member,)))
        assert profile["cluster_rank"] == 1
        assert profile["cluster"] == top_cluster

    def test_unknown_metric_rejected(self, small_world):
        service = ForensicsService(small_world.index)
        with pytest.raises(ValueError, match="metric"):
            service.answer(Query("top_clusters", (3, "charisma")))


class TestTopClustersCount:
    """``n`` is a non-negative int, at the tip and at a past height: a
    negative count no longer slices off the last cluster, a bool is not
    a count, and a float is refused before it reaches a slice."""

    @pytest.fixture(scope="class")
    def service(self):
        world = scenarios.micro_economy(seed=3, n_blocks=40, n_users=8)
        return ForensicsService.from_world(world)

    @pytest.mark.parametrize("height", [(), (20,)])
    def test_negative_count_rejected(self, service, height):
        with pytest.raises(ValueError, match="count"):
            service.answer(Query("top_clusters", (-1, "size") + height))

    @pytest.mark.parametrize("height", [(), (20,)])
    def test_bool_count_rejected_even_after_its_int_is_cached(
        self, service, height
    ):
        assert len(service.answer(Query("top_clusters", (1, "size") + height))) == 1
        with pytest.raises(ValueError, match="count"):
            service.answer(Query("top_clusters", (True, "size") + height))

    @pytest.mark.parametrize("height", [(), (20,)])
    def test_float_count_rejected(self, service, height):
        service.answer(Query("top_clusters", (2, "size") + height))
        for n in (2.5, 2.0):
            with pytest.raises(ValueError, match="count"):
                service.answer(Query("top_clusters", (n, "size") + height))

    @pytest.mark.parametrize("height", [(), (20,)])
    def test_zero_is_an_empty_answer(self, service, height):
        assert service.answer(Query("top_clusters", (0, "size") + height)) == ()


class TestHorizonHeight:
    """A cluster query's trailing height is an int in ``0..tip``, checked
    before the cache: ``True == 1`` and ``2.0 == 2`` as keys, so a check
    behind the lookup let an answered int height serve its twins."""

    @pytest.fixture(scope="class")
    def service(self):
        world = scenarios.micro_economy(seed=3, n_blocks=40, n_users=8)
        return ForensicsService.from_world(world)

    @pytest.mark.parametrize(
        "kind", ["cluster_of", "cluster_balance", "cluster_profile", "top_clusters"]
    )
    def test_non_int_height_rejected_even_after_its_int_is_answered(
        self, service, kind
    ):
        if kind == "top_clusters":
            head = (3, "size")
        else:
            head = (service.index.interner.address_of(0),)
        for height, twin in ((1, True), (2, 2.0)):
            with pytest.raises(ValueError, match="horizon height"):
                service.answer(Query(kind, head + (twin,)))
            service.answer(Query(kind, head + (height,)))
            with pytest.raises(ValueError, match="horizon height"):
                service.answer(Query(kind, head + (twin,)))
        with pytest.raises(ValueError, match="outside"):
            service.answer(Query(kind, head + (service.height + 1,)))


class TestParsing:
    def test_parse_address_queries(self):
        assert parse_query(["cluster-of", "1abc"]) == Query(
            "cluster_of", ("1abc",)
        )
        assert parse_query(["balance_of", "1abc"]) == Query(
            "balance_of", ("1abc",)
        )

    def test_parse_top_clusters_defaults(self):
        assert parse_query(["top-clusters"]) == Query("top_clusters", (10, "size"))
        assert parse_query(["top-clusters", "5", "balance"]) == Query(
            "top_clusters", (5, "balance")
        )
        with pytest.raises(ValueError, match="metric"):
            parse_query(["top-clusters", "5", "bogus"])

    def test_parse_taint_label_rejoined(self):
        assert parse_query(["trace-taint", "Silk", "Road", "seizure"]) == Query(
            "trace_taint", ("Silk Road seizure",)
        )

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_query([])
        with pytest.raises(ValueError):
            parse_query(["cluster-of"])
        with pytest.raises(ValueError, match="unknown query kind"):
            parse_query(["frobnicate", "x"])
