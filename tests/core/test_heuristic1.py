"""Heuristic 1 (multi-input clustering) on hand-crafted chains."""

from repro.chain.model import COIN
from repro.core.clustering import ClusteringEngine
from repro.core.heuristic1 import h1_statistics

from tests.helpers import addr, build_chain, coinbase, spend


def cluster_h1(index, *, as_of_height=None):
    """The reference engine's co-spend partition (address-keyed view)."""
    return ClusteringEngine(index).cluster_h1_only(as_of_height=as_of_height).uf


class TestCoSpend:
    def test_inputs_unioned(self):
        cb_a1 = coinbase(addr("a1"))
        cb_a2 = coinbase(addr("a2"))
        joint = spend(
            [(cb_a1, 0), (cb_a2, 0)],
            [(addr("merchant"), 99 * COIN)],
        )
        index = build_chain([[cb_a1], [cb_a2], [joint]])
        uf = cluster_h1(index)
        assert uf.connected(addr("a1"), addr("a2"))
        # Output address is NOT joined to inputs by H1.
        assert not uf.connected(addr("a1"), addr("merchant"))

    def test_transitive_linking_across_txs(self):
        cb1 = coinbase(addr("x1"))
        cb2 = coinbase(addr("x2"))
        cb3 = coinbase(addr("x3"))
        t1 = spend([(cb1, 0), (cb2, 0)], [(addr("p"), 100 * COIN)])
        # x2 gets more coins (a later coinbase), co-spends with x3.
        refill = coinbase(addr("x2"), height=3)
        t2 = spend([(refill, 0), (cb3, 0)], [(addr("q"), 100 * COIN)])
        index = build_chain([[cb1], [cb2], [cb3], [refill], [t1], [t2]])
        uf = cluster_h1(index)
        assert uf.connected(addr("x1"), addr("x3"))

    def test_coinbases_not_clustered(self):
        index = build_chain([[], []])
        uf = cluster_h1(index)
        assert uf.component_count == len(uf)

    def test_as_of_height_bounds_information(self):
        cb1 = coinbase(addr("h1"))
        cb2 = coinbase(addr("h2"))
        joint = spend([(cb1, 0), (cb2, 0)], [(addr("later"), 99 * COIN)])
        index = build_chain([[cb1], [cb2], [joint]])
        early = cluster_h1(index, as_of_height=1)
        assert not early.connected(addr("h1"), addr("h2"))
        full = cluster_h1(index)
        assert full.connected(addr("h1"), addr("h2"))


class TestStatistics:
    def test_sink_accounting(self):
        cb = coinbase(addr("spender"))
        pay = spend(
            [(cb, 0)], [(addr("sink1"), 25 * COIN), (addr("sink2"), 25 * COIN)]
        )
        index = build_chain([[cb], [pay]])
        stats = h1_statistics(index, cluster_h1(index))
        # spender spent; sink1/sink2 plus two helper coinbases never did.
        assert stats.spender_clusters == 1
        assert stats.sink_addresses == 4
        assert stats.max_users_upper_bound == 5
        assert stats.total_addresses == 5

    def test_largest_cluster(self):
        cbs = [coinbase(addr(f"big{i}")) for i in range(4)]
        joint = spend([(cb, 0) for cb in cbs], [(addr("out"), 199 * COIN)])
        index = build_chain([[cb] for cb in cbs] + [[joint]])
        stats = h1_statistics(index, cluster_h1(index))
        assert stats.largest_cluster_size == 4

    def test_simulated_world_counts(self, micro_world):
        stats = h1_statistics(micro_world.index, cluster_h1(micro_world.index))
        assert stats.total_addresses == micro_world.index.address_count
        assert (
            stats.max_users_upper_bound
            == stats.spender_clusters + stats.sink_addresses
        )
        # Clustering can never exceed the number of real entities' lower
        # bound: at least as many clusters as entities that transacted.
        assert stats.spender_clusters >= 1
