"""Combined clustering engine behaviour."""

from repro.chain.model import COIN
from repro.core.clustering import ClusteringEngine
from repro.core.heuristic2 import Heuristic2Config

from tests.helpers import addr, build_chain, coinbase, same_cluster, spend


def _world():
    """payer's two coinbases co-spend (H1) and the change is fresh (H2)."""
    cb1 = coinbase(addr("p/a"))
    cb2 = coinbase(addr("p/b"))
    warm = coinbase(addr("w"))
    warm2 = coinbase(addr("w2"))
    seed = spend([(warm, 0)], [(addr("mrk"), 50 * COIN)])
    seed2 = spend([(warm2, 0)], [(addr("mrk"), 50 * COIN)])
    payment = spend(
        [(cb1, 0), (cb2, 0)],
        [(addr("mrk"), 70 * COIN), (addr("p/change"), 30 * COIN)],
    )
    return build_chain([[cb1, cb2, warm, warm2], [seed], [seed2], [payment]])


class TestEngine:
    def test_h1_only_links_inputs_not_change(self):
        engine = ClusteringEngine(_world())
        clustering = engine.cluster_h1_only()
        assert same_cluster(clustering.uf, addr("p/a"), addr("p/b"))
        assert not same_cluster(clustering.uf, addr("p/a"), addr("p/change"))
        assert clustering.heuristics == "h1"

    def test_h2_adds_change_link(self):
        engine = ClusteringEngine(_world())
        clustering = engine.cluster()
        assert same_cluster(clustering.uf, addr("p/a"), addr("p/change"))
        assert not same_cluster(clustering.uf, addr("p/a"), addr("mrk"))
        assert clustering.heuristics == "h1+h2"
        assert len(clustering.h2_result.labels) == 1

    def test_cluster_count_decreases_with_h2(self):
        engine = ClusteringEngine(_world())
        h1 = engine.cluster_h1_only()
        both = engine.cluster()
        assert both.cluster_count == h1.cluster_count - 1

    def test_largest_clusters_sorted(self):
        clustering = ClusteringEngine(_world()).cluster()
        sizes = [size for _root, size in clustering.largest_clusters(3)]
        assert sizes == sorted(sizes, reverse=True)

    def test_largest_clusters_agree_with_materialized_components(self):
        clustering = ClusteringEngine(_world()).cluster()
        by_size = {
            root: len(members) for root, members in clustering.clusters().items()
        }
        assert dict(clustering.largest_clusters(len(by_size))) == by_size
        assert clustering.component_sizes() == by_size

    def test_lookup_of_unseen_address_is_non_mutating(self):
        clustering = ClusteringEngine(_world()).cluster()
        before = clustering.address_count
        assert clustering.cluster_of(addr("ghost")) is None
        assert not same_cluster(clustering.uf, addr("p/a"), addr("ghost"))
        assert addr("ghost") not in clustering.uf
        assert clustering.address_count == before

    def test_effective_cluster_count_collapses_same_tag(self):
        clustering = ClusteringEngine(_world()).cluster_h1_only()
        # p/a+p/b are one cluster; p/change is separate under H1.  A tag
        # on both collapses them for counting purposes.
        tags = {addr("p/a"): "Payer", addr("p/change"): "Payer"}
        assert (
            clustering.effective_cluster_count(tags)
            == clustering.cluster_count - 1
        )

    def test_naive_vs_refined_label_counts(self, default_world):
        index = default_world.index
        naive = ClusteringEngine(
            index, h2_config=Heuristic2Config.naive()
        ).cluster()
        refined = ClusteringEngine(index).cluster()
        # Refinements only remove labels.
        assert len(refined.h2_result.labels) <= len(naive.h2_result.labels)
