"""Incremental streaming engine: equivalence with batch + time travel.

The contract under test: for every height ``h``,
``IncrementalClusteringEngine.cluster_as_of(h)`` induces exactly the
partition and label set of ``ClusteringEngine.cluster(as_of_height=h)``
— including labels that a later receive inside the §4.2 waiting window
retroactively voids.
"""

import pytest

from repro.chain.index import ChainIndex
from repro.chain.model import COIN
from repro.core.clustering import ClusteringEngine
from repro.core.heuristic2 import Heuristic2Config
from repro.core.incremental import IncrementalClusteringEngine
from repro.simulation import scenarios

from tests.helpers import addr, build_chain, coinbase, spend


def _partition(clustering):
    return {frozenset(members) for members in clustering.clusters().values()}


def _assert_equivalent_at_every_height(index, *, h2_config=None, dice=frozenset()):
    batch = ClusteringEngine(index, h2_config=h2_config, dice_addresses=dice)
    incremental = IncrementalClusteringEngine(
        index, h2_config=h2_config, dice_addresses=dice
    )
    series = incremental.cluster_count_series()
    assert [point.height for point in series] == list(range(index.height + 1))
    for height in range(index.height + 1):
        expected = batch.cluster(as_of_height=height)
        actual = incremental.cluster_as_of(height)
        assert actual.address_count == expected.address_count, height
        assert actual.cluster_count == expected.cluster_count, height
        assert actual.h2_result.labels == expected.h2_result.labels, height
        assert _partition(actual) == _partition(expected), height
        point = series[height]
        assert (
            point.clusters, point.active_labels, point.address_count
        ) == (
            expected.cluster_count,
            len(expected.h2_result.labels),
            expected.address_count,
        ), height
        assert (
            point.h1_clusters
            == batch.cluster_h1_only(as_of_height=height).cluster_count
        ), height


def _change_world():
    """One clean change label plus one voided within the wait window.

    ``v/change`` looks like one-time change at height 4 but receives a
    later payment one block (600s) later — inside the one-week wait —
    so any horizon ≥ 5 must drop the label and its union.
    """
    cb_u = coinbase(addr("u/a"))
    cb_v = coinbase(addr("v/a"))
    warm1 = coinbase(addr("w1"))
    warm2 = coinbase(addr("w2"))
    late = coinbase(addr("late"))
    seed1 = spend([(warm1, 0)], [(addr("shop"), 50 * COIN)])
    seed2 = spend([(warm2, 0)], [(addr("shop"), 50 * COIN)])
    pay_u = spend(
        [(cb_u, 0)], [(addr("shop"), 30 * COIN), (addr("u/change"), 20 * COIN)]
    )
    pay_v = spend(
        [(cb_v, 0)], [(addr("shop"), 30 * COIN), (addr("v/change"), 20 * COIN)]
    )
    reuse = spend([(late, 0)], [(addr("v/change"), 50 * COIN)])
    blocks = [
        [cb_u, cb_v, warm1, warm2, late],
        [seed1],
        [seed2],
        [pay_u],
        [pay_v],
        [reuse],
        [],
    ]
    return blocks


class TestHandCraftedEquivalence:
    def test_equivalent_at_every_height(self):
        index = build_chain(_change_world())
        _assert_equivalent_at_every_height(index)

    def test_wait_voiding_is_horizon_dependent(self):
        index = build_chain(_change_world())
        incremental = IncrementalClusteringEngine(index)
        at_labeling = incremental.cluster_as_of(4)
        assert at_labeling.same_cluster(addr("v/a"), addr("v/change"))
        after_reuse = incremental.cluster_as_of(5)
        assert not after_reuse.same_cluster(addr("v/a"), addr("v/change"))
        # The clean label survives every horizon.
        assert after_reuse.same_cluster(addr("u/a"), addr("u/change"))

    def test_dice_exception_keeps_label_alive(self):
        index = build_chain(_change_world())
        dice = frozenset({addr("late")})
        _assert_equivalent_at_every_height(index, dice=dice)
        incremental = IncrementalClusteringEngine(index, dice_addresses=dice)
        tip = incremental.cluster_as_of()
        assert tip.same_cluster(addr("v/a"), addr("v/change"))

    def test_naive_config_never_voids(self):
        index = build_chain(_change_world())
        config = Heuristic2Config.naive()
        _assert_equivalent_at_every_height(index, h2_config=config)
        incremental = IncrementalClusteringEngine(index, h2_config=config)
        tip = incremental.cluster_as_of()
        assert tip.same_cluster(addr("v/a"), addr("v/change"))


class TestSimulatedEquivalence:
    @pytest.fixture(scope="class")
    def small_world(self):
        return scenarios.micro_economy(seed=13, n_blocks=60, n_users=8)

    def test_equivalent_at_every_height(self, small_world):
        _assert_equivalent_at_every_height(small_world.index)

    def test_series_agrees_with_snapshots(self, small_world):
        """Every series point equals the counts of the materialized
        partitions at its height."""
        incremental = IncrementalClusteringEngine(small_world.index)
        series = incremental.cluster_count_series()
        assert len(series) == small_world.index.height + 1
        for point in series:
            full = incremental.cluster_as_of(point.height)
            assert (
                point.clusters,
                point.h1_clusters,
                point.address_count,
                point.active_labels,
            ) == (
                full.cluster_count,
                incremental.cluster_h1_as_of(point.height).cluster_count,
                full.address_count,
                len(full.h2_result.labels),
            )

    def test_time_travel_never_mutates_live_engine(self, small_world):
        """Time travel builds fresh structures: the live H1 union-find's
        parents, sizes and merge log are untouched by every reader."""
        incremental = IncrementalClusteringEngine(small_world.index)
        live = incremental._uf
        before = live.export_state()
        tip = small_world.index.height
        for height in (0, tip // 3, tip // 2, tip - 1, tip):
            incremental.cluster_as_of(height)
            incremental.cluster_h1_as_of(height)
        incremental.cluster_count_series()
        assert incremental._uf is live
        assert live.export_state() == before


class TestStreaming:
    def test_blocks_cluster_as_they_arrive(self):
        source = build_chain(_change_world())
        target = ChainIndex()
        engine = IncrementalClusteringEngine(target)
        batch = ClusteringEngine(target)
        assert engine.height == -1
        for height in range(source.height + 1):
            target.add_block(source.block_at(height))
            assert engine.height == height
            live = engine.cluster_as_of()
            expected = batch.cluster(as_of_height=height)
            assert _partition(live) == _partition(expected), height
        # Earlier horizons remain queryable after the chain has grown.
        assert not engine.cluster_as_of(1).same_cluster(
            addr("u/a"), addr("u/change")
        )

    def test_detach_stops_following(self):
        source = build_chain(_change_world())
        target = ChainIndex()
        engine = IncrementalClusteringEngine(target)
        target.add_block(source.block_at(0))
        engine.detach()
        target.add_block(source.block_at(1))
        assert engine.height == 0

    def test_out_of_order_attach_rejected(self):
        source = build_chain(_change_world())
        target = ChainIndex()
        engine = IncrementalClusteringEngine(target)
        engine.detach()
        target.add_block(source.block_at(0))
        with pytest.raises(ValueError):
            engine._observe_delta(source.block_delta(2))

    def test_empty_chain_tip_matches_batch(self):
        index = ChainIndex()
        engine = IncrementalClusteringEngine(index)
        empty = engine.cluster_as_of()
        batch = ClusteringEngine(index).cluster()
        assert empty.address_count == batch.address_count == 0
        assert empty.cluster_count == batch.cluster_count == 0
        assert engine.cluster_count_series() == []
        with pytest.raises(IndexError):
            engine.cluster_as_of(0)  # explicit heights still range-checked

    def test_height_out_of_range_rejected(self):
        index = build_chain(_change_world())
        engine = IncrementalClusteringEngine(index)
        with pytest.raises(IndexError):
            engine.cluster_h1_as_of(index.height + 1)
        with pytest.raises(IndexError):
            engine.cluster_as_of(-1)


class TestMonotoneTimestamps:
    """The wait rule's clock must never run backwards (§4.2)."""

    def _blocks_with_backwards_time(self):
        from repro.chain.model import Block, GENESIS_PREV_HASH

        from tests.helpers import GENESIS_TIME

        block0 = Block.assemble(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=GENESIS_TIME,
            transactions=[coinbase(addr("mono/m0"), height=0)],
        )
        block1 = Block.assemble(
            height=1,
            prev_hash=block0.hash,
            timestamp=GENESIS_TIME - 600,  # runs backwards
            transactions=[coinbase(addr("mono/m1"), height=1)],
        )
        return block0, block1

    def test_backwards_timestamp_raises_chain_error(self):
        from repro.chain.errors import ChainError, NonMonotonicTimestampError
        from repro.chain.model import Block

        from tests.helpers import GENESIS_TIME

        block0, block1 = self._blocks_with_backwards_time()
        index = ChainIndex()
        engine = IncrementalClusteringEngine(index)
        index.add_block(block0)
        with pytest.raises(NonMonotonicTimestampError, match="precedes"):
            index.add_block(block1)
        assert issubclass(NonMonotonicTimestampError, ChainError)
        # The offending block was refused by the engine, not half-applied.
        assert engine.height == 0
        # ...but the index itself ingested it (observers run after).
        assert index.height == 1
        # The engine is now permanently behind: later blocks get the
        # diagnosis, not a misleading out-of-order error.
        block2 = Block.assemble(
            height=2,
            prev_hash=block1.hash,
            timestamp=GENESIS_TIME + 600,
            transactions=[coinbase(addr("mono/m2"), height=2)],
        )
        with pytest.raises(NonMonotonicTimestampError, match="stopped"):
            index.add_block(block2)
        assert engine.height == 0

    def test_backwards_timestamp_allowed_without_wait_rule(self):
        block0, block1 = self._blocks_with_backwards_time()
        index = ChainIndex()
        engine = IncrementalClusteringEngine(
            index, h2_config=Heuristic2Config.naive()
        )
        index.add_block(block0)
        index.add_block(block1)  # no wait window, no clamp to violate
        assert engine.height == 1

    def test_later_subscribers_survive_the_refusal(self):
        block0, block1 = self._blocks_with_backwards_time()
        index = ChainIndex()
        IncrementalClusteringEngine(index)
        heights = []
        index.subscribe_deltas(lambda delta: heights.append(delta.height))
        index.add_block(block0)
        with pytest.raises(Exception):
            index.add_block(block1)
        assert heights == [0, 1]


class TestSnapshotMemo:
    def test_cluster_as_of_memoizes_per_height(self):
        index = build_chain(_change_world())
        engine = IncrementalClusteringEngine(index)
        first = engine.cluster_as_of(3)
        assert engine.cluster_as_of(3) is first  # memo hit, exact reuse
        tip = engine.cluster_as_of()
        assert engine.cluster_as_of(index.height) is tip
        # Memoized answers stay correct as voids land later: height 4's
        # view includes the label voided at height 5, before and after.
        at_four = engine.cluster_as_of(4)
        assert at_four.same_cluster(addr("v/a"), addr("v/change"))

    def test_memo_taken_at_tip_stays_correct_after_later_void(self):
        source = build_chain(_change_world())
        target = ChainIndex()
        engine = IncrementalClusteringEngine(target)
        for height in range(5):
            target.add_block(source.block_at(height))
        # Memoize horizon 4 while it is the tip: the v-label is live.
        at_tip = engine.cluster_as_of(4)
        assert at_tip.same_cluster(addr("v/a"), addr("v/change"))
        # Block 5 voids the label going forward...
        target.add_block(source.block_at(5))
        assert not engine.cluster_as_of(5).same_cluster(
            addr("v/a"), addr("v/change")
        )
        # ...but horizon 4's (memoized) answer is unchanged — exactly
        # the batch engine's as_of_height=4 view.
        again = engine.cluster_as_of(4)
        assert again is at_tip
        batch = ClusteringEngine(target).cluster(as_of_height=4)
        assert _partition(again) == _partition(batch)
