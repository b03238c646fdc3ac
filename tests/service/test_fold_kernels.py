"""Kernelized folds == scalar reference folds, at every height.

The vectorized fold kernels (``np.add.at`` scatters in the balance and
activity views, the batched per-run churn scatter in the cluster
aggregate view) must equal the obvious per-event loop: the view tests
stream one chain into each view and its reference fold
(``tests/helpers.ReferenceBalanceFold`` / ``ReferenceActivityFold``,
which read the delta's derived pair views while the views read its
columns) and compare their state block by block; the aggregate view,
whose scalar reference is the batch oracle in ``tests/helpers.py``, is
compared against that at every flush.

Chains come from the large-scale generator (dense co-spends, heavy
merging, fresh-address churn) with hypothesis-drawn shape parameters,
so the comparison sweeps many fold orders, merge patterns, and flush
cadences rather than one golden scenario.
"""

from hypothesis import given, settings, strategies as st

from repro.chain.index import ChainIndex
from repro.core.incremental import IncrementalClusteringEngine
from repro.service.aggregates import ClusterAggregateView
from repro.service.views import ActivityView, BalanceView
from repro.simulation import large_scale_blocks

from tests.helpers import (
    ReferenceActivityFold,
    ReferenceBalanceFold,
    assert_surface_equals_batch,
)


def _chain(seed, n_blocks, txs_per_block, reuse):
    return list(
        large_scale_blocks(
            n_blocks,
            seed=seed,
            txs_per_block=txs_per_block,
            outputs_per_tx=3,
            reuse_probability=reuse,
        )
    )


_SHAPES = {
    "seed": st.integers(0, 2**16),
    "n_blocks": st.integers(2, 25),
    "txs_per_block": st.integers(1, 6),
    "reuse": st.floats(0.0, 0.9),
}


def _dense(sparse: dict[int, int], size: int, fill: int = 0) -> list[int]:
    """A reference fold's per-id dict as the view's dense list."""
    return [sparse.get(ident, fill) for ident in range(size)]


class TestViewKernelsMatchScalar:
    @settings(max_examples=20, deadline=None)
    @given(**_SHAPES)
    def test_balance_and_activity_twins_agree_at_every_height(
        self, seed, n_blocks, txs_per_block, reuse
    ):
        index = ChainIndex()
        balances = BalanceView(index)
        activity = ActivityView(index)
        balance_fold = ReferenceBalanceFold()
        activity_fold = ReferenceActivityFold()
        index.subscribe_deltas(balance_fold.apply)
        index.subscribe_deltas(activity_fold.apply)
        for block in _chain(seed, n_blocks, txs_per_block, reuse):
            index.add_block(block)
            n = index.address_count
            assert balances.supply == balance_fold.supply
            assert balances._balances.tolist() == _dense(balance_fold.balances, n)
            assert activity._tx_counts.tolist() == _dense(activity_fold.tx_counts, n)
            assert activity._first_seen.tolist() == _dense(
                activity_fold.first_seen, n, -1
            )
            assert activity._last_seen.tolist() == _dense(
                activity_fold.last_seen, n, -1
            )

    @settings(max_examples=20, deadline=None)
    @given(**_SHAPES)
    def test_balance_events_agree(
        self, seed, n_blocks, txs_per_block, reuse
    ):
        index = ChainIndex()
        balances = BalanceView(index)
        balance_fold = ReferenceBalanceFold()
        index.subscribe_deltas(balance_fold.apply)
        blocks = _chain(seed, n_blocks, txs_per_block, reuse)
        for block in blocks:
            index.add_block(block)
        for height in range(len(blocks)):
            assert balances.events_at(height) == balance_fold.events[height]


class TestAggregateKernelMatchesBatch:
    @settings(max_examples=15, deadline=None)
    @given(flush_every=st.integers(1, 9), **_SHAPES)
    def test_aggregates_equal_batch_at_every_flush(
        self, flush_every, seed, n_blocks, txs_per_block, reuse
    ):
        """The batched churn scatter must land every sum/min/max at the
        same post-merge root a per-address batch rollup finds, across
        arbitrary flush cadences (run length = merge-fold interleaving).
        """
        index = ChainIndex()
        engine = IncrementalClusteringEngine(index)
        view = ClusterAggregateView(index, engine=engine)
        blocks = _chain(seed, n_blocks, txs_per_block, reuse)
        for block in blocks:
            index.add_block(block)
            if (block.height + 1) % flush_every and (
                block.height != len(blocks) - 1
            ):
                continue
            # Taking the surface flushes the queued blocks as one run.
            assert_surface_equals_batch(view.at(), index, block.height)


class TestH1PairKernelMatchesScalar:
    @settings(max_examples=20, deadline=None)
    @given(**_SHAPES)
    def test_engine_partition_equals_per_tx_union_chains(
        self, seed, n_blocks, txs_per_block, reuse
    ):
        """The engine's per-block ``union_many(h1_a, h1_b)`` pair batch
        must leave the same partition *and the same merge log* as the
        per-transaction chain unions it replaced."""
        from repro.core.union_find import IntUnionFind

        index = ChainIndex()
        engine = IncrementalClusteringEngine(index)
        deltas = []
        index.subscribe_deltas(deltas.append)
        for block in _chain(seed, n_blocks, txs_per_block, reuse):
            index.add_block(block)
        reference = IntUnionFind()
        for delta in deltas:
            reference.ensure(delta.max_id + 1)
            for txd in delta.txs:
                if not txd.is_coinbase and txd.input_ids:
                    reference.union_many(txd.input_ids)
        live = engine._uf
        assert live.component_count == reference.component_count
        assert live.log_prefix(live.checkpoint()) == reference.log_prefix(
            reference.checkpoint()
        )
        assert live.component_sizes() == reference.component_sizes()
