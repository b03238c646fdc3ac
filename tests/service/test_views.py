"""Materialized views: streamed state == batch recomputation, per height.

The PR 1 contract extended to the serving layer: stream a world's chain
block by block into a fresh index with views attached and, at *every*
height, compare each view's warm state against a from-scratch
recomputation over the prefix — balances against the address records,
activity against a full transaction walk, taint against a fresh batch
propagation.
"""

import pytest

from repro.analysis.taint import TaintTracker
from repro.chain.index import ChainIndex
from repro.chain.model import COIN, OutPoint
from repro.pipeline import AnalystView
from repro.service.views import ActivityView, BalanceView, TaintView
from repro.simulation import scenarios

from tests.helpers import addr, build_chain, coinbase, spend


@pytest.fixture(scope="module")
def small_world():
    return scenarios.micro_economy(seed=13, n_blocks=60, n_users=8)


def _batch_activity(index):
    """Ground truth for ActivityView: full transaction walk."""
    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    for tx, location in index.iter_transactions():
        involved = set(index.input_address_ids(tx))
        involved.update(i for i in index.output_address_ids(tx) if i >= 0)
        for ident in involved:
            counts[ident] = counts.get(ident, 0) + 1
            first.setdefault(ident, location.height)
            last[ident] = location.height
    return counts, first, last


class TestViewEqualsBatchAtEveryHeight:
    """The satellite property test: view state at h == batch at h."""

    def test_balance_and_activity_views(self, small_world):
        source = small_world.index
        target = ChainIndex()
        balances = BalanceView(target)
        activity = ActivityView(target)
        for height in range(source.height + 1):
            target.add_block(source.block_at(height))
            assert balances.height == activity.height == height
            # Balances: every record in the prefix index is the batch
            # recomputation of that address's balance at this height.
            for record in target.iter_addresses():
                assert (
                    balances.balance_of_id(record.address_id) == record.balance
                ), (height, record.address)
            supply = sum(
                tx.total_output_value
                for block in target.blocks
                for tx in block.transactions
                if tx.is_coinbase
            )
            assert balances.supply == balances.supply_at(height) == supply
            # Activity: counts and seen-ranges match a full tx walk.
            counts, first, last = _batch_activity(target)
            for ident, count in counts.items():
                assert activity.tx_count_of_id(ident) == count, height
                assert activity.seen_range_of_id(ident) == (
                    first[ident],
                    last[ident],
                ), height

    def test_taint_view(self, small_world):
        source = small_world.index
        # Seed: every output of the first few non-coinbase transactions.
        sources = []
        for tx, _location in source.iter_transactions():
            if tx.is_coinbase:
                continue
            sources.extend(OutPoint(tx.txid, v) for v in range(len(tx.outputs)))
            if len(sources) >= 4:
                break
        assert sources, "world has no spends to taint"
        # A stable namer (tag-style lookups), as the service wires it.
        analyst = AnalystView.build(small_world)
        tag_map = analyst.tags.as_mapping()
        target = ChainIndex()
        view = TaintView(target, name_of_address=tag_map.get)
        watched = False
        for height in range(source.height + 1):
            target.add_block(source.block_at(height))
            if not watched and all(op.txid in target for op in sources):
                view.watch("loot", sources)
                watched = True
            if not watched:
                continue
            case = view.case("loot")
            batch = TaintTracker(
                target, name_of_address=tag_map.get
            ).propagate(list(sources), max_txs=10 ** 9)
            assert case.initial_taint == batch.initial_taint, height
            assert case.txs_processed == batch.txs_processed, height
            assert case.taint == pytest.approx(batch.taint_by_outpoint), height
            assert case.at_entities == pytest.approx(
                batch.taint_at_entities
            ), height
        assert watched


class TestViewMechanics:
    def _chain(self):
        cb = coinbase(addr("view/a"))
        pay = spend(
            [(cb, 0)],
            [(addr("view/b"), 30 * COIN), (addr("view/c"), 20 * COIN)],
        )
        return build_chain([[cb], [pay], []])

    def test_catch_up_equals_streaming(self):
        source = self._chain()
        caught_up = BalanceView(source)
        target = ChainIndex()
        streamed = BalanceView(target)
        for height in range(source.height + 1):
            target.add_block(source.block_at(height))
        assert caught_up.balance_of(addr("view/b")) == 30 * COIN
        assert streamed.balance_of(addr("view/b")) == 30 * COIN
        assert streamed.balance_of(addr("view/a")) == 0
        assert streamed.height == caught_up.height == source.height

    def test_out_of_order_stream_rejected(self):
        source = self._chain()
        target = ChainIndex()
        view = BalanceView(target)
        view.detach()
        target.add_block(source.block_at(0))
        with pytest.raises(ValueError, match="order"):
            view._observe_delta(source.block_delta(2))

    def test_detach_freezes_state(self):
        source = self._chain()
        target = ChainIndex()
        view = ActivityView(target)
        target.add_block(source.block_at(0))
        view.detach()
        target.add_block(source.block_at(1))
        assert view.height == 0
