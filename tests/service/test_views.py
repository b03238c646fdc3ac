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
from repro.chain import script
from repro.chain.model import COIN, OutPoint, Transaction, TxOut
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
            assert balances.supply == supply
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
        """Views built from a finished index's rows == views streamed
        block by block, whole arrays, on a chain whose last block holds
        every case the rows build dedups or masks: one address twice
        among a tx's inputs, an address that pays itself change, an
        exotic output, and a coinbase paying a reused address."""
        a, b, c = addr("view/a"), addr("view/b"), addr("view/c")
        cb0 = coinbase(a, height=0)
        cb1 = coinbase(a, height=1)
        twice = Transaction(
            inputs=spend([(cb0, 0), (cb1, 0)], []).inputs,
            outputs=(
                *spend([], [(a, 60 * COIN), (b, 35 * COIN)]).outputs,
                TxOut(value=5 * COIN, script_pubkey=bytes([script.OP_RETURN])),
            ),
        )
        change = spend([(twice, 1)], [(c, 20 * COIN), (b, 15 * COIN)])
        source = build_chain(
            [[cb0], [cb1], [coinbase(a, height=2), twice, change]]
        )
        ids = [source.interner.id_of(x) for x in (a, b, c)]
        assert source.input_address_ids(twice) == (ids[0],)
        built_balances = BalanceView(source)
        built_activity = ActivityView(source)
        target = ChainIndex()
        balances = BalanceView(target)
        activity = ActivityView(target)
        for height in range(source.height + 1):
            target.add_block(source.block_at(height))
        assert built_balances.height == balances.height == source.height
        assert built_activity.height == activity.height == source.height
        # build_chain adds a miner coinbase to each block.
        assert built_balances.supply == balances.supply == 6 * 50 * COIN
        assert built_balances._balances.tolist() == balances._balances.tolist()
        for name in ("_tx_counts", "_first_seen", "_last_seen"):
            assert (
                getattr(built_activity, name).tolist()
                == getattr(activity, name).tolist()
            ), name
        assert [balances.balance_of_id(i) for i in ids] == [
            110 * COIN, 15 * COIN, 20 * COIN,
        ]
        assert [activity.tx_count_of_id(i) for i in ids] == [4, 2, 1]
        assert [activity.seen_range_of_id(i) for i in ids] == [
            (0, 2), (2, 2), (2, 2),
        ]

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
