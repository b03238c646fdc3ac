"""ChainIndex ingestion, UTXO discipline, and temporal queries."""

import pytest

from repro.chain.errors import (
    DoubleSpendError,
    MissingInputError,
    UnknownAddressError,
    UnknownTransactionError,
)
from repro.chain.index import ChainIndex
from repro.chain.model import COIN, OutPoint

from tests.helpers import HistoryTwin, addr, build_chain, coinbase, spend


class TestIngestion:
    def test_basic_accounting(self):
        index, txs = _indexed_payment()
        assert index.tx_count == 4  # two coinbases + pay + sweep
        assert index.height == 1
        assert index.address_count >= 5
        # Supply: two 50 BTC coinbases, minus the 1000 satoshi fee the
        # sweep paid (it vanishes because the test coinbases don't claim
        # fees).
        assert index.utxo_value() == 100 * COIN - 1000

    def test_out_of_order_blocks_rejected(self):
        index = build_chain([[]])
        from repro.chain.model import Block, GENESIS_PREV_HASH

        block = Block.assemble(
            height=5,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=0,
            transactions=[coinbase(addr("x"))],
        )
        with pytest.raises(MissingInputError):
            index.add_block(block)


def _indexed_payment():
    """cb -> pay(a, b); b spends to c.  Returns (index, txs dict)."""
    cb = coinbase(addr("miner-main"))
    pay = spend([(cb, 0)], [(addr("a"), 30 * COIN), (addr("b"), 20 * COIN)])
    sweep = spend([(pay, 1)], [(addr("c"), 20 * COIN - 1000)])
    index = ChainIndex()
    from repro.chain.model import Block, GENESIS_PREV_HASH

    block0 = Block.assemble(
        height=0, prev_hash=GENESIS_PREV_HASH, timestamp=100, transactions=[cb]
    )
    cb1 = coinbase(addr("miner-1"), height=1)
    block1 = Block.assemble(
        height=1, prev_hash=block0.hash, timestamp=700,
        transactions=[cb1, pay, sweep],
    )
    index.add_block(block0)
    index.add_block(block1)
    return index, {"cb": cb, "pay": pay, "sweep": sweep}


class TestQueries:
    def test_tx_lookup(self):
        index, txs = _indexed_payment()
        assert index.tx(txs["pay"].txid) == txs["pay"]
        with pytest.raises(UnknownTransactionError):
            index.tx(b"\x00" * 32)

    def test_location(self):
        index, txs = _indexed_payment()
        loc = index.location(txs["pay"].txid)
        assert loc.height == 1
        assert loc.timestamp == 700
        assert loc.index_in_block == 1

    def test_utxo_tracking(self):
        index, txs = _indexed_payment()
        assert index.is_unspent(OutPoint(txs["pay"].txid, 0))
        assert not index.is_unspent(OutPoint(txs["pay"].txid, 1))
        spender = index.spender_of(OutPoint(txs["pay"].txid, 1))
        assert spender == (txs["sweep"].txid, 0)

    def test_fee(self):
        index, txs = _indexed_payment()
        assert index.fee(txs["sweep"]) == 1000
        assert index.fee(txs["cb"]) == 0

    def test_input_addresses(self):
        index, txs = _indexed_payment()
        assert index.input_addresses(txs["sweep"]) == [addr("b")]
        assert index.input_addresses(txs["cb"]) == []

    def test_address_records(self):
        index, _txs = _indexed_payment()
        record_b = index.address(addr("b"))
        assert record_b.total_received == 20 * COIN
        assert record_b.total_spent == 20 * COIN
        assert record_b.balance == 0
        assert not record_b.is_sink
        record_c = index.address(addr("c"))
        assert record_c.is_sink
        with pytest.raises(UnknownAddressError):
            index.address(addr("nobody"))

    def test_sink_addresses(self):
        index, _txs = _indexed_payment()
        sinks = set(index.sink_addresses())
        assert addr("a") in sinks
        assert addr("c") in sinks
        assert addr("b") not in sinks

    def test_appearances_before(self):
        index, _txs = _indexed_payment()
        assert index.appearances_before(addr("b"), 1) == 0
        assert index.appearances_before(addr("b"), 2) == 1
        assert index.appearances_before(addr("unseen"), 99) == 0

    def test_first_seen(self):
        index, _txs = _indexed_payment()
        assert index.first_seen(addr("b")) == 1
        assert index.first_seen(addr("nobody")) is None


class TestViolations:
    def test_double_spend_rejected(self):
        cb = coinbase(addr("m2"))
        pay1 = spend([(cb, 0)], [(addr("a"), COIN)])
        pay2 = spend([(cb, 0)], [(addr("b"), COIN)])
        with pytest.raises(DoubleSpendError):
            _ingest(cb, pay1, pay2)

    def test_missing_input_rejected(self):
        cb = coinbase(addr("m3"))
        orphan = spend([(coinbase(addr("ghost")), 0)], [(addr("a"), COIN)])
        with pytest.raises(MissingInputError):
            _ingest(cb, orphan)


class TestRejectedBlockLeavesNoTrace:
    """``add_block`` is all-or-nothing: a block whose k-th transaction
    is invalid must not leave transactions ``0..k-1`` applied (it used
    to, and the *correct* block at that height then failed as a
    duplicate)."""

    def _chain(self):
        """Two good blocks, then per case a bad block 2 and the good
        block 2 it stands in for.  The good prefix of block 2 touches
        everything a walk mutates: a fresh address, an old address, a
        self-change, an in-block spend chain, a multi-input spend."""
        from repro.chain.model import Block

        cb0, cb1 = coinbase(addr("rb-m0")), coinbase(addr("rb-m1"), height=1)
        fund = spend([(cb0, 0)], [(addr("rb-a"), 20 * COIN), (addr("rb-b"), 30 * COIN)])
        index = build_chain([])
        block0 = Block.assemble(
            height=0, prev_hash=b"\x00" * 32, timestamp=0, transactions=[cb0]
        )
        block1 = Block.assemble(
            height=1, prev_hash=block0.hash, timestamp=600, transactions=[cb1, fund]
        )
        cb2 = coinbase(addr("rb-m2"), height=2)
        self_change = spend(
            [(fund, 0)], [(addr("rb-a"), 5 * COIN), (addr("rb-fresh"), 15 * COIN)]
        )
        chained = spend([(self_change, 1), (fund, 1)], [(addr("rb-b"), 45 * COIN)])
        good = [cb2, self_change, chained]

        def block2(*extra):
            return Block.assemble(
                height=2, prev_hash=block1.hash, timestamp=1200,
                transactions=[*good, *extra],
            )

        return index, [block0, block1], block2, {"fund": fund, "cb1": cb1}

    @staticmethod
    def _observable(index):
        return {
            "height": index.height,
            "utxo_count": index.utxo_count,
            "utxo_value": index.utxo_value(),
            "address_count": index.address_count,
            "tx_count": index.tx_count,
            "interned": list(index.interner),
            "state": index.export_state(),
        }

    @pytest.mark.parametrize("restored", [False, True], ids=["live", "restored"])
    @pytest.mark.parametrize(
        "case,error",
        [
            ("missing", MissingInputError),
            ("double_spend", DoubleSpendError),
            ("in_block_double_spend", DoubleSpendError),
            ("duplicate_tx", DoubleSpendError),
            ("second_input_bad", MissingInputError),
        ],
    )
    def test_rejected_block_then_corrected_block(self, case, error, restored):
        index, prefix, block2, txs = self._chain()
        histories = HistoryTwin()
        for block in prefix:
            index.add_block(block)
            histories.apply(block)
        if restored:
            index = ChainIndex.restore_state(index.export_state())
        notified = []
        index.subscribe_deltas(notified.append)
        bad_tx = {
            # spends an output no block ever created
            "missing": lambda: spend([(coinbase(addr("rb-ghost")), 0)], [(addr("rb-x"), COIN)]),
            # spends an output block 1 already spent
            "double_spend": lambda: spend(
                [(next(iter(prefix[0].transactions)), 0)], [(addr("rb-x"), COIN)]
            ),
            # spends an output an earlier tx of this very block spent
            "in_block_double_spend": lambda: spend([(txs["fund"], 0)], [(addr("rb-x"), COIN)]),
            # the same transaction twice
            "duplicate_tx": lambda: txs["fund"],
            # first input fine (and consumed) before the second one fails
            "second_input_bad": lambda: spend(
                [(txs["cb1"], 0), (coinbase(addr("rb-ghost")), 0)], [(addr("rb-x"), COIN)]
            ),
        }[case]()
        before = self._observable(index)
        spent_outpoint = OutPoint(txs["fund"].txid, 0)
        assert index.spender_of(spent_outpoint) is None
        with pytest.raises(error):
            index.add_block(block2(bad_tx))
        assert self._observable(index) == before
        # every address history reads as if the block was never offered
        histories.assert_matches(index)
        assert index.spender_of(spent_outpoint) is None
        assert not index.has_address(addr("rb-fresh"))
        assert index.self_change_heights(addr("rb-a")) == []
        assert notified == []
        # The corrected block ingests, and the index ends exactly where
        # one that never saw the bad block does.
        index.add_block(block2())
        assert [delta.height for delta in notified] == [2]
        twin = ChainIndex()
        for block in (*prefix, block2()):
            twin.add_block(block)
        assert index.export_state() == twin.export_state()
        histories.apply(block2())
        histories.assert_matches(index)
        assert index.self_change_heights(addr("rb-a")) == [2]
        assert notified[0].events == twin.block_delta(2).events


def _ingest(cb, *txs):
    from repro.chain.model import Block, GENESIS_PREV_HASH

    index = ChainIndex()
    block0 = Block.assemble(
        height=0, prev_hash=GENESIS_PREV_HASH, timestamp=0, transactions=[cb]
    )
    index.add_block(block0)
    cb1 = coinbase(addr("m-next"), height=1)
    block1 = Block.assemble(
        height=1, prev_hash=block0.hash, timestamp=600,
        transactions=[cb1, *txs],
    )
    index.add_block(block1)
    return index


class TestSelfChangeHistory:
    def test_self_change_recorded(self):
        cb = coinbase(addr("m4"))
        # a pays itself (self-change) plus a payment.
        first = spend([(cb, 0)], [(addr("self"), 10 * COIN)])
        selfchange = spend(
            [(first, 0)], [(addr("other"), COIN), (addr("self"), 9 * COIN)]
        )
        index = _ingest(cb, first, selfchange)
        assert index.self_change_heights(addr("self")) == [1]
        assert index.was_self_change_before(addr("self"), 2)
        assert not index.was_self_change_before(addr("self"), 1)
        assert not index.was_self_change_before(addr("other"), 5)


class TestObserverFanOut:
    """Multiple subscribers: exactly-once, in order, isolated failures."""

    def _source_blocks(self, n=3):
        source = build_chain([[] for _ in range(n)])
        return [source.block_at(h) for h in range(n)]

    def test_subscribers_observe_in_registration_order(self):
        target = ChainIndex()
        calls = []
        target.subscribe_deltas(lambda delta: calls.append(("a", delta.height)))
        target.subscribe_deltas(lambda delta: calls.append(("b", delta.height)))
        for block in self._source_blocks(2):
            target.add_block(block)
        assert calls == [("a", 0), ("b", 0), ("a", 1), ("b", 1)]

    def test_raising_subscriber_does_not_starve_later_ones(self):
        target = ChainIndex()
        seen = []

        def explode(delta):
            raise RuntimeError(f"boom at {delta.height}")

        target.subscribe_deltas(explode)
        target.subscribe_deltas(lambda delta: seen.append(delta.height))
        blocks = self._source_blocks(2)
        with pytest.raises(RuntimeError, match="boom at 0"):
            target.add_block(blocks[0])
        # The block is ingested and the later subscriber observed it.
        assert target.height == 0
        assert seen == [0]
        with pytest.raises(RuntimeError, match="boom at 1"):
            target.add_block(blocks[1])
        assert seen == [0, 1]

    def test_all_failures_reported_on_first_exception(self):
        target = ChainIndex()

        def explode_a(delta):
            raise RuntimeError("first")

        def explode_b(delta):
            raise ValueError("second")

        target.subscribe_deltas(explode_a)
        target.subscribe_deltas(explode_b)
        with pytest.raises(RuntimeError, match="first") as excinfo:
            target.add_block(self._source_blocks(1)[0])
        notes = getattr(excinfo.value, "__notes__", [])
        assert any("second" in note for note in notes)

    def test_mid_callback_unsubscribe_still_delivers_current_block(self):
        target = ChainIndex()
        seen = []
        unsubscribe_b = None

        def observer_a(delta):
            unsubscribe_b()

        def observer_b(delta):
            seen.append(delta.height)

        target.subscribe_deltas(observer_a)
        unsubscribe_b = target.subscribe_deltas(observer_b)
        blocks = self._source_blocks(2)
        target.add_block(blocks[0])
        # b was registered when the fan-out for block 0 snapshotted the
        # list, so it sees block 0 exactly once — and nothing after.
        assert seen == [0]
        target.add_block(blocks[1])
        assert seen == [0]

    def test_mid_callback_subscribe_starts_at_next_block(self):
        target = ChainIndex()
        seen = []

        def late_observer(delta):
            seen.append(delta.height)

        def observer_a(delta):
            if delta.height == 0:
                target.subscribe_deltas(late_observer)

        target.subscribe_deltas(observer_a)
        blocks = self._source_blocks(2)
        target.add_block(blocks[0])
        assert seen == []  # subscribed during block 0's fan-out
        target.add_block(blocks[1])
        assert seen == [1]


class TestOutputAddressIds:
    def test_aligned_for_ingested_txs(self):
        index, txs = _indexed_payment()
        for tx in (txs["pay"], txs["sweep"]):
            ids = index.output_address_ids(tx)
            assert len(ids) == len(tx.outputs)
            for ident, out in zip(ids, tx.outputs):
                assert index.interner.address_of(ident) == out.address
            assert index.output_address_ids(tx) == ids  # its receive rows

    def test_foreign_tx_never_allocates_phantom_ids(self):
        index, txs = _indexed_payment()
        before = len(index.interner)
        foreign = spend(
            [(txs["sweep"], 0)], [(addr("phantom-recipient"), COIN)]
        )
        ids = index.output_address_ids(foreign)
        # Unknown address resolves to -1 and the dense first-sight id
        # space is untouched (snapshot universes depend on it).
        assert ids == (-1,)
        assert len(index.interner) == before
