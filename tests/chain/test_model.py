"""Unit tests for the block/transaction object model."""

import pytest

from repro.chain.errors import BlockStructureError
from repro.chain.model import (
    COIN,
    Block,
    GENESIS_PREV_HASH,
    TxOut,
    block_subsidy,
    format_btc,
    merkle_root,
)

from tests.helpers import addr, coinbase, p2pkh_script_for_address, spend


class TestSubsidy:
    def test_initial_reward(self):
        assert block_subsidy(0) == 50 * COIN

    def test_halving_at_210k(self):
        assert block_subsidy(209_999) == 50 * COIN
        assert block_subsidy(210_000) == 25 * COIN
        assert block_subsidy(420_000) == 1_250_000_000

    def test_eventually_zero(self):
        assert block_subsidy(64 * 210_000) == 0

    def test_custom_interval(self):
        assert block_subsidy(10, halving_interval=10) == 25 * COIN


class TestAmounts:
    def test_format_btc(self):
        assert format_btc(COIN) == "1"
        assert format_btc(COIN // 2) == "0.5"
        assert format_btc(0) == "0"
        assert format_btc(-COIN) == "-1"
        assert format_btc(123) == "0.00000123"


class TestMerkle:
    def test_single_txid_is_its_own_root(self):
        txid = b"\x01" * 32
        assert merkle_root([txid]) == txid

    def test_pair_order_matters(self):
        a, b = b"\x01" * 32, b"\x02" * 32
        assert merkle_root([a, b]) != merkle_root([b, a])

    def test_odd_count_duplicates_last(self):
        a, b, c = (bytes([i]) * 32 for i in (1, 2, 3))
        assert merkle_root([a, b, c]) == merkle_root([a, b, c, c])

    def test_empty_rejected(self):
        with pytest.raises(BlockStructureError):
            merkle_root([])


class TestTransaction:
    def test_txid_stable_and_cached(self):
        tx = coinbase(addr("m"))
        assert tx.txid == tx.txid
        assert len(tx.txid) == 32
        assert tx.txid_hex == tx.txid[::-1].hex()

    def test_is_coinbase(self):
        cb = coinbase(addr("m"))
        assert cb.is_coinbase
        child = spend([(cb, 0)], [(addr("x"), COIN)])
        assert not child.is_coinbase

    def test_total_output_value(self):
        cb = coinbase(addr("m"))
        tx = spend([(cb, 0)], [(addr("a"), 10), (addr("b"), 20)])
        assert tx.total_output_value == 30

    def test_output_addresses(self):
        cb = coinbase(addr("m"))
        tx = spend([(cb, 0)], [(addr("a"), 10)])
        assert [out.address for out in tx.outputs] == [addr("a")]

    def test_outpoint_bounds(self):
        cb = coinbase(addr("m"))
        assert cb.outpoint(0).vout == 0
        with pytest.raises(IndexError):
            cb.outpoint(5)

    def test_distinct_txs_distinct_ids(self):
        assert coinbase(addr("m1")).txid != coinbase(addr("m2")).txid


class TestBlock:
    def test_assemble_sets_merkle_root(self):
        cb = coinbase(addr("m"))
        block = Block.assemble(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=1_300_000_000,
            transactions=[cb],
        )
        assert block.header.merkle_root == merkle_root([cb.txid])
        assert block.coinbase is cb
        assert len(block) == 1

    def test_empty_block_rejected(self):
        with pytest.raises(BlockStructureError):
            Block.assemble(
                height=0,
                prev_hash=GENESIS_PREV_HASH,
                timestamp=0,
                transactions=[],
            )

    def test_block_hash_changes_with_content(self):
        blk1 = Block.assemble(
            height=0, prev_hash=GENESIS_PREV_HASH, timestamp=1,
            transactions=[coinbase(addr("a"))],
        )
        blk2 = Block.assemble(
            height=0, prev_hash=GENESIS_PREV_HASH, timestamp=1,
            transactions=[coinbase(addr("b"))],
        )
        assert blk1.hash != blk2.hash


class TestTxOutAddressMemo:
    def _txout(self):
        return TxOut(value=7, script_pubkey=p2pkh_script_for_address(addr("memo")))

    def test_address_memoized_and_equality_unaffected(self):
        out = self._txout()
        assert out.address == addr("memo")
        assert out.address == addr("memo")  # second read hits the memo
        # The memo slot is excluded from equality: a cold and a warm
        # output with the same script compare equal.
        assert out == self._txout()

    def test_pickle_roundtrip_preserves_cold_and_warm_memo(self):
        import pickle

        cold = self._txout()
        revived = pickle.loads(pickle.dumps(cold))
        # The unresolved sentinel pickles by reference, so the revived
        # output resolves its address instead of leaking the sentinel.
        assert revived.address == addr("memo")
        warm = self._txout()
        assert warm.address == addr("memo")
        assert pickle.loads(pickle.dumps(warm)).address == addr("memo")
