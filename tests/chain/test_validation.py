"""Consensus-shaped validation checks."""

import pytest

from repro.chain.errors import (
    BlockStructureError,
    ConservationError,
    MissingInputError,
)
from repro.chain.model import (
    Block,
    COIN,
    GENESIS_PREV_HASH,
    Transaction,
    TxIn,
    TxOut,
)
from repro.chain.validation import (
    ChainValidator,
    check_block_structure,
    check_transaction_structure,
    validate_chain,
)

from tests.helpers import addr, coinbase, p2pkh_script_for_address, spend


def _block(height, prev, txs, timestamp=None):
    return Block.assemble(
        height=height,
        prev_hash=prev,
        timestamp=timestamp or (1_300_000_000 + height * 600),
        transactions=txs,
    )


class TestTransactionStructure:
    def test_valid_passes(self):
        check_transaction_structure(coinbase(addr("m")))

    def test_no_outputs_rejected(self):
        tx = Transaction(
            inputs=coinbase(addr("m")).inputs,
            outputs=(),
        )
        with pytest.raises(BlockStructureError):
            check_transaction_structure(tx)

    def test_internal_double_spend_rejected(self):
        cb = coinbase(addr("m"))
        tx = Transaction(
            inputs=(
                TxIn(prevout=cb.outpoint(0)),
                TxIn(prevout=cb.outpoint(0)),
            ),
            outputs=(
                TxOut(
                    value=1,
                    script_pubkey=p2pkh_script_for_address(addr("x")),
                ),
            ),
        )
        with pytest.raises(Exception):
            check_transaction_structure(tx)


class TestBlockStructure:
    def test_coinbase_must_be_first(self):
        cb = coinbase(addr("m"))
        pay = spend([(cb, 0)], [(addr("a"), COIN)])
        block = _block(0, GENESIS_PREV_HASH, [cb, pay])
        check_block_structure(block)  # fine
        bad = Block(
            header=block.header,
            transactions=(pay, cb),
            height=0,
        )
        with pytest.raises(BlockStructureError):
            check_block_structure(bad)

    def test_merkle_mismatch_detected(self):
        cb = coinbase(addr("m"))
        other = coinbase(addr("other"))
        good = _block(0, GENESIS_PREV_HASH, [cb])
        tampered = Block(
            header=good.header, transactions=(other,), height=0
        )
        with pytest.raises(BlockStructureError):
            check_block_structure(tampered)

    def test_linkage_check(self):
        block = _block(0, GENESIS_PREV_HASH, [coinbase(addr("m"))])
        with pytest.raises(BlockStructureError):
            check_block_structure(block, prev_hash=b"\x99" * 32)


class TestChainValidator:
    def test_valid_two_block_chain(self):
        cb0 = coinbase(addr("m0"), height=0)
        block0 = _block(0, GENESIS_PREV_HASH, [cb0])
        pay = spend([(cb0, 0)], [(addr("a"), 50 * COIN)])
        cb1 = coinbase(addr("m1"), height=1)
        block1 = _block(1, block0.hash, [cb1, pay])
        report = validate_chain([block0, block1])
        assert report.ok
        assert report.blocks_checked == 2
        assert report.txs_checked == 3

    def test_fees_flow_to_coinbase(self):
        cb0 = coinbase(addr("m0"), height=0)
        block0 = _block(0, GENESIS_PREV_HASH, [cb0])
        pay = spend([(cb0, 0)], [(addr("a"), 49 * COIN)])  # 1 BTC fee
        cb1 = coinbase(addr("m1"), value=51 * COIN, height=1)
        block1 = _block(1, block0.hash, [cb1, pay])
        report = validate_chain([block0, block1])
        assert report.ok
        assert report.total_fees == COIN

    def test_coinbase_overclaim_rejected(self):
        cb0 = coinbase(addr("m0"), value=51 * COIN, height=0)
        block0 = _block(0, GENESIS_PREV_HASH, [cb0])
        report = validate_chain([block0])
        assert not report.ok
        assert "coinbase claims" in report.problems[0]

    def test_output_exceeding_input_rejected(self):
        cb0 = coinbase(addr("m0"), height=0)
        block0 = _block(0, GENESIS_PREV_HASH, [cb0])
        pay = spend([(cb0, 0)], [(addr("a"), 60 * COIN)])
        cb1 = coinbase(addr("m1"), height=1)
        block1 = _block(1, block0.hash, [cb1, pay])
        validator = ChainValidator()
        validator.add_block(block0)
        with pytest.raises(ConservationError):
            validator.add_block(block1)

    def test_spend_of_unknown_output_rejected(self):
        cb0 = coinbase(addr("m0"), height=0)
        block0 = _block(0, GENESIS_PREV_HASH, [cb0])
        ghost = coinbase(addr("ghost"))
        pay = spend([(ghost, 0)], [(addr("a"), COIN)])
        cb1 = coinbase(addr("m1"), height=1)
        block1 = _block(1, block0.hash, [cb1, pay])
        validator = ChainValidator()
        validator.add_block(block0)
        with pytest.raises(MissingInputError):
            validator.add_block(block1)

    def test_cross_block_double_spend_rejected(self):
        cb0 = coinbase(addr("m0"), height=0)
        block0 = _block(0, GENESIS_PREV_HASH, [cb0])
        pay1 = spend([(cb0, 0)], [(addr("a"), 50 * COIN)])
        cb1 = coinbase(addr("m1"), height=1)
        block1 = _block(1, block0.hash, [cb1, pay1])
        pay2 = spend([(cb0, 0)], [(addr("b"), 50 * COIN)])
        cb2 = coinbase(addr("m2"), height=2)
        block2 = _block(2, block1.hash, [cb2, pay2])
        report = validate_chain([block0, block1, block2])
        assert not report.ok
        assert report.blocks_checked == 2


class TestSimulatedWorlds:
    def test_micro_world_chain_is_valid(self, micro_world):
        report = validate_chain(micro_world.blocks)
        assert report.ok, report.problems[:3]
        assert report.txs_checked == micro_world.index.tx_count
