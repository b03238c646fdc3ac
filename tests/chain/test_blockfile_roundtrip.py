"""Property tests: random blocks survive serialize/write/read untouched.

The satellite contract behind the durable state store: the ``blk*.dat``
substrate is the ground truth a snapshot's tail replay re-ingests, so
``serialize_block``/``block_from_bytes`` and
``BlockFileWriter``/``BlockFileReader`` must round-trip *arbitrary*
blocks bit-for-bit — including the two real-world wrinkles recovery
hits: a truncated final record (unclean shutdown) and a mid-file resume
(the reader frame-skips to the snapshot height before parsing).
"""

import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blockfile import BlockFileReader, BlockFileWriter, read_blocks
from repro.chain.model import Block, BlockHeader, OutPoint, Transaction, TxIn, TxOut
from repro.chain.serialize import (
    block_from_bytes,
    serialize_block,
    serialize_tx,
    tx_from_bytes,
)

_U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
_SCRIPTS = st.binary(min_size=0, max_size=64)

_TXINS = st.builds(
    TxIn,
    prevout=st.builds(
        OutPoint,
        txid=st.binary(min_size=32, max_size=32),
        vout=_U32,
    ),
    script_sig=_SCRIPTS,
    sequence=_U32,
)

_TXOUTS = st.builds(
    TxOut,
    value=st.integers(min_value=0, max_value=21_000_000 * 100_000_000),
    script_pubkey=_SCRIPTS,
)

_TXS = st.builds(
    Transaction,
    inputs=st.lists(_TXINS, min_size=1, max_size=3).map(tuple),
    outputs=st.lists(_TXOUTS, min_size=1, max_size=3).map(tuple),
    version=st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
    lock_time=_U32,
)

_HEADERS = st.builds(
    BlockHeader,
    version=st.integers(min_value=-(2 ** 31), max_value=2 ** 31 - 1),
    prev_hash=st.binary(min_size=32, max_size=32),
    merkle_root=st.binary(min_size=32, max_size=32),
    timestamp=_U32,
    bits=_U32,
    nonce=_U32,
)


def _simple_chain(n: int) -> list[Block]:
    """A deterministic hand-built chain for the non-property cases."""
    from tests.helpers import addr, coinbase

    from repro.chain.model import GENESIS_PREV_HASH

    blocks = []
    prev = GENESIS_PREV_HASH
    for height in range(n):
        block = Block.assemble(
            height=height,
            prev_hash=prev,
            timestamp=1_300_000_000 + height * 600,
            transactions=[coinbase(addr(f"rt{height}"), height=height)],
        )
        blocks.append(block)
        prev = block.hash
    return blocks


def _blocks_strategy(min_blocks: int = 1, max_blocks: int = 6):
    """Chains of structurally arbitrary blocks, heights assigned 0.."""
    return st.lists(
        st.tuples(_HEADERS, st.lists(_TXS, min_size=1, max_size=3)),
        min_size=min_blocks,
        max_size=max_blocks,
    ).map(
        lambda raw: [
            Block(header=header, transactions=tuple(txs), height=height)
            for height, (header, txs) in enumerate(raw)
        ]
    )


class TestSerializationRoundtrip:
    @given(tx=_TXS)
    @settings(max_examples=60, deadline=None)
    def test_tx_roundtrip(self, tx):
        again = tx_from_bytes(serialize_tx(tx))
        assert again == tx
        assert again.txid == tx.txid

    @given(blocks=_blocks_strategy(min_blocks=1, max_blocks=3))
    @settings(max_examples=40, deadline=None)
    def test_block_roundtrip(self, blocks):
        for block in blocks:
            raw = serialize_block(block)
            again = block_from_bytes(raw, height=block.height)
            assert again.header == block.header
            assert again.transactions == block.transactions
            assert serialize_block(again) == raw


class TestBlockFileRoundtrip:
    @given(blocks=_blocks_strategy(max_blocks=6), max_file_size=st.sampled_from((256, 1024, 1 << 20)))
    @settings(max_examples=25, deadline=None)
    def test_write_read_across_rollover(self, tmp_path_factory, blocks, max_file_size):
        directory = tmp_path_factory.mktemp("blk")
        BlockFileWriter(directory, max_file_size=max_file_size).write_chain(blocks)
        again = list(read_blocks(directory))
        assert [b.hash for b in again] == [b.hash for b in blocks]
        assert [serialize_block(b) for b in again] == [
            serialize_block(b) for b in blocks
        ]

    @given(
        blocks=_blocks_strategy(min_blocks=2, max_blocks=6),
        max_file_size=st.sampled_from((256, 1 << 20)),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_mid_file_resume_matches_suffix(
        self, tmp_path_factory, blocks, max_file_size, data
    ):
        """Frame-skipping to any start height yields exactly the suffix."""
        directory = tmp_path_factory.mktemp("blk")
        BlockFileWriter(directory, max_file_size=max_file_size).write_chain(blocks)
        reader = BlockFileReader(directory)
        assert reader.count_blocks() == len(blocks)
        start = data.draw(
            st.integers(min_value=0, max_value=len(blocks)), label="start"
        )
        tail = list(reader.iter_blocks(start_height=start))
        assert [b.height for b in tail] == list(range(start, len(blocks)))
        assert [b.hash for b in tail] == [b.hash for b in blocks[start:]]

    @given(
        blocks=_blocks_strategy(min_blocks=2, max_blocks=5),
        data=st.data(),
    )
    @settings(max_examples=25, deadline=None)
    def test_truncated_final_record_with_resume(
        self, tmp_path_factory, blocks, data
    ):
        """Chopping mid-way through the last record drops exactly it —
        for full reads and for resumed reads alike."""
        directory = tmp_path_factory.mktemp("blk")
        BlockFileWriter(directory).write_chain(blocks)
        path = max(directory.glob("blk*.dat"))
        raw = path.read_bytes()
        last_record_bytes = 8 + len(serialize_block(blocks[-1]))
        chop = data.draw(
            st.integers(min_value=1, max_value=last_record_bytes - 1),
            label="chop",
        )
        path.write_bytes(raw[: len(raw) - chop])
        reader = BlockFileReader(directory)
        assert reader.count_blocks() == len(blocks) - 1
        assert [b.hash for b in reader.iter_blocks()] == [
            b.hash for b in blocks[:-1]
        ]
        start = data.draw(
            st.integers(min_value=0, max_value=len(blocks) - 1), label="start"
        )
        resumed = list(reader.iter_blocks(start_height=start))
        assert [b.hash for b in resumed] == [b.hash for b in blocks[start:-1]]

    def test_resume_writer_appends_in_place(self, tmp_path):
        blocks = _simple_chain(6)
        BlockFileWriter(tmp_path, max_file_size=512).write_chain(blocks[:3])
        BlockFileWriter(tmp_path, max_file_size=512, resume=True).write_chain(
            blocks[3:]
        )
        again = list(read_blocks(tmp_path))
        assert [b.hash for b in again] == [b.hash for b in blocks]

    def test_resume_writer_truncates_partial_final_record(self, tmp_path):
        """Appending after an unclean shutdown must first drop the
        partial record, or the garbage gets buried mid-stream and every
        later read breaks."""
        blocks = _simple_chain(5)
        BlockFileWriter(tmp_path).write_chain(blocks[:4])
        path = next(tmp_path.glob("blk*.dat"))
        path.write_bytes(path.read_bytes()[:-10])  # partial record: block 3
        BlockFileWriter(tmp_path, resume=True).write_chain(blocks[3:])
        again = list(read_blocks(tmp_path))
        assert [b.hash for b in again] == [b.hash for b in blocks]
        assert BlockFileReader(tmp_path).count_blocks() == len(blocks)

    def test_start_height_before_first_record_rejected(self, tmp_path):
        import pytest

        BlockFileWriter(tmp_path).write_chain(_simple_chain(1))
        reader = BlockFileReader(tmp_path, first_height=5)
        with pytest.raises(ValueError):
            list(reader.iter_blocks(start_height=2))

    def test_record_framing_is_magic_length_payload(self, tmp_path):
        """Pin the on-disk framing the resume arithmetic depends on."""
        blocks = _simple_chain(1)
        BlockFileWriter(tmp_path).write_chain(blocks)
        raw = next(tmp_path.glob("blk*.dat")).read_bytes()
        payload = serialize_block(blocks[0])
        assert raw[:4] == b"\xf9\xbe\xb4\xd9"
        assert struct.unpack("<I", raw[4:8])[0] == len(payload)
        assert raw[8:] == payload
