"""blk*.dat writer/reader behaviour."""

import pytest

from repro.chain.blockfile import BlockFileWriter, read_blocks
from repro.chain.errors import SerializationError, TruncatedDataError
from repro.chain.model import Block, GENESIS_PREV_HASH

from tests.helpers import addr, coinbase


def _make_chain(n: int) -> list[Block]:
    blocks = []
    prev = GENESIS_PREV_HASH
    for height in range(n):
        block = Block.assemble(
            height=height,
            prev_hash=prev,
            timestamp=1_300_000_000 + height * 600,
            transactions=[coinbase(addr(f"m{height}"), height=height)],
        )
        blocks.append(block)
        prev = block.hash
    return blocks


class TestRoundtrip:
    def test_write_then_read(self, tmp_path):
        blocks = _make_chain(5)
        BlockFileWriter(tmp_path).write_chain(blocks)
        again = list(read_blocks(tmp_path))
        assert [b.hash for b in again] == [b.hash for b in blocks]
        assert [b.height for b in again] == [0, 1, 2, 3, 4]

    def test_file_rollover(self, tmp_path):
        blocks = _make_chain(6)
        writer = BlockFileWriter(tmp_path, max_file_size=400)
        paths = writer.write_chain(blocks)
        assert len(paths) > 1
        again = list(read_blocks(tmp_path))
        assert len(again) == 6

    def test_single_file_source(self, tmp_path):
        blocks = _make_chain(2)
        path = BlockFileWriter(tmp_path).write_block(blocks[0])
        assert len(list(read_blocks(path))) == 1


class TestRobustness:
    def test_truncated_final_record_tolerated(self, tmp_path):
        blocks = _make_chain(3)
        BlockFileWriter(tmp_path).write_chain(blocks)
        file = next(tmp_path.glob("blk*.dat"))
        data = file.read_bytes()
        file.write_bytes(data[:-10])  # chop the last record
        again = list(read_blocks(tmp_path))
        assert len(again) == 2

    def test_truncation_error_when_strict(self, tmp_path):
        blocks = _make_chain(2)
        BlockFileWriter(tmp_path).write_chain(blocks)
        file = next(tmp_path.glob("blk*.dat"))
        file.write_bytes(file.read_bytes()[:-5])
        with pytest.raises(SerializationError):
            list(read_blocks(tmp_path, tolerate_truncation=False))

    def test_bad_magic_rejected(self, tmp_path):
        blocks = _make_chain(1)
        BlockFileWriter(tmp_path).write_chain(blocks)
        file = next(tmp_path.glob("blk*.dat"))
        data = bytearray(file.read_bytes())
        data[0] ^= 0xFF
        file.write_bytes(bytes(data))
        with pytest.raises(SerializationError):
            list(read_blocks(tmp_path))

    def test_stray_bytes_inside_record_rejected(self, tmp_path):
        """A frame longer than the block it holds: the reader parses
        records in place, so it must notice the block ended early."""
        blocks = _make_chain(2)
        BlockFileWriter(tmp_path).write_chain(blocks)
        file = next(tmp_path.glob("blk*.dat"))
        data = file.read_bytes()
        first = 8 + int.from_bytes(data[4:8], "little")
        padded = (
            data[:4] + (first - 8 + 3).to_bytes(4, "little") + data[8:first]
            + b"\x00\x00\x00" + data[first:]
        )
        file.write_bytes(padded)
        with pytest.raises(SerializationError, match="stray"):
            list(read_blocks(tmp_path))

    def test_block_may_not_read_past_its_frame(self, tmp_path):
        """A frame shorter than its block must not borrow bytes from the
        next record, even though both sit in one buffer."""
        blocks = _make_chain(2)
        BlockFileWriter(tmp_path).write_chain(blocks)
        file = next(tmp_path.glob("blk*.dat"))
        data = file.read_bytes()
        first = 8 + int.from_bytes(data[4:8], "little")
        file.write_bytes(data[:4] + (first - 8 - 2).to_bytes(4, "little") + data[8:])
        with pytest.raises(TruncatedDataError):
            list(read_blocks(tmp_path))

    def test_bad_magic_length(self, tmp_path):
        with pytest.raises(SerializationError):
            BlockFileWriter(tmp_path, magic=b"\x01")
