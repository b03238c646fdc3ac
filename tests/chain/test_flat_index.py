"""The flat chain index: wire-backed blocks, columnar histories, no
long-lived object per transaction or address.

* **Tracked-object budget** — ingesting the ``bulk-ingest`` chain from
  block files with the full service fan-out must not grow the number of
  objects the cyclic collector tracks with the chain (the collector's
  cost is that count; it was ≈124,000 after 500 blocks when the index
  kept one object per transaction, input, output and address).
  Structural, no clock.
* **Histories** — every :class:`AddressRecord` read equals rows rebuilt
  by an independent walk (``tests.helpers.HistoryTwin``), for every
  address at every height of random simulated chains.
* **Blocks** — a wire-held block reads back equal to the decoded block,
  a wire-less one still ingests and exports its serialization, reads
  past the memo size return equal blocks.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blockfile import BlockFileReader, BlockFileWriter
from repro.chain.index import ChainIndex
from repro.chain.serialize import block_from_bytes, serialize_block
from repro.obs import MetricsRegistry
from repro.service import ForensicsService, Query
from repro.simulation import large_scale_blocks, scenarios

from tests.helpers import HistoryTwin


def _tracked() -> int:
    gc.collect()
    return len(gc.get_objects())


class TestTrackedObjectBudget:
    def test_ingest_does_not_grow_the_collectors_heap(self, tmp_path):
        # the bulk-ingest workload's chain (benchmarks/e2e/workloads.py)
        BlockFileWriter(tmp_path).write_chain(large_scale_blocks(500, seed=0))
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        counts = {0: _tracked()}
        for block in BlockFileReader(tmp_path).iter_blocks():
            index.add_block(block)
            if block.height + 1 in (250, 500):
                counts[block.height + 1] = _tracked()
        assert index.height == 499 and index.address_count > 20_000
        assert index.blocks_resident == 0
        grown = counts[500] - counts[0]
        assert grown < 5_000, counts
        # O(1) per block: nothing per transaction, output or address
        assert counts[500] - counts[250] <= 2 * 250, counts
        # the first read folds the queued blocks: one delta-log record
        # per height, still nothing per address
        service.answer(Query("top_clusters", (10, "size")))
        assert _tracked() - counts[0] < 5_000


class TestHistoriesEqualAnIndependentWalk:
    @settings(deadline=None, max_examples=20)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=4, max_value=20),
        n_users=st.integers(min_value=3, max_value=8),
    )
    def test_every_address_at_every_height(self, seed, n_blocks, n_users):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        index, twin = ChainIndex(), HistoryTwin()
        for block in world.blocks:
            index.add_block(block)
            twin.apply(block)
            twin.assert_matches(index)

    def test_wire_held_chain(self, tmp_path):
        blocks = list(large_scale_blocks(40, seed=5, reuse_probability=0.5))
        BlockFileWriter(tmp_path).write_chain(blocks)
        index, twin = ChainIndex(), HistoryTwin()
        for block in BlockFileReader(tmp_path).iter_blocks():
            index.add_block(block)
            twin.apply(block)
        twin.assert_matches(index)


class TestWireBackedBlocks:
    @pytest.fixture()
    def chain(self, tmp_path):
        blocks = list(large_scale_blocks(ChainIndex._MEMO_BLOCKS + 8, seed=3))
        BlockFileWriter(tmp_path).write_chain(blocks)
        return blocks, list(BlockFileReader(tmp_path).iter_blocks())

    def test_decoder_seats_the_wire_bytes(self, chain):
        blocks, decoded = chain
        for block, twin in zip(blocks, decoded):
            assert block.wire is None
            assert twin.wire == serialize_block(block)
            assert twin == block  # the bytes are not part of its identity

    def test_wire_held_block_reads_back_equal(self, chain):
        blocks, decoded = chain
        index = ChainIndex()
        index.add_chain(decoded)
        assert index.blocks_resident == 0
        for block in blocks:
            read = index.block_at(block.height)
            assert read == block
            assert [tx.txid for tx in read.transactions] == [
                tx.txid for tx in block.transactions
            ]
            for position, tx in enumerate(block.transactions):
                assert index.tx(tx.txid) == tx
                assert index.location(tx.txid).index_in_block == position
        assert index.block_at(-1) == blocks[-1]
        assert index.block_at(-1).height == blocks[-1].height

    def test_reads_past_the_memo_size(self, chain):
        blocks, decoded = chain
        index = ChainIndex()
        index.add_chain(decoded)
        for _sweep in range(2):
            for block in blocks:
                assert index.block_at(block.height) == block
                assert index.blocks_resident <= ChainIndex._MEMO_BLOCKS
        # the memo serves repeats from memory, most recently used last
        again = index.block_at(blocks[-1].height)
        assert index.block_at(blocks[-1].height) is again
        assert [tx for tx, _location in index.iter_transactions()] == [
            tx for block in blocks for tx in block.transactions
        ]
        # .blocks decodes afresh and retains nothing
        resident = index.blocks_resident
        listed = index.blocks
        assert listed == blocks and listed is not index.blocks
        assert index.blocks_resident == resident

    def test_wire_less_block_is_kept_and_serialized_at_export(self, chain):
        blocks, decoded = chain
        index = ChainIndex()
        index.add_chain(decoded[:4])
        index.add_chain(blocks[4:])  # straight from the simulator
        assert index.blocks_resident == len(blocks) - 4
        assert index.block_at(5) is blocks[5]
        state = index.export_state()
        assert state["blocks"] == [serialize_block(block) for block in blocks]
        wire_only = ChainIndex()
        wire_only.add_chain(decoded)
        assert wire_only.export_state() == state
        for height, raw in enumerate(state["blocks"]):
            assert block_from_bytes(raw, height=height) == blocks[height]

    def test_size_gauges(self, chain):
        _blocks, decoded = chain
        index = ChainIndex()
        index.metrics = registry = MetricsRegistry()
        index.add_chain(decoded)
        index.block_at(0)
        gauges = registry.snapshot()["gauges"]
        assert gauges["chain.blocks_resident"] == 1
        assert gauges["chain.wire_bytes"] == sum(len(b.wire) for b in decoded)
        outputs = sum(len(tx.outputs) for b in decoded for tx in b.transactions)
        inputs = sum(
            1
            for b in decoded
            for tx in b.transactions
            for txin in tx.inputs
            if not txin.is_coinbase
        )
        assert gauges["chain.history_rows"] == outputs + inputs
