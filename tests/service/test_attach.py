"""Attaching to an index that already holds blocks: one catch-up pass.

A service stood up on a filled index rebuilds each held block's delta
once, for every component that needs it (the engine, then the aggregate
view); balances and activity build from the index's rows and a new taint
view has no case to catch up.  An attach that fails mid-replay leaves
the index's fan-out as it found it.
"""

import pytest

from repro.chain.errors import NonMonotonicTimestampError
from repro.chain.index import ChainIndex
from repro.chain.model import GENESIS_PREV_HASH, Block
from repro.service import ForensicsService
from repro.service.views import TaintView
from repro.simulation import scenarios

from tests.helpers import GENESIS_TIME, addr, coinbase


@pytest.fixture(scope="module")
def filled_index():
    return scenarios.micro_economy(seed=3, n_blocks=24).index


@pytest.fixture
def delta_builds(monkeypatch):
    """Heights passed to ``ChainIndex.block_delta``, in call order."""
    heights = []
    build = ChainIndex.block_delta

    def counted(index, height):
        heights.append(height)
        return build(index, height)

    monkeypatch.setattr(ChainIndex, "block_delta", counted)
    return heights


class TestCatchUpCount:
    def test_service_attach_builds_each_height_once(
        self, filled_index, delta_builds
    ):
        service = ForensicsService(filled_index)
        service.detach()
        assert len(delta_builds) == filled_index.height + 1
        assert delta_builds == list(range(filled_index.height + 1))
        assert service.engine.height == service.aggregates.height
        assert service.aggregates.height == filled_index.height

    def test_new_taint_view_builds_none(self, filled_index, delta_builds):
        view = TaintView(filled_index)
        view.detach()
        assert delta_builds == []
        assert view.height == filled_index.height

    def test_service_on_an_empty_index_builds_none(self, delta_builds):
        ForensicsService(ChainIndex())
        assert delta_builds == []


class TestFailedAttach:
    def test_backwards_timestamp_leaves_no_subscriber(self):
        block0 = Block.assemble(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=GENESIS_TIME,
            transactions=[coinbase(addr("attach/m0"), height=0)],
        )
        block1 = Block.assemble(
            height=1,
            prev_hash=block0.hash,
            timestamp=GENESIS_TIME - 600,  # runs backwards
            transactions=[coinbase(addr("attach/m1"), height=1)],
        )
        index = ChainIndex()
        index.add_block(block0)
        index.add_block(block1)
        with pytest.raises(NonMonotonicTimestampError):
            ForensicsService(index)
        assert index._observers == []
        index.add_block(
            Block.assemble(
                height=2,
                prev_hash=block1.hash,
                timestamp=GENESIS_TIME + 600,
                transactions=[coinbase(addr("attach/m2"), height=2)],
            )
        )
        assert index.height == 2
