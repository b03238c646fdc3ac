"""Address interning and the index's id-carrying / observer surfaces."""

import pytest

from repro.chain.intern import AddressInterner
from repro.chain.model import COIN

from tests.helpers import addr, build_chain, coinbase, spend


class TestAddressInterner:
    def test_dense_first_sight_ids(self):
        interner = AddressInterner()
        assert interner.intern("1a") == 0
        assert interner.intern("1b") == 1
        assert interner.intern("1a") == 0  # idempotent
        assert len(interner) == 2
        assert list(interner) == ["1a", "1b"]

    def test_id_of_never_allocates(self):
        interner = AddressInterner()
        assert interner.id_of("ghost") is None
        assert len(interner) == 0
        interner.intern("1x")
        assert interner.id_of("1x") == 0

    def test_roundtrip_and_bulk_lookup(self):
        interner = AddressInterner()
        ids = [interner.intern(a) for a in ("1p", "1q", "1r")]
        assert [interner.address_of(i) for i in ids] == ["1p", "1q", "1r"]
        assert interner.addresses_of(reversed(ids)) == ["1r", "1q", "1p"]
        assert "1p" in interner and "1z" not in interner

    def test_invalid_ids_raise(self):
        interner = AddressInterner()
        interner.intern("1only")
        with pytest.raises(IndexError):
            interner.address_of(1)
        with pytest.raises(IndexError):
            interner.address_of(-1)


class TestIndexInterning:
    def _index(self):
        cb1 = coinbase(addr("ia"))
        cb2 = coinbase(addr("ib"))
        joint = spend(
            [(cb1, 0), (cb2, 0)],
            [(addr("dst"), 70 * COIN), (addr("chg"), 29 * COIN)],
        )
        return build_chain([[cb1], [cb2], [joint]]), joint

    def test_records_carry_dense_ids(self):
        index, _joint = self._index()
        seen = set()
        for record in index.iter_addresses():
            assert record.address_id == index.interner.id_of(record.address)
            # A record is a value built on read: equal, not identical.
            assert index.address_by_id(record.address_id) == record
            seen.add(record.address_id)
        assert seen == set(range(index.address_count))

    def test_input_ids_match_string_edge(self):
        index, joint = self._index()
        ids = index.input_address_ids(joint)
        assert index.interner.addresses_of(ids) == index.input_addresses(joint)
        assert index.input_addresses(joint) == [addr("ia"), addr("ib")]
        # Read from the transaction's spend rows: the same every time.
        assert index.input_address_ids(joint) == ids

    def test_ids_are_first_sight_ordered(self):
        index, _joint = self._index()
        first_seen = [
            (index.first_seen(a), index.interner.id_of(a))
            for a in index.interner
        ]
        heights = [h for h, _ in first_seen]
        assert heights == sorted(heights)


class TestObserverHook:
    def test_observer_sees_each_block_once_in_order(self):
        from repro.chain.index import ChainIndex

        source = build_chain([[], [], []])
        target = ChainIndex()
        heights: list[int] = []
        unsubscribe = target.subscribe_deltas(
            lambda delta: heights.append(delta.block.height)
        )
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        assert heights == [0, 1]
        unsubscribe()
        target.add_block(source.block_at(2))
        assert heights == [0, 1]

    def test_observer_runs_after_ingestion(self):
        from repro.chain.index import ChainIndex

        source = build_chain([[]])
        target = ChainIndex()
        counts: list[int] = []
        target.subscribe_deltas(lambda delta: counts.append(target.tx_count))
        target.add_block(source.block_at(0))
        assert counts == [1]  # the block's coinbase is already queryable
