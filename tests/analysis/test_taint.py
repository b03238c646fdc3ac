"""Haircut taint propagation."""

import pytest

from repro.analysis.taint import TaintTracker
from repro.chain.model import COIN, OutPoint

from tests.helpers import addr, build_chain, coinbase, spend


class TestPropagation:
    def test_taint_follows_simple_path(self):
        cb = coinbase(addr("t-src"))
        hop = spend([(cb, 0)], [(addr("t-mid"), 50 * COIN)])
        end = spend([(hop, 0)], [(addr("t-end"), 50 * COIN)])
        index = build_chain([[cb], [hop], [end]])
        tracker = TaintTracker(index)
        result = tracker.propagate([OutPoint(cb.txid, 0)])
        assert result.initial_taint == 50 * COIN
        assert result.unspent_taint == pytest.approx(50 * COIN)

    def test_haircut_dilution(self):
        """Tainted 50 + clean 50 co-spent -> each output 50% tainted."""
        dirty = coinbase(addr("dirty"))
        clean = coinbase(addr("clean"))
        mix = spend(
            [(dirty, 0), (clean, 0)],
            [(addr("out1"), 60 * COIN), (addr("out2"), 40 * COIN)],
        )
        index = build_chain([[dirty, clean], [mix]])
        result = TaintTracker(index).propagate([OutPoint(dirty.txid, 0)])
        taint1 = result.taint_by_outpoint[OutPoint(mix.txid, 0)]
        taint2 = result.taint_by_outpoint[OutPoint(mix.txid, 1)]
        assert taint1 == pytest.approx(30 * COIN)
        assert taint2 == pytest.approx(20 * COIN)

    def test_taint_stops_at_named_entities(self):
        cb = coinbase(addr("n-src"))
        deposit = spend([(cb, 0)], [(addr("n-gox"), 50 * COIN)])
        onward = spend([(deposit, 0)], [(addr("n-beyond"), 50 * COIN)])
        index = build_chain([[cb], [deposit], [onward]])
        names = {addr("n-gox"): "Mt Gox"}
        result = TaintTracker(index, name_of_address=names.get).propagate(
            [OutPoint(cb.txid, 0)]
        )
        assert result.taint_at_entities["Mt Gox"] == pytest.approx(50 * COIN)
        # Nothing propagated past the exchange.
        assert result.unspent_taint == 0

    def test_taint_conserved_within_fees(self):
        """Total taint (at entities + unspent) never exceeds initial."""
        cb = coinbase(addr("c-src"))
        s = spend(
            [(cb, 0)],
            [(addr("c-a"), 25 * COIN), (addr("c-b"), 25 * COIN)],
        )
        index = build_chain([[cb], [s]])
        result = TaintTracker(index).propagate([OutPoint(cb.txid, 0)])
        total = result.unspent_taint + sum(result.taint_at_entities.values())
        assert total <= result.initial_taint + 1e-6

    def test_min_taint_cutoff(self):
        cb = coinbase(addr("m-src"))
        s = spend(
            [(cb, 0)],
            [(addr("m-tiny"), 100), (addr("m-big"), 50 * COIN - 100)],
        )
        index = build_chain([[cb], [s]])
        result = TaintTracker(index, min_taint=1000).propagate(
            [OutPoint(cb.txid, 0)]
        )
        assert OutPoint(s.txid, 0) not in result.taint_by_outpoint
        assert OutPoint(s.txid, 1) in result.taint_by_outpoint


class TestOnTheftLikeFlow:
    def test_taint_reaches_exchange_through_fold(self, silkroad_view):
        """Taint from the hoard's final address reaches named services."""
        hoard = silkroad_view.world.extras["hoard"]
        index = silkroad_view.world.index
        record = index.address(hoard.state.final_address)
        sources = [
            OutPoint(r.txid, r.vout) for r in record.receives
        ]
        tracker = TaintTracker(
            index, name_of_address=silkroad_view.naming.name_of_address
        )
        result = tracker.propagate(sources)
        assert result.taint_at_entities  # someone known got tainted coins
