"""Peeling-chain tracking on synthetic chains and the silkroad world."""

from dataclasses import replace

from repro.analysis.peeling import (
    PeelingTracker,
    TERMINATED_MAX_HOPS,
    TERMINATED_UNSPENT,
    summarize_peels_by_entity,
)
from repro.chain.model import COIN
from repro.tagging.naming import ClusterNaming

from tests.helpers import addr, build_chain, coinbase, spend


def _manual_peel_chain(n_hops=5):
    """A clean peeling chain: each hop peels 1 BTC to a fresh recipient
    and sends the remainder to fresh change."""
    cb = coinbase(addr("chain-start"), value=50 * COIN)
    blocks = [[cb]]
    current = cb
    current_vout = 0
    remaining = 50 * COIN
    peel_addresses = []
    for hop in range(n_hops):
        peel_address = addr(f"peel-{hop}")
        change_address = addr(f"link-{hop}")
        peel_addresses.append(peel_address)
        remaining -= COIN
        tx = spend(
            [(current, current_vout)],
            [(peel_address, COIN), (change_address, remaining)],
        )
        # peel first, change second -> change vout is 1
        blocks.append([tx])
        current, current_vout = tx, 1
    return build_chain(blocks), cb, peel_addresses


class TestFollow:
    def test_follows_whole_chain(self):
        index, start, peels = _manual_peel_chain(6)
        tracker = PeelingTracker(index)
        chain = tracker.follow_address(addr("chain-start"))
        assert chain.hop_count == 6
        assert chain.terminated == TERMINATED_UNSPENT
        assert [p.address for p in chain.peels] == peels
        assert chain.total_peeled() == 6 * COIN

    def test_max_hops_respected(self):
        index, _start, _peels = _manual_peel_chain(6)
        chain = PeelingTracker(index).follow_address(
            addr("chain-start"), max_hops=3
        )
        assert chain.hop_count == 3
        assert chain.terminated == TERMINATED_MAX_HOPS

    def test_remaining_value_decreases(self):
        index, _start, _peels = _manual_peel_chain(5)
        chain = PeelingTracker(index).follow_address(addr("chain-start"))
        values = [h.remaining_value for h in chain.hops]
        assert values == sorted(values, reverse=True)

    def test_sweep_followed_through(self):
        """A 1-output sweep moves the whole remainder to the next hop."""
        cb = coinbase(addr("sw-start"))
        sweep = spend([(cb, 0)], [(addr("sw-mid"), 50 * COIN)])
        peel = spend(
            [(sweep, 0)],
            [(addr("sw-peel"), COIN), (addr("sw-change"), 49 * COIN)],
        )
        index = build_chain([[cb], [sweep], [peel]])
        chain = PeelingTracker(index).follow_address(addr("sw-start"))
        assert chain.hops[0].kind == "sweep"
        assert chain.hop_count == 2
        assert chain.peels[0].address == addr("sw-peel")

    def test_stop_at_named_exit(self):
        cb = coinbase(addr("ex-start"))
        sweep = spend([(cb, 0)], [(addr("exchange-deposit"), 50 * COIN)])
        index = build_chain([[cb], [sweep]])
        tracker = PeelingTracker(index)
        record = index.address(addr("ex-start")).receives[0]
        from repro.chain.model import OutPoint

        chain = tracker.follow(
            OutPoint(record.txid, record.vout),
            stop_at=lambda a: a == addr("exchange-deposit"),
        )
        assert chain.hop_count == 1
        assert chain.hops[0].kind == "exit"
        assert chain.peels[0].value == 50 * COIN

    def test_value_fallback_when_both_outputs_fresh(self):
        """Both outputs fresh (ambiguous for H2) but peel-shaped: the
        big output is followed."""
        index, _start, peels = _manual_peel_chain(3)
        strict = PeelingTracker(index, value_peel_threshold=None)
        chain = strict.follow_address(addr("chain-start"))
        # Strict H2 can't label hop 1 (both outputs fresh) -> stops.
        assert chain.terminated == "no-change-identified"
        relaxed = PeelingTracker(index)  # default threshold 0.85
        chain2 = relaxed.follow_address(addr("chain-start"))
        assert chain2.hop_count == 3


class TestSummaries:
    def test_summarize_by_entity(self):
        index, _start, peels = _manual_peel_chain(4)
        chain = PeelingTracker(index).follow_address(addr("chain-start"))
        names = {peels[0]: "Mt Gox", peels[1]: "Mt Gox", peels[2]: "Bitstamp"}
        summary = summarize_peels_by_entity(chain, lambda a: names.get(a))
        assert summary["Mt Gox"].peel_count == 2
        assert summary["Mt Gox"].total_value == 2 * COIN
        assert summary["Bitstamp"].peel_count == 1
        assert len(summary) == 2


class TestOnSilkroadWorld:
    def test_all_three_chains_track_to_depth(self, silkroad_view):
        hoard = silkroad_view.world.extras["hoard"]
        tracker = silkroad_view.peeling_tracker()
        for head in hoard.state.chain_start_addresses:
            chain = tracker.follow_address(head, max_hops=60)
            assert chain.hop_count >= 50

    def test_named_peels_match_ground_truth(self, silkroad_view):
        """Every peel the analyst names must be named correctly."""
        gt = silkroad_view.world.ground_truth
        hoard = silkroad_view.world.extras["hoard"]
        tracker = silkroad_view.peeling_tracker()
        naming = silkroad_view.naming
        wrong = named = 0
        for head in hoard.state.chain_start_addresses:
            chain = tracker.follow_address(head, max_hops=60)
            for peel in chain.peels:
                name = naming.name_of_address(peel.address)
                if name is None:
                    continue
                named += 1
                if gt.owner_of(peel.address) != name:
                    wrong += 1
        assert named > 10
        # The paper tolerated a small residual false-positive rate; a
        # mislabeled peel recipient occurs when a buyer's reused change
        # welds a service sale address into their cluster.
        assert wrong <= named * 0.10

    def test_peel_names_equal_tag_propagation_at_the_spend_height(
        self, silkroad_view
    ):
        """``name_of_peel`` reads roots off the engine's forest instead of
        building a naming per height; its answer must be a full
        :class:`ClusterNaming` over the co-spend partition at the height
        the peel was spent (the tip for unspent ones), with or without
        the peel's interned id."""
        hoard = silkroad_view.world.extras["hoard"]
        tracker = silkroad_view.peeling_tracker()
        peels = [
            peel
            for head in hoard.state.chain_start_addresses
            for peel in tracker.follow_address(head, max_hops=60).peels
        ]
        by_height = {}
        for peel in peels:
            by_height.setdefault(peel.spent_height, []).append(peel)
        heights = sorted(by_height, key=lambda h: (h is None, h or 0))
        named = 0
        for height in heights[:: max(1, len(heights) // 12)]:
            naming = ClusterNaming(
                silkroad_view.incremental.cluster_h1_as_of(height),
                silkroad_view.tags,
            )
            for peel in by_height[height]:
                expected = naming.name_of_address_id(peel.address_id)
                named += expected is not None
                assert silkroad_view.name_of_peel(peel) == expected
                assert (
                    silkroad_view.name_of_peel(replace(peel, address_id=-1))
                    == expected
                )
        assert named > 5
        unseen = replace(peels[0], address="1NeverSeenOnChain", address_id=-1)
        assert silkroad_view.name_of_peel(unseen) is None
