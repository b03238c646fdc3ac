"""Re-identification attack behaviour on the default world."""

from repro.tagging.tags import SOURCE_OWN


class TestAttack:
    def test_engages_whole_roster(self, default_world):
        attack = default_world.extras["attack"]
        roster = default_world.extras["roster"]
        all_services = {
            actor.name for actors in roster.values() for actor in actors
        }
        engaged = attack.stats.services_engaged
        missing = all_services - engaged
        assert len(missing) <= 2, f"unengaged services: {missing}"

    def test_tags_are_own_source(self, default_world):
        attack = default_world.extras["attack"]
        assert all(t.source == SOURCE_OWN for t in attack.tags.all_tags())

    def test_deposit_and_payout_tagging(self, default_world):
        attack = default_world.extras["attack"]
        assert attack.stats.deposits > 10
        assert attack.stats.payouts_observed > 10
        # Payout observation tags *input* addresses of service payments:
        # so we must have more tagged addresses than deposits alone.
        assert attack.tags.address_count > attack.stats.deposits

    def test_mining_pools_tagged_via_payouts(self, default_world):
        """Pool payout inputs get tagged with the pool's name."""
        attack = default_world.extras["attack"]
        gt = default_world.ground_truth
        pool_tags = [
            t
            for t in attack.tags.all_tags()
            if gt.category_of(t.entity) == "mining"
        ]
        assert pool_tags, "no pool addresses tagged"

    def test_dice_bet_addresses_tagged(self, default_world):
        attack = default_world.extras["attack"]
        entities = attack.tags.entities()
        assert "Satoshi Dice" in entities


def _linear_probe(blocks, outpoint):
    """The prevout lookup the attack's txid map replaced: scan every
    mined block, first occurrence wins."""
    for block in blocks:
        for tx in block.transactions:
            if tx.txid == outpoint.txid:
                if outpoint.vout < len(tx.outputs):
                    return tx.outputs[outpoint.vout]
                return None
    return None


class TestIndexes:
    def test_prevout_map_answers_like_the_linear_probe(self, micro_world):
        from repro.chain.model import OutPoint

        attack = micro_world.extras["attack"]
        blocks = micro_world.blocks
        spent = [
            txin.prevout
            for block in blocks[::7]
            for tx in block.transactions
            if not tx.is_coinbase
            for txin in tx.inputs
        ]
        tx = blocks[-1].transactions[-1]  # mined after the attack's last step
        probes = spent[::5] + [
            tx.outpoint(0),
            OutPoint(tx.txid, len(tx.outputs)),  # vout out of range
            OutPoint(b"\xee" * 32, 0),  # unknown txid
        ]
        answers = [attack._find_output(outpoint) for outpoint in probes]
        assert answers == [_linear_probe(blocks, outpoint) for outpoint in probes]
        assert answers[-2:] == [None, None]
        assert all(out is not None for out in answers[:-2])

    def test_tagging_an_address_twice_adds_nothing(self):
        from repro.simulation import scenarios
        from repro.simulation.wallet import Wallet

        attack = scenarios.micro_economy(seed=11, n_blocks=40).extras["attack"]
        address = Wallet("untagged").fresh_address()
        before = len(attack.tags)
        attack._tag(address, "Mt Gox")
        attack._tag(address, "Mt Gox")
        assert len(attack.tags) == before + 1
        assert attack.stats.addresses_tagged == attack.tags.address_count
        attack._tag(address, "Bitstamp")  # a conflicting service still lands
        assert len(attack.tags) == before + 2
