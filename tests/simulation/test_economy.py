"""Economy coordinator: mining, submission, determinism, ground truth."""

import pytest

from repro.chain.model import COIN, block_subsidy
from repro.chain.validation import validate_chain
from repro.simulation.actors import MiningPool, UserActor
from repro.simulation.builder import build_payment
from repro.simulation.economy import Economy
from repro.simulation.params import EconomyParams
from repro.simulation import scenarios


def _tiny_economy(seed=0):
    economy = Economy(EconomyParams(seed=seed, n_blocks=30, n_users=0))
    pool = MiningPool("TestPool")
    economy.register(pool, hashrate=1.0)
    user = UserActor("tester")
    economy.register(user)
    pool.add_member(user)
    return economy, pool, user


class TestRegistration:
    def test_duplicate_actor_rejected(self):
        economy, _pool, _user = _tiny_economy()
        with pytest.raises(ValueError):
            economy.register(UserActor("tester"))

    def test_wallet_requires_registered_entity(self):
        economy, _pool, _user = _tiny_economy()
        with pytest.raises(KeyError):
            economy.create_wallet("stranger")

    def test_actor_lookup(self):
        economy, pool, user = _tiny_economy()
        assert economy.actor("TestPool") is pool
        assert economy.actors_in_category("users") == [user]


class TestMiningAndFlow:
    def test_coinbase_pays_pool(self):
        economy, pool, _user = _tiny_economy()
        block = economy.mine_block()
        assert block.coinbase.outputs[0].value == block_subsidy(0)
        assert pool.wallet.balance == block_subsidy(0)

    def test_no_miner_raises(self):
        economy = Economy(EconomyParams(n_blocks=5))
        with pytest.raises(RuntimeError):
            economy.mine_block()

    def test_submit_moves_coins_between_wallets(self):
        economy, pool, user = _tiny_economy()
        economy.mine_block()
        destination = user.wallet.fresh_address()
        built = build_payment(
            pool.wallet, [(destination, 10 * COIN)], fee=1000, rng=pool.rng
        )
        tx = economy.submit(built, pool.wallet)
        assert user.wallet.balance == 10 * COIN
        assert tx in economy.mempool
        record = economy.change_truth[tx.txid]
        assert record.change_address == built.change_address
        block = economy.mine_block()
        # fee flows into the block reward
        assert block.coinbase.outputs[0].value == block_subsidy(1) + 1000

    def test_ground_truth_tracks_ownership(self):
        economy, pool, user = _tiny_economy()
        address = user.wallet.fresh_address()
        assert economy.ground_truth.owner_of(address) == "tester"
        assert economy.wallet_of_address(address) is user.wallet

    def test_run_produces_valid_chain(self):
        economy, _pool, _user = _tiny_economy()
        economy.run()
        assert len(economy.blocks) == 30
        report = validate_chain(
            economy.blocks, halving_interval=economy.params.halving_interval
        )
        assert report.ok, report.problems[:3]


class TestDeterminism:
    def test_same_seed_same_chain(self):
        world_a = scenarios.micro_economy(seed=99, n_blocks=60)
        world_b = scenarios.micro_economy(seed=99, n_blocks=60)
        hashes_a = [b.hash for b in world_a.blocks]
        hashes_b = [b.hash for b in world_b.blocks]
        assert hashes_a == hashes_b

    def test_different_seed_different_chain(self):
        world_a = scenarios.micro_economy(seed=1, n_blocks=60)
        world_b = scenarios.micro_economy(seed=2, n_blocks=60)
        assert [b.hash for b in world_a.blocks] != [b.hash for b in world_b.blocks]


class TestNoAddressRoundTrip:
    def test_generating_a_world_decodes_no_address(self, monkeypatch):
        """Every output pays an address some wallet minted, so its
        script comes from the address book: nothing is base-58 decoded,
        and every output's address memo is seated as it is built."""
        from repro.chain import crypto
        from repro.chain.model import _ADDRESS_UNRESOLVED

        def refuse(text):
            raise AssertionError(f"decoded {text!r}")

        monkeypatch.setattr(crypto, "base58_decode", refuse)
        world = scenarios.micro_economy(seed=2, n_blocks=60, run=False)
        world.economy.run()
        outputs = [
            out
            for block in world.blocks
            for tx in block.transactions
            for out in tx.outputs
        ]
        assert outputs
        assert all(out._address is not _ADDRESS_UNRESOLVED for out in outputs)


class TestStepHooks:
    def test_hooks_run_each_block(self):
        economy, _pool, _user = _tiny_economy()
        heights = []
        economy.add_step_hook(lambda eco, height: heights.append(height))
        economy.run(5)
        assert heights == [0, 1, 2, 3, 4]
