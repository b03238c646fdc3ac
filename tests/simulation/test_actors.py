"""Actor behaviours: pools, exchanges, gambling, mixers, gateways."""

import pytest

from repro.chain.model import COIN
from repro.simulation.actors import (
    BEHAVIOUR_RETURN_SAME,
    BEHAVIOUR_STEAL,
    CasinoSite,
    DiceGame,
    Exchange,
    MiningPool,
    Mixer,
    PaymentGateway,
    UserActor,
    Vendor,
    WalletService,
)
from repro.simulation.builder import build_payment
from repro.simulation.economy import Economy
from repro.simulation.params import EconomyParams, GamblingParams


def _economy(n_blocks=200):
    economy = Economy(EconomyParams(seed=3, n_blocks=n_blocks, n_users=0))
    pool = MiningPool("Pool")
    economy.register(pool, hashrate=1.0)
    return economy, pool


def _fund(economy, pool, actor, amount):
    """Mine and transfer ``amount`` to an actor."""
    while pool.wallet.balance < amount + 10_000:
        economy.mine_block()
    built = build_payment(
        pool.wallet, [(actor.payment_address(), amount)], fee=1000, rng=pool.rng
    )
    economy.submit(built, pool.wallet)
    economy.mine_block()


class TestMiningPool:
    def test_payout_round_pays_members(self):
        economy, pool = _economy()
        user = UserActor("member")
        economy.register(user)
        pool.add_member(user)
        for _ in range(30):
            economy.mine_block()
        pool.step(pool.params.payout_interval)  # force a payout round
        economy.mine_block()
        assert user.wallet.balance > 0


    def test_coinbase_reuse_stays_among_the_oldest_four(self):
        _economy_, pool = _economy()
        drawn = [pool.coinbase_address() for _ in range(200)]
        reused = {a for a in drawn if drawn.count(a) > 1}
        assert reused
        assert reused <= set(pool.wallet.oldest_addresses(4))
        assert all(pool.wallet.owns(a) for a in drawn)


class TestExchange:
    def test_deposit_withdraw_cycle(self):
        economy, pool = _economy()
        exchange = Exchange("Ex", n_segments=2)
        economy.register(exchange)
        _fund(economy, pool, exchange, 40 * COIN)
        destination_wallet = economy.create_wallet("Ex")  # throwaway holder
        destination = destination_wallet.fresh_address()
        exchange.request_withdrawal(destination, 5 * COIN)
        exchange.step(1)
        economy.mine_block()
        assert destination_wallet.balance == 5 * COIN

    def test_consolidation_chains_deposits(self):
        economy, pool = _economy()
        exchange = Exchange("Ex2", n_segments=1)
        economy.register(exchange)
        for _ in range(3):
            _fund(economy, pool, exchange, 10 * COIN)
        before = exchange._deposit_wallet.coin_count
        exchange._consolidate_deposits()
        economy.mine_block()
        # deposits merged into the persistent hot address
        assert exchange._hot_address is not None
        hot_coin = exchange._deposit_wallet.coin_at(exchange._hot_address)
        assert hot_coin is not None

    def test_invalid_withdrawal_amount(self):
        economy, _pool = _economy()
        exchange = Exchange("Ex3")
        economy.register(exchange)
        with pytest.raises(ValueError):
            exchange.request_withdrawal("1x", 0)


class TestDiceGame:
    def test_winning_payout_returns_to_bettor_address(self):
        economy, pool = _economy()
        dice = DiceGame("Dice", GamblingParams(win_prob=1.0))
        economy.register(dice)
        user = UserActor("gambler")
        economy.register(user)
        _fund(economy, pool, user, 10 * COIN)
        coin = user.wallet.coins()[0]
        built = build_payment(
            user.wallet,
            [(dice.bet_address(), COIN)],
            fee=1000,
            rng=user.rng,
            coins=[coin],
        )
        economy.submit(built, user.wallet)
        dice.place_bet(coin.address, COIN)
        # Fund the house so it can pay 2x.
        _fund(economy, pool, dice, 10 * COIN)
        dice.step(5)
        economy.mine_block()
        record = economy.build_index().address(coin.address)
        assert record.total_received > 10 * COIN  # original + payout

    def test_bet_address_is_stable(self):
        economy, _pool = _economy()
        dice = DiceGame("Dice2")
        economy.register(dice)
        assert dice.bet_address() == dice.bet_address()

    def test_payment_address_is_the_bet_address(self):
        economy, _pool = _economy()
        dice = DiceGame("Dice4")
        economy.register(dice)
        assert dice.payment_address() == dice.bet_address()

    def test_invalid_bet_rejected(self):
        economy, _pool = _economy()
        dice = DiceGame("Dice3")
        economy.register(dice)
        with pytest.raises(ValueError):
            dice.place_bet("1x", 0)


class TestMixer:
    def _mix_setup(self, behaviour):
        economy, pool = _economy()
        mixer = Mixer("Mix", behaviour=behaviour, delay_blocks=1)
        economy.register(mixer)
        user = UserActor("mix-user")
        economy.register(user)
        _fund(economy, pool, user, 10 * COIN)
        intake = mixer.intake_address()
        built = build_payment(
            user.wallet, [(intake, 2 * COIN)], fee=1000, rng=user.rng
        )
        tx = economy.submit(built, user.wallet)
        vout = next(
            i for i, out in enumerate(tx.outputs) if out.address == intake
        )
        return_address = user.wallet.fresh_address()
        mixer.request_mix(tx.outpoint(vout), 2 * COIN, return_address)
        economy.mine_block()
        return economy, mixer, user, return_address, tx.outpoint(vout)

    def test_steal_never_pays(self):
        economy, mixer, user, _return_address, _paid = self._mix_setup(
            BEHAVIOUR_STEAL
        )
        balance_before = user.wallet.balance
        for height in range(5):
            mixer.step(economy.height)
            economy.mine_block()
        assert user.wallet.balance == balance_before

    def test_return_same_sends_same_coin_back(self):
        economy, mixer, user, _return_address, paid = self._mix_setup(
            BEHAVIOUR_RETURN_SAME
        )
        for _ in range(4):
            mixer.step(economy.height)
            economy.mine_block()
        index = economy.build_index()
        spender = index.spender_of(paid)
        assert spender is not None  # the very coin we paid in moved back

    def test_bad_behaviour_rejected(self):
        with pytest.raises(ValueError):
            Mixer("Bad", behaviour="creative")


class TestGatewayVendors:
    def test_gateway_owns_sale_addresses(self):
        economy, _pool = _economy()
        gateway = PaymentGateway("Gateway")
        economy.register(gateway)
        vendor = Vendor("Shop", gateway=gateway)
        economy.register(vendor)
        sale_address = vendor.sale_address(COIN)
        assert economy.ground_truth.owner_of(sale_address) == "Gateway"

    def test_direct_vendor_owns_sale_addresses(self):
        economy, _pool = _economy()
        vendor = Vendor("DirectShop")
        economy.register(vendor)
        assert (
            economy.ground_truth.owner_of(vendor.sale_address(COIN))
            == "DirectShop"
        )

    def test_gateway_settles_to_merchant(self):
        economy, pool = _economy()
        gateway = PaymentGateway("Gw2", settle_interval=1)
        economy.register(gateway)
        vendor = Vendor("Shop2", gateway=gateway)
        economy.register(vendor)
        sale_address = vendor.sale_address(5 * COIN)
        # fund a buyer and purchase
        buyer = UserActor("buyer")
        economy.register(buyer)
        _fund(economy, pool, buyer, 20 * COIN)
        built = build_payment(
            buyer.wallet, [(sale_address, 5 * COIN)], fee=1000, rng=buyer.rng
        )
        economy.submit(built, buyer.wallet)
        economy.mine_block()
        gateway.step(1)
        economy.mine_block()
        assert vendor.wallet.balance > 0


class TestWalletServiceAndCasino:
    def test_wallet_service_withdrawal(self):
        economy, pool = _economy()
        service = WalletService("Hosted")
        economy.register(service)
        _fund(economy, pool, service, 30 * COIN)
        holder = economy.create_wallet("Hosted")
        destination = holder.fresh_address()
        service.request_withdrawal(destination, 3 * COIN)
        service.step(1)
        economy.mine_block()
        assert holder.balance == 3 * COIN

    def test_casino_withdrawal(self):
        economy, pool = _economy()
        casino = CasinoSite("Casino")
        economy.register(casino)
        _fund(economy, pool, casino, 30 * COIN)
        holder = economy.create_wallet("Casino")
        destination = holder.fresh_address()
        casino.request_withdrawal(destination, 2 * COIN)
        casino.step(1)
        economy.mine_block()
        assert holder.balance == 2 * COIN
