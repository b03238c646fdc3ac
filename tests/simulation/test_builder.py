"""Transaction builder: change idioms, fees, signing."""

import random

import pytest

from repro.chain.model import COIN, OutPoint
from repro.simulation.builder import (
    CHANGE_FIXED,
    CHANGE_FRESH,
    CHANGE_NONE,
    CHANGE_RECENT,
    CHANGE_REUSE,
    CHANGE_SELF,
    DUST,
    build_payment,
    build_sweep,
    choose_change_kind,
)
from repro.simulation.params import ChangePolicy
from repro.simulation.wallet import Wallet

from tests.helpers import parse_sig_script


# One address book for every wallet here, as an economy shares one.
BOOK: dict[str, bytes] = {}


def _funded_wallet(values=(5 * COIN, 3 * COIN)):
    wallet = Wallet("builder-test", rng=random.Random(7), scripts=BOOK)
    address = wallet.fresh_address()
    for i, value in enumerate(values, start=1):
        wallet.credit(OutPoint(bytes([i]) * 32, 0), value, address)
    return wallet, address


RECIPIENT = Wallet("recipient", scripts=BOOK).fresh_address()


class TestChangeKinds:
    def test_fresh_change(self):
        wallet, _funding = _funded_wallet()
        built = build_payment(
            wallet, [(RECIPIENT, COIN)], fee=1000, change_kind=CHANGE_FRESH
        )
        assert built.change_kind == CHANGE_FRESH
        assert built.change_address in wallet.change_addresses
        assert built.fee == 1000
        assert built.tx.total_output_value == sum(
            c.value for c in built.spent_coins
        ) - 1000

    def test_self_change(self):
        wallet, funding = _funded_wallet()
        built = build_payment(
            wallet, [(RECIPIENT, COIN)], change_kind=CHANGE_SELF
        )
        assert built.change_address == funding

    def test_reuse_change(self):
        wallet, funding = _funded_wallet()
        built = build_payment(
            wallet, [(RECIPIENT, COIN)], change_kind=CHANGE_REUSE
        )
        assert built.change_address == funding  # only receive address

    def test_recent_change_falls_back_to_fresh_first_time(self):
        wallet, _funding = _funded_wallet()
        built = build_payment(
            wallet, [(RECIPIENT, COIN)], change_kind=CHANGE_RECENT
        )
        assert built.change_kind == CHANGE_FRESH
        second = build_payment(
            wallet, [(RECIPIENT, COIN)], change_kind=CHANGE_RECENT
        )
        assert second.change_address == built.change_address

    def test_fixed_change_address(self):
        wallet, _funding = _funded_wallet()
        hot = wallet.fresh_address(kind="hot")
        built = build_payment(
            wallet, [(RECIPIENT, COIN)], change_address=hot
        )
        assert built.change_kind == CHANGE_FIXED
        assert built.change_address == hot

    def test_fixed_change_must_be_owned(self):
        wallet, _funding = _funded_wallet()
        with pytest.raises(ValueError):
            build_payment(wallet, [(RECIPIENT, COIN)], change_address=RECIPIENT)

    def test_exact_spend_no_change(self):
        wallet, _funding = _funded_wallet(values=(COIN,))
        built = build_payment(
            wallet,
            [(RECIPIENT, COIN - 500)],
            fee=500,
            change_kind=CHANGE_NONE,
        )
        assert built.change_address is None
        assert len(built.tx.outputs) == 1

    def test_none_with_change_falls_back_to_fresh(self):
        wallet, _funding = _funded_wallet()
        built = build_payment(
            wallet, [(RECIPIENT, COIN)], change_kind=CHANGE_NONE
        )
        assert built.change_kind == CHANGE_FRESH
        assert built.change_address is not None

    def test_dust_change_folded_into_fee(self):
        wallet, _funding = _funded_wallet(values=(COIN,))
        built = build_payment(
            wallet,
            [(RECIPIENT, COIN - 600 - DUST)],
            fee=600,
            change_kind=CHANGE_FRESH,
        )
        assert built.change_address is None
        assert built.fee == 600 + DUST

    def test_unknown_kind_rejected(self):
        wallet, _funding = _funded_wallet()
        with pytest.raises(ValueError):
            build_payment(wallet, [(RECIPIENT, COIN)], change_kind="bogus")


class TestValidation:
    def test_empty_payments_rejected(self):
        wallet, _funding = _funded_wallet()
        with pytest.raises(ValueError):
            build_payment(wallet, [])

    def test_non_positive_payment_rejected(self):
        wallet, _funding = _funded_wallet()
        with pytest.raises(ValueError):
            build_payment(wallet, [(RECIPIENT, 0)])

    def test_negative_fee_rejected(self):
        wallet, _funding = _funded_wallet()
        with pytest.raises(ValueError):
            build_payment(wallet, [(RECIPIENT, COIN)], fee=-1)

    def test_pinned_coins_must_cover(self):
        wallet, _funding = _funded_wallet(values=(COIN,))
        coins = wallet.coins()
        with pytest.raises(ValueError):
            build_payment(wallet, [(RECIPIENT, 2 * COIN)], coins=coins)


class TestSigning:
    def test_inputs_carry_verifiable_signatures(self):
        wallet, funding = _funded_wallet()
        built = build_payment(wallet, [(RECIPIENT, COIN)])
        for txin, coin in zip(built.tx.inputs, built.spent_coins):
            signature, pubkey = parse_sig_script(txin.script_sig)
            keypair = wallet.key_for(coin.address)
            assert pubkey == keypair.pubkey


class TestSweep:
    def test_sweep_all_coins(self):
        wallet, _funding = _funded_wallet()
        destination = wallet.fresh_address(kind="hot")
        built = build_sweep(wallet, destination, fee=1000)
        assert len(built.tx.outputs) == 1
        assert built.tx.outputs[0].value == 8 * COIN - 1000
        assert built.change_address is None

    def test_sweep_requires_coins(self):
        wallet = Wallet("empty")
        with pytest.raises(ValueError):
            build_sweep(wallet, wallet.fresh_address())

    def test_sweep_fee_must_be_covered(self):
        wallet, _funding = _funded_wallet(values=(100,))
        with pytest.raises(ValueError):
            build_sweep(wallet, wallet.fresh_address(), fee=200)


class TestChoosePolicy:
    def test_distribution_roughly_matches_policy(self):
        policy = ChangePolicy(fresh=0.5, self_change=0.3, reuse=0.1, recent=0.1)
        rng = random.Random(42)
        counts = {}
        for _ in range(4000):
            kind = choose_change_kind(policy, rng)
            counts[kind] = counts.get(kind, 0) + 1
        assert abs(counts[CHANGE_FRESH] / 4000 - 0.5) < 0.05
        assert abs(counts[CHANGE_SELF] / 4000 - 0.3) < 0.05

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError):
            ChangePolicy(fresh=0.9, self_change=0.3, reuse=0.1, recent=0.0)
        with pytest.raises(ValueError):
            ChangePolicy(fresh=-0.1, self_change=0.0, reuse=0.0, recent=0.0)
