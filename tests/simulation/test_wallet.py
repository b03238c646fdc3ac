"""Wallet key/coin management."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.chain.model import OutPoint
from repro.simulation.wallet import InsufficientFundsError, Wallet


def _wallet():
    return Wallet("tester", rng=random.Random(1))


def _fake_outpoint(n: int) -> OutPoint:
    return OutPoint(bytes([n]) * 32, 0)


class TestAddresses:
    def test_fresh_addresses_unique(self):
        wallet = _wallet()
        addresses = {wallet.fresh_address() for _ in range(20)}
        assert len(addresses) == 20

    def test_deterministic_given_owner(self):
        a = Wallet("same-owner").fresh_address()
        b = Wallet("same-owner").fresh_address()
        assert a == b

    def test_kind_tracking(self):
        wallet = _wallet()
        receive = wallet.fresh_address()
        change = wallet.fresh_address(kind="change")
        assert change in wallet.change_addresses
        assert receive not in wallet.change_addresses
        assert wallet.last_change_address() == change

    def test_last_change_none_initially(self):
        assert _wallet().last_change_address() is None

    def test_reused_receive_address(self):
        wallet = _wallet()
        first = wallet.fresh_address()
        assert wallet.reused_receive_address() == first

    def test_reused_receive_mints_when_empty(self):
        wallet = _wallet()
        address = wallet.reused_receive_address()
        assert wallet.owns(address)

    def test_on_new_address_callback(self):
        seen = []
        wallet = Wallet("cb-owner")
        wallet._on_new_address = lambda address, owner: seen.append((address, owner))
        address = wallet.fresh_address()
        assert seen == [(address, "cb-owner")]


class TestCoins:
    def test_credit_and_balance(self):
        wallet = _wallet()
        address = wallet.fresh_address()
        wallet.credit(_fake_outpoint(1), 100, address)
        wallet.credit(_fake_outpoint(2), 50, address)
        assert wallet.balance == 150
        assert wallet.coin_count == 2

    def test_credit_foreign_address_rejected(self):
        wallet = _wallet()
        with pytest.raises(KeyError):
            wallet.credit(_fake_outpoint(1), 1, "1NotMyAddress")

    def test_double_credit_rejected(self):
        wallet = _wallet()
        address = wallet.fresh_address()
        wallet.credit(_fake_outpoint(1), 1, address)
        with pytest.raises(ValueError):
            wallet.credit(_fake_outpoint(1), 1, address)

    def test_debit(self):
        wallet = _wallet()
        address = wallet.fresh_address()
        wallet.credit(_fake_outpoint(1), 100, address)
        coin = wallet.debit(_fake_outpoint(1))
        assert coin.value == 100
        assert wallet.balance == 0
        with pytest.raises(KeyError):
            wallet.debit(_fake_outpoint(1))

    def test_coin_at(self):
        wallet = _wallet()
        address = wallet.fresh_address()
        wallet.credit(_fake_outpoint(3), 42, address)
        assert wallet.coin_at(address).value == 42
        assert wallet.coin_at(wallet.fresh_address()) is None


class TestSelection:
    def _funded(self):
        wallet = _wallet()
        address = wallet.fresh_address()
        for i, value in enumerate((10, 30, 20), start=1):
            wallet.credit(_fake_outpoint(i), value, address)
        return wallet

    def test_fifo_selection(self):
        wallet = self._funded()
        coins = wallet.select_coins(35)
        assert [c.value for c in coins] == [10, 30]

    def test_largest_first_selection(self):
        wallet = self._funded()
        coins = wallet.select_coins(35, prefer_largest=True)
        assert [c.value for c in coins] == [30, 20]

    def test_insufficient_funds(self):
        wallet = self._funded()
        with pytest.raises(InsufficientFundsError) as exc_info:
            wallet.select_coins(1000)
        assert exc_info.value.available == 60

    def test_non_positive_amount_rejected(self):
        with pytest.raises(ValueError):
            self._funded().select_coins(0)


class TestRunningTotals:
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(0, 11), st.integers(1, 10**9)),
            max_size=60,
        )
    )
    def test_balance_and_coin_at_match_a_scan(self, steps):
        """After any credit/debit sequence the running balance is the sum
        over the held coins, and ``coin_at`` is the oldest coin held at
        the address."""
        wallet = _wallet()
        addresses = [wallet.fresh_address() for _ in range(3)]
        serial = 0
        for credit, pick, value in steps:
            held = wallet.coins()
            if credit or not held:
                serial += 1
                wallet.credit(
                    OutPoint(serial.to_bytes(32, "big"), 0),
                    value,
                    addresses[pick % len(addresses)],
                )
            else:
                wallet.debit(held[pick % len(held)].outpoint)
            coins = wallet.coins()
            assert wallet.balance == sum(coin.value for coin in coins)
            for address in addresses:
                at = [coin for coin in coins if coin.address == address]
                assert wallet.coin_at(address) == (at[0] if at else None)

    def test_short_wallet_reports_what_it_holds(self):
        wallet = _wallet()
        address = wallet.fresh_address()
        wallet.credit(_fake_outpoint(1), 300, address)
        wallet.credit(_fake_outpoint(2), 200, address)
        with pytest.raises(InsufficientFundsError) as raised:
            wallet.select_coins(501)
        assert (raised.value.wanted, raised.value.available) == (501, 500)
        assert wallet.select_coins(500) == wallet.coins()
