"""Gambling actors: dice games and account-based casinos.

The dice games reproduce the Satoshi Dice idiom central to §4.2: the
payout for a winning bet is sent *back to the address that placed the
bet*.  When a user bets from a one-time change address, the payout gives
that address a second incoming transaction — which is what made the
naive temporal false-positive estimate balloon to 13% before the paper
added the dice exception.

Casino sites (the five poker sites of §3.1) instead run customer
accounts: deposits to fresh addresses, withdrawals from pooled funds.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..builder import CHANGE_FRESH, build_payment
from ..params import CATEGORY_GAMBLING, GamblingParams
from ..wallet import InsufficientFundsError
from .base import Actor, PayoutQueue


@dataclass(frozen=True, slots=True)
class PendingBet:
    """A bet awaiting resolution."""

    bettor_address: str
    amount: int


class DiceGame(Actor):
    """A Satoshi-Dice-style game with send-back-to-bettor payouts."""

    def __init__(self, name: str, params: GamblingParams | None = None) -> None:
        super().__init__(name, CATEGORY_GAMBLING)
        self.params = params or GamblingParams()
        self._pending: list[PendingBet] = []
        self._bet_address: str | None = None
        self.bets_taken = 0
        self.payouts_made = 0

    def on_attached(self) -> None:
        # Dice games famously reused one well-known address per game.
        self._bet_address = self.wallet.fresh_address()

    def bet_address(self) -> str:
        """The game's well-known (heavily reused) betting address."""
        return self._bet_address

    def payment_address(self) -> str:
        return self.bet_address()

    def place_bet(self, bettor_address: str, amount: int) -> None:
        """Register a bet paid to :meth:`bet_address`.

        ``bettor_address`` is the address the bet was sent *from*; a
        winning payout returns there (the send-back idiom).
        """
        if amount <= 0:
            raise ValueError("bet must be positive")
        self._pending.append(PendingBet(bettor_address, amount))
        self.bets_taken += 1

    def step(self, height: int) -> None:
        fee = self.economy.params.fee
        unresolved: list[PendingBet] = []
        for bet in self._pending:
            if self.rng.random() >= self.params.win_prob:
                continue  # house keeps a losing bet
            payout = int(bet.amount * self.params.payout_multiplier)
            destination = bet.bettor_address
            try:
                # Payout change returns to the famous betting address,
                # exactly as Satoshi Dice operated.
                built = build_payment(
                    self.wallet,
                    [(destination, payout)],
                    fee=fee,
                    change_kind=CHANGE_FRESH,
                    rng=self.rng,
                    change_address=self._bet_address,
                )
            except InsufficientFundsError:
                unresolved.append(bet)
                continue
            self.economy.submit(built, self.wallet)
            self.payouts_made += 1
        self._pending = unresolved


class CasinoSite(Actor):
    """An account-based gambling site (poker rooms, lotteries)."""

    def __init__(self, name: str) -> None:
        super().__init__(name, CATEGORY_GAMBLING)
        self._pending_withdrawals = PayoutQueue()
        self._hot_address: str | None = None

    def deposit_address(self) -> str:
        """Fresh address for a customer deposit."""
        return self.wallet.fresh_address()

    def request_withdrawal(self, destination: str, amount: int) -> None:
        """Queue a cash-out to a customer address."""
        if amount <= 0:
            raise ValueError("withdrawal amount must be positive")
        self._pending_withdrawals.add(destination, amount)

    def step(self, height: int) -> None:
        if self._hot_address is None:
            self._hot_address = self.wallet.fresh_address(kind="hot")
        self._pending_withdrawals.pay(self)
