"""Miscellaneous services and investment schemes.

Covers the rest of the Table 1 roster:

* :class:`MiscService` — Bit Visitor (pays users to visit sites), CoinAd
  (gives out free bitcoins), Coinapult, Bitcoin Advertisers;
* :class:`DonationService` — Wikileaks: a public, self-advertised
  donation address (a prime source of §3.2-style public tags) plus
  one-time addresses generated on request;
* :class:`InvestmentScheme` — Bitcoinica and Bitcoin Savings & Trust:
  deposits pool into the scheme, periodic "returns" are paid from the
  pot (BS&T being a Ponzi, the returns are just other investors' money).
"""

from __future__ import annotations

from ..builder import CHANGE_FRESH, build_payment
from ..params import CATEGORY_INVESTMENT, CATEGORY_MISC
from ..wallet import InsufficientFundsError
from .base import Actor, PayoutQueue


class MiscService(Actor):
    """A small service that occasionally pays users tiny amounts."""

    def __init__(
        self, name: str, *, payout_interval: int = 30, payout_value: int = 2_000_000
    ) -> None:
        super().__init__(name, CATEGORY_MISC)
        self.payout_interval = payout_interval
        self.payout_value = payout_value

    def step(self, height: int) -> None:
        if height == 0 or height % self.payout_interval != 0:
            return
        users = self.economy.actors_in_category("users")
        if not users:
            return
        fee = self.economy.params.fee
        recipient = self.rng.choice(users)
        try:
            built = build_payment(
                self.wallet,
                [(recipient.payment_address(), self.payout_value)],
                fee=fee,
                change_kind=CHANGE_FRESH,
                rng=self.rng,
            )
        except InsufficientFundsError:
            return
        self.economy.submit(built, self.wallet)


class DonationService(Actor):
    """Wikileaks-style charity with one well-known donation address."""

    def __init__(self, name: str) -> None:
        super().__init__(name, CATEGORY_MISC)
        self._public_address: str | None = None

    def on_attached(self) -> None:
        self._public_address = self.wallet.fresh_address()

    def payment_address(self) -> str:
        # Donors usually use the public address; one-time addresses are
        # generated on request (the paper got two via IRC).
        if self.rng.random() < 0.7:
            return self._public_address
        return self.wallet.fresh_address()


class InvestmentScheme(Actor):
    """An 'investment firm' paying returns out of the deposit pot."""

    def __init__(
        self, name: str, *, return_rate: float = 0.07, payout_interval: int = 25
    ) -> None:
        super().__init__(name, CATEGORY_INVESTMENT)
        self.return_rate = return_rate
        self.payout_interval = payout_interval
        self._investors: dict[str, int] = {}
        self._pending_withdrawals = PayoutQueue()

    def deposit_address(self) -> str:
        """Fresh address for an incoming investment."""
        return self.wallet.fresh_address()

    def record_investment(self, investor_name: str, amount: int) -> None:
        """Track an investor's stake (off-chain ledger)."""
        self._investors[investor_name] = self._investors.get(investor_name, 0) + amount

    def request_withdrawal(self, destination: str, amount: int) -> None:
        """Queue an investor cash-out."""
        if amount <= 0:
            raise ValueError("withdrawal amount must be positive")
        self._pending_withdrawals.add(destination, amount)

    def step(self, height: int) -> None:
        fee = self.economy.params.fee
        self._pending_withdrawals.pay(self)
        if height and height % self.payout_interval == 0 and self._investors:
            # Pay "returns" to a random investor from the pot.
            users = self.economy.actors_in_category("users")
            name = self.rng.choice(sorted(self._investors))
            stake = self._investors[name]
            returns = int(stake * self.return_rate)
            recipient = next((u for u in users if u.name == name), None)
            if recipient is None or returns <= fee:
                return
            try:
                built = build_payment(
                    self.wallet,
                    [(recipient.payment_address(), returns)],
                    fee=fee,
                    change_kind=CHANGE_FRESH,
                    rng=self.rng,
                )
            except InsufficientFundsError:
                return
            self.economy.submit(built, self.wallet)
