"""Actor framework for the synthetic economy.

An :class:`Actor` is one economic entity — a service, a user, a thief.
Actors own one or more :class:`~repro.simulation.wallet.Wallet` objects
(created through the economy so ownership registration is automatic) and
get a :meth:`step` callback once per block to act.
"""

from __future__ import annotations

import math
import random
from typing import TYPE_CHECKING

from ..builder import CHANGE_FRESH, build_payment
from ..wallet import InsufficientFundsError, Wallet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..economy import Economy


class Actor:
    """Base class for all economic entities."""

    def __init__(self, name: str, category: str) -> None:
        self.name = name
        self.category = category
        self.economy: "Economy | None" = None
        self._wallet: Wallet | None = None
        self.rng: random.Random = random.Random(0)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def attach(self, economy: "Economy") -> None:
        """Called by :meth:`Economy.register`; wires wallet and RNG."""
        self.economy = economy
        self.rng = economy.child_rng(self.name)
        self._wallet = economy.create_wallet(self.name, rng=self.rng)
        self.on_attached()

    def on_attached(self) -> None:
        """Hook for subclasses needing extra wallets or setup."""

    @property
    def wallet(self) -> Wallet:
        """The actor's primary wallet."""
        if self._wallet is None:
            raise RuntimeError(f"actor {self.name!r} is not attached to an economy")
        return self._wallet

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------

    def step(self, height: int) -> None:
        """Per-block behaviour; default is to do nothing."""

    def payment_address(self) -> str:
        """An address a counterparty should pay.  Fresh by default, as
        services of the era issued per-transaction deposit addresses."""
        return self.wallet.fresh_address()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, {self.category!r})"


class PayoutQueue:
    """Payouts an actor owes, paid oldest-first as funds allow.

    Each payout is its own payment with fresh change.  One the wallet
    cannot cover stays queued; building it fails before it touches the
    wallet or the RNG, so while the balance is short of the smallest
    queued payout the queue is not walked at all.
    """

    def __init__(self) -> None:
        self._items: list[tuple[str, int]] = []
        self._smallest = math.inf

    def add(self, destination: str, amount: int) -> None:
        self._items.append((destination, amount))
        self._smallest = min(self._smallest, amount)

    def pay(self, actor: Actor) -> None:
        """Pay every queued payout ``actor``'s wallet can cover now."""
        fee = actor.economy.params.fee
        if actor.wallet.balance < self._smallest + fee:
            return
        remaining: list[tuple[str, int]] = []
        for destination, amount in self._items:
            try:
                built = build_payment(
                    actor.wallet,
                    [(destination, amount)],
                    fee=fee,
                    change_kind=CHANGE_FRESH,
                    rng=actor.rng,
                )
            except InsufficientFundsError:
                remaining.append((destination, amount))
                continue
            actor.economy.submit(built, actor.wallet)
        self._items = remaining
        self._smallest = min((amount for _, amount in remaining), default=math.inf)
