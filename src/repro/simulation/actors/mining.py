"""Mining pool actors.

Pools earn coinbases and periodically run payout rounds: one transaction
with many member outputs, drawn from several coinbase coins at once.
Those multi-input payouts are the Heuristic 1 signal that links pool
addresses, and the many-output shape is exactly the behaviour that broke
the Androulaki et al. "shadow address" assumption (§4.1: "users rarely
issue transactions to two different users ... no longer holds").
"""

from __future__ import annotations

from ..builder import CHANGE_FRESH, build_payment, build_sweep
from ..economy import MiningStats
from ..params import CATEGORY_MINING, PoolParams
from .base import Actor


class MiningPool(Actor):
    """A pool: mines blocks, pays members, occasionally consolidates."""

    def __init__(self, name: str, params: PoolParams | None = None) -> None:
        super().__init__(name, CATEGORY_MINING)
        self.params = params or PoolParams()
        self.stats = MiningStats()
        self.members: list = []
        self._payout_threshold = 0

    def add_member(self, actor) -> None:
        """Enroll another actor as a pool member (paid in payout rounds)."""
        self.members.append(actor)

    def coinbase_address(self) -> str:
        """Where block rewards land.  Pools reuse a small set of reward
        addresses, so coinbases are attributable."""
        oldest = self.wallet.oldest_addresses(4)
        if oldest and self.rng.random() < 0.7:
            return self.rng.choice(oldest)
        return self.wallet.fresh_address(kind="coinbase")

    def step(self, height: int) -> None:
        if height == 0 or height % self.params.payout_interval != 0:
            return
        if not self.members or self.economy is None:
            return
        self._maybe_consolidate()
        self._pay_members()

    def _maybe_consolidate(self) -> None:
        """Sweep several coinbase coins into one pool address first."""
        coins = self.wallet.coins()
        if len(coins) < 4 or self.rng.random() >= self.params.consolidate_prob:
            return
        take = coins[: min(len(coins), 8)]
        destination = self.wallet.fresh_address(kind="hot")
        built = build_sweep(
            self.wallet, destination, coins=take, fee=self.economy.params.fee
        )
        self.economy.submit(built, self.wallet)

    def _pay_members(self) -> None:
        fee = self.economy.params.fee
        balance = self.wallet.balance
        if balance <= fee * 10:
            return
        n = self.rng.randint(
            self.params.min_members_paid,
            min(self.params.max_members_paid, max(self.params.min_members_paid,
                                                  len(self.members))),
        )
        recipients = self.rng.sample(self.members, min(n, len(self.members)))
        # Shares are uneven, like real pool payouts.
        weights = [self.rng.uniform(0.5, 2.0) for _ in recipients]
        budget = int(balance * self.rng.uniform(0.5, 0.9)) - fee
        total_weight = sum(weights)
        payments = []
        for recipient, weight in zip(recipients, weights):
            amount = int(budget * weight / total_weight)
            if amount > 0:
                payments.append((recipient.payment_address(), amount))
        if not payments:
            return
        built = build_payment(
            self.wallet,
            payments,
            fee=fee,
            change_kind=CHANGE_FRESH,
            rng=self.rng,
            prefer_largest=True,
        )
        self.economy.submit(built, self.wallet)
