"""Hosted wallet services (Instawallet, My Wallet, Coinbase, ...).

On-chain they look like small banks: fresh per-deposit addresses,
pooled storage, withdrawals paid out of the pool with fresh change.
The paper tagged them by depositing and withdrawing (§3.1).
"""

from __future__ import annotations

from ..builder import build_sweep
from ..params import CATEGORY_WALLETS
from .base import Actor, PayoutQueue


class WalletService(Actor):
    """A hosted wallet: deposits pool together, withdrawals peel out."""

    def __init__(self, name: str, *, consolidation_interval: int = 30) -> None:
        super().__init__(name, CATEGORY_WALLETS)
        self.consolidation_interval = consolidation_interval
        self._pending_withdrawals = PayoutQueue()
        self._hot_address: str | None = None

    def deposit_address(self) -> str:
        """Fresh address for a customer deposit."""
        return self.wallet.fresh_address()

    def request_withdrawal(self, destination: str, amount: int) -> None:
        """Queue a customer withdrawal."""
        if amount <= 0:
            raise ValueError("withdrawal amount must be positive")
        self._pending_withdrawals.add(destination, amount)

    def step(self, height: int) -> None:
        fee = self.economy.params.fee
        if self._hot_address is None:
            self._hot_address = self.wallet.fresh_address(kind="hot")
        # Oldest-first selection co-mingles customer deposits, which
        # links the service's addresses; change is a fresh one-time
        # address (withdrawals look like peel hops).
        self._pending_withdrawals.pay(self)
        if (
            height
            and height % self.consolidation_interval == 0
            and self.wallet.coin_count >= 6
        ):
            # Sweep into one persistent hot address, co-spending the hot
            # coins already there: successive sweeps chain into a single
            # co-spend cluster, as real hosted wallets' did.
            if self._hot_address is None:
                self._hot_address = self.wallet.fresh_address(kind="hot")
            all_coins = self.wallet.coins()
            hot_coins = [c for c in all_coins if c.address == self._hot_address]
            pending = [c for c in all_coins if c.address != self._hot_address]
            coins = pending[:96] + hot_coins
            if len(coins) >= 3 and sum(c.value for c in coins) > fee:
                built = build_sweep(
                    self.wallet, self._hot_address, coins=coins, fee=fee
                )
                self.economy.submit(built, self.wallet)
