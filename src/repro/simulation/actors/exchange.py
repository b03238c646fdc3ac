"""Exchange and bank actors.

Exchanges are the chokepoints of the paper's §5 argument.  Their on-chain
behaviour, reproduced here:

* **per-customer deposit addresses** — every deposit gets a fresh
  address, which the re-identification attack observes and tags;
* **periodic consolidation** — deposit addresses are swept into a hot
  wallet with multi-input transactions (strong Heuristic 1 linkage);
* **segmented hot wallets** — big services "spread their funds across a
  number of distinct addresses" (§4.1), and segments that never co-spend
  stay as *separate clusters*, reproducing the paper's observation of 20
  distinct Mt. Gox clusters;
* **withdrawal peeling** — withdrawals spend a large hot coin, paying
  the customer and sending the remainder to a fresh change address; a
  run of withdrawals therefore forms a peeling chain (§5).
"""

from __future__ import annotations

from ..builder import CHANGE_FRESH, CHANGE_SELF, build_payment, build_sweep
from ..params import CATEGORY_EXCHANGES, CATEGORY_FIXED, ExchangeParams
from ..wallet import Wallet
from .base import Actor, PayoutQueue


class Exchange(Actor):
    """A real-time trading exchange that also functions as a bank."""

    def __init__(
        self,
        name: str,
        params: ExchangeParams | None = None,
        *,
        n_segments: int = 3,
        category: str = CATEGORY_EXCHANGES,
    ) -> None:
        super().__init__(name, category)
        self.params = params or ExchangeParams()
        self.n_segments = max(1, n_segments)
        self._segments: list[Wallet] = []
        self._deposit_wallet: Wallet | None = None
        self._pending_withdrawals: list[tuple[str, int]] = []
        self._hot_address: str | None = None

    def on_attached(self) -> None:
        # Primary wallet doubles as segment 0; extra segments are
        # independent wallets that never co-spend with each other.
        self._segments = [self.wallet]
        for _ in range(self.n_segments - 1):
            self._segments.append(self.economy.create_wallet(self.name, rng=self.rng))
        self._deposit_wallet = self.economy.create_wallet(self.name, rng=self.rng)
        for segment in self._segments:
            for _ in range(self.params.hot_wallet_addresses):
                segment.fresh_address(kind="hot")

    # ------------------------------------------------------------------
    # customer operations
    # ------------------------------------------------------------------

    def deposit_address(self) -> str:
        """A fresh per-deposit address (what the attack tags)."""
        return self._deposit_wallet.fresh_address()

    def payment_address(self) -> str:
        return self.deposit_address()

    def request_withdrawal(self, destination: str, amount: int) -> None:
        """Queue a customer withdrawal; processed on the next step."""
        if amount <= 0:
            raise ValueError("withdrawal amount must be positive")
        self._pending_withdrawals.append((destination, amount))

    def sell_coins(self, destination: str, amount: int) -> None:
        """A customer buys coins for fiat; on-chain it is a withdrawal."""
        self.request_withdrawal(destination, amount)

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------

    def step(self, height: int) -> None:
        self._process_withdrawals()
        if height and height % self.params.consolidation_interval == 0:
            self._consolidate_deposits()

    def _segment_for_withdrawal(self) -> Wallet:
        return max(self._segments, key=lambda w: w.balance)

    def _process_withdrawals(self) -> None:
        fee = self.economy.params.fee
        batch_size = self.rng.randint(
            self.params.withdrawal_peel_min, self.params.withdrawal_peel_max
        )
        batch, self._pending_withdrawals = (
            self._pending_withdrawals[:batch_size],
            self._pending_withdrawals[batch_size:],
        )
        for destination, amount in batch:
            # Most withdrawals are paid straight out of the co-mingled
            # deposit pool, multi-input oldest-first — the behaviour that
            # welds an exchange's deposit addresses into one giant
            # cluster (what made Mt. Gox nameable at scale in §4.2).
            # The rest draw on a hot segment, peeling off a large coin.
            use_deposits = (
                self.rng.random() < 0.6
                and self._deposit_wallet.balance >= amount + fee
            )
            wallet = self._deposit_wallet if use_deposits else None
            if wallet is None:
                segment = self._segment_for_withdrawal()
                if segment.balance < amount + fee:
                    # Refuse quietly; the customer will retry or give up.
                    continue
                wallet = segment
            # Withdrawals use fresh one-time change (§5: exchange
            # withdrawals are peeling chains); the change coin stays in
            # the pool and is later co-spent, so the cluster still welds.
            built = build_payment(
                wallet,
                [(destination, amount)],
                fee=fee,
                change_kind=CHANGE_FRESH,
                rng=self.rng,
                prefer_largest=not use_deposits,
            )
            self.economy.submit(built, wallet)

    def _consolidate_deposits(self) -> None:
        """Sweep pending deposits into the pool's *persistent* hot
        address.

        Every sweep co-spends the pending deposit coins together with the
        coins already sitting at the hot address, so successive sweeps
        chain into one huge co-spend cluster — the behaviour that welded
        real exchanges' deposit addresses together and made one tag name
        hundreds of thousands of addresses (§4.2).
        """
        fee = self.economy.params.fee
        if self._hot_address is None:
            self._hot_address = self._deposit_wallet.fresh_address(kind="hot")
        coins = self._deposit_wallet.coins()
        hot_coins = [c for c in coins if c.address == self._hot_address]
        pending = [c for c in coins if c.address != self._hot_address]
        take = pending[: self.params.consolidation_batch] + hot_coins
        if len(take) < 3 or sum(c.value for c in take) <= fee:
            return
        built = build_sweep(
            self._deposit_wallet, self._hot_address, coins=take, fee=fee
        )
        self.economy.submit(built, self._deposit_wallet)
        self._fund_segment()

    def _fund_segment(self) -> None:
        """Move part of the pool into a hot segment for withdrawal float.

        The change goes back to the hot address (self-change), keeping
        the pool connected while the segment's holdings stay a *separate*
        cluster — reproducing the paper's observation of multiple
        distinct clusters per exchange (20 for Mt. Gox).
        """
        fee = self.economy.params.fee
        hot_coin = self._deposit_wallet.coin_at(self._hot_address)
        if hot_coin is None:
            return
        amount = hot_coin.value // 3
        if amount <= fee * 4:
            return
        segment = self.rng.choice(self._segments)
        built = build_payment(
            self._deposit_wallet,
            [(segment.fresh_address(kind="hot"), amount)],
            fee=fee,
            change_kind=CHANGE_SELF,
            rng=self.rng,
            coins=[hot_coin],
        )
        self.economy.submit(built, self._deposit_wallet)


class FixedRateExchange(Actor):
    """A non-bank, fixed-rate exchange for one-time conversions (§3.1).

    No customer accounts: it receives a payment and sends converted value
    onward (or, for coin purchases, just pays out once).
    """

    def __init__(self, name: str) -> None:
        super().__init__(name, CATEGORY_FIXED)
        self._pending_payouts = PayoutQueue()

    def convert(self, destination: str, amount: int) -> None:
        """Queue a one-time conversion payout."""
        self._pending_payouts.add(destination, amount)

    def step(self, height: int) -> None:
        self._pending_payouts.pay(self)
