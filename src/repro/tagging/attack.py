"""The re-identification attack (§3.1): transact with every service.

The paper's predominant tagging method was "simply transacting" with
services — 344 transactions against ~70 services — and observing the
addresses on the other side:

* when a service hands us a **deposit address**, we tag it immediately;
* when a service **pays us** (withdrawal, payout, conversion, mix
  return), we watch the chain for the payment and tag the *input
  addresses* of the paying transaction.

:class:`ReidentificationAttack` replays this against the simulated
economy.  It is an actor (it needs a wallet, funded the way the paper
funded itself: by mining with pools), plus a per-block chain-scanning
hook that resolves pending expectations into tags.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..chain.model import Transaction
from ..simulation.actors import (
    Actor,
    CasinoSite,
    DiceGame,
    DonationService,
    Exchange,
    FixedRateExchange,
    InvestmentScheme,
    MiningPool,
    MiscService,
    Mixer,
    PaymentGateway,
    Vendor,
    WalletService,
)
from ..simulation.builder import CHANGE_FRESH, build_payment
from ..simulation.economy import Economy
from ..simulation.params import CATEGORY_USERS
from ..simulation.wallet import InsufficientFundsError
from .tags import SOURCE_OWN, Tag, TagStore, make_tag


@dataclass
class AttackStats:
    """Bookkeeping matching the numbers §3.1/§4.2 report."""

    transactions_made: int = 0
    services_engaged: set[str] = field(default_factory=set)
    deposits: int = 0
    withdrawals_requested: int = 0
    payouts_observed: int = 0
    addresses_tagged: int = 0


@dataclass(frozen=True, slots=True)
class _Expectation:
    """We expect ``service`` to pay ``my_address``; tag the payer."""

    my_address: str
    service: str


class _PoolMembership:
    """The attack's face toward one mining pool.

    Pools ask members for a payment address at payout time; routing the
    request through this proxy lets the attack know *which pool* is
    about to pay, so the payout's input addresses can be tagged (§3.1:
    "For each payout transaction, we then labeled the input addresses
    as belonging to the pool").
    """

    def __init__(self, attack: "ReidentificationAttack", pool_name: str) -> None:
        self._attack = attack
        self._pool_name = pool_name
        self.name = f"{attack.name}@{pool_name}"

    def payment_address(self) -> str:
        address = self._attack.wallet.fresh_address()
        self._attack._expect_payment(address, self._pool_name)
        return address


class ReidentificationAttack(Actor):
    """An analyst actor that engages every service and collects tags."""

    def __init__(
        self,
        *,
        name: str = "analyst",
        start_height: int = 30,
        interval: int = 2,
        rounds: int = 3,
        bet_value: int = 20_000_000,
        payment_value: int = 60_000_000,
    ) -> None:
        super().__init__(name, CATEGORY_USERS)
        self.start_height = start_height
        self.interval = interval
        self.rounds = rounds
        self.bet_value = bet_value
        self.payment_value = payment_value
        self.tags = TagStore()
        self.stats = AttackStats()
        self._expectations: list[_Expectation] = []
        self._plan: list = []
        self._plan_pos = 0
        self._scanned_height = -1
        self._mined_txs: dict[bytes, Transaction] = {}
        self._indexed_height = -1

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    @classmethod
    def install(cls, economy: Economy, **kwargs) -> "ReidentificationAttack":
        """Register the attack on an economy (before ``economy.run()``).

        Joins every mining pool (our mining rig earned payouts from 11
        pools in the paper) and schedules interactions with every other
        service, ``rounds`` times over.
        """
        attack = cls(**kwargs)
        economy.register(attack)
        for pool in economy.actors_in_category("mining"):
            pool.add_member(_PoolMembership(attack, pool.name))
            attack.stats.services_engaged.add(pool.name)
        attack._build_plan(economy)
        return attack

    def _build_plan(self, economy: Economy) -> None:
        services = [
            actor
            for actor in economy.actors()
            if actor.category
            not in (CATEGORY_USERS, "crime")
            and not isinstance(actor, MiningPool)
            and actor is not self
        ]
        self._plan = services * self.rounds

    # ------------------------------------------------------------------
    # tagging primitives
    # ------------------------------------------------------------------

    def _tag(self, address: str, service: str) -> None:
        if self.tags.entity_of(address) == service:
            return
        self.tags.add(
            make_tag(
                address,
                service,
                SOURCE_OWN,
                observed_height=self.economy.height,
            )
        )
        self.stats.addresses_tagged = self.tags.address_count

    def _expect_payment(self, my_address: str, service: str) -> None:
        self._expectations.append(_Expectation(my_address, service))

    def _pay(self, address: str, value: int) -> Transaction | None:
        fee = self.economy.params.fee
        try:
            built = build_payment(
                self.wallet,
                [(address, value)],
                fee=fee,
                change_kind=CHANGE_FRESH,
                rng=self.rng,
            )
        except InsufficientFundsError:
            return None
        tx = self.economy.submit(built, self.wallet)
        self.stats.transactions_made += 1
        return tx

    # ------------------------------------------------------------------
    # chain scanning: resolve expectations into tags
    # ------------------------------------------------------------------

    def _scan_new_blocks(self) -> None:
        if not self._expectations:
            self._scanned_height = len(self.economy.blocks) - 1
            return
        watched = {e.my_address: e for e in self._expectations}
        resolved: set[str] = set()
        for height in range(self._scanned_height + 1, len(self.economy.blocks)):
            block = self.economy.blocks[height]
            for tx in block.transactions:
                if tx.is_coinbase:
                    continue
                hits = [
                    out.address
                    for out in tx.outputs
                    if out.address in watched and out.address not in resolved
                ]
                if not hits:
                    continue
                # Tag every input address as belonging to the payer.
                senders = self._input_addresses(tx)
                for my_address in hits:
                    expectation = watched[my_address]
                    for sender in senders:
                        self._tag(sender, expectation.service)
                    resolved.add(my_address)
                    self.stats.payouts_observed += 1
        self._scanned_height = len(self.economy.blocks) - 1
        if resolved:
            self._expectations = [
                e for e in self._expectations if e.my_address not in resolved
            ]

    def _index_mined_blocks(self) -> None:
        """Extend the txid → transaction map over blocks mined since the
        last call (a repeated txid keeps its first occurrence)."""
        blocks = self.economy.blocks
        for height in range(self._indexed_height + 1, len(blocks)):
            for tx in blocks[height].transactions:
                self._mined_txs.setdefault(tx.txid, tx)
        self._indexed_height = len(blocks) - 1

    def _input_addresses(self, tx: Transaction) -> list[str]:
        """Resolve input addresses by looking up prevouts in the mined
        blocks the attack can see (the mempool is not searched)."""
        out: list[str] = []
        for txin in tx.inputs:
            if txin.is_coinbase:
                continue
            prev = self._find_output(txin.prevout)
            if prev is not None and prev.address is not None:
                out.append(prev.address)
        return out

    def _find_output(self, outpoint):
        """The output ``outpoint`` names in a mined block, or ``None``
        for an unknown txid or an out-of-range ``vout``.  Only mined
        blocks are indexed: that is the honest analyst view."""
        self._index_mined_blocks()
        tx = self._mined_txs.get(outpoint.txid)
        if tx is None or outpoint.vout >= len(tx.outputs):
            return None
        return tx.outputs[outpoint.vout]

    # ------------------------------------------------------------------
    # per-service engagement
    # ------------------------------------------------------------------

    def step(self, height: int) -> None:
        self._scan_new_blocks()
        if height < self.start_height or height % self.interval != 0:
            return
        if self._plan_pos >= len(self._plan):
            return
        service = self._plan[self._plan_pos]
        self._plan_pos += 1
        self._engage(service)

    def _engage(self, service) -> None:
        engaged = False
        if isinstance(service, (WalletService, Exchange, CasinoSite, InvestmentScheme)):
            engaged = self._engage_bank_like(service)
        elif isinstance(service, FixedRateExchange):
            engaged = self._engage_fixed(service)
        elif isinstance(service, PaymentGateway):
            engaged = True  # engaged indirectly through gateway vendors
        elif isinstance(service, Vendor):
            engaged = self._engage_vendor(service)
        elif isinstance(service, DiceGame):
            engaged = self._engage_dice(service)
        elif isinstance(service, Mixer):
            engaged = self._engage_mixer(service)
        elif isinstance(service, (DonationService, MiscService)):
            engaged = self._engage_misc(service)
        if engaged:
            self.stats.services_engaged.add(service.name)

    def _engage_bank_like(self, service) -> bool:
        deposit_address = service.deposit_address()
        tx = self._pay(deposit_address, self.payment_value)
        if tx is None:
            return False
        self._tag(deposit_address, service.name)
        self.stats.deposits += 1
        # Withdraw most of it back to a fresh address and watch for the
        # payout to tag the service's hot-wallet inputs.
        my_address = self.wallet.fresh_address()
        amount = int(self.payment_value * 0.9)
        service.request_withdrawal(my_address, amount)
        self._expect_payment(my_address, service.name)
        self.stats.withdrawals_requested += 1
        if isinstance(service, InvestmentScheme):
            service.record_investment(self.name, self.payment_value)
        return True

    def _engage_fixed(self, service: FixedRateExchange) -> bool:
        intake = service.payment_address()
        tx = self._pay(intake, self.payment_value)
        if tx is None:
            return False
        self._tag(intake, service.name)
        my_address = self.wallet.fresh_address()
        service.convert(my_address, int(self.payment_value * 0.95))
        self._expect_payment(my_address, service.name)
        return True

    def _engage_vendor(self, service: Vendor) -> bool:
        # The checkout page reveals whether payment goes to a gateway;
        # the paper tagged BitPay's addresses for gateway merchants.
        sale_address = service.sale_address(self.payment_value)
        tx = self._pay(sale_address, self.payment_value)
        if tx is None:
            return False
        owner = service.gateway.name if service.gateway is not None else service.name
        self._tag(sale_address, owner)
        return True

    def _engage_dice(self, service: DiceGame) -> bool:
        fee = self.economy.params.fee
        coins = [c for c in self.wallet.coins() if c.value >= self.bet_value + fee]
        if not coins:
            return False
        coin = coins[0]
        bet_address = service.bet_address()
        try:
            built = build_payment(
                self.wallet,
                [(bet_address, self.bet_value)],
                fee=fee,
                change_kind=CHANGE_FRESH,
                rng=self.rng,
                coins=[coin],
            )
        except InsufficientFundsError:
            return False
        self.economy.submit(built, self.wallet)
        self.stats.transactions_made += 1
        service.place_bet(coin.address, self.bet_value)
        self._tag(bet_address, service.name)
        # A winning payout will arrive at the betting address.
        self._expect_payment(coin.address, service.name)
        return True

    def _engage_mixer(self, service: Mixer) -> bool:
        intake = service.intake_address()
        tx = self._pay(intake, self.payment_value)
        if tx is None:
            return False
        self._tag(intake, service.name)
        paid_vout = next(
            vout for vout, out in enumerate(tx.outputs) if out.address == intake
        )
        my_address = self.wallet.fresh_address()
        service.request_mix(tx.outpoint(paid_vout), self.payment_value, my_address)
        self._expect_payment(my_address, service.name)
        return True

    def _engage_misc(self, service) -> bool:
        address = service.payment_address()
        tx = self._pay(address, self.payment_value // 4)
        if tx is None:
            return False
        self._tag(address, service.name)
        return True
