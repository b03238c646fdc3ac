"""Theft scripts: Table 3's seven thefts as replayable scenarios.

Each theft follows the paper's recorded movement grammar — A
(aggregation), P (peeling chain), S (split), F (folding) — executed in
order, with configurable dormancy between moves (Betcoin's loot famously
sat untouched for a year before moving when the exchange rate soared).
The analysis side must recover the grammar and the exchange arrivals
from the chain alone; this module records the ground truth to score it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ...chain.model import COIN
from ..builder import build_sweep
from ..params import CATEGORY_CRIME
from ..wallet import Coin
from .base import Actor
from .scripts import PeelChainRunner, RecipientChooser, aggregate, fold, split

MOVE_AGGREGATE = "A"
MOVE_PEEL = "P"
MOVE_SPLIT = "S"
MOVE_FOLD = "F"
VALID_MOVES = frozenset({MOVE_AGGREGATE, MOVE_PEEL, MOVE_SPLIT, MOVE_FOLD})


@dataclass(frozen=True)
class TheftSpec:
    """Static description of one theft (a Table 3 row)."""

    name: str
    victim: str
    paper_btc: float
    theft_height: int
    movement: str
    reaches_exchanges: bool
    dormancy_blocks: int = 0
    """Blocks the loot sits before the first move (Betcoin: ~1 year)."""

    op_interval: int = 5
    peel_hops: int = 25
    loot_addresses: int = 3
    """How many thief addresses the theft transactions pay into."""

    leave_fraction_dormant: float = 0.0
    """Fraction of loot that never moves (Trojan: 2857 of 3257 BTC)."""

    def moves(self) -> list[str]:
        parsed = self.movement.split("/")
        bad = set(parsed) - VALID_MOVES
        if bad:
            raise ValueError(f"unknown movement ops {bad} in {self.movement!r}")
        return parsed


@dataclass
class TheftRecord:
    """Ground-truth artifacts the scenario exposes for evaluation."""

    spec: TheftSpec
    theft_txids: list[bytes] = field(default_factory=list)
    loot_addresses: list[str] = field(default_factory=list)
    move_txids: dict[int, list[bytes]] = field(default_factory=dict)
    peel_runners: list[PeelChainRunner] = field(default_factory=list)
    dormant_addresses: list[str] = field(default_factory=list)


class TheftScript(Actor):
    """Actor executing one scripted theft and laundering sequence."""

    def __init__(
        self,
        spec: TheftSpec,
        *,
        amount_scale: float = 0.01,
        recipient_chooser: RecipientChooser | None = None,
        clean_fund: int = 0,
    ) -> None:
        super().__init__(f"Thief:{spec.name}", CATEGORY_CRIME)
        self.spec = spec
        self.amount_scale = amount_scale
        self.recipient_chooser = recipient_chooser
        self.clean_fund = clean_fund
        self.record = TheftRecord(spec=spec)
        self._moves = spec.moves()
        self._move_index = 0
        self._stolen = False
        self._next_action_height: int | None = None
        self._current_coins: list[Coin] = []
        self._clean_coins: list[Coin] = []
        self._active_runner: PeelChainRunner | None = None

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------

    def scaled_amount(self) -> int:
        return int(self.spec.paper_btc * self.amount_scale * COIN)

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def step(self, height: int) -> None:
        if height < self.spec.theft_height:
            return
        if not self._stolen:
            self._steal()
            self._next_action_height = (
                height + max(1, self.spec.dormancy_blocks)
            )
            return
        if self._active_runner is not None:
            self._active_runner.step(self.economy)
            if self._active_runner.done:
                self._finish_peel()
            return
        if self._move_index >= len(self._moves):
            return
        if self._next_action_height is not None and height < self._next_action_height:
            return
        self._execute_move(self._moves[self._move_index], height)

    def _steal(self) -> None:
        """Sweep the victim's coins into thief-controlled addresses."""
        # Whatever the thief held before the theft is, by definition,
        # clean — the fold ('F') moves mix these in with the loot.
        self._clean_coins = self.wallet.coins()
        victim = self.economy.actor(self.spec.victim)
        fee = self.economy.params.fee
        target = self.scaled_amount()
        victim_wallet = victim.wallet
        coins = []
        total = 0
        for coin in victim_wallet.coins():
            coins.append(coin)
            total += coin.value
            if total >= target + fee:
                break
        if not coins:
            raise RuntimeError(
                f"victim {self.spec.victim!r} has no funds to steal at "
                f"height {self.economy.height}"
            )
        # Spread the loot over a few thief addresses, one sweep each.
        n_addresses = min(self.spec.loot_addresses, len(coins))
        chunks = [coins[i::n_addresses] for i in range(n_addresses)]
        loot_total = 0
        for chunk in chunks:
            if not chunk or sum(c.value for c in chunk) <= fee:
                continue
            address = self.wallet.fresh_address(kind="loot")
            built = build_sweep(victim_wallet, address, coins=chunk, fee=fee)
            tx = self.economy.submit(built, victim_wallet)
            self.record.theft_txids.append(tx.txid)
            self.record.loot_addresses.append(address)
            loot_total += sum(c.value for c in chunk) - fee
        self._current_coins = [
            c for c in self.wallet.coins() if c.address in self.record.loot_addresses
        ]
        if self.spec.leave_fraction_dormant > 0:
            # Move the largest coins until the moving share is met (at
            # least one coin always moves); the rest sits forever — the
            # Trojan's 2,857 of 3,257 BTC that never budged.
            move_target = int(loot_total * (1 - self.spec.leave_fraction_dormant))
            moving: list[Coin] = []
            moved_value = 0
            for coin in sorted(
                self._current_coins, key=lambda c: c.value, reverse=True
            ):
                if not moving or moved_value < move_target:
                    moving.append(coin)
                    moved_value += coin.value
                else:
                    self.record.dormant_addresses.append(coin.address)
            self._current_coins = moving
        self._stolen = True

    def _execute_move(self, move: str, height: int) -> None:
        txids: list[bytes] = []
        if not self._current_coins:
            self._move_index = len(self._moves)
            return
        if move == MOVE_AGGREGATE:
            coin = aggregate(self.economy, self.wallet, coins=self._current_coins)
            self._current_coins = [coin]
            txids.append(coin.outpoint.txid)
        elif move == MOVE_FOLD:
            clean = [c for c in self._clean_coins if c.outpoint not in
                     {x.outpoint for x in self._current_coins}]
            clean = [c for c in clean if self.wallet.coin_at(c.address) is not None]
            usable_clean = [c for c in self.wallet.coins() if c in clean]
            if not usable_clean:
                coin = aggregate(self.economy, self.wallet,
                                 coins=self._current_coins)
            else:
                coin = fold(
                    self.economy,
                    self.wallet,
                    tainted=self._current_coins,
                    clean=usable_clean[:3],
                )
            self._current_coins = [coin]
            txids.append(coin.outpoint.txid)
        elif move == MOVE_SPLIT:
            biggest = max(self._current_coins, key=lambda c: c.value)
            rest = [c for c in self._current_coins if c is not biggest]
            pieces = split(
                self.economy, self.wallet, biggest, n_ways=self.rng.randint(2, 3),
                rng=self.rng,
            )
            self._current_coins = rest + pieces
            txids.append(pieces[0].outpoint.txid)
        elif move == MOVE_PEEL:
            if self.recipient_chooser is None:
                raise RuntimeError(f"{self.name}: peel move needs a recipient chooser")
            biggest = max(self._current_coins, key=lambda c: c.value)
            self._current_coins = [c for c in self._current_coins if c is not biggest]
            self._active_runner = PeelChainRunner(
                wallet=self.wallet,
                coin=biggest,
                choose_recipient=self.recipient_chooser,
                n_hops=self.spec.peel_hops,
                rng=self.rng,
                hops_per_block=2,
                peel_fraction_min=0.02,
                peel_fraction_max=0.08,
            )
            self.record.peel_runners.append(self._active_runner)
            # move index advances when the runner finishes
            self.record.move_txids.setdefault(self._move_index, [])
            return
        self.record.move_txids[self._move_index] = txids
        self._move_index += 1
        self._next_action_height = height + self.spec.op_interval

    def _finish_peel(self) -> None:
        runner = self._active_runner
        self._active_runner = None
        self.record.move_txids[self._move_index] = [
            r.txid for r in runner.records
        ]
        # The final peel's change (if any) rejoins the working set.
        if runner.coin is not None:
            self._current_coins.append(runner.coin)
        self._move_index += 1
        self._next_action_height = (
            self.economy.height + self.spec.op_interval
        )
