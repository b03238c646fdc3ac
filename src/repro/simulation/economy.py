"""The economy coordinator: actors, mempool, mining, ground truth.

:class:`Economy` drives the simulation block by block.  Each block, every
actor gets a :meth:`~repro.simulation.actors.base.Actor.step` callback
and may submit transactions; a mining pool then assembles the mempool
into a block (coinbase = subsidy + fees) and the chain grows.  All
address ownership is registered in a :class:`~repro.simulation.
ground_truth.GroundTruth` as addresses are minted, and the true change
output of every built transaction is recorded in ``change_truth`` so the
false-positive analysis can be scored against reality.

Determinism: one master ``random.Random(seed)`` plus per-actor child RNGs
derived from actor names, so scenario output is byte-for-byte stable
across runs and across actor-registration refactorings.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..chain import script as script_mod
from ..chain.index import ChainIndex
from ..chain.model import (
    Block,
    COINBASE_TXID,
    COINBASE_VOUT,
    GENESIS_PREV_HASH,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
    block_subsidy,
)
from .builder import BuiltTransaction
from .ground_truth import GroundTruth
from .params import EconomyParams
from .wallet import Wallet

MAX_BLOCK_TXS = 4_000
"""Cap on transactions per block (well above normal simulation load)."""


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """Ground truth about one transaction's change output."""

    change_address: str | None
    change_kind: str
    change_vout: int | None


@dataclass
class MiningStats:
    """Per-pool mining counters."""

    blocks_mined: int = 0
    subsidy_earned: int = 0


class Economy:
    """Simulation coordinator.  See module docstring."""

    def __init__(self, params: EconomyParams | None = None) -> None:
        self.params = params or EconomyParams()
        self.master_rng = random.Random(self.params.seed)
        self.ground_truth = GroundTruth()
        self.blocks: list[Block] = []
        self.mempool: list[Transaction] = []
        self.change_truth: dict[bytes, ChangeRecord] = {}
        self._actors: dict[str, object] = {}
        self._miners: list[tuple[object, float]] = []  # (actor, hashrate weight)
        self._wallet_of_address: dict[str, Wallet] = {}
        self._scripts: dict[str, bytes] = {}  # the wallets' shared address book
        self._pending_fees: dict[bytes, int] = {}
        self._tip_hash: bytes = GENESIS_PREV_HASH
        self._step_hooks: list = []

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------

    def child_rng(self, label: str) -> random.Random:
        """A deterministic child RNG keyed by ``label`` and the seed."""
        return random.Random(f"{self.params.seed}/{label}")

    def create_wallet(self, owner: str, *, rng: random.Random | None = None) -> Wallet:
        """Create a wallet whose addresses auto-register to ``owner``."""
        if self.ground_truth.category_of(owner) is None:
            raise KeyError(f"unknown entity {owner!r}; register the actor first")
        wallet = Wallet(
            owner, rng=rng or self.child_rng(f"wallet/{owner}"), scripts=self._scripts
        )

        def on_new_address(address: str, owner_name: str) -> None:
            self.ground_truth.register_address(address, owner_name)
            self._wallet_of_address[address] = wallet

        wallet._on_new_address = on_new_address
        return wallet

    def register(self, actor, *, hashrate: float = 0.0) -> None:
        """Add an actor to the economy; ``hashrate > 0`` makes it a miner."""
        if actor.name in self._actors:
            raise ValueError(f"duplicate actor name {actor.name!r}")
        self.ground_truth.register_entity(actor.name, actor.category)
        self._actors[actor.name] = actor
        actor.attach(self)
        if hashrate > 0:
            self._miners.append((actor, hashrate))

    def add_step_hook(self, hook) -> None:
        """Register ``hook(economy, height)`` to run before actors step.

        Used by scripted drivers (the re-identification attack, theft
        scripts) that are not actors themselves.
        """
        self._step_hooks.append(hook)

    # ------------------------------------------------------------------
    # actor lookup
    # ------------------------------------------------------------------

    def actor(self, name: str):
        """Look up an actor by entity name."""
        return self._actors[name]

    def actors(self) -> list:
        """All actors in registration order."""
        return list(self._actors.values())

    def actors_in_category(self, category: str) -> list:
        """Actors in a category, in registration order."""
        return [a for a in self._actors.values() if a.category == category]

    # ------------------------------------------------------------------
    # chain state
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Height the *next* block will have."""
        return len(self.blocks)

    @property
    def current_time(self) -> int:
        """Timestamp the next block will carry."""
        return self.params.genesis_timestamp + self.height * self.params.block_interval

    # ------------------------------------------------------------------
    # transaction submission
    # ------------------------------------------------------------------

    def submit(self, built: BuiltTransaction, wallet: Wallet) -> Transaction:
        """Accept a built transaction into the mempool.

        Debits the spent coins from the sender's wallet, credits each
        output to the wallet controlling its address (if any — payments
        to unregistered addresses simply burn visibility, not value),
        and records the change ground truth.
        """
        tx = built.tx
        if len(self.mempool) >= MAX_BLOCK_TXS:
            raise RuntimeError("mempool full; mine a block first")
        for coin in built.spent_coins:
            wallet.debit(coin.outpoint)
        self._credit_outputs(tx)
        self.mempool.append(tx)
        self._pending_fees[tx.txid] = built.fee
        self.change_truth[tx.txid] = ChangeRecord(
            change_address=built.change_address,
            change_kind=built.change_kind,
            change_vout=built.change_vout,
        )
        return tx

    def _credit_outputs(self, tx: Transaction) -> None:
        for vout, out in enumerate(tx.outputs):
            address = out.address
            if address is None:
                continue
            target = self._wallet_of_address.get(address)
            if target is not None:
                target.credit(OutPoint(tx.txid, vout), out.value, address)

    # ------------------------------------------------------------------
    # mining
    # ------------------------------------------------------------------

    def _choose_miner(self):
        if not self._miners:
            raise RuntimeError("no miners registered; add a mining pool")
        total = sum(weight for _, weight in self._miners)
        roll = self.master_rng.random() * total
        acc = 0.0
        for actor, weight in self._miners:
            acc += weight
            if roll <= acc:
                return actor
        return self._miners[-1][0]

    def mine_block(self, miner=None) -> Block:
        """Assemble the mempool into the next block."""
        miner = miner or self._choose_miner()
        included = self.mempool[:MAX_BLOCK_TXS]
        self.mempool = self.mempool[MAX_BLOCK_TXS:]
        height = self.height
        fees = sum(self._pending_fees.pop(tx.txid, 0) for tx in included)
        subsidy = block_subsidy(height, halving_interval=self.params.halving_interval)
        reward_address = miner.coinbase_address()
        coinbase = Transaction(
            inputs=(
                TxIn(
                    prevout=OutPoint(COINBASE_TXID, COINBASE_VOUT),
                    script_sig=script_mod.coinbase_script(
                        height, extra=miner.name.encode("utf-8")[:16]
                    ),
                ),
            ),
            outputs=(
                TxOut.paying(
                    reward_address, self._scripts[reward_address], subsidy + fees
                ),
            ),
        )
        self._credit_outputs(coinbase)
        block = Block.assemble(
            height=height,
            prev_hash=self._tip_hash,
            timestamp=self.current_time,
            transactions=[coinbase, *included],
        )
        self.blocks.append(block)
        self._tip_hash = block.hash
        if hasattr(miner, "stats"):
            miner.stats.blocks_mined += 1
            miner.stats.subsidy_earned += subsidy + fees
        return block

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, n_blocks: int | None = None) -> None:
        """Run the simulation for ``n_blocks`` (default: params.n_blocks)."""
        target = n_blocks if n_blocks is not None else self.params.n_blocks
        for _ in range(target):
            height = self.height
            for hook in self._step_hooks:
                hook(self, height)
            for actor in self._actors.values():
                actor.step(height)
            self.mine_block()

    def build_index(self) -> ChainIndex:
        """Index the chain produced so far."""
        index = ChainIndex()
        index.add_chain(self.blocks)
        return index


@dataclass
class World:
    """A finished scenario: the economy plus its indexed chain."""

    economy: Economy
    index: ChainIndex
    extras: dict = field(default_factory=dict)
    """Scenario-specific artifacts (theft scripts, hoard addresses...)."""

    @property
    def ground_truth(self) -> GroundTruth:
        return self.economy.ground_truth

    @property
    def blocks(self) -> list[Block]:
        return self.economy.blocks


def finish(economy: Economy, **extras) -> World:
    """Wrap a run economy into a :class:`World`."""
    return World(economy=economy, index=economy.build_index(), extras=dict(extras))
