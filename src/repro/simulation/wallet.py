"""Simulated wallets: key management, coin tracking, coin selection.

A :class:`Wallet` is the client-side state of one economic entity.  It
mints deterministic keypairs, tracks the UTXOs it controls, and selects
coins for spending.  Change handling — the behaviour Heuristic 2 keys
on — is decided per-transaction by the :class:`~repro.simulation.params.
ChangePolicy` and implemented in :mod:`repro.simulation.builder`.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import islice

from ..chain import script
from ..chain.crypto import KeyPair, pubkey_hash_to_address
from ..chain.model import OutPoint, TxOut


class InsufficientFundsError(Exception):
    """Raised when a wallet cannot cover a requested amount."""

    def __init__(self, wanted: int, available: int) -> None:
        super().__init__(f"wanted {wanted} satoshis, have {available}")
        self.wanted = wanted
        self.available = available


@dataclass(frozen=True, slots=True)
class Coin:
    """One spendable output held by a wallet."""

    outpoint: OutPoint
    value: int
    address: str


class Wallet:
    """Keys and coins for one entity.

    Address creation is deterministic: the ``owner`` name and a counter
    seed each keypair, so re-running a scenario reproduces the same
    chain byte-for-byte.

    ``scripts`` is the address book: every address minted into it maps
    to its locking script, so a payment to it never decodes the address
    string.  An economy hands one book to all of its wallets.
    """

    def __init__(
        self,
        owner: str,
        *,
        rng: random.Random | None = None,
        on_new_address=None,
        scripts: dict[str, bytes] | None = None,
    ) -> None:
        self.owner = owner
        self._rng = rng or random.Random(0)
        self._on_new_address = on_new_address
        self._scripts = {} if scripts is None else scripts
        self._keys: dict[str, KeyPair] = {}
        self._coins: dict[OutPoint, Coin] = {}
        self._coins_at: dict[str, dict[OutPoint, Coin]] = {}
        self._balance = 0
        self._counter = 0
        self._receive_addresses: list[str] = []
        self._change_addresses: list[str] = []

    # ------------------------------------------------------------------
    # addresses
    # ------------------------------------------------------------------

    def fresh_address(self, *, kind: str = "receive") -> str:
        """Mint a brand-new address (and notify the ownership registry).

        ``kind`` is a label for debugging ("receive", "change", "hot",
        ...); it does not affect key derivation beyond uniqueness.
        """
        self._counter += 1
        keypair = KeyPair.from_seed(f"{self.owner}/{kind}/{self._counter}")
        pubkey_hash = keypair.pubkey_hash
        address = pubkey_hash_to_address(pubkey_hash)
        self._keys[address] = keypair
        self._scripts[address] = script.p2pkh_script(pubkey_hash)
        if kind == "receive":
            self._receive_addresses.append(address)
        elif kind == "change":
            self._change_addresses.append(address)
        if self._on_new_address is not None:
            self._on_new_address(address, self.owner)
        return address

    @property
    def change_addresses(self) -> Sequence[str]:
        """Addresses minted as change (clients normally hide these), in
        minting order.  The wallet's own list, not a copy: read it, do
        not change it."""
        return self._change_addresses

    def last_change_address(self) -> str | None:
        """The most recently minted change address (sloppy clients send
        change there twice — the §4.2 'same change address used twice'
        pattern)."""
        if not self._change_addresses:
            return None
        return self._change_addresses[-1]

    def reused_receive_address(self) -> str:
        """An existing receive address (minting one if none exist yet)."""
        if not self._receive_addresses:
            return self.fresh_address()
        return self._rng.choice(self._receive_addresses)

    def output(self, address: str, value: int) -> TxOut:
        """An output paying ``value`` to ``address``, its address memo
        seated.  The script comes from the address book, which holds
        every address the economy's wallets mint."""
        return TxOut.paying(address, self._scripts[address], value)

    def key_for(self, address: str) -> KeyPair:
        """The keypair controlling ``address`` (KeyError if foreign)."""
        return self._keys[address]

    def owns(self, address: str) -> bool:
        """True when this wallet holds the key for ``address``."""
        return address in self._keys

    def oldest_addresses(self, n: int) -> list[str]:
        """The first ``n`` addresses this wallet minted (fewer if it has
        not minted ``n``), without copying the rest."""
        return list(islice(self._keys, n))

    # ------------------------------------------------------------------
    # coins
    # ------------------------------------------------------------------

    def credit(self, outpoint: OutPoint, value: int, address: str) -> None:
        """Record receipt of an output paying one of our addresses."""
        if address not in self._keys:
            raise KeyError(f"{self.owner} does not control {address}")
        if outpoint in self._coins:
            raise ValueError(f"coin {outpoint} credited twice")
        coin = Coin(outpoint, value, address)
        self._coins[outpoint] = coin
        self._coins_at.setdefault(address, {})[outpoint] = coin
        self._balance += value

    def debit(self, outpoint: OutPoint) -> Coin:
        """Remove (spend) a coin."""
        try:
            coin = self._coins.pop(outpoint)
        except KeyError:
            raise KeyError(f"{self.owner} holds no coin {outpoint}") from None
        at = self._coins_at[coin.address]
        del at[outpoint]
        if not at:
            del self._coins_at[coin.address]
        self._balance -= coin.value
        return coin

    @property
    def balance(self) -> int:
        """Spendable satoshis (a running total kept by credit/debit)."""
        return self._balance

    @property
    def coin_count(self) -> int:
        return len(self._coins)

    def coins(self) -> list[Coin]:
        """All coins, oldest-credited first (dict preserves order)."""
        return list(self._coins.values())

    def coin_at(self, address: str) -> Coin | None:
        """The oldest-credited coin currently sitting at ``address``."""
        at = self._coins_at.get(address)
        return next(iter(at.values())) if at else None

    def select_coins(self, amount: int, *, prefer_largest: bool = False) -> list[Coin]:
        """Pick coins covering ``amount`` satoshis.

        Default selection is oldest-first (greedy FIFO), the behaviour of
        the era's Satoshi client; ``prefer_largest`` picks big coins
        first, which services used for large withdrawals.  Raises
        :class:`InsufficientFundsError` when the wallet cannot cover the
        amount.
        """
        if amount <= 0:
            raise ValueError(f"amount must be positive, got {amount}")
        if self._balance < amount:
            raise InsufficientFundsError(amount, self._balance)
        pool = self._coins.values()
        if prefer_largest:
            pool = sorted(pool, key=lambda c: c.value, reverse=True)
        selected: list[Coin] = []
        total = 0
        for coin in pool:
            selected.append(coin)
            total += coin.value
            if total >= amount:
                break
        return selected
