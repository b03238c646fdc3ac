"""Transaction assembly for simulated wallets.

Builds signed transactions out of a wallet's coins, implementing the
change-address idioms the paper's Heuristic 2 keys on:

* ``fresh``  — change to a newly minted, never-seen address (the Satoshi
  client behaviour that makes change identifiable);
* ``self``   — change back to an input address ("self-change", 23% of
  2013 transactions per §4.1);
* ``reuse``  — change to an existing receive address (breaks H2's
  condition 4 and creates genuine false-positive pressure);
* ``none``   — exact spend, no change output.

Signing: each input carries ``<sig> <pubkey>`` where the signature is the
wallet key's MAC over the transaction skeleton (the serialization with
empty scriptSigs), so inputs are attributable and verifiable without real
ECDSA.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..chain import crypto, script
from ..chain.model import OutPoint, Transaction, TxIn, TxOut
from ..chain.serialize import serialize_tx
from .params import ChangePolicy
from .wallet import Coin, Wallet

CHANGE_FRESH = "fresh"
CHANGE_SELF = "self"
CHANGE_REUSE = "reuse"
CHANGE_RECENT = "recent"
CHANGE_NONE = "none"
CHANGE_FIXED = "fixed"
"""Change to an explicitly designated address (services routing change
back into their hot wallet)."""

DUST = 546
"""Outputs below this are folded into the fee rather than created."""


@dataclass(frozen=True)
class BuiltTransaction:
    """A signed transaction plus bookkeeping about how it was built."""

    tx: Transaction
    spent_coins: tuple[Coin, ...]
    change_address: str | None
    change_kind: str
    change_vout: int | None

    @property
    def fee(self) -> int:
        spent = sum(c.value for c in self.spent_coins)
        return spent - self.tx.total_output_value


def choose_change_kind(policy: ChangePolicy, rng: random.Random) -> str:
    """Sample a change idiom from the policy mix."""
    roll = rng.random()
    if roll < policy.fresh:
        return CHANGE_FRESH
    roll -= policy.fresh
    if roll < policy.self_change:
        return CHANGE_SELF
    roll -= policy.self_change
    if roll < policy.reuse:
        return CHANGE_REUSE
    roll -= policy.reuse
    if roll < policy.recent:
        return CHANGE_RECENT
    return CHANGE_NONE


def _sign_inputs(
    wallet: Wallet, coins: list[Coin], outputs: list[TxOut], lock_time: int
) -> tuple[TxIn, ...]:
    """Produce signed inputs spending ``coins`` in order."""
    skeleton = Transaction(
        inputs=tuple(TxIn(prevout=c.outpoint) for c in coins),
        outputs=tuple(outputs),
        lock_time=lock_time,
    )
    message = crypto.sha256d(serialize_tx(skeleton))
    signed = []
    for coin in coins:
        keypair = wallet.key_for(coin.address)
        signature = keypair.sign(message)
        signed.append(
            TxIn(
                prevout=coin.outpoint,
                script_sig=script.sig_script(signature, keypair.pubkey),
            )
        )
    return tuple(signed)


def build_payment(
    wallet: Wallet,
    payments: list[tuple[str, int]],
    *,
    fee: int = 0,
    change_kind: str = CHANGE_FRESH,
    rng: random.Random | None = None,
    prefer_largest: bool = False,
    coins: list[Coin] | None = None,
    shuffle_outputs: bool = True,
    change_address: str | None = None,
) -> BuiltTransaction:
    """Build a signed payment from ``wallet`` to one or more recipients.

    ``payments`` is a list of ``(address, satoshis)``.  Coins are
    selected automatically unless ``coins`` pins the exact inputs (used
    by scripted actors such as the hoard dissolution).  The change
    output position is shuffled among the payment outputs — as real
    clients do — unless ``shuffle_outputs`` is disabled for tests.
    Passing ``change_address`` routes change to that exact address (the
    wallet must own it); ``change_kind`` is then ignored.
    """
    if not payments:
        raise ValueError("payments must not be empty")
    for address, value in payments:
        if value <= 0:
            raise ValueError(f"non-positive payment {value} to {address}")
    if fee < 0:
        raise ValueError("fee must be non-negative")
    if change_kind not in (
        CHANGE_FRESH, CHANGE_SELF, CHANGE_REUSE, CHANGE_RECENT, CHANGE_NONE,
    ):
        raise ValueError(f"unknown change kind {change_kind!r}")
    rng = rng or random.Random(0)

    total_payment = sum(value for _, value in payments)
    needed = total_payment + fee
    if coins is None:
        coins = wallet.select_coins(needed, prefer_largest=prefer_largest)
    total_in = sum(c.value for c in coins)
    if total_in < needed:
        raise ValueError(f"pinned coins cover {total_in} < needed {needed}")

    if change_address is not None:
        if not wallet.owns(change_address):
            raise ValueError(
                f"change address {change_address} is not owned by {wallet.owner}"
            )
        change_kind = CHANGE_FIXED
    change_value = total_in - needed
    actual_kind = change_kind
    if change_value <= DUST:
        # Sub-dust remainder goes to the miner; no change output.
        actual_kind = CHANGE_NONE
        change_address = None
        change_value = 0
    else:
        if change_kind == CHANGE_FIXED:
            pass  # explicit address already set
        elif change_kind == CHANGE_NONE:
            # An exact spend was requested but coin selection left change
            # — do what real clients do and mint a fresh change address.
            actual_kind = CHANGE_FRESH
        if actual_kind == CHANGE_FIXED:
            pass
        elif actual_kind == CHANGE_FRESH:
            change_address = wallet.fresh_address(kind="change")
        elif actual_kind == CHANGE_SELF:
            change_address = coins[0].address
        elif actual_kind == CHANGE_REUSE:
            change_address = wallet.reused_receive_address()
        elif actual_kind == CHANGE_RECENT:
            change_address = wallet.last_change_address()
            if change_address is None:
                actual_kind = CHANGE_FRESH
                change_address = wallet.fresh_address(kind="change")
        else:
            raise ValueError(f"unknown change kind {change_kind!r}")

    outputs = [wallet.output(address, value) for address, value in payments]
    change_vout: int | None = None
    if change_address is not None:
        change_out = wallet.output(change_address, change_value)
        if shuffle_outputs:
            change_vout = rng.randrange(len(outputs) + 1)
        else:
            change_vout = len(outputs)
        outputs.insert(change_vout, change_out)

    inputs = _sign_inputs(wallet, coins, outputs, lock_time=0)
    tx = Transaction(inputs=inputs, outputs=tuple(outputs))
    return BuiltTransaction(
        tx=tx,
        spent_coins=tuple(coins),
        change_address=change_address,
        change_kind=actual_kind,
        change_vout=change_vout,
    )


def build_sweep(
    wallet: Wallet,
    destination: str,
    *,
    coins: list[Coin] | None = None,
    fee: int = 0,
    rng: random.Random | None = None,
) -> BuiltTransaction:
    """Sweep coins into a single destination output (aggregation).

    Used for pool consolidation, exchange cold-storage sweeps, and the
    "A" (aggregation) moves in theft laundering.
    """
    coins = coins if coins is not None else wallet.coins()
    if not coins:
        raise ValueError("nothing to sweep")
    total = sum(c.value for c in coins)
    if total <= fee:
        raise ValueError(f"sweep value {total} does not cover fee {fee}")
    outputs = [wallet.output(destination, total - fee)]
    inputs = _sign_inputs(wallet, coins, outputs, lock_time=0)
    tx = Transaction(inputs=inputs, outputs=tuple(outputs))
    return BuiltTransaction(
        tx=tx,
        spent_coins=tuple(coins),
        change_address=None,
        change_kind=CHANGE_NONE,
        change_vout=None,
    )
