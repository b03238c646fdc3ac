"""Block-chain object model: outpoints, transactions, blocks.

Value semantics follow Bitcoin: amounts are integer satoshis
(1 BTC = 100,000,000 satoshis), txids and block hashes are the
double-SHA256 of the serialized structure, displayed reversed-hex as the
network convention dictates.  Identifiers are computed lazily and cached,
because clustering touches every transaction many times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator

from . import crypto, script as script_mod
from .errors import BlockStructureError

COIN = 100_000_000
"""Satoshis per bitcoin."""

MAX_MONEY = 21_000_000 * COIN
"""Total supply cap, as in Bitcoin."""

HALVING_INTERVAL = 210_000
"""Blocks between subsidy halvings (50 BTC → 25 BTC at height 210,000)."""

COINBASE_TXID = b"\x00" * 32
"""The all-zero previous txid that marks a coinbase input."""

COINBASE_VOUT = 0xFFFFFFFF
"""The sentinel previous vout of a coinbase input."""


def block_subsidy(height: int, *, halving_interval: int = HALVING_INTERVAL) -> int:
    """Coin-generation reward at ``height`` in satoshis.

    Mirrors Bitcoin: 50 BTC, halving every ``halving_interval`` blocks,
    reaching zero after 64 halvings.
    """
    halvings = height // halving_interval
    if halvings >= 64:
        return 0
    return (50 * COIN) >> halvings


def btc(amount: float | int) -> int:
    """Convert a BTC amount to satoshis (rounding to the nearest satoshi)."""
    return int(round(amount * COIN))


def format_btc(satoshis: int) -> str:
    """Render satoshis as a human BTC string, trimming trailing zeros."""
    sign = "-" if satoshis < 0 else ""
    whole, frac = divmod(abs(satoshis), COIN)
    if frac == 0:
        return f"{sign}{whole}"
    return f"{sign}{whole}.{frac:08d}".rstrip("0")


@dataclass(frozen=True, slots=True)
class OutPoint:
    """Reference to a transaction output: ``(txid, vout)``."""

    txid: bytes
    vout: int

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OutPoint({self.txid[::-1].hex()[:16]}…:{self.vout})"

    @property
    def is_coinbase(self) -> bool:
        """True for the null outpoint of a coinbase input."""
        return self.txid == COINBASE_TXID and self.vout == COINBASE_VOUT


@dataclass(frozen=True, slots=True)
class TxIn:
    """Transaction input spending a previous output."""

    prevout: OutPoint
    script_sig: bytes = b""
    sequence: int = 0xFFFFFFFF

    @property
    def is_coinbase(self) -> bool:
        """True when this input creates new coins."""
        return self.prevout.is_coinbase


class _AddressUnresolved:
    """Sentinel type for a :class:`TxOut` whose address slot is still
    cold.  The sentinel is the class object itself: pickle stores
    classes by reference, so a ``TxOut`` pickled before its first
    ``address`` access round-trips with the memo still cold (a plain
    ``object()`` sentinel would unpickle as a fresh object that fails
    the identity check and masquerade as the address)."""


_ADDRESS_UNRESOLVED = _AddressUnresolved


@dataclass(frozen=True, slots=True)
class TxOut:
    """Transaction output carrying ``value`` satoshis locked by a script."""

    value: int
    script_pubkey: bytes
    _address: object = field(
        default=_ADDRESS_UNRESOLVED, init=False, repr=False, compare=False
    )

    @property
    def address(self) -> str | None:
        """The address this output pays, or ``None`` for exotic scripts.

        Memoized per output: script → address extraction ends in a
        base58check encode, and the ingest pipeline, heuristics, and
        reporting edges all resolve the same outputs repeatedly.
        """
        cached = self._address
        if cached is _ADDRESS_UNRESOLVED:
            cached = script_mod.extract_address(self.script_pubkey)
            object.__setattr__(self, "_address", cached)
        return cached


@dataclass(frozen=True)
class Transaction:
    """An immutable transaction.

    The ``txid`` property is the double-SHA256 of the wire serialization
    (computed lazily; ``cached_property`` keeps the hot clustering loops
    from re-serializing, and the wire decoder pre-seats it from the bytes
    it parsed).
    """

    inputs: tuple[TxIn, ...]
    outputs: tuple[TxOut, ...]
    version: int = 1
    lock_time: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.inputs, tuple):
            object.__setattr__(self, "inputs", tuple(self.inputs))
        if not isinstance(self.outputs, tuple):
            object.__setattr__(self, "outputs", tuple(self.outputs))

    @cached_property
    def txid(self) -> bytes:
        """Internal byte order transaction id (double SHA-256 of the wire form)."""
        from .serialize import serialize_tx  # local import to avoid a cycle

        return crypto.sha256d(serialize_tx(self))

    @property
    def txid_hex(self) -> str:
        """Display (reversed) hex txid, as explorers show it."""
        return self.txid[::-1].hex()

    @property
    def is_coinbase(self) -> bool:
        """True when the transaction mints new coins."""
        return len(self.inputs) == 1 and self.inputs[0].is_coinbase

    @property
    def total_output_value(self) -> int:
        """Sum of output values in satoshis."""
        return sum(out.value for out in self.outputs)

    def output_addresses(self) -> list[str | None]:
        """Addresses paid by each output (``None`` for unrecognized scripts)."""
        return [out.address for out in self.outputs]

    def outpoint(self, vout: int) -> OutPoint:
        """The :class:`OutPoint` referencing output ``vout`` of this tx."""
        if not 0 <= vout < len(self.outputs):
            raise IndexError(f"vout {vout} out of range for {self.txid_hex}")
        return OutPoint(self.txid, vout)

    def __hash__(self) -> int:
        return hash(self.txid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction({self.txid_hex[:16]}…, "
            f"{len(self.inputs)} in, {len(self.outputs)} out)"
        )


@dataclass(frozen=True)
class BlockHeader:
    """80-byte block header, hashed to produce the block id."""

    version: int
    prev_hash: bytes
    merkle_root: bytes
    timestamp: int
    bits: int = 0x1D00FFFF
    nonce: int = 0

    @cached_property
    def hash(self) -> bytes:
        """Internal byte order block hash."""
        from .serialize import serialize_header

        return crypto.sha256d(serialize_header(self))

    @property
    def hash_hex(self) -> str:
        """Display (reversed) hex block hash."""
        return self.hash[::-1].hex()


def merkle_root(txids: list[bytes]) -> bytes:
    """Compute the Bitcoin merkle root over a list of txids.

    Uses Bitcoin's rule of duplicating the last node at odd levels.  An
    empty list is a structural error (every block has a coinbase).
    """
    if not txids:
        raise BlockStructureError("cannot compute merkle root of zero txids")
    level = list(txids)
    while len(level) > 1:
        if len(level) % 2 == 1:
            level.append(level[-1])
        level = [
            crypto.sha256d(level[i] + level[i + 1]) for i in range(0, len(level), 2)
        ]
    return level[0]


@dataclass(frozen=True)
class Block:
    """A block: header plus ordered transactions (coinbase first)."""

    header: BlockHeader
    transactions: tuple[Transaction, ...]
    height: int
    wire: bytes | None = field(default=None, init=False, repr=False, compare=False)
    """The record's wire bytes, seated by the decoder (canonical varints
    are enforced, so they are ``serialize_block(self)``); ``None`` for a
    block built in memory.  The index keeps these bytes instead of the
    object."""

    def __post_init__(self) -> None:
        if not isinstance(self.transactions, tuple):
            object.__setattr__(self, "transactions", tuple(self.transactions))

    @classmethod
    def assemble(
        cls,
        *,
        height: int,
        prev_hash: bytes,
        timestamp: int,
        transactions: list[Transaction] | tuple[Transaction, ...],
        version: int = 2,
        bits: int = 0x1D00FFFF,
        nonce: int = 0,
    ) -> "Block":
        """Build a block with a correct merkle root over ``transactions``."""
        txs = tuple(transactions)
        if not txs:
            raise BlockStructureError("a block must contain a coinbase transaction")
        header = BlockHeader(
            version=version,
            prev_hash=prev_hash,
            merkle_root=merkle_root([tx.txid for tx in txs]),
            timestamp=timestamp,
            bits=bits,
            nonce=nonce,
        )
        return cls(header=header, transactions=txs, height=height)

    @property
    def hash(self) -> bytes:
        """Internal byte order block hash."""
        return self.header.hash

    @property
    def hash_hex(self) -> str:
        """Display hex block hash."""
        return self.header.hash_hex

    @property
    def coinbase(self) -> Transaction:
        """The block's coinbase (first) transaction."""
        return self.transactions[0]

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self.transactions)

    def __len__(self) -> int:
        return len(self.transactions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Block(height={self.height}, {len(self.transactions)} txs)"


GENESIS_PREV_HASH = b"\x00" * 32
"""Previous-hash value of the genesis block."""
