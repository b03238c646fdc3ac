"""Hand-crafted chain construction utilities for tests.

Tests of the heuristics need precise control over transaction shape
(which output is fresh, who self-changes, what arrives later), so these
helpers build raw transactions and blocks directly, bypassing the
economy.  Signatures are not validated by the index, which keeps the
fixtures compact.
"""

from __future__ import annotations

import struct

from repro.chain import script
from repro.chain.crypto import KeyPair
from repro.chain.index import ChainIndex
from repro.chain.errors import SerializationError, TruncatedDataError
from repro.chain.model import (
    Block,
    BlockHeader,
    COIN,
    COINBASE_TXID,
    COINBASE_VOUT,
    GENESIS_PREV_HASH,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
)

GENESIS_TIME = 1_293_840_000
BLOCK_INTERVAL = 600


def addr(label: str) -> str:
    """A deterministic address for a test label."""
    return KeyPair.from_seed(f"test/{label}").address


def coinbase(address: str, value: int = 50 * COIN, *, height: int = 0) -> Transaction:
    """A coinbase transaction paying one address."""
    return Transaction(
        inputs=(
            TxIn(
                prevout=OutPoint(COINBASE_TXID, COINBASE_VOUT),
                script_sig=script.coinbase_script(height),
            ),
        ),
        outputs=(
            TxOut(value=value, script_pubkey=script.p2pkh_script_for_address(address)),
        ),
    )


def spend(
    sources: list[tuple[Transaction, int]],
    outputs: list[tuple[str, int]],
) -> Transaction:
    """A transaction spending ``(tx, vout)`` sources into ``(addr, value)``
    outputs.  Script sigs are dummies (the index does not verify)."""
    return Transaction(
        inputs=tuple(
            TxIn(prevout=OutPoint(tx.txid, vout), script_sig=b"\x01\xaa\x01\xbb")
            for tx, vout in sources
        ),
        outputs=tuple(
            TxOut(
                value=value,
                script_pubkey=script.p2pkh_script_for_address(address),
            )
            for address, value in outputs
        ),
    )


def build_chain(
    tx_blocks: list[list[Transaction]],
    *,
    start_time: int = GENESIS_TIME,
    block_interval: int = BLOCK_INTERVAL,
    miner_label: str = "miner",
) -> ChainIndex:
    """Index a chain whose block ``i`` contains ``tx_blocks[i]``.

    Each block automatically gets its own coinbase (to a per-height
    miner address) so the structure is always valid.
    """
    index = ChainIndex()
    prev = GENESIS_PREV_HASH
    for height, txs in enumerate(tx_blocks):
        cb = coinbase(addr(f"{miner_label}/{height}"), height=height)
        block = Block.assemble(
            height=height,
            prev_hash=prev,
            timestamp=start_time + height * block_interval,
            transactions=[cb, *txs],
        )
        index.add_block(block)
        prev = block.hash
    return index


def reference_find_candidate(index: ChainIndex, tx: Transaction, height: int):
    """Heuristic 2's four base conditions, the long way: address
    strings, per-output history scans and block positions — the oracle
    for the id/row-space :func:`repro.core.heuristic2.find_candidate`."""
    if tx.is_coinbase:
        return None, "coinbase"
    if len(tx.outputs) < 2:
        return None, "too_few_outputs"
    input_addresses = set(index.input_addresses(tx))
    output_addresses = [out.address for out in tx.outputs]
    if any(a in input_addresses for a in output_addresses if a):
        return None, "self_change"
    this_pos = index.location(tx.txid).index_in_block
    fresh = []
    for vout, address in enumerate(output_addresses):
        if address is None:
            continue
        earlier = [
            r
            for r in index.address(address).receives
            if r.height < height
            or (
                r.height == height
                and (
                    index.location(r.txid).index_in_block < this_pos
                    or (r.txid == tx.txid and r.vout < vout)
                )
            )
        ]
        if not earlier:
            fresh.append(vout)
    if not fresh:
        return None, "no_fresh_output"
    if len(fresh) > 1:
        return None, "ambiguous"
    return fresh[0], "ok"


# ----------------------------------------------------------------------
# reference wire decoder (the oracle for repro.chain.serialize)
# ----------------------------------------------------------------------
#
# The cursor-based decoder the library shipped before the offset-based
# walk in ``repro.chain.serialize`` replaced it: one bounds-checked read
# per field, txids left to ``Transaction.txid`` (a re-serialization).
# Slow and obviously right; ``tests/chain/test_serialize.py`` pins the
# production decoder to it — same objects, same txids, same exception
# class on every malformed input.

_MAX_SCRIPT_LEN = 10_000
_MAX_TX_ITEMS = 1_000_000


class ByteReader:
    """A bounds-checked cursor over immutable bytes."""

    __slots__ = ("_data", "_pos")

    def __init__(self, data: bytes, pos: int = 0) -> None:
        self._data = data
        self._pos = pos

    @property
    def pos(self) -> int:
        return self._pos

    @property
    def remaining(self) -> int:
        return len(self._data) - self._pos

    def read(self, n: int) -> bytes:
        """Read exactly ``n`` bytes or raise :class:`TruncatedDataError`."""
        if n < 0:
            raise SerializationError(f"negative read length {n}")
        if self.remaining < n:
            raise TruncatedDataError(
                f"wanted {n} bytes at offset {self._pos}, only {self.remaining} left"
            )
        out = self._data[self._pos : self._pos + n]
        self._pos += n
        return out

    def read_u8(self) -> int:
        return self.read(1)[0]

    def read_u16(self) -> int:
        return struct.unpack("<H", self.read(2))[0]

    def read_u32(self) -> int:
        return struct.unpack("<I", self.read(4))[0]

    def read_u64(self) -> int:
        return struct.unpack("<Q", self.read(8))[0]

    def read_i64(self) -> int:
        return struct.unpack("<q", self.read(8))[0]


def reference_decode_varint(reader: ByteReader) -> int:
    """Decode a CompactSize unsigned integer, rejecting non-canonical forms."""
    prefix = reader.read_u8()
    if prefix < 0xFD:
        return prefix
    if prefix == 0xFD:
        value = reader.read_u16()
        minimum = 0xFD
    elif prefix == 0xFE:
        value = reader.read_u32()
        minimum = 0x10000
    else:
        value = reader.read_u64()
        minimum = 0x100000000
    if value < minimum:
        raise SerializationError(f"non-canonical varint encoding of {value}")
    return value


def _reference_decode_script(reader: ByteReader, *, what: str) -> bytes:
    length = reference_decode_varint(reader)
    if length > _MAX_SCRIPT_LEN:
        raise SerializationError(f"{what} length {length} exceeds {_MAX_SCRIPT_LEN}")
    return reader.read(length)


def _reference_deserialize_txin(reader: ByteReader) -> TxIn:
    txid = reader.read(32)
    vout = reader.read_u32()
    script_sig = _reference_decode_script(reader, what="scriptSig")
    sequence = reader.read_u32()
    return TxIn(prevout=OutPoint(txid, vout), script_sig=script_sig, sequence=sequence)


def _reference_deserialize_txout(reader: ByteReader) -> TxOut:
    value = reader.read_i64()
    if value < 0:
        raise SerializationError(f"negative output value {value}")
    script_pubkey = _reference_decode_script(reader, what="scriptPubKey")
    return TxOut(value=value, script_pubkey=script_pubkey)


def reference_deserialize_tx(reader: ByteReader) -> Transaction:
    version = struct.unpack("<i", reader.read(4))[0]
    n_in = reference_decode_varint(reader)
    if n_in == 0 or n_in > _MAX_TX_ITEMS:
        raise SerializationError(f"implausible input count {n_in}")
    inputs = tuple(_reference_deserialize_txin(reader) for _ in range(n_in))
    n_out = reference_decode_varint(reader)
    if n_out == 0 or n_out > _MAX_TX_ITEMS:
        raise SerializationError(f"implausible output count {n_out}")
    outputs = tuple(_reference_deserialize_txout(reader) for _ in range(n_out))
    lock_time = reader.read_u32()
    return Transaction(
        inputs=inputs, outputs=outputs, version=version, lock_time=lock_time
    )


def reference_tx_from_bytes(data: bytes) -> Transaction:
    reader = ByteReader(data)
    tx = reference_deserialize_tx(reader)
    if reader.remaining:
        raise SerializationError(f"{reader.remaining} trailing bytes after transaction")
    return tx


def reference_block_from_bytes(data: bytes, *, height: int) -> Block:
    reader = ByteReader(data)
    version = struct.unpack("<i", reader.read(4))[0]
    prev_hash = reader.read(32)
    merkle_root_ = reader.read(32)
    timestamp, bits, nonce = struct.unpack("<III", reader.read(12))
    header = BlockHeader(
        version=version,
        prev_hash=prev_hash,
        merkle_root=merkle_root_,
        timestamp=timestamp,
        bits=bits,
        nonce=nonce,
    )
    n_tx = reference_decode_varint(reader)
    if n_tx == 0 or n_tx > _MAX_TX_ITEMS:
        raise SerializationError(f"implausible transaction count {n_tx}")
    txs = tuple(reference_deserialize_tx(reader) for _ in range(n_tx))
    if reader.remaining:
        raise SerializationError(f"{reader.remaining} trailing bytes after block")
    return Block(header=header, transactions=txs, height=height)
