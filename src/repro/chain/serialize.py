"""Bitcoin wire-format serialization.

Implements the exact byte layout Bitcoin uses for transactions, block
headers, and blocks (little-endian integers, CompactSize varints), so
``sha256d(serialize_tx(tx))`` is a faithful txid and block files written
by :mod:`repro.chain.blockfile` could in principle be inspected by any
Bitcoin block parser.

Decoding is one offset-based walk over the caller's buffer
(:func:`decode_block` / :func:`decode_tx` take ``data, pos, end`` and
return the next offset): fixed-size runs are unpacked with precompiled
:class:`struct.Struct` objects after one bounds check each, varints take
a one-byte fast path, and nothing is copied except the scripts and
hashes the model objects keep.  The walk is defensive — running out of
bytes raises :class:`TruncatedDataError`, anything else malformed
(non-canonical varint, negative value, oversized script, implausible
count) raises :class:`SerializationError`, never ``IndexError`` or
``struct.error``.  Because canonical varints are enforced, the bytes a
transaction was decoded from *are* ``serialize_tx(tx)``, so the decoder
seats ``tx.txid`` from the wire slice instead of leaving every consumer
to re-serialize what was just parsed.
"""

from __future__ import annotations

import struct

from .crypto import sha256d
from .errors import SerializationError, TruncatedDataError
from .model import Block, BlockHeader, OutPoint, Transaction, TxIn, TxOut

_MAX_VARINT = 0xFFFFFFFFFFFFFFFF
_MAX_SCRIPT_LEN = 10_000
_MAX_TX_ITEMS = 1_000_000  # sanity bound on input/output counts

_U32 = struct.Struct("<I")
_I64 = struct.Struct("<q")
# Each fixed-size run ends in the first byte of the varint that follows
# it, so the common (< 0xFD) count or script length costs no second read.
_TX_HEAD = struct.Struct("<iB")  # version | n_in prefix
_TXIN_HEAD = struct.Struct("<32sIB")  # prevout txid, vout | scriptSig length prefix
_TXOUT_HEAD = struct.Struct("<qB")  # value | scriptPubKey length prefix
_BLOCK_HEAD = struct.Struct("<i32s32sIIIB")  # 80-byte header | n_tx prefix

_WIDE_VARINT = {
    0xFD: (struct.Struct("<H"), 0xFD),
    0xFE: (_U32, 0x10000),
    0xFF: (struct.Struct("<Q"), 0x100000000),
}
"""Prefix byte -> (payload layout, smallest value that needs this width)."""


def encode_varint(n: int) -> bytes:
    """Encode a CompactSize unsigned integer."""
    if n < 0 or n > _MAX_VARINT:
        raise SerializationError(f"varint out of range: {n}")
    if n < 0xFD:
        return bytes([n])
    if n <= 0xFFFF:
        return b"\xfd" + struct.pack("<H", n)
    if n <= 0xFFFFFFFF:
        return b"\xfe" + struct.pack("<I", n)
    return b"\xff" + struct.pack("<Q", n)


def _truncated(what: str, pos: int, end: int) -> TruncatedDataError:
    return TruncatedDataError(
        f"ran out of bytes in {what} at offset {pos} ({end - pos} left)"
    )


def _wide_varint(data: bytes, pos: int, end: int) -> tuple[int, int]:
    """Finish a varint whose prefix byte ``data[pos - 1]`` is >= 0xFD."""
    layout, minimum = _WIDE_VARINT[data[pos - 1]]
    stop = pos + layout.size
    if stop > end:
        raise _truncated("varint", pos, end)
    (value,) = layout.unpack_from(data, pos)
    if value < minimum:
        raise SerializationError(f"non-canonical varint encoding of {value}")
    return value, stop


def decode_varint(
    data: bytes, pos: int = 0, end: int | None = None
) -> tuple[int, int]:
    """Decode the CompactSize integer at ``data[pos:end]``, rejecting
    non-canonical forms.  Returns ``(value, next offset)``."""
    if end is None:
        end = len(data)
    if pos >= end:
        raise _truncated("varint", pos, end)
    prefix = data[pos]
    if prefix < 0xFD:
        return prefix, pos + 1
    return _wide_varint(data, pos + 1, end)


def _script_span(
    data: bytes, length: int, pos: int, end: int, what: str
) -> tuple[int, int]:
    """Bounds of a script whose length prefix byte was ``length`` and
    whose body (or wide length) starts at ``pos``: ``(start, stop)``."""
    if length >= 0xFD:
        length, pos = _wide_varint(data, pos, end)
    if length > _MAX_SCRIPT_LEN:
        raise SerializationError(f"{what} length {length} exceeds {_MAX_SCRIPT_LEN}")
    return pos, pos + length


def _encode_script(script: bytes) -> bytes:
    return encode_varint(len(script)) + script


def serialize_txin(txin: TxIn) -> bytes:
    """Serialize one transaction input."""
    return (
        txin.prevout.txid
        + struct.pack("<I", txin.prevout.vout)
        + _encode_script(txin.script_sig)
        + struct.pack("<I", txin.sequence)
    )


def serialize_txout(txout: TxOut) -> bytes:
    """Serialize one transaction output."""
    if txout.value < 0:
        raise SerializationError(f"negative output value {txout.value}")
    return struct.pack("<q", txout.value) + _encode_script(txout.script_pubkey)


def serialize_tx(tx: Transaction) -> bytes:
    """Serialize a transaction in the legacy (pre-segwit) wire format."""
    parts = [struct.pack("<i", tx.version), encode_varint(len(tx.inputs))]
    parts.extend(serialize_txin(txin) for txin in tx.inputs)
    parts.append(encode_varint(len(tx.outputs)))
    parts.extend(serialize_txout(txout) for txout in tx.outputs)
    parts.append(struct.pack("<I", tx.lock_time))
    return b"".join(parts)


def decode_tx(data: bytes, pos: int, end: int) -> tuple[Transaction, int]:
    """Decode the transaction starting at ``data[pos]`` (reading no
    further than ``end``) and seat its txid from the wire slice.
    Returns ``(transaction, next offset)``."""
    start = pos
    pos += _TX_HEAD.size
    if pos > end:
        raise _truncated("transaction header", start, end)
    version, n_in = _TX_HEAD.unpack_from(data, start)
    if n_in >= 0xFD:
        n_in, pos = _wide_varint(data, pos, end)
    if n_in == 0 or n_in > _MAX_TX_ITEMS:
        raise SerializationError(f"implausible input count {n_in}")
    inputs = []
    for _ in range(n_in):
        body = pos + _TXIN_HEAD.size
        if body > end:
            raise _truncated("transaction input", pos, end)
        prev_txid, prev_vout, length = _TXIN_HEAD.unpack_from(data, pos)
        body, pos = _script_span(data, length, body, end, "scriptSig")
        if pos + 4 > end:
            raise _truncated("scriptSig", body, end)
        (sequence,) = _U32.unpack_from(data, pos)
        inputs.append(TxIn(OutPoint(prev_txid, prev_vout), data[body:pos], sequence))
        pos += 4
    n_out, pos = decode_varint(data, pos, end)
    if n_out == 0 or n_out > _MAX_TX_ITEMS:
        raise SerializationError(f"implausible output count {n_out}")
    outputs = []
    for _ in range(n_out):
        body = pos + _TXOUT_HEAD.size
        if body > end:
            # A negative value outranks the missing length byte.
            if pos + 8 <= end and _I64.unpack_from(data, pos)[0] < 0:
                raise SerializationError("negative output value")
            raise _truncated("transaction output", pos, end)
        value, length = _TXOUT_HEAD.unpack_from(data, pos)
        if value < 0:
            raise SerializationError(f"negative output value {value}")
        body, pos = _script_span(data, length, body, end, "scriptPubKey")
        if pos > end:
            raise _truncated("scriptPubKey", body, end)
        outputs.append(TxOut(value, data[body:pos]))
    if pos + 4 > end:
        raise _truncated("lock time", pos, end)
    (lock_time,) = _U32.unpack_from(data, pos)
    tx = Transaction(tuple(inputs), tuple(outputs), version, lock_time)
    pos += 4
    # Canonical varints were enforced above, so data[start:pos] is
    # byte-for-byte serialize_tx(tx): pre-warm the cached txid from it.
    tx.__dict__["txid"] = sha256d(data[start:pos])
    return tx, pos


def serialize_header(header: BlockHeader) -> bytes:
    """Serialize the 80-byte block header."""
    return (
        struct.pack("<i", header.version)
        + header.prev_hash
        + header.merkle_root
        + struct.pack("<III", header.timestamp, header.bits, header.nonce)
    )


def serialize_block(block: Block) -> bytes:
    """Serialize header + tx count + transactions."""
    parts = [serialize_header(block.header), encode_varint(len(block.transactions))]
    parts.extend(serialize_tx(tx) for tx in block.transactions)
    return b"".join(parts)


def decode_block(
    data: bytes, pos: int, end: int, *, height: int
) -> tuple[Block, int]:
    """Decode the block starting at ``data[pos]``, reading no further
    than ``end``, and seat its wire bytes on it (``block.wire``).
    ``height`` is supplied by the caller (block files don't embed it;
    readers track it positionally, as real parsers do).  Returns
    ``(block, next offset)``."""
    start = pos
    pos += _BLOCK_HEAD.size
    if pos > end:
        raise _truncated("block header", start, end)
    version, prev_hash, merkle_root_, timestamp, bits, nonce, n_tx = (
        _BLOCK_HEAD.unpack_from(data, start)
    )
    if n_tx >= 0xFD:
        n_tx, pos = _wide_varint(data, pos, end)
    if n_tx == 0 or n_tx > _MAX_TX_ITEMS:
        raise SerializationError(f"implausible transaction count {n_tx}")
    txs = []
    for _ in range(n_tx):
        tx, pos = decode_tx(data, pos, end)
        txs.append(tx)
    header = BlockHeader(version, prev_hash, merkle_root_, timestamp, bits, nonce)
    block = Block(header, tuple(txs), height)
    # As for txids: canonical varints make data[start:pos] the block's
    # serialization, so the index can keep these bytes, not the objects.
    object.__setattr__(block, "wire", data[start:pos])
    return block, pos


def block_from_bytes(data: bytes, *, height: int) -> Block:
    """Decode a block from a standalone byte string."""
    block, pos = decode_block(data, 0, len(data), height=height)
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} trailing bytes after block")
    return block
