"""Wire-format round-trips and defensive decoding."""

import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.chain import serialize
from repro.chain.crypto import sha256d
from repro.chain.errors import SerializationError, TruncatedDataError
from repro.chain.model import (
    Block,
    BlockHeader,
    GENESIS_PREV_HASH,
    OutPoint,
    Transaction,
    TxIn,
    TxOut,
)
from repro.chain.serialize import (
    block_from_bytes,
    decode_varint,
    encode_varint,
    serialize_block,
    serialize_tx,
)

from tests.helpers import (
    ByteReader,
    addr,
    coinbase,
    reference_block_from_bytes,
    reference_decode_varint,
    reference_tx_from_bytes,
    spend,
    tx_from_bytes,
)


class TestVarint:
    @pytest.mark.parametrize(
        "value,encoded",
        [
            (0, b"\x00"),
            (0xFC, b"\xfc"),
            (0xFD, b"\xfd\xfd\x00"),
            (0xFFFF, b"\xfd\xff\xff"),
            (0x10000, b"\xfe\x00\x00\x01\x00"),
            (0x100000000, b"\xff\x00\x00\x00\x00\x01\x00\x00\x00"),
        ],
    )
    def test_known_encodings(self, value, encoded):
        assert encode_varint(value) == encoded
        assert decode_varint(encoded) == (value, len(encoded))
        assert reference_decode_varint(ByteReader(encoded)) == value

    def test_negative_rejected(self):
        with pytest.raises(SerializationError):
            encode_varint(-1)

    def test_non_canonical_rejected(self):
        # 5 encoded with the 0xfd form is non-canonical.
        with pytest.raises(SerializationError):
            decode_varint(b"\xfd\x05\x00")

    def test_reads_at_offset_and_stops_at_end(self):
        data = b"\xaa\xfd\x00\x01\xbb"
        assert decode_varint(data, 1) == (0x100, 4)
        with pytest.raises(TruncatedDataError):
            decode_varint(data, 1, 3)  # the u16 payload crosses ``end``
        with pytest.raises(TruncatedDataError):
            decode_varint(data, 5)

    @given(st.integers(min_value=0, max_value=2**64 - 1))
    def test_roundtrip_property(self, value):
        encoded = encode_varint(value)
        assert decode_varint(encoded) == (value, len(encoded))
        assert reference_decode_varint(ByteReader(encoded)) == value


class TestByteReader:
    def test_truncation_error(self):
        reader = ByteReader(b"\x01\x02")
        with pytest.raises(TruncatedDataError):
            reader.read(3)

    def test_sequential_reads(self):
        reader = ByteReader(b"\x01\x02\x03")
        assert reader.read_u8() == 1
        assert reader.read(2) == b"\x02\x03"
        assert reader.remaining == 0


class TestTransactionRoundtrip:
    def test_coinbase_roundtrip(self):
        tx = coinbase(addr("m"))
        again = tx_from_bytes(serialize_tx(tx))
        assert again == tx
        assert again.txid == tx.txid

    def test_multi_io_roundtrip(self):
        cb1, cb2 = coinbase(addr("a")), coinbase(addr("b"))
        tx = spend(
            [(cb1, 0), (cb2, 0)],
            [(addr("x"), 123), (addr("y"), 456), (addr("z"), 789)],
        )
        assert tx_from_bytes(serialize_tx(tx)) == tx

    def test_trailing_bytes_rejected(self):
        raw = serialize_tx(coinbase(addr("m"))) + b"\x00"
        with pytest.raises(SerializationError):
            tx_from_bytes(raw)

    def test_truncated_rejected(self):
        raw = serialize_tx(coinbase(addr("m")))
        with pytest.raises(TruncatedDataError):
            tx_from_bytes(raw[:-2])

    @given(
        st.lists(
            st.tuples(st.integers(0, 2**40), st.integers(0, 50)), min_size=1, max_size=5
        ),
        st.integers(0, 2**31 - 1),
    )
    def test_roundtrip_property(self, outputs, lock_time):
        tx = Transaction(
            inputs=(
                TxIn(prevout=OutPoint(b"\x42" * 32, 7), script_sig=b"\x01\x02"),
            ),
            outputs=tuple(
                TxOut(value=v, script_pubkey=b"\x51" * (n % 20 + 1))
                for v, n in outputs
            ),
            lock_time=lock_time,
        )
        assert tx_from_bytes(serialize_tx(tx)) == tx


class TestBlockRoundtrip:
    def _block(self):
        cb = coinbase(addr("m"))
        child = spend([(cb, 0)], [(addr("x"), 1000)])
        return Block.assemble(
            height=0,
            prev_hash=GENESIS_PREV_HASH,
            timestamp=1_300_000_000,
            transactions=[cb, child],
        )

    def test_roundtrip_preserves_hash(self):
        block = self._block()
        again = block_from_bytes(serialize_block(block), height=0)
        assert again.hash == block.hash
        assert len(again.transactions) == 2

    def test_header_is_80_bytes(self):
        assert len(serialize.serialize_header(self._block().header)) == 80

    def test_trailing_bytes_rejected(self):
        raw = serialize_block(self._block()) + b"junk"
        with pytest.raises(SerializationError):
            block_from_bytes(raw, height=0)


# ----------------------------------------------------------------------
# decoder twin: the offset-based walk == the reference cursor decoder
# ----------------------------------------------------------------------

_U32 = st.integers(min_value=0, max_value=0xFFFFFFFF)
_I32 = st.integers(min_value=-(2**31), max_value=2**31 - 1)
_HASH = st.binary(min_size=32, max_size=32)
# Mostly short scripts, sometimes one whose length needs the 0xfd form.
_SCRIPTS = st.one_of(
    st.binary(max_size=40), st.binary(min_size=0xFD, max_size=0x120)
)


def _blocks(scripts, max_items: int):
    txs = st.builds(
        Transaction,
        inputs=st.lists(
            st.builds(
                TxIn,
                prevout=st.builds(OutPoint, txid=_HASH, vout=_U32),
                script_sig=scripts,
                sequence=_U32,
            ),
            min_size=1,
            max_size=max_items,
        ).map(tuple),
        outputs=st.lists(
            st.builds(
                TxOut,
                value=st.integers(min_value=0, max_value=2**63 - 1),
                script_pubkey=scripts,
            ),
            min_size=1,
            max_size=max_items,
        ).map(tuple),
        version=_I32,
        lock_time=_U32,
    )
    return st.builds(
        Block,
        header=st.builds(
            BlockHeader,
            version=_I32,
            prev_hash=_HASH,
            merkle_root=_HASH,
            timestamp=_U32,
            bits=_U32,
            nonce=_U32,
        ),
        transactions=st.lists(txs, min_size=1, max_size=max_items).map(tuple),
        height=st.just(7),
    )


_BLOCKS = _blocks(_SCRIPTS, 3)
_SMALL_BLOCKS = _blocks(st.binary(max_size=6), 2)
"""Few hundred bytes each: cheap enough to try every prefix."""


def _outcome(decode, raw):
    """What a decoder made of ``raw``: the decoded object, or the
    *class* of the error it raised (messages are free to differ)."""
    try:
        return decode(raw)
    except SerializationError as exc:
        return type(exc)


def _decode_block(raw):
    return block_from_bytes(raw, height=7)


def _reference_decode_block(raw):
    return reference_block_from_bytes(raw, height=7)


def _assert_twin(raw: bytes) -> None:
    assert _outcome(_decode_block, raw) == _outcome(_reference_decode_block, raw)
    assert _outcome(tx_from_bytes, raw) == _outcome(reference_tx_from_bytes, raw)


def _non_canonical(value: int, width: int) -> bytes:
    """``value`` in a varint form ``width`` bytes wider than it needs."""
    prefix, fmt = {2: (b"\xfd", "<H"), 4: (b"\xfe", "<I"), 8: (b"\xff", "<Q")}[width]
    return prefix + struct.pack(fmt, value)


class TestDecoderTwin:
    @given(block=_BLOCKS)
    def test_valid_blocks_decode_identically(self, block):
        raw = serialize_block(block)
        decoded = block_from_bytes(raw, height=7)
        assert decoded == reference_block_from_bytes(raw, height=7) == block
        for tx in decoded.transactions:
            # the seated wire-slice txid is the real one
            assert tx.__dict__["txid"] == sha256d(serialize_tx(tx))

    @given(block=_BLOCKS)
    def test_valid_transactions_decode_identically(self, block):
        for tx in block.transactions:
            raw = serialize_tx(tx)
            decoded = tx_from_bytes(raw)
            assert decoded == reference_tx_from_bytes(raw) == tx
            assert decoded.__dict__["txid"] == sha256d(raw)

    @settings(deadline=None)
    @given(block=_SMALL_BLOCKS)
    def test_every_strict_prefix_fails_the_same_way(self, block):
        raw = serialize_block(block)
        for cut in range(len(raw)):
            _assert_twin(raw[:cut])
        tx_raw = serialize_tx(block.transactions[0])
        for cut in range(len(tx_raw)):
            assert _outcome(tx_from_bytes, tx_raw[:cut]) is TruncatedDataError
            _assert_twin(tx_raw[:cut])

    def test_every_prefix_of_a_wide_length_script(self):
        """Same, across scripts whose lengths take the 0xfd form."""
        parts = _block_parts()
        parts["script_sig"] = encode_varint(0xFD)
        parts["script_sig_body"] = b"\xaa" * 0xFD
        parts["script_pubkey"] = encode_varint(300)
        parts["script_pubkey_body"] = b"\x51" * 300
        raw = b"".join(parts.values())
        assert _decode_block(raw) == _reference_decode_block(raw)
        for cut in range(len(raw)):
            assert _outcome(_decode_block, raw[:cut]) is TruncatedDataError
            _assert_twin(raw[:cut])

    @given(block=_BLOCKS, junk=st.binary(min_size=1, max_size=4))
    def test_trailing_bytes_fail_the_same_way(self, block, junk):
        raw = serialize_block(block) + junk
        assert _outcome(_decode_block, raw) is SerializationError
        _assert_twin(raw)
        _assert_twin(serialize_tx(block.transactions[0]) + junk)

    @settings(deadline=None)
    @given(
        block=_BLOCKS,
        position=st.integers(min_value=0, max_value=10_000),
        byte=st.integers(min_value=0, max_value=255),
    )
    def test_any_one_byte_corruption_fails_the_same_way(self, block, position, byte):
        """Whatever a flipped byte turns into — a huge count, a negative
        value, a non-canonical varint, a shifted frame — both decoders
        agree on the object or on the error class."""
        raw = bytearray(serialize_block(block))
        raw[position % len(raw)] = byte
        _assert_twin(bytes(raw))
        tx_raw = bytearray(serialize_tx(block.transactions[0]))
        tx_raw[position % len(tx_raw)] = byte
        _assert_twin(bytes(tx_raw))

    @pytest.mark.parametrize("width", [2, 4, 8])
    @pytest.mark.parametrize(
        "field", ["n_tx", "n_in", "script_sig", "n_out", "script_pubkey"]
    )
    def test_non_canonical_varint_at_each_width(self, field, width):
        parts = _block_parts()
        parts[field] = _non_canonical(parts[field][0], width)
        raw = b"".join(parts.values())
        assert _outcome(_decode_block, raw) is SerializationError
        _assert_twin(raw)
        # cut inside the widened varint: truncation outranks the form
        cut = raw.index(parts[field]) + 1 + width // 2
        assert _outcome(_decode_block, raw[:cut]) is TruncatedDataError
        _assert_twin(raw[:cut])

    @pytest.mark.parametrize(
        "field,replacement",
        [
            ("value", struct.pack("<q", -1)),
            ("n_tx", b"\x00"),
            ("n_in", b"\x00"),
            ("n_out", b"\x00"),
            ("n_tx", encode_varint(1_000_001)),
            ("n_in", encode_varint(1_000_001)),
            ("n_out", encode_varint(1_000_001)),
            ("script_sig", encode_varint(10_001)),
            ("script_pubkey", encode_varint(10_001)),
        ],
    )
    def test_malformed_fields(self, field, replacement):
        parts = _block_parts()
        parts[field] = replacement
        raw = b"".join(parts.values())
        assert _outcome(_decode_block, raw) is SerializationError
        _assert_twin(raw)
        _assert_twin(raw[80 + len(parts["n_tx"]):])  # the bare transaction

    def test_negative_value_outranks_a_missing_length_byte(self):
        parts = _block_parts()
        parts["value"] = struct.pack("<q", -5)
        raw = b"".join(parts.values())
        cut = raw.index(parts["value"]) + 8
        assert _outcome(_decode_block, raw[:cut]) is SerializationError
        _assert_twin(raw[:cut])
        assert _outcome(_decode_block, raw[: cut - 1]) is TruncatedDataError
        _assert_twin(raw[: cut - 1])


def _block_parts() -> dict[str, bytes]:
    """One single-transaction block as its wire fields, in order, so a
    test can swap one field for a malformed encoding.  Counts and
    lengths are the first byte of their entry."""
    return {
        "header": b"\x02\x00\x00\x00" + b"\x11" * 32 + b"\x22" * 32 + b"\x00" * 12,
        "n_tx": b"\x01",
        "version": b"\x01\x00\x00\x00",
        "n_in": b"\x01",
        "prevout": b"\x33" * 32 + b"\x05\x00\x00\x00",
        "script_sig": b"\x02",
        "script_sig_body": b"\xaa\xbb",
        "sequence": b"\xff\xff\xff\xff",
        "n_out": b"\x01",
        "value": struct.pack("<q", 5_000),
        "script_pubkey": b"\x03",
        "script_pubkey_body": b"\x51\x52\x53",
        "lock_time": b"\x00\x00\x00\x00",
    }
