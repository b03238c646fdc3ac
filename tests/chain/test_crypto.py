"""Unit tests for hashing, base58check encoding (checked against the
reference decoder in ``tests/helpers.py``), and simulation keypairs."""

import hashlib
import hmac

import pytest
from hypothesis import given, strategies as st

from repro.chain import crypto
from repro.chain.errors import Base58Error

from tests.helpers import address_of, base58_decode, base58check_decode


class TestHashes:
    def test_sha256d_known_vector(self):
        # sha256d("") = sha256(sha256(""))
        assert crypto.sha256d(b"").hex() == (
            "5df6e0e2761359d30a8275058e299fcc0381534545f55cf43e41983f5d4c9456"
        )

    def test_hash160_is_20_bytes(self):
        assert len(crypto.hash160(b"pubkey")) == 20

    def test_hash160_deterministic(self):
        assert crypto.hash160(b"x") == crypto.hash160(b"x")
        assert crypto.hash160(b"x") != crypto.hash160(b"y")


class TestBase58Check:
    def test_roundtrip(self):
        payload = bytes(range(20))
        encoded = crypto.base58check_encode(payload, version=0)
        version, decoded = base58check_decode(encoded)
        assert version == 0
        assert decoded == payload

    def test_leading_zeros_preserved(self):
        payload = b"\x00\x00\x01\x02" + b"\x07" * 16
        encoded = crypto.base58check_encode(payload)
        _version, decoded = base58check_decode(encoded)
        assert decoded == payload

    def test_mainnet_p2pkh_addresses_start_with_1(self):
        address = crypto.pubkey_hash_to_address(b"\x00" * 20)
        assert address.startswith("1")

    def test_checksum_detects_corruption(self):
        address = address_of(crypto.KeyPair.from_seed("x"))
        # Flip one character to another alphabet character.
        tampered = address[:-1] + ("2" if address[-1] != "2" else "3")
        raw = base58_decode(tampered)
        assert crypto.sha256d(raw[:-4])[:4] != raw[-4:]

    def test_is_valid_address(self):
        for seed in ("valid", "", "x" * 100):
            address = address_of(crypto.KeyPair.from_seed(seed))
            assert not set(address) & set("0OIl")  # outside the alphabet
            raw = base58_decode(address)
            assert len(raw) == 25  # version, 20-byte hash, checksum
            assert crypto.sha256d(raw[:21])[:4] == raw[21:]

    def test_version_byte_out_of_range(self):
        with pytest.raises(Base58Error):
            crypto.base58check_encode(b"\x00" * 20, version=300)

    @given(st.binary(min_size=0, max_size=64))
    def test_base58_roundtrip_property(self, data):
        assert base58_decode(crypto.base58_encode(data)) == data

    @given(
        st.integers(min_value=0, max_value=6),
        st.binary(min_size=0, max_size=64),
    )
    def test_limbwise_encoder_equals_digit_at_a_time(self, zeros, tail):
        """The production encoder peels ten digits per big-int division;
        the textbook loop peels one.  Same string, including around limb
        boundaries (lengths that are multiples of ten digits) and any
        run of leading zero bytes."""
        data = b"\x00" * zeros + tail
        n = int.from_bytes(data, "big")
        digits = []
        while n:
            n, rem = divmod(n, 58)
            digits.append(crypto._B58_ALPHABET[rem])
        pad = len(data) - len(data.lstrip(b"\x00"))
        assert crypto.base58_encode(data) == "1" * pad + "".join(reversed(digits))

    def test_known_address_vector(self):
        # hash160 of the all-zero pubkey hash: the well-known burn address.
        assert (
            crypto.pubkey_hash_to_address(b"\x00" * 20)
            == "1111111111111111111114oLvT2"
        )

    @given(st.binary(min_size=20, max_size=20), st.integers(0, 255))
    def test_base58check_roundtrip_property(self, payload, version):
        encoded = crypto.base58check_encode(payload, version)
        assert base58check_decode(encoded) == (version, payload)


class TestKeyPair:
    def test_deterministic_from_seed(self):
        a = crypto.KeyPair.from_seed("alice")
        b = crypto.KeyPair.from_seed("alice")
        assert a == b
        assert address_of(a) == address_of(b)

    def test_distinct_seeds_distinct_keys(self):
        assert address_of(crypto.KeyPair.from_seed("alice")) != address_of(
            crypto.KeyPair.from_seed("bob")
        )

    def test_string_and_bytes_seeds_agree(self):
        assert crypto.KeyPair.from_seed("s") == crypto.KeyPair.from_seed(b"s")

    def test_pubkey_shape(self):
        keypair = crypto.KeyPair.from_seed("shape")
        assert len(keypair.pubkey) == 33
        assert keypair.pubkey[0] == 0x02

    def test_sign_verify(self):
        keypair = crypto.KeyPair.from_seed("signer")
        signature = keypair.sign(b"message")
        assert signature == hmac.new(
            keypair.privkey, b"message", hashlib.sha256
        ).digest()
        assert keypair.sign(b"message") == signature
        assert keypair.sign(b"other message") != signature

    def test_signature_not_verifiable_by_other_key(self):
        a = crypto.KeyPair.from_seed("a")
        b = crypto.KeyPair.from_seed("b")
        assert b.sign(b"m") != a.sign(b"m")

    def test_address_matches_pubkey_hash(self):
        keypair = crypto.KeyPair.from_seed("addr")
        assert keypair.pubkey_hash == crypto.hash160(keypair.pubkey)
        assert base58check_decode(address_of(keypair)) == (
            crypto.P2PKH_VERSION,
            keypair.pubkey_hash,
        )
