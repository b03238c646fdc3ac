"""Unit tests for the script subset."""

import pytest

from repro.chain import crypto, script
from repro.chain.errors import ScriptError

from tests.helpers import address_of, p2pkh_script_for_address, parse_sig_script


class TestP2PKH:
    def test_build_shape(self):
        pkh = b"\x11" * 20
        spk = script.p2pkh_script(pkh)
        assert len(spk) == 25
        assert spk[0] == script.OP_DUP
        assert spk[-1] == script.OP_CHECKSIG
        assert spk[3:23] == pkh

    def test_classify(self):
        spk = script.p2pkh_script(b"\x22" * 20)
        assert script.extract_address(spk) == crypto.pubkey_hash_to_address(
            b"\x22" * 20
        )

    def test_extract_address_roundtrip(self):
        address = address_of(crypto.KeyPair.from_seed("p2pkh"))
        spk = p2pkh_script_for_address(address)
        assert script.extract_address(spk) == address

    def test_bad_hash_length_rejected(self):
        with pytest.raises(ScriptError):
            script.p2pkh_script(b"\x00" * 19)


class TestP2PK:
    def test_extract(self):
        keypair = crypto.KeyPair.from_seed("p2pk")
        spk = script.push_data(keypair.pubkey) + bytes([script.OP_CHECKSIG])
        assert script.extract_address(spk) == address_of(keypair)


class TestOther:
    def test_op_return_classified(self):
        assert script.extract_address(bytes([script.OP_RETURN]) + b"data") is None

    def test_garbage_pays_no_address(self):
        assert script.extract_address(b"\xff\xfe\xfd") is None

    def test_push_data_limits(self):
        with pytest.raises(ScriptError):
            script.push_data(b"")
        with pytest.raises(ScriptError):
            script.push_data(b"\x00" * 76)


class TestSigScript:
    def test_roundtrip(self):
        keypair = crypto.KeyPair.from_seed("sig")
        signature = keypair.sign(b"tx")
        ss = script.sig_script(signature, keypair.pubkey)
        got_sig, got_pub = parse_sig_script(ss)
        assert got_sig == signature
        assert got_pub == keypair.pubkey


class TestCoinbaseScript:
    def test_embeds_height(self):
        ss = script.coinbase_script(12345, extra=b"pool")
        assert (12345).to_bytes(4, "little") in ss

    def test_negative_height_rejected(self):
        with pytest.raises(ScriptError):
            script.coinbase_script(-1)
