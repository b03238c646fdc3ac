"""Minimal Bitcoin script subset: building and recognizing P2PKH / P2PK.

The clustering heuristics in the paper operate on *addresses*, so the
substrate only needs to (a) lock outputs to an address, (b) recognize the
address an output pays, and (c) carry enough unlocking data that inputs
can be attributed to a public key.  We implement the two output script
templates that covered essentially all transactions in the 2009–2013
block chain the paper studies:

* **P2PKH** — ``OP_DUP OP_HASH160 <20-byte pkh> OP_EQUALVERIFY OP_CHECKSIG``
* **P2PK**  — ``<pubkey> OP_CHECKSIG`` (the form coinbases used early on)

Opcode byte values match Bitcoin's, so serialized scripts are faithful.
"""

from __future__ import annotations

from . import crypto
from .errors import ScriptError

OP_DUP = 0x76
OP_HASH160 = 0xA9
OP_EQUALVERIFY = 0x88
OP_CHECKSIG = 0xAC
OP_RETURN = 0x6A

_PUSH_MAX = 0x4B  # direct push opcodes 0x01..0x4b
_P2PKH_PREFIX = bytes([OP_DUP, OP_HASH160, 20])
_P2PKH_SUFFIX = bytes([OP_EQUALVERIFY, OP_CHECKSIG])


def push_data(data: bytes) -> bytes:
    """Encode a direct data push (only the short form is needed here)."""
    if not data:
        raise ScriptError("refusing to push empty data")
    if len(data) > _PUSH_MAX:
        raise ScriptError(f"push too long for direct opcode: {len(data)} bytes")
    return bytes([len(data)]) + data


def p2pkh_script(pubkey_hash: bytes) -> bytes:
    """Build the canonical pay-to-pubkey-hash locking script."""
    if len(pubkey_hash) != 20:
        raise ScriptError(f"pubkey hash must be 20 bytes, got {len(pubkey_hash)}")
    return (
        bytes([OP_DUP, OP_HASH160])
        + push_data(pubkey_hash)
        + bytes([OP_EQUALVERIFY, OP_CHECKSIG])
    )


def sig_script(signature: bytes, pubkey: bytes) -> bytes:
    """Build the unlocking script ``<sig> <pubkey>`` for a P2PKH input."""
    return push_data(signature) + push_data(pubkey)


def coinbase_script(height: int, extra: bytes = b"") -> bytes:
    """Build a coinbase input script embedding the block height (BIP 34)."""
    if height < 0:
        raise ScriptError("height must be non-negative")
    payload = height.to_bytes(4, "little") + extra
    return push_data(payload[: _PUSH_MAX])


def _is_p2pkh(script_pubkey: bytes) -> bool:
    return (
        len(script_pubkey) == 25
        and script_pubkey[:3] == _P2PKH_PREFIX
        and script_pubkey[23:] == _P2PKH_SUFFIX
    )


def extract_address(script_pubkey: bytes) -> str | None:
    """Return the address a locking script pays, or ``None``.

    P2PKH scripts yield the encoded pubkey hash; P2PK scripts yield the
    address of the embedded public key (matching how block explorers and
    the paper's tooling canonicalize early coinbase outputs).
    """
    # P2PKH first: it is nearly every output the index sees.
    if _is_p2pkh(script_pubkey):
        return crypto.pubkey_hash_to_address(script_pubkey[3:23])
    if (
        len(script_pubkey) >= 3
        and 1 <= script_pubkey[0] <= _PUSH_MAX
        and len(script_pubkey) == script_pubkey[0] + 2
        and script_pubkey[-1] == OP_CHECKSIG
    ):
        return crypto.pubkey_hash_to_address(crypto.hash160(script_pubkey[1:-1]))
    return None
