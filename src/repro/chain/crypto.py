"""Hashing, addresses, and deterministic keypairs.

This module provides the cryptographic plumbing the paper's substrate
(a block-chain parser in the spirit of znort987/blockparser) relies on:

* ``sha256d`` / ``hash160`` — Bitcoin's standard double-SHA256 and
  RIPEMD160(SHA256(x)) digests.  When the host OpenSSL lacks RIPEMD160
  (removed in some builds), we substitute a SHA256-based 20-byte digest;
  the substitution is transparent to every caller because nothing in the
  analysis depends on RIPEMD160 specifically, only on a stable 20-byte
  address hash.
* base58check encoding/decoding with version bytes, exactly as Bitcoin
  uses for P2PKH addresses.
* :class:`KeyPair` — a deterministic simulation keypair.  Real ECDSA is
  unnecessary for reproducing the paper (clustering never verifies
  signatures cryptographically; it only reads graph structure), so keys
  are derived by hashing a seed.  Signatures are deterministic MACs that
  :func:`verify` checks, which keeps transaction "signing" meaningful in
  tests without an elliptic-curve dependency.
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass

from .errors import Base58Error

# Version byte for pay-to-pubkey-hash addresses on Bitcoin mainnet.
P2PKH_VERSION = 0x00

_B58_ALPHABET = "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
_B58_INDEX = {c: i for i, c in enumerate(_B58_ALPHABET)}
_B58_PAIRS = [a + b for a in _B58_ALPHABET for b in _B58_ALPHABET]
_B58_LIMB = 58**10  # largest power of 58 below 2**63: limbs stay machine words
_B58_PAIR = 58**2


def sha256(data: bytes) -> bytes:
    """Single SHA-256."""
    return hashlib.sha256(data).digest()


def sha256d(data: bytes) -> bytes:
    """Bitcoin's double SHA-256 (used for txids, block hashes, checksums)."""
    return hashlib.sha256(hashlib.sha256(data).digest()).digest()


def _ripemd160(data: bytes) -> bytes:
    """RIPEMD160 if available, else a truncated SHA256 stand-in."""
    try:
        h = hashlib.new("ripemd160")
    except ValueError:
        # OpenSSL 3 builds often drop legacy digests.  A stable 20-byte
        # digest is all the address layer needs.
        return hashlib.sha256(b"ripemd160:" + data).digest()[:20]
    h.update(data)
    return h.digest()


def hash160(data: bytes) -> bytes:
    """RIPEMD160(SHA256(data)) — the 20-byte pubkey hash in P2PKH."""
    return _ripemd160(sha256(data))


def base58_encode(data: bytes) -> str:
    """Encode raw bytes in base58 (no checksum).

    Works limb-wise: each big-integer division peels off ten digits
    (one ``58**10`` limb), which are then split with small-integer
    arithmetic into five two-character table lookups — about a tenth of
    the big-integer divisions of the digit-at-a-time loop.  Script →
    address extraction runs this once per output the index ingests.
    """
    n = int.from_bytes(data, "big")
    pairs = _B58_PAIRS
    digits = ""
    while n:
        n, limb = divmod(n, _B58_LIMB)
        limb, e = divmod(limb, _B58_PAIR)
        limb, d = divmod(limb, _B58_PAIR)
        limb, c = divmod(limb, _B58_PAIR)
        a, b = divmod(limb, _B58_PAIR)
        digits = f"{pairs[a]}{pairs[b]}{pairs[c]}{pairs[d]}{pairs[e]}{digits}"
    # Leading zero bytes are '1' characters; the top limb's own zero
    # padding (also '1's) is not part of the number.
    pad = len(data) - len(data.lstrip(b"\x00"))
    return "1" * pad + digits.lstrip("1")


def base58_decode(text: str) -> bytes:
    """Decode base58 text to raw bytes (no checksum)."""
    n = 0
    for ch in text:
        if ch not in _B58_INDEX:
            raise Base58Error(f"invalid base58 character {ch!r}")
        n = n * 58 + _B58_INDEX[ch]
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big") if n else b""
    pad = 0
    for ch in text:
        if ch == "1":
            pad += 1
        else:
            break
    return b"\x00" * pad + raw


def base58check_encode(payload: bytes, version: int = P2PKH_VERSION) -> str:
    """Encode ``version || payload || checksum`` in base58."""
    if not 0 <= version <= 0xFF:
        raise Base58Error(f"version byte out of range: {version}")
    body = bytes([version]) + payload
    return base58_encode(body + sha256d(body)[:4])


def base58check_decode(text: str) -> tuple[int, bytes]:
    """Decode base58check text, returning ``(version, payload)``.

    Raises :class:`Base58Error` on bad characters, short input, or a
    checksum mismatch.
    """
    raw = base58_decode(text)
    if len(raw) < 5:
        raise Base58Error("base58check payload too short")
    body, checksum = raw[:-4], raw[-4:]
    if sha256d(body)[:4] != checksum:
        raise Base58Error("base58check checksum mismatch")
    return body[0], body[1:]


def pubkey_to_address(pubkey: bytes, version: int = P2PKH_VERSION) -> str:
    """Derive the P2PKH address string for a public key."""
    return base58check_encode(hash160(pubkey), version)


def pubkey_hash_to_address(pkh: bytes, version: int = P2PKH_VERSION) -> str:
    """Encode a 20-byte pubkey hash as an address string."""
    if len(pkh) != 20:
        raise Base58Error(f"pubkey hash must be 20 bytes, got {len(pkh)}")
    return base58check_encode(pkh, version)


def address_to_pubkey_hash(address: str) -> bytes:
    """Decode an address string back to its 20-byte pubkey hash."""
    version, payload = base58check_decode(address)
    if len(payload) != 20:
        raise Base58Error(f"address payload must be 20 bytes, got {len(payload)}")
    return payload


def is_valid_address(address: str) -> bool:
    """Cheap validity check (alphabet + checksum + payload length)."""
    try:
        address_to_pubkey_hash(address)
    except Base58Error:
        return False
    return True


@dataclass(frozen=True)
class KeyPair:
    """A deterministic simulation keypair.

    The private key is the SHA256 of the seed; the public key is derived
    from the private key by hashing with a domain tag.  ``sign`` produces
    an HMAC over the message keyed by the private key, so signatures are
    deterministic, unforgeable without the seed, and verifiable given the
    keypair — sufficient for structural chain validation.
    """

    privkey: bytes
    pubkey: bytes

    @classmethod
    def from_seed(cls, seed: bytes | str) -> "KeyPair":
        """Derive a keypair deterministically from an arbitrary seed."""
        if isinstance(seed, str):
            seed = seed.encode("utf-8")
        priv = sha256(b"repro-priv:" + seed)
        # 33-byte "compressed pubkey"-shaped value: a 0x02 prefix plus a
        # 32-byte hash, matching the length real compressed keys have.
        pub = b"\x02" + sha256(b"repro-pub:" + priv)
        return cls(privkey=priv, pubkey=pub)

    @property
    def address(self) -> str:
        """The P2PKH address for this keypair."""
        return pubkey_to_address(self.pubkey)

    @property
    def pubkey_hash(self) -> bytes:
        """hash160 of the public key."""
        return hash160(self.pubkey)

    def sign(self, message: bytes) -> bytes:
        """Produce a 32-byte deterministic signature over ``message``."""
        return hmac.new(self.privkey, message, hashlib.sha256).digest()

    def verify(self, message: bytes, signature: bytes) -> bool:
        """Check a signature produced by :meth:`sign`."""
        return hmac.compare_digest(self.sign(message), signature)
