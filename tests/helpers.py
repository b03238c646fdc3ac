"""Hand-crafted chain construction utilities for tests.

Tests of the heuristics need precise control over transaction shape
(which output is fresh, who self-changes, what arrives later), so these
helpers build raw transactions and blocks directly, bypassing the
economy.  Signatures are not validated by the index, which keeps the
fixtures compact.
"""

from __future__ import annotations

import hashlib
import json
import struct
from collections import Counter, defaultdict
from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Hashable, Iterable, Iterator

import numpy as np

from repro.chain import script
from repro.chain.crypto import KeyPair, pubkey_hash_to_address, sha256d
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
from repro.chain.serialize import decode_tx, serialize_block
from repro.simulation import large_scale_blocks, scenarios
from repro.storage.manifest import MANIFEST_NAME
from repro.storage.segments import write_segment
from repro.tagging.sources import analyst_tags, manual_theft_tags

GENESIS_TIME = 1_293_840_000
BLOCK_INTERVAL = 600


GOLDEN_WORLDS = {
    # the session fixtures of tests/conftest.py
    "micro_world": lambda: scenarios.micro_economy(seed=11),
    "default_world": lambda: scenarios.default_economy(
        seed=5, n_blocks=400, n_users=40
    ),
    "silkroad_world": lambda: scenarios.silkroad_world(
        seed=3, n_blocks=900, n_users=50, chain_hops=60
    ),
    # the economy the end-to-end benchmark's tagged workloads generate
    "e2e_economy": lambda: scenarios.default_economy(0, n_blocks=400),
    # the fixtures of benchmarks/conftest.py, checked by the bench pass
    "bench_silkroad_world": lambda: scenarios.silkroad_world(seed=1, n_blocks=1200),
    "bench_theft_world": lambda: scenarios.theft_world(seed=2),
}
"""Every world ``tests/golden/worlds.json`` pins, by name."""

GOLDEN_WORLDS_PATH = Path(__file__).parent / "golden" / "worlds.json"


def golden_world_digests() -> dict[str, str]:
    """The pinned :func:`world_digest` of each :data:`GOLDEN_WORLDS` entry."""
    return json.loads(GOLDEN_WORLDS_PATH.read_text())


def world_digest(world) -> str:
    """One sha256 over everything a seeded world generates: every
    block's wire bytes, every tag the analyst holds (the attack's own,
    the public crawl and the curated theft tags, each as address,
    entity, source, confidence and observed height), the ground-truth
    owner map with each entity's category, and the change truth.

    ``tests/golden/worlds.json`` pins it per world; a generator change
    that alters any byte of a world shows up as a digest diff.
    """
    digest = hashlib.sha256()

    def record(*fields) -> None:
        digest.update(repr(fields).encode())
        digest.update(b"\n")

    for block in world.blocks:
        digest.update(serialize_block(block))
    record("tags")
    for tag in analyst_tags(world).export_state():
        record(*tag)
    for tag in manual_theft_tags(world).export_state():
        record(*tag)
    truth = world.ground_truth
    record("owners")
    for address, owner in sorted(
        (address, entity)
        for entity, addresses in truth.true_partition().items()
        for address in addresses
    ):
        record(address, owner)
    record("entities")
    for info in sorted(truth.entities(), key=lambda info: info.name):
        record(info.name, info.category)
    record("change")
    for txid, change in sorted(world.economy.change_truth.items()):
        record(txid.hex(), change.change_address, change.change_kind, change.change_vout)
    return digest.hexdigest()


GOLDEN_ANSWERS_PATH = Path(__file__).parent / "golden" / "answers.json"

ANSWER_CHAINS = {
    **{
        name: (lambda build=build: world_answer_inputs(build()))
        for name, build in GOLDEN_WORLDS.items()
    },
    # untagged: no names, no dice, no H2 labels
    "scale_120": lambda: {"blocks": list(large_scale_blocks(120))},
}
"""Every chain ``tests/golden/answers.json`` pins, by name: the
:func:`answer_digests` keyword arguments that build it."""


def golden_answer_digests() -> dict[str, dict[str, str]]:
    """The pinned :func:`answer_digests` of each :data:`ANSWER_CHAINS` entry."""
    return json.loads(GOLDEN_ANSWERS_PATH.read_text())


def world_answer_inputs(world) -> dict:
    """A world's blocks with the analyst's tags and dice set, the way
    :meth:`~repro.service.ForensicsService.from_world` reads them."""
    from repro.core.heuristic2 import dice_addresses_from_tags
    from repro.simulation.params import DICE_GAMES

    tags = analyst_tags(world)
    return {
        "blocks": world.blocks,
        "tags": tags,
        "dice_addresses": dice_addresses_from_tags(tags, DICE_GAMES),
    }


def _canonical_partition(partition) -> bytes:
    """Per address id its cluster's minimum member id, as bytes: the
    partition whatever its roots and union order."""
    forest = partition._uf
    ids = np.arange(len(forest), dtype="<i8")
    roots = forest.find_many(ids)
    least = np.full(len(forest), len(forest), dtype="<i8")
    np.minimum.at(least, roots, ids)
    return least[roots].tobytes()


def answer_digests(
    blocks, *, tags=None, dice_addresses=frozenset(), sample: int = 12, seed: int = 0
) -> dict[str, str]:
    """One sha256 per part of everything the chain's analyses answer:

    * ``deltas``: every streamed :class:`~repro.chain.delta.BlockDelta`
      (block hash, the six columns with their dtype, ``minted``,
      ``max_id``, each transaction's coinbase flag and ids);
      ``deltas_catch_up`` / ``deltas_restored`` the same read by a
      catch-up subscriber and by ``block_delta(h)`` on a restored index;
    * ``labels``: every H2 label with its fate (voided or settled
      height, deadline, endpoints);
    * ``cluster_count_series``: every point;
    * ``partitions``: ``cluster_as_of`` and ``cluster_h1_as_of`` at
      every height;
    * ``answers_tip`` / ``answers_built``: the four cluster kinds at
      every height over ``sample`` seeded addresses (and
      ``top_clusters`` by each metric), asked at the tip as each block
      arrives and asked of that height after the whole chain is in;
    * ``segment:<name>``: every segment of a snapshot at the tip.

    ``tests/golden/answers.json`` pins them per :data:`ANSWER_CHAINS`
    entry; a change that alters any answer shows up as a digest diff.
    """
    import pickle
    import random
    import tempfile

    from repro.service import ForensicsService, Query
    from repro.service.queries import TOP_CLUSTER_METRICS
    from repro.storage import StateStore

    hashes = defaultdict(hashlib.sha256)

    def record(part: str, *fields) -> None:
        hashes[part].update(repr(fields).encode())
        hashes[part].update(b"\n")

    def record_delta(part: str, delta) -> None:
        record(part, delta.height, delta.block.hash, delta.minted, delta.max_id)
        for name in ("event_ids", "event_values", "involved_ids",
                     "involved_flat", "h1_a", "h1_b"):
            column = getattr(delta, name)
            record(part, name, column.dtype.str, column.tobytes())
        for txd in delta.txs:
            record(part, txd.tx.txid, txd.is_coinbase, txd.input_ids, txd.output_ids)

    addresses = sorted({
        out.address
        for block in blocks
        for tx in block.transactions
        for out in tx.outputs
        if out.address is not None
    })
    chosen = random.Random(seed).sample(addresses, min(sample, len(addresses)))
    top_n = 100  # ties and their order included

    def ask(part: str, service, height=None) -> None:
        at = () if height is None else (height,)
        for address in chosen:
            for kind in ("cluster_of", "cluster_balance", "cluster_profile"):
                record(part, kind, address, service.answer(Query(kind, (address, *at))))
        for by in TOP_CLUSTER_METRICS:
            record(part, by, service.answer(Query("top_clusters", (top_n, by, *at))))

    options = {"tags": tags, "dice_addresses": dice_addresses}
    index = ChainIndex()
    service = ForensicsService(index, **options)
    index.subscribe_deltas(lambda delta: record_delta("deltas", delta))
    for block in blocks:
        index.add_block(block)
        ask("answers_tip", service)
    index.catch_up(lambda delta: record_delta("deltas_catch_up", delta), -1)
    restored = ChainIndex.restore_state(pickle.loads(pickle.dumps(index.export_state())))
    for height in range(restored.height + 1):
        record_delta("deltas_restored", restored.block_delta(height))

    engine = service.engine
    record("labels", len(engine._labels))
    for live in engine._labels:
        label = live.label
        record(
            "labels", label.txid, label.vout, label.address, label.height,
            live.address_id, live.input_id, live.deadline, live.voided_at,
            live.settled_at,
        )
    for point in engine.cluster_count_series():
        record("cluster_count_series", *astuple(point))
    for height in range(index.height + 1):
        record("partitions", height,
               _canonical_partition(engine.cluster_as_of(height).uf),
               _canonical_partition(engine.cluster_h1_as_of(height).uf))

    built = ForensicsService(restored, **options)
    for height in range(restored.height + 1):
        ask("answers_built", built, height)

    with tempfile.TemporaryDirectory() as root:
        snapshot = StateStore(root, clock=lambda: 0.0).snapshot(service)
        for path in sorted(snapshot.glob("*.seg")):
            hashes[f"segment:{path.stem}"].update(path.read_bytes())
    return {part: digest.hexdigest() for part, digest in sorted(hashes.items())}


def address_of(keypair: KeyPair) -> str:
    """The P2PKH address paying ``keypair``."""
    return pubkey_hash_to_address(keypair.pubkey_hash)


def utxo_count(index: ChainIndex) -> int:
    """Unspent outputs: every spend row consumed exactly one receive row."""
    return len(index._recv_addr) - len(index._spend_tx)


def utxo_value(index: ChainIndex) -> int:
    """Satoshis in the UTXO set: receive rows no spend row consumed."""
    return sum(
        value
        for value, spender in zip(index._recv_value, index._recv_spender)
        if spender < 0
    )


def tx_from_bytes(data: bytes) -> Transaction:
    """One standalone transaction through the production decoder."""
    tx, pos = decode_tx(data, 0, len(data))
    if pos != len(data):
        raise SerializationError(f"{len(data) - pos} trailing bytes after transaction")
    return tx


def same_cluster(partition, a, b) -> bool:
    """Are ``a`` and ``b`` in one cluster of ``partition`` (a
    ``Clustering.uf``, an ``IntUnionFind`` or a ``ReferenceUnionFind``)?
    An item the partition has not seen is in none."""
    return a in partition and b in partition and partition.find(a) == partition.find(b)


def component(report, name: str):
    """The entry of a health report for one component, or ``None``."""
    return next((e for e in report.components if e.component == name), None)


def ranking(surface, by: str) -> tuple[tuple[int, int], ...]:
    """One metric's whole ranking at an aggregate surface: ``(canonical
    cluster id, value)`` for every ranked cluster, best first.  Asks for
    more than any surface holds, so the length does not depend on
    ``cluster_count``."""
    return surface.top(10 ** 9, by)


def addr(label: str) -> str:
    """A deterministic address for a test label."""
    return address_of(KeyPair.from_seed(f"test/{label}"))


_B58_INDEX = {c: i for i, c in enumerate(
    "123456789ABCDEFGHJKLMNPQRSTUVWXYZabcdefghijkmnopqrstuvwxyz"
)}


def base58_decode(text: str) -> bytes:
    """Reference base58 decoder (``src/`` only encodes)."""
    n = 0
    for ch in text:
        n = n * 58 + _B58_INDEX[ch]
    raw = n.to_bytes((n.bit_length() + 7) // 8, "big") if n else b""
    return b"\x00" * (len(text) - len(text.lstrip("1"))) + raw


def base58check_decode(text: str) -> tuple[int, bytes]:
    """``(version, payload)`` of base58check text, checksum asserted."""
    raw = base58_decode(text)
    body, checksum = raw[:-4], raw[-4:]
    assert len(raw) >= 5 and sha256d(body)[:4] == checksum, text
    return body[0], body[1:]


def p2pkh_script_for_address(address: str) -> bytes:
    """The P2PKH locking script paying an address string.  A test has
    only the string; the simulator keeps the script of each address it
    mints, so nothing in ``src/`` decodes."""
    _version, pubkey_hash = base58check_decode(address)
    return script.p2pkh_script(pubkey_hash)


def parse_sig_script(script_sig: bytes) -> tuple[bytes, bytes]:
    """Split a P2PKH unlocking script (two direct pushes) into
    ``(signature, pubkey)``."""
    sig_len = script_sig[0]
    rest = script_sig[1 + sig_len :]
    assert len(rest) == 1 + rest[0], script_sig
    return script_sig[1 : 1 + sig_len], rest[1:]


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
            TxOut(value=value, script_pubkey=p2pkh_script_for_address(address)),
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
                script_pubkey=p2pkh_script_for_address(address),
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


def reference_some_output_was_self_change(
    h2, tx: Transaction, height: int
) -> bool:
    """Heuristic 2's prior-self-change rejection the long way: every
    output address's whole self-change history, oldest first, each use
    below ``height`` tested against the window — the oracle for
    :meth:`repro.core.heuristic2.Heuristic2._some_output_was_self_change`."""
    for out in tx.outputs:
        address = out.address
        if address is None or address in h2.dice_addresses:
            continue
        for event_height in h2.index.self_change_heights(address):
            if event_height < height and h2._within_window(
                event_height, height
            ):
                return True
    return False


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


# ----------------------------------------------------------------------
# reference cluster answers (the oracle for the service's cluster kinds)
# ----------------------------------------------------------------------
#
# What ``ForensicsService`` must answer to ``cluster_of`` /
# ``cluster_balance`` / ``top_clusters`` / ``cluster_profile`` at any
# height, re-derived the long way: one batch
# ``ClusteringEngine.cluster(as_of_height=h)`` for the partition, the
# index's per-address receive/spend rows for every balance and
# incidence, plain dicts and ``sorted`` for rollups and rankings.  No
# cache, no shared state with the service, O(chain) per height — slow
# and obviously right.

REFERENCE_KINDS = ("cluster_of", "cluster_balance", "top_clusters", "cluster_profile")


class ReferenceRollup:
    """Every per-address and per-cluster fact at one height: the state
    :func:`reference_answer` reads, exposed so state-level tests can
    compare the aggregate surface cluster by cluster."""

    def __init__(self, index, height, *, tags, h2_config, dice_addresses):
        from repro.core.clustering import ClusteringEngine
        from repro.tagging.naming import top_entity

        partition = ClusteringEngine(
            index, h2_config=h2_config, dice_addresses=dice_addresses
        ).cluster(as_of_height=height).uf
        self.index = index
        self.universe = len(partition)
        address_of = index.interner.address_of
        self.balance, self.tx_count, self.seen = [], [], []
        for ident in range(self.universe):
            record = index.address(address_of(ident))
            received = [row for row in record.receive_rows if row[0] <= height]
            spent = [row for row in record.spend_rows if row[0] <= height]
            self.balance.append(
                sum(row[3] for row in received) - sum(row[3] for row in spent)
            )
            # One incidence per transaction that pays or spends from it.
            touching = {(row[0], row[1]) for row in received + spent}
            heights = [h for h, _txid in touching]
            self.tx_count.append(len(touching))
            self.seen.append((min(heights), max(heights)))
        # Canonical cluster id: the minimum member id.
        self.cid_of, self.members = {}, {}
        for ids in partition._uf.components().values():
            cid = min(ids)
            self.members[cid] = ids
            for ident in ids:
                self.cid_of[ident] = cid
        metrics = {
            "size": {cid: len(ids) for cid, ids in self.members.items()},
            "balance": {
                cid: sum(self.balance[i] for i in ids)
                for cid, ids in self.members.items()
            },
            "activity": {
                cid: sum(self.tx_count[i] for i in ids)
                for cid, ids in self.members.items()
            },
        }
        self.metrics = metrics
        # ``size`` ranks every cluster, the other two only positive totals;
        # ties break by ascending canonical id.
        self.rankings = {
            by: sorted(
                (
                    (cid, value)
                    for cid, value in values.items()
                    if by == "size" or value > 0
                ),
                key=lambda pair: (-pair[1], pair[0]),
            )
            for by, values in metrics.items()
        }
        self.names = None
        if tags is not None:
            weights = {}
            for tag in tags.all_tags():
                ident = index.interner.id_of(tag.address)
                if ident is None or ident >= self.universe:
                    continue
                entity_weights = weights.setdefault(self.cid_of[ident], {})
                entity_weights[tag.entity] = (
                    entity_weights.get(tag.entity, 0.0) + tag.confidence
                )
            self.names = {
                cid: top_entity(entity_weights)
                for cid, entity_weights in weights.items()
            }

    def name_of(self, cid):
        return self.names.get(cid) if self.names is not None else None

    def answer(self, kind, args):
        if kind == "top_clusters":
            n, by = args
            return tuple(
                (cid, value, self.name_of(cid))
                for cid, value in self.rankings[by][:n]
            )
        (address,) = args
        ident = self.index.interner.id_of(address)
        if ident is None or ident >= self.universe:
            return None
        cid = self.cid_of[ident]
        if kind == "cluster_of":
            return cid
        if kind == "cluster_balance":
            return self.metrics["balance"][cid]
        size_order = [ranked for ranked, _size in self.rankings["size"]]
        return {
            "address": address,
            "address_id": ident,
            "cluster": cid,
            "cluster_size": self.metrics["size"][cid],
            "balance": self.balance[ident],
            "cluster_balance": self.metrics["balance"][cid],
            "tx_count": self.tx_count[ident],
            "first_seen": self.seen[ident][0],
            "last_seen": self.seen[ident][1],
            "cluster_tx_count": self.metrics["activity"][cid],
            "cluster_rank": size_order.index(cid) + 1,
            "name": self.name_of(cid),
        }


def reference_answers(
    index, queries, *, tags=None, h2_config=None, dice_addresses=frozenset()
):
    """:func:`reference_answer` for a list of queries, in order; queries
    about the same height share one batch re-clustering."""
    rollups = {}
    answers = []
    for query in queries:
        if query.kind not in REFERENCE_KINDS:
            raise ValueError(f"no reference for query kind {query.kind!r}")
        arity = 2 if query.kind == "top_clusters" else 1
        args, trailing = query.args[:arity], query.args[arity:]
        height = trailing[0] if trailing else index.height
        if height not in rollups:
            rollups[height] = ReferenceRollup(
                index, height, tags=tags, h2_config=h2_config,
                dice_addresses=dice_addresses,
            )
        answers.append(rollups[height].answer(query.kind, args))
    return answers


def reference_answer(
    index, query, *, tags=None, h2_config=None, dice_addresses=frozenset()
):
    """The exact answer to one cluster-kind ``query`` (optional trailing
    height included) over ``index``, from a batch re-clustering and the
    address rows — what the service's answer is compared against."""
    return reference_answers(
        index, [query], tags=tags, h2_config=h2_config,
        dice_addresses=dice_addresses,
    )[0]


def assert_surface_equals_batch(surface, index, height, **options):
    """Every cluster's size, balance, tx count and rank on an aggregate
    ``surface`` equals the batch rollup at ``height`` (``options`` are
    :class:`ReferenceRollup`'s ``h2_config`` / ``dice_addresses``)."""
    from repro.service.queries import TOP_CLUSTER_METRICS

    assert surface.height == height
    options = {"h2_config": None, "dice_addresses": frozenset(), **options}
    batch = ReferenceRollup(index, height, tags=None, **options)
    for by in TOP_CLUSTER_METRICS:
        order = ranking(surface, by)
        assert order == tuple(batch.rankings[by])
        for rank, (cid, _value) in enumerate(order, 1):
            assert surface.rank_of(by, cid) == rank
    assert surface.cluster_count == len(batch.members)
    for cid in batch.members:
        assert surface.size_of_cluster(cid) == batch.metrics["size"][cid]
        assert surface.balance_of_cluster(cid) == batch.metrics["balance"][cid]
        assert surface.tx_count_of_cluster(cid) == batch.metrics["activity"][cid]


# ----------------------------------------------------------------------
# reference address histories (the oracle for the index's row logs)
# ----------------------------------------------------------------------


class HistoryTwin:
    """Per-address receive and spend rows rebuilt by an independent walk
    over the blocks themselves — a plain ``(txid, vout) -> (address,
    value)`` map for the unspent outputs, one row list per address and
    direction, nothing shared with :class:`ChainIndex`'s columns.
    :meth:`assert_matches` holds every :class:`AddressRecord` read of an
    index to it."""

    def __init__(self) -> None:
        self.height = -1
        self.unspent: dict[tuple[bytes, int], tuple[str | None, int]] = {}
        self.spenders: dict[tuple[bytes, int], tuple[bytes, int]] = {}
        self.receives: dict[str, list[tuple[int, bytes, int, int]]] = {}
        self.spends: dict[str, list[tuple[int, bytes, int, int]]] = {}

    def apply(self, block: Block) -> None:
        self.height = height = block.height
        for tx in block.transactions:
            for vin, txin in enumerate(tx.inputs):
                if txin.is_coinbase:
                    continue
                consumed = (txin.prevout.txid, txin.prevout.vout)
                address, value = self.unspent.pop(consumed)
                self.spenders[consumed] = (tx.txid, vin)
                if address is not None:
                    self.spends.setdefault(address, []).append(
                        (height, tx.txid, vin, value)
                    )
            for vout, out in enumerate(tx.outputs):
                self.unspent[(tx.txid, vout)] = (out.address, out.value)
                if out.address is not None:
                    self.receives.setdefault(out.address, []).append(
                        (height, tx.txid, vout, out.value)
                    )

    def assert_matches(self, index: ChainIndex) -> None:
        """Every address the twin knows, read through ``index.address``
        (and, by id, ``address_by_id``): rows, the three bisecting reads
        at every height, first-seen height, balance, sink-ness — and the
        index knows no address the twin does not."""
        assert index.height == self.height
        assert sorted(index.interner) == sorted(self.receives)
        assert sorted(index.sink_addresses()) == sorted(
            address for address in self.receives if address not in self.spends
        )
        assert utxo_count(index) == len(self.unspent)
        assert utxo_value(index) == sum(v for _a, v in self.unspent.values())
        for address, receives in self.receives.items():
            spends = self.spends.get(address, [])
            record = index.address(address)
            assert record == index.address_by_id(record.address_id)
            assert record.address == address
            assert record.receive_rows == receives, address
            assert record.spend_rows == spends, address
            assert record.first_seen_height == receives[0][0]
            assert record.balance == sum(r[3] for r in receives) - sum(
                s[3] for s in spends
            )
            assert record.is_sink == (not spends)
            for height in range(self.height + 2):
                assert record.receives_before(height) == sum(
                    1 for r in receives if r[0] < height
                )
                assert [
                    (r.height, r.txid, r.vout, r.value)
                    for r in record.receives_after(height)
                ] == [r for r in receives if r[0] > height]
                rows = [r for r in receives + spends if r[0] <= height]
                assert record.as_of(height) == (
                    sum(r[3] for r in receives if r[0] <= height)
                    - sum(s[3] for s in spends if s[0] <= height),
                    len({txid for _h, txid, _n, _v in rows}),
                    min((r[0] for r in rows), default=None),
                    max((r[0] for r in rows), default=None),
                )
            assert index.first_receive_heights(record.address_id, 2) == [
                r[0] for r in receives[:2]
            ]
        for txid, vout in self.unspent:
            assert index.is_unspent(OutPoint(txid, vout))
            assert index.spender_of(OutPoint(txid, vout)) is None
        for (txid, vout), spender in self.spenders.items():
            assert not index.is_unspent(OutPoint(txid, vout))
            assert index.spender_of(OutPoint(txid, vout)) == spender


# ----------------------------------------------------------------------
# reference folds (the oracles for the views' numpy scatters)
# ----------------------------------------------------------------------
#
# What ``BalanceView`` and ``ActivityView`` must hold after a block, one
# Python statement per event: they read the delta's derived pair views
# (``events``, per-tx ``involved``), the views read its columns.


class ReferenceBalanceFold:
    """Per-address balances and issuance, folded one ``(address id,
    signed delta)`` pair at a time."""

    def __init__(self) -> None:
        self.balances: dict[int, int] = {}
        self.supply = 0

    def apply(self, delta) -> None:
        for ident, change in delta.events:
            self.balances[ident] = self.balances.get(ident, 0) + change
        self.supply += delta.minted


def add_view_segments(directory, service) -> None:
    """Add to the snapshot in ``directory`` the ``balances`` and
    ``activity`` segments snapshots carried while those two views were
    restored from segments, not built from the chain's rows, in the
    layout they had (written from ``service``'s views, manifest
    rewritten)."""
    balances, activity = service.balances, service.activity
    segments = {
        "balances": {
            "version": 2,
            "height": balances.height,
            "balances": balances._balances.tobytes(),
            "events_ids": [],
            "events_values": [],
            "coinbase": [],
            "supply": [balances.supply],
        },
        "activity": {
            "version": 2,
            "height": activity.height,
            "tx_counts": activity._tx_counts.tobytes(),
            "first_seen": activity._first_seen.tobytes(),
            "last_seen": activity._last_seen.tobytes(),
        },
    }
    path = directory / MANIFEST_NAME
    raw = json.loads(path.read_text())
    for name, state in segments.items():
        raw["segments"][name] = write_segment(directory, name, state)
    path.write_text(json.dumps(raw))


class ReferenceActivityFold:
    """Per-address incidence counts and first/last-seen heights, folded
    one involvement at a time."""

    def __init__(self) -> None:
        self.tx_counts: dict[int, int] = {}
        self.first_seen: dict[int, int] = {}
        self.last_seen: dict[int, int] = {}

    def apply(self, delta) -> None:
        for txd in delta.txs:
            for ident in txd.involved:
                self.tx_counts[ident] = self.tx_counts.get(ident, 0) + 1
                self.first_seen.setdefault(ident, delta.height)
                self.last_seen[ident] = delta.height


# ----------------------------------------------------------------------
# reference union-find (the oracle for repro.core.union_find.IntUnionFind)
# ----------------------------------------------------------------------


def reference_forest_at(pairs, mark: int, n: int) -> list[int]:
    """The parent column a replay of the first ``mark`` merge-log
    ``(absorbed, kept)`` pairs builds on ``n`` fresh singletons: the
    oracle for ``IntUnionFind.forest_at`` and ``find_at``."""
    parent = list(range(n))
    for absorbed, kept in list(pairs)[:mark]:
        assert parent[absorbed] == absorbed, f"{absorbed} absorbed twice"
        parent[absorbed] = kept
    return parent


def reference_merge_log(pairs, n: int) -> list[tuple[int, int]]:
    """The ``(absorbed, kept)`` roots of every effective union in a
    sequential :class:`ReferenceUnionFind` loop over ``pairs`` on ids
    ``0..n-1`` (same union-by-size tie rule as ``IntUnionFind``)."""
    uf = ReferenceUnionFind(range(n))
    log = []
    for a, b in pairs:
        ra, rb = uf.find(a), uf.find(b)
        if ra != rb:
            kept = uf.union(a, b)
            log.append((rb if kept == ra else ra, kept))
    return log



class ReferenceUnionFind:
    """Disjoint sets over arbitrary hashable items, union-by-size with
    path compression: the oracle ``IntUnionFind`` is property-tested
    against, and the string-keyed partition fixture of the naming,
    evaluation and super-cluster tests."""

    def __init__(self, items: Iterable[Hashable] = ()) -> None:
        self._parent: dict[Hashable, Hashable] = {}
        self._size: dict[Hashable, int] = {}
        self._components = 0
        for item in items:
            self.add(item)

    def add(self, item: Hashable) -> None:
        """Ensure ``item`` exists (as its own singleton set)."""
        if item not in self._parent:
            self._parent[item] = item
            self._size[item] = 1
            self._components += 1

    def __contains__(self, item: Hashable) -> bool:
        return item in self._parent

    def __len__(self) -> int:
        """Number of items tracked."""
        return len(self._parent)

    @property
    def component_count(self) -> int:
        """Number of disjoint sets."""
        return self._components

    def find(self, item: Hashable) -> Hashable:
        """Canonical representative of ``item``'s set (adds if missing)."""
        if item not in self._parent:
            self.add(item)
            return item
        # Iterative find with path compression.
        root = item
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[item] != root:
            self._parent[item], item = root, self._parent[item]
        return root

    def find_root(self, item: Hashable) -> Hashable | None:
        """Representative of ``item``'s set, or ``None`` if untracked.

        The read-only counterpart of :meth:`find`: querying an unknown
        item never adds it (so lookups cannot inflate the item count).
        """
        if item not in self._parent:
            return None
        return self.find(item)

    def union(self, a: Hashable, b: Hashable) -> Hashable:
        """Merge the sets containing ``a`` and ``b``; returns the root."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return ra
        if self._size[ra] < self._size[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        self._size[ra] += self._size[rb]
        self._components -= 1
        return ra

    def union_all(self, items: Iterable[Hashable]) -> Hashable | None:
        """Merge every item in ``items`` into one set; returns its root."""
        iterator = iter(items)
        try:
            first = next(iterator)
        except StopIteration:
            return None
        root = self.find(first)
        for item in iterator:
            root = self.union(root, item)
        return root

    def connected(self, a: Hashable, b: Hashable) -> bool:
        """True when ``a`` and ``b`` share a set."""
        if a not in self._parent or b not in self._parent:
            return False
        return self.find(a) == self.find(b)

    def size_of(self, item: Hashable) -> int:
        """Size of the set containing ``item``."""
        return self._size[self.find(item)]

    def component_sizes(self) -> dict[Hashable, int]:
        """``root -> component size`` without materializing member lists.

        Roots are exactly the self-parented items, so this is a single
        scan of the parent map reading the maintained ``_size`` entries.
        """
        parent = self._parent
        size = self._size
        return {item: size[item] for item, p in parent.items() if p == item}

    def components(self) -> dict[Hashable, list[Hashable]]:
        """Materialize all sets as ``root -> members``."""
        out: dict[Hashable, list[Hashable]] = defaultdict(list)
        for item in self._parent:
            out[self.find(item)].append(item)
        return dict(out)

    def iter_items(self) -> Iterator[Hashable]:
        """All tracked items."""
        return iter(self._parent)

    def copy(self) -> "ReferenceUnionFind":
        """An independent copy."""
        clone = ReferenceUnionFind()
        clone._parent = dict(self._parent)
        clone._size = dict(self._size)
        clone._components = self._components
        return clone


@dataclass(frozen=True)
class PurityScores:
    """Owner purity of clusters (size-weighted)."""

    weighted_purity: float
    impure_clusters: int
    total_clusters: int


def cluster_purity(clustering, ground_truth) -> PurityScores:
    """Size-weighted purity: the share of addresses whose cluster's
    majority owner matches their own owner.  The oracle behind the
    pipeline's "never merges distinct services badly" check."""
    owners_by_root: dict[object, Counter] = defaultdict(Counter)
    for address in clustering.uf.iter_items():
        owner = ground_truth.owner_of(address)
        if owner is None:
            continue
        owners_by_root[clustering.uf.find(address)][owner] += 1
    total = 0
    majority_total = 0
    impure = 0
    for counts in owners_by_root.values():
        size = sum(counts.values())
        total += size
        majority_total += counts.most_common(1)[0][1]
        if len(counts) > 1:
            impure += 1
    return PurityScores(
        weighted_purity=majority_total / total if total else 1.0,
        impure_clusters=impure,
        total_clusters=len(owners_by_root),
    )
