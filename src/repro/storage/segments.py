"""Segment files: one durable component state per file.

A segment is the unit of snapshot I/O — one component's exported state
(chain index, clustering engine, one materialized view, service config)
written as a single self-validating file::

    offset  field
    ------  -----------------------------------------------------------
    0       magic ``RSSG`` (repro state segment)
    4       u16   format version (little-endian)
    6       u16   component-name length
    8       component name (ASCII)
    8+n     u64   payload length (little-endian)
    16+n    payload — pickle (protocol 5) of the component's plain-data
            exported state
    ...     sha256 digest of every preceding byte (32 bytes)

The payload is pickle because exported states are *plain data by
contract* (primitives, bytes, tuples, lists, dicts — see each
component's ``export_state``), which pickle round-trips at C speed; the
restore path's cost is bounded by the flat bytes, not by an object
graph (the components hold their state as those same columns).  Snapshots are local
operator state in the same trust domain as the code and block files
themselves — the checksum defends against corruption and truncation,
not against an adversary who can already write to the data directory.

Reads verify, in order: magic, version, component name, payload length,
and the sha256 footer — all *before* unpickling a byte of payload — and
raise :class:`~repro.storage.errors.SnapshotIntegrityError` with the
failing file named.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import struct
from pathlib import Path

from .errors import SnapshotIntegrityError

SEGMENT_MAGIC = b"RSSG"
SEGMENT_VERSION = 1
SEGMENT_SUFFIX = ".seg"

_FIXED_HEADER = struct.Struct("<4sHH")
_PAYLOAD_LEN = struct.Struct("<Q")
_DIGEST_BYTES = 32


def segment_filename(name: str) -> str:
    """The on-disk filename for a component segment."""
    return f"{name}{SEGMENT_SUFFIX}"


def write_segment(directory: str | os.PathLike[str], name: str, state) -> dict:
    """Write one component segment; returns its manifest record.

    The record (``{"file", "bytes", "sha256"}``) is what the snapshot
    manifest stores so a later read can verify the exact file it
    expects.  The file is flushed and fsynced before returning — a
    snapshot directory is renamed into place only after every segment
    is durable.
    """
    encoded_name = name.encode("ascii")
    payload = pickle.dumps(state, protocol=5)
    header = _FIXED_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, len(encoded_name))
    body = header + encoded_name + _PAYLOAD_LEN.pack(len(payload)) + payload
    digest = hashlib.sha256(body).digest()
    path = Path(directory) / segment_filename(name)
    with open(path, "wb") as fh:
        fh.write(body)
        fh.write(digest)
        fh.flush()
        os.fsync(fh.fileno())
    return {
        "file": path.name,
        "bytes": len(body) + _DIGEST_BYTES,
        "sha256": digest.hex(),
    }


def read_segment(
    path: str | os.PathLike[str],
    *,
    expected_name: str | None = None,
    expected_sha256: str | None = None,
):
    """Read and verify one segment; returns the unpickled state.

    Every structural check (magic, version, name, length, checksum)
    runs before the payload is unpickled, so a corrupt or swapped file
    fails closed with :class:`SnapshotIntegrityError`.
    """
    path = Path(path)

    def bad(reason: str) -> SnapshotIntegrityError:
        return SnapshotIntegrityError(f"segment {path}: {reason}")

    try:
        data = path.read_bytes()
    except OSError as exc:
        raise bad(f"unreadable ({exc})") from exc
    if len(data) < _FIXED_HEADER.size + _PAYLOAD_LEN.size + _DIGEST_BYTES:
        raise bad("truncated header")
    magic, version, name_length = _FIXED_HEADER.unpack_from(data)
    if magic != SEGMENT_MAGIC:
        raise bad(f"bad magic {magic!r}")
    if version != SEGMENT_VERSION:
        raise bad(f"unsupported segment version {version}")
    name_end = _FIXED_HEADER.size + name_length
    if len(data) < name_end + _PAYLOAD_LEN.size + _DIGEST_BYTES:
        raise bad("truncated name")
    name = data[_FIXED_HEADER.size:name_end].decode("ascii")
    if expected_name is not None and name != expected_name:
        raise bad(f"holds component {name!r}, expected {expected_name!r}")
    (payload_length,) = _PAYLOAD_LEN.unpack_from(data, name_end)
    body_end = name_end + _PAYLOAD_LEN.size + payload_length
    if len(data) != body_end + _DIGEST_BYTES:
        raise bad(
            f"length mismatch: header promises {payload_length} payload "
            f"bytes, file holds {len(data) - name_end - _PAYLOAD_LEN.size - _DIGEST_BYTES}"
        )
    digest = hashlib.sha256(data[:body_end]).digest()
    if digest != data[body_end:]:
        raise bad("sha256 checksum mismatch (corrupt payload)")
    if expected_sha256 is not None and digest.hex() != expected_sha256:
        raise bad("sha256 does not match the manifest (segment swapped?)")
    return pickle.loads(data[name_end + _PAYLOAD_LEN.size : body_end])
