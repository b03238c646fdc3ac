"""blk*.dat-style block files.

Bitcoin Core appends each block to rolling ``blkNNNNN.dat`` files as
``magic || u32 length || raw block``.  The paper's substrate (a block
parser like znort987/blockparser) consumes exactly these files; we write
and read the same framing so the simulate→serialize→reparse pipeline
exercises a genuine binary parse, including resilience to a truncated
final record (which real block files exhibit after unclean shutdowns).

:class:`BlockFileReader` adds *offset resume*: the durable state store
restores analysis state at a snapshot height ``h`` and then replays only
the tail ``h+1..`` from these files, so the reader can skip the first
``h+1`` records by frame arithmetic alone (read each 8-byte record
header, seek past the body) — no deserialization, no allocation — and
start parsing mid-file at the first tail record.
"""

from __future__ import annotations

import os
import struct
from pathlib import Path
from typing import Iterable, Iterator

from .errors import SerializationError, TruncatedDataError
from .model import Block
from .serialize import decode_block, serialize_block

MAINNET_MAGIC = b"\xf9\xbe\xb4\xd9"
"""Bitcoin mainnet network magic, little-endian on the wire."""

DEFAULT_MAX_FILE_SIZE = 128 * 1024 * 1024
_LENGTH_FMT = "<I"


class BlockFileWriter:
    """Append blocks to ``blkNNNNN.dat`` files under a directory.

    Rolls over to a new file once the current one would exceed
    ``max_file_size``, mirroring Bitcoin Core's behaviour.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        *,
        magic: bytes = MAINNET_MAGIC,
        max_file_size: int = DEFAULT_MAX_FILE_SIZE,
        resume: bool = False,
    ) -> None:
        if len(magic) != 4:
            raise SerializationError("network magic must be 4 bytes")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.magic = magic
        self.max_file_size = max_file_size
        self._file_index = 0
        self._bytes_in_file = 0
        if resume:
            existing = list(iter_block_files(self.directory))
            if existing:
                last = existing[-1]
                self._file_index = int(last.stem[3:])
                self._bytes_in_file = self._truncate_to_frame_boundary(last)

    def _truncate_to_frame_boundary(self, path: Path) -> int:
        """Drop a trailing partial record before resuming appends.

        An unclean shutdown can leave the last file mid-record; readers
        tolerate that, but *appending after it* would bury the garbage
        inside the frame stream and corrupt every later read.  Scanning
        the frames (header + seek, no parsing) finds the last complete
        record's end; anything beyond it is truncated away.
        """
        size = path.stat().st_size
        end = 0
        with open(path, "rb") as fh:
            while True:
                header = fh.read(len(self.magic) + 4)
                if len(header) < len(self.magic) + 4:
                    break
                if header[:4] != self.magic:
                    raise SerializationError(
                        f"bad network magic {header[:4].hex()} at offset "
                        f"{fh.tell() - len(header)} in {path}; cannot resume"
                    )
                (length,) = struct.unpack(_LENGTH_FMT, header[4:])
                if fh.tell() + length > size:
                    break
                fh.seek(length, os.SEEK_CUR)
                end = fh.tell()
        if end < size:
            with open(path, "rb+") as fh:
                fh.truncate(end)
        return end

    def _current_path(self) -> Path:
        return self.directory / f"blk{self._file_index:05d}.dat"

    def write_block(self, block: Block) -> Path:
        """Append one block; returns the file it landed in."""
        raw = serialize_block(block)
        record = self.magic + struct.pack(_LENGTH_FMT, len(raw)) + raw
        if self._bytes_in_file and self._bytes_in_file + len(record) > self.max_file_size:
            self._file_index += 1
            self._bytes_in_file = 0
        path = self._current_path()
        with open(path, "ab") as fh:
            fh.write(record)
        self._bytes_in_file += len(record)
        return path

    def write_chain(self, blocks: Iterable[Block]) -> list[Path]:
        """Append a whole chain; returns the distinct files written."""
        paths: list[Path] = []
        for block in blocks:
            path = self.write_block(block)
            if not paths or paths[-1] != path:
                paths.append(path)
        return paths


def iter_block_files(directory: str | os.PathLike[str]) -> Iterator[Path]:
    """Yield ``blk*.dat`` files in a directory in index order."""
    directory = Path(directory)
    yield from sorted(directory.glob("blk*.dat"))


class BlockFileReader:
    """Stream blocks from a single file or a directory of block files.

    Heights are assigned sequentially from ``first_height``, matching how
    the simulator lays blocks down in order.  A truncated final record is
    silently ignored when ``tolerate_truncation`` is set; any other
    framing error raises :class:`SerializationError`.

    :meth:`iter_blocks` accepts a ``start_height`` to resume from: the
    records below it are skipped with frame arithmetic (read the 8-byte
    ``magic || length`` header, seek past the body), so resuming at the
    tail of a long chain costs no block parsing for the prefix — the
    mechanism the state store's tail replay is built on.
    """

    def __init__(
        self,
        source: str | os.PathLike[str],
        *,
        magic: bytes = MAINNET_MAGIC,
        first_height: int = 0,
        tolerate_truncation: bool = True,
    ) -> None:
        self.source = Path(source)
        self.magic = magic
        self.first_height = first_height
        self.tolerate_truncation = tolerate_truncation

    def _paths(self) -> list[Path]:
        if self.source.is_dir():
            return list(iter_block_files(self.source))
        return [self.source]

    def _read_record_header(self, fh, path: Path) -> int | None:
        """Read one ``magic || u32 length`` frame header; ``None`` at a
        (tolerated) truncation or end of file."""
        header = fh.read(len(self.magic) + 4)
        if not header:
            return None
        if len(header) < len(self.magic) + 4:
            if self.tolerate_truncation:
                return None
            raise TruncatedDataError(f"truncated record header in {path}")
        if header[:4] != self.magic:
            raise SerializationError(
                f"bad network magic {header[:4].hex()} at offset "
                f"{fh.tell() - len(header)} in {path}"
            )
        (length,) = struct.unpack(_LENGTH_FMT, header[4:])
        return length

    def count_blocks(self) -> int:
        """Number of complete records on disk, by frame arithmetic only."""
        count = 0
        for path in self._paths():
            size = path.stat().st_size
            with open(path, "rb") as fh:
                while True:
                    length = self._read_record_header(fh, path)
                    if length is None:
                        break
                    if fh.tell() + length > size:
                        if self.tolerate_truncation:
                            break
                        raise TruncatedDataError(f"truncated block body in {path}")
                    fh.seek(length, os.SEEK_CUR)
                    count += 1
        return count

    def iter_blocks(self, start_height: int | None = None) -> Iterator[Block]:
        """Yield blocks from ``start_height`` (default: the first record).

        Records below ``start_height`` are skipped without parsing;
        heights are positional, so ``start_height`` must be at least
        ``first_height``.
        """
        height = self.first_height
        if start_height is None:
            start_height = height
        if start_height < height:
            raise ValueError(
                f"start_height {start_height} precedes first record height "
                f"{height}"
            )
        for path in self._paths():
            size = path.stat().st_size
            with open(path, "rb") as fh:
                # Frame-skip whole records while still below start_height.
                while height < start_height:
                    length = self._read_record_header(fh, path)
                    if length is None:
                        break
                    if fh.tell() + length > size:
                        if self.tolerate_truncation:
                            fh.seek(0, os.SEEK_END)
                            break
                        raise TruncatedDataError(f"truncated block body in {path}")
                    fh.seek(length, os.SEEK_CUR)
                    height += 1
                if height < start_height:
                    continue  # every record here was below the resume point
                base = fh.tell()
                data = fh.read()
            # Records are parsed in place: one buffer per file, offsets
            # into it, no per-record copy.
            head = len(self.magic) + 4
            pos, end = 0, len(data)
            while pos < end:
                body = pos + head
                if body > end:
                    if self.tolerate_truncation:
                        break
                    raise TruncatedDataError(f"truncated record header in {path}")
                if data[pos : pos + 4] != self.magic:
                    raise SerializationError(
                        f"bad network magic {data[pos : pos + 4].hex()} at offset "
                        f"{base + pos} in {path}"
                    )
                stop = body + struct.unpack_from(_LENGTH_FMT, data, pos + 4)[0]
                if stop > end:
                    if self.tolerate_truncation:
                        break
                    raise TruncatedDataError(f"truncated block body in {path}")
                block, pos = decode_block(data, body, stop, height=height)
                if pos != stop:
                    raise SerializationError(
                        f"{stop - pos} stray bytes inside record in {path}"
                    )
                yield block
                height += 1


def read_blocks(
    source: str | os.PathLike[str],
    *,
    magic: bytes = MAINNET_MAGIC,
    start_height: int = 0,
    tolerate_truncation: bool = True,
) -> Iterator[Block]:
    """Stream every block, labeling heights from ``start_height``.

    Thin wrapper over :class:`BlockFileReader` for callers that read a
    whole directory front to back (the reparse pipeline, validation).
    """
    reader = BlockFileReader(
        source,
        magic=magic,
        first_height=start_height,
        tolerate_truncation=tolerate_truncation,
    )
    return reader.iter_blocks()
