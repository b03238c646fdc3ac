"""Amortized-growth int64 vectors: the backing store of kernelized folds.

The streaming views keep dense per-address-id state (balances, incidence
counts, first/last-seen heights).  The scalar implementations grew plain
Python lists; the vectorized fold kernels instead scatter whole blocks
of churn into numpy arrays (``np.add.at``, masked assignment), which
needs a *growable* contiguous int64 buffer: ids are dense and
first-sight ordered, so every block extends the universe by its fresh
addresses and then scatters into the prefix.

:class:`IntVector` is that buffer: a logical-length int64 array with
capacity doubling, so per-block :meth:`grow_to` calls (one per block,
off ``BlockDelta.max_id``) cost amortized O(1) per element instead of a
reallocation per block.  The exposed :attr:`array` is a *view* of the
live prefix — re-read it after any ``grow_to``, because growth may
reallocate the backing store.

Snapshot segments store these as raw little-endian bytes
(:meth:`tobytes` / :meth:`from_bytes`): the restore path is one
``memcpy``, not a Python-object rebuild.
"""

from __future__ import annotations

import numpy as np

_DTYPE = np.dtype("<i8")
"""Explicit little-endian int64: snapshot bytes stay portable even if a
big-endian host ever writes one."""


class IntVector:
    """A growable int64 numpy vector with amortized-O(1) extension."""

    __slots__ = ("_data", "_n")

    def __init__(self, n: int = 0, fill: int = 0) -> None:
        self._data = np.full(max(n, 0), fill, dtype=_DTYPE)
        self._n = max(n, 0)

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, ident: int) -> int:
        if not 0 <= ident < self._n:
            raise IndexError(ident)
        return int(self._data[ident])

    def __setitem__(self, ident: int, value: int) -> None:
        if not 0 <= ident < self._n:
            raise IndexError(ident)
        self._data[ident] = value

    @property
    def array(self) -> np.ndarray:
        """Writable view of the live prefix.  Invalidated by growth:
        fetch it again after any :meth:`grow_to`."""
        return self._data[: self._n]

    def grow_to(self, n: int, fill: int = 0) -> None:
        """Extend the logical length to ``n``, filling new slots with
        ``fill``.  Shrinking requests are no-ops."""
        if n <= self._n:
            return
        if n > len(self._data):
            capacity = max(n, 2 * len(self._data), 16)
            data = np.empty(capacity, dtype=_DTYPE)
            data[: self._n] = self._data[: self._n]
            self._data = data
        self._data[self._n : n] = fill
        self._n = n

    def append(self, value: int) -> None:
        """Append one value after the live prefix."""
        n = self._n
        if n == len(self._data):
            self.grow_to(n + 1)
        self._n = n + 1
        self._data[n] = value

    def extend(self, values) -> None:
        """Append ``values`` after the live prefix."""
        n = self._n
        end = n + len(values)
        if end > len(self._data):
            self.grow_to(end)
        self._n = end
        self._data[n:end] = values

    @property
    def nbytes(self) -> int:
        """Bytes the backing store holds, capacity tail included."""
        return self._data.nbytes

    def copy(self) -> "IntVector":
        """An independent vector with the same live prefix."""
        vector = IntVector.__new__(IntVector)
        vector._data = self._data[: self._n].copy()
        vector._n = self._n
        return vector

    def tolist(self) -> list[int]:
        """The live prefix as a list of Python ints."""
        return self._data[: self._n].tolist()

    def tobytes(self) -> bytes:
        """The live prefix as raw little-endian int64 bytes."""
        return self._data[: self._n].tobytes()

    @classmethod
    def wrap(cls, array: np.ndarray) -> "IntVector":
        """A vector over ``array`` itself (int64, no copy): the caller
        hands the array over."""
        vector = cls.__new__(cls)
        vector._data = np.asarray(array, dtype=_DTYPE)
        vector._n = len(vector._data)
        return vector

    @classmethod
    def from_bytes(cls, buffer: bytes) -> "IntVector":
        """Rebuild a vector from :meth:`tobytes` output (one copy)."""
        vector = cls.__new__(cls)
        vector._data = np.frombuffer(buffer, dtype=_DTYPE).copy()
        vector._n = len(vector._data)
        return vector

