"""Address interning: dense integer ids for address strings.

Base58 address strings are long, heap-allocated, and hash slowly; the
clustering hot path performs millions of lookups and unions over them.
An :class:`AddressInterner` assigns every address a dense ``int`` id at
first sight (ids are allocated in chain-ingestion order, so the ids
``0..n_h-1`` are exactly the addresses seen by the end of height ``h``
— a property the incremental engine's time-travel snapshots rely on).

Downstream consumers carry ids through the union-find hot path and
translate back to strings only at the reporting edge.
"""

from __future__ import annotations

from typing import Iterable, Iterator


class AddressInterner:
    """Bidirectional address-string ⇄ dense-int-id mapping."""

    __slots__ = ("_ids", "_addresses", "id_of")

    def __init__(self) -> None:
        self._ids: dict[str, int] = {}
        self._addresses: list[str] = []
        self.id_of = self._ids.get
        """``id_of(address)``: the id if already interned, else ``None``
        (never allocates).  Bound straight to the dict lookup — the
        ingest walk calls it once per input and output."""

    @classmethod
    def from_addresses(cls, addresses: Iterable[str]) -> "AddressInterner":
        """Rebuild an interner from its id-ordered address table.

        ``addresses`` must be the exact first-sight-ordered table a
        previous interner produced (``list(interner)``) — this is the
        snapshot/restore path, where preserving every assigned id
        verbatim is what keeps restored id-space state (union-find,
        views) aligned with the chain.
        """
        interner = cls()
        table = interner._addresses
        table.extend(addresses)
        interner._ids.update(zip(table, range(len(table))))
        if len(interner._ids) != len(table):
            raise ValueError("interner address table contains duplicates")
        return interner

    def intern(self, address: str) -> int:
        """The id for ``address``, allocating the next dense id if new."""
        ident = self._ids.get(address)
        if ident is None:
            ident = len(self._addresses)
            self._ids[address] = ident
            self._addresses.append(address)
        return ident

    def truncate(self, n: int) -> None:
        """Forget every id >= ``n`` (the index un-interns the addresses
        of a block it rejected part-way)."""
        for address in self._addresses[n:]:
            del self._ids[address]
        del self._addresses[n:]

    def address_of(self, ident: int) -> str:
        """The address string for an id (raises ``IndexError`` if unknown)."""
        if ident < 0:
            raise IndexError(f"invalid address id {ident}")
        return self._addresses[ident]

    def addresses_of(self, idents: Iterable[int]) -> list[str]:
        """Bulk id → string translation (the reporting edge)."""
        addresses = self._addresses
        return [addresses[i] for i in idents]

    def __contains__(self, address: str) -> bool:
        return address in self._ids

    def __len__(self) -> int:
        return len(self._addresses)

    def __iter__(self) -> Iterator[str]:
        """Addresses in id (= first-sight) order."""
        return iter(self._addresses)
