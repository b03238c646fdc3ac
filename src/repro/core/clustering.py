"""Combined clustering: Heuristic 1 + Heuristic 2 over a chain index.

:class:`ClusteringEngine` runs the heuristics and produces a
:class:`Clustering` — the partition of all addresses into users.  The
paper's headline pipeline is ``H1`` for the co-spend backbone plus the
refined ``H2`` change links layered on top (§4.2 uses "Heuristic 2
exclusively" for the analysis sections, meaning H1+refined-H2).

Internally the heuristics run over dense interned address ids on an
array-backed :class:`~repro.core.union_find.IntUnionFind`;
:class:`InternedPartition` is the string-facing view consumers read, so
address strings only reappear at the reporting edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping

from ..chain.index import ChainIndex
from ..chain.intern import AddressInterner
from .heuristic1 import cluster_h1_ids
from .heuristic2 import Heuristic2, Heuristic2Config, Heuristic2Result
from .union_find import IntUnionFind


class InternedPartition:
    """Address-string view over an id-keyed :class:`IntUnionFind`.

    Exposes a partition read API keyed by address strings
    (``find_root`` / ``connected`` / ``size_of`` / ``components`` …;
    cluster roots are dense int ids — opaque to consumers), so
    naming, super-cluster diagnosis, metrics, and exports run unchanged
    on top of the interned hot path.  The view's universe is the ids the
    underlying structure holds, which may be a prefix of the interner
    (``cluster(as_of_height=h)`` covers only addresses seen by ``h``).

    All lookups are non-mutating: querying an unknown address never adds
    it.
    """

    __slots__ = ("_uf", "_interner")

    def __init__(self, uf: IntUnionFind, interner: AddressInterner) -> None:
        self._uf = uf
        self._interner = interner

    @property
    def int_uf(self) -> IntUnionFind:
        """The underlying id-keyed structure (the hot path)."""
        return self._uf

    @property
    def interner(self) -> AddressInterner:
        return self._interner

    def _id(self, item: "str | int") -> int | None:
        """Resolve an address string or raw id to an in-scope id."""
        ident = self._interner.id_of(item) if isinstance(item, str) else item
        if ident is None or not 0 <= ident < len(self._uf):
            return None
        return ident

    def __contains__(self, item: "str | int") -> bool:
        return self._id(item) is not None

    def __len__(self) -> int:
        return len(self._uf)

    @property
    def component_count(self) -> int:
        return self._uf.component_count

    def find(self, item: "str | int") -> int:
        """Root id of ``item``'s cluster (``KeyError`` if out of scope)."""
        ident = self._id(item)
        if ident is None:
            raise KeyError(item)
        return self._uf.find(ident)

    def find_root(self, item: "str | int") -> int | None:
        """Root id of ``item``'s cluster, or ``None`` if out of scope."""
        ident = self._id(item)
        return None if ident is None else self._uf.find(ident)

    def connected(self, a: "str | int", b: "str | int") -> bool:
        ra, rb = self.find_root(a), self.find_root(b)
        return ra is not None and ra == rb

    def size_of(self, item: "str | int") -> int:
        """Cluster size for an address string or a root/member id."""
        ident = self._id(item)
        if ident is None:
            raise KeyError(item)
        return self._uf.size_of(ident)

    def component_sizes(self) -> dict[int, int]:
        """``root id -> cluster size`` straight off the size array."""
        return self._uf.component_sizes()

    def components(self) -> dict[int, list[str]]:
        """Materialize ``root id -> member address strings``."""
        addresses_of = self._interner.addresses_of
        return {
            root: addresses_of(members)
            for root, members in self._uf.components().items()
        }

    def iter_items(self) -> Iterator[str]:
        """All in-scope addresses, in first-sight order."""
        address_of = self._interner.address_of
        for ident in range(len(self._uf)):
            yield address_of(ident)

    def address_of(self, ident: int) -> str:
        """Reporting edge: the address string for an id."""
        return self._interner.address_of(ident)


@dataclass
class Clustering:
    """A partition of addresses into inferred users."""

    uf: InternedPartition
    heuristics: str
    h2_result: Heuristic2Result | None = None

    def cluster_of(self, address: str):
        """Canonical cluster id for an address (its partition root), or
        ``None`` for an address the clustering has never seen.  Lookups
        never mutate the partition."""
        return self.uf.find_root(address)

    def same_cluster(self, a: str, b: str) -> bool:
        """Were the two addresses inferred to share an owner?"""
        return self.uf.connected(a, b)

    @property
    def address_count(self) -> int:
        return len(self.uf)

    @property
    def cluster_count(self) -> int:
        return self.uf.component_count

    def clusters(self) -> dict:
        """Materialize ``cluster id -> member addresses``."""
        return self.uf.components()

    def component_sizes(self) -> dict:
        """``cluster id -> size`` without materializing member lists."""
        return self.uf.component_sizes()

    def largest_clusters(self, n: int = 10) -> list[tuple[object, int]]:
        """The ``n`` biggest clusters as ``(cluster id, size)``."""
        sized = list(self.uf.component_sizes().items())
        sized.sort(key=lambda pair: (-pair[1], str(pair[0])))
        return sized[:n]

    def effective_cluster_count(self, tags: Mapping[str, str]) -> int:
        """Cluster count after collapsing clusters sharing a tag.

        The paper's 3,384,179 → 3,383,904 step: clusters tagged with the
        same service name are counted as one user even though no chain
        evidence joined them.
        """
        roots_by_entity: dict[str, set] = {}
        for address, entity in tags.items():
            root = self.uf.find_root(address)
            if root is None:
                continue
            roots_by_entity.setdefault(entity, set()).add(root)
        collapsed = sum(
            len(roots) - 1 for roots in roots_by_entity.values() if len(roots) > 1
        )
        return self.cluster_count - collapsed


class ClusteringEngine:
    """Runs the heuristics against one chain index."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        h2_config: Heuristic2Config | None = None,
        dice_addresses: frozenset[str] = frozenset(),
    ) -> None:
        self.index = index
        self.h2_config = h2_config or Heuristic2Config.refined()
        self.dice_addresses = dice_addresses

    def cluster_h1_only(self, *, as_of_height: int | None = None) -> Clustering:
        """Heuristic 1 alone (the prior-work baseline)."""
        uf = cluster_h1_ids(self.index, as_of_height=as_of_height)
        return Clustering(
            uf=InternedPartition(uf, self.index.interner), heuristics="h1"
        )

    def cluster(self, *, as_of_height: int | None = None) -> Clustering:
        """Heuristic 1 plus (configured) Heuristic 2."""
        index = self.index
        uf = cluster_h1_ids(index, as_of_height=as_of_height)
        heuristic2 = Heuristic2(
            index, self.h2_config, dice_addresses=self.dice_addresses
        )
        id_of = index.interner.id_of
        result = Heuristic2Result()
        for tx, location in index.iter_transactions():
            if as_of_height is not None and location.height > as_of_height:
                break
            label, _reason = heuristic2.identify_change(
                tx, as_of_height=as_of_height
            )
            if label is None:
                continue
            result.labels.append(label)
            input_ids = index.input_address_ids(tx)
            if input_ids:
                uf.union(id_of(label.address), input_ids[0])
        return Clustering(
            uf=InternedPartition(uf, index.interner),
            heuristics="h1+h2",
            h2_result=result,
        )
