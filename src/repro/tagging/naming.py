"""Cluster naming: propagating tags over a clustering (§4.2).

Tagging by itself covers a sliver of the chain (the paper hand-tagged
1,070 addresses via 344 transactions).  Clustering is the amplifier: one
tag anywhere in a cluster names the whole cluster — "Heuristic 2 allowed
us to name 1,600 times more addresses than our own manual observation
provided".

:class:`ClusterNaming` assigns each cluster the entity of its
highest-confidence tags (majority-of-confidence within the cluster),
records conflicts, and computes the paper's coverage numbers: named
clusters, addresses covered, and the amplification factor.
:func:`cluster_names` is the same winner rule over :class:`TagColumns`,
one numpy pass per partition: the query service names every height's
clusters with it, and the analyst view its peels.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from typing import Callable, Mapping

import numpy as np

from ..core.clustering import Clustering
from .tags import TagStore


def ranked_entities(weights: Mapping[str, float]) -> list[tuple[str, float]]:
    """Entities by descending summed tag confidence, ties by name.

    The naming winner rule: index 0 is the entity a cluster is named
    after, the rest are its conflicts.  :func:`cluster_names` applies
    the same rule to tag columns.
    """
    return sorted(weights.items(), key=lambda kv: (-kv[1], kv[0]))


class TagColumns:
    """A tag store as columns, one row per tag in ``all_tags`` order:
    the address id (-1 until the interner has seen the address), an
    entity code (codes follow sorted entity names, so code order is name
    order) and the confidence.  Built for a store of a fixed size: the
    store only grows, so a caller rebuilds when ``len(tags)`` moves."""

    __slots__ = (
        "entities", "codes", "confidences", "_ids", "_addresses", "_unseen",
    )

    def __init__(self, tags: TagStore) -> None:
        rows = list(tags.all_tags())
        self.entities = np.array(sorted({tag.entity for tag in rows}), dtype=object)
        code_of = {entity: code for code, entity in enumerate(self.entities)}
        self.codes = np.array([code_of[tag.entity] for tag in rows], dtype="<i8")
        self.confidences = np.array([tag.confidence for tag in rows], dtype="<f8")
        self._ids = np.full(len(rows), -1, dtype="<i8")
        self._addresses = [tag.address for tag in rows]
        self._unseen = list(range(len(rows)))

    def __len__(self) -> int:
        return len(self._ids)

    def ids(self, id_of: Callable[[str], int | None]) -> np.ndarray:
        """The address-id column, after looking up the rows still unseen
        through ``id_of``, in O(unseen): an interned id never changes,
        so a resolved row is never looked up again."""
        unseen = []
        for row in self._unseen:
            ident = id_of(self._addresses[row])
            if ident is None:
                unseen.append(row)
            else:
                self._ids[row] = ident
        self._unseen = unseen
        return self._ids


def cluster_names(cluster_of_tag, columns: TagColumns) -> dict[int, str]:
    """``cluster -> name`` for the clusters holding a tag.

    ``cluster_of_tag`` is each tag's cluster key, ``columns`` row for
    row; a key below 0 (an address outside the partition) drops its
    tag.  Confidences are summed per (cluster, entity) in tag order --
    ``np.add.at`` applies its rows one at a time, so each sum is the
    left-to-right sum of an ``all_tags`` walk, bit for bit -- and each
    cluster takes :func:`ranked_entities`' winner: the highest sum,
    ties by entity name.
    """
    keys = np.asarray(cluster_of_tag, dtype="<i8")
    kept = keys >= 0
    if not kept.any():
        return {}
    clusters, codes = keys[kept], columns.codes[kept]
    pairs, slot = np.unique(
        clusters * len(columns.entities) + codes, return_inverse=True
    )
    sums = np.zeros(len(pairs), dtype="<f8")
    np.add.at(sums, slot, columns.confidences[kept])
    # ``pairs`` ascend by (cluster, code); a stable sort on (cluster,
    # -sum) leaves each cluster's winner first, ties in name order.
    owner, code = np.divmod(pairs, len(columns.entities))
    order = np.lexsort((np.negative(sums), owner))
    owner, code = owner[order], code[order]
    first = np.ones(len(owner), dtype=bool)
    np.not_equal(owner[1:], owner[:-1], out=first[1:])
    return dict(zip(owner[first].tolist(), columns.entities[code[first]].tolist()))


@dataclass
class NamedCluster:
    """One cluster that received a name."""

    root: object
    name: str
    size: int
    tag_count: int
    conflicting_entities: tuple[str, ...] = ()

    @property
    def has_conflict(self) -> bool:
        return bool(self.conflicting_entities)


@dataclass
class NamingReport:
    """The §4.2 coverage accounting."""

    named_cluster_count: int
    named_address_count: int
    hand_tagged_address_count: int
    conflict_count: int
    clusters_per_entity: dict[str, int] = field(default_factory=dict)

    @property
    def amplification(self) -> float:
        """Named addresses per hand-tagged address (paper: ×1,600)."""
        if not self.hand_tagged_address_count:
            return 0.0
        return self.named_address_count / self.hand_tagged_address_count


class ClusterNaming:
    """Tag propagation over one clustering."""

    def __init__(self, clustering: Clustering, tags: TagStore) -> None:
        self.clustering = clustering
        self.tags = tags
        self._named: dict[object, NamedCluster] = {}
        self._build()

    def _build(self) -> None:
        weight_by_root: dict[object, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        count_by_root: dict[object, int] = defaultdict(int)
        for tag in self.tags.all_tags():
            if tag.address not in self.clustering.uf:
                continue
            root = self.clustering.uf.find(tag.address)
            weight_by_root[root][tag.entity] += tag.confidence
            count_by_root[root] += 1
        for root, weights in weight_by_root.items():
            ranked = ranked_entities(weights)
            winner, _ = ranked[0]
            conflicts = tuple(name for name, _ in ranked[1:])
            self._named[root] = NamedCluster(
                root=root,
                name=winner,
                size=self.clustering.uf.size_of(root),
                tag_count=count_by_root[root],
                conflicting_entities=conflicts,
            )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------

    def name_of_cluster(self, root: object) -> str | None:
        """The name assigned to a cluster root, if any."""
        named = self._named.get(root)
        return named.name if named else None

    def name_of_address(self, address: str) -> str | None:
        """The name of the cluster containing ``address`` (transitive
        taint: one tag names every address in the cluster)."""
        if address not in self.clustering.uf:
            return None
        return self.name_of_cluster(self.clustering.uf.find(address))

    def name_of_address_id(self, ident: int | None) -> str | None:
        """Id-keyed :meth:`name_of_address` for interned clusterings.

        The §5 trackers' hot loops resolve recipients thousands of
        times; going through
        :meth:`~repro.core.clustering.InternedPartition.find_root` on a
        dense id skips re-hashing the base58 string inside the
        partition.  ``None`` (address never interned) maps to ``None``.
        """
        if ident is None:
            return None
        root = self.clustering.uf.find_root(ident)
        return None if root is None else self.name_of_cluster(root)

    def named_clusters(self) -> list[NamedCluster]:
        """All named clusters, largest first."""
        return sorted(self._named.values(), key=lambda c: -c.size)

    def clusters_named(self, entity: str) -> list[NamedCluster]:
        """Clusters assigned to one entity (paper: 20 for Mt. Gox)."""
        return [c for c in self._named.values() if c.name == entity]

    def report(self) -> NamingReport:
        """Compute the coverage numbers."""
        named_addresses = 0
        per_entity: dict[str, int] = defaultdict(int)
        for cluster in self._named.values():
            named_addresses += cluster.size
            per_entity[cluster.name] += 1
        conflict_count = sum(1 for c in self._named.values() if c.has_conflict)
        return NamingReport(
            named_cluster_count=len(self._named),
            named_address_count=named_addresses,
            hand_tagged_address_count=self.tags.address_count,
            conflict_count=conflict_count,
            clusters_per_entity=dict(per_entity),
        )
