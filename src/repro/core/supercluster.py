"""Super-cluster detection and diagnosis (§4.2).

Even after the dice exception and waiting period, the paper's first
refined Heuristic 2 produced a 1.6-million-address "super-cluster"
containing Mt. Gox, Instawallet, BitPay, *and* Silk Road — entities that
are certainly not one user.  Manual inspection traced it to two
patterns (change addresses used twice; self-change addresses later used
as regular change), and two further refinements dismantled it.

This module measures the same phenomenon: given a clustering and a set
of address tags, it finds clusters containing multiple distinct service
tags and reports the worst offenders, so the bench can show the naive
configuration *merging* the big services and the refined configuration
keeping them apart.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Mapping

from .clustering import Clustering


@dataclass(frozen=True)
class MergedClusterInfo:
    """One cluster containing addresses tagged with ≥ 2 entities."""

    size: int
    entities: tuple[str, ...]


@dataclass
class SuperClusterReport:
    """Diagnosis of tag-merging clusters in one clustering."""

    largest_cluster_size: int
    merged_clusters: list[MergedClusterInfo]

    @property
    def merged_entity_count(self) -> int:
        """Distinct entities appearing in any merged cluster."""
        seen: set[str] = set()
        for info in self.merged_clusters:
            seen.update(info.entities)
        return len(seen)


def diagnose_superclusters(
    clustering: Clustering, tags: Mapping[str, str]
) -> SuperClusterReport:
    """Find clusters whose members carry tags of different entities.

    ``tags`` maps address → entity name (the analyst's view, e.g. from
    the re-identification attack — not ground truth).
    """
    entities_by_root: dict[object, set[str]] = defaultdict(set)
    for address, entity in tags.items():
        if address in clustering.uf:
            entities_by_root[clustering.uf.find(address)].add(entity)
    merged: list[MergedClusterInfo] = []
    for root, entities in entities_by_root.items():
        if len(entities) < 2:
            continue
        merged.append(
            MergedClusterInfo(
                size=clustering.uf.size_of(root),
                entities=tuple(sorted(entities)),
            )
        )
    merged.sort(key=lambda m: (-len(m.entities), -m.size))
    largest = clustering.largest_clusters(1)
    return SuperClusterReport(
        largest_cluster_size=largest[0][1] if largest else 0,
        merged_clusters=merged,
    )
