"""Service tagging: the §3 data-collection phase.

* :mod:`~repro.tagging.tags` — tags, confidence tiers, the tag store;
* :mod:`~repro.tagging.attack` — the re-identification attack
  (transact with every service, observe its addresses);
* :mod:`~repro.tagging.sources` — simulated public tag crawl, and the
  analyst's tag set (attack + crawl);
* :mod:`~repro.tagging.naming` — propagating tags over clusters.
"""

from .attack import AttackStats, ReidentificationAttack
from .naming import ClusterNaming, NamedCluster, NamingReport
from .sources import PublicTagCrawl, analyst_tags, manual_theft_tags
from .tags import (
    SOURCE_MANUAL,
    SOURCE_OWN,
    SOURCE_PUBLIC,
    Tag,
    TagStore,
    make_tag,
)

__all__ = [
    "AttackStats",
    "ClusterNaming",
    "NamedCluster",
    "NamingReport",
    "PublicTagCrawl",
    "ReidentificationAttack",
    "SOURCE_MANUAL",
    "SOURCE_OWN",
    "SOURCE_PUBLIC",
    "Tag",
    "TagStore",
    "analyst_tags",
    "make_tag",
    "manual_theft_tags",
]
