"""Public tag sources (§3.2): simulated blockchain.info/tags + forums.

The paper collected 5,000+ tags from users' forum signatures and
self-submitted labels, explicitly treating them as *less reliable* than
its own transactions.  :class:`PublicTagCrawl` reproduces that source
against the simulated world: it samples addresses whose owners
"advertised" them, and mislabels a configurable fraction — so the
naming layer's confidence tiers actually matter.
"""

from __future__ import annotations

import random

from ..simulation.economy import World
from .tags import SOURCE_MANUAL, SOURCE_PUBLIC, TagStore, make_tag


class PublicTagCrawl:
    """Samples self-advertised and crowd-submitted address tags."""

    def __init__(
        self,
        world: World,
        *,
        seed: int = 0,
        coverage: float = 0.02,
        mislabel_rate: float = 0.05,
        include_users: bool = True,
    ) -> None:
        if not 0.0 <= mislabel_rate <= 1.0:
            raise ValueError("mislabel_rate must be within [0, 1]")
        self.world = world
        self.rng = random.Random(f"crawl/{seed}")
        self.coverage = coverage
        self.mislabel_rate = mislabel_rate
        self.include_users = include_users

    def crawl(self) -> TagStore:
        """Produce the public tag store."""
        gt = self.world.ground_truth
        store = TagStore()
        entity_names = [info.name for info in gt.entities()]
        for info in gt.entities():
            if info.category == "crime":
                continue  # criminals do not self-advertise
            if info.category == "users" and not self.include_users:
                continue
            addresses = sorted(gt.addresses_of(info.name))
            if not addresses:
                continue
            n = max(1, int(len(addresses) * self.coverage))
            # Services advertise a few addresses; users sign forum posts
            # with one.
            if info.category == "users":
                n = 1 if self.rng.random() < 0.25 else 0
            for address in self.rng.sample(addresses, min(n, len(addresses))):
                entity = info.name
                if self.rng.random() < self.mislabel_rate:
                    entity = self.rng.choice(entity_names)
                store.add(make_tag(address, entity, SOURCE_PUBLIC))
        return store


def analyst_tags(world: World) -> TagStore:
    """The analyst's §3 tags for a world: the re-identification
    attack's own tags merged with the public crawl (seed 0)."""
    attack = world.extras.get("attack")
    tags = attack.tags if attack is not None else TagStore()
    return tags.merged_with(PublicTagCrawl(world, seed=0).crawl())


def manual_theft_tags(world: World) -> TagStore:
    """Tags for theft loot addresses, as curated from forum theft threads
    (the paper's bitcointalk.org theft list, §3.2/§5)."""
    store = TagStore()
    for theft in world.extras.get("thefts", ()):
        for address in theft.record.loot_addresses:
            store.add(make_tag(address, theft.name, SOURCE_MANUAL))
    return store
