"""Ownership oracle for the simulated economy.

The real paper had almost no ground truth — the authors could only tag
addresses they transacted with and estimate false-positive rates by
replaying time.  The simulator knows the owner of every address it
mints, which lets us *measure* what the paper could only bound: the true
precision/recall of each heuristic and refinement.

Ground truth is strictly an evaluation artifact: nothing in
:mod:`repro.core` reads it during clustering.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class EntityInfo:
    """Static facts about one economic entity."""

    name: str
    category: str


class GroundTruth:
    """Authoritative address→entity ownership map."""

    def __init__(self) -> None:
        self._owner_of: dict[str, str] = {}
        self._entities: dict[str, EntityInfo] = {}
        self._addresses_of: dict[str, set[str]] = defaultdict(set)

    # ------------------------------------------------------------------
    # registration (simulator side)
    # ------------------------------------------------------------------

    def register_entity(self, name: str, category: str) -> None:
        """Declare an entity before any of its addresses appear."""
        existing = self._entities.get(name)
        if existing is not None and existing.category != category:
            raise ValueError(
                f"entity {name!r} re-registered with category "
                f"{category!r} != {existing.category!r}"
            )
        self._entities[name] = EntityInfo(name=name, category=category)

    def register_address(self, address: str, owner: str) -> None:
        """Record that ``owner`` controls ``address``."""
        if owner not in self._entities:
            raise KeyError(f"unknown entity {owner!r}; register it first")
        previous = self._owner_of.get(address)
        if previous is not None and previous != owner:
            raise ValueError(
                f"address {address} already owned by {previous!r}, "
                f"cannot re-assign to {owner!r}"
            )
        self._owner_of[address] = owner
        self._addresses_of[owner].add(address)

    # ------------------------------------------------------------------
    # queries (evaluation side)
    # ------------------------------------------------------------------

    def owner_of(self, address: str) -> str | None:
        """The entity owning ``address``, or ``None`` if unregistered."""
        return self._owner_of.get(address)

    def category_of(self, entity: str) -> str | None:
        """The category of an entity, or ``None`` if unknown."""
        info = self._entities.get(entity)
        return info.category if info else None

    def addresses_of(self, entity: str) -> frozenset[str]:
        """All addresses registered to an entity."""
        return frozenset(self._addresses_of.get(entity, ()))

    def entities(self) -> list[EntityInfo]:
        """All registered entities."""
        return list(self._entities.values())

    def true_partition(self) -> dict[str, frozenset[str]]:
        """The ideal clustering: entity → its full address set."""
        return {
            entity: frozenset(addrs)
            for entity, addrs in self._addresses_of.items()
            if addrs
        }
