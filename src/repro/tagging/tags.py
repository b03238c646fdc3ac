"""Address tags: the analyst's ground-truth fragments (§3).

A :class:`Tag` asserts that one address is controlled by a named
real-world entity.  The paper distinguishes tag *sources* by
reliability:

* ``own-transaction`` — addresses observed while transacting with a
  service (deposit addresses handed to us; inputs of payments made to
  us).  The most reliable source.
* ``public``          — self-advertised or crowd-submitted tags crawled
  from blockchain.info/tags and forums.  Less reliable; some are wrong.
* ``manual``          — hand-curated tags (theft reports, defunct
  services) accepted only after due diligence.

:class:`TagStore` aggregates tags, resolves per-address conflicts in
favour of higher-confidence sources, and exports the ``address →
entity`` mapping the naming and super-cluster analyses consume.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable, Iterator

SOURCE_OWN = "own-transaction"
SOURCE_PUBLIC = "public"
SOURCE_MANUAL = "manual"

_DEFAULT_CONFIDENCE = {
    SOURCE_OWN: 1.0,
    SOURCE_MANUAL: 0.8,
    SOURCE_PUBLIC: 0.5,
}


@dataclass(frozen=True, slots=True)
class Tag:
    """One address-ownership assertion."""

    address: str
    entity: str
    source: str
    confidence: float
    observed_height: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.confidence <= 1.0:
            raise ValueError(f"confidence must be in (0, 1], got {self.confidence}")


def make_tag(
    address: str,
    entity: str,
    source: str = SOURCE_OWN,
    *,
    confidence: float | None = None,
    observed_height: int | None = None,
) -> Tag:
    """Build a tag with the default confidence for its source."""
    if confidence is None:
        confidence = _DEFAULT_CONFIDENCE.get(source, 0.5)
    return Tag(
        address=address,
        entity=entity,
        source=source,
        confidence=confidence,
        observed_height=observed_height,
    )


class TagStore:
    """A collection of tags with conflict resolution."""

    def __init__(self, tags: Iterable[Tag] = ()) -> None:
        self._by_address: dict[str, list[Tag]] = defaultdict(list)
        self._count = 0
        for tag in tags:
            self.add(tag)

    def add(self, tag: Tag) -> None:
        """Record one tag (duplicates are kept; conflicts resolved lazily)."""
        self._by_address[tag.address].append(tag)
        self._count += 1

    def add_all(self, tags: Iterable[Tag]) -> None:
        for tag in tags:
            self.add(tag)

    def __len__(self) -> int:
        """Total tags recorded (including duplicates)."""
        return self._count

    def __contains__(self, address: str) -> bool:
        return address in self._by_address

    @property
    def address_count(self) -> int:
        """Distinct tagged addresses."""
        return len(self._by_address)

    def best_tag(self, address: str) -> Tag | None:
        """The highest-confidence tag for an address (ties: first seen)."""
        tags = self._by_address.get(address)
        if not tags:
            return None
        return max(tags, key=lambda t: t.confidence)

    def entity_of(self, address: str) -> str | None:
        """The entity the best tag asserts, or None."""
        best = self.best_tag(address)
        return best.entity if best else None

    def all_tags(self) -> Iterator[Tag]:
        """Every tag (including shadowed lower-confidence ones)."""
        for tags in self._by_address.values():
            yield from tags

    def entities(self) -> set[str]:
        """All entity names appearing in any tag."""
        return {tag.entity for tag in self.all_tags()}

    def as_mapping(self, *, min_confidence: float = 0.0) -> dict[str, str]:
        """Export ``address -> entity`` using each address's best tag."""
        out: dict[str, str] = {}
        for address in self._by_address:
            best = self.best_tag(address)
            if best is not None and best.confidence >= min_confidence:
                out[address] = best.entity
        return out

    def merged_with(self, other: "TagStore") -> "TagStore":
        """A new store holding both stores' tags."""
        merged = TagStore()
        merged.add_all(self.all_tags())
        merged.add_all(other.all_tags())
        return merged

    def export_state(self) -> list[tuple]:
        """Every tag as a plain tuple, in per-address insertion order —
        the shape the durable state store serializes."""
        return [
            (tag.address, tag.entity, tag.source, tag.confidence,
             tag.observed_height)
            for tag in self.all_tags()
        ]

    @classmethod
    def from_state(cls, state: Iterable[tuple]) -> "TagStore":
        """Rebuild a store from :meth:`export_state` output.  Re-adding
        in exported order reproduces conflict resolution exactly."""
        store = cls()
        for address, entity, source, confidence, observed_height in state:
            store.add(Tag(address, entity, source, confidence, observed_height))
        return store
