"""Tag store semantics: confidence tiers, conflicts, merging."""

import pytest

from repro.tagging.tags import (
    SOURCE_MANUAL,
    SOURCE_OWN,
    SOURCE_PUBLIC,
    Tag,
    TagStore,
    make_tag,
)


class TestTag:
    def test_default_confidences_ordered(self):
        own = make_tag("1a", "X", SOURCE_OWN)
        manual = make_tag("1a", "X", SOURCE_MANUAL)
        public = make_tag("1a", "X", SOURCE_PUBLIC)
        assert own.confidence > manual.confidence > public.confidence

    def test_confidence_bounds(self):
        with pytest.raises(ValueError):
            Tag("1a", "X", SOURCE_OWN, confidence=0.0)
        with pytest.raises(ValueError):
            Tag("1a", "X", SOURCE_OWN, confidence=1.5)


class TestStore:
    def test_lookup(self):
        store = TagStore([make_tag("1a", "Mt Gox")])
        assert "1a" in store
        assert store.entity_of("1a") == "Mt Gox"
        assert store.entity_of("1b") is None
        assert store.address_count == 1

    def test_conflict_resolution_prefers_confidence(self):
        store = TagStore(
            [
                make_tag("1a", "WrongService", SOURCE_PUBLIC),
                make_tag("1a", "RightService", SOURCE_OWN),
            ]
        )
        assert store.entity_of("1a") == "RightService"

    def test_as_mapping_confidence_filter(self):
        store = TagStore(
            [
                make_tag("1a", "A", SOURCE_OWN),
                make_tag("1b", "B", SOURCE_PUBLIC),
            ]
        )
        assert store.as_mapping() == {"1a": "A", "1b": "B"}
        assert store.as_mapping(min_confidence=0.9) == {"1a": "A"}

    def test_entities(self):
        store = TagStore([make_tag("1a", "A"), make_tag("1b", "B")])
        assert store.entities() == {"A", "B"}

    def test_merged_with(self):
        a = TagStore([make_tag("1a", "A")])
        b = TagStore([make_tag("1b", "B")])
        merged = a.merged_with(b)
        assert merged.address_count == 2
        assert a.address_count == 1  # originals untouched

    def test_len_counts_all_tags(self):
        store = TagStore(
            [make_tag("1a", "A", SOURCE_OWN), make_tag("1a", "A", SOURCE_PUBLIC)]
        )
        assert len(store) == 2
        assert store.address_count == 1
