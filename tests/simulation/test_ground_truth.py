"""Ground-truth registry semantics."""

import pytest

from repro.simulation.ground_truth import GroundTruth


def _registry():
    gt = GroundTruth()
    gt.register_entity("Mt Gox", "exchanges")
    gt.register_entity("alice", "users")
    gt.register_address("1gox1", "Mt Gox")
    gt.register_address("1gox2", "Mt Gox")
    gt.register_address("1alice", "alice")
    return gt


class TestRegistration:
    def test_owner_lookup(self):
        gt = _registry()
        assert gt.owner_of("1gox1") == "Mt Gox"
        assert gt.owner_of("1nobody") is None

    def test_category_lookup(self):
        gt = _registry()
        assert gt.category_of("Mt Gox") == "exchanges"
        assert gt.category_of("ghost") is None

    def test_unknown_entity_rejected(self):
        gt = _registry()
        with pytest.raises(KeyError):
            gt.register_address("1x", "ghost")

    def test_reassignment_rejected(self):
        gt = _registry()
        with pytest.raises(ValueError):
            gt.register_address("1gox1", "alice")

    def test_category_conflict_rejected(self):
        gt = _registry()
        with pytest.raises(ValueError):
            gt.register_entity("Mt Gox", "vendors")

    def test_idempotent_reregistration_ok(self):
        gt = _registry()
        gt.register_entity("Mt Gox", "exchanges")
        gt.register_address("1gox1", "Mt Gox")


class TestQueries:
    def test_same_owner(self):
        gt = _registry()
        assert gt.owner_of("1gox1") == gt.owner_of("1gox2") == "Mt Gox"
        assert gt.owner_of("1gox1") != gt.owner_of("1alice")
        assert gt.owner_of("1unknown") is None

    def test_addresses_of(self):
        gt = _registry()
        assert gt.addresses_of("Mt Gox") == {"1gox1", "1gox2"}
        assert gt.addresses_of("ghost") == frozenset()

    def test_entities_in_category(self):
        gt = _registry()
        categories = {entity.name: entity.category for entity in gt.entities()}
        assert categories == {"Mt Gox": "exchanges", "alice": "users"}
        assert gt.category_of("alice") == "users"

    def test_true_partition(self):
        gt = _registry()
        partition = gt.true_partition()
        assert partition["Mt Gox"] == {"1gox1", "1gox2"}
        assert len(partition) == 2

    def test_counts(self):
        gt = _registry()
        assert len(gt.entities()) == 2
        assert sum(len(a) for a in gt.true_partition().values()) == 3
