"""Seeded worlds are byte-identical to their pinned digests.

:func:`tests.helpers.world_digest` hashes a world's block bytes, tags,
ground truth and change truth.  ``tests/golden/worlds.json`` pins one
digest per :data:`tests.helpers.GOLDEN_WORLDS` entry; this module checks
the tier-1 session worlds and the end-to-end benchmark's economy, and
``benchmarks/bench_world_generation.py`` checks the two bench worlds.

A change meant to alter generated worlds re-pins every digest with::

    PYTHONPATH=src python -m tests.simulation.test_world_golden

and shows the new digests as a diff of ``tests/golden/worlds.json``.
"""

from __future__ import annotations

import json

import pytest

from tests.helpers import (
    GOLDEN_WORLDS,
    GOLDEN_WORLDS_PATH,
    golden_world_digests,
    world_digest,
)


def test_golden_file_pins_every_world():
    assert sorted(golden_world_digests()) == sorted(GOLDEN_WORLDS)


@pytest.mark.parametrize("name", ["micro_world", "default_world", "silkroad_world"])
def test_session_world_matches_golden(name, request):
    world = request.getfixturevalue(name)
    assert world_digest(world) == golden_world_digests()[name]


def test_e2e_economy_matches_golden():
    world = GOLDEN_WORLDS["e2e_economy"]()
    assert world_digest(world) == golden_world_digests()["e2e_economy"]


def test_digest_sees_tags_owners_and_change():
    """Beyond the block bytes, one extra tag, one more owned address or
    one moved change output each change the digest."""
    from repro.simulation import scenarios
    from repro.tagging.tags import make_tag

    world = scenarios.micro_economy(seed=11, n_blocks=40)
    digests = {world_digest(world)}
    world.extras["attack"].tags.add(make_tag("1BoatSLRHtKNngkdXEeobR76b53LETtpyT", "x"))
    digests.add(world_digest(world))
    world.ground_truth.register_address("1BoatSLRHtKNngkdXEeobR76b53LETtpyT", "Mt Gox")
    digests.add(world_digest(world))
    change = world.economy.change_truth
    txid, record = next(iter(change.items()))
    change[txid] = type(record)(record.change_address, record.change_kind, -1)
    digests.add(world_digest(world))
    assert len(digests) == 4


def pin() -> None:
    """Build every golden world and write its digest."""
    digests = {name: world_digest(build()) for name, build in GOLDEN_WORLDS.items()}
    GOLDEN_WORLDS_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_WORLDS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"pinned {len(digests)} world digests in {GOLDEN_WORLDS_PATH}")


if __name__ == "__main__":
    pin()
