"""Every answer the chain's analyses give equals its pinned digest.

:func:`tests.helpers.answer_digests` hashes, per part, every streamed
block delta (and the same deltas caught up and restored), every H2
label with its fate, the cluster-count series, both partitions at every
height, the four cluster query kinds at every height on the tip path
and the built path, and every snapshot segment.
``tests/golden/answers.json`` pins one set per
:data:`tests.helpers.ANSWER_CHAINS` entry; tier-1 checks the micro world
and the 120-block scale chain, and the nightly workflow checks every
chain with ``GOLDEN_ANSWERS=all``.

A change meant to alter answers re-pins every digest with::

    PYTHONPATH=src python -m tests.test_answers_golden

and shows the new digests as a diff of ``tests/golden/answers.json``.
"""

from __future__ import annotations

import json
import os

import pytest

from tests.helpers import (
    ANSWER_CHAINS,
    GOLDEN_ANSWERS_PATH,
    answer_digests,
    golden_answer_digests,
    world_answer_inputs,
)

TIER1_CHAINS = ("scale_120",)
"""Chains tier-1 builds here; the micro world is the session fixture."""


def test_golden_file_pins_every_chain():
    assert sorted(golden_answer_digests()) == sorted(ANSWER_CHAINS)


def test_micro_world_answers_match_golden(micro_world):
    digests = answer_digests(**world_answer_inputs(micro_world))
    assert digests == golden_answer_digests()["micro_world"]


@pytest.mark.parametrize(
    "name",
    sorted(ANSWER_CHAINS)
    if os.environ.get("GOLDEN_ANSWERS") == "all"
    else TIER1_CHAINS,
)
def test_chain_answers_match_golden(name):
    digests = answer_digests(**ANSWER_CHAINS[name]())
    assert digests == golden_answer_digests()[name]


def pin() -> None:
    """Build every chain and write its answer digests."""
    digests = {name: answer_digests(**build()) for name, build in ANSWER_CHAINS.items()}
    GOLDEN_ANSWERS_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"pinned answer digests of {len(digests)} chains in {GOLDEN_ANSWERS_PATH}")


if __name__ == "__main__":
    pin()
