"""Shared fixtures: simulated worlds are expensive, so they are built
once per session and shared read-only across tests.

Also registers the hypothesis settings profiles: ``default`` (library
defaults — the per-commit CI budget) and ``nightly`` (many more
examples, no deadline — the scheduled workflow's deep sweep over the
property suites).  Select with ``HYPOTHESIS_PROFILE=nightly``.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, settings

from repro.pipeline import AnalystView
from repro.simulation import scenarios

settings.register_profile("default", settings())
settings.register_profile(
    "nightly",
    max_examples=400,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    print_blob=True,
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "slow: takes minutes (deselect with -m 'not slow')"
    )


@pytest.fixture(scope="session")
def micro_world():
    """A small full-stack world (~150 blocks, trimmed roster)."""
    return scenarios.micro_economy(seed=11)


@pytest.fixture(scope="session")
def default_world():
    """The full Table 1 roster world used by the §3/§4 experiments."""
    return scenarios.default_economy(seed=5, n_blocks=400, n_users=40)


@pytest.fixture(scope="session")
def default_view(default_world):
    """Analyst pipeline over the default world."""
    return AnalystView.build(default_world)


@pytest.fixture(scope="session")
def silkroad_world():
    """A shortened Silk Road world (hoard + 3 peel chains)."""
    return scenarios.silkroad_world(seed=3, n_blocks=900, n_users=50, chain_hops=60)


@pytest.fixture(scope="session")
def silkroad_view(silkroad_world):
    return AnalystView.build(silkroad_world)
