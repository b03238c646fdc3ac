"""ClusterRanking tie-breaking is stable and documented.

The contract (see :class:`~repro.service.queries.ClusterRanking`):
clusters with equal metric values rank by ascending *canonical* cluster
id — the cluster's minimum member address id.  Canonical ids are a pure
function of the partition, unlike raw union-find roots (whose identity
depends on union order, and which the pre-differential ranking used as
its tie-break — unstable across batch rebuilds vs incremental replay).
These tests pin the order identical across every way a ranking can be
produced: the streamed tip state, a replayed height, a snapshot-restored
service, and the batch oracle (``tests/helpers.reference_answer``).
"""

import pytest

from repro.chain.index import ChainIndex
from repro.chain.model import COIN
from repro.service import ForensicsService, Query
from repro.service.queries import TOP_CLUSTER_METRICS
from repro.storage import StateStore

from tests.helpers import addr, build_chain, coinbase, reference_answer, spend


N_TIED = 6


@pytest.fixture(scope="module")
def tied_world():
    """``N_TIED`` independent two-address clusters with equal balances,
    sizes, and activity — every metric is all ties.  Each cluster is two
    coinbase-funded addresses co-spent into one (H1 union); the
    auto-miner singletons ``build_chain`` adds sit in strictly lower
    value groups for every metric, so the top ``N_TIED`` entries are
    exactly the tied clusters."""
    funds = [
        (coinbase(addr(f"tie/{i}/x")), coinbase(addr(f"tie/{i}/y")))
        for i in range(N_TIED)
    ]
    sweeps = [
        spend(
            [(fund_x, 0), (fund_y, 0)],
            [(addr(f"tie/{i}/x"), 100 * COIN)],
        )
        for i, (fund_x, fund_y) in enumerate(funds)
    ]
    return build_chain([[tx for pair in funds for tx in pair], sweeps])


def _ranked_ids(service, by):
    return [
        cid for cid, _value, _name in service.top_clusters(N_TIED, by=by)
    ]


def test_ties_rank_by_canonical_id_ascending(tied_world):
    service = ForensicsService(tied_world)
    interner = tied_world.interner
    for by in TOP_CLUSTER_METRICS:
        ranked = _ranked_ids(service, by)
        assert len(ranked) == N_TIED
        # All values tied, so the documented order is canonical id asc.
        assert ranked == sorted(ranked)
        # And the canonical id is the cluster's minimum member id.
        assert ranked == [
            min(
                interner.id_of(addr(f"tie/{i}/x")),
                interner.id_of(addr(f"tie/{i}/y")),
            )
            for i in range(N_TIED)
        ]
        # The whole ranking (miner singletons included) honors the
        # contract: within every equal-value group, ids ascend.
        full = service.aggregates.at().ranking(by).order
        for (id_a, value_a), (id_b, value_b) in zip(full, full[1:]):
            assert value_a > value_b or (value_a == value_b and id_a < id_b)


def test_order_identical_across_paths_and_restores(tied_world, tmp_path):
    live = ForensicsService(tied_world)
    store = StateStore(tmp_path / "snapshots")
    store.snapshot(live)
    restored = store.restore()
    tip = tied_world.height
    for by in TOP_CLUSTER_METRICS:
        query = Query("top_clusters", (N_TIED, by))
        orders = {
            "live": _ranked_ids(live, by),
            "batch": [cid for cid, _v, _n in reference_answer(tied_world, query)],
            "restored": _ranked_ids(restored, by),
        }
        assert len(set(map(tuple, orders.values()))) == 1, (by, orders)
        # Full ranking objects too, not just the top slice — from the
        # tip state, a restored tip state, and a forced replay.
        full = live.aggregates.at().ranking(by)
        assert full == restored.aggregates.at().ranking(by)
        assert full.order == live.aggregates._replayed(tip).ranks[by].top(10 ** 9)
        everything = Query("top_clusters", (10 ** 9, by))
        assert full.order == tuple(
            (cid, value)
            for cid, value, _name in reference_answer(tied_world, everything)
        )


def test_order_stable_under_streaming_vs_catchup(tied_world):
    """Construction mode (catch-up over a full index vs block-by-block
    streaming) must not perturb the order either."""
    streamed_index = ChainIndex()
    streamed = ForensicsService(streamed_index)
    for height in range(tied_world.height + 1):
        streamed_index.add_block(tied_world.block_at(height))
    caught_up = ForensicsService(tied_world)
    for by in TOP_CLUSTER_METRICS:
        assert _ranked_ids(streamed, by) == _ranked_ids(caught_up, by)
