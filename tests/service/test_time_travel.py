"""Every cluster kind at every height == the batch oracle.

The contract behind the per-height aggregate delta log:
``top_clusters`` / ``cluster_profile`` / ``cluster_balance`` /
``cluster_of`` at any ``height <= tip`` — the tip included, both as the
default and as an explicit height — answer repr-equal to a batch
re-clustering as of that height (``tests/helpers.reference_answers``).
The hypothesis case randomizes the scenario, so the sweep covers
H1-only heights, open-overlay horizons (a §4.2 window mid-flight at
``h``), voids, expiries, and base merges landing between checkpoints;
the restore case pins the same equality after a snapshot round trip,
whose ``timetravel`` segment seeds the replay base from serialized
arrays rather than a live fold.

A second class pins the naming-epoch cache key (the staleness fix that
rides along with this log): name-bearing kinds re-key when a
structural naming drain bumps the epoch at an unchanged tip, so a
merge can never keep serving a pre-merge cluster name out of the
query cache.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blockfile import BlockFileWriter
from repro.chain.index import ChainIndex
from repro.chain.model import COIN
from repro.service import ForensicsService, Query
from repro.service.queries import TOP_CLUSTER_METRICS
from repro.simulation import scenarios
from repro.storage import StateStore

from tests.helpers import addr, build_chain, coinbase, reference_answers, spend


def queries_at(index, height: int | None) -> list[Query]:
    """Every cluster kind at one height (``None``: the tip, asked
    without a height argument), over a spread of addresses."""
    at = () if height is None else (height,)
    queries = [
        Query("top_clusters", (8, by) + at) for by in TOP_CLUSTER_METRICS
    ]
    interner = index.interner
    step = max(1, len(interner) // 5)
    for ident in range(0, len(interner), step):
        address = interner.address_of(ident)
        for kind in ("cluster_of", "cluster_balance", "cluster_profile"):
            queries.append(Query(kind, (address,) + at))
    return queries


def assert_service_equals_batch(service) -> None:
    """Exhaustive sweep: the service answers every cluster kind at
    every height, and every answer is repr-equal to the oracle's (exact
    values, exact ranking order, exact names — not merely
    shape-compatible)."""
    index = service.index
    queries = [
        query
        for height in [*range(service.height + 1), None]
        for query in queries_at(index, height)
    ]
    expected = reference_answers(
        index,
        queries,
        tags=service.tags,
        h2_config=service.engine.h2_config,
        dice_addresses=service.engine.dice_addresses,
    )
    for query, answer in zip(queries, expected):
        assert repr(service.answer(query)) == repr(answer), query


class TestEveryKindAtEveryHeight:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=6, max_value=20),
        n_users=st.integers(min_value=3, max_value=6),
    )
    def test_random_scenarios(self, seed, n_blocks, n_users):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        assert_service_equals_batch(ForensicsService.from_world(world))

    def test_micro_world_with_tags(self, micro_world):
        """Naming in play: historical top-cluster rows and profiles
        carry as-of-height cluster names."""
        assert_service_equals_batch(ForensicsService.from_world(micro_world))


class TestEveryKindAtEveryHeightAfterRestore:
    def test_every_height_after_round_trip(self, tmp_path):
        """Snapshot -> restore -> the restored service answers every
        cluster kind at every height equal to the batch oracle."""
        world = scenarios.micro_economy(seed=5, n_blocks=20, n_users=5)
        BlockFileWriter(tmp_path / "blocks").write_chain(world.blocks)
        store = StateStore(tmp_path / "snapshots")
        service = ForensicsService.from_world(world)
        # Warm one horizon before the snapshot so the export is taken
        # from a view whose replay machinery has actually run.
        assert service.cluster_profile(
            world.index.interner.address_of(0), height=service.height // 2
        )
        store.snapshot(service)
        assert_service_equals_batch(store.restore(follow=False))


class TestAddressFieldsFromTheRows:
    """Below the tip a profile's own-address fields are read off the
    address's receive and spend rows.  The count is of distinct
    transactions, which only a chain that pays one address several
    times over can tell from a count of rows."""

    def test_self_change_double_pay_and_later_spend(self):
        busy = addr("rows/busy")
        cb_busy = coinbase(busy, height=100)
        cb_other = coinbase(addr("rows/other"), height=101)
        # Input and output of one transaction: one incidence.
        self_change = spend(
            [(cb_busy, 0)], [(busy, 10 * COIN), (addr("rows/y"), 40 * COIN)]
        )
        # Paid twice by one transaction, and by a second one in the
        # same block: two incidences, three receive rows.
        pays_twice = spend(
            [(self_change, 1)],
            [(busy, 5 * COIN), (busy, 6 * COIN), (addr("rows/z"), 29 * COIN)],
        )
        same_block = spend(
            [(cb_other, 0)], [(busy, 20 * COIN), (addr("rows/w"), 30 * COIN)]
        )
        # Two of its outputs spent by one later transaction.
        later = spend(
            [(self_change, 0), (pays_twice, 0)], [(addr("rows/q"), 15 * COIN)]
        )
        source = build_chain(
            [[cb_busy, cb_other], [self_change], [pays_twice, same_block], [],
             [later], []]
        )
        target = ChainIndex()
        service = ForensicsService(target)
        for height in range(source.height + 1):
            target.add_block(source.block_at(height))

        own = [
            (profile["balance"] // COIN, profile["tx_count"],
             profile["first_seen"], profile["last_seen"])
            for profile in (
                service.cluster_profile(busy, height=height)
                for height in range(service.height + 1)
            )
        ]
        assert own == [
            (50, 1, 0, 0), (10, 2, 0, 1), (41, 4, 0, 2), (41, 4, 0, 2),
            (26, 5, 0, 4), (26, 5, 0, 4),
        ]
        queries = [
            Query("cluster_profile", (address, height))
            for height in range(service.height + 1)
            for address in target.interner
            if target.first_seen(address) <= height
        ]
        for query, expected in zip(queries, reference_answers(target, queries)):
            assert repr(service.answer(query)) == repr(expected), query


class TestNamingEpochCacheKeys:
    """The staleness regression: name-bearing kinds must re-key when the
    aggregate view's naming epoch moves, even at an unchanged tip."""

    def _service(self):
        cb_a = coinbase(addr("epoch/a"))
        cb_b = coinbase(addr("epoch/b"))
        merge = spend(
            [(cb_a, 0), (cb_b, 0)], [(addr("epoch/c"), 80 * COIN)]
        )
        source = build_chain([[cb_a], [cb_b], [merge]])
        target = ChainIndex()
        service = ForensicsService(target)
        for height in range(3):
            target.add_block(source.block_at(height))
        return service

    def test_epoch_bump_re_keys_name_bearing_kinds(self):
        service = self._service()
        engine = service.queries
        view = service.aggregates
        named = [
            Query("top_clusters", (5, "size")),
            Query("cluster_profile", (addr("epoch/a"),)),
        ]
        for query in named:
            before = engine._cache_key(query)
            view.naming_epoch += 1
            assert engine._cache_key(query) != before, query.kind
        # Name-free kinds stay keyed on the tip alone.
        unnamed = Query("cluster_balance", (addr("epoch/a"),))
        before = engine._cache_key(unnamed)
        view.naming_epoch += 1
        assert engine._cache_key(unnamed) == before

    def test_epoch_bump_forces_recompute_at_unchanged_tip(self):
        service = self._service()
        query = Query("top_clusters", (5, "size"))
        first = service.answer(query)
        # The first answer drains naming churn (which may bump the
        # epoch); from here the key is stable, so a repeat is a pure hit.
        service.answer(query)
        hits = service.cache.hits
        assert service.answer(query) == first
        assert service.cache.hits == hits + 1
        # An epoch bump at the same tip invalidates: the repeat misses
        # (recomputes against current names) instead of serving the
        # pre-drain entry.
        misses = service.cache.misses
        service.aggregates.naming_epoch += 1
        assert service.answer(query) == first
        assert service.cache.misses == misses + 1
