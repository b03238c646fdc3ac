"""The streamed cluster aggregates == a batch re-clustering, per height.

The tentpole property, in the PR 1/PR 2 style: stream a world's chain
block by block with the :class:`ClusterAggregateView` folding deltas,
and at *every* height compare the tip surface against the batch oracle
(``tests/helpers.ReferenceRollup``: one ``ClusteringEngine.cluster`` +
the index's address rows) — per-cluster balances, activity, sizes, and
the complete ranking order for every metric in
``TOP_CLUSTER_METRICS``.  Cluster identity is canonical (minimum member
address id), so equality here is exact object equality, not merely
shape-compatible.

The hypothesis case randomizes the simulated scenario (seed, length,
roster size), so the sweep covers H1-only blocks, H2 births, §4.2 wait
voids, window expiries, and merges folding previously independent
aggregates — under ``HYPOTHESIS_PROFILE=nightly`` it runs hundreds of
worlds.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.chain.index import ChainIndex
from repro.obs import MetricsRegistry
from repro.service import AggregatesBehindError, ForensicsService, Query
from repro.service.queries import TOP_CLUSTER_METRICS
from repro.simulation import large_scale_blocks, scenarios

from tests.helpers import (
    ReferenceRollup,
    assert_surface_equals_batch,
    component,
    reference_answers,
)


def assert_view_equals_batch(service):
    view = service.aggregates
    assert view.height == service.height
    assert_surface_equals_batch(view.at(), service.index, service.height)


def state_fingerprint(state):
    """Everything a settled ``_AggregateState`` is, as comparable data
    (partition, root columns at roots, canonical ids, open set, overlay
    groups, rankings)."""
    roots = state.uf.root_ids().tolist()
    return {
        "height": state.height,
        "universe": len(state.uf),
        "partition": state.uf.find_many(range(len(state.uf))).tolist(),
        "columns": {
            root: (
                state.roots.balance[root], state.roots.tx_count[root],
                state.min_member[root], state.uf.root_sizes[root],
            )
            for root in roots
        },
        "open": sorted(
            (live.label.height, live.address_id, live.input_id or -1)
            for live in state.open
        ),
        "groups": sorted(
            (g.cid, g.roots, g.size, g.balance, g.tx_count)
            for g in state.groups
        ),
        "ranks": {by: state.ranks[by].top(10 ** 9) for by in TOP_CLUSTER_METRICS},
    }


def _link_key(live):
    return (live.label.height, live.address_id, live.input_id)


def held_links(state):
    """Canonical id -> the open links each overlay group holds."""
    return {g.cid: sorted(map(_link_key, g.links)) for g in state.groups}


def derived_links(state):
    """Canonical id -> the open links whose endpoints fall in each
    overlay group, derived from the open set and the base partition."""
    out = {g.cid: [] for g in state.groups}
    for live in state.open:
        if live.input_id is None:
            continue
        owner = state.uf.find(live.address_id)
        if owner != state.uf.find(live.input_id):
            out[state.group_of[owner].cid].append(_link_key(live))
    return {cid: sorted(keys) for cid, keys in out.items()}


def column_built(view):
    """The view's state at its tip height, built from the delta log's
    columns and settled wholesale (never the tip's own derived state)."""
    settled = view._log.state_at(view.height, view._tip.uf)
    settled.settle()
    return settled


def flush_paths(metrics):
    """The derived-state builder of every recorded flush, in order."""
    spans = metrics.flight.dump()
    return [span["path"] for span in spans if span["kind"] == "flush"]


def assert_tip_equals_column_build(view):
    state = view.at()._state
    settled = column_built(view)
    assert state_fingerprint(state) == state_fingerprint(settled)
    assert held_links(state) == derived_links(settled)


class TestStreamedEqualsBatchAtEveryHeight:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=6, max_value=30),
        n_users=st.integers(min_value=3, max_value=8),
    )
    def test_random_scenarios(self, seed, n_blocks, n_users):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in world.blocks:
            target.add_block(block)
            assert_view_equals_batch(service)

    def test_default_world_with_tags(self, micro_world):
        """One full-roster streamed pass with naming in play: every
        cluster-level answer is repr-equal to the batch oracle's, at
        every height."""
        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        index = ChainIndex()
        service = ForensicsService(index, tags=tags)
        for block in micro_world.blocks[:48]:
            index.add_block(block)
            queries = [
                Query("top_clusters", (20, by)) for by in TOP_CLUSTER_METRICS
            ]
            interner = index.interner
            for ident in range(0, len(interner), 9):
                address = interner.address_of(ident)
                queries += [
                    Query(kind, (address,))
                    for kind in ("cluster_of", "cluster_balance", "cluster_profile")
                ]
            for query, expected in zip(
                queries, reference_answers(index, queries, tags=tags)
            ):
                assert repr(service.answer(query)) == repr(expected), (
                    block.height, query,
                )


class TestOneFoldThreeCallers:
    """The one-run flush and the per-block flushes go through
    ``_AggregateState.advance``, a past height through the delta log's
    column build: whatever the path or the run boundaries, the state at
    a height is the same state."""

    def _streamed(self, world, flush_every):
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        for block in world.blocks:
            index.add_block(block)
            if (block.height + 1) % flush_every == 0:
                service.aggregates.at()
        return service

    def test_one_run_equals_per_block_equals_replay_from_genesis(self):
        world = scenarios.micro_economy(seed=23, n_blocks=45, n_users=8)
        per_block = self._streamed(world, 1)
        one_run = self._streamed(world, 10 ** 9)
        in_sevens = self._streamed(world, 7)
        tip = per_block.height
        expected = state_fingerprint(per_block.aggregates.at()._state)
        one_run_tip = one_run.aggregates.at()._state  # the single flush
        # A view with an empty memo: the state is built from the delta
        # log's columns and the tip's partition.
        replayed = one_run.aggregates._replayed(tip)
        for other in (one_run_tip, in_sevens.aggregates.at()._state, replayed):
            assert state_fingerprint(other) == expected
        # One state shape: a replayed state and the tip state hold the
        # same slots, each the same kind of thing.
        for slot in type(replayed).__slots__:
            assert type(getattr(replayed, slot)) is type(
                getattr(one_run_tip, slot)
            ), slot

    def test_forced_replay_to_tip_equals_the_tip_surface(self, default_world):
        """``at(tip)`` serves the incrementally patched tip state without
        replaying; a replay forced to the same height settles wholesale
        and must agree with it in every field, so serving the tip state
        cannot hide a divergence.  The full-roster world reaches the
        overlay topologies the micro worlds do not (a dissolving group
        whose members join an older cluster's group)."""
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        view = service.aggregates
        for block in default_world.blocks:
            index.add_block(block)
            live = view.at()  # a per-block flush
            forced = view._replayed(block.height)
            assert forced is not live._state
            assert state_fingerprint(forced) == state_fingerprint(
                live._state
            ), block.height
        assert_surface_equals_batch(live, index, service.height)


class TestPatchedTipEqualsSettledClone:
    """The tip re-links only the overlay groups a flush touched; after
    every flush it must equal the state built from the delta log at the
    same height and settled wholesale, groups, rankings and the links
    each group holds included."""

    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=6, max_value=30),
        n_users=st.integers(min_value=3, max_value=8),
        cadence=st.sampled_from([1, 3, None]),  # None: one flush at the end
    )
    def test_after_every_flush(self, seed, n_blocks, n_users, cadence):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        blocks = world.blocks
        for count, block in enumerate(blocks, 1):
            index.add_block(block)
            if count == len(blocks) or (cadence and count % cadence == 0):
                assert_tip_equals_column_build(service.aggregates)

    def test_one_long_run_then_every_block(self, micro_world):
        """The first flush after a bulk ingest settles the tip wholesale
        and records ``settle``; each followed block then patches it (the
        first patch sorting the settled rank columns into lists) and
        records ``patch``; after every flush the tip equals the column
        build."""
        metrics = MetricsRegistry()
        index = ChainIndex()
        service = ForensicsService(index, tags=None, metrics=metrics)
        blocks = micro_world.blocks
        for count, block in enumerate(blocks, 1):
            index.add_block(block)
            if count >= len(blocks) - 10:
                assert_tip_equals_column_build(service.aggregates)
        assert flush_paths(metrics) == ["settle"] + ["patch"] * 10

    def test_per_block_follow_relinks_a_small_share_of_open_links(
        self, default_world
    ):
        """A block touches a few overlay groups; the flush re-links those
        groups' links, not every open link."""
        metrics = MetricsRegistry()
        index = ChainIndex()
        service = ForensicsService(index, tags=None, metrics=metrics)
        open_links = 0
        for block in default_world.blocks:
            index.add_block(block)
            tip = service.aggregates.at()._state
            open_links += sum(live.input_id is not None for live in tip.open)
        assert_tip_equals_column_build(service.aggregates)
        counters = metrics.snapshot()["counters"]
        relinked = counters["aggregates.overlay_links_relinked"]
        assert open_links > 1000
        assert relinked <= 0.10 * open_links, (relinked, open_links)
        assert counters["aggregates.overlay_reuse_hits"] > 0


class TestIncrementalClusterNames:
    def test_incremental_names_equal_full_rebuild_at_every_height(
        self, micro_world
    ):
        """The tip's name map, built as each block arrives, equals the
        batch oracle's names at every height — merges, group
        dissolutions, and voids included."""
        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        assert tags is not None and len(tags) > 0
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        for block in micro_world.blocks[:80]:
            target.add_block(block)
            names = service.queries._cluster_names(service.aggregates.at())
            batch = ReferenceRollup(
                target, block.height, tags=tags, h2_config=None,
                dice_addresses=frozenset(),
            )
            assert names == batch.names, block.height

    def test_names_after_a_bulk_run_equal_a_fresh_service(self, micro_world):
        """A bulk run settles the tip wholesale, and a name map built
        before it does not leak into the answers after it: after the
        run and at each of ten followed blocks, ranked and profiled
        names equal those of a service built fresh at that height."""
        tags = micro_world.extras["attack"].tags
        tagged = sorted({tag.address for tag in tags.all_tags()})
        blocks = micro_world.blocks
        metrics = MetricsRegistry(flight_capacity=4096)  # every query's span
        target, reference = ChainIndex(), ChainIndex()
        service = ForensicsService(target, tags=tags, metrics=metrics)
        queries = [
            Query("top_clusters", (20, by)) for by in TOP_CLUSTER_METRICS
        ] + [Query("cluster_profile", (address,)) for address in tagged]

        def ingest(run):
            for block in run:
                target.add_block(block)
                reference.add_block(block)

        ingest(blocks[:100])
        service.answer(queries[0])  # the name map, built before the run
        ingest(blocks[100:-10])
        for block in [None, *blocks[-10:]]:
            if block is not None:
                ingest([block])
            fresh = ForensicsService(reference, tags=tags)
            for query in queries:
                assert repr(service.answer(query)) == repr(
                    fresh.answer(query)
                ), (target.height, query)
            fresh.detach()
        assert flush_paths(metrics)[:2] == ["settle", "settle"]

    def test_tags_added_after_first_build_are_picked_up(self, micro_world):
        """The tag store is append-only but live: a tag added after the
        first name build must flow into later heights on the live-view
        path (the entries snapshot rebuilds on count change)."""
        from repro.tagging.tags import Tag, TagStore

        # A copy: the late tag must not leak into the shared session world.
        tags = TagStore.from_state(micro_world.extras["attack"].tags.export_state())
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        blocks = micro_world.blocks
        for block in blocks[:30]:
            target.add_block(block)
        before = service.queries._cluster_names(service.aggregates.at())
        # Tag an address that already has a cluster but no name yet.
        interner = target.interner
        named_cids = set(before)
        victim = None
        for ident in range(len(interner)):
            cid = service.aggregates.at().cluster_id_of(ident)
            if cid is not None and cid not in named_cids:
                victim = interner.address_of(ident)
                break
        assert victim is not None
        tags.add(Tag(address=victim, entity="Late Entity", source="user",
                     confidence=1.0))
        target.add_block(blocks[30])
        after = service.queries._cluster_names(service.aggregates.at())
        late_cid = service.aggregates.at().cluster_id_of(
            interner.id_of(victim)
        )
        assert after.get(late_cid) == "Late Entity"


class TestMergeHookAndTimeTravel:
    def test_view_survives_interleaved_time_travel(self, micro_world):
        """Engine time travel between blocks — historical partitions
        and the every-height series — must leave the merge log the
        view folds from untouched."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in micro_world.blocks[:36]:
            target.add_block(block)
            height = block.height
            service.engine.cluster_as_of(max(0, height - 3))
            service.engine.cluster_count_series()
            service.answer(Query("top_clusters", (5, "balance")))
        assert_view_equals_batch(service)

    def test_view_requires_engine_ahead(self, micro_world):
        """Attaching the view to an index the engine does not follow
        fails loudly instead of folding stale deltas."""
        source = micro_world.index
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        service.engine.detach()
        with pytest.raises(ValueError, match="attach ClusterAggregateView"):
            target.add_block(source.block_at(0))


class TestViewBehindTheTip:
    def test_cluster_kinds_are_refused_not_served_stale(
        self, micro_world, tmp_path
    ):
        """A view frozen below the tip must not serve stale answers and
        there is no second way to compute them: every cluster kind
        raises the typed error naming both heights, the refusal is
        logged as a ``query_error``, and ``balance_of`` (which does not
        read the view) still answers."""
        from repro.obs.log import JsonLinesLogger

        log = JsonLinesLogger(tmp_path / "events.jsonl", min_level="error")
        target = ChainIndex()
        service = ForensicsService(target, tags=None, log=log)
        for block in micro_world.blocks[:20]:
            target.add_block(block)
        service.aggregates.detach()
        for block in micro_world.blocks[20:24]:
            target.add_block(block)
        assert service.aggregates.height == 19
        assert service.height == 23
        address = target.interner.address_of(0)
        for query in (
            Query("cluster_of", (address,)),
            Query("cluster_balance", (address,)),
            Query("cluster_profile", (address,)),
            Query("top_clusters", (5, "size")),
            Query("top_clusters", (5, "size", 22)),
        ):
            with pytest.raises(AggregatesBehindError) as refused:
                service.answer(query)
            assert refused.value.view_height == 19
            assert refused.value.chain_height == 23
            assert "19" in str(refused.value) and "23" in str(refused.value)
        log.close()
        events = (tmp_path / "events.jsonl").read_text().splitlines()
        assert len(events) == 5
        assert all(
            '"query_error"' in line and "AggregatesBehindError" in line
            for line in events
        )
        balance = target.address(address).balance
        assert service.answer(Query("balance_of", (address,))) == balance
        health = service.health_report()
        assert component(health, "aggregates").status == "failing"

    def test_folded_heights_still_answer_exactly(self, micro_world):
        """The refusal is about heights the view has not folded; what it
        has folded it still serves, exactly."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in micro_world.blocks[:20]:
            target.add_block(block)
        service.aggregates.detach()
        target.add_block(micro_world.blocks[20])
        for height in (7, 19):
            assert_surface_equals_batch(
                service.aggregates.at(height), target, height
            )
        address = target.interner.address_of(0)
        query = Query("cluster_profile", (address, 19))
        assert repr(service.answer(query)) == repr(
            reference_answers(target, [query])[0]
        )

    def test_stats_report_cluster_count_only_when_live(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in micro_world.blocks[:10]:
            target.add_block(block)
        live = service.stats()
        assert live["clusters"] == service.aggregates.cluster_count > 0
        service.aggregates.detach()
        target.add_block(micro_world.index.block_at(10))
        assert service.stats()["clusters"] is None


class TestDirtyRootCursors:
    """A flush that moves a cluster's canonical id renames it in the
    next answer: the tip's name map is built from scratch at every
    height, with the auditor attached or not."""

    def test_a_settled_run_reports_every_moved_placement(self, micro_world):
        """Across runs the flush settles wholesale, every tagged address
        whose canonical id moved is named under its new id as the batch
        oracle names it, and no name is left under an id that is gone."""
        tags = micro_world.extras["attack"].tags
        tagged = sorted({tag.address for tag in tags.all_tags()})
        metrics = MetricsRegistry()
        target = ChainIndex()
        service = ForensicsService(target, tags=tags, metrics=metrics)
        view = service.aggregates
        blocks = micro_world.blocks
        placed: dict[str, int] = {}
        moved = []
        # The first run ends before the world's one void (height 19).
        for start, stop in ((0, 15), (15, 100), (100, len(blocks))):
            for block in blocks[start:stop]:
                target.add_block(block)
            tip = view.at()
            names = service.queries._cluster_names(tip)
            batch = ReferenceRollup(
                target, tip.height, tags=tags, h2_config=None,
                dice_addresses=frozenset(),
            )
            assert names == batch.names, start
            now = {
                address: tip.cluster_id_of(target.interner.id_of(address))
                for address in tagged
                if target.interner.id_of(address) is not None
            }
            for address, cid in placed.items():
                if now[address] != cid:
                    moved.append(address)
                    assert names[now[address]] == batch.names[now[address]]
            placed = now
        assert flush_paths(metrics)[1:] == ["settle"] * 2
        assert moved

    def test_query_names_and_auditor_coexist(self, micro_world):
        """End to end: a strict auditor runs beside the query engine's
        name maps, and the tip's map equals the batch oracle's names at
        every height."""
        from repro.obs import InvariantAuditor

        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        auditor = InvariantAuditor(service, audit_every=5, strict=True)
        for block in micro_world.blocks[:40]:
            target.add_block(block)
            names = service.queries._cluster_names(service.aggregates.at())
            batch = ReferenceRollup(
                target, block.height, tags=tags, h2_config=None,
                dice_addresses=frozenset(),
            )
            assert names == batch.names, block.height
        assert auditor.audits_run == 8
        assert auditor.total_violations == 0

    def test_nothing_is_marked_without_a_cursor(self):
        """An untagged service keeps no naming state: no flush, settled
        or patched, builds tag columns or caches a name map, and every
        ranked cluster answers without a name."""
        index = ChainIndex()
        service = ForensicsService(index, tags=None)
        top = Query("top_clusters", (10, "size"))
        blocks = list(large_scale_blocks(140, seed=0))
        answers = []
        for block in blocks[:100]:
            index.add_block(block)
        answers.append(service.answer(top))
        for block in blocks[100:]:
            index.add_block(block)
            answers.append(service.answer(top))
        assert service.queries._cluster_names(service.aggregates.at()) is None
        assert service.queries._tag_columns is None
        assert not [
            key for key in service.cache._entries
            if "_agg:cluster_names" in repr(key)
        ]
        assert all(answer for answer in answers)
        assert {name for answer in answers for _cid, _value, name in answer} == {
            None
        }

    def test_a_link_born_in_a_settled_run_renames_an_untouched_cluster(self):
        """A change link born inside a settled run joins two clusters
        that both existed before it: X, whose change address C then
        co-spends with the older cluster L.  X has no merge and was in
        no overlay group, yet its canonical id moves to L's, and its
        tagged name with it: the answers equal a fresh service's.
        """
        from repro.chain.model import COIN
        from repro.tagging.tags import Tag, TagStore

        from tests.helpers import addr, build_chain, coinbase, spend

        cb_l, cb_x = coinbase(addr("old/l")), coinbase(addr("old/x"))
        # Y has two receives, so paying it is no reused-change pattern.
        cb_y = [coinbase(addr("old/y"), value) for value in (40 * COIN, 50 * COIN)]
        labelled = spend(
            [(cb_x, 0)], [(addr("old/y"), 10 * COIN), (addr("new/c"), 40 * COIN)]
        )
        joint = spend([(labelled, 1), (cb_l, 0)], [(addr("new/z"), 90 * COIN)])
        # Heights 2-69 are one run, each with a fresh miner: it settles.
        source = build_chain(
            [[cb_l, cb_x, *cb_y], [], [labelled], [joint]]
            + [[] for _ in range(66)]
        )
        tags = TagStore([Tag(addr("old/x"), "X Corp", "user", 1.0)])
        metrics = MetricsRegistry()
        target = ChainIndex()
        service = ForensicsService(target, tags=tags, metrics=metrics)
        view = service.aggregates
        top = Query("top_clusters", (100, "size"))
        target.add_block(source.block_at(0))
        target.add_block(source.block_at(1))
        service.answer(top)  # the name map, built before the run
        x = target.interner.id_of(addr("old/x"))
        l_cid = view.at().cluster_id_of(target.interner.id_of(addr("old/l")))
        assert l_cid < x == view.at().cluster_id_of(x)
        for height in range(2, source.height + 1):
            target.add_block(source.block_at(height))
        tip = view.at()
        assert tip.cluster_id_of(x) == l_cid
        assert flush_paths(metrics)[-1] == "settle"
        assert view._tip.group_of[view._tip.uf.find(x)].cid == l_cid

        fresh = ForensicsService(source, tags=tags)
        answer = fresh.answer(top)
        assert (l_cid, "X Corp") in [(cid, name) for cid, _value, name in answer]
        assert repr(service.answer(top)) == repr(answer)
        fresh.detach()


class TestTimeTravelMemory:
    def test_resident_bytes_are_the_log_plus_the_memo(self):
        """A question at every past height keeps nothing per height: the
        ``timetravel.resident_bytes`` gauge reads the delta log plus at
        most ``_MEMO_SIZE`` states, each no larger than the state the log
        builds at the tip height."""
        metrics = MetricsRegistry()
        index = ChainIndex()
        service = ForensicsService(index, tags=None, metrics=metrics)
        for block in large_scale_blocks(300, seed=0):
            index.add_block(block)
        view = service.aggregates
        address = index.interner.address_of(0)
        for height in range(service.height):
            if height % 2:
                service.answer(Query("cluster_profile", (address, height)))
            else:
                by = TOP_CLUSTER_METRICS[height // 2 % 3]
                service.answer(Query("top_clusters", (5, by, height)))
        gauge = metrics.snapshot()["gauges"]["timetravel.resident_bytes"]
        tip_sized = view._log.state_at(view.height, view._tip.uf)
        tip_sized.settle()
        assert len(view._memo) == view._MEMO_SIZE
        assert view._log.nbytes < gauge
        assert gauge <= view._log.nbytes + view._MEMO_SIZE * tip_sized.nbytes
