"""The streamed cluster aggregates == a batch re-clustering, per height.

The tentpole property, in the PR 1/PR 2 style: stream a world's chain
block by block with the :class:`ClusterAggregateView` folding deltas,
and at *every* height compare the tip surface against the batch oracle
(``tests/helpers.ReferenceRollup``: one ``ClusteringEngine.cluster`` +
the index's address rows) — per-cluster balances, activity, sizes, and
the complete :class:`ClusterRanking` order for every metric in
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
from repro.service import AggregatesBehindError, ForensicsService, Query
from repro.service.queries import TOP_CLUSTER_METRICS
from repro.simulation import scenarios

from tests.helpers import assert_surface_equals_batch, reference_answers


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
        "mark": state.mark,
        "universe": len(state.uf),
        "partition": state.uf.find_many(range(len(state.uf))).tolist(),
        "columns": {
            root: (
                state.roots.balance[root], state.roots.tx_count[root],
                state.roots.first[root], state.roots.last[root],
                state.min_member[root], state.uf.root_sizes[root],
            )
            for root in roots
        },
        "open": sorted(
            (live.label.height, live.address_id, live.input_id or -1)
            for live in state.open
        ),
        "groups": sorted(
            (g.cid, g.roots, g.size, g.balance, g.tx_count, g.first_seen,
             g.last_seen)
            for g in state.groups
        ),
        "ranks": {by: state.ranks[by].top(10 ** 9) for by in TOP_CLUSTER_METRICS},
    }


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
    """The flush run, the per-block flush and the replay all go through
    ``_AggregateState.advance``: whatever the run boundaries, the state
    at a height is the same state."""

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
        # A view with no spine or memo yet: the replay starts at the
        # delta log's genesis base and crosses every spine boundary.
        assert not one_run.aggregates._spine
        replayed = one_run.aggregates._replayed(tip)
        assert one_run.aggregates._spine
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
            if block.height % 8 == 7:
                forced = view._replayed(block.height)
                assert forced is not live._state
                assert state_fingerprint(forced) == state_fingerprint(
                    live._state
                ), block.height
        assert_surface_equals_batch(live, index, service.height)


class TestIncrementalClusterNames:
    def test_incremental_names_equal_full_rebuild_at_every_height(
        self, micro_world
    ):
        """The live-view naming path patches its name map from the
        view's dirty-root drain; at every height it must equal a
        from-scratch build (fresh QueryEngine, empty naming state) —
        merges, group dissolutions, and voids included."""
        from repro.service.queries import QueryEngine

        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        assert tags is not None and len(tags) > 0
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        for block in micro_world.blocks[:80]:
            target.add_block(block)
            tip = service.aggregates.at()
            incremental = service.queries._cluster_names(tip)
            # Fresh engine: no cached placements, full build.
            full = QueryEngine(service)._build_cluster_names(tip)
            assert incremental == full, block.height

    def test_tags_added_after_first_build_are_picked_up(self, micro_world):
        """The tag store is append-only but live: a tag added after the
        first name build must flow into later heights on the live-view
        path (the entries snapshot rebuilds on count change)."""
        from repro.tagging.tags import Tag

        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
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
        # And the incremental state stays equal to a full rebuild.
        from repro.service.queries import QueryEngine

        assert after == QueryEngine(service)._build_cluster_names(
            service.aggregates.at()
        )


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
            service.top_clusters(5, by="balance")
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
        assert service.balance_of(address) == target.address(address).balance
        assert service.health_report().component("aggregates").status == "failing"

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
    """Per-cursor dirty-root delivery: multiple naming consumers (the
    query engine's name aggregate, the invariant auditor) each observe
    every dirty root exactly once, without starving one another."""

    def _stream(self, world, n_blocks, *hooks):
        """Stream ``n_blocks``, invoking each hook after every block;
        returns the service."""
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        for block in world.blocks[:n_blocks]:
            target.add_block(block)
            for hook in hooks:
                hook(service.aggregates)
        return service

    def test_two_cursors_both_observe_all_dirty_roots(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        first = view.naming_cursor()
        second = view.naming_cursor()
        seen_first: set[int] = set()
        seen_second: set[int] = set()
        for block in micro_world.blocks[:30]:
            target.add_block(block)
            # Interleave drain cadences: first drains per block, second
            # every third block — the backlog must still be complete.
            seen_first |= view.drain_naming_dirty(first)
            if block.height % 3 == 2:
                seen_second |= view.drain_naming_dirty(second)
        seen_second |= view.drain_naming_dirty(second)
        assert seen_first == seen_second
        assert seen_first  # folds happened; churn was reported

    def test_drain_clears_only_the_draining_cursor(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        first = view.naming_cursor()
        second = view.naming_cursor()
        for block in micro_world.blocks[:30]:
            target.add_block(block)
        drained = view.drain_naming_dirty(first)
        assert drained
        assert view.drain_naming_dirty(first) == set()
        # The other consumer still holds its full backlog.
        assert view.drain_naming_dirty(second) == drained

    def test_released_cursor_stops_accumulating(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        cursor = view.naming_cursor()
        for block in micro_world.blocks[:8]:
            target.add_block(block)
        view.release_naming_cursor(cursor)
        # Distributes pending roots to the cursors still registered.
        view.drain_naming_dirty(view.naming_cursor())
        assert cursor.dirty == set()

    def test_new_cursor_sees_only_future_churn(self, micro_world):
        target = ChainIndex()
        service = ForensicsService(target, tags=None)
        view = service.aggregates
        for block in micro_world.blocks[:12]:
            target.add_block(block)
        # Flush + distribute everything so far.
        view.drain_naming_dirty(view.naming_cursor())
        late = view.naming_cursor()
        assert view.drain_naming_dirty(late) == set()

    def test_query_names_and_auditor_coexist(self, micro_world):
        """End to end: the query engine's incremental name aggregate and
        a strict auditor both follow naming churn through their own
        cursors, and the incremental name map still equals a
        from-scratch build at every audited height."""
        from repro.obs import InvariantAuditor
        from repro.service.queries import QueryEngine

        attack = micro_world.extras.get("attack")
        tags = attack.tags if attack is not None else None
        target = ChainIndex()
        service = ForensicsService(target, tags=tags)
        auditor = InvariantAuditor(service, audit_every=5, strict=True)
        for block in micro_world.blocks[:40]:
            target.add_block(block)
            tip = service.aggregates.at()
            incremental = service.queries._cluster_names(tip)
            assert incremental == QueryEngine(service)._build_cluster_names(
                tip
            ), block.height
        assert auditor.audits_run == 8
        assert auditor.total_violations == 0
