"""The shared per-block ingest plan (``chain/delta.py``).

Two contracts are pinned here:

* **Fan-out protocol** — ``add_block`` builds exactly one
  :class:`~repro.chain.delta.BlockDelta` per block and hands the *same
  object* to every delta subscriber, in registration order, exactly
  once; legacy block-shaped subscribers (the :meth:`ChainIndex.subscribe
  <repro.chain.index.ChainIndex.subscribe>` compatibility shim) share
  the fan-out slot and receive ``delta.block``; a raising subscriber is
  isolated and re-raised after the rest are notified.
* **Delta == transaction walk** — ``add_block`` builds the delta from
  the rows its validating walk appended; every field of it — the six
  columns and the pair views derived from them alike — equals both the
  ``block_delta(h)`` catch-up read (live and after a restore) and an
  independent recomputation that resolves prevouts and output scripts
  the long way (a hypothesis property over random simulated scenarios,
  checked at every height), and the streaming views folded from deltas
  equal per-address state recomputed from the records/transactions.
* **One record representation** — the address records a live-built
  index reads equal the ones a restored index reads, and the exported
  state is pinned (golden digest, pickle size, bytes per component).
"""

import hashlib
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.blockfile import BlockFileReader, BlockFileWriter
from repro.chain.delta import BlockDelta
from repro.chain.index import ChainIndex
from repro.core.incremental import IncrementalClusteringEngine
from repro.obs import MetricsRegistry
from repro.service.aggregates import ClusterAggregateView
from repro.service.views import ActivityView, BalanceView
from repro.simulation import large_scale_blocks, scenarios

from tests.helpers import utxo_count

_COLUMNS = (
    "event_ids", "event_values", "involved_ids", "involved_flat", "h1_a", "h1_b",
)


def _assert_same_delta(
    left: BlockDelta, right: BlockDelta, *, same_objects: bool = True
) -> None:
    """Every field equal: per-tx facts, scalars and columns.  With
    ``same_objects`` the two carry the very same block and transaction
    objects; without (one side decoded its block), the same block hash
    and txids."""
    if same_objects:
        assert left.block is right.block
    else:
        assert left.block.hash == right.block.hash
    assert left.minted == right.minted
    assert left.max_id == right.max_id
    assert left.txs == right.txs
    for one, other in zip(left.txs, right.txs, strict=True):
        if same_objects:
            assert one.tx is other.tx
        else:
            assert one.tx.txid == other.tx.txid
    for name in _COLUMNS:
        assert getattr(left, name).tolist() == getattr(right, name).tolist(), name
        assert getattr(left, name).dtype == getattr(right, name).dtype, name


class TestDeltaFanOut:
    def _source_blocks(self, n=3):
        """The first ``n`` blocks of a chain whose block 1 spends."""
        return list(large_scale_blocks(max(n, 2), seed=0))[:n]

    def test_same_delta_object_once_per_subscriber_in_order(self):
        target = ChainIndex()
        calls = []
        target.subscribe_deltas(lambda delta: calls.append(("a", delta)))
        target.subscribe_deltas(lambda delta: calls.append(("b", delta)))
        blocks = self._source_blocks(2)
        for block in blocks:
            target.add_block(block)
        assert [tag for tag, _delta in calls] == ["a", "b", "a", "b"]
        for height in (0, 1):
            first, second = calls[2 * height: 2 * height + 2]
            # One shared plan per block: the identical object to every
            # subscriber, carrying the block it was built from.
            assert first[1] is second[1]
            assert isinstance(first[1], BlockDelta)
            assert first[1].block is blocks[height]
            assert first[1].height == height
        _assert_spends([delta for _tag, delta in calls])

    def test_raising_delta_subscriber_isolated_and_reraised(self):
        target = ChainIndex()
        seen = []

        def explode(delta):
            raise RuntimeError(f"boom at {delta.height}")

        target.subscribe_deltas(explode)
        target.subscribe_deltas(lambda delta: seen.append(delta.height))
        blocks = self._source_blocks(2)
        with pytest.raises(RuntimeError, match="boom at 0"):
            target.add_block(blocks[0])
        # The block is ingested and the later subscriber observed it.
        assert target.height == 0
        assert seen == [0]

    def test_every_subscriber_failure_counted_and_retained(self):
        """Swallowed fan-out exceptions must stay visible: with metrics
        attached, *every* failing subscriber — not just the first, whose
        exception is the one re-raised — is counted per subscriber and
        retained as a ``subscriber_error`` flight span, and the later
        failures ride the raised exception as notes."""
        target = ChainIndex()
        target.instrument(metrics := MetricsRegistry())
        seen = []

        def explode_a(delta):
            raise RuntimeError(f"boom a at {delta.height}")

        def explode_b(delta):
            raise ValueError(f"boom b at {delta.height}")

        target.subscribe_deltas(explode_a, name="flaky-a")
        target.subscribe_deltas(explode_b, name="flaky-b")
        target.subscribe_deltas(lambda delta: seen.append(delta.height),
                                name="healthy")
        blocks = self._source_blocks(2)
        with pytest.raises(RuntimeError, match="boom a at 0") as excinfo:
            target.add_block(blocks[0])
        # The second failure is not lost: it rides along as a note.
        assert any(
            "boom b at 0" in note for note in excinfo.value.__notes__
        )
        # The healthy subscriber still observed the block.
        assert seen == [0]
        counters = metrics.snapshot()["counters"]
        assert counters["ingest.subscriber_errors{subscriber=flaky-a}"] == 1
        assert counters["ingest.subscriber_errors{subscriber=flaky-b}"] == 1
        assert "ingest.subscriber_errors{subscriber=healthy}" not in counters
        errors = [
            span for span in metrics.flight.dump()
            if span["kind"] == "subscriber_error"
        ]
        assert [(span["subscriber"], span["height"]) for span in errors] == [
            ("flaky-a", 0), ("flaky-b", 0),
        ]
        assert "boom a at 0" in errors[0]["error"]

    def test_fanout_timed_per_subscriber_even_on_failure(self):
        target = ChainIndex()
        target.instrument(metrics := MetricsRegistry())

        def explode(delta):
            raise RuntimeError("boom")

        target.subscribe_deltas(explode, name="flaky")
        target.subscribe_deltas(lambda delta: None, name="healthy")
        with pytest.raises(RuntimeError):
            target.add_block(self._source_blocks(1)[0])
        histograms = metrics.snapshot()["histograms"]
        assert histograms["ingest.fanout_seconds{subscriber=flaky}"][
            "count"
        ] == 1
        assert histograms["ingest.fanout_seconds{subscriber=healthy}"][
            "count"
        ] == 1

    def test_unsubscribe_stops_delta_delivery(self):
        target = ChainIndex()
        seen = []
        unsubscribe = target.subscribe_deltas(
            lambda delta: seen.append(delta.height)
        )
        blocks = self._source_blocks(2)
        target.add_block(blocks[0])
        unsubscribe()
        target.add_block(blocks[1])
        assert seen == [0]

    def test_block_delta_rebuild_equals_streamed_delta(self):
        world = scenarios.micro_economy(seed=7, n_blocks=30, n_users=4)
        target = ChainIndex()
        streamed = []
        target.subscribe_deltas(streamed.append)
        for block in world.blocks:
            target.add_block(block)
        _assert_spends(streamed)
        for height, live in enumerate(streamed):
            _assert_same_delta(target.block_delta(height), live)

    def test_restored_block_delta_equals_streamed_delta(self):
        world = scenarios.micro_economy(seed=7, n_blocks=30, n_users=5)
        target = ChainIndex()
        streamed = []
        target.subscribe_deltas(streamed.append)
        for block in world.blocks:
            target.add_block(block)
        _assert_spends(streamed)
        restored = ChainIndex.restore_state(
            pickle.loads(pickle.dumps(target.export_state()))
        )
        for height, live in enumerate(streamed):
            _assert_same_delta(
                restored.block_delta(height), live, same_objects=False
            )


def _assert_spends(deltas):
    """The deltas compare more than coinbases: a debit, an H1 co-spend
    pair and a non-coinbase transaction occur among them."""
    assert any((delta.event_values < 0).any() for delta in deltas)
    assert any(len(delta.h1_a) for delta in deltas)
    assert any(not txd.is_coinbase for delta in deltas for txd in delta.txs)


def _walk_block_reference(index, block):
    """Recompute one block's delta facts the long way: resolve every
    prevout through the UTXO history and every output through the
    interner — no per-tx memos."""
    id_of = index.interner.id_of
    events = []
    minted = 0
    involved_block = {}
    max_id = -1
    per_tx = []
    for tx in block.transactions:
        if tx.is_coinbase:
            minted += sum(out.value for out in tx.outputs)
            input_ids = ()
            spends = ()
        else:
            seen = {}
            spends = []
            for txin in tx.inputs:
                spent = index.output(txin.prevout)
                ident = (
                    id_of(spent.address) if spent.address is not None else None
                )
                if ident is None:
                    spends.append((-1, spent.value))
                else:
                    seen.setdefault(ident)
                    spends.append((ident, spent.value))
                    events.append((ident, -spent.value))
            input_ids = tuple(seen)
            spends = tuple(spends)
        output_ids = []
        involved = dict.fromkeys(input_ids)
        for out in tx.outputs:
            ident = id_of(out.address) if out.address is not None else None
            output_ids.append(-1 if ident is None else ident)
            if ident is not None:
                events.append((ident, out.value))
                involved[ident] = None
        per_tx.append(
            (input_ids, spends, tuple(output_ids), tuple(involved))
        )
        for ident in involved:
            max_id = max(max_id, ident)
        involved_block.update(involved)
    return events, minted, tuple(involved_block), max_id, per_tx


class TestDeltaEqualsTransactionWalk:
    @settings(deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=4, max_value=24),
        n_users=st.integers(min_value=3, max_value=8),
    )
    def test_delta_and_folded_views_match_walk_at_every_height(
        self, seed, n_blocks, n_users
    ):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        target = ChainIndex()
        balances = BalanceView(target)
        activity = ActivityView(target)
        deltas = []
        target.subscribe_deltas(deltas.append)
        for block in world.blocks:
            target.add_block(block)
        # Delta contents: every field equals the independent walk.
        supply = 0
        walk_counts: dict[int, int] = {}
        walk_first: dict[int, int] = {}
        walk_last: dict[int, int] = {}
        for height, delta in enumerate(deltas):
            block = target.block_at(height)
            events, minted, involved, max_id, per_tx = _walk_block_reference(
                target, block
            )
            _assert_same_delta(target.block_delta(height), delta)
            # Columns and the pair views derived from them, each against
            # the walk (never against each other).
            assert (
                list(zip(delta.event_ids.tolist(), delta.event_values.tolist()))
                == events
            ), height
            assert list(delta.events) == events, height
            assert delta.minted == minted, height
            assert delta.involved_ids.tolist() == list(involved), height
            assert delta.involved == involved, height
            assert delta.max_id == max_id, height
            # Flat involvement multiset == the per-tx concatenation.
            assert delta.involved_flat.tolist() == [
                ident for *_ids, tx_involved in per_tx for ident in tx_involved
            ], height
            # Co-spend pair columns == one (first, k-th) pair per extra
            # input id of every non-coinbase transaction, in tx order.
            assert list(zip(delta.h1_a.tolist(), delta.h1_b.tolist())) == [
                (input_ids[0], other)
                for input_ids, *_rest in per_tx
                for other in input_ids[1:]
            ], height
            # The columns are shared read-only across the fan-out.
            for name in _COLUMNS:
                assert not getattr(delta, name).flags.writeable, name
            assert len(delta.txs) == len(block.transactions)
            for txd, (input_ids, spends, output_ids, tx_involved) in zip(
                delta.txs, per_tx
            ):
                assert txd.is_coinbase == txd.tx.is_coinbase, height
                assert txd.input_ids == input_ids, height
                assert target.input_spends(txd.tx) == spends, height
                assert txd.output_ids == output_ids, height
                assert txd.involved == tx_involved, height
            supply += minted
            for ident in involved:
                walk_counts[ident] = walk_counts.get(ident, 0) + 0
            for input_ids, _spends, output_ids, tx_involved in per_tx:
                for ident in tx_involved:
                    walk_counts[ident] = walk_counts.get(ident, 0) + 1
                    walk_first.setdefault(ident, height)
                    walk_last[ident] = height
        # Folded views: delta-folded state equals per-address recompute.
        assert balances.height == activity.height == target.height
        assert balances.supply == supply
        for record in target.iter_addresses():
            assert (
                balances.balance_of_id(record.address_id) == record.balance
            ), record.address
        for ident, count in walk_counts.items():
            assert activity.tx_count_of_id(ident) == count
            assert activity.seen_range_of_id(ident) == (
                walk_first[ident],
                walk_last[ident],
            )


def _state_digest(state: dict) -> tuple[str, int]:
    return (
        hashlib.sha256(repr(state).encode()).hexdigest()[:16],
        len(pickle.dumps(state, protocol=4)),
    )


class TestOneRecordRepresentation:
    @settings(deadline=None, max_examples=25)
    @given(
        seed=st.integers(min_value=0, max_value=10 ** 6),
        n_blocks=st.integers(min_value=4, max_value=24),
        n_users=st.integers(min_value=3, max_value=8),
    )
    def test_live_built_records_equal_restored_records(
        self, seed, n_blocks, n_users
    ):
        world = scenarios.micro_economy(
            seed=seed, n_blocks=n_blocks, n_users=n_users
        )
        live = ChainIndex()
        for block in world.blocks:
            live.add_block(block)
        restored = ChainIndex.restore_state(
            pickle.loads(pickle.dumps(live.export_state()))
        )
        assert restored.address_count == live.address_count
        heights = (0, n_blocks // 2, n_blocks - 1, n_blocks + 3)
        for record in live.iter_addresses():
            twin = restored.address(record.address)
            assert twin == record
            assert twin.receives == record.receives
            assert twin.spends == record.spends
            assert twin.balance == record.balance
            for height in heights:
                assert twin.receives_before(height) == record.receives_before(height)
                assert twin.receives_after(height) == record.receives_after(height)
            # the wrapped rows are the rows
            assert [
                (r.height, r.txid, r.vout, r.value) for r in record.receives
            ] == record.receive_rows
            assert [
                (s.height, s.txid, s.vin, s.value) for s in record.spends
            ] == record.spend_rows
            assert record.receives_before(heights[1]) == sum(
                1 for r in record.receives if r.height < heights[1]
            )
            assert record.receives_after(heights[1]) == [
                r for r in record.receives if r.height > heights[1]
            ]

    # ``_state_digest(index.export_state())`` per chain — state version
    # 2: wire blocks, the txid table and every column as raw bytes — and
    # next to it the bytes each component takes.  The same from blocks
    # straight from the simulator and from the same blocks decoded from
    # blk*.dat (the index holds neither as objects in its state).  These
    # move only if the snapshot format does, or which strings the state
    # shares (self-change history is keyed by the interned address, so
    # the pickle holds each address string once).  Version 1 pickled the same
    # two chains to 380,256 / 410,083 B ("scale") and 22,567 / 24,184 B
    # ("micro"), at 27.5 B per history row and 53 B per unspent output.
    GOLDEN = {
        "scale": (
            "8481c1be725b5569", 302927,
            {"blocks": 136440, "tx_table": 22888, "receive_log": 58080,
             "spend_log": 14720, "addresses": 69363},
        ),
        "micro": (
            "3b43a60d820d5053", 21006,
            {"blocks": 12810, "tx_table": 2164, "receive_log": 2136,
             "spend_log": 784, "addresses": 2307},
        ),
    }

    @staticmethod
    def _component_bytes(state: dict) -> dict:
        from repro.chain import index as layout

        def columns(group) -> int:
            return sum(len(state[name[1:]]) for name, _typecode in group)

        return {
            "blocks": sum(map(len, state["blocks"])),
            "tx_table": len(state["txids"])
            + columns(layout._PER_TX + layout._TX_ROW_STARTS),
            "receive_log": columns(layout._RECEIVE_LOG),
            "spend_log": columns(layout._SPEND_LOG),
            "addresses": len(pickle.dumps(state["addresses"], protocol=4)),
        }

    @pytest.mark.parametrize("chain", sorted(GOLDEN))
    def test_exported_state_is_pinned(self, chain, tmp_path):
        if chain == "scale":
            blocks = list(large_scale_blocks(60, seed=11))
        else:
            blocks = scenarios.micro_economy(seed=7, n_blocks=30, n_users=5).blocks
        digest, size, components = self.GOLDEN[chain]
        BlockFileWriter(tmp_path).write_chain(blocks)
        for source in (blocks, BlockFileReader(tmp_path).iter_blocks()):
            index = ChainIndex()
            for block in source:
                index.add_block(block)
            assert ChainIndex.STATE_VERSION == 2
            state = index.export_state()
            assert _state_digest(state) == (digest, size)
            assert self._component_bytes(state) == components
            # Version 1's costs are the ceiling: per history row (both
            # logs; the UTXO set and the spender map are one column of
            # the receive log) and per unspent output.
            history = components["receive_log"] + components["spend_log"]
            assert history / index.history_rows <= 27.5
            assert len(state["recv_spender"]) / utxo_count(index) <= 53

    # sha256 (16 hex digits) of the exported union-find's ``parent``,
    # ``size`` and ``log`` bytes, in that order, for the engine and the
    # aggregate view on the same two chains, with the component count
    # and the log's bytes.  The log is the ``(absorbed, kept)`` rows in
    # merge order, so these move only if a merge's order, its kept root
    # or the export layout does.
    UF_GOLDEN = {
        "scale": {
            "engine": ("c42c327c8d81ad78", 1861, 7344),
            "aggregates": ("7ae9bd41ccb4d0af", 1861, 7344),
        },
        "micro": {
            "engine": ("0b5f910f8d48ffaa", 45, 272),
            "aggregates": ("b2c45cbb7fc839b2", 45, 272),
        },
    }

    @pytest.mark.parametrize("chain", sorted(UF_GOLDEN))
    def test_exported_union_find_is_pinned(self, chain):
        if chain == "scale":
            blocks = list(large_scale_blocks(60, seed=11))
        else:
            blocks = scenarios.micro_economy(seed=7, n_blocks=30, n_users=5).blocks
        index = ChainIndex()
        engine = IncrementalClusteringEngine(index)
        view = ClusterAggregateView(index, engine=engine)
        for block in blocks:
            index.add_block(block)

        def pinned(state: dict) -> tuple[str, int, int]:
            digest = hashlib.sha256()
            for key in ("parent", "size", "log"):
                digest.update(state[key])
            return digest.hexdigest()[:16], state["components"], len(state["log"])

        assert {
            "engine": pinned(engine._uf.export_state()),
            "aggregates": pinned(view.export_state()["uf"]),
        } == self.UF_GOLDEN[chain]


SUBSCRIBER_MODULES = [
    "core/incremental.py",
    "service/views.py",
    "service/aggregates.py",
]


class TestSubscribersNeverWalkTransactions:
    @pytest.mark.parametrize("module", SUBSCRIBER_MODULES)
    def test_no_subscriber_touches_block_transactions(self, module):
        """The whole point of the shared delta: exactly one transaction
        walk per block, inside the chain layer.  A subscriber reaching
        for ``block.transactions`` re-introduces the N-walk fan-out."""
        import repro

        source_path = (
            __import__("pathlib").Path(repro.__file__).parent / module
        )
        assert "block.transactions" not in source_path.read_text()
