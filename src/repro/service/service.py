"""The forensics query service: warm views + cached query API.

:class:`ForensicsService` is the serving layer.  It owns one
:class:`~repro.core.incremental.IncrementalClusteringEngine`, the
:class:`~repro.service.aggregates.ClusterAggregateView` and the three
per-address materialized views, all attached to the same
:meth:`ChainIndex.subscribe_deltas
<repro.chain.index.ChainIndex.subscribe_deltas>` fan-out, so every
``add_block``:

1. clusters the block incrementally (H1 unions + live H2 labels),
2. queues the block for the cluster aggregates and folds balances,
   taint frontiers, and activity into warm state,
3. implicitly invalidates the query cache (answers are keyed by
   height).

Queries then run against warm state instead of re-walking the chain:
``balance_of`` indexes a dense array, ``trace_taint`` snapshots a live
frontier, and the four cluster kinds read the aggregate view's surface
at the asked height — the only cluster read path there is.
``benchmarks/bench_query_service.py`` pins the payoff: a mixed
100+-query workload answered warm beats the equivalent cold batch
recomputations by well over an order of magnitude.

Construction catches up on whatever the index already holds, so the
service can be stood up against a fully ingested chain or attached at
genesis and fed block by block — both end in identical state (the
view == batch property tests stream exactly this way).  One
:meth:`ChainIndex.catching_up <repro.chain.index.ChainIndex.catching_up>`
scope replays each held block once for every component.

There is one wiring, :meth:`ForensicsService.__init__`, and two doors
onto it that differ only in where blocks, tags and component state come
from: :meth:`~ForensicsService.from_world` takes a simulated world's
blocks and analyst tags, and :meth:`~ForensicsService.from_snapshot`
takes restored component states.  A durable ``--state-dir`` chooses
between them in :func:`repro.experiments.warm_service`.
"""

from __future__ import annotations

import time
from dataclasses import asdict

from ..chain.index import ChainIndex
from ..core.heuristic2 import Heuristic2Config, dice_addresses_from_tags
from ..core.incremental import IncrementalClusteringEngine
from ..obs import NULL_LOGGER, NULL_REGISTRY
from ..tagging.tags import TagStore
from .aggregates import ClusterAggregateView
from .cache import QueryCache
from .queries import Query, QueryEngine
from .views import ActivityView, BalanceView, TaintView


class ForensicsService:
    """Serves forensics queries from streaming materialized state."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        tags: TagStore | None = None,
        h2_config: Heuristic2Config | None = None,
        dice_addresses: frozenset[str] = frozenset(),
        name_of_address=None,
        min_taint: float = 1.0,
        cache_size: int = 4096,
        metrics=None,
        log=None,
        states: dict | None = None,
    ) -> None:
        """``tags`` drives cluster naming (profiles, top-cluster labels)
        and, unless ``name_of_address`` overrides it, the taint stop
        condition.  The taint namer must be *stable over chain growth*
        for streamed state to equal batch recomputation, so it defaults
        to direct tag lookups — not height-dependent cluster naming.

        ``metrics`` is an optional
        :class:`~repro.obs.MetricsRegistry`: when given (and enabled)
        it is attached to the index and every component, so ingest,
        folds, flushes, queries, and cache accounting all report into
        one registry (see ``docs/metrics.md``).

        ``log`` is an optional structured event logger
        (:class:`~repro.obs.JsonLinesLogger`): when given (and enabled)
        it is attached to the index, so ingest, subscriber failures,
        flushes, and query errors all land in one JSON-lines stream
        (see ``docs/observability.md``).

        ``states`` holds exported component states at the index's
        height (see :meth:`from_snapshot`): the engine, the aggregate
        view and the taint view then adopt them instead of catching up.
        """
        self.index = index
        self.tags = tags
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        if self.metrics.enabled:
            index.instrument(self.metrics)
        self.log = log if log is not None else NULL_LOGGER
        if self.log.enabled:
            index.log = self.log
        self.auditor = None
        """The attached :class:`~repro.obs.InvariantAuditor`, when one
        was constructed over this service (it registers itself)."""
        self._custom_namer = name_of_address is not None

        def component(kind, *segments, **kwargs):
            kwargs["metrics"] = self.metrics
            if states is None:
                return kind(index, **kwargs)
            return kind.from_state(
                index, *(states[name] for name in segments), **kwargs
            )

        with index.catching_up():
            self.engine = component(
                IncrementalClusteringEngine, "engine",
                h2_config=h2_config, dice_addresses=dice_addresses,
            )
            # The aggregate view reads the engine's merge deltas, so it
            # requests catch-up and subscribes after the engine.
            self.aggregates = component(
                ClusterAggregateView, "aggregates", "timetravel",
                engine=self.engine,
            )
            # Balances and activity are functions of the index's rows,
            # so they have no state of their own.
            self.balances = BalanceView(index, metrics=self.metrics)
            self.activity = ActivityView(index, metrics=self.metrics)
            tag_map = tags.as_mapping() if tags is not None else {}
            self.taint = component(
                TaintView, "taint", min_taint=min_taint,
                name_of_address=name_of_address or tag_map.get,
            )
        self.cache = QueryCache(cache_size)
        self._wire_cache_metrics()
        self.queries = QueryEngine(self)

    def _wire_cache_metrics(self) -> None:
        """Expose the cache's own accounting as sampled gauges — read at
        snapshot time, zero cost on the lookup hot path."""
        if not self.metrics.enabled:
            return
        cache = self.cache
        metrics = self.metrics
        metrics.gauge_fn("cache.hits", lambda: cache.hits)
        metrics.gauge_fn("cache.misses", lambda: cache.misses)
        metrics.gauge_fn("cache.evictions", lambda: cache.evictions)
        metrics.gauge_fn("cache.entries", lambda: len(cache))
        metrics.gauge_fn("cache.hit_rate", lambda: cache.hit_rate)

    @classmethod
    def from_world(cls, world, **kwargs) -> "ForensicsService":
        """Stand the service up the way an analyst would against a
        simulated :class:`~repro.simulation.economy.World`: the analyst
        tags (attack + public crawl) for naming and the dice exception,
        and a watched taint case per scripted theft.  ``kwargs`` go to
        :meth:`__init__`.

        Where the blocks come from follows ``metrics``.  Without an
        enabled registry the service attaches to ``world.index`` and
        catches up on it.  With one, ``world.blocks`` stream through a
        fresh index, so every delta build, fold and flush lands in the
        registry, and the ingest wall clock and block count are set as
        the ``ingest.wall_seconds`` / ``ingest.blocks`` gauges.
        """
        from ..simulation.params import DICE_GAMES
        from ..tagging.sources import analyst_tags

        tags = analyst_tags(world)
        kwargs.setdefault(
            "dice_addresses", dice_addresses_from_tags(tags, DICE_GAMES)
        )
        metrics = kwargs.get("metrics")
        if metrics is None or not metrics.enabled:
            service = cls(world.index, tags=tags, **kwargs)
        else:
            index = ChainIndex()
            service = cls(index, tags=tags, **kwargs)
            start = time.perf_counter()
            for block in world.blocks:
                index.add_block(block)
            metrics.gauge("ingest.wall_seconds").set(time.perf_counter() - start)
            metrics.gauge("ingest.blocks").set(len(world.blocks))
        for theft in world.extras.get("thefts", ()):
            service.watch_theft(
                theft.record.spec.name, theft.record.theft_txids
            )
        return service

    # ------------------------------------------------------------------
    # state
    # ------------------------------------------------------------------

    @property
    def height(self) -> int:
        """Chain tip height (-1 when empty); the cache key component."""
        return self.index.height

    def watch_theft(self, label: str, theft_txids) -> None:
        """Register a theft case: taint every output of the given
        transactions and keep the frontier warm from here on."""
        self.taint.watch_txs(label, list(theft_txids))

    def detach(self) -> None:
        """Stop following the index (state freezes at current height)."""
        self.engine.detach()
        self.aggregates.detach()
        self.balances.detach()
        self.activity.detach()
        self.taint.detach()

    # ------------------------------------------------------------------
    # durable state (snapshot / restore)
    # ------------------------------------------------------------------

    STATE_VERSION = 1

    def export_state(self) -> dict:
        """The service-level configuration a snapshot must carry.

        Component *state* (engine, views, chain) is exported by the
        components themselves; this is everything else a restore needs
        to reassemble an equivalent service: the H2 configuration, the
        dice set, the tag store, and the cache/taint settings.
        """
        if self._custom_namer:
            raise ValueError(
                "cannot snapshot a service with a custom name_of_address "
                "callable; only the default tag-map namer is serializable"
            )
        return {
            "version": self.STATE_VERSION,
            "h2_config": asdict(self.engine.h2_config),
            "dice_addresses": sorted(self.engine.dice_addresses),
            "min_taint": self.taint.min_taint,
            "cache_size": self.cache.maxsize,
            "tags": None if self.tags is None else self.tags.export_state(),
        }

    @classmethod
    def from_snapshot(
        cls,
        index: ChainIndex,
        states: dict,
        *,
        metrics=None,
        log=None,
    ) -> "ForensicsService":
        """Reassemble a service from restored component states.

        ``states`` maps component names (``service``, ``engine``,
        ``aggregates``, ``timetravel``, ``taint``) to their exported
        state dicts; ``index`` must be the restored chain at the
        snapshot height.  The ``service`` state is decoded here; the
        rest goes through :meth:`__init__`'s wiring, so a restored
        service subscribes in the same order and streams tail blocks
        exactly like the one that was snapshotted.
        """
        service_state = states["service"]
        version = service_state.get("version")
        if version != cls.STATE_VERSION:
            raise ValueError(
                f"unsupported service state version {version!r} "
                f"(expected {cls.STATE_VERSION})"
            )
        tags_state = service_state["tags"]
        return cls(
            index,
            tags=None if tags_state is None else TagStore.from_state(tags_state),
            h2_config=Heuristic2Config(**service_state["h2_config"]),
            dice_addresses=frozenset(service_state["dice_addresses"]),
            min_taint=service_state["min_taint"],
            cache_size=service_state["cache_size"],
            metrics=metrics,
            log=log,
            states=states,
        )

    # ------------------------------------------------------------------
    # the query API (see service/queries.py for answer shapes)
    # ------------------------------------------------------------------

    def answer(self, query: Query, *, request_id: str | None = None):
        """Answer one :class:`~repro.service.queries.Query`."""
        return self.queries.answer(query, request_id=request_id)

    def answer_many(
        self, queries: list[Query], *, request_id: str | None = None
    ) -> list:
        """Batch entrypoint: answers in input order, grouped by kind."""
        return self.queries.answer_many(queries, request_id=request_id)

    def stats(self) -> dict:
        """Serving metrics: height, watched cases, cache accounting.

        When the service carries an enabled metrics registry the
        snapshot rides along under ``"metrics"`` (counters, gauges, and
        histogram summaries — see ``docs/metrics.md``)."""
        stats = {
            "height": self.height,
            "addresses": self.index.address_count,
            "clusters": (
                self.aggregates.cluster_count
                if self.aggregates.height == self.height
                else None
            ),
            "taint_cases": len(self.taint.labels),
            **{f"cache_{k}": v for k, v in self.cache.stats().items()},
        }
        if self.metrics.enabled:
            stats["metrics"] = self.metrics.snapshot()
        stats["health"] = self.health_report().as_dict()
        return stats

    def health_report(self, store=None):
        """Component-level :class:`~repro.obs.HealthReport` rollup.

        ``store`` is an optional :class:`~repro.storage.StateStore`
        whose newest snapshot grades the durability component; without
        one, snapshot freshness is reported as degraded."""
        from ..obs.health import collect_health

        return collect_health(self, store=store, auditor=self.auditor)
