"""The uniform query API the forensics service answers.

A :class:`Query` is a hashable ``(kind, args)`` value — exactly the
cache key shape — covering the paper's interactive forensics questions:

===================  ==========================  =============================
kind                 args                        answer
===================  ==========================  =============================
``cluster_of``       ``(address,)``              canonical cluster id or
                                                 ``None``
``balance_of``       ``(address,)``              satoshis currently held
``cluster_balance``  ``(address,)``              satoshis held by the whole
                                                 cluster containing address
``trace_taint``      ``(label,)``                theft-taint summary: initial /
                                                 unspent taint, entities
                                                 reached with amounts
``top_clusters``     ``(n, by)``                 ``((cluster id, value, name),
                                                 ...)`` ranked by ``size`` |
                                                 ``balance`` | ``activity``
``cluster_profile``  ``(address,)``              dict: cluster id, size,
                                                 balances, activity, rank,
                                                 name
===================  ==========================  =============================

The cluster kinds (``cluster_of``, ``cluster_balance``,
``top_clusters``, ``cluster_profile``) accept one optional trailing
``height`` argument — ``Query("top_clusters", (10, "size", 420))`` asks
the question *as of block 420*.

:class:`QueryEngine` answers them from the service's warm views.  The
cluster kinds have one read path: resolve the height (default: the
tip), take the aggregate view's surface there
(:meth:`~repro.service.aggregates.ClusterAggregateView.at` — the tip
state at the tip, a state built from the delta log below it), and
read the answer off it.  A question about a height the view has not
folded (it is detached, or a subscriber failed before it) is refused
with :class:`~repro.service.aggregates.AggregatesBehindError`; there is
no second way to compute a cluster answer.

Every answer is memoized in the height-keyed LRU
(:class:`~repro.service.cache.QueryCache`), so repeats against an
unchanged tip are dictionary hits and a new block invalidates by
construction.  :meth:`QueryEngine.answer_many` additionally groups a
batch by kind so same-view queries run back to back.

Cluster ids in answers are **canonical**: a cluster is identified by
its minimum member address id (dense first-sight interned ids, so this
is the cluster's earliest-seen address).  Canonical ids depend only on
the partition — not on union order, restores, or which height's state
produced the answer — which keeps ranking tie-breaks stable and makes
answers repr-comparable against a batch re-clustering.

The names in ``top_clusters`` and ``cluster_profile`` answers come from
one name map per height: every tag's canonical id at that height, read
off the surface in bulk, and one
:func:`~repro.tagging.naming.cluster_names` pass over them.  The tip
builds its map the way a past height does, so a name, like every other
answer, is a function of the block prefix (and the tags).

Answers are plain data and must be treated as immutable — they are
shared by every caller that hits the same cache entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

from ..obs import next_request_id
from ..tagging.naming import TagColumns, cluster_names

QUERY_KINDS = (
    "cluster_of",
    "balance_of",
    "cluster_balance",
    "trace_taint",
    "top_clusters",
    "cluster_profile",
)

TOP_CLUSTER_METRICS = ("size", "balance", "activity")

_HORIZON_AT = {
    "cluster_of": 1,
    "cluster_balance": 1,
    "cluster_profile": 1,
    "top_clusters": 2,
}
"""Cluster kind -> position of its optional trailing height argument."""


@dataclass(frozen=True)
class Query:
    """One cacheable question: ``kind`` plus hashable ``args``."""

    kind: str
    args: tuple = ()


class QueryRefused(ValueError):
    """A query the service will not run: malformed, or asking for a
    height it does not have.  Raised before any handler runs, so a
    ``ValueError`` from a handler is never mistaken for one."""


def parse_query(tokens: list[str]) -> Query:
    """Parse CLI/workload-script tokens into a :class:`Query`.

    The first token is the kind (hyphens and underscores are
    interchangeable), e.g. ``["cluster-of", "1Abc..."]``,
    ``["top-clusters", "5", "balance"]``, ``["trace-taint", "Betcoin",
    "theft"]`` (trailing tokens of a taint label are re-joined).  The
    cluster kinds accept one optional trailing height token for
    historical horizons: ``["cluster-of", "1Abc...", "420"]``,
    ``["top-clusters", "5", "balance", "420"]``.

    Everything a query can be checked for without a chain is checked
    here (:meth:`QueryEngine.answer` still refuses a height past the
    tip): a malformed query is a :class:`QueryRefused`.
    """
    if not tokens:
        raise QueryRefused("empty query")
    kind = tokens[0].replace("-", "_")
    rest = tokens[1:]
    if kind in ("cluster_of", "balance_of", "cluster_balance", "cluster_profile"):
        if kind != "balance_of" and len(rest) == 2:
            return Query(kind, (rest[0], _non_negative(rest[1], "horizon height")))
        if len(rest) != 1:
            raise QueryRefused(f"{kind} takes exactly one address argument")
        return Query(kind, (rest[0],))
    if kind == "trace_taint":
        if not rest:
            raise QueryRefused("trace_taint takes a case label")
        return Query(kind, (" ".join(rest),))
    if kind == "top_clusters":
        if len(rest) > 3:
            raise QueryRefused("top_clusters takes [N] [size|balance|activity] [height]")
        n = _non_negative(rest[0], "top_clusters count") if rest else 10
        by = rest[1] if len(rest) > 1 else "size"
        if by not in TOP_CLUSTER_METRICS:
            raise QueryRefused(
                f"top_clusters metric must be one of {TOP_CLUSTER_METRICS}"
            )
        if len(rest) > 2:
            return Query(kind, (n, by, _non_negative(rest[2], "horizon height")))
        return Query(kind, (n, by))
    raise QueryRefused(f"unknown query kind {tokens[0]!r} (kinds: {QUERY_KINDS})")


def _non_negative(token: str, what: str) -> int:
    """``token`` as an int >= 0, else a :class:`QueryRefused` naming ``what``."""
    try:
        value = int(token)
    except ValueError:
        value = -1
    if value < 0:
        raise QueryRefused(f"{what} must be an int >= 0, got {token!r}")
    return value


def format_answer(query: Query, answer) -> str:
    """Render one answer for the CLI (one-shot ``repro query``)."""
    if query.kind == "trace_taint":
        if answer is None:
            return f"taint case {query.args[0]!r} is not watched"
        lines = [
            f"taint case {query.args[0]!r}: initial {answer['initial_taint']}, "
            f"unspent {answer['unspent_taint']:.0f}, "
            f"txs {answer['txs_processed']}"
        ]
        for entity, value in answer["reached"]:
            lines.append(f"  reached {entity}: {value:.0f}")
        return "\n".join(lines)
    if query.kind == "top_clusters":
        n, by, *height = query.args
        at = f" at height {height[0]}" if height else ""
        lines = [f"top {n} clusters by {by}{at}:"]
        for root, value, name in answer:
            suffix = f"  ({name})" if name else ""
            lines.append(f"  cluster {root}: {value}{suffix}")
        return "\n".join(lines)
    if query.kind == "cluster_profile":
        if answer is None:
            return "address unknown to the clustering"
        return "\n".join(f"  {key}: {value}" for key, value in answer.items())
    return str(answer)


class QueryEngine:
    """Answers queries from a
    :class:`~repro.service.service.ForensicsService`'s warm state."""

    def __init__(self, service) -> None:
        self.service = service
        self._tag_columns: TagColumns | None = None
        """The service's tags as columns, built on the first name map and
        rebuilt when the (append-only) store's size moves: a new tag can
        land anywhere in ``all_tags`` order."""

    # -- entry points --------------------------------------------------

    def answer(self, query: Query, *, request_id: str | None = None):
        """Answer one query, memoized at the current chain height.

        ``request_id`` tags the query's flight-recorder span so every
        dispatch of one client request correlates; :meth:`answer_many`
        stamps one automatically (the convention an HTTP tier reuses by
        forwarding its own id).
        """
        handler = self._HANDLERS.get(query.kind)
        if handler is None:
            raise QueryRefused(
                f"unknown query kind {query.kind!r} (kinds: {QUERY_KINDS})"
            )
        # Before the cache: ``True == 1`` and ``2.0 == 2`` as keys.
        if query.kind == "top_clusters":
            n = query.args[0]
            if not isinstance(n, int) or isinstance(n, bool) or n < 0:
                raise QueryRefused(
                    f"top_clusters count must be an int >= 0, got {n!r}"
                )
        arity = _HORIZON_AT.get(query.kind)
        if arity is not None and len(query.args) > arity:
            height, tip = query.args[arity], self.service.height
            if not isinstance(height, int) or isinstance(height, bool):
                raise QueryRefused(
                    f"horizon height must be an int, got {height!r}"
                )
            if not 0 <= height <= tip:
                raise QueryRefused(f"horizon height {height} outside 0..{tip}")
        metrics = self.service.metrics
        timed = metrics.enabled
        if timed:
            start = perf_counter()
            view = self.service.aggregates
            flushed = view.flush_seconds
            view.last_path = "tip"  # unless the handler reads the past
        cache = self.service.cache
        key = self._cache_key(query)
        found, value = cache.lookup(key)
        if not found:
            try:
                value = handler(self, query)
            except Exception as exc:
                log = self.service.log
                if log.enabled:
                    log.error(
                        "query_error",
                        kind=query.kind,
                        height=self.service.height,
                        error=repr(exc),
                    )
                raise
            cache.put(key, value)
        if timed:
            seconds = perf_counter() - start
            metrics.histogram("query.seconds", kind=query.kind).observe(
                seconds
            )
            span = {
                "query": query.kind,
                "hit": found,
                "height": self.service.height,
                "seconds": seconds,
                "path": "cache" if found else view.last_path,
                "flush_paid_seconds": view.flush_seconds - flushed,
            }
            if request_id is not None:
                span["request_id"] = request_id
            metrics.flight.record("query", **span)
        return value

    def _cache_key(self, query: Query):
        """Taint answers depend on the watch set, not just the height —
        key them on the view's watch epoch too, so ``watch_theft`` at an
        unchanged tip invalidates rather than serving pre-watch answers.

        Name-bearing kinds carry the tag count (the store only grows),
        so a tag added at an unchanged tip names its cluster in the
        next answer."""
        kind = query.kind
        service = self.service
        if kind == "trace_taint":
            return (service.height, service.taint.epoch, query)
        if kind in ("top_clusters", "cluster_profile"):
            tags = service.tags
            return (service.height, 0 if tags is None else len(tags), query)
        return (service.height, query)

    def answer_many(
        self, queries: list[Query], *, request_id: str | None = None
    ) -> list:
        """Answer a batch; answers come back in input order.

        Same-view queries are grouped by kind so each kind's shared
        state (the aggregate flush, the height's cluster-name map) is
        built by the group's first miss before its siblings run —
        interleaved :meth:`answer` calls converge to the same cost;
        grouping just makes the build order deterministic.

        Every dispatch carries one shared ``request_id`` (minted here
        when the caller passes none) so a batch's flight-recorder spans
        correlate."""
        if request_id is None and self.service.metrics.enabled:
            request_id = next_request_id()
        answers: list = [None] * len(queries)
        by_kind: dict[str, list[int]] = {}
        for position, query in enumerate(queries):
            by_kind.setdefault(query.kind, []).append(position)
        for positions in by_kind.values():
            for position in positions:
                answers[position] = self.answer(
                    queries[position], request_id=request_id
                )
        return answers

    # -- the one cluster read path -------------------------------------

    def _surface(self, query: Query):
        """The aggregate surface a cluster query reads: at its optional
        trailing height (validated by :meth:`answer`), else at the tip.
        Raises :class:`~repro.service.aggregates.AggregatesBehindError`
        when the view has not folded that height."""
        args, arity = query.args, _HORIZON_AT[query.kind]
        height = args[arity] if len(args) > arity else self.service.height
        return self.service.aggregates.at(height)

    # -- cluster names -------------------------------------------------

    def _cluster_names(self, surface) -> dict[int, str] | None:
        """``canonical id -> name`` at the surface's height, or ``None``
        without tags: built from scratch, one
        :func:`~repro.tagging.naming.cluster_names` pass over the tags'
        canonical ids there (a tag on an address the height has not
        seen is in no cluster).  Memoized per height in the query
        cache, keyed on the tag count, so a tag added later renames
        every height it reaches."""
        tags = self.service.tags
        if tags is None:
            return None
        cache = self.service.cache
        key = (surface.height, Query(f"_agg:cluster_names:{len(tags)}"))
        found, names = cache.lookup(key)
        if not found:
            columns = self._tag_columns
            if columns is None or len(columns) != len(tags):
                columns = self._tag_columns = TagColumns(tags)
            ids = columns.ids(self.service.index.interner.id_of)
            names = cluster_names(surface.cluster_ids_of(ids), columns)
            cache.put(key, names)
        return names

    # -- handlers ------------------------------------------------------

    def _answer_cluster_of(self, query: Query):
        surface = self._surface(query)
        ident = self.service.index.interner.id_of(query.args[0])
        return surface.cluster_id_of(ident)

    def _answer_balance_of(self, query: Query):
        return self.service.balances.balance_of(query.args[0])

    def _answer_cluster_balance(self, query: Query):
        surface = self._surface(query)
        ident = self.service.index.interner.id_of(query.args[0])
        cluster_id = surface.cluster_id_of(ident)
        if cluster_id is None:
            return None
        return surface.balance_of_cluster(cluster_id)

    def _answer_trace_taint(self, query: Query):
        if query.args[0] not in self.service.taint.labels:
            return None  # unwatched case: a client error, not a crash
        case = self.service.taint.case(query.args[0])
        reached = tuple(
            sorted(case.at_entities.items(), key=lambda kv: (-kv[1], kv[0]))
        )
        return {
            "label": case.label,
            "initial_taint": case.initial_taint,
            "unspent_taint": sum(case.taint.values()),
            "txs_processed": case.txs_processed,
            "reached": reached,
        }

    def _answer_top_clusters(self, query: Query):
        n, by = query.args[0], query.args[1]
        surface = self._surface(query)
        names = self._cluster_names(surface)
        return tuple(
            (
                cluster_id,
                value,
                names.get(cluster_id) if names is not None else None,
            )
            for cluster_id, value in surface.top(n, by)
        )

    def _answer_cluster_profile(self, query: Query):
        address = query.args[0]
        service = self.service
        surface = self._surface(query)
        ident = service.index.interner.id_of(address)
        cluster_id = surface.cluster_id_of(ident)
        if cluster_id is None:
            return None
        # The address's own fields: the sibling views hold them at the
        # tip in O(1); below it they are read off the address's rows.
        if surface.height == service.height:
            activity = service.activity
            balance = service.balances.balance_of_id(ident)
            tx_count = activity.tx_count_of_id(ident)
            first, last = activity.seen_range_of_id(ident) or (None, None)
        else:
            balance, tx_count, first, last = service.index.address_by_id(
                ident
            ).as_of(surface.height)
        names = self._cluster_names(surface)
        return {
            "address": address,
            "address_id": ident,
            "cluster": cluster_id,
            "cluster_size": surface.size_of_cluster(cluster_id),
            "balance": balance,
            "cluster_balance": surface.balance_of_cluster(cluster_id),
            "tx_count": tx_count,
            "first_seen": first,
            "last_seen": last,
            "cluster_tx_count": surface.tx_count_of_cluster(cluster_id),
            "cluster_rank": surface.rank_of("size", cluster_id),
            "name": (
                names.get(cluster_id) if names is not None else None
            ),
        }

    _HANDLERS = {
        "cluster_of": _answer_cluster_of,
        "balance_of": _answer_balance_of,
        "cluster_balance": _answer_cluster_balance,
        "trace_taint": _answer_trace_taint,
        "top_clusters": _answer_top_clusters,
        "cluster_profile": _answer_cluster_profile,
    }

