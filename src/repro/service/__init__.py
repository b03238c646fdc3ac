"""Forensics query service: streaming materialized views + cached queries.

The serving layer on top of chain → core: a
:class:`~repro.service.service.ForensicsService` keeps clustering,
balances, theft taint, and activity materialized as blocks stream in,
and answers the paper's interactive questions (§5) from warm state
through a height-keyed memoizing query API.  See ``service/queries.py``
for the query catalogue and the ``query``/``serve`` CLI commands for
the command-line surface.
"""

from .aggregates import (
    AggregatesBehindError,
    AggregateSurface,
    ClusterAggregateView,
    RankIndex,
)
from .cache import QueryCache
from .queries import (
    Query,
    QueryEngine,
    QueryRefused,
    format_answer,
    parse_query,
)
from .service import ForensicsService
from .views import ActivityView, BalanceView, TaintCase, TaintView

__all__ = [
    "ActivityView",
    "AggregateSurface",
    "AggregatesBehindError",
    "BalanceView",
    "ClusterAggregateView",
    "ForensicsService",
    "Query",
    "QueryCache",
    "QueryEngine",
    "QueryRefused",
    "RankIndex",
    "TaintCase",
    "TaintView",
    "format_answer",
    "parse_query",
]
