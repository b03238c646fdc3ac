"""Heuristic 1: multi-input (co-spend) clustering.

    "If two (or more) addresses are used as inputs to the same
    transaction, then they are controlled by the same user."  (§4.1)

This exploits an inherent protocol property — spending requires the
signing keys of every input — and was already standard in prior work
[Androulaki et al., Reid & Harrigan, Ron & Shamir, blockparser].  It is
sound unless wallets do collaborative spends (CoinJoin postdates the
paper's window).

The paper reports 5.5 M co-spend clusters, and an upper bound of
6,595,564 "users" once sink addresses (which never spent and therefore
never co-spent) are counted as singletons.  :func:`h1_statistics`
produces the same accounting for a simulated chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..chain.index import ChainIndex
from .union_find import IntUnionFind

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .clustering import InternedPartition


def cluster_h1_ids(
    index: ChainIndex, *, as_of_height: int | None = None
) -> IntUnionFind:
    """Run Heuristic 1 over interned address ids (the hot path).

    Every address that has appeared by the cutoff exists in the
    structure (ids are dense and first-sight ordered, so the universe is
    exactly ``0..n_h-1``); sink addresses stay singleton components and
    co-spending unions input ids transaction by transaction.
    """
    uf = IntUnionFind()
    interner = index.interner
    id_of = interner.id_of
    for tx, location in index.iter_transactions():
        if as_of_height is not None and location.height > as_of_height:
            break
        for out in tx.outputs:
            address = out.address
            if address is not None:
                ident = id_of(address)
                if ident is not None and ident >= len(uf):
                    uf.ensure(ident + 1)
        if tx.is_coinbase:
            continue
        input_ids = index.input_address_ids(tx)
        if input_ids:
            uf.union_many(input_ids)
    return uf


def cluster_h1(
    index: ChainIndex, *, as_of_height: int | None = None
) -> "InternedPartition":
    """Heuristic 1 as an address-string-facing partition view."""
    from .clustering import InternedPartition

    return InternedPartition(
        cluster_h1_ids(index, as_of_height=as_of_height), index.interner
    )


@dataclass(frozen=True)
class H1Statistics:
    """The §4.1 accounting for a Heuristic 1 run."""

    total_addresses: int
    spender_clusters: int
    """Components among addresses that have spent at least once."""

    sink_addresses: int
    """Addresses that received but never spent (never clustered)."""

    max_users_upper_bound: int
    """Spender clusters + sink singletons — the paper's 'at most
    6,595,564 distinct users' bound."""

    largest_cluster_size: int


def h1_statistics(
    index: ChainIndex, uf: "InternedPartition | None" = None
) -> H1Statistics:
    """Compute the §4.1 cluster counts for a chain.

    ``uf`` is an address-keyed partition (an
    :class:`~repro.core.clustering.InternedPartition`, or anything with
    its read API); default: :func:`cluster_h1` of the chain.
    """
    uf = uf if uf is not None else cluster_h1(index)
    sinks = set(index.sink_addresses())
    spender_roots = set()
    largest = 0
    for address in uf.iter_items():
        if address in sinks:
            continue
        root = uf.find(address)
        spender_roots.add(root)
        size = uf.size_of(address)
        if size > largest:
            largest = size
    return H1Statistics(
        total_addresses=len(uf),
        spender_clusters=len(spender_roots),
        sink_addresses=len(sinks),
        max_users_upper_bound=len(spender_roots) + len(sinks),
        largest_cluster_size=largest,
    )
