"""Failure accounting and the untimed answer checks.

Every call into the program during a timed phase is an attempted
operation; one that raises is a failed one.  After the cycles the
answers are compared with independent recomputation — the batch
``ClusteringEngine`` over the same index, balances summed from address
records, a bulk-ingested twin, a service that never restarted — and each
comparison is attempted (and possibly failed) too.  ``failed ÷
attempted`` is the run's ``failed_ops_share``.  There are no golden
digests: a later fix that legitimately changes an answer changes both
sides.
"""

from __future__ import annotations

import random
import sys

from repro.core.clustering import ClusteringEngine
from repro.service import Query

MAX_LOGGED = 20


class Ledger:
    """Counts attempted and failed operations; logs the first few."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.attempted = 0
        self.failed = 0

    def raised(self, phase: str, rep: int, op: int, exc: BaseException) -> None:
        self._fail(f"{phase} rep {rep} op {op} raised {exc!r}")

    def check(self, what: str, got, want) -> bool:
        """One oracle comparison; returns whether it held."""
        self.attempted += 1
        if got == want:
            return True
        self._fail(f"oracle {what}: got {got!r}, want {want!r}")
        return False

    def _fail(self, message: str) -> None:
        self.failed += 1
        if self.failed <= MAX_LOGGED:
            print(f"FAILED [{self.workload}] {message}", file=sys.stderr)

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def balance_at(index, address: str, height: int) -> int:
    """Satoshis ``address`` held after block ``height``, from its record."""
    record = index.address(address)
    return sum(r.value for r in record.receives if r.height <= height) - sum(
        s.value for s in record.spends if s.height <= height
    )


def check_point_balances(ledger, service, addresses, rng, samples: int) -> None:
    for address in rng.sample(addresses, min(samples, len(addresses))):
        ledger.check(
            f"balance_of({address})",
            service.answer(Query("balance_of", (address,))),
            service.index.address(address).balance,
        )


def check_clusters(
    ledger, service, dice, addresses, seen_by, rng, height, samples, at_tip
) -> None:
    """Sampled ``cluster_of``/``cluster_balance``/``cluster_profile`` and
    the top-by-size answer at ``height`` against one batch clustering."""
    index = service.index
    batch = ClusteringEngine(index, dice_addresses=dice).cluster(
        as_of_height=height
    )
    members_of = batch.clusters()
    tail = () if at_tip else (height,)
    known = addresses[: seen_by[height]]
    for address in rng.sample(known, min(samples, len(known))):
        members = members_of[batch.cluster_of(address)]
        ident = service.answer(Query("cluster_of", (address, *tail)))
        peer = members[rng.randrange(len(members))]
        ledger.check(
            f"cluster_of({address})@{height} vs member {peer}",
            service.answer(Query("cluster_of", (peer, *tail))),
            ident,
        )
        ledger.check(
            f"cluster_balance({address})@{height}",
            service.answer(Query("cluster_balance", (address, *tail))),
            sum(balance_at(index, member, height) for member in members),
        )
        profile = service.answer(Query("cluster_profile", (address, *tail)))
        ledger.check(
            f"cluster_profile({address})@{height} size",
            profile["cluster_size"],
            len(members),
        )
    top = service.answer(Query("top_clusters", (1, "size", *tail)))
    ledger.check(
        f"top_clusters(size)@{height}",
        top[0][1],
        max(len(members) for members in members_of.values()),
    )


def check_horizon_at_tip(ledger, service, queries) -> None:
    """A horizon query at ``h = tip`` must equal the tip answer."""
    tip = service.height
    for query in queries:
        if query.kind in ("balance_of", "trace_taint"):
            continue  # tip-only kinds take no height
        ledger.check(
            f"{query.kind}{query.args} at h=tip",
            service.answer(Query(query.kind, (*query.args, tip))),
            service.answer(query),
        )


def check_same_answers(ledger, what, service, other_answers, queries) -> None:
    """``other_answers[i]`` must equal this service's answer to
    ``queries[i]`` (bulk twin, restarted service)."""
    for query, other in zip(queries, other_answers, strict=True):
        ledger.check(
            f"{what} {query.kind}{query.args}", other, service.answer(query)
        )


def sample_queries(inputs, rng: random.Random, n: int) -> list[Query]:
    """A tip + historical mix over every kind, from the generated pools."""
    n_hist = min(n // 2, len(inputs.hist_queries))
    pool = inputs.tip_queries
    mix = rng.sample(pool, min(n - n_hist, len(pool)))
    mix += rng.sample(inputs.hist_queries, n_hist)
    mix.append(inputs.follow_batches[-1][0])  # a ranked answer
    return mix
