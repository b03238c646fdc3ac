"""Online cross-layer invariant auditing for the streaming pipeline.

:class:`InvariantAuditor` attaches to the same
:meth:`~repro.chain.index.ChainIndex.subscribe_deltas` fan-out the
engine and views stream from (registered last, so it always observes a
fully folded block) and, at a configurable cadence, re-derives the
pipeline's load-bearing invariants from independent sources:

* **balance conservation** — the :class:`~repro.service.views.BalanceView`
  dense array must equal a scatter replay of its own per-height event
  log, hold no negative balances, and sum to at most the cumulative
  issuance (Σ balances == Σ minted − Σ spent-to-nowhere);
* **partition invariants** — in both the engine's H1 structure and the
  aggregate view's base partition, per-root sizes must sum to the
  universe, the unique-root count must equal ``component_count``, and
  every canonical cluster id must be its cluster's minimal member;
* **aggregates vs batch** — sampled clusters of the
  :class:`~repro.service.aggregates.ClusterAggregateView` (random
  members plus a bounded sample of the clusters the view's dirty-root
  cursor reported since the last audit) are compared against a batch
  rebuild of the tip clustering — the H1 merge log re-applied to a copy
  plus the active change links, with size/balance/activity rolled up by
  one grouped numpy pass;
* **shadow folds** — sampled blocks' :class:`~repro.chain.delta.BlockDelta`
  is rebuilt from the index's rows and read three independent ways: the
  event columns refolded by the ``np.add.at`` kernel and by a scalar
  per-event loop must agree, the involvement columns must equal the
  per-transaction id tuples, and the event columns must equal the ones
  the :class:`~repro.service.views.BalanceView` retained when the block
  streamed.

Every check reports through ``audit.checks_total``,
``audit.violations_total{check=}``, and ``audit.seconds{check=}`` plus
one ``audit`` flight span per run; ``strict=True`` raises
:class:`AuditViolationError` after recording, production mode degrades
to metrics/logs.  The auditor deliberately reads component internals
(``engine._uf``, the views' dense arrays): it is an in-package
privileged consumer whose whole purpose is an independent
recomputation path, not a serving API.

Cost model: the balance replay is incremental (only events since the
last audit are scattered), the batch tip partition is one numpy copy of
the engine's H1 structure plus the active-label overlay, and everything
else is sampled — ``benchmarks/bench_audit_overhead.py`` pins full
fan-out ingest with ``audit_every=16`` at ≤1.15× unaudited.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..service.aggregates import AggregateSurface

_INT64_MAX = np.iinfo("<i8").max


class AuditViolationError(RuntimeError):
    """A strict-mode audit found invariant violations.

    Carries the full :class:`AuditReport` as ``report``.
    """

    def __init__(self, report: "AuditReport") -> None:
        failed = ", ".join(
            f"{check.name}={check.violations}"
            for check in report.checks
            if check.violations
        )
        super().__init__(
            f"audit at height {report.height} found "
            f"{report.violations} invariant violation(s): {failed}"
        )
        self.report = report


@dataclass(frozen=True)
class AuditCheck:
    """One check's outcome within one audit run."""

    name: str
    violations: int
    seconds: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "violations": self.violations,
            "seconds": self.seconds,
            "detail": self.detail,
        }


@dataclass(frozen=True)
class AuditReport:
    """All checks of one audit run at one height."""

    height: int
    checks: tuple[AuditCheck, ...]

    @property
    def violations(self) -> int:
        return sum(check.violations for check in self.checks)

    @property
    def ok(self) -> bool:
        return self.violations == 0

    @property
    def seconds(self) -> float:
        return sum(check.seconds for check in self.checks)

    def as_dict(self) -> dict:
        return {
            "height": self.height,
            "ok": self.ok,
            "violations": self.violations,
            "seconds": self.seconds,
            "checks": [check.as_dict() for check in self.checks],
        }


class InvariantAuditor:
    """Continuously cross-checks a
    :class:`~repro.service.service.ForensicsService`'s streamed state.

    ``audit_every=N`` audits after every Nth block (0 disables the
    cadence — :meth:`audit_now` stays available on demand, and the
    per-block cost is one modulo check).  ``strict=True`` raises
    :class:`AuditViolationError` on any violation; otherwise violations
    degrade to metrics, the event log, and :attr:`last_report`.

    ``full=True`` on :meth:`audit_now` (the ``repro doctor`` mode)
    cross-checks *every* cluster against the batch rebuild instead of a
    seeded sample.
    """

    def __init__(
        self,
        service,
        *,
        audit_every: int = 0,
        strict: bool = False,
        sample_clusters: int = 8,
        sample_blocks: int = 2,
        seed: int = 0,
    ) -> None:
        if audit_every < 0:
            raise ValueError("audit_every must be >= 0")
        self.service = service
        self.audit_every = audit_every
        self.strict = strict
        self.sample_clusters = sample_clusters
        self.sample_blocks = sample_blocks
        self.seed = seed
        self.last_report: AuditReport | None = None
        self.audits_run = 0
        self.total_violations = 0
        # Incremental event-log replay for the balance-conservation
        # check: only events past _replay_height are scattered per
        # audit, so cadence audits stay O(new events + compare).
        self._replay = np.zeros(0, dtype="<i8")
        self._replay_height = -1
        # Second consumer of the aggregate view's per-cursor dirty-root
        # sets: every root the naming engine would re-resolve is also a
        # spot-check candidate here, without either drain starving the
        # other (see ClusterAggregateView.naming_cursor).
        self._naming_cursor = service.aggregates.naming_cursor()
        self._unsubscribe = service.index.subscribe_deltas(
            self._observe_delta, name="auditor"
        )
        service.auditor = self

    def detach(self) -> None:
        """Stop observing the index (on-demand audits stay possible)."""
        if self._unsubscribe is not None:
            self._unsubscribe()
            self._unsubscribe = None
        if self._naming_cursor is not None:
            self.service.aggregates.release_naming_cursor(self._naming_cursor)
            self._naming_cursor = None

    def _observe_delta(self, delta) -> None:
        every = self.audit_every
        if every and (delta.height + 1) % every == 0:
            self.audit_now()

    # ------------------------------------------------------------------
    # the audit run
    # ------------------------------------------------------------------

    def audit_now(self, *, full: bool = False) -> AuditReport:
        """Run every check at the current height and report.

        In strict mode a violating run raises *after* metrics, flight
        span, and :attr:`last_report` are recorded, so the failure is
        observable through the same channels as a production run.
        """
        service = self.service
        height = service.height
        rng = random.Random(self.seed ^ (height + 1))
        checks = [
            self._timed("balance_conservation", self._check_balances),
            self._timed("partition", self._check_partition),
            self._timed(
                "aggregates",
                lambda: self._check_aggregates(rng, full=full),
            ),
            self._timed(
                "shadow_fold",
                lambda: self._check_shadow_folds(rng, full=full),
            ),
        ]
        report = AuditReport(height=height, checks=tuple(checks))
        self.last_report = report
        self.audits_run += 1
        self.total_violations += report.violations
        metrics = service.metrics
        if metrics.enabled:
            metrics.counter("audit.checks_total").inc(len(checks))
            for check in checks:
                metrics.counter(
                    "audit.violations_total", check=check.name
                ).inc(check.violations)
                metrics.histogram(
                    "audit.seconds", check=check.name
                ).observe(check.seconds)
            metrics.flight.record(
                "audit",
                height=height,
                violations=report.violations,
                seconds=report.seconds,
            )
        log = service.log
        if log.enabled:
            if report.ok:
                log.debug(
                    "audit_clean", height=height, seconds=report.seconds
                )
            else:
                for check in checks:
                    if check.violations:
                        log.error(
                            "audit_violation",
                            height=height,
                            check=check.name,
                            violations=check.violations,
                            detail=check.detail,
                        )
        if self.strict and not report.ok:
            raise AuditViolationError(report)
        return report

    @staticmethod
    def _timed(name: str, check) -> AuditCheck:
        start = perf_counter()
        violations, detail = check()
        return AuditCheck(
            name=name,
            violations=violations,
            seconds=perf_counter() - start,
            detail=detail,
        )

    # ------------------------------------------------------------------
    # checks — each returns (violations, detail)
    # ------------------------------------------------------------------

    def _check_balances(self) -> tuple[int, str]:
        """View array == event-log replay; no negatives; Σ ≤ issuance."""
        view = self.service.balances
        height = view.height
        problems: list[str] = []
        if len(view._events) != height + 1:
            problems.append(
                f"event log holds {len(view._events)} heights at "
                f"height {height}"
            )
        arr = view._balances.array
        n = len(arr)
        replay = self._replay
        if len(replay) < n:
            grown = np.zeros(n, dtype="<i8")
            grown[: len(replay)] = replay
            replay = self._replay = grown
        for ids, values in view._events[self._replay_height + 1 : height + 1]:
            np.add.at(replay, ids, values)
        self._replay_height = height
        mismatched = int(np.count_nonzero(replay[:n] != arr))
        if mismatched:
            problems.append(
                f"{mismatched} balance slot(s) differ from the event-log "
                f"replay"
            )
        negative = int(np.count_nonzero(arr < 0))
        if negative:
            problems.append(f"{negative} negative balance slot(s)")
        total = int(arr.sum())
        supply = view.supply
        if not 0 <= total <= supply:
            problems.append(
                f"balances sum to {total}, outside [0, issuance {supply}]"
            )
        if view._supply and view._supply[-1] != sum(view._coinbase):
            problems.append("cumulative supply disagrees with coinbase log")
        return len(problems), "; ".join(problems)

    def _check_partition(self) -> tuple[int, str]:
        """Size/root/canonical-id invariants in both union-finds."""
        problems: list[str] = []
        engine_uf = self.service.engine._uf
        problems += self._partition_problems(engine_uf, "engine")
        view = self.service.aggregates
        view._flush()
        state = view._tip
        uf = state.uf
        n = len(uf)
        if n:
            roots = uf.find_many(np.arange(n, dtype="<i8"))
            counts = np.bincount(roots, minlength=n)
            problems += self._partition_problems(
                uf, "aggregates base", roots=roots, counts=counts
            )
            problems += self._min_member_problems(state, roots, counts)
        return len(problems), "; ".join(problems)

    @staticmethod
    def _partition_problems(
        uf, label: str, *, roots=None, counts=None
    ) -> list[str]:
        n = len(uf)
        if n == 0:
            return []
        problems: list[str] = []
        if roots is None:
            roots = uf.find_many(np.arange(n, dtype="<i8"))
        if counts is None:
            counts = np.bincount(roots, minlength=n)
        if int(counts.sum()) != n:
            problems.append(f"{label}: component sizes do not sum to {n}")
        root_ids = np.nonzero(counts)[0]
        if len(root_ids) != uf.component_count:
            problems.append(
                f"{label}: {len(root_ids)} observed roots vs "
                f"component_count {uf.component_count}"
            )
        sizes = uf.root_sizes.array
        bad_sizes = int(
            np.count_nonzero(counts[root_ids] != sizes[root_ids])
        )
        if bad_sizes:
            problems.append(
                f"{label}: {bad_sizes} root(s) with a wrong recorded size"
            )
        return problems

    @staticmethod
    def _min_member_problems(state, roots, counts) -> list[str]:
        """Canonical ids must be minimal members — base and overlay of
        the aggregate view's tip state.

        ``roots``/``counts`` are the base root gather and bincount the
        partition check already paid for."""
        n = len(roots)
        problems: list[str] = []
        ids = np.arange(n, dtype="<i8")
        # Fancy assignment applies writes in order, so scattering the
        # ids in *descending* order leaves each root holding its
        # smallest member — an O(n) scatter instead of a sort or a
        # ~1µs-per-element np.minimum.at loop.
        expected = np.full(n, _INT64_MAX, dtype="<i8")
        expected[roots[::-1]] = ids[::-1]
        root_ids = np.flatnonzero(counts)
        recorded = state.min_member.array
        forged = int(
            np.count_nonzero(recorded[root_ids] != expected[root_ids])
        )
        if forged:
            problems.append(
                f"{forged} base root(s) whose canonical id is not the "
                f"minimal member"
            )
        groups = state.groups
        if groups:
            lengths = [len(group.roots) for group in groups]
            flat = np.fromiter(
                (root for group in groups for root in group.roots),
                dtype="<i8",
                count=sum(lengths),
            )
            offsets = np.concatenate(([0], np.cumsum(lengths)[:-1]))
            mins = np.minimum.reduceat(
                recorded[state.uf.find_many(flat)], offsets
            )
            for group, member_min in zip(groups, mins):
                if group.cid != int(member_min):
                    problems.append(
                        f"overlay group {group.cid} has minimal member "
                        f"{int(member_min)}"
                    )
        return problems

    def _batch_tip(self):
        """The batch-truth tip partition: the engine's H1 structure
        copied (its live state *is* the full merge log at a block
        boundary) plus every still-active change link — exactly what
        ``cluster_as_of`` materializes, without the O(merges) replay."""
        engine = self.service.engine
        tip = engine._uf.copy()
        height = engine.height
        ids_a: list[int] = []
        ids_b: list[int] = []
        for live in engine._labels:
            if (
                live.voided_at is None
                and live.input_id is not None
                and live.label.height <= height
            ):
                ids_a.append(live.address_id)
                ids_b.append(live.input_id)
        if ids_a:
            tip.union_many(ids_a, ids_b)
        return tip

    def _check_aggregates(self, rng, *, full: bool) -> tuple[int, str]:
        """Sampled (or, with ``full``, every) cluster of the view vs the
        batch rollup of the tip partition.

        Routine audits roll up only the sampled clusters, all in one
        grouped numpy pass, so the per-audit cost stays O(universe)
        plus a Python loop bounded by ``2 × sample_clusters``.  Samples
        are drawn as random *members* (size-biased toward the big
        clusters whose aggregates matter most) plus up to
        ``sample_clusters`` of the clusters the dirty-root cursor
        reported since the last audit (sampled when more accumulated —
        cadence plus fresh randomness each cycle provides eventual
        coverage).  ``full`` (the doctor path) builds the dense batch
        rollup once and checks every cluster.
        """
        view = self.service.aggregates
        view._flush()
        dirty: list[int] = []
        if self._naming_cursor is not None:
            dirty = sorted(view.drain_naming_dirty(self._naming_cursor))
        # The view's own tip state, read directly (``at()`` refuses a
        # view that is behind the chain; the audit reports it instead).
        surface = AggregateSurface(view._tip)
        tip = self._batch_tip()
        n = len(tip)
        if n == 0:
            return 0, ""
        roots = tip.find_many(np.arange(n, dtype="<i8"))

        def sized(array) -> np.ndarray:
            if len(array) == n:
                return array
            out = np.zeros(n, dtype="<i8")
            m = min(n, len(array))
            out[:m] = array[:m]
            return out

        balances = sized(self.service.balances._balances.array)
        activity = self.service.activity
        tx_counts = sized(activity._tx_counts.array)
        first_seen = sized(activity._first_seen.array)
        last_seen = sized(activity._last_seen.array)

        if full:
            chosen = None
        else:
            budget = min(self.sample_clusters, n)
            chosen = {int(roots[i]) for i in rng.sample(range(n), budget)}
            if len(dirty) > budget:
                dirty = rng.sample(dirty, budget)
            # Dirty roots are *view-base* roots; their members resolve
            # to tip roots through the tip partition.
            chosen |= {int(roots[root]) for root in dirty if 0 <= root < n}
        expected = self._rollups_of_roots(
            chosen, roots, balances, tx_counts, first_seen, last_seen
        )

        problems: list[str] = []
        for cid, size, balance, batch_tx, first, last in expected:
            view_cid = surface.cluster_id_of(cid)
            if view_cid != cid:
                problems.append(
                    f"cluster {cid}: view canonical id {view_cid}"
                )
                continue
            if surface.size_of_cluster(cid) != size:
                problems.append(
                    f"cluster {cid}: size {surface.size_of_cluster(cid)} != "
                    f"batch {size}"
                )
            if surface.balance_of_cluster(cid) != balance:
                problems.append(
                    f"cluster {cid}: balance "
                    f"{surface.balance_of_cluster(cid)} != batch {balance}"
                )
            view_activity = surface.activity_of_cluster(cid)
            if batch_tx == 0:
                if view_activity is not None:
                    problems.append(
                        f"cluster {cid}: spurious activity for an "
                        f"inactive cluster"
                    )
            elif view_activity is None or (
                view_activity.tx_count != batch_tx
                or view_activity.first_seen != first
                or view_activity.last_seen != last
            ):
                problems.append(f"cluster {cid}: activity mismatch")
        detail = "; ".join(problems[:8])
        if len(problems) > 8:
            detail += f"; … {len(problems) - 8} more"
        if not problems:
            detail = f"{len(expected)} cluster(s) cross-checked"
        return len(problems), detail

    @staticmethod
    def _rollups_of_roots(
        chosen, roots, balances, tx_counts, first_seen, last_seen
    ) -> list[tuple]:
        """Batch truth ``(cid, size, balance, tx_count, first_seen,
        last_seen)`` for every root in ``chosen`` (``None``: every root
        there is), in one grouped pass: a lookup-table gather tags each
        member with its group, a stable argsort over the
        (member-count-sized) selection groups members contiguously in
        ascending id order, and each aggregate rolls up as an exact
        int64 ``reduceat`` — no per-cluster full-universe masks, no
        float bincount weights, no ~1µs-per-element ``ufunc.at``."""
        if chosen is None:
            gid = roots
        elif not chosen:
            return []
        else:
            sel = np.fromiter(chosen, dtype="<i8", count=len(chosen))
            lookup = np.full(len(roots), -1, dtype="<i8")
            lookup[sel] = np.arange(len(sel), dtype="<i8")
            gid = lookup[roots]
        members = np.flatnonzero(gid >= 0)
        order = members[np.argsort(gid[members], kind="stable")]
        sorted_gid = gid[order]
        starts = np.flatnonzero(
            np.r_[True, sorted_gid[1:] != sorted_gid[:-1]]
        )
        cids = order[starts]
        sizes = np.diff(np.r_[starts, len(order)])
        sums = np.add.reduceat(balances[order], starts)
        txs = np.add.reduceat(tx_counts[order], starts)
        active_first = np.where(tx_counts > 0, first_seen, _INT64_MAX)
        active_last = np.where(tx_counts > 0, last_seen, -1)
        firsts = np.minimum.reduceat(active_first[order], starts)
        lasts = np.maximum.reduceat(active_last[order], starts)
        return [
            (
                int(cids[k]),
                int(sizes[k]),
                int(sums[k]),
                int(txs[k]),
                int(firsts[k]) if txs[k] else None,
                int(lasts[k]) if txs[k] else None,
            )
            for k in range(len(starts))
        ]

    def _check_shadow_folds(self, rng, *, full: bool) -> tuple[int, str]:
        """Sampled blocks' deltas, rebuilt from the index's rows, read
        three independent ways: kernel scatter == scalar loop over the
        event columns, involvement columns == the per-tx id tuples, and
        event columns == the ones the balance view retained when the
        block streamed."""
        index = self.service.index
        height = index.height
        if height < 0:
            return 0, ""
        if full:
            heights = list(range(height + 1))
        else:
            budget = min(self.sample_blocks, height + 1)
            heights = sorted(rng.sample(range(height + 1), budget))
        retained = self.service.balances._events
        problems: list[str] = []
        for h in heights:
            delta = index.block_delta(h)
            size = delta.max_id + 1
            kernel = np.zeros(size, dtype="<i8")
            np.add.at(kernel, delta.event_ids, delta.event_values)
            scalar = np.zeros(size, dtype="<i8")
            for ident, change in delta.events:
                scalar[ident] += change
            if np.count_nonzero(kernel != scalar):
                problems.append(f"height {h}: balance fold twins disagree")
            flat = [
                ident for txd in delta.txs for ident in txd.involved
            ]
            if delta.involved_flat.tolist() != flat:
                problems.append(
                    f"height {h}: involvement buffers disagree"
                )
            if delta.involved_ids.tolist() != list(delta.involved):
                problems.append(
                    f"height {h}: involved-id columns disagree"
                )
            # A balance view that is behind the chain is the balance
            # check's to report; compare what it does hold.
            if h < len(retained):
                ids, values = retained[h]
                if not (
                    np.array_equal(ids, delta.event_ids)
                    and np.array_equal(values, delta.event_values)
                ):
                    problems.append(
                        f"height {h}: retained event columns differ from "
                        f"the rows"
                    )
        detail = (
            "; ".join(problems)
            if problems
            else f"{len(heights)} block(s) refolded"
        )
        return len(problems), detail
