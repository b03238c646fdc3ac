"""Online cross-layer invariant auditing for the streaming pipeline.

:class:`InvariantAuditor` attaches to the same
:meth:`~repro.chain.index.ChainIndex.subscribe_deltas` fan-out the
engine and views stream from (registered last, so it always observes a
fully folded block) and, at a configurable cadence, re-derives the
pipeline's load-bearing invariants from independent sources:

* **balance conservation** — the :class:`~repro.service.views.BalanceView`
  dense array must equal a scatter replay of the index's receive and
  spend rows up to the view's height, hold no negative balances, and
  sum to at most its issuance, which must equal the coinbase receive
  rows (Σ balances == Σ minted − Σ spent-to-nowhere);
* **partition invariants** — in both the engine's H1 structure and the
  aggregate view's base partition, per-root sizes must sum to the
  universe, the unique-root count must equal ``component_count``, and
  every canonical cluster id must be its cluster's minimal member;
* **aggregates vs batch** — sampled clusters of the
  :class:`~repro.service.aggregates.ClusterAggregateView` (random
  members plus a bounded sample of the addresses whose balance moved in
  the rows the balance check replayed) are compared against a batch
  rebuild of the tip clustering — the H1 merge log re-applied to a copy
  plus the active change links, with size, balance and tx count rolled
  up by one grouped numpy pass;
* **shadow folds** — sampled blocks' :class:`~repro.chain.delta.BlockDelta`
  is rebuilt from the index's rows and read three independent ways: the
  event columns refolded by the ``np.add.at`` kernel and by a scalar
  per-event loop must agree, the involvement columns must equal the
  per-transaction id tuples, and the event and involvement columns
  must equal the ones the aggregate view's per-height delta log
  retained when the block streamed;
* **tip derived state** (``full`` audits only) — the aggregate view's
  tip must equal the state its delta log builds at the tip height,
  settled wholesale: base columns and partition, the incrementally
  patched overlay groups and the open links each holds, and all three
  rankings in full order.  Right after a restore the tip *is* that
  fold of the same log, so the check compares the log with itself;
  there a forged ``timetravel`` value is seen by ``aggregates`` and
  ``shadow_fold``.

Every check reports through ``audit.checks_total``,
``audit.violations_total{check=}``, and ``audit.seconds{check=}`` plus
one ``audit`` flight span per run; ``strict=True`` raises
:class:`AuditViolationError` after recording, production mode degrades
to metrics/logs.  The auditor deliberately reads component internals
(``engine._uf``, the views' dense arrays): it is an in-package
privileged consumer whose whole purpose is an independent
recomputation path, not a serving API.

Cost model: the balance replay is incremental (only rows since the
last audit are scattered), the batch tip partition is one numpy copy of
the engine's H1 structure plus the active-label overlay, and everything
else is sampled — ``benchmarks/bench_audit_overhead.py`` pins one
``audit_every=16`` cycle over full fan-out ingest at ≤2.75 ms, and an
attached auditor with the cadence disabled at ≤1.01× unaudited ingest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from ..service.aggregates import AggregateSurface
from ..service.queries import TOP_CLUSTER_METRICS

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
    seeded sample, and adds the ``tip_derived`` check: the tip's base
    columns, incrementally patched overlay groups and rankings against
    the state the delta log builds at the tip height.
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
        # Incremental row replay for the balance-conservation check:
        # only the receive and spend rows past _row_marks are scattered
        # per audit, so cadence audits stay O(new rows + compare).
        self._replay = np.zeros(0, dtype="<i8")
        self._row_marks = (0, 0)
        self._issued = 0
        # The addresses those rows moved (the last replay's), the
        # aggregates check's second sample: read off the index, not
        # reported by the view it checks.
        self._moved = np.empty(0, dtype="<i8")
        service.index.subscribe_deltas(self._observe_delta, name="auditor")
        service.auditor = self

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
        if full:
            checks.append(self._timed("tip_derived", self._check_tip_derived))
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
        """View array == row replay; no negatives; Σ ≤ issuance ==
        Σ coinbase receive rows."""
        view = self.service.balances
        index = self.service.index
        rows = index.history_columns(view.height, since=self._row_marks)
        self._row_marks = rows.ends
        arr = view._balances.array
        n = len(arr)
        grow = max(n, index.address_count) - len(self._replay)
        replay = self._replay = np.pad(self._replay, (0, grow))
        credited = rows.recv_addr >= 0
        np.add.at(replay, rows.recv_addr[credited], rows.recv_value[credited])
        debited = rows.spend_addr >= 0
        np.subtract.at(
            replay, rows.spend_addr[debited], rows.spend_value[debited]
        )
        self._moved = np.unique(
            np.concatenate((rows.recv_addr[credited], rows.spend_addr[debited]))
        )
        self._issued += int(
            rows.recv_value[rows.tx_spends[rows.recv_tx] == 0].sum()
        )
        problems: list[str] = []
        mismatched = int(
            np.count_nonzero(replay[:n] != arr)
            + np.count_nonzero(replay[n:])
        )
        if mismatched:
            problems.append(
                f"{mismatched} balance slot(s) differ from the row replay"
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
        if supply != self._issued:
            problems.append(
                f"issuance {supply} != coinbase receive rows {self._issued}"
            )
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
        copied (its live forest *is* the H1 forest at a block boundary)
        plus every still-active change link — exactly what
        ``cluster_as_of`` materializes at the tip."""
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
        clusters whose aggregates matter most) plus the clusters of up
        to ``sample_clusters`` of the addresses whose balance moved in
        the rows the balance check just replayed (sampled when more
        moved — cadence plus fresh randomness each cycle provides
        eventual coverage).  ``full`` (the doctor path) builds the dense
        batch rollup once and checks every cluster.
        """
        view = self.service.aggregates
        view._flush()
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
        tx_counts = sized(self.service.activity._tx_counts.array)

        if full:
            chosen = None
        else:
            budget = min(self.sample_clusters, n)
            chosen = {int(roots[i]) for i in rng.sample(range(n), budget)}
            moved = self._moved.tolist()
            if len(moved) > budget:
                moved = rng.sample(moved, budget)
            chosen |= {int(roots[ident]) for ident in moved if ident < n}
        expected = self._rollups_of_roots(chosen, roots, balances, tx_counts)

        problems: list[str] = []
        for cid, size, balance, batch_tx in expected:
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
            if surface.tx_count_of_cluster(cid) != batch_tx:
                problems.append(
                    f"cluster {cid}: tx count "
                    f"{surface.tx_count_of_cluster(cid)} != batch {batch_tx}"
                )
        detail = "; ".join(problems[:8])
        if len(problems) > 8:
            detail += f"; … {len(problems) - 8} more"
        if not problems:
            detail = f"{len(expected)} cluster(s) cross-checked"
        return len(problems), detail

    def _check_tip_derived(self) -> tuple[int, str]:
        """The tip — its base columns and partition, its incrementally
        patched overlay groups (aggregates and the open links each
        holds) and all three rankings, in full order — vs the state
        built from the delta log's columns at the tip height and
        settled wholesale."""
        view = self.service.aggregates
        view._flush()
        tip = view._tip
        built = view._log.state_at(view.height, tip.uf)
        built.settle()
        problems: list[str] = []

        def base(state) -> list[list]:
            roots = state.uf.root_ids()
            return [
                roots.tolist(),
                *(
                    vector.array[roots].tolist()
                    for vector in (
                        state.uf.root_sizes, state.min_member, *state.roots
                    )
                ),
            ]

        if len(tip.uf) != len(built.uf) or base(tip) != base(built):
            problems.append("base columns differ from the column build")
        elif not np.array_equal(
            tip.uf.find_many(np.arange(len(tip.uf))),
            built.uf.find_many(np.arange(len(built.uf))),
        ):
            problems.append("partition differs from the column build")

        def groups(state) -> list[tuple]:
            return sorted(
                (g.cid, g.roots, g.size, g.balance, g.tx_count)
                for g in state.groups
            )

        if groups(tip) != groups(built):
            problems.append("overlay groups differ from the column build")
        held = sorted(
            (id(live), group.cid) for group in tip.groups for live in group.links
        )
        expected = []
        for live in built.open:
            if live.input_id is None:
                continue
            owner = built.uf.find(live.address_id)
            if owner != built.uf.find(live.input_id):
                expected.append((id(live), built.group_of[owner].cid))
        if held != sorted(expected):
            problems.append("overlay link sets differ from the open links")
        # Every metric by name: rankings are built on first read, so the
        # tip's dict alone could hold fewer than all of them.
        for by in TOP_CLUSTER_METRICS:
            ranking, truth = tip.ranks[by], built.ranks[by]
            if ranking.top(len(ranking)) != truth.top(len(truth)):
                problems.append(f"{by} ranking differs from the column build")
        return len(problems), "; ".join(problems) or (
            f"{len(tip.groups)} overlay group(s) and "
            f"{len(TOP_CLUSTER_METRICS)} ranking(s) match the column build"
        )

    @staticmethod
    def _rollups_of_roots(chosen, roots, balances, tx_counts) -> list[tuple]:
        """Batch truth ``(cid, size, balance, tx_count)`` for every root
        in ``chosen`` (``None``: every root there is), in one grouped
        pass: a lookup-table gather tags each member with its group, a
        stable argsort over the (member-count-sized) selection groups
        members contiguously in ascending id order, and each aggregate
        rolls up as an exact int64 ``reduceat`` — no per-cluster
        full-universe masks, no float bincount weights, no
        ~1µs-per-element ``ufunc.at``."""
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
        return list(
            zip(cids.tolist(), sizes.tolist(), sums.tolist(), txs.tolist())
        )

    def _check_shadow_folds(self, rng, *, full: bool) -> tuple[int, str]:
        """Sampled blocks' deltas, rebuilt from the index's rows, read
        three independent ways: kernel scatter == scalar loop over the
        event columns, involvement columns == the per-tx id tuples, and
        event and involvement columns == the ones the aggregate view's
        delta log retained when the block streamed."""
        index = self.service.index
        height = index.height
        if height < 0:
            return 0, ""
        if full:
            heights = list(range(height + 1))
        else:
            budget = min(self.sample_blocks, height + 1)
            heights = sorted(rng.sample(range(height + 1), budget))
        aggregates = self.service.aggregates
        aggregates._flush()
        log = aggregates._log
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
            # An aggregate view that is behind the chain is the
            # aggregates check's to report; compare what it does hold.
            if h <= log.height and not all(
                np.array_equal(retained, rebuilt)
                for retained, rebuilt in zip(
                    log.churn(h, h),
                    (delta.event_ids, delta.event_values, delta.involved_flat),
                )
            ):
                problems.append(
                    f"height {h}: retained delta columns differ from the rows"
                )
        detail = (
            "; ".join(problems)
            if problems
            else f"{len(heights)} block(s) refolded"
        )
        return len(problems), detail
