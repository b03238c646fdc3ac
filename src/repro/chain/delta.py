"""The shared per-block ingest plan, built once per block from the row logs.

Every streaming subscriber on the :meth:`ChainIndex.subscribe_deltas
<repro.chain.index.ChainIndex.subscribe_deltas>` fan-out — the
incremental clustering engine, the balance/activity/taint views, the
differential cluster aggregates — folds from one immutable, id-space
:class:`BlockDelta` per block instead of re-walking
``block.transactions``.  The index builds it in one place,
``ChainIndex._build_delta``, from the receive and spend rows its
validating walk appended for the block: the live fan-out, catch-up and
a restored index all read the same rows through the same function.

Each fact is stored once.  Per transaction (:class:`TxDelta`) that is
the sender-id tuple (:attr:`TxDelta.input_ids`) and the output-address
ids aligned with ``tx.outputs`` (:attr:`TxDelta.output_ids`, -1 for
exotic scripts) — what H2's static checks and the engine's §4.2 voiding
pass read per transaction.  Per block it is coinbase issuance
(:attr:`BlockDelta.minted`), the largest address id involved
(:attr:`BlockDelta.max_id`, so dense consumers grow their arrays once
per block) and six typed, contiguous int64 columns built once per
block: the flat balance event log in fold order — per transaction,
spend debits then output credits — (:attr:`BlockDelta.event_ids` /
:attr:`BlockDelta.event_values`), the block's deduplicated involved ids
(:attr:`BlockDelta.involved_ids`), the per-tx involvement multiset
(:attr:`BlockDelta.involved_flat`) and the H1 co-spend pairs
(:attr:`BlockDelta.h1_a` / :attr:`BlockDelta.h1_b`).  The columns are
what every fold consumes — one ``np.add.at`` scatter per block instead
of a per-element Python loop.  They are read-only: one delta object is
shared by the whole fan-out, and consumers may keep the columns (never
the delta) past their fold.

The tuple-shaped readings of the same facts —
:attr:`BlockDelta.events`, :attr:`BlockDelta.involved`,
:attr:`TxDelta.involved` — are properties derived on access, for the
scalar reference folds in ``tests/helpers.py``, the auditor's shadow
fold and anything else that wants to iterate pairs; nothing on the
ingest path builds them.

Settled/voided H2 label churn is deliberately *not* here: it is a
function of clustering state, not of the raw block, and stays on
:meth:`IncrementalClusteringEngine.cluster_delta
<repro.core.incremental.IncrementalClusteringEngine.cluster_delta>` —
the aggregate view combines both deltas per block.

The delta carries the :class:`~repro.chain.model.Block` itself
(:attr:`BlockDelta.block`) for observers that want block-level facts,
and consumers that genuinely need a transaction object (H2's static
checks, taint propagation) read :attr:`TxDelta.tx` — without ever
re-walking ``block.transactions``.  Both are for the duration of the
fold only: the index keeps a decoded block's wire bytes, not the
object, so a subscriber that retained the delta, its block or a
transaction would be the one thing keeping those objects alive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Block, Transaction


@dataclass(frozen=True, slots=True)
class TxDelta:
    """One transaction's flat, id-space ingest facts."""

    tx: Transaction
    """The transaction itself — for consumers that need more than ids
    (H2 static checks, dice-spend tests, taint propagation)."""

    is_coinbase: bool

    input_ids: tuple[int, ...]
    """Interned sender ids (deduplicated, insertion-ordered); empty for
    coinbases.  Mirrors :meth:`ChainIndex.input_address_ids`."""

    output_ids: tuple[int, ...]
    """Output address ids aligned with ``tx.outputs`` (-1 where no
    address is extractable).  Mirrors
    :meth:`ChainIndex.output_address_ids`."""

    @property
    def involved(self) -> tuple[int, ...]:
        """Deduplicated ids appearing among the senders or the outputs
        (insertion-ordered: senders first), derived from the two id
        tuples.  :attr:`BlockDelta.involved_flat` is the column folds
        read."""
        return tuple(
            dict.fromkeys(
                self.input_ids + tuple(i for i in self.output_ids if i >= 0)
            )
        )


@dataclass(frozen=True, slots=True)
class BlockDelta:
    """One block's complete ingest plan, shared by the whole fan-out."""

    block: Block
    txs: tuple[TxDelta, ...]

    minted: int
    """Coinbase satoshis issued by the block."""

    max_id: int
    """Largest address id involved in the block (-1 when none): dense
    consumers grow their arrays to ``max_id + 1`` once per block."""

    event_ids: np.ndarray
    """The flat balance event log, address-id column (read-only int64):
    one entry per debit or credit in fold order — per transaction,
    spend debits then output credits.  The cluster aggregate view's
    per-height delta log retains this column and :attr:`event_values`
    by reference."""

    event_values: np.ndarray
    """The signed satoshi-delta column, aligned with :attr:`event_ids`."""

    involved_ids: np.ndarray
    """Deduplicated ids involved anywhere in the block (union of the
    per-tx involved sets, insertion-ordered)."""

    involved_flat: np.ndarray
    """Per-tx involved sets concatenated in tx order (duplicates
    across txs retained): an address involved in k of the block's txs
    appears k times — exactly the incidence multiset activity and
    aggregate folds count, scatterable in one ``np.add.at``."""

    h1_a: np.ndarray
    """H1 co-spend union pairs, first column: for every non-coinbase tx
    with senders ``(i0, i1, …, ik)``, the pairs ``(i0, i1) … (i0, ik)``
    in tx order.  Unioning these pairs left-to-right produces the *same
    merge log* as the per-tx ``union_many(input_ids)`` chain (the
    running root is always ``find(i0)``), so the engine batches the
    whole block through one
    :meth:`IntUnionFind.union_many(h1_a, h1_b)
    <repro.core.union_find.IntUnionFind.union_many>` call."""

    h1_b: np.ndarray
    """H1 co-spend union pairs, second column (aligned with
    :attr:`h1_a`)."""

    @property
    def height(self) -> int:
        return self.block.height

    @property
    def timestamp(self) -> int:
        return self.block.header.timestamp

    @property
    def events(self) -> tuple[tuple[int, int], ...]:
        """The balance event log as ``(address id, signed satoshi
        delta)`` pairs, derived from the two event columns."""
        return tuple(zip(self.event_ids.tolist(), self.event_values.tolist()))

    @property
    def involved(self) -> tuple[int, ...]:
        """Deduplicated ids involved anywhere in the block, derived from
        the per-tx id tuples — not from :attr:`involved_ids`, so
        comparing the two (the auditor does) checks the column against
        the transactions' own facts."""
        return tuple(
            dict.fromkeys(ident for txd in self.txs for ident in txd.involved)
        )
