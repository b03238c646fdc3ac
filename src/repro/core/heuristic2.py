"""Heuristic 2: one-time change address identification (§4.1–4.2).

The paper's new heuristic.  In the client idiom of the era, change goes
to a freshly generated address that is never re-used and never handed
out; such an address is therefore controlled by the same user as the
transaction's inputs.

An address is a candidate **one-time change address** for transaction T
when all four of the paper's conditions hold:

1. the address first appears in T (no previous transaction);
2. T is not a coin generation;
3. T has no self-change output (no output address is also an input
   address);
4. every *other* output address of T has appeared before T.

If more than one output satisfies (1) the change is ambiguous and
nothing is labeled.

§4.2 then adds a refinement ladder, each rung independently togglable
through :class:`Heuristic2Config` so the false-positive benches can
sweep them:

* **dice exception** — later inputs to the candidate that come solely
  from dice-game addresses do not void its one-timeness (Satoshi Dice
  pays winnings back to the betting address);
* **waiting period** — only label once the candidate has stayed
  input-free for a day / a week of chain time;
* **reused-change rejection** — skip transactions in which some output
  address has already received exactly one input (the "same change
  address used twice" pattern that built the Mt.Gox super-cluster);
* **prior-self-change rejection** — skip transactions whose candidate
  was used as a self-change address earlier.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterator

from ..chain.index import ChainIndex
from ..chain.model import Transaction

SECONDS_PER_DAY = 86_400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY


@dataclass(frozen=True)
class Heuristic2Config:
    """Toggles for the §4.2 refinement ladder."""

    min_outputs: int = 2
    """Transactions with a single output have no change to find."""

    dice_exception: bool = True
    wait_seconds: int | None = SECONDS_PER_WEEK
    """Label only if the candidate receives no later input within this
    many seconds of chain time (None disables the wait)."""

    reject_reused_change: bool = True
    reject_prior_self_change: bool = True
    rejection_window_seconds: int | None = SECONDS_PER_WEEK
    """Recency scope for the two rejections: §4.2 observed the reused
    change / re-surfacing self-change patterns "especially within a
    short window of time", so only output addresses whose offending
    history falls within this window veto the transaction.  ``None``
    makes the rejections unconditional (strictly literal reading)."""

    @classmethod
    def naive(cls) -> "Heuristic2Config":
        """The unrefined heuristic as first defined in §4.1."""
        return cls(
            dice_exception=False,
            wait_seconds=None,
            reject_reused_change=False,
            reject_prior_self_change=False,
        )

    @classmethod
    def refined(cls) -> "Heuristic2Config":
        """The full ladder the paper settles on."""
        return cls()

    def with_wait_days(self, days: float | None) -> "Heuristic2Config":
        """A copy with the waiting period set to ``days`` days."""
        seconds = None if days is None else int(days * SECONDS_PER_DAY)
        return replace(self, wait_seconds=seconds)


@dataclass(frozen=True, slots=True)
class ChangeLabel:
    """One identified change output."""

    txid: bytes
    vout: int
    address: str
    height: int


@dataclass
class Heuristic2Result:
    """All change labels plus bookkeeping about skipped transactions."""

    labels: list[ChangeLabel] = field(default_factory=list)
    ambiguous: int = 0
    skipped_self_change: int = 0
    skipped_reused_change: int = 0
    skipped_prior_self_change: int = 0
    skipped_wait: int = 0
    skipped_dice_voided: int = 0

    @property
    def change_addresses(self) -> set[str]:
        return {label.address for label in self.labels}

    def __len__(self) -> int:
        return len(self.labels)


def is_dice_spend(
    index: ChainIndex, tx: Transaction, dice_addresses: frozenset[str]
) -> bool:
    """True when every resolvable sender of ``tx`` is a dice address.

    The single definition of the §4.2 dice-exception sender test, shared
    by the batch wait check, the incremental engine's forward voiding,
    and the false-positive estimator — so the three can never diverge.
    """
    senders = index.input_addresses(tx)
    return bool(senders) and all(s in dice_addresses for s in senders)


def find_candidate(
    index: ChainIndex,
    tx: Transaction,
    height: int,
    *,
    min_outputs: int = 2,
    ids: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
) -> tuple[int | None, str]:
    """Apply the four base conditions to one indexed transaction at its
    own ``height``.

    Returns ``(vout, "ok")`` for an unambiguous candidate, or
    ``(None, reason)`` where reason is one of ``coinbase``,
    ``too_few_outputs``, ``self_change``, ``no_fresh_output``,
    ``ambiguous``.

    Works in id space on the index's rows: an output is *fresh* exactly
    when it is the first receive its address ever had
    (:meth:`ChainIndex.fresh_outputs`).  Rows are in chain order, so
    that one comparison covers "never paid before this height" and "not
    paid earlier in this block (or by an earlier output of this
    transaction)" at once; every other addressed output has then
    appeared before, which is condition 4.

    ``ids`` is the transaction's ``(input ids, output ids)`` when the
    caller already holds them (the streaming engine does, from the
    block's delta); otherwise they are read from the index.
    """
    if tx.is_coinbase:
        return None, "coinbase"
    if len(tx.outputs) < min_outputs:
        return None, "too_few_outputs"
    input_ids, output_ids = ids or (
        index.input_address_ids(tx), index.output_address_ids(tx)
    )
    if not set(input_ids).isdisjoint(output_ids):
        return None, "self_change"
    fresh = index.fresh_outputs(tx.txid)
    if not fresh:
        return None, "no_fresh_output"
    if len(fresh) > 1:
        return None, "ambiguous"
    return fresh[0], "ok"


class Heuristic2:
    """Configurable one-time change identifier over a chain index."""

    def __init__(
        self,
        index: ChainIndex,
        config: Heuristic2Config | None = None,
        *,
        dice_addresses: frozenset[str] = frozenset(),
    ) -> None:
        self.index = index
        self.config = config or Heuristic2Config.refined()
        self.dice_addresses = dice_addresses

    # ------------------------------------------------------------------
    # refinement checks
    # ------------------------------------------------------------------

    def _later_inputs_void_one_timeness(
        self, address: str, height: int, *, as_of_height: int | None
    ) -> tuple[bool, bool]:
        """Check the candidate's receives within the waiting window.

        Returns ``(voided, dice_saved)``: ``voided`` when an input inside
        the wait window disqualifies the label; ``dice_saved`` when such
        inputs existed but were excused by the dice exception.  With no
        waiting period configured the label is immediate (no lookahead),
        which is the §4.1 naive behaviour.
        """
        if self.config.wait_seconds is None:
            return False, False
        index = self.index
        tip = index.height if as_of_height is None else as_of_height
        limit = min(
            index.timestamp_at(height) + self.config.wait_seconds,
            index.timestamp_at(tip),
        )
        later = [
            r
            for r in index.address(address).receives_after(height)
            if r.height <= tip and index.timestamp_at(r.height) <= limit
        ]
        if not later:
            return False, False
        if self.config.dice_exception and self.dice_addresses:
            if all(self._receive_is_from_dice(r) for r in later):
                return False, True
        return True, False

    def _receive_is_from_dice(self, receive) -> bool:
        """Is this receive a payment sent by a dice-game address?"""
        return is_dice_spend(
            self.index, self.index.tx(receive.txid), self.dice_addresses
        )

    def _within_window(self, event_height: int, height: int) -> bool:
        window = self.config.rejection_window_seconds
        if window is None:
            return True
        return (
            self.index.timestamp_at(height) - self.index.timestamp_at(event_height)
            <= window
        )

    def _some_output_is_reused_change(
        self, tx: Transaction, height: int, output_ids: tuple[int, ...]
    ) -> bool:
        """§4.2: 'an output address had already received only one input'
        — the same-change-address-used-twice pattern (recency-scoped;
        heavily reused addresses like dice games are exempt, they are
        plainly not one-time change)."""
        dice = self.dice_addresses
        first_receive_heights = self.index.first_receive_heights
        for out, ident in zip(tx.outputs, output_ids):
            if ident < 0:
                continue
            # Exactly one receive strictly before ``height``: the first
            # is, the second (if any) is not.
            received = first_receive_heights(ident, 2)
            if (
                received[0] < height
                and (len(received) == 1 or received[1] >= height)
                and not (dice and out.address in dice)
                and self._within_window(received[0], height)
            ):
                return True
        return False

    def _some_output_was_self_change(self, tx: Transaction, height: int) -> bool:
        """§4.2: 'an output address had been previously used in a
        self-change transaction' — the pattern of self-change addresses
        later reappearing as ordinary change, which (with reused change)
        built the super-cluster.  Recency-scoped like the reused-change
        rejection; known dice addresses are exempt."""
        for out in tx.outputs:
            address = out.address
            if address is None or address in self.dice_addresses:
                continue
            for event_height in self.index.self_change_heights(address):
                if event_height < height and self._within_window(
                    event_height, height
                ):
                    return True
        return False

    # ------------------------------------------------------------------
    # main entry points
    # ------------------------------------------------------------------

    def identify_change_static(
        self,
        tx: Transaction,
        *,
        height: int | None = None,
        ids: tuple[tuple[int, ...], tuple[int, ...]] | None = None,
    ) -> tuple[ChangeLabel | None, str]:
        """The purely-past part of the label decision.

        Applies the four base conditions plus the two §4.2 rejections,
        all of which read only information at or before the
        transaction's own height — no waiting-period lookahead.  This is
        what the incremental engine evaluates as a block arrives (the
        wait check is then applied forward, as later receives stream
        in); :meth:`identify_change` layers the lookahead on top.

        ``height`` and ``ids`` (see :func:`find_candidate`) spare the
        index reads when the caller holds the block's delta.
        """
        index = self.index
        if height is None:
            height = index.height_of(tx.txid)
        vout, reason = find_candidate(
            index, tx, height, min_outputs=self.config.min_outputs, ids=ids
        )
        if vout is None:
            return None, reason
        address = tx.outputs[vout].address
        if self.config.reject_reused_change and self._some_output_is_reused_change(
            tx, height, ids[1] if ids else index.output_address_ids(tx)
        ):
            return None, "reused_change"
        if self.config.reject_prior_self_change and self._some_output_was_self_change(
            tx, height
        ):
            return None, "prior_self_change"
        return (
            ChangeLabel(txid=tx.txid, vout=vout, address=address, height=height),
            "ok",
        )

    def identify_change(
        self, tx: Transaction, *, as_of_height: int | None = None
    ) -> tuple[ChangeLabel | None, str]:
        """Identify the one-time change output of ``tx``, if any.

        ``as_of_height`` bounds the information used (temporal replay:
        the analysis pretends the chain ends there).  Returns
        ``(label, reason)``.
        """
        label, reason = self.identify_change_static(tx)
        if label is None:
            return None, reason
        voided, _dice_saved = self._later_inputs_void_one_timeness(
            label.address, label.height, as_of_height=as_of_height
        )
        if voided:
            return None, "wait_voided"
        return label, "ok"

    def run(self, *, as_of_height: int | None = None) -> Heuristic2Result:
        """Label change addresses across the whole chain (or a prefix)."""
        result = Heuristic2Result()
        for tx, location in self.index.iter_transactions():
            if as_of_height is not None and location.height > as_of_height:
                break
            label, reason = self.identify_change(tx, as_of_height=as_of_height)
            if label is not None:
                result.labels.append(label)
            elif reason == "ambiguous":
                result.ambiguous += 1
            elif reason == "self_change":
                result.skipped_self_change += 1
            elif reason == "reused_change":
                result.skipped_reused_change += 1
            elif reason == "prior_self_change":
                result.skipped_prior_self_change += 1
            elif reason == "wait_voided":
                result.skipped_wait += 1
        return result

    def iter_change_links(
        self, *, as_of_height: int | None = None
    ) -> Iterator[tuple[str, list[str]]]:
        """Yield ``(change_address, input_addresses)`` pairs for unioning."""
        for tx, location in self.index.iter_transactions():
            if as_of_height is not None and location.height > as_of_height:
                break
            label, _reason = self.identify_change(tx, as_of_height=as_of_height)
            if label is None:
                continue
            inputs = self.index.input_addresses(tx)
            if inputs:
                yield label.address, inputs


def dice_addresses_from_tags(tag_store, dice_services: tuple[str, ...]) -> frozenset[str]:
    """Addresses attributable to dice games, per the analyst's tags.

    The paper applied the dice exception using its *labeled* view of
    Satoshi Dice (tags + clustering), not ground truth; this helper
    mirrors that by reading a tag store.
    """
    out: set[str] = set()
    for tag in tag_store.all_tags():
        if tag.entity in dice_services:
            out.add(tag.address)
    return frozenset(out)
