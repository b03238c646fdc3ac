"""Chain-level usage statistics.

The measurements the paper quotes about the network's idioms of use —
"23% of all transactions in the first half of 2013 used self-change
addresses", the prevalence of address reuse, transaction shapes — are
themselves chain-derived numbers.  This module computes them from a
:class:`~repro.chain.index.ChainIndex`, both to validate that the
simulator reproduces the idioms it claims to (tests assert the
self-change share tracks the configured policy) and as a general
profiling tool for any indexed chain.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from .index import ChainIndex


@dataclass
class ChainStatistics:
    """Aggregate usage statistics over one chain."""

    blocks: int = 0
    transactions: int = 0
    coinbases: int = 0
    total_inputs: int = 0
    total_outputs: int = 0
    self_change_txs: int = 0
    multi_input_txs: int = 0
    single_output_txs: int = 0
    two_output_txs: int = 0
    input_count_histogram: Counter = field(default_factory=Counter)
    output_count_histogram: Counter = field(default_factory=Counter)
    address_use_histogram: Counter = field(default_factory=Counter)
    """receive-count -> number of addresses with that many receives."""

    @property
    def non_coinbase_txs(self) -> int:
        return self.transactions - self.coinbases

    @property
    def self_change_share(self) -> float:
        """Share of spending transactions with a self-change output
        (the paper's 23% figure for early 2013)."""
        if not self.non_coinbase_txs:
            return 0.0
        return self.self_change_txs / self.non_coinbase_txs

    @property
    def multi_input_share(self) -> float:
        """Share of spending transactions H1 can learn from."""
        if not self.non_coinbase_txs:
            return 0.0
        return self.multi_input_txs / self.non_coinbase_txs

    @property
    def single_use_address_share(self) -> float:
        """Share of addresses used exactly once — the 'fresh address'
        idiom H2 depends on."""
        total = sum(self.address_use_histogram.values())
        if not total:
            return 0.0
        return self.address_use_histogram[1] / total

    @property
    def mean_inputs(self) -> float:
        if not self.non_coinbase_txs:
            return 0.0
        return self.total_inputs / self.non_coinbase_txs

    @property
    def mean_outputs(self) -> float:
        if not self.transactions:
            return 0.0
        return self.total_outputs / self.transactions


def compute_statistics(
    index: ChainIndex, *, up_to_height: int | None = None
) -> ChainStatistics:
    """Profile a chain (optionally only a prefix)."""
    stats = ChainStatistics()
    seen_heights: set[int] = set()
    for tx, location in index.iter_transactions():
        if up_to_height is not None and location.height > up_to_height:
            break
        seen_heights.add(location.height)
        stats.transactions += 1
        stats.total_outputs += len(tx.outputs)
        stats.output_count_histogram[len(tx.outputs)] += 1
        if tx.is_coinbase:
            stats.coinbases += 1
            continue
        stats.total_inputs += len(tx.inputs)
        stats.input_count_histogram[len(tx.inputs)] += 1
        if len(tx.inputs) >= 2:
            stats.multi_input_txs += 1
        if len(tx.outputs) == 1:
            stats.single_output_txs += 1
        elif len(tx.outputs) == 2:
            stats.two_output_txs += 1
        input_addresses = set(index.input_addresses(tx))
        if any(
            out.address in input_addresses
            for out in tx.outputs
            if out.address is not None
        ):
            stats.self_change_txs += 1
    stats.blocks = len(seen_heights)
    for record in index.iter_addresses():
        receives = (
            len(record.receive_rows)
            if up_to_height is None
            else record.receives_before(up_to_height + 1)
        )
        if receives:
            stats.address_use_histogram[receives] += 1
    return stats


def format_statistics(stats: ChainStatistics) -> str:
    """Human-readable profile (used by the CLI)."""
    lines = [
        f"blocks:               {stats.blocks}",
        f"transactions:         {stats.transactions} "
        f"({stats.coinbases} coinbases)",
        f"mean inputs/tx:       {stats.mean_inputs:.2f}",
        f"mean outputs/tx:      {stats.mean_outputs:.2f}",
        f"multi-input share:    {stats.multi_input_share:.1%}  (H1 signal)",
        f"self-change share:    {stats.self_change_share:.1%}  "
        f"(paper: ~23% in early 2013)",
        f"single-use addresses: {stats.single_use_address_share:.1%}  "
        f"(H2's fresh-address idiom)",
    ]
    return "\n".join(lines)
