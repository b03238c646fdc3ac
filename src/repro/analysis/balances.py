"""Category balance time series (Figure 2).

Figure 2 plots, over time, the balance held by each major service
category — exchanges, mining, wallets, gambling, vendors, fixed,
investment — as a percentage of *active* bitcoins (those not parked in
sink addresses that have never spent).

:class:`BalanceAnalyzer` computes the same series from a chain index and
an address→entity naming function plus an entity→category map.  Run it
with ground truth for an oracle view, or with the analyst's cluster
naming for the paper's view; the bench does the latter.  The series is
one walk over every address record plus every block's coinbase.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from ..chain.index import ChainIndex


@dataclass
class BalanceSeries:
    """Sampled balances per category."""

    heights: list[int]
    timestamps: list[int]
    supply: np.ndarray
    """Total coins issued at each sample."""

    sink_balance: np.ndarray
    """Coins held (at sample time) by addresses that never spend in the
    observation window."""

    by_category: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def active(self) -> np.ndarray:
        """Active bitcoins: supply minus sink holdings."""
        return self.supply - self.sink_balance

    def percentage(self, category: str) -> np.ndarray:
        """A category's balance as % of active bitcoins (Figure 2 y-axis)."""
        active = np.where(self.active > 0, self.active, 1)
        return 100.0 * self.by_category[category] / active

    def peak(self, category: str, *, skip_fraction: float = 0.0) -> float:
        """Peak percentage reached by a category.

        ``skip_fraction`` ignores the earliest samples: with only a few
        active coins in existence, one payment can be 100% of activity,
        which says nothing about the steady-state economy Figure 2
        describes.
        """
        series = self.percentage(category)
        start = int(len(series) * skip_fraction)
        series = series[start:]
        return float(series.max()) if len(series) else 0.0


class BalanceAnalyzer:
    """Computes Figure 2's series from a chain index."""

    def __init__(
        self,
        index: ChainIndex,
        *,
        name_of_address,
        category_of_entity,
        categories: tuple[str, ...],
    ) -> None:
        self.index = index
        self.name_of_address = name_of_address
        self.category_of_entity = category_of_entity
        self.categories = categories

    def _category_of(self, address: str) -> str | None:
        entity = self.name_of_address(address)
        if entity is None:
            return None
        return self.category_of_entity(entity)

    def series(self, *, samples: int = 60) -> BalanceSeries:
        """Sample balances at ``samples`` evenly spaced heights."""
        tip = self.index.height
        if tip < 0:
            raise ValueError("empty chain")
        samples = min(samples, tip + 1)
        sample_heights = sorted(
            {int(round(h)) for h in np.linspace(0, tip, samples)}
        )
        # Per-height value deltas for each category, sinks, and supply.
        deltas: dict[str, defaultdict[int, int]] = {
            category: defaultdict(int) for category in self.categories
        }
        sink_deltas: defaultdict[int, int] = defaultdict(int)
        supply_deltas: defaultdict[int, int] = defaultdict(int)
        self._deltas_from_chain_walk(deltas, sink_deltas, supply_deltas)
        series = BalanceSeries(
            heights=sample_heights,
            timestamps=[self.index.timestamp_at(h) for h in sample_heights],
            supply=_cumulative_at(supply_deltas, sample_heights),
            sink_balance=_cumulative_at(sink_deltas, sample_heights),
        )
        for category in self.categories:
            series.by_category[category] = _cumulative_at(
                deltas[category], sample_heights
            )
        return series

    def _deltas_from_chain_walk(self, deltas, sink_deltas, supply_deltas) -> None:
        """Every address record plus every block's coinbase."""
        category_cache: dict[str, str | None] = {}
        for record in self.index.iter_addresses():
            address = record.address
            is_sink = record.is_sink
            if is_sink:
                # Sink-held coins are not "active" (Figure 2's y-axis is
                # a share of active bitcoins), so they count toward the
                # sink series and are excluded from category balances.
                for height, _txid, _vout, value in record.receive_rows:
                    sink_deltas[height] += value
                continue
            category = category_cache.get(address, "!miss")
            if category == "!miss":
                category = self._category_of(address)
                category_cache[address] = category
            if category not in deltas:
                continue
            for height, _txid, _vout, value in record.receive_rows:
                deltas[category][height] += value
            for height, _txid, _vin, value in record.spend_rows:
                deltas[category][height] -= value
        for tx, location in self.index.iter_transactions():
            if tx.is_coinbase:
                supply_deltas[location.height] += tx.total_output_value


def _cumulative_at(deltas: dict[int, int], sample_heights: list[int]) -> np.ndarray:
    """Cumulative-sum a sparse height→delta map at the sample heights."""
    events = sorted(deltas.items())
    out = np.zeros(len(sample_heights), dtype=np.float64)
    running = 0
    event_index = 0
    for i, height in enumerate(sample_heights):
        while event_index < len(events) and events[event_index][0] <= height:
            running += events[event_index][1]
            event_index += 1
        out[i] = running
    return out
