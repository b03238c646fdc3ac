"""Flow analyses (§5): peeling chains (Table 2), thefts and taint (Table 3),
category balances (Figure 2)."""

from .balances import BalanceAnalyzer, BalanceSeries
from .peeling import (
    Peel,
    PeelChain,
    PeelHop,
    PeelingTracker,
    ServicePeelSummary,
    summarize_peels_by_entity,
)
from .taint import TaintResult, TaintTracker
from .thefts import (
    ExchangeHit,
    MovementStep,
    TheftAnalysis,
    TheftTracker,
)

__all__ = [
    "BalanceAnalyzer",
    "BalanceSeries",
    "ExchangeHit",
    "MovementStep",
    "Peel",
    "PeelChain",
    "PeelHop",
    "PeelingTracker",
    "ServicePeelSummary",
    "TaintResult",
    "TaintTracker",
    "TheftAnalysis",
    "TheftTracker",
    "summarize_peels_by_entity",
]
