"""repro — reproduction of "A Fistful of Bitcoins" (Meiklejohn et al., IMC 2013).

A blockchain-forensics library: a Bitcoin chain substrate and synthetic
economy, the paper's address-clustering heuristics (multi-input and
one-time change with the §4.2 refinement ladder), service tagging, and
the flow analyses (peeling chains, theft tracking, category balances).

Quickstart::

    from repro import AnalystView
    from repro.simulation import scenarios

    world = scenarios.default_economy(seed=7)
    view = AnalystView.build(world)
    print(view.clustering.cluster_count)
"""

__version__ = "1.0.0"

from .chain import COIN, ChainIndex, format_btc
from .core import Heuristic2Config
from .pipeline import AnalystView
from .tagging import ClusterNaming, TagStore

__all__ = [
    "AnalystView",
    "COIN",
    "ChainIndex",
    "ClusterNaming",
    "Heuristic2Config",
    "TagStore",
    "format_btc",
    "__version__",
]
