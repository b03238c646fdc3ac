"""The analyst pipeline: world → tags → clustering → naming in one call.

:class:`AnalystView` packages the paper's full methodology the way an
investigator would run it: collect tags (§3), cluster addresses (§4),
name clusters, and expose the flow-analysis tools (§5) pre-wired.  Every
example, bench, and integration test builds one of these.

Every partition the view reads — the tip clustering behind §4's
accounting and the tables' naming, and the per-height co-spend roots
behind peel naming — comes off one
:class:`~repro.core.incremental.IncrementalClusteringEngine`, the engine
the forensics service runs.

The view is strictly *analyst-side*: it reads only the chain and the
tags; ground truth is used by callers for scoring, never by the view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .analysis.balances import BalanceAnalyzer, BalanceSeries
from .analysis.peeling import PeelingTracker
from .analysis.thefts import TheftTracker
from .core.clustering import Clustering
from .core.fp_estimation import FalsePositiveEstimator
from .core.heuristic2 import Heuristic2Config, dice_addresses_from_tags
from .core.incremental import IncrementalClusteringEngine
from .simulation.economy import World
from .simulation.params import DICE_GAMES, FIGURE2_CATEGORIES
from .tagging.naming import ClusterNaming, TagColumns, cluster_names
from .tagging.sources import analyst_tags
from .tagging.tags import TagStore


@dataclass
class AnalystView:
    """Everything the analyst derives from one simulated world."""

    world: World
    tags: TagStore
    h2_config: Heuristic2Config

    @classmethod
    def build(
        cls, world: World, *, h2_config: Heuristic2Config | None = None
    ) -> "AnalystView":
        """Assemble the view from a world's analyst tags (attack + public
        crawl)."""
        return cls(
            world=world,
            tags=analyst_tags(world),
            h2_config=h2_config or Heuristic2Config.refined(),
        )

    # ------------------------------------------------------------------
    # derived artifacts (cached)
    # ------------------------------------------------------------------

    @cached_property
    def dice_addresses(self) -> frozenset[str]:
        """Dice-game addresses per the analyst's tags (for the §4.2
        dice exception)."""
        return dice_addresses_from_tags(self.tags, DICE_GAMES)

    @cached_property
    def incremental(self) -> IncrementalClusteringEngine:
        """Streaming engine over the world's chain: one pass, checkpoints
        at every height, ``cluster_as_of``/``cluster_count_series`` time
        travel."""
        return IncrementalClusteringEngine(
            self.world.index,
            h2_config=self.h2_config,
            dice_addresses=self.dice_addresses,
        )

    @cached_property
    def clustering(self) -> Clustering:
        """H1 + configured H2 clustering of the whole chain."""
        return self.incremental.cluster_as_of()

    @cached_property
    def clustering_h1(self) -> Clustering:
        """The Heuristic 1-only baseline."""
        return self.incremental.cluster_h1_as_of()

    @cached_property
    def naming(self) -> ClusterNaming:
        """Tags propagated over the clustering."""
        return ClusterNaming(self.clustering, self.tags)

    @cached_property
    def known_service_names(self) -> set[str]:
        """Entities the analyst has tags for."""
        return self.tags.entities()

    @cached_property
    def _tag_columns(self) -> TagColumns:
        """The analyst tags as columns (:func:`cluster_names` reads them)."""
        return TagColumns(self.tags)

    def name_of_peel(self, peel) -> str | None:
        """Entity name for a peel recipient, or ``None`` when unnamed.

        Named from the co-spend-only partition as of the height the
        recipient spent the peel (the first on-chain evidence of
        ownership: the sweep co-spends it with the recipient's other
        deposits) — falling back to the analysis tip for still-unspent
        outputs.  Heuristic 2 is left out: a peel output is, by the
        tracker's own classification, *not* the spender's change, and
        naming from the tip *full* partition mislabeled ~15% of named
        peels through settled cross-party change links.

        The winner is :class:`ClusterNaming`'s without building one: one
        ``h1_roots_at`` call resolves the peel and every tagged id, and
        :func:`cluster_names` names the roots the tags sit in (a tag on
        an address not seen by then is in none).
        """
        ident = peel.address_id
        if ident < 0:  # a peel recorded without its id
            ident = self.world.index.interner.id_of(peel.address)
        columns = self._tag_columns
        roots = self.incremental.h1_roots_at(
            np.concatenate((
                [-1 if ident is None else ident],
                columns.ids(self.world.index.interner.id_of),
            )),
            peel.spent_height,
        )
        return cluster_names(roots[1:], columns).get(int(roots[0]))

    # ------------------------------------------------------------------
    # analysis tools, pre-wired
    # ------------------------------------------------------------------

    def peeling_tracker(self, **kwargs) -> PeelingTracker:
        """A §5 peeling tracker using this view's H2 configuration."""
        kwargs.setdefault("h2_config", self.h2_config)
        kwargs.setdefault("dice_addresses", self.dice_addresses)
        return PeelingTracker(self.world.index, **kwargs)

    def theft_tracker(self, **kwargs) -> TheftTracker:
        """A Table 3 theft tracker wired to this view's naming (the
        id-keyed fast path; strings only at the reporting edge).  A
        caller-supplied ``name_of_address`` takes over completely — the
        id fast path is only injected alongside our own naming, since
        the tracker prefers ``name_of_id`` whenever it is set."""
        if "name_of_address" not in kwargs:
            kwargs.setdefault("name_of_address", self.naming.name_of_address)
            kwargs.setdefault("name_of_id", self.naming.name_of_address_id)
        kwargs.setdefault("h2_config", self.h2_config)
        kwargs.setdefault("dice_addresses", self.dice_addresses)
        return TheftTracker(self.world.index, **kwargs)

    def fp_estimator(self, *, with_ground_truth: bool = True) -> FalsePositiveEstimator:
        """The §4.2 temporal false-positive estimator."""
        return FalsePositiveEstimator(
            self.world.index,
            dice_addresses=self.dice_addresses,
            ground_truth=self.world.ground_truth if with_ground_truth else None,
        )

    def balance_series(self, *, samples: int = 60) -> BalanceSeries:
        """Figure 2's category balance series, from the analyst's view."""
        categories = {
            entity: self.world.ground_truth.category_of(entity)
            for entity in self.known_service_names
        }
        analyzer = BalanceAnalyzer(
            self.world.index,
            name_of_address=self.naming.name_of_address,
            category_of_entity=lambda entity: categories.get(entity),
            categories=FIGURE2_CATEGORIES,
        )
        return analyzer.series(samples=samples)

    def entities_in_category(self, category: str) -> set[str]:
        """Tagged entities belonging to one service category.

        Category membership comes from the world's entity registry (the
        analyst knows what kind of business each *named* service is —
        that is public knowledge, not chain data).
        """
        return {
            entity
            for entity in self.known_service_names
            if self.world.ground_truth.category_of(entity) == category
        }
