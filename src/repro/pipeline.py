"""The analyst pipeline: world → tags → clustering → naming in one call.

:class:`AnalystView` packages the paper's full methodology the way an
investigator would run it: collect tags (§3), cluster addresses (§4),
name clusters, and expose the flow-analysis tools (§5) pre-wired.  Every
example, bench, and integration test builds one of these.

The view is strictly *analyst-side*: it reads only the chain and the
tags; ground truth is used by callers for scoring, never by the view.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .analysis.balances import BalanceAnalyzer, BalanceSeries
from .analysis.peeling import PeelingTracker
from .analysis.thefts import TheftTracker
from .analysis.user_graph import build_user_graph
from .core.clustering import Clustering, ClusteringEngine
from .core.fp_estimation import FalsePositiveEstimator
from .core.heuristic2 import Heuristic2Config, dice_addresses_from_tags
from .core.incremental import IncrementalClusteringEngine
from .simulation.economy import World
from .simulation.params import DICE_GAMES, FIGURE2_CATEGORIES
from .tagging.naming import ClusterNaming
from .tagging.sources import PublicTagCrawl
from .tagging.tags import TagStore


@dataclass
class AnalystView:
    """Everything the analyst derives from one simulated world."""

    world: World
    tags: TagStore
    h2_config: Heuristic2Config

    @classmethod
    def build(
        cls,
        world: World,
        *,
        h2_config: Heuristic2Config | None = None,
        include_public_tags: bool = True,
        crawl_seed: int = 0,
    ) -> "AnalystView":
        """Assemble the view from a world's attack tags (+ public crawl)."""
        attack = world.extras.get("attack")
        tags = attack.tags if attack is not None else TagStore()
        if include_public_tags:
            tags = tags.merged_with(PublicTagCrawl(world, seed=crawl_seed).crawl())
        return cls(
            world=world,
            tags=tags,
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
    def engine(self) -> ClusteringEngine:
        return ClusteringEngine(
            self.world.index,
            h2_config=self.h2_config,
            dice_addresses=self.dice_addresses,
        )

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
        return self.engine.cluster()

    @cached_property
    def clustering_h1(self) -> Clustering:
        """The Heuristic 1-only baseline."""
        return self.engine.cluster_h1_only()

    @cached_property
    def naming(self) -> ClusterNaming:
        """Tags propagated over the clustering."""
        return ClusterNaming(self.clustering, self.tags)

    @cached_property
    def known_service_names(self) -> set[str]:
        """Entities the analyst has tags for."""
        return self.tags.entities()

    @cached_property
    def _peel_naming_by_height(self) -> dict:
        """Memoized co-spend-only namings, keyed by horizon height."""
        return {}

    def peel_naming_as_of(self, height: int | None = None) -> ClusterNaming:
        """Tags propagated over the co-spend-only partition as of
        ``height`` (``None`` means the chain tip).

        Recipient naming deliberately excludes Heuristic 2: a peel
        output is, by the tracker's own classification, *not* the
        spender's change, so a change label claiming it (or bridging its
        owner's wallet into the spender's cluster) is contradictory
        evidence.  Every known peel mislabel traced back to exactly such
        a settled cross-party change link; co-spend unions cannot cross
        owners.  The horizon replays from the incremental engine's
        per-height checkpoints, so asking at many heights is cheap.
        """
        key = self.world.index.height if height is None else height
        naming = self._peel_naming_by_height.get(key)
        if naming is None:
            naming = ClusterNaming(
                self.incremental.cluster_h1_as_of(key), self.tags
            )
            self._peel_naming_by_height[key] = naming
        return naming

    def name_of_peel(self, peel) -> str | None:
        """Entity name for a peel recipient, or ``None`` when unnamed.

        Named from the co-spend partition as of the height the recipient
        spent the peel (the first on-chain evidence of ownership: the
        sweep co-spends it with the recipient's other deposits) —
        falling back to the analysis tip for still-unspent outputs.
        Naming from the tip *full* partition instead mislabeled ~15% of
        named peels: later change-heuristic false positives retroactively
        renamed past peels (see :meth:`peel_naming_as_of`).
        """
        naming = self.peel_naming_as_of(peel.spent_height)
        if peel.address_id >= 0:
            return naming.name_of_address_id(peel.address_id)
        return naming.name_of_address(peel.address)

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

    def user_graph(self):
        """The condensed user/service graph."""
        return build_user_graph(
            self.world.index,
            self.clustering,
            name_of_cluster=self.naming.name_of_cluster,
        )

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
