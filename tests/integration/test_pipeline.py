"""End-to-end integration: simulate → serialize → reparse → cluster →
name → analyze, with ground-truth scoring at each stage."""

from functools import cached_property

import pytest

from repro import experiments
from repro.chain.blockfile import BlockFileWriter, read_blocks
from repro.chain.index import ChainIndex
from repro.chain.validation import validate_chain
from repro.core.clustering import ClusteringEngine
from repro.core.heuristic2 import Heuristic2Config
from repro.pipeline import AnalystView


def _batch_engine(view):
    """The batch reference engine, configured like ``view``."""
    return ClusteringEngine(
        view.world.index,
        h2_config=view.h2_config,
        dice_addresses=view.dice_addresses,
    )


def _members(clustering):
    """Canonical form of a partition: its member sets, not its root ids."""
    return {frozenset(members) for members in clustering.clusters().values()}


class TestSerializeReparse:
    def test_world_round_trips_through_block_files(self, micro_world, tmp_path):
        """The whole simulated chain survives a disk round-trip."""
        BlockFileWriter(tmp_path).write_chain(micro_world.blocks)
        reparsed = ChainIndex()
        reparsed.add_chain(read_blocks(tmp_path))
        assert reparsed.tx_count == micro_world.index.tx_count
        assert reparsed.address_count == micro_world.index.address_count
        assert reparsed.utxo_value() == micro_world.index.utxo_value()

    def test_reparsed_chain_validates(self, micro_world, tmp_path):
        BlockFileWriter(tmp_path).write_chain(micro_world.blocks)
        report = validate_chain(read_blocks(tmp_path))
        assert report.ok, report.problems[:3]

    def test_clustering_identical_after_reparse(self, micro_world, tmp_path):
        BlockFileWriter(tmp_path).write_chain(micro_world.blocks)
        reparsed = ChainIndex()
        reparsed.add_chain(read_blocks(tmp_path))
        original = ClusteringEngine(micro_world.index).cluster()
        again = ClusteringEngine(reparsed).cluster()
        assert original.cluster_count == again.cluster_count


class TestAnalystPipeline:
    def test_clustering_never_merges_distinct_services_badly(
        self, default_view
    ):
        """Size-weighted purity stays high under the refined config."""
        from repro.metrics.evaluation import cluster_purity

        purity = cluster_purity(
            default_view.clustering, default_view.world.ground_truth
        )
        assert purity.weighted_purity > 0.9

    def test_h2_amplifies_naming_coverage(self, default_world):
        h1_view = AnalystView.build(default_world)
        h1_report_size = 0
        # Coverage with H1 only:
        from repro.tagging.naming import ClusterNaming

        h1_naming = ClusterNaming(h1_view.clustering_h1, h1_view.tags)
        h2_naming = h1_view.naming
        assert (
            h2_naming.report().named_address_count
            >= h1_naming.report().named_address_count
        )

    def test_amplification_exceeds_hand_tagging(self, default_view):
        report = default_view.naming.report()
        assert report.amplification > 1.0

    def test_major_services_nameable(self, default_view):
        naming = default_view.naming
        for service in ("Mt Gox", "Instawallet", "Satoshi Dice"):
            assert naming.clusters_named(service), service

    def test_naive_config_weaker_than_refined(self, default_world):
        """The naive config mislabels more changes (ground truth check)."""
        gt = default_world.ground_truth
        index = default_world.index

        def true_fp_rate(view):
            labels = view.clustering.h2_result.labels
            wrong = 0
            for label in labels:
                inputs = index.input_addresses(index.tx(label.txid))
                if inputs and gt.owner_of(label.address) != gt.owner_of(
                    inputs[0]
                ):
                    wrong += 1
            return wrong / max(1, len(labels))

        naive = AnalystView.build(
            default_world, h2_config=Heuristic2Config.naive()
        )
        refined = AnalystView.build(default_world)
        assert true_fp_rate(refined) < true_fp_rate(naive)

    def test_dice_addresses_resolved_from_tags(self, default_view):
        assert default_view.dice_addresses
        gt = default_view.world.ground_truth
        for address in default_view.dice_addresses:
            assert gt.category_of_address(address) == "gambling"


class TestExperiments:
    """The experiment entry points run end to end on fixture worlds."""

    def test_table1(self, default_world):
        from repro.experiments import run_table1

        result = run_table1(default_world)
        assert result.transactions_made > 50
        assert "Table 1" in result.report

    def test_section4(self, default_world):
        from repro.experiments import run_section4

        result = run_section4(default_world)
        assert result.h2_clusters <= result.h1_user_upper_bound
        assert result.h2_clusters_after_tag_collapse <= result.h2_clusters
        assert result.amplification > 1.0

    def test_fp_ladder(self, default_world):
        from repro.experiments import run_fp_ladder

        result = run_fp_ladder(default_world)
        rates = [e.estimated_rate for e in result.estimates]
        assert rates[0] >= rates[1] >= rates[2] >= rates[3]
        assert (
            result.refined_supercluster_entities
            <= result.naive_supercluster_entities
        )

    def test_table2(self, silkroad_world):
        from repro.experiments import run_table2

        result = run_table2(silkroad_world)
        assert result.total_peels > 100
        assert result.exchange_peels > 0
        assert "Mt Gox" in result.report

    def test_figure2(self, silkroad_world):
        from repro.experiments import run_figure2

        result = run_figure2(silkroad_world)
        assert result.peaks["exchanges"] > 0
        assert "Figure 2" in result.report


class TestOneEngine:
    """The view's partitions come from the incremental engine; the paper
    reports read them and must equal the batch reference's."""

    def test_tip_partitions_match_batch(self, default_view):
        batch = _batch_engine(default_view)
        full = batch.cluster()
        assert _members(default_view.clustering) == _members(full)
        assert _members(default_view.clustering_h1) == _members(
            batch.cluster_h1_only()
        )
        label_keys = lambda c: {  # noqa: E731 - tiny local projection
            (label.txid, label.address) for label in c.h2_result.labels
        }
        assert label_keys(default_view.clustering) == label_keys(full)

    @pytest.mark.parametrize("world_fixture", ["micro_world", "default_world"])
    @pytest.mark.parametrize(
        "run", ["run_section4", "run_fp_ladder", "run_ablation"]
    )
    def test_reports_match_batch_backed_view(
        self, world_fixture, run, request, monkeypatch
    ):
        world = request.getfixturevalue(world_fixture)
        report = getattr(experiments, run)(world).report
        for name, read in (
            ("clustering", lambda view: _batch_engine(view).cluster()),
            ("clustering_h1", lambda view: _batch_engine(view).cluster_h1_only()),
        ):
            prop = cached_property(read)
            prop.__set_name__(AnalystView, name)
            monkeypatch.setattr(AnalystView, name, prop)
        assert getattr(experiments, run)(world).report == report
