"""Heuristic 2: the four base conditions and every refinement rung."""

from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.chain.index import ChainIndex
from repro.chain.model import COIN, TxOut
from repro.core.clustering import ClusteringEngine
from repro.core.heuristic2 import (
    Heuristic2,
    Heuristic2Config,
    SECONDS_PER_DAY,
    find_candidate,
)

from repro.simulation import large_scale_blocks, scenarios

from tests.helpers import (
    addr,
    build_chain,
    coinbase,
    p2pkh_script_for_address,
    reference_find_candidate,
    reference_some_output_was_self_change,
    same_cluster,
    spend,
)

FEE = 0


def _payment_chain(extra_blocks=()):
    """A canonical payment with identifiable change.

    The merchant's address is warmed up twice (so it is well-used, not a
    once-seen possible change address), then the payer spends:
    outputs = [merchant (seen), change (fresh)].
    """
    cb = coinbase(addr("payer"))
    warm = coinbase(addr("merchant-warm"))
    warm2 = coinbase(addr("merchant-warm2"))
    warmup = spend([(warm, 0)], [(addr("merchant"), 50 * COIN)])
    warmup2 = spend([(warm2, 0)], [(addr("merchant"), 50 * COIN)])
    payment = spend(
        [(cb, 0)],
        [(addr("merchant"), 30 * COIN), (addr("change"), 20 * COIN)],
    )
    blocks = [[cb, warm, warm2], [warmup], [warmup2], [payment], *extra_blocks]
    return build_chain(blocks), payment


class TestCandidateTwin:
    """The id/row-space ``find_candidate`` decides every transaction
    exactly as the string/position reference does — on a live-built
    index and on a lazily restored one."""

    @pytest.mark.parametrize("restored", [False, True], ids=["live", "restored"])
    @pytest.mark.parametrize(
        "chain",
        [
            lambda: scenarios.micro_economy(seed=7, n_blocks=40, n_users=6).blocks,
            lambda: large_scale_blocks(
                60, seed=5, outputs_per_tx=2, reuse_probability=0.8
            ),
        ],
        ids=["micro", "scale"],
    )
    def test_every_transaction_decided_identically(self, chain, restored):
        index = ChainIndex()
        for block in chain():
            index.add_block(block)
        if restored:
            index = ChainIndex.restore_state(index.export_state())
        reasons = set()
        for tx, location in index.iter_transactions():
            decided = find_candidate(index, tx, location.height)
            assert decided == reference_find_candidate(index, tx, location.height)
            reasons.add(decided[1])
        assert len(reasons) >= 3  # the chains exercise more than one branch


class TestBaseConditions:
    def test_identifies_fresh_change(self):
        index, payment = _payment_chain()
        vout, reason = find_candidate(index, payment, 2)
        assert reason == "ok"
        assert payment.outputs[vout].address == addr("change")

    def test_coinbase_excluded(self):
        index, _payment = _payment_chain()
        cb = index.block_at(0).coinbase
        _vout, reason = find_candidate(index, cb, 0)
        assert reason == "coinbase"

    def test_single_output_excluded(self):
        cb = coinbase(addr("s"))
        one_out = spend([(cb, 0)], [(addr("only"), 50 * COIN)])
        index = build_chain([[cb], [one_out]])
        _vout, reason = find_candidate(index, one_out, 1)
        assert reason == "too_few_outputs"

    def test_self_change_excluded(self):
        cb = coinbase(addr("selfer"))
        tx = spend(
            [(cb, 0)],
            [(addr("someone"), 30 * COIN), (addr("selfer"), 20 * COIN)],
        )
        index = build_chain([[cb], [tx]])
        _vout, reason = find_candidate(index, tx, 1)
        assert reason == "self_change"

    def test_two_fresh_outputs_ambiguous(self):
        cb = coinbase(addr("amb"))
        tx = spend(
            [(cb, 0)],
            [(addr("fresh1"), 30 * COIN), (addr("fresh2"), 20 * COIN)],
        )
        index = build_chain([[cb], [tx]])
        _vout, reason = find_candidate(index, tx, 1)
        assert reason == "ambiguous"

    def test_no_fresh_output(self):
        # Both outputs previously seen.
        cb = coinbase(addr("nf"))
        warm1 = coinbase(addr("w1"))
        warm2 = coinbase(addr("w2"))
        seed1 = spend([(warm1, 0)], [(addr("seen1"), 50 * COIN)])
        seed2 = spend([(warm2, 0)], [(addr("seen2"), 50 * COIN)])
        tx = spend(
            [(cb, 0)],
            [(addr("seen1"), 30 * COIN), (addr("seen2"), 20 * COIN)],
        )
        index = build_chain([[cb, warm1, warm2], [seed1, seed2], [tx]])
        _vout, reason = find_candidate(index, tx, 2)
        assert reason == "no_fresh_output"

    def test_same_block_appearance_counts_as_seen(self):
        """An address first paid earlier in the same block is not fresh."""
        cb1 = coinbase(addr("sb1"))
        cb2 = coinbase(addr("sb2"))
        first = spend([(cb1, 0)], [(addr("dup"), 50 * COIN)])
        second = spend(
            [(cb2, 0)],
            [(addr("dup"), 30 * COIN), (addr("fresh-sb"), 20 * COIN)],
        )
        index = build_chain([[cb1, cb2], [first, second]])
        vout, reason = find_candidate(index, second, 1)
        assert reason == "ok"
        assert second.outputs[vout].address == addr("fresh-sb")


class TestRefinements:
    def test_later_input_voids_with_wait(self):
        """Change address reused later -> not labeled under a wait."""
        cb = coinbase(addr("payer2"))
        warm = coinbase(addr("mw"))
        warmb = coinbase(addr("mwb"))
        warmup = spend([(warm, 0)], [(addr("m2"), 50 * COIN)])
        warmup2 = spend([(warmb, 0)], [(addr("m2"), 50 * COIN)])
        payment = spend(
            [(cb, 0)],
            [(addr("m2"), 30 * COIN), (addr("c2"), 20 * COIN)],
        )
        refill = coinbase(addr("rando"))
        # c2 receives again one block later (within any wait window).
        reuse = spend([(refill, 0)], [(addr("c2"), 50 * COIN)])
        index = build_chain(
            [[cb, warm, warmb, refill], [warmup], [warmup2], [payment], [reuse]]
        )
        h2 = Heuristic2(index, Heuristic2Config.refined())
        label, reason = h2.identify_change(payment)
        assert label is None
        assert reason == "wait_voided"
        # Without the wait (naive), the label sticks.
        naive = Heuristic2(index, Heuristic2Config.naive())
        label, reason = naive.identify_change(payment)
        assert label is not None

    def test_dice_exception_excuses_dice_input(self):
        cb = coinbase(addr("payer3"))
        warm = coinbase(addr("mw3"))
        warmb = coinbase(addr("mw3b"))
        warmup = spend([(warm, 0)], [(addr("m3"), 50 * COIN)])
        warmup2 = spend([(warmb, 0)], [(addr("m3"), 50 * COIN)])
        payment = spend(
            [(cb, 0)],
            [(addr("m3"), 30 * COIN), (addr("c3"), 20 * COIN)],
        )
        # The dice game pays c3 back (inputs solely from the dice addr).
        dice_fund = coinbase(addr("dice"))
        dice_payout = spend([(dice_fund, 0)], [(addr("c3"), 2 * COIN)])
        index = build_chain(
            [[cb, warm, warmb, dice_fund], [warmup], [warmup2], [payment],
             [dice_payout]]
        )
        dice = frozenset({addr("dice")})
        with_exception = Heuristic2(
            index, Heuristic2Config.refined(), dice_addresses=dice
        )
        label, reason = with_exception.identify_change(payment)
        assert label is not None and label.address == addr("c3")
        without = Heuristic2(
            index,
            Heuristic2Config(dice_exception=False),
        )
        label, reason = without.identify_change(payment)
        assert label is None

    def test_reused_change_rejection(self):
        """If another output received exactly one prior input recently,
        the whole transaction is skipped."""
        cb = coinbase(addr("payer4"))
        warm = coinbase(addr("mw4"))
        # m4 is paid ONCE before (prior == 1 at payment time).
        warmup = spend([(warm, 0)], [(addr("m4"), 50 * COIN)])
        payment = spend(
            [(cb, 0)],
            [(addr("m4"), 30 * COIN), (addr("c4"), 20 * COIN)],
        )
        index = build_chain([[cb, warm], [warmup], [payment]])
        strict = Heuristic2(index, Heuristic2Config.refined())
        label, reason = strict.identify_change(payment)
        assert label is None
        assert reason == "reused_change"
        relaxed = Heuristic2(
            index, Heuristic2Config(reject_reused_change=False, wait_seconds=None)
        )
        label, _reason = relaxed.identify_change(payment)
        assert label is not None

    def test_reused_change_rejection_respects_window(self):
        """The prior single receive far in the past does not veto."""
        cb = coinbase(addr("payer5"))
        warm = coinbase(addr("mw5"))
        warmup = spend([(warm, 0)], [(addr("m5"), 50 * COIN)])
        payment = spend(
            [(cb, 0)],
            [(addr("m5"), 30 * COIN), (addr("c5"), 20 * COIN)],
        )
        # Stretch time: payment happens months after the warmup, so the
        # once-seen m5 no longer vetoes under the recency window.
        filler = [[] for _ in range(40)]
        index = build_chain(
            [[cb, warm], [warmup], *filler, [payment]],
            block_interval=SECONDS_PER_DAY,
        )
        h2 = Heuristic2(index, Heuristic2Config.refined())
        label, reason = h2.identify_change(payment)
        assert label is not None
        assert reason == "ok"

    def test_prior_self_change_rejection(self):
        cb1 = coinbase(addr("sc-user"))
        # sc-user self-changes into 'hot'.
        first = spend([(cb1, 0)], [(addr("hot"), 50 * COIN)])
        selfchange = spend(
            [(first, 0)],
            [(addr("other-guy"), 10 * COIN), (addr("hot"), 40 * COIN)],
        )
        # later, someone pays 'hot' + a fresh address.
        cb2 = coinbase(addr("other-payer"))
        payment = spend(
            [(cb2, 0)],
            [(addr("hot"), 30 * COIN), (addr("c6"), 20 * COIN)],
        )
        index = build_chain([[cb1, cb2], [first], [selfchange], [payment]])
        strict = Heuristic2(index, Heuristic2Config(reject_reused_change=False))
        label, reason = strict.identify_change(payment)
        assert label is None
        assert reason == "prior_self_change"
        relaxed = Heuristic2(
            index,
            Heuristic2Config(
                reject_reused_change=False,
                reject_prior_self_change=False,
                wait_seconds=None,
            ),
        )
        label, _reason = relaxed.identify_change(payment)
        assert label is not None


class _SelfChangeHistory:
    """The two index reads the prior-self-change rejection makes."""

    def __init__(self, histories, timestamps):
        self.histories = histories
        self.timestamps = timestamps

    def self_change_heights(self, address):
        return self.histories.get(address, [])

    def timestamp_at(self, height):
        return self.timestamps[height]


class TestPriorSelfChangeBisect:
    """The rejection bisects each output's history for the newest use
    below the height; on any chain with non-decreasing timestamps it
    answers as the oldest-first scan of every use."""

    @given(
        steps=st.lists(
            st.integers(0, 2 * SECONDS_PER_DAY), min_size=40, max_size=40
        ),
        uses=st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(0, 39)),
            min_size=1, max_size=30,
        ),
        outputs=st.lists(st.sampled_from("abcd"), min_size=1, max_size=3),
        height=st.integers(0, 39),
        window=st.one_of(st.none(), st.integers(0, 8 * SECONDS_PER_DAY)),
        dice=st.sets(st.sampled_from("abc"), max_size=1),
    )
    def test_equals_the_linear_scan(
        self, steps, uses, outputs, height, window, dice
    ):
        timestamps = [sum(steps[: h + 1]) for h in range(len(steps))]
        histories = {}
        for name, used_at in sorted(uses, key=lambda use: use[1]):
            histories.setdefault(addr(name), []).append(used_at)
        h2 = Heuristic2(
            _SelfChangeHistory(histories, timestamps),
            Heuristic2Config(rejection_window_seconds=window),
            dice_addresses=frozenset(map(addr, dice)),
        )
        tx = SimpleNamespace(
            outputs=[
                TxOut(value=1, script_pubkey=p2pkh_script_for_address(addr(n)))
                for n in outputs
            ]
        )
        assert h2._some_output_was_self_change(
            tx, height
        ) == reference_some_output_was_self_change(h2, tx, height)


class TestRun:
    def test_run_counts_reasons(self):
        index, _payment = _payment_chain()
        engine = ClusteringEngine(index, h2_config=Heuristic2Config.refined())
        result = engine.cluster()
        assert len(result.h2_result.labels) == 1
        assert result.h2_result.labels[0].address == addr("change")

    def test_change_links_feed_clustering(self):
        index, payment = _payment_chain()
        engine = ClusteringEngine(index, h2_config=Heuristic2Config.refined())
        clustering = engine.cluster()
        assert [label.address for label in clustering.h2_result.labels] == [
            addr("change")
        ]
        assert same_cluster(clustering.uf, addr("change"), addr("payer"))

    def test_as_of_height_hides_future(self):
        index, payment = _payment_chain()
        engine = ClusteringEngine(index, h2_config=Heuristic2Config.refined())
        result = engine.cluster(as_of_height=1)
        assert len(result.h2_result.labels) == 0


class TestConfig:
    def test_naive_has_no_refinements(self):
        config = Heuristic2Config.naive()
        assert not config.dice_exception
        assert config.wait_seconds is None
        assert not config.reject_reused_change
