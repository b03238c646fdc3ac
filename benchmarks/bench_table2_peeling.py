"""Table 2: tracking bitcoins from the 1DkyBEKt hoard.

Paper: the final 158,336 BTC deposit fed three peeling chains; following
100 hops of each, 54 of 300 peels went to exchanges (Mt Gox foremost:
11/14/5 peels across the chains), plus wallets (Instawallet), gambling,
and vendors.  Asserted shape: three 100-hop chains, exchanges dominate
the named peels, Mt Gox is the single biggest recipient, and no peel is
named incorrectly (checked against ground truth).
"""

import tracemalloc
from collections import Counter

from repro import experiments
from repro.pipeline import AnalystView


def test_table2_hoard_tracking(benchmark, bench_silkroad_world):
    result = benchmark.pedantic(
        experiments.run_table2,
        args=(bench_silkroad_world,),
        rounds=1,
        iterations=1,
    )
    print("\n" + result.report)
    assert len(result.chain_summaries) == 3
    assert result.total_peels >= 250  # paper: 300 (3 × 100 hops)
    assert result.named_peels >= 30
    # Exchanges are the chokepoint: most named peels go to them.
    assert result.exchange_peels >= result.named_peels * 0.4
    # Mt Gox is the single largest known recipient, as in Table 2, and
    # some peels return to Silk Road itself (paper: 9 peels, 130 BTC).
    totals = Counter()
    for summary in result.chain_summaries:
        for name, entry in summary.items():
            totals[name] += entry.peel_count
    assert totals.most_common(1)[0][0] == "Mt Gox"
    assert "Silk Road" in totals


def test_table2_no_mislabeled_peels(bench_silkroad_world, bench_report):
    """Every named peel agrees with ground truth ownership.

    A seed-era xfail until the peel namer moved off the tip full
    partition: naming recipients through settled change links mislabeled
    ~15% of named peels (a change-heuristic false positive bridges a
    recipient's wallet into a service cluster, retroactively renaming
    past peels).  ``AnalystView.name_of_peel`` — the co-spend-only
    partition as of each peel's spend height — is what ``run_table2``
    ships, and it must hold the paper's implied ≤5% bound strictly.

    Naming a peel at its height reads the co-spend roots of the peel and
    the tagged ids off the engine's forest, so the ``tracemalloc`` peak
    across the naming calls (engine built first; numpy buffers count)
    is pinned at 16 MiB.  A per-height tag propagation over a
    materialized partition peaked near 290 MiB here.
    """
    view = AnalystView.build(bench_silkroad_world)
    gt = bench_silkroad_world.ground_truth
    hoard = bench_silkroad_world.extras["hoard"]
    tracker = view.peeling_tracker()
    peels = [
        peel
        for head in hoard.state.chain_start_addresses
        for peel in tracker.follow_address(head, max_hops=100).peels
    ]
    _ = view.incremental  # the engine build is not naming
    tracemalloc.start()
    try:
        names = [view.name_of_peel(peel) for peel in peels]
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    peak_mib = peak / 2**20
    named = wrong = 0
    for peel, name in zip(peels, names):
        if name is None:
            continue
        named += 1
        if gt.owner_of(peel.address) != name:
            wrong += 1
    rate = wrong / named if named else 0.0
    bench_report(
        "table2_peel_mislabels",
        {
            "named_peels": named,
            "mislabeled_peels": wrong,
            "mislabel_rate": rate,
            "bound": 0.05,
            "naming_peak_mib": peak_mib,
            "naming_peak_bound_mib": 16,
        },
    )
    print(
        f"\npeel naming: {wrong}/{named} named peels mislabeled "
        f"({rate:.1%}; bound 5%); naming peak {peak_mib:.1f} MiB "
        f"(bound 16)"
    )
    assert named > 30
    assert wrong <= named * 0.05
    assert peak_mib <= 16


def test_peel_tracker_speed(benchmark, bench_silkroad_world):
    """Raw chain-following speed (100 hops, H2 at each hop)."""
    view = AnalystView.build(bench_silkroad_world)
    _ = view.clustering  # warm the cached clustering outside the timer
    hoard = bench_silkroad_world.extras["hoard"]
    tracker = view.peeling_tracker()
    head = hoard.state.chain_start_addresses[0]
    chain = benchmark(tracker.follow_address, head, max_hops=100)
    assert chain.hop_count == 100
