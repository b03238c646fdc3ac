"""Follow the Silk Road hoard's dissolution (the paper's §5 headline).

Recreates the 1DkyBEKt story: a famous address accumulates a huge
balance through aggregate deposits, dissolves it, and the remainder
feeds three peeling chains.  We follow each chain hop by hop with
Heuristic 2, name the peel recipients, and write the chains to JSON.

Run:  python examples/track_silkroad.py
"""

import json
from pathlib import Path

from repro.chain.model import format_btc
from repro.analysis.peeling import PeelChain, summarize_peels_by_entity
from repro.pipeline import AnalystView
from repro.simulation import scenarios

OUT_DIR = Path("out/silkroad")


def write_chain_json(chain: PeelChain, path: Path, name_of_address) -> None:
    """Write one followed peel chain as a JSON document."""
    doc = {
        "start_address": chain.start_address,
        "hop_count": chain.hop_count,
        "terminated": chain.terminated,
        "total_peeled_btc": format_btc(chain.total_peeled()),
        "hops": [
            {
                "hop": hop.hop,
                "txid": hop.txid[::-1].hex(),
                "height": hop.height,
                "kind": hop.kind,
                "change_address": hop.change_address,
                "remaining_btc": format_btc(hop.remaining_value),
                "peels": [
                    {
                        "address": peel.address,
                        "btc": format_btc(peel.value),
                        "entity": name_of_address(peel.address),
                    }
                    for peel in hop.peels
                ],
            }
            for hop in chain.hops
        ],
    }
    path.write_text(json.dumps(doc, indent=2))


def main() -> None:
    print("simulating the Silk Road world (this takes ~20s)...")
    world = scenarios.silkroad_world(seed=1, n_blocks=1200)
    hoard = world.extras["hoard"]
    index = world.index

    record = index.address(hoard.state.hoard_address)
    print(
        f"\nhoard address {hoard.state.hoard_address}\n"
        f"  received {format_btc(record.total_received)} BTC over "
        f"{len(record.receives)} deposits "
        f"(paper: 613,326 BTC — amounts scaled x0.01)\n"
        f"  final balance: {format_btc(record.balance)} BTC (fully dissolved)"
    )

    view = AnalystView.build(world)
    tracker = view.peeling_tracker()
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    grand_totals: dict[str, int] = {}
    for i, head in enumerate(hoard.state.chain_start_addresses, start=1):
        chain = tracker.follow_address(head, max_hops=100)
        summary = summarize_peels_by_entity(chain, view.naming.name_of_address)
        known = {
            name: entry
            for name, entry in summary.items()
            if not name.startswith("user") and name != "analyst"
        }
        print(
            f"\nchain {i}: {chain.hop_count} hops, "
            f"{len(chain.peels)} peels, terminated: {chain.terminated}"
        )
        for name, entry in sorted(known.items(), key=lambda kv: -kv[1].total_value):
            print(
                f"   {name:20s} {entry.peel_count:3d} peels  "
                f"{format_btc(entry.total_value):>14s} BTC"
            )
            grand_totals[name] = grand_totals.get(name, 0) + entry.peel_count
        path = OUT_DIR / f"chain{i}.json"
        write_chain_json(chain, path, view.naming.name_of_address)
        print(f"   wrote {path}")

    exchanges = view.entities_in_category("exchanges")
    exchange_peels = sum(n for name, n in grand_totals.items() if name in exchanges)
    print(
        f"\npeels to known exchanges: {exchange_peels} "
        f"(paper: 54 of 300) — each one a subpoena opportunity"
    )


if __name__ == "__main__":
    main()
