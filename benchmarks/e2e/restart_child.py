"""One restart, in the fresh process a restart is.

Usage: ``restart_child.py SRC BLOCKS_DIR SNAPSHOTS_DIR MODE [QUERIES ANSWERS]``

* ``timed``  — ``warm_start`` → tail replay → first ranked answer, on the
  clock from just before ``warm_start`` until the answer is in hand, with
  a ``hostnoise`` burst on either side (``spin_s``, ``spin_floor_s``).
* ``traced`` — the same steps ``warm_start`` takes, taken one by one so
  the snapshot load and the tail replay are clocked apart.
* ``answers`` — untimed: restore, replay, then answer the pickled query
  list at ``QUERIES`` and pickle the answers to ``ANSWERS`` (the parent
  compares them with a service that never restarted).

Prints one JSON object on its last stdout line.
"""

import json
import pickle
import resource
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    src, blocks_dir, snapshots_dir, mode = argv[:4]
    sys.path.insert(0, src)
    from repro.chain.blockfile import BlockFileReader
    from repro.service import Query
    from repro.storage import StateStore

    from hostnoise import HostNoise, Segments

    noise = HostNoise() if mode == "timed" else None
    whole = Segments(noise)
    start = whole.start()
    if mode == "traced":
        service = StateStore(snapshots_dir).restore()
        loaded = perf_counter()
        tail = 0
        reader = BlockFileReader(blocks_dir)
        for block in reader.iter_blocks(start_height=service.height + 1):
            service.index.add_block(block)
            tail += 1
    else:
        warm = StateStore(snapshots_dir).warm_start(blocks_dir)
        loaded = None
        service, tail = warm.service, warm.tail_blocks
    replayed = perf_counter()
    service.answer(Query("top_clusters", (10, "size")))
    whole.lap(start)
    whole.close()
    done = start + whole.seconds[0]
    out = {
        "restore_s": whole.seconds[0],
        "first_query_s": done - replayed,
        "height": service.height,
        "tail_blocks": tail,
        "rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if noise is not None:
        out["spin_s"] = whole.load[0]
        out["spin_floor_s"] = noise.floor
    if loaded is not None:
        out["load_s"] = loaded - start
        out["tail_replay_s"] = replayed - loaded
    if mode == "answers":
        with open(argv[4], "rb") as fh:
            queries = pickle.load(fh)  # written by the parent harness
        answers = []
        for query in queries:
            try:
                answers.append(service.answer(query))
            except Exception as exc:  # the parent counts it as a mismatch
                answers.append(("raised", repr(exc)))
        with open(argv[5], "wb") as fh:
            pickle.dump(answers, fh)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
