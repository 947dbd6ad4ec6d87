"""Self time per layer in one traced run, per traced round and for the census.

    python3 bench/breakdown.py bench/_traces/<workload>-seed<n>.json

Each round's layer self times add up to its traced wall time; the traced
minus the untraced round time is the tracing overhead.
"""

import json
import statistics
import sys

from spans import Tracer


def main(path: str) -> None:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    tracer = Tracer()
    tracer.spans = [[s["name"], s["start_s"], s["end_s"], s["parent"]] for s in doc["spans"]]
    untraced, traced = doc["rounds_untraced_s"], doc["rounds_traced_s"]
    print(f"{doc['workload']} seed {doc['seed']}: {len(traced)} traced round(s)")
    print(f"  round wall  untraced {statistics.mean(untraced):9.4f} s   traced {statistics.mean(traced):9.4f} s"
          f"   overhead {statistics.mean(traced) - statistics.mean(untraced):+8.4f} s")
    rounds = tracer.self_time("bench.round")
    census = tracer.self_time("bench.census")
    print(f"  {'layer':<12} {'per round (s)':>14} {'share':>7} {'census (s)':>11}")
    total = sum(rounds.values())
    for layer in sorted(set(rounds) | set(census), key=lambda k: -rounds.get(k, 0.0)):
        per_round = rounds.get(layer, 0.0) / len(traced)
        print(f"  {layer:<12} {per_round:14.4f} {rounds.get(layer, 0.0) / total:7.1%} {census.get(layer, 0.0):11.4f}")
    print(f"  {'sum':<12} {total / len(traced):14.4f}")


if __name__ == "__main__":
    main(sys.argv[1])
