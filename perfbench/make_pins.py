"""Regenerate ``pins.json``: the outcome digests of the first rounds of
every workload for the pinned seeds.

    python3 perfbench/make_pins.py [workload ...]

With workload names, only those workloads' pins are regenerated.
Pins record what the current code computes; regenerate them only when a
change is meant to alter outcomes, and say so where the change is
described.  A round that fails its own checks is never pinned.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

PINNED_SEEDS = range(12)
PINNED_ROUNDS = 6


def main(names: list[str]) -> None:
    path = HERE / "pins.json"
    pins: dict = json.loads(path.read_text()) if names else {}
    for name in names or workloads.WORKLOADS:
        cls = workloads.WORKLOADS[name]
        pins[name] = {}
        for seed in PINNED_SEEDS:
            wl = cls(seed)
            digests = []
            for r in range(PINNED_ROUNDS):
                res = wl.run_round(r)
                if res.failures:
                    sys.exit(f"{name} seed {seed} round {r} fails: {res.failures}")
                digests.append(res.digests)
            pins[name][str(seed)] = digests
            print(name, seed, flush=True)
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
