#!/usr/bin/env python3
"""Record the expected QoS the benchmark checks every run against.

    python3 perfbench/record.py [--workload NAME ...]

For each simulated workload and each seed of the pool, runs one round
and stores every operation's ``repro.search.runner.qos_summary``:
the exact-kernel workloads must reproduce it exactly; the hybrid
workload is compared, within ``tolerance``, against the *exact-kernel*
run of the same scenario and seed recorded here.  Re-record only when
a change is meant to alter simulated behaviour, and say so.

The hybrid workload is also run at every seed on record, and its
errors against the exact kernel are stored with the record.  If any
seed is outside ``tolerance``, nothing is written and the exit code is
1: a run at that seed would fail on a correct program.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: simulation seeds on record; ``run.py`` uses ``--seed`` modulo this
POOL_SIZE = 20

#: seed 0 is the default; this one is held out for rechecking claims
HELD_OUT_SEED = 19

#: hybrid-vs-exact tolerance, the equivalence margins of the tier-1
#: hybrid test: successful frames within 3 %, violation rate within
#: 0.5 /s, which at 30 fps is 0.5 / 30 of the frames
TOLERANCE = {"goodput_rel": 0.03, "miss_frac_abs": 0.5 / 30.0}


def record(workload: str, size: str, seeds) -> dict:
    from workloads import ROUNDS, SIZES, staircase_round

    frames = SIZES[workload][size]
    table = {}
    for seed in seeds:
        if workload == "staircase-hybrid":
            table[str(seed)] = staircase_round(seed, frames, kernel="exact")
        else:
            table[str(seed)] = ROUNDS[workload](seed, frames)
        print(f"recorded {workload} {size} seed {seed}", file=sys.stderr)
    pool = {"frames": frames, "seeds": table}
    if workload == "staircase-hybrid":
        pool["hybrid_errors"] = hybrid_errors(pool)
    return pool


def hybrid_errors(pool: dict) -> dict:
    """Per seed, the hybrid run's errors against the recorded exact run,
    in the terms of ``TOLERANCE``, plus their maximum over the seeds."""
    from workloads import goodput_err, miss_frac, staircase_round

    errors = {}
    for seed, exact in pool["seeds"].items():
        got = staircase_round(int(seed), pool["frames"])["FrameFeedback"]
        ref = exact["FrameFeedback"]
        errors[seed] = {
            "goodput_rel": goodput_err(got, ref),
            "miss_frac_abs": abs(miss_frac(got) - miss_frac(ref)),
        }
        print(f"hybrid seed {seed}: {errors[seed]}", file=sys.stderr)
    errors["max"] = {key: max(e[key] for e in errors.values()) for key in TOLERANCE}
    return errors


def main(argv=None) -> int:
    from workloads import ROUNDS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=sorted(ROUNDS))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    fresh = {}
    for workload in args.workload or sorted(ROUNDS):
        fresh[workload] = {
            "full": record(workload, "full", range(POOL_SIZE)),
            "smoke": record(workload, "smoke", [0]),
        }
    outside = [
        f"{workload} {size} seed {seed}: {err}"
        for workload, sizes in fresh.items()
        for size, pool in sizes.items()
        for seed, err in pool.get("hybrid_errors", {}).items()
        if seed != "max" and any(err[key] > TOLERANCE[key] for key in TOLERANCE)
    ]
    if outside:
        print("hybrid outside tolerance, nothing recorded:", *outside, sep="\n  ",
              file=sys.stderr)
        return 1
    # read late, so two recorders of different workloads can share the file
    doc = json.loads(EXPECTED.read_text()) if EXPECTED.exists() else {}
    doc.update(fresh)
    doc["default_seed"] = 0
    doc["held_out_seed"] = HELD_OUT_SEED
    doc["tolerance"] = TOLERANCE
    EXPECTED.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
