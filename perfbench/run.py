#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its metrics.

    python3 perfbench/run.py --workload fig3 --seed 0 --seconds 25 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics of ``BENCHMARK.json`` untraced; ``--trace 1`` makes
a separate traced run of the same workload and seed and reports the
per-layer metrics.  A human-readable summary comes first; the last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 1 when
any operation's output was wrong, 2 when the source tree is missing.

Simulated workloads draw their simulation seed from the recorded pool
in ``expected.json`` (``seed`` modulo the pool size), so every run's
QoS can be checked against a record.  ``record.py`` rewrites the pool.
Host-timed figures are calibrated to reference seconds (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected.json"

#: fresh-interpreter imports measured per run; set-up is their median
IMPORT_SAMPLES = 5

#: an import is mostly file and page-fault work and follows the
#: calibration loop less than simulation does: over 40 paired samples
#: on the reference host, its median moved < 3 % between quiet and busy
#: periods with 0.3, against 19 % raw and 20 % with CAL_EXPONENT
IMPORT_CAL_EXPONENT = 0.3

#: simulated rounds a run repeats at least, so each median has company
MIN_REPEATS = 3


def import_seconds(samples: int = IMPORT_SAMPLES):
    """Median seconds to import, in a fresh interpreter, every ``repro``
    module this process has loaded, lazy imports included: in reference
    seconds, and raw.

    The host's speed can change from one second to the next, so each
    import is calibrated by one calibration sample taken right after it
    in the same interpreter, not by the run's samples.
    """
    from workloads import to_reference

    modules = sorted(m for m in sys.modules if m == "repro" or m.startswith("repro."))
    code = (
        "import importlib, sys, time\n"
        "t0 = time.perf_counter()\n"
        f"for m in {list(modules)!r}: importlib.import_module(m)\n"
        "t = time.perf_counter() - t0\n"
        f"sys.path.insert(0, {str(HERE)!r})\n"
        "from workloads import calibration_loop\n"
        "print(t, calibration_loop())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = []
    for _ in range(samples):
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        import_s, calibration_s = map(float, proc.stdout.strip().splitlines()[-1].split())
        out.append((to_reference(calibration_s, IMPORT_CAL_EXPONENT) * import_s, import_s))
    return tuple(statistics.median(column) for column in zip(*out))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def untraced_sim(w, args, table, tolerance):
    from workloads import (
        Calibration, Patches, SimClock, per_op_medians, run_sim, sim_quality,
    )

    patches = Patches()
    calibration = Calibration()
    clock = SimClock(calibration)
    clock.install(patches)
    try:
        run = run_sim(
            w, table["sim_seed"], table["frames"], table["expected"], tolerance,
            seconds=args.seconds, min_repeats=MIN_REPEATS, clock=clock,
        )
    finally:
        patches.restore()
    import_s, raw_import_s = import_seconds()
    build_s = per_op_medians(run.repeats, "build_s")
    calibration.catch_up()
    scale = calibration.scale()
    first = run.repeats[0]
    quality = sim_quality(first, run.outputs[0])
    sim_s = sum(op.sim_s for op in first)
    host_s_per_sim_s = per_op_medians(run.repeats, "run_s") / sim_s
    metrics = {
        "host_s_per_sim_s": scale * host_s_per_sim_s,
        "setup_s": import_s + scale * build_s,
        "peak_rss_mb": peak_rss_mb(),
        "goodput_fps": quality["goodput_fps"],
        "latency_p50_ms": quality["latency_p50_ms"],
        "latency_p95_ms": quality["latency_p95_ms"],
    }
    summary = {
        "sim_seed": table["sim_seed"],
        "latency_p99_ms": quality["latency_p99_ms"],
        "calibration_scale": scale,
        "calibration_samples": len(calibration.samples),
        "raw_host_s_per_sim_s": host_s_per_sim_s,
        "raw_setup_s": raw_import_s + build_s,
        "rounds": len(run.round_walls),
        "operations_per_round": len(first),
        "simulated_s_per_round": sim_s,
        "deadline_miss_frac": quality["deadline_miss_frac"],
        "latency_samples": quality["latency_samples"],
    }
    if w == "staircase-hybrid":
        from workloads import goodput_err

        summary["hybrid_goodput_err"] = goodput_err(
            run.outputs[0]["FrameFeedback"], table["expected"]["FrameFeedback"]
        )
    return [run], metrics, summary


def untraced_gateway(args):
    from workloads import FRAME_RATE, Calibration, gateway_quality, run_gateway

    run = run_gateway(args.seconds, calibration=Calibration())
    quality = gateway_quality(run)
    import_s, raw_import_s = import_seconds()
    open_s = statistics.median(run.setup_s)
    metrics = {
        # host seconds per second of a 30 fps stream served
        "host_s_per_sim_s": FRAME_RATE / quality["req_per_s"],
        "setup_s": import_s + quality["calibration_scale"] * open_s,
        "peak_rss_mb": peak_rss_mb(),
        "goodput_fps": quality["goodput_fps"],
        "latency_p50_ms": quality["latency_p50_ms"],
        "latency_p95_ms": quality["latency_p95_ms"],
    }
    summary = {
        "req_per_s": quality["req_per_s"],
        "latency_p99_ms": quality["latency_p99_ms"],
        "calibration_scale": quality["calibration_scale"],
        "calibration_samples": len(run.calibration.samples),
        "raw_req_per_s": quality["raw_req_per_s"],
        "raw_setup_s": raw_import_s + open_s,
        "slices": quality["slices"],
        "frames": quality["frames"],
    }
    return [run], metrics, summary


def traced_sim(w, args, table, tolerance):
    from layers import Counters, layer_metrics, traced
    from workloads import Patches, SimClock, goodput_err, run_sim
    from repro.sim.core import capture_env_stats

    def once(max_repeats, seconds, warmup):
        return run_sim(
            w, table["sim_seed"], table["frames"], table["expected"], tolerance,
            seconds=seconds, min_repeats=1, max_repeats=max_repeats, clock=clock,
            warmup=warmup,
        )

    patches = Patches()
    clock = SimClock()
    clock.install(patches)
    try:
        plain = once(MIN_REPEATS, args.seconds / 3.0, warmup=1)
        counters = Counters()
        counters.install(patches)
        sink = []
        capture_env_stats(sink)
        try:
            run, wall, self_s = traced(lambda: once(1, 0.0, warmup=0))
        finally:
            capture_env_stats(None)
    finally:
        patches.restore()
    err = 0.0
    if w == "staircase-hybrid":
        err = goodput_err(run.outputs[0]["FrameFeedback"], table["expected"]["FrameFeedback"])
    metrics = layer_metrics(
        self_s, wall, statistics.median(plain.round_walls), counters, sink,
        [st for op in run.repeats[0] for st in op.link_stats], run.outputs[0],
        goodput_err=err,
    )
    summary = {"sim_seed": table["sim_seed"], "untraced_rounds": len(plain.round_walls)}
    return [plain, run], metrics, summary


def traced_gateway(args):
    from layers import Counters, layer_metrics, traced
    from workloads import Patches, run_gateway

    seconds = max(1.0, args.seconds / 3.0)
    plain = run_gateway(seconds, setups=1)
    patches = Patches()
    counters = Counters()
    counters.install(patches)
    try:
        run, wall, self_s = traced(lambda: run_gateway(seconds, setups=1))
    finally:
        patches.restore()
    per_frame = plain.wall_s / plain.attempted
    metrics = layer_metrics(
        self_s, wall, per_frame * run.attempted, counters, [], [], {},
        gateway={"stats": run.gateway_stats, "breaker_opens": run.breaker_opens},
    )
    summary = {"untraced_frames": plain.attempted, "traced_frames": run.attempted}
    return [plain, run], metrics, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimal-size run (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose from {names}")
    sys.path.insert(0, str(ROOT / "src"))
    # measure the default configuration, whatever the caller's shell selects
    for var in ("REPRO_KERNEL", "REPRO_SIM_SLOWPATH", "REPRO_SIM_CALENDAR"):
        os.environ.pop(var, None)

    w = args.workload
    recorded = json.loads(EXPECTED.read_text())
    if w == "gateway-closed2":
        if args.trace:
            runs, metrics, summary = traced_gateway(args)
        else:
            runs, metrics, summary = untraced_gateway(args)
    else:
        pool = recorded[w]["smoke" if args.smoke else "full"]
        table = {
            "frames": pool["frames"],
            "sim_seed": args.seed % len(pool["seeds"]),
        }
        table["expected"] = pool["seeds"][str(table["sim_seed"])]
        tolerance = recorded["tolerance"]
        if args.trace:
            runs, metrics, summary = traced_sim(w, args, table, tolerance)
        else:
            runs, metrics, summary = untraced_sim(w, args, table, tolerance)
    attempted = sum(r.attempted for r in runs)
    failed = sum(r.failed for r in runs)
    wrong = sorted({k for r in runs for k in r.wrong})

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    print(f"# workload={w} seed={args.seed} trace={args.trace}")
    for key, value in summary.items():
        print(f"#   {key} = {value}")
    print(f"#   failed_frac = {failed / attempted} ({failed}/{attempted})")
    for m in listed:
        print(f"#   {m['name']} = {metrics[m['name']]} {m['unit']}")
    if wrong:
        print(f"# WRONG OUTPUT: {', '.join(wrong[:20])}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed
        },
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
