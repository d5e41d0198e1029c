"""The benchmark's four workloads, their timing hooks and correctness checks.

Every workload calls only public entry points of the package:
``repro.experiments.fig3.run_fig3``, ``repro.experiments.tournament.
run_tournament``, ``repro.experiments.scenario.run_scenario`` and the
``repro.realtime`` gateway and client.  Timing comes from outside: a
reversible patch wraps ``build_runtime`` (set-up) and
``Environment.run`` (simulated work), so no file under ``src/`` knows
it is being measured.

A simulated workload repeats one *round* (a fixed list of scenario
runs at one simulation seed) until its time is up.  The round is the
same in every repeat, so each operation's median over repeats is a
steady figure, and every repeat's QoS is checked against the record in
``expected.json``.
"""

from __future__ import annotations

import asyncio
import heapq
import statistics
import time
import weakref
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

#: the paper's stream rate: one simulated stream second is 30 frames
FRAME_RATE = 30.0

#: frames per scenario run, full size and the self-test's minimal size
SIZES = {
    "fig3": {"full": 4000, "smoke": 300},
    "tournament": {"full": 900, "smoke": 90},
    "staircase-hybrid": {"full": 90_000, "smoke": 3000},
}


# ----------------------------------------------------------------------
# reversible patching
# ----------------------------------------------------------------------
class Patches:
    """Attribute replacements on classes and modules, undone by restore()."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, owner: Any, name: str, make: Callable[[Any], Any]) -> None:
        """Replace ``owner.name`` with ``make(original)``."""
        own = name in vars(owner)
        original = getattr(owner, name)
        self._saved.append((owner, name, original, own))
        setattr(owner, name, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, name, original, own = self._saved.pop()
            if own:
                setattr(owner, name, original)
            else:
                delattr(owner, name)


# ----------------------------------------------------------------------
# calibration: the host's speed, sampled between timed regions
# ----------------------------------------------------------------------
#: calibration loop wall time on a nominal reference host; host-time
#: metrics are scaled to that speed ("reference seconds").  On the
#: 2-vCPU Xeon VM the benchmark was written on, the loop takes ~11 ms
#: in quiet periods and 20-30 ms in busy ones.
CAL_REFERENCE_S = 0.025

#: wall seconds of a run per calibration sample (~10 % of the run)
CAL_EVERY_S = 0.25

#: how strongly the program's host time follows the loop's: when the
#: loop runs k times slower, the program runs k ** CAL_EXPONENT times
#: slower.  Fitted on the reference host over five 10-seed sets taken in
#: quiet and busy periods (loop medians 12-21 ms): with 0.7 every set's
#: median host_s_per_sim_s lies within 5 % of the others, against up to
#: 20 % with 1.0 and 26 % uncalibrated.
CAL_EXPONENT = 0.7


class _Timer:
    __slots__ = ("due", "seq", "proc", "tags")

    def __init__(self, due: float, seq: int, proc) -> None:
        self.due = due
        self.seq = seq
        self.proc = proc
        self.tags = {"seq": seq}

    def __lt__(self, other: "_Timer") -> bool:
        return (self.due, self.seq) < (other.due, other.seq)


def calibration_loop(steps: int = 4000) -> float:
    """Wall seconds of a fixed event loop built from the stdlib and numpy.

    Timers on a heap resume generators that draw numpy scalars, the
    paths the simulator spends its time on, but none of the package's
    code, so no change to the program can move it.
    """
    import numpy as np

    rng = np.random.default_rng(12345)

    def process(i: int):
        x = 0.0
        while True:
            x += float(rng.random())
            yield 0.001 * ((i * 7 + int(x * 13)) % 13 + 1)

    t0 = time.perf_counter()
    procs = [process(i) for i in range(32)]
    queue = [_Timer(0.0, i, procs[i]) for i in range(32)]
    heapq.heapify(queue)
    seq = len(queue)
    recent = {}
    for _ in range(steps):
        timer = heapq.heappop(queue)
        delay = next(timer.proc) + float(rng.lognormal(0.0, 0.1)) * 1e-4
        recent[seq & 255] = timer.tags
        heapq.heappush(queue, _Timer(timer.due + delay, seq, timer.proc))
        seq += 1
    return time.perf_counter() - t0


def to_reference(calibration_s: float, exponent: float = CAL_EXPONENT) -> float:
    """Factor converting host seconds, measured while the calibration
    loop took ``calibration_s``, to reference seconds."""
    return (CAL_REFERENCE_S / calibration_s) ** exponent


class Calibration:
    """Calibration samples spread evenly over a run's wall time.

    On a shared host the CPU's speed drifts by tens of percent over
    minutes.  The median of samples taken through a run tracks that
    drift, and :meth:`scale` converts the run's host seconds to
    reference seconds.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._start = time.perf_counter()

    def catch_up(self) -> None:
        """Sample until there is one sample per ``CAL_EVERY_S`` of the run.

        Called only between timed regions, so no sample lands inside a
        measurement.
        """
        while len(self.samples) * CAL_EVERY_S <= time.perf_counter() - self._start:
            self.samples.append(calibration_loop())

    def scale(self) -> float:
        """Factor converting this run's host seconds to reference seconds."""
        return to_reference(statistics.median(self.samples))


# ----------------------------------------------------------------------
# per-operation timing of the simulated workloads
# ----------------------------------------------------------------------
@dataclass
class Op:
    """One scenario run as the hooks saw it.

    ``take()`` reduces the runtime to the few observables read later,
    and keeps those for one round only.  So the harness holds no testbed
    alive, its memory does not grow with the number of rounds that fit
    in a run, and peak RSS stays the program's.
    """

    build_s: float
    runtime: Any
    run_s: float = 0.0
    sim_s: float = 0.0
    #: the device's StreamingHistogram of on-time offload round trips
    rtt_histogram: Any = None
    #: LinkStats of the uplink and downlink
    link_stats: List[Any] = field(default_factory=list)


class SimClock:
    """Hooks ``build_runtime`` and ``Environment.run`` to time each run.

    ``chaos.py`` imports ``build_runtime`` by name, so both modules are
    patched.  Runs are matched to their build through the environment.
    A ``calibration`` catches up between operations.
    """

    def __init__(self, calibration: Optional[Calibration] = None) -> None:
        self.calibration = calibration
        self.ops: List[Op] = []
        self._by_env: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()

    def install(self, patches: Patches) -> None:
        import repro.experiments.chaos as chaos_mod
        import repro.experiments.scenario as scenario_mod
        from repro.sim.core import Environment

        def make_build(original):
            def build_runtime(scenario):
                if self.calibration is not None:
                    self.calibration.catch_up()
                t0 = time.perf_counter()
                runtime = original(scenario)
                op = Op(build_s=time.perf_counter() - t0, runtime=runtime)
                self.ops.append(op)
                self._by_env[runtime.env] = op
                return runtime

            return build_runtime

        build = make_build(scenario_mod.build_runtime)
        patches.wrap(scenario_mod, "build_runtime", lambda _orig: build)
        patches.wrap(chaos_mod, "build_runtime", lambda _orig: build)

        def make_run(original):
            def run(env, until=None):
                op = self._by_env.get(env)
                start = env.now
                t0 = time.perf_counter()
                try:
                    return original(env, until)
                finally:
                    if op is not None:
                        op.run_s += time.perf_counter() - t0
                        op.sim_s += env.now - start
                    if self.calibration is not None:
                        self.calibration.catch_up()

            return run

        patches.wrap(Environment, "run", make_run)

    def take(self, observe: bool) -> List[Op]:
        """The ops recorded since the last take(), reduced to their
        timings, plus their observables when ``observe`` is set."""
        ops, self.ops = self.ops, []
        for op in ops:
            rt, op.runtime = op.runtime, None
            if observe:
                op.rtt_histogram = rt.device.rtt_histogram
                op.link_stats = [rt.uplink.stats, rt.downlink.stats]
        return ops


# ----------------------------------------------------------------------
# rounds: one fixed list of scenario runs, returning each run's QoS
# ----------------------------------------------------------------------
def fig3_round(seed: int, frames: int) -> Dict[str, dict]:
    """The paper's Fig 3: the 4 standard controllers under Table V."""
    from repro.experiments.fig3 import run_fig3
    from repro.search.runner import qos_summary

    result = run_fig3(seed=seed, total_frames=frames)
    return {name: qos_summary(run.qos) for name, run in result.runs.items()}


def tournament_round(seed: int, frames: int) -> Dict[str, dict]:
    """The built-in 6-scenario matrix x the zoo plus the Oracle."""
    from repro.experiments.tournament import (
        ORACLE,
        TournamentConfig,
        run_tournament,
    )

    result = run_tournament(TournamentConfig(seed=seed, frames=frames, workers=1))
    out = {f"{name}/{ORACLE}": qos for name, qos in result.oracle_qos.items()}
    for cell in result.cells:
        out[f"{cell.scenario}/{cell.controller}"] = cell.qos
    return out


def staircase_scenario(seed: int, frames: int, kernel: str):
    """FrameFeedback over a lossless 10 -> 4 -> 10 Mbit/s staircase.

    Each 90 s cycle holds 10 Mbit/s for 60 s and 4 Mbit/s for 30 s,
    with no background load, so the hybrid kernel's fluid regime
    carries most frames between the pinned phase edges.
    """
    from repro.device.config import DeviceConfig
    from repro.experiments.scenario import Scenario
    from repro.experiments.standard import framefeedback_factory
    from repro.netem.schedule import NetworkSchedule

    device = DeviceConfig(total_frames=frames)
    rows = []
    start = 0.0
    while start < device.stream_duration:
        rows += [(start, 10.0, 0.0), (start + 60.0, 4.0, 0.0)]
        start += 90.0
    return Scenario(
        controller_factory=framefeedback_factory(),
        device=device,
        network=NetworkSchedule.from_rows(rows),
        duration=device.stream_duration + 1.0,
        seed=seed,
        kernel=kernel,
    )


def staircase_round(seed: int, frames: int, kernel: str = "hybrid") -> Dict[str, dict]:
    from repro.experiments.scenario import run_scenario
    from repro.search.runner import qos_summary

    run = run_scenario(staircase_scenario(seed, frames, kernel))
    return {"FrameFeedback": qos_summary(run.qos)}


ROUNDS = {
    "fig3": fig3_round,
    "tournament": tournament_round,
    "staircase-hybrid": staircase_round,
}


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def miss_frac(qos: dict) -> float:
    """Frames that timed out or were rejected, per frame captured."""
    return (qos["timeouts"] + qos["rejected"]) / qos["total_frames"]


def goodput_err(qos: dict, reference: dict) -> float:
    """|goodput - reference goodput| / reference goodput (same duration)."""
    return abs(qos["successful"] - reference["successful"]) / reference["successful"]


def check_round(
    workload: str, got: Dict[str, dict], expected: Dict[str, dict], tolerance: dict
) -> List[str]:
    """Names of the operations whose output is wrong.

    Exact-kernel workloads must reproduce the recorded QoS exactly.
    The hybrid workload must stay within the recorded tolerance of the
    exact-kernel reference at the same seed.
    """
    wrong = sorted(set(expected) ^ set(got))
    for key in sorted(set(expected) & set(got)):
        if workload == "staircase-hybrid":
            ok = (
                goodput_err(got[key], expected[key]) <= tolerance["goodput_rel"]
                and abs(miss_frac(got[key]) - miss_frac(expected[key]))
                <= tolerance["miss_frac_abs"]
            )
        else:
            ok = got[key] == expected[key]
        if not ok:
            wrong.append(key)
    return wrong


# ----------------------------------------------------------------------
# running a simulated workload
# ----------------------------------------------------------------------
@dataclass
class SimRun:
    """Everything one simulated-workload run measured."""

    repeats: List[List[Op]] = field(default_factory=list)
    round_walls: List[float] = field(default_factory=list)
    outputs: List[Dict[str, dict]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)


def run_sim(
    workload: str,
    seed: int,
    frames: int,
    expected: Dict[str, dict],
    tolerance: dict,
    seconds: float,
    min_repeats: int,
    max_repeats: Optional[int] = None,
    clock: Optional[SimClock] = None,
    warmup: int = 1,
) -> SimRun:
    """Repeat the workload's round while the next one fits in ``seconds``.

    The first ``warmup`` rounds are checked but not timed: a process's
    first round pays for lazy imports and cold caches.  Only the first
    timed round keeps its ops' observables; every round is the same.
    """
    fn = ROUNDS[workload]
    out = SimRun()
    t_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        got = fn(seed, frames)
        wall = time.perf_counter() - t0
        observe = warmup == 0 and not out.round_walls
        ops = clock.take(observe) if clock is not None else []
        wrong = check_round(workload, got, expected, tolerance)
        out.attempted += len(expected)
        out.failed += len(wrong)
        out.wrong += wrong
        if warmup > 0:
            warmup -= 1
            continue
        out.round_walls.append(wall)
        out.outputs.append(got)
        if clock is not None:
            out.repeats.append(ops)
        n = len(out.round_walls)
        if max_repeats is not None and n >= max_repeats:
            break
        elapsed = time.perf_counter() - t_start
        if n >= min_repeats and elapsed + statistics.median(out.round_walls) > seconds:
            break
    return out


def per_op_medians(repeats: List[List[Op]], attr: str) -> float:
    """Sum over a round's operations of each one's median over repeats."""
    lengths = {len(ops) for ops in repeats}
    if len(lengths) != 1:
        raise RuntimeError(f"rounds ran different operation counts: {sorted(lengths)}")
    return sum(
        statistics.median(getattr(ops[i], attr) for ops in repeats)
        for i in range(lengths.pop())
    )


def histogram_quantiles(hists: List[Any], qs: List[float]) -> List[float]:
    """Quantiles of the merged ``StreamingHistogram``s, in their unit.

    ``StreamingHistogram.quantile`` answers with a bucket's mid value,
    so its figure moves in steps of a bucket's width.  Here the rank is
    interpolated geometrically inside its bucket, so the figure moves
    smoothly with the distribution.
    """
    import numpy as np

    first = hists[0]
    binning = {(h.min_value, h.max_value, h.growth) for h in hists}
    if len(binning) != 1:
        raise RuntimeError(f"histograms have different binning: {sorted(binning)}")
    counts = np.sum([h._counts for h in hists], axis=0)
    cumulative = np.cumsum(counts)
    total = int(cumulative[-1])
    if total == 0:
        raise RuntimeError("no latency samples")
    out = []
    for q in qs:
        rank = q * (total - 1)
        i = int(np.searchsorted(cumulative, rank, side="right"))
        if i == 0:
            out.append(first.min_value)
        elif i == len(counts) - 1:
            out.append(first.max_value)
        else:
            within = (rank - (cumulative[i] - counts[i])) / counts[i]
            out.append(first.min_value * first.growth ** (i - 1 + within))
    return out


def sim_quality(ops: List[Op], outputs: Dict[str, dict]) -> Dict[str, float]:
    """Goodput and latency of one round (identical in every repeat).

    Latencies are the device's round trips of offloaded frames that
    returned on time.  Its RTT histogram is credited in the exact and
    the fluid regime alike, so on the hybrid kernel it covers every
    such frame, not only those stepped exactly.
    """
    sim_s = sum(op.sim_s for op in ops)
    successful = sum(q["successful"] for q in outputs.values())
    hists = [op.rtt_histogram for op in ops]
    p50, p95, p99 = histogram_quantiles(hists, [0.50, 0.95, 0.99])
    return {
        "goodput_fps": successful / sim_s,
        "latency_p50_ms": 1000.0 * p50,
        "latency_p95_ms": 1000.0 * p95,
        "latency_p99_ms": 1000.0 * p99,
        "deadline_miss_frac": sum(q["timeouts"] + q["rejected"] for q in outputs.values())
        / sum(q["total_frames"] for q in outputs.values()),
        "latency_samples": sum(h.count for h in hists),
    }


# ----------------------------------------------------------------------
# the gateway workload
# ----------------------------------------------------------------------
#: payload of one camera frame on the wire (the paper's JPEG frames)
FRAME_BYTES = 11_700

#: the paper's per-frame deadline
DEADLINE = 0.25

#: closed-loop devices, one connection each (no more than the 2 CPUs)
TENANTS = 2


def latency_histogram():
    """Fixed-memory store of the gateway's client-observed latencies (s).

    1 % buckets from 10 us to 5 s: the harness's memory does not grow
    with the number of frames a run completes.
    """
    from repro.metrics.streaming import StreamingHistogram

    return StreamingHistogram(min_value=1e-5, max_value=5.0, growth=1.01)


def gateway_config():
    """Zero-cost GPU model, so the gateway's own code sets the rate."""
    from repro.realtime.gateway import GatewayConfig

    return GatewayConfig(base_latency=0.0, per_item=0.0)


def client_config():
    """Wall-clock resilience preset with hedged retries off (no 3rd socket)."""
    from repro.resilience.config import ResilienceConfig

    return replace(ResilienceConfig.wallclock(), max_retries=0)


@dataclass
class GatewayRun:
    """Everything one gateway run measured."""

    setup_s: List[float] = field(default_factory=list)
    #: samples between set-ups and between slices, as in the simulated runs
    calibration: Optional[Calibration] = None
    #: per one-second slice: (wall s, completed frames, on-time frames)
    slices: List[Tuple[float, int, int]] = field(default_factory=list)
    #: client-observed latency of every completed frame after set-up
    latency: Any = field(default_factory=latency_histogram)
    wall_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: List[str] = field(default_factory=list)
    gateway_stats: Any = None
    breaker_opens: int = 0


async def _open():
    from repro.realtime.client import ResilientSocketRemote
    from repro.realtime.gateway import InferenceGateway

    gateway = await InferenceGateway(gateway_config()).start()
    clients = [
        ResilientSocketRemote(
            gateway.address,
            deadline=DEADLINE,
            config=client_config(),
            tenant=f"device{i}",
            frame_bytes=FRAME_BYTES,
        )
        for i in range(TENANTS)
    ]
    outcomes = [await client.submit_frame() for client in clients]
    return gateway, clients, outcomes


async def _close(gateway, clients, run: GatewayRun) -> None:
    for client in clients:
        await client.close()
    await gateway.stop()
    if not all(client.accounting_closed for client in clients):
        run.wrong.append("client-accounting-open")
    if not gateway.stats.accounting_closed:
        run.wrong.append("gateway-accounting-open")


async def _gateway_main(
    seconds: float, setups: int, calibration: Optional[Calibration]
) -> GatewayRun:
    from repro.realtime.client import FrameOutcome

    run = GatewayRun(calibration=calibration)
    for i in range(setups):
        t0 = time.perf_counter()
        gateway, clients, outcomes = await _open()
        run.setup_s.append(time.perf_counter() - t0)
        if run.calibration is not None:
            run.calibration.catch_up()
        run.attempted += len(outcomes)
        run.failed += sum(o is not FrameOutcome.COMPLETED for o in outcomes)
        if i < setups - 1:
            await _close(gateway, clients, run)

    record = run.latency.record

    async def device(client, t_end: float, tally: List[int]) -> None:
        # closed loop: a device sends its next frame only after the reply
        while time.perf_counter() < t_end:
            t0 = time.perf_counter()
            outcome = await client.submit_frame()
            run.attempted += 1
            if outcome is FrameOutcome.COMPLETED:
                latency = time.perf_counter() - t0
                record(latency)
                tally[0] += 1
                tally[1] += latency <= DEADLINE
            else:
                run.failed += 1

    for _ in range(max(1, int(seconds))):
        tally = [0, 0]  # completed, on time
        t0 = time.perf_counter()
        await asyncio.gather(*(device(c, t0 + 1.0, tally) for c in clients))
        wall = time.perf_counter() - t0
        run.wall_s += wall
        run.slices.append((wall, tally[0], tally[1]))
        # both devices hold their last reply: no frame is in flight
        if run.calibration is not None:
            run.calibration.catch_up()
    run.breaker_opens = sum(c.breaker.opened_count for c in clients)
    await _close(gateway, clients, run)
    run.gateway_stats = gateway.stats
    if run.failed:
        run.wrong.append(f"{run.failed} frames not completed")
    return run


def run_gateway(
    seconds: float, setups: int = 5, calibration: Optional[Calibration] = None
) -> GatewayRun:
    """Closed loop of ``TENANTS`` devices against an in-process gateway.

    The run is cut into one-second slices; each ends when both devices
    have their last reply, so every frame belongs to one slice.
    """
    return asyncio.run(_gateway_main(seconds, setups, calibration))


def gateway_quality(run: GatewayRun) -> Dict[str, float]:
    """Rates as the median over one-second slices; latency percentiles
    over every frame of the run (pooled, they hold ~25x more samples
    beyond each percentile than one slice does, and spread half as much).

    Like host times, they are calibrated to the reference host: rates
    are divided by the run's scale, latencies multiplied by it.
    """
    usable = [s for s in run.slices if s[1]]
    if not usable:
        raise RuntimeError("gateway completed no frames")
    scale = run.calibration.scale()
    p50, p95, p99 = histogram_quantiles([run.latency], [0.50, 0.95, 0.99])
    req_per_s = statistics.median(done / wall for wall, done, _ok in usable)
    return {
        "req_per_s": req_per_s / scale,
        "raw_req_per_s": req_per_s,
        "goodput_fps": statistics.median(ok / wall for wall, _done, ok in usable) / scale,
        "latency_p50_ms": 1000.0 * p50 * scale,
        "latency_p95_ms": 1000.0 * p95 * scale,
        "latency_p99_ms": 1000.0 * p99 * scale,
        "calibration_scale": scale,
        "slices": len(usable),
        "frames": run.latency.count,
    }
