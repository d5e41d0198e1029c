"""The traced run: per-layer self time and counts, measured from outside.

A layer is a package under ``src/repro/`` (``sim/fluid.py`` and
``device/fluid.py`` form the ``fluid`` layer).  Three sources feed it:

* ``cProfile``, enabled from here, gives each function's self time.
  Python functions are charged to the package that owns their file;
  C builtins (``heapq.heappush``, numpy draws, socket calls) to the
  layer of the function that called them; asyncio and the selector to
  ``realtime.asyncio_self_s``.  Generator resumes driven by the kernel
  are charged to the generator's own function, which no public call
  could bracket.
* Counting wrappers on the public entry points of each layer.
* ``repro.sim.core.capture_env_stats``: kernel counters, with
  ``events_by_process`` mapped to layers by process name.

Everything not charged to a named layer, including the profiler's own
cost, is ``other.self_s``, so the self times add up to the traced wall.
"""

from __future__ import annotations

import cProfile
import pstats
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

from workloads import Patches

#: packages under src/repro/ that are layers of their own here;
#: faults, resilience, supervision and trace fall into other.self_s
LAYER_PACKAGES = (
    "sim", "netem", "server", "device", "control", "fleet", "workloads", "realtime",
)
FLUID_FILES = ("/repro/sim/fluid.py", "/repro/device/fluid.py")
ASYNCIO_FILES = ("/selectors.py",)


def file_layer(filename: str) -> str:
    """The layer that owns a Python source file."""
    path = filename.replace("\\", "/")
    if path.endswith(FLUID_FILES):
        return "fluid"
    cut = path.rfind("/repro/")
    if cut >= 0:
        package = path[cut + len("/repro/"):].split("/", 1)[0]
        return package if package in LAYER_PACKAGES else "other"
    if "/asyncio/" in path or path.endswith(ASYNCIO_FILES):
        return "asyncio"
    return "other"


def self_time_by_layer(profile: cProfile.Profile) -> Dict[str, float]:
    """Profiler self time summed per layer (builtins go to their caller)."""
    out: Dict[str, float] = defaultdict(float)
    for (filename, _line, _name), row in pstats.Stats(profile).stats.items():
        tottime, callers = row[2], row[4]
        if filename != "~":
            out[file_layer(filename)] += tottime
            continue
        for (caller_file, _l, _n), caller_row in callers.items():
            layer = "other" if caller_file == "~" else file_layer(caller_file)
            out[layer] += caller_row[2]
    return dict(out)


def process_layer(name: str) -> str:
    """The layer whose simulated process scheduled an event."""
    if name.startswith("link:") or name == "netem-schedule":
        return "netem"
    if name.endswith(":service") or name == "reservation-broker":
        return "server"
    if name == "background-load":
        return "workloads"
    if any(k in name for k in ("camera", "measure", "local", "offload", "grace")):
        return "device"
    return "other"


def _p50_ms(values: List[float]) -> float:
    return 1000.0 * statistics.median(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Counters:
    """Counting wrappers on each layer's public entry points."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.transit_s: List[float] = []
        self.residency_s: List[float] = []
        self.control_setup_s = 0.0
        self.servers: Dict[int, Any] = {}
        self._depth = {"init": 0, "update": 0}

    def install(self, patches: Patches) -> None:
        from repro.device.local import LocalPipeline
        from repro.device.offload import OffloadClient
        from repro.fleet.router import Router
        from repro.netem.link import Link
        from repro.realtime.client import ResilientSocketRemote
        from repro.server.server import EdgeServer
        from repro.sim.fluid import FluidRegime

        def count(key: str) -> Callable:
            def make(original):
                def wrapper(*args, **kwargs):
                    self.calls[key] += 1
                    return original(*args, **kwargs)

                return wrapper

            return make

        patches.wrap(OffloadClient, "send", count("device.offload_send"))
        patches.wrap(LocalPipeline, "offer", count("device.local_offer"))
        patches.wrap(Router, "route", count("fleet.route"))
        patches.wrap(FluidRegime, "open_window", count("fluid.open_window"))
        patches.wrap(ResilientSocketRemote, "submit_frame", count("realtime.submit"))

        def link_send(original):
            def send(link, nbytes, payload, deliver):
                self.calls["netem.send"] += 1
                env = link.env
                sent_at = env.now

                def delivered(item):
                    self.transit_s.append(env.now - sent_at)
                    return deliver(item)

                return original(link, nbytes, payload, delivered)

            return send

        patches.wrap(Link, "send", link_send)

        def server_submit(original):
            def submit(server, request):
                self.calls["server.submit"] += 1
                self.servers[id(server)] = server
                respond = request.respond

                def responded(response):
                    if response.outcome.value == "completed":
                        self.residency_s.append(
                            response.completed_at - response.arrived_at
                        )
                    return respond(response)

                request.respond = responded
                return original(server, request)

            return submit

        patches.wrap(EdgeServer, "submit", server_submit)
        for cls in _controller_classes():
            if "__init__" in vars(cls):
                patches.wrap(cls, "__init__", self._outermost_init)
            if "update" in vars(cls):
                patches.wrap(cls, "update", self._outermost_update)

    def _outermost_init(self, original):
        # subclasses chain __init__ through super(); time the outer call
        def __init__(controller, *args, **kwargs):
            depth = self._depth
            depth["init"] += 1
            t0 = time.perf_counter()
            try:
                return original(controller, *args, **kwargs)
            finally:
                depth["init"] -= 1
                if depth["init"] == 0:
                    self.control_setup_s += time.perf_counter() - t0

        return __init__

    def _outermost_update(self, original):
        def update(controller, measurement):
            depth = self._depth
            if depth["update"] == 0:
                self.calls["control.update"] += 1
            depth["update"] += 1
            try:
                return original(controller, measurement)
            finally:
                depth["update"] -= 1

        return update


def _controller_classes() -> List[type]:
    """Every Controller subclass the zoo, the oracle and the lineups use."""
    import repro.control.oracle  # noqa: F401
    import repro.control.reservation  # noqa: F401
    import repro.control.zoo  # noqa: F401
    import repro.experiments.standard  # noqa: F401
    from repro.control.base import Controller

    seen: List[type] = []
    todo = [Controller]
    while todo:
        cls = todo.pop()
        for sub in cls.__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def traced(fn: Callable[[], Any]):
    """Run ``fn`` under the profiler; returns (result, wall_s, self times)."""
    profile = cProfile.Profile()
    t0 = time.perf_counter()
    profile.enable()
    try:
        result = fn()
    finally:
        profile.disable()
    wall = time.perf_counter() - t0
    return result, wall, self_time_by_layer(profile)


def layer_metrics(
    self_s: Dict[str, float],
    wall_s: float,
    untraced_wall_s: float,
    counters: Counters,
    env_stats: List[Any],
    link_stats: List[Any],
    outputs: Dict[str, dict],
    gateway: Any = None,
    goodput_err: float = 0.0,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by name."""
    frames = sum(q["total_frames"] for q in outputs.values())
    events_by_layer: Dict[str, int] = defaultdict(int)
    scheduled = processed = cancelled = attributed = peak = 0
    fluid_frames = fluid_windows = fluid_forced = 0
    for stats in env_stats:
        scheduled += stats.events_scheduled
        processed += stats.events_processed
        cancelled += stats.events_cancelled
        peak = max(peak, stats.peak_heap_size)
        fluid_frames += stats.fluid_frames
        fluid_windows += stats.fluid_windows
        fluid_forced += stats.fluid_forced_exact
        for name, n in stats.events_by_process.items():
            attributed += n
            events_by_layer[process_layer(name)] += n
    packets = sum(st.packets_sent for st in link_stats)
    link_frames = sum(st.frames_sent for st in link_stats)
    servers = list(counters.servers.values())
    received = sum(s.stats.received for s in servers)
    refused = sum(s.stats.rejected + s.stats.overloaded for s in servers)
    calls = counters.calls
    named = {layer: self_s.get(layer, 0.0) for layer in (*LAYER_PACKAGES, "fluid")}
    asyncio_s = self_s.get("asyncio", 0.0)
    metrics = {
        "sim.self_s": named["sim"],
        "sim.events": processed,
        "sim.events_per_frame": _ratio(processed, frames),
        "sim.cancelled_frac": _ratio(cancelled, scheduled),
        "sim.peak_heap": peak,
        "sim.unattributed_events": scheduled - attributed,
        "netem.self_s": named["netem"],
        "netem.send_calls": calls["netem.send"],
        "netem.events_per_frame": _ratio(events_by_layer["netem"], frames),
        "netem.packets_per_frame": _ratio(packets, frames),
        "netem.retx_frac": _ratio(sum(st.retransmissions for st in link_stats), packets),
        "netem.drop_frac": _ratio(sum(st.dropped for st in link_stats), link_frames),
        "netem.transit_ms_p50": _p50_ms(counters.transit_s),
        "server.self_s": named["server"],
        "server.submit_calls": calls["server.submit"],
        "server.events": events_by_layer["server"],
        "server.reject_frac": _ratio(refused, received),
        "server.residency_ms_p50": _p50_ms(counters.residency_s),
        "workloads.self_s": named["workloads"],
        "workloads.events": events_by_layer["workloads"],
        "device.self_s": named["device"],
        "device.events_per_frame": _ratio(events_by_layer["device"], frames),
        "device.offload_frac": _ratio(calls["device.offload_send"], frames),
        "device.local_offers": calls["device.local_offer"],
        "control.self_s": named["control"],
        "control.update_calls": calls["control.update"],
        "control.setup_s": counters.control_setup_s,
        "fleet.self_s": named["fleet"],
        "fleet.route_calls": calls["fleet.route"],
        "fluid.self_s": named["fluid"],
        "fluid.frame_share": _ratio(fluid_frames, frames),
        "fluid.windows": fluid_windows,
        "fluid.open_window_calls": calls["fluid.open_window"],
        # every regime decision either opens a window or is refused once
        "fluid.forced_exact_frac": _ratio(fluid_forced, fluid_forced + fluid_windows),
        "fluid.goodput_err": goodput_err,
        "realtime.self_s": named["realtime"],
        "realtime.asyncio_self_s": asyncio_s,
        "realtime.submit_calls": calls["realtime.submit"],
        "realtime.batch_size_mean": 0.0,
        "realtime.shed_frac": 0.0,
        "resilience.breaker_opens": 0,
        "other.self_s": wall_s - sum(named.values()) - asyncio_s,
        "traced_wall_s": wall_s,
        "trace_overhead": wall_s / untraced_wall_s,
    }
    if gateway is not None:
        stats = gateway["stats"]
        metrics["realtime.batch_size_mean"] = _ratio(stats.completed, stats.batches)
        metrics["realtime.shed_frac"] = _ratio(
            stats.overloaded + stats.expired, stats.received
        )
        metrics["resilience.breaker_opens"] = gateway["breaker_opens"]
    return metrics
