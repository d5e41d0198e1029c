"""Unit + property tests for the emulated link."""

import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.netem import (
    BANDWIDTH_UNIT_BPS,
    ConditionBox,
    Link,
    LinkConditions,
    packets_for,
)
from repro.netem.packet import PACKET_OVERHEAD_BYTES, PACKET_PAYLOAD_BYTES, wire_bytes
from repro.sim import Environment


def make_link(env, conditions=None, seed=0, cap=131_072.0):
    box = ConditionBox(conditions or LinkConditions())
    return Link(env, np.random.default_rng(seed), box, queue_bytes_cap=cap), box


# ----------------------------------------------------------------------
# packetization
# ----------------------------------------------------------------------
def test_packets_for_boundaries():
    assert packets_for(0) == 1
    assert packets_for(1) == 1
    assert packets_for(PACKET_PAYLOAD_BYTES) == 1
    assert packets_for(PACKET_PAYLOAD_BYTES + 1) == 2


def test_packets_for_negative_rejected():
    with pytest.raises(ValueError):
        packets_for(-1)


def test_wire_bytes_adds_per_packet_overhead():
    assert wire_bytes(PACKET_PAYLOAD_BYTES) == (
        PACKET_PAYLOAD_BYTES + PACKET_OVERHEAD_BYTES
    )


# ----------------------------------------------------------------------
# conditions
# ----------------------------------------------------------------------
def test_conditions_validation():
    with pytest.raises(ValueError):
        LinkConditions(bandwidth=0)
    with pytest.raises(ValueError):
        LinkConditions(loss=1.0)
    with pytest.raises(ValueError):
        LinkConditions(propagation_delay=-1)


def test_packet_time_matches_bandwidth():
    cond = LinkConditions(bandwidth=10.0)
    expected = (1448 + PACKET_OVERHEAD_BYTES) * 8.0 / (10.0 * BANDWIDTH_UNIT_BPS)
    assert cond.packet_time(1448) == pytest.approx(expected)


def test_condition_box_notifies_listeners():
    box = ConditionBox(LinkConditions())
    seen = []
    box.subscribe(seen.append)
    new = LinkConditions(bandwidth=4.0)
    box.set(new)
    assert seen == [new]
    assert box.conditions is new


# ----------------------------------------------------------------------
# delivery timing
# ----------------------------------------------------------------------
def test_lossless_delivery_time_is_serialization_plus_propagation():
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    nbytes = 11_700
    arrived = {}
    link.send(nbytes, "frame", lambda p: arrived.setdefault("t", env.now))
    env.run(until=5.0)
    n_pkts = packets_for(nbytes)
    serialization = sum(
        cond.packet_time(min(PACKET_PAYLOAD_BYTES, nbytes - i * PACKET_PAYLOAD_BYTES))
        for i in range(n_pkts)
    )
    assert arrived["t"] == pytest.approx(serialization + cond.propagation_delay, rel=1e-6)


def test_frames_queue_behind_each_other():
    env = Environment()
    cond = LinkConditions(bandwidth=1.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    times = []
    link.send(11_700, "a", lambda p: times.append(env.now))
    link.send(11_700, "b", lambda p: times.append(env.now))
    env.run(until=5.0)
    assert len(times) == 2
    # second frame waits the first one's full serialization
    assert times[1] - times[0] > 0.2


def test_dead_link_violates_250ms_deadline():
    """Calibration invariant: at bw=1 no frame can make the deadline."""
    env = Environment()
    cond = LinkConditions(bandwidth=1.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    arrived = {}
    link.send(11_700, "f", lambda p: arrived.setdefault("t", env.now))
    env.run(until=5.0)
    assert arrived["t"] > 0.250


def test_good_link_fits_30fps_within_deadline():
    """Calibration invariant: bw=10 sustains 30 fps well under 250 ms."""
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    times = []

    def sender(env, link):
        for i in range(60):
            link.send(11_700, i, lambda p: times.append(env.now))
            yield env.timeout(1 / 30)

    env.process(sender(env, link))
    env.run(until=10.0)
    assert len(times) == 60
    # steady-state inter-arrival == frame period (no queue growth)
    gaps = np.diff(times[10:])
    assert gaps.mean() == pytest.approx(1 / 30, rel=0.05)


def test_queue_overflow_drops_and_counts():
    env = Environment()
    cond = LinkConditions(bandwidth=1.0, loss=0.0, jitter_sigma=0.0)
    link, _ = make_link(env, cond, cap=30_000)
    delivered = []
    for i in range(10):
        link.send(11_700, i, lambda p: delivered.append(p))
    env.run(until=60.0)
    assert link.stats.frames_dropped_overflow > 0
    assert (
        link.stats.frames_delivered + link.stats.frames_dropped_overflow
        == link.stats.frames_sent
    )
    # FIFO survivors
    assert delivered == sorted(delivered)


def test_loss_inflates_delivery_time():
    cond_clean = LinkConditions(bandwidth=10.0, loss=0.0, jitter_sigma=0.0)
    cond_lossy = LinkConditions(bandwidth=10.0, loss=0.30, jitter_sigma=0.0)

    def one_delivery(cond, seed):
        env = Environment()
        link, _ = make_link(env, cond, seed=seed)
        t = {}
        link.send(11_700, "f", lambda p: t.setdefault("at", env.now))
        env.run(until=30.0)
        return t.get("at")

    clean = one_delivery(cond_clean, 0)
    lossy = [one_delivery(cond_lossy, s) for s in range(12)]
    lossy = [t for t in lossy if t is not None]
    assert lossy, "all frames abandoned at 30% loss is implausible"
    assert np.mean(lossy) > clean


def test_extreme_loss_abandons_frames():
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=0.95, jitter_sigma=0.0)
    link, _ = make_link(env, cond)
    delivered = []
    for i in range(5):
        link.send(11_700, i, lambda p: delivered.append(p))
    env.run(until=300.0)
    assert link.stats.frames_dropped_loss > 0


def test_condition_change_applies_to_next_frame():
    env = Environment()
    link, box = make_link(env, LinkConditions(bandwidth=1.0, jitter_sigma=0.0))
    times = {}

    link.send(11_700, "slow-start", lambda p: times.setdefault("a", env.now))
    env.run(until=2.0)
    box.set(LinkConditions(bandwidth=10.0, jitter_sigma=0.0))
    link.send(11_700, "fast", lambda p: times.setdefault("b", env.now))
    env.run(until=4.0)
    assert times["b"] - 2.0 < times["a"] / 2


def test_negative_payload_rejected():
    env = Environment()
    link, _ = make_link(env)
    with pytest.raises(ValueError):
        link.send(-1, "x", lambda p: None)


# ----------------------------------------------------------------------
# conservation property
# ----------------------------------------------------------------------
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40_000), min_size=1, max_size=30),
    loss=st.sampled_from([0.0, 0.05, 0.3]),
    seed=st.integers(min_value=0, max_value=2**16),
)
@settings(max_examples=40, deadline=None)
def test_every_frame_is_delivered_or_dropped_exactly_once(sizes, loss, seed):
    env = Environment()
    cond = LinkConditions(bandwidth=10.0, loss=loss, jitter_sigma=0.0)
    link, _ = make_link(env, cond, seed=seed, cap=80_000)
    delivered = []
    for i, nbytes in enumerate(sizes):
        link.send(nbytes, i, lambda p: delivered.append(p))
    env.run(until=3600.0)
    stats = link.stats
    assert stats.frames_sent == len(sizes)
    assert stats.frames_delivered == len(delivered)
    assert stats.frames_delivered + stats.dropped == stats.frames_sent
    assert sorted(set(delivered)) == sorted(delivered)  # no duplicates
    # with zero jitter, survivors arrive in FIFO order
    assert delivered == sorted(delivered)


# ----------------------------------------------------------------------
# per-frame fast path vs the per-packet reference (REPRO_SIM_SLOWPATH)
# ----------------------------------------------------------------------
def _env(slowpath):
    with mock.patch.dict(os.environ):
        os.environ.pop("REPRO_SIM_SLOWPATH", None)
        if slowpath:
            os.environ["REPRO_SIM_SLOWPATH"] = "1"
        env = Environment()
    assert env.slowpath is slowpath
    return env


def _drive(slowpath, frames, first, second, switch_at, seed):
    """Send ``frames`` (size, gap) through one link, switching the
    conditions from ``first`` to ``second`` at ``switch_at``; drain."""
    env = _env(slowpath)
    link, box = make_link(env, first, seed=seed, cap=60_000)
    delivered, overflowed = [], set()

    def sender():
        for i, (nbytes, gap) in enumerate(frames):
            if not link.send(nbytes, i, lambda p: delivered.append((env.now, p))):
                overflowed.add(i)
            yield env.timeout(gap)

    def switcher():
        yield env.timeout(switch_at)
        box.set(second)

    env.process(sender())
    env.process(switcher())
    env.run()
    got = {p for _, p in delivered}
    lost = set(range(len(frames))) - got - overflowed
    # env.now after draining is the last frame's end on the wire, which
    # also pins when an abandoned last frame gave up
    rng_state = link.rng.bit_generator.state
    return delivered, overflowed, lost, link.stats, rng_state, env.now


_conditions = st.builds(
    LinkConditions,
    bandwidth=st.sampled_from([1.0, 4.0, 10.0]),
    loss=st.sampled_from([0.0, 0.05, 0.3]),
    loss_burst=st.sampled_from([1.0, 4.0]),
)


@given(
    frames=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40_000),
            st.sampled_from([0.0, 0.01, 1 / 30, 0.1]),
        ),
        min_size=1,
        max_size=25,
    ),
    first=_conditions,
    second=_conditions,
    switch_at=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**16),
)
# bursty loss abandons frames 0 and 1 at seed 7 with 2 more queued
# behind them, so the instant of each give-up shows in later deliveries
@example(
    frames=[(12_000, 0.0)] * 4,
    first=LinkConditions(loss=0.3, loss_burst=4.0),
    second=LinkConditions(loss=0.3, loss_burst=4.0),
    switch_at=0.5,
    seed=7,
)
@settings(max_examples=60, deadline=None)
def test_per_frame_serializer_matches_per_packet_reference(
    frames, first, second, switch_at, seed
):
    fast = _drive(False, frames, first, second, switch_at, seed)
    slow = _drive(True, frames, first, second, switch_at, seed)
    # floats compared with ==: the fast path must land on the very
    # same instants, not merely close ones
    assert fast == slow


def test_link_stats_credit_a_frame_when_it_is_dequeued():
    """The per-frame path credits every packet of a frame at dequeue;
    the reference credits them one attempt at a time.  The two agree
    once the link drains, but not while a frame is on the wire."""
    cond = LinkConditions(bandwidth=1.0, jitter_sigma=0.0)
    nbytes = 11_700
    n_pkts = packets_for(nbytes)
    mid = cond.packet_time() * 2.5  # inside the third packet
    readings = {}
    for slowpath in (False, True):
        env = _env(slowpath)
        link, _ = make_link(env, cond)
        link.send(nbytes, "f", lambda p: None)
        env.run(until=mid)
        during = link.stats.packets_sent
        env.run()
        readings[slowpath] = (during, link.stats)
    assert readings[False][0] == n_pkts
    assert readings[True][0] == 3
    assert readings[False][1] == readings[True][1]
    assert readings[False][1].packets_sent == n_pkts
