"""RateLimitedMDP offline solver: reference equality, Bellman conformance,
convergence contract and a work-count guard.

The solver in :class:`~repro.control.zoo.RateLimitedMDPController`
resolves every (state, action) entry once and then sweeps a flat list.
:func:`_reference_value_iterate` below is the straightforward nested
form it replaced (re-quantising the successor bucket on every sweep);
the property test holds the two bit-identical, so controller decisions
and every golden that includes the MDP are untouched by the rewrite.
"""

import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.control.zoo import RateLimitedMDPController, zoo_controllers
from repro.device.config import DeviceConfig

DEFAULT_FRACS = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0)


def _reference_value_iterate(ctrl):
    """Nested-generator value iteration: ``(value, policy)``."""
    nb, ns = ctrl.bucket_levels, ctrl.staleness_levels
    levels = [ctrl.burst * i / (nb - 1) for i in range(nb)]
    actions = [f * ctrl.fill_rate for f in ctrl.action_fracs]
    table = [
        [[ctrl._step_model(levels[i], j, a) for a in actions] for j in range(ns)]
        for i in range(nb)
    ]

    def q_value(entry, value):
        reward, nt, branches = entry
        ni = ctrl._level(nt)
        future = sum(p * value[ni][nj] for p, nj in branches if p > 0.0)
        return reward + ctrl.discount * future

    value = [[0.0] * ns for _ in range(nb)]
    for _ in range(max(500, math.ceil(50 / (1.0 - ctrl.discount)))):
        delta = 0.0
        for i in range(nb):
            for j in range(ns):
                best = max(q_value(entry, value) for entry in table[i][j])
                delta = max(delta, abs(best - value[i][j]))
                value[i][j] = best
        if delta < ctrl._VI_TOL:
            break

    policy = [[0.0] * ns for _ in range(nb)]
    for i in range(nb):
        for j in range(ns):
            best_q, best_a = -math.inf, 0.0
            for k, entry in enumerate(table[i][j]):
                q = q_value(entry, value)
                if q > best_q + 1e-12:
                    best_q, best_a = q, actions[k]
            policy[i][j] = best_a
    return value, policy


def _bits(table):
    return [[struct.pack("d", v) for v in row] for row in table]


def _default_mdp():
    return zoo_controllers()["RateLimitedMDP"](DeviceConfig())


def _q_values(ctrl, value, i, j):
    """Every action's q-value at state (i, j) against a fixed value table."""
    nb = ctrl.bucket_levels
    tokens = ctrl.burst * i / (nb - 1)
    qs = []
    for f in ctrl.action_fracs:
        reward, nt, branches = ctrl._step_model(tokens, j, f * ctrl.fill_rate)
        ni = ctrl._level(nt)
        future = sum(p * value[ni][nj] for p, nj in branches if p > 0.0)
        qs.append(reward + ctrl.discount * future)
    return qs


def _bellman_residual(ctrl):
    """Largest move of one Jacobi Bellman backup of the solved table."""
    value = ctrl.value_table
    return max(
        abs(max(_q_values(ctrl, value, i, j)) - value[i][j])
        for i in range(ctrl.bucket_levels)
        for j in range(ctrl.staleness_levels)
    )


# ----------------------------------------------------------------------
# equality with the reference solver
# ----------------------------------------------------------------------
@settings(max_examples=100, deadline=None)
@given(
    frame_rate=st.floats(1.0, 60.0),
    bucket_levels=st.integers(2, 12),
    staleness_levels=st.integers(2, 8),
    discount=st.floats(0.5, 0.95),
    p_floor=st.floats(0.01, 1.0),
    fail_cost=st.floats(0.0, 3.0),
    overdraft_penalty=st.floats(0.0, 5.0),
    staleness_cost=st.floats(0.0, 1.0),
    action_fracs=st.lists(
        st.sampled_from(DEFAULT_FRACS), min_size=1, unique=True
    ).map(tuple),
)
def test_solver_is_bit_identical_to_reference(
    frame_rate,
    bucket_levels,
    staleness_levels,
    discount,
    p_floor,
    fail_cost,
    overdraft_penalty,
    staleness_cost,
    action_fracs,
):
    ctrl = RateLimitedMDPController(
        frame_rate,
        bucket_levels=bucket_levels,
        staleness_levels=staleness_levels,
        action_fracs=action_fracs,
        overdraft_penalty=overdraft_penalty,
        staleness_cost=staleness_cost,
        fail_cost=fail_cost,
        p_floor=p_floor,
        discount=discount,
    )
    value, policy = _reference_value_iterate(ctrl)
    assert _bits(ctrl.value_table) == _bits(value)  # sign of zero counts
    assert ctrl._policy == policy


def test_default_policy_table_is_pinned():
    # rows: bucket level 0..8 (0..24 tokens); columns: staleness 0..5.
    # Not monotone in occupancy: at staleness 0, level 0 spends 12 fps
    # and level 1 spends 3; at staleness 1, levels 2->3 and 4->5 drop
    # from 6 to 3 (docs/controllers.md).
    assert _default_mdp()._policy == [
        [12.0, 6.0, 3.0, 3.0, 3.0, 3.0],
        [3.0, 3.0, 3.0, 3.0, 3.0, 3.0],
        [18.0, 6.0, 3.0, 3.0, 3.0, 3.0],
        [18.0, 3.0, 3.0, 3.0, 3.0, 3.0],
        [24.0, 6.0, 6.0, 3.0, 3.0, 3.0],
        [24.0, 3.0, 3.0, 3.0, 3.0, 3.0],
        [24.0, 6.0, 6.0, 6.0, 3.0, 3.0],
        [24.0, 12.0, 6.0, 6.0, 3.0, 3.0],
        [24.0, 12.0, 12.0, 12.0, 3.0, 3.0],
    ]


# ----------------------------------------------------------------------
# Bellman conformance of the zoo default
# ----------------------------------------------------------------------
def test_value_table_is_read_only_shape():
    ctrl = _default_mdp()
    table = ctrl.value_table
    assert isinstance(table, tuple) and all(isinstance(r, tuple) for r in table)
    assert len(table) == ctrl.bucket_levels
    assert {len(r) for r in table} == {ctrl.staleness_levels}


def test_value_table_is_a_bellman_fixed_point():
    assert _bellman_residual(_default_mdp()) <= 1e-9  # 8.7e-11 on record


def test_stored_actions_are_greedy_within_tie_tolerance():
    ctrl = _default_mdp()
    actions = [f * ctrl.fill_rate for f in ctrl.action_fracs]
    for i in range(ctrl.bucket_levels):
        for j in range(ctrl.staleness_levels):
            qs = _q_values(ctrl, ctrl.value_table, i, j)
            stored = qs[actions.index(ctrl._policy[i][j])]
            assert max(qs) - stored <= 1e-12, (i, j)


# ----------------------------------------------------------------------
# convergence contract
# ----------------------------------------------------------------------
def test_high_discount_converges():
    # a fixed 500-sweep cap stopped here at delta 5.6e-3 and returned
    # the unconverged table silently
    ctrl = RateLimitedMDPController(30.0, discount=0.99)
    assert _bellman_residual(ctrl) <= 1e-9


def test_unconverged_solve_raises():
    class NeverConverges(RateLimitedMDPController):
        _VI_TOL = 0.0

    with pytest.raises(RuntimeError, match=r"discount=0\.9.*501 sweeps"):
        NeverConverges(30.0)


# ----------------------------------------------------------------------
# work-count guard
# ----------------------------------------------------------------------
def test_construction_quantises_each_entry_once(monkeypatch):
    calls = []
    level = RateLimitedMDPController._level

    def counting_level(self, tokens):
        calls.append(tokens)
        return level(self, tokens)

    monkeypatch.setattr(RateLimitedMDPController, "_level", counting_level)
    ctrl = _default_mdp()
    entries = ctrl.bucket_levels * ctrl.staleness_levels * len(ctrl.action_fracs)
    assert entries == 324
    # per-sweep re-quantisation made 75,492 calls here
    assert len(calls) <= 2 * entries
