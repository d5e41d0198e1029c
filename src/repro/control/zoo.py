"""The controller zoo: rate-limited offloading policies + the registry.

Two genuinely different policies from the offloading literature join
the FrameFeedback lineup, both built against the same
:class:`~repro.control.base.Controller` seam:

* :class:`TokenBucketOptimalController` — the threshold structure of
  the *optimal* offloading policy under a token-bucket rate constraint
  (Chakrabarti et al., arXiv:2010.13737).  The device pays for
  offloads from a ``(fill_rate, burst)`` bucket; the policy spends
  burst only above an occupancy threshold and conserves tokens when
  recent offloads are timing out (spending on frames that miss the
  deadline wastes the budget the policy is optimizing).
* :class:`RateLimitedMDPController` — the rate-limited MDP variant
  (Qiu et al., arXiv:2208.00485): value iteration over a discretized
  ``(bucket occupancy, feedback staleness)`` state space, precomputed
  *offline* in the constructor (the model is a pure function of the
  parameters, no RNG), with a table lookup online.

Neither policy closes the loop on the timeout rate the way the PD law
does — the token bucket enforces an average-rate budget and the MDP
plans against a fixed offline model — which is exactly what makes them
worth racing in the tournament (:mod:`repro.experiments.tournament`).

:func:`zoo_controllers` is the **device-local registry**: every member
is a one-argument factory (``factory(DeviceConfig) -> Controller``),
so the whole zoo is constructible without testbed wiring.  The fuzz
suite and the conformance battery (``tests/test_controller_conformance
.py``) iterate this registry — a controller added here is automatically
fuzzed, conformance-tested, and tournament-eligible; context-needing
controllers (Oracle, Reservation) stay outside it by design.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.control.base import Controller, Measurement
from repro.control.validity import sanitize_timeout_rate


def _finite(value: float, lo: float, hi: float, default: float = 0.0) -> float:
    """Clamp a possibly-degraded measured quantity into ``[lo, hi]``."""
    if value is None or not math.isfinite(value):
        return default
    return min(max(value, lo), hi)


# ----------------------------------------------------------------------
# Chakrabarti et al. (2010.13737): token-bucket threshold policy
# ----------------------------------------------------------------------
class TokenBucketOptimalController(Controller):
    """Threshold policy on bucket occupancy under a token-bucket budget.

    The bucket fills at ``fill_rate`` tokens/s (one token = one
    offloaded frame) up to ``burst`` tokens; measured offload attempts
    debit it.  The paper's optimal policy is a *threshold* on bucket
    state — spend liberally when tokens are plentiful, conserve when
    they are scarce — which the rate seam expresses as:

    * occupancy >= ``threshold_frac``: pay the fill rate plus enough of
      the surplus above the threshold to drain it within one period
      (``spend_frac`` of it);
    * occupancy < threshold: taper linearly below the fill rate so the
      bucket refills toward the threshold;
    * windowed timeout rate above ``t_tolerance``: withhold burst
      spending entirely — a token spent on a frame that misses its
      deadline is a token wasted, so the budget waits out the
      impairment (this is the only feedback the policy consumes).
    """

    name = "TokenBucket"

    def __init__(
        self,
        frame_rate: float,
        fill_rate: Optional[float] = None,
        burst: Optional[float] = None,
        threshold_frac: float = 0.5,
        spend_frac: float = 1.0,
        t_tolerance: float = 0.5,
        period: float = 1.0,
    ) -> None:
        if frame_rate <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate}")
        self.frame_rate = frame_rate
        self.fill_rate = 0.4 * frame_rate if fill_rate is None else fill_rate
        if self.fill_rate <= 0:
            raise ValueError(f"fill rate must be positive, got {self.fill_rate}")
        self.burst = 2.0 * self.fill_rate if burst is None else burst
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if not 0.0 < threshold_frac <= 1.0:
            raise ValueError(
                f"threshold fraction must be in (0, 1], got {threshold_frac}"
            )
        if not 0.0 < spend_frac <= 1.0:
            raise ValueError(f"spend fraction must be in (0, 1], got {spend_frac}")
        if t_tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {t_tolerance}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.threshold_frac = threshold_frac
        self.spend_frac = spend_frac
        self.t_tolerance = t_tolerance
        self.period = period
        self._tokens = self.burst  # start with a full budget

    # ------------------------------------------------------------------
    @property
    def tokens(self) -> float:
        """Current bucket occupancy (observability)."""
        return self._tokens

    def reset(self) -> None:
        self._tokens = self.burst

    def _policy(self, tokens: float, t_rate: float) -> float:
        """The threshold policy's rate for a bucket state + T reading."""
        threshold = self.threshold_frac * self.burst
        conserve = self.fill_rate * min(tokens / threshold, 1.0)
        if t_rate > self.t_tolerance:
            # impaired: never spend burst, at most the sustainable rate
            return min(conserve, self.fill_rate)
        if tokens >= threshold:
            surplus = (tokens - threshold) * self.spend_frac / self.period
            return self.fill_rate + surplus
        return conserve

    def initial_target(self, frame_rate: float) -> float:
        return min(max(self._policy(self._tokens, 0.0), 0.0), self.frame_rate)

    def update(self, measurement: Measurement) -> float:
        dt = self.period
        t_rate, _ = sanitize_timeout_rate(measurement.timeout_rate, self.frame_rate)
        spent = _finite(measurement.offload_rate, 0.0, self.frame_rate) * dt
        self._tokens = min(
            max(self._tokens + self.fill_rate * dt - spent, 0.0), self.burst
        )
        target = self._policy(self._tokens, t_rate)
        return min(max(target, 0.0), self.frame_rate)

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"tokens": self._tokens}

    def restore_state(self, state: dict) -> None:
        self._tokens = min(max(float(state["tokens"]), 0.0), self.burst)


# ----------------------------------------------------------------------
# Qiu et al. (2208.00485): rate-limited MDP, value-iterated offline
# ----------------------------------------------------------------------
class RateLimitedMDPController(Controller):
    """Table-lookup policy from offline value iteration.

    State space: ``bucket_levels`` quantized token levels x
    ``staleness_levels`` counts of consecutive periods without fresh
    successful-offload feedback.  Actions: offload rates as multiples
    of the fill rate.  The offline model (a pure function of the
    constructor parameters — no RNG; the stochasticity lives in the
    transition *probabilities* value iteration sums over):

    * offloads succeed with probability ``p_ok(staleness)``, linearly
      decaying from 1 toward ``p_floor`` — the Qiu et al. framing where
      stale edge feedback makes offloading risky;
    * reward = expected successful payments minus ``fail_cost`` per
      expected failed one, minus ``overdraft_penalty`` per attempted
      frame beyond the budget (those would violate the rate limit),
      minus a staleness carrying cost — so at high staleness the
      optimal action is a *cheap probe* (small spend, big reset value)
      rather than a full burst, and at staleness 0 it is to spend;
    * bucket transition: refill minus payment (tokens are spent whether
      or not the offload succeeds), clamped and re-quantized;
    * staleness transition: a payment of at least ``stale_reset_rate``
      frames/s resets staleness with probability ``p_ok``; otherwise
      staleness increments (saturating).

    Online, the controller tracks the same two state variables from
    measurements and looks the action up; the emitted target is
    additionally capped by the tokens actually available so the policy
    can never ask for more than the budget covers.
    """

    name = "RateLimitedMDP"

    #: offline value iteration stops once a sweep moves no entry by this much
    _VI_TOL = 1e-10
    #: sweep cap floor; the cap is ``max(this, ceil(50 / (1 - discount)))``
    #: and reaching it raises rather than returning an unconverged table
    _VI_MIN_SWEEPS = 500

    def __init__(
        self,
        frame_rate: float,
        fill_rate: Optional[float] = None,
        burst: Optional[float] = None,
        bucket_levels: int = 9,
        staleness_levels: int = 6,
        action_fracs: Tuple[float, ...] = (0.0, 0.25, 0.5, 1.0, 1.5, 2.0),
        overdraft_penalty: float = 2.0,
        staleness_cost: float = 0.25,
        fail_cost: float = 1.0,
        p_floor: float = 0.2,
        stale_reset_rate: float = 1.0,
        t_tolerance: float = 0.5,
        discount: float = 0.9,
        period: float = 1.0,
    ) -> None:
        if frame_rate <= 0:
            raise ValueError(f"frame rate must be positive, got {frame_rate}")
        self.frame_rate = frame_rate
        self.fill_rate = 0.4 * frame_rate if fill_rate is None else fill_rate
        if self.fill_rate <= 0:
            raise ValueError(f"fill rate must be positive, got {self.fill_rate}")
        self.burst = 2.0 * self.fill_rate if burst is None else burst
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        if bucket_levels < 2 or staleness_levels < 2:
            raise ValueError("need >= 2 bucket and staleness levels")
        if not action_fracs or any(f < 0 for f in action_fracs):
            raise ValueError(f"action fractions must be >= 0, got {action_fracs}")
        if not 0.0 < discount < 1.0:
            raise ValueError(f"discount must be in (0, 1), got {discount}")
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 < p_floor <= 1.0:
            raise ValueError(f"p_floor must be in (0, 1], got {p_floor}")
        self.bucket_levels = bucket_levels
        self.staleness_levels = staleness_levels
        self.action_fracs = tuple(action_fracs)
        self.overdraft_penalty = overdraft_penalty
        self.staleness_cost = staleness_cost
        self.fail_cost = fail_cost
        self.p_floor = p_floor
        self.stale_reset_rate = stale_reset_rate
        self.t_tolerance = t_tolerance
        self.discount = discount
        self.period = period

        self._tokens = self.burst
        self._staleness = 0
        #: policy table, ``_policy[bucket_index][staleness_index]`` ->
        #: offload rate (frames/s); filled by offline value iteration
        value, self._policy = self._value_iterate()
        self._value_table = tuple(tuple(row) for row in value)

    # ------------------------------------------------------------------
    # offline planning (pure function of the constructor parameters)
    # ------------------------------------------------------------------
    def _level(self, tokens: float) -> int:
        """Nearest quantized bucket level for an occupancy."""
        frac = min(max(tokens / self.burst, 0.0), 1.0)
        return int(round(frac * (self.bucket_levels - 1)))

    def _p_ok(self, staleness: int) -> float:
        """Modeled offload success probability at a staleness level."""
        frac = staleness / (self.staleness_levels - 1)
        return 1.0 - (1.0 - self.p_floor) * frac

    def _step_model(self, tokens: float, staleness: int, rate: float):
        """One offline step: ``(reward, tokens', [(prob, staleness'), ...])``."""
        dt = self.period
        available = tokens + self.fill_rate * dt
        paid = min(rate * dt, available)
        overdraft = max(rate * dt - available, 0.0)
        stale_frac = staleness / (self.staleness_levels - 1)
        p_ok = self._p_ok(staleness)
        reward = (
            paid * (p_ok - self.fail_cost * (1.0 - p_ok))
            - self.overdraft_penalty * overdraft
            - self.staleness_cost * self.fill_rate * dt * stale_frac
        )
        next_tokens = min(max(available - paid, 0.0), self.burst)
        staler = min(staleness + 1, self.staleness_levels - 1)
        if paid >= self.stale_reset_rate * dt:
            branches = [(p_ok, 0), (1.0 - p_ok, staler)]
        else:
            branches = [(1.0, staler)]
        return reward, next_tokens, branches

    def _value_iterate(self) -> Tuple[List[List[float]], List[List[float]]]:
        """Gauss-Seidel value iteration; returns ``(value, policy)``.

        Every (state, action) entry is resolved once into a cell
        ``(reward, successor value row, live branches)``; a sweep then
        only does arithmetic.  The rows are updated in place, so a cell
        always reads the newest values, in i-then-j order.
        """
        nb, ns = self.bucket_levels, self.staleness_levels
        levels = [self.burst * i / (nb - 1) for i in range(nb)]
        actions = [f * self.fill_rate for f in self.action_fracs]
        discount = self.discount

        value = [[0.0] * ns for _ in range(nb)]
        sweep = []
        for i in range(nb):
            for j in range(ns):
                cells = []
                for a in actions:
                    reward, nt, branches = self._step_model(levels[i], j, a)
                    live = tuple((p, nj) for p, nj in branches if p > 0.0)
                    cells.append((reward, value[self._level(nt)], live))
                sweep.append((value[i], j, cells))

        # measured convergence takes ~23 / (1 - discount) sweeps
        max_sweeps = max(self._VI_MIN_SWEEPS, math.ceil(50 / (1.0 - discount)))
        for sweeps in range(1, max_sweeps + 1):
            delta = 0.0
            for row, j, cells in sweep:
                best = None
                for reward, succ, live in cells:
                    future = 0  # int start and left-to-right adds, as sum()
                    for p, nj in live:
                        future += p * succ[nj]
                    q = reward + discount * future
                    if best is None or q > best:  # first maximum, as max()
                        best = q
                change = abs(best - row[j])
                if change > delta:
                    delta = change
                row[j] = best
            if delta < self._VI_TOL:
                break
        else:
            raise RuntimeError(
                f"value iteration did not converge: discount={discount}, "
                f"{sweeps} sweeps, final delta {delta:.3g} "
                f"(tolerance {self._VI_TOL:g})"
            )

        policy = [[0.0] * ns for _ in range(nb)]
        for k, (_, j, cells) in enumerate(sweep):
            best_q, best_a = -math.inf, 0.0
            for a, (reward, succ, live) in zip(actions, cells):
                future = 0
                for p, nj in live:
                    future += p * succ[nj]
                q = reward + discount * future
                if q > best_q + 1e-12:  # first maximizer wins ties
                    best_q, best_a = q, a
            policy[k // ns][j] = best_a
        return value, policy

    # ------------------------------------------------------------------
    @property
    def value_table(self) -> Tuple[Tuple[float, ...], ...]:
        """The solved values, ``value_table[bucket_index][staleness_index]``."""
        return self._value_table

    @property
    def tokens(self) -> float:
        return self._tokens

    @property
    def staleness(self) -> int:
        return self._staleness

    def reset(self) -> None:
        self._tokens = self.burst
        self._staleness = 0

    def _lookup(self) -> float:
        rate = self._policy[self._level(self._tokens)][self._staleness]
        # never ask for more than the budget covers this period
        cap = self._tokens / self.period + self.fill_rate
        return min(max(min(rate, cap), 0.0), self.frame_rate)

    def initial_target(self, frame_rate: float) -> float:
        return self._lookup()

    def update(self, measurement: Measurement) -> float:
        dt = self.period
        spent = _finite(measurement.offload_rate, 0.0, self.frame_rate) * dt
        self._tokens = min(
            max(self._tokens + self.fill_rate * dt - spent, 0.0), self.burst
        )
        t_rate, _ = sanitize_timeout_rate(measurement.timeout_rate, self.frame_rate)
        success = _finite(measurement.offload_success_rate, 0.0, self.frame_rate)
        fresh = success * dt >= self.stale_reset_rate * dt and t_rate <= self.t_tolerance
        if fresh:
            self._staleness = 0
        else:
            self._staleness = min(self._staleness + 1, self.staleness_levels - 1)
        return self._lookup()

    # ------------------------------------------------------------------
    def snapshot_state(self) -> dict:
        return {"tokens": self._tokens, "staleness": self._staleness}

    def restore_state(self, state: dict) -> None:
        self._tokens = min(max(float(state["tokens"]), 0.0), self.burst)
        self._staleness = min(
            max(int(state["staleness"]), 0), self.staleness_levels - 1
        )


# ----------------------------------------------------------------------
# the device-local zoo registry
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ZooEntry:
    """One registered controller: factory + report/doc metadata."""

    #: registry name — must match the scenario-config controller name
    name: str
    #: one-argument factory (DeviceConfig -> Controller)
    factory: Callable
    #: one-line policy description (docs/controllers.md zoo table)
    policy: str
    #: what internal state the controller carries
    state: str
    #: paper citation, or the section of the source paper
    citation: str


def _zoo_entries() -> Tuple[ZooEntry, ...]:
    # imports are local so the registry never drags testbed wiring in
    from repro.control.aimd import AimdController
    from repro.control.baselines import (
        AllOrNothingController,
        AlwaysOffloadController,
        FixedRateController,
        LocalOnlyController,
    )
    from repro.control.framefeedback import FrameFeedbackController
    from repro.control.headroom import HeadroomController
    from repro.control.quality import AdaptiveQualityController

    return (
        ZooEntry(
            "FrameFeedback",
            lambda config: FrameFeedbackController(config.frame_rate),
            "piecewise PD law on the windowed timeout rate",
            "P_o target + PID history",
            "source paper §III (ipps 2024)",
        ),
        ZooEntry(
            "LocalOnly",
            lambda config: LocalOnlyController(),
            "never offload",
            "stateless",
            "source paper §IV-B.1",
        ),
        ZooEntry(
            "AlwaysOffload",
            lambda config: AlwaysOffloadController(),
            "offload every frame, ignore all feedback",
            "stateless",
            "source paper §IV-B.2",
        ),
        ZooEntry(
            "AllOrNothing",
            lambda config: AllOrNothingController(),
            "heartbeat-gated total offloading",
            "last probe outcome",
            "DeepDecision-style, source paper §IV-B.3",
        ),
        ZooEntry(
            "FixedRate",
            lambda config: FixedRateController(min(11.0, config.frame_rate)),
            "open-loop constant offload rate",
            "stateless",
            "characterization baseline (docs/controller.md)",
        ),
        ZooEntry(
            "AIMD",
            lambda config: AimdController(config.frame_rate),
            "additive increase / multiplicative decrease on violations",
            "current target",
            "TCP congestion-control analogue",
        ),
        ZooEntry(
            "Headroom",
            lambda config: HeadroomController(config.frame_rate, config.deadline),
            "latency-headroom-predictive FrameFeedback variant",
            "P_o target + PID history + RTT estimate",
            "extension (docs/controller.md)",
        ),
        ZooEntry(
            "FrameFeedback+Q",
            lambda config: AdaptiveQualityController(config.frame_rate),
            "FrameFeedback + JPEG-quality ladder",
            "P_o target + PID history + quality step",
            "source paper §II-D",
        ),
        ZooEntry(
            "TokenBucket",
            lambda config: TokenBucketOptimalController(config.frame_rate),
            "occupancy-threshold spending under a token-bucket budget",
            "bucket occupancy",
            "Chakrabarti et al., arXiv:2010.13737",
        ),
        ZooEntry(
            "RateLimitedMDP",
            lambda config: RateLimitedMDPController(config.frame_rate),
            "offline value iteration over (bucket, staleness); table lookup",
            "bucket occupancy + staleness counter",
            "Qiu et al., arXiv:2208.00485",
        ),
    )


def zoo_entries() -> Tuple[ZooEntry, ...]:
    """Every registered zoo member with its metadata."""
    return _zoo_entries()


def zoo_controllers() -> Dict[str, Callable]:
    """Device-local registry: name -> one-argument factory.

    Everything here is fuzzed (``tests/test_controller_fuzz.py``) and
    conformance-tested (``tests/test_controller_conformance.py``); the
    names resolve through :func:`repro.experiments.standard
    .extended_controllers`, so every member is also addressable from
    scenario configs and the tournament.
    """
    return {entry.name: entry.factory for entry in _zoo_entries()}
