"""Single-step detector state machines.

Three detector families share one small value-type state:

* plain CuSum: ``c' = max(0, c + llr)``, alarm on ``c' > a`` (strict);
* CuSum-AC: censored increments chosen by the active level, a reset that
  clamps the statistic to the highest level threshold crossed from below,
  and an inclusive alarm ``s' >= a``;
* random-transmission CuSum: each observation is forwarded with probability
  ``epsilon`` independently of its value, an unsent slot contributing zero
  (the send decision carries no likelihood information).

The strict/inclusive threshold distinction is deliberate and preserved even
though it is immaterial for continuous observation models.  All step
functions are pure: state in, new state out.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .censoring import CensoringStrategy, optimize
from .model import as_pairs

__all__ = [
    "CusumSpec",
    "RandomTxSpec",
    "Level",
    "CusumAcConfig",
    "DetectorState",
    "two_level",
    "n_level",
    "initial_state",
    "cusum_step",
    "cusum_ac_step",
    "cusum_ac_multi_step",
    "random_tx_cusum_step",
    "simulate_trace",
]


@dataclass(frozen=True)
class CusumSpec:
    """Plain CuSum at threshold ``a`` (alarm on statistic > a)."""

    a: float

    def __post_init__(self):
        if not (self.a >= 0.0) or not math.isfinite(self.a):
            raise ValueError(f"threshold a must be a finite nonnegative real, got {self.a}")


@dataclass(frozen=True)
class RandomTxSpec:
    """CuSum fed through an observation-independent Bernoulli(epsilon) transmitter."""

    a: float
    epsilon: float

    def __post_init__(self):
        if not (self.a >= 0.0) or not math.isfinite(self.a):
            raise ValueError(f"threshold a must be a finite nonnegative real, got {self.a}")
        if not (0.0 <= self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in [0, 1], got {self.epsilon}")


@dataclass(frozen=True)
class Level:
    """One censoring level: below ``threshold`` sensors send at ``rate``.

    ``rate`` is a single number shared by all sensors or one rate per sensor
    (heterogeneous networks still switch levels together).
    """

    threshold: float
    rate: object  # float, or tuple of per-sensor floats

    def rates(self, n_sensors: int) -> tuple[float, ...]:
        if isinstance(self.rate, (tuple, list)):
            if len(self.rate) != n_sensors:
                raise ValueError(
                    f"level at {self.threshold} has {len(self.rate)} rates for "
                    f"{n_sensors} sensors")
            return tuple(float(r) for r in self.rate)
        return (float(self.rate),) * n_sensors


@dataclass(frozen=True)
class CusumAcConfig:
    """CuSum-AC configuration: alarm threshold, censoring levels, strategies.

    ``levels`` lists the censored levels by strictly decreasing threshold;
    the region at or above ``levels[0].threshold`` always transmits at full
    rate.  ``strategies[n][m]`` is the strategy of level ``n`` at sensor
    ``m`` (every level carries one strategy per sensor, so heterogeneous
    per-sensor rates are allowed; all sensors switch level together).
    """

    a: float
    levels: tuple[Level, ...]
    strategies: tuple[tuple[CensoringStrategy, ...], ...]

    def __post_init__(self):
        if not self.levels:
            raise ValueError("CusumAcConfig needs at least one censoring level")
        thresholds = [lv.threshold for lv in self.levels]
        if not all(t > 0.0 for t in thresholds):
            raise ValueError("level thresholds must be positive")
        if any(t2 >= t1 for t1, t2 in zip(thresholds, thresholds[1:])):
            raise ValueError("level thresholds must be strictly decreasing")
        if thresholds[0] >= self.a:
            raise ValueError(
                f"top level threshold {thresholds[0]} must lie below the alarm threshold {self.a}"
            )
        if len(self.strategies) != len(self.levels):
            raise ValueError("one strategy tuple per censoring level is required")
        m = len(self.strategies[0])
        if m == 0 or any(len(s) != m for s in self.strategies):
            raise ValueError("every level must carry the same number of per-sensor strategies")
        per_level_rates = [lv.rates(m) for lv in self.levels]
        for rates in per_level_rates:
            if not all(0.0 < r <= 1.0 for r in rates):
                raise ValueError("level rates must lie in (0, 1]")
        for upper, lower in zip(per_level_rates, per_level_rates[1:]):
            if any(lo > up for up, lo in zip(upper, lower)):
                raise ValueError("rates must be nonincreasing as thresholds decrease")
        for lv, rates, per_sensor in zip(self.levels, per_level_rates, self.strategies):
            for rate, strat in zip(rates, per_sensor):
                if strat.rate != rate:
                    raise ValueError(
                        f"strategy rate {strat.rate} does not match level rate {rate}"
                    )

    @property
    def n_levels(self) -> int:
        """Total number of censoring modes, the full-rate region included."""
        return len(self.levels) + 1

    @property
    def n_sensors(self) -> int:
        return len(self.strategies[0])

    @property
    def a1(self) -> float:
        return self.levels[0].threshold

    def thresholds(self) -> tuple[float, ...]:
        return tuple(lv.threshold for lv in self.levels)

    def level_of(self, s: float) -> int:
        """Index of the censoring level in force when the statistic is ``s``.

        0 is the full-rate region; level n >= 1 uses ``strategies[n-1]``.
        """
        return sum(1 for lv in self.levels if s < lv.threshold)

    def strategy(self, level: int, sensor: int = 0) -> CensoringStrategy:
        if level == 0:
            raise ValueError("level 0 is the implicit full-rate region")
        return self.strategies[level - 1][sensor]


def two_level(
    pair_or_pairs,
    a: float,
    a1: float,
    eps1,
    strategies: Optional[Sequence[CensoringStrategy]] = None,
) -> CusumAcConfig:
    """Two-level CuSum-AC config: full rate at or above ``a1``, rate ``eps1`` below.

    Accepts one pair or a list of per-sensor pairs; ``eps1`` may be a scalar
    (shared by all sensors) or one rate per sensor.  Precomputed strategies
    can be passed to skip the optimizer (they must match the rates).
    """
    pairs = as_pairs(pair_or_pairs)
    rates = list(eps1) if isinstance(eps1, (list, tuple)) else [eps1] * len(pairs)
    if len(rates) != len(pairs):
        raise ValueError("need one censoring rate per sensor")
    if strategies is None:
        strategies = [optimize(p, r) for p, r in zip(pairs, rates)]
    elif len(strategies) != len(pairs):
        raise ValueError(f"got {len(strategies)} strategies for {len(pairs)} sensors")
    rate = rates[0] if len(set(rates)) == 1 else tuple(rates)
    return CusumAcConfig(
        a=a,
        levels=(Level(threshold=a1, rate=rate),),
        strategies=(tuple(strategies),),
    )


def n_level(pair, a: float, levels: Sequence[tuple[float, float]]) -> CusumAcConfig:
    """General single-sensor config from (threshold, rate) pairs, top level first."""
    lvls = tuple(Level(threshold=t, rate=r) for t, r in levels)
    strats = tuple((optimize(pair, lv.rate),) for lv in lvls)
    return CusumAcConfig(a=a, levels=lvls, strategies=strats)


@dataclass(frozen=True)
class DetectorState:
    """Running statistic plus stop flag and transmission/feedback bookkeeping.

    ``active_level`` is the censoring level in force for the next
    observation.  ``feedback_count`` counts strategy announcements to the
    sensors: the initial announcement (sensors default to full rate, so any
    other starting level costs one message) plus every later level switch.
    ``time_above_a1``/``time_below_a1`` partition the steps taken by whether
    the post-update statistic sits at or above the top level threshold.
    """

    s: float = 0.0
    active_level: int = 0
    stopped: bool = False
    stop_time: int = 0
    k: int = 0
    tx_count: int = 0
    feedback_count: int = 0
    time_above_a1: int = 0
    time_below_a1: int = 0


def initial_state(config: Optional[CusumAcConfig] = None, s0: float = 0.0) -> DetectorState:
    """Fresh state; for CuSum-AC the starting level is announced to the sensors."""
    if config is None:
        return DetectorState(s=s0)
    level = config.level_of(s0)
    return DetectorState(s=s0, active_level=level, feedback_count=1 if level != 0 else 0)


def _require_running(state: DetectorState):
    if state.stopped:
        raise ValueError("detector already stopped; cannot step a stopped detector")


def _cusum_update(state: DetectorState, inc: float, a: float, n_sent: int) -> DetectorState:
    s_new = max(0.0, state.s + inc)
    k = state.k + 1
    stopped = s_new > a
    return dataclasses.replace(
        state,
        s=s_new,
        k=k,
        stopped=stopped,
        stop_time=k if stopped else state.stop_time,
        tx_count=state.tx_count + n_sent,
    )


def cusum_step(state: DetectorState, llr_value: float, a: float) -> DetectorState:
    """One plain-CuSum update; the detector sees (and is charged for) every observation."""
    _require_running(state)
    return _cusum_update(state, llr_value, a, 1)


def _ac_update(state: DetectorState, config: CusumAcConfig, fused_inc: float, n_sent: int
               ) -> DetectorState:
    s_tilde = max(0.0, state.s + fused_inc)
    s_new = s_tilde
    for lv in config.levels:  # descending thresholds: first hit is the highest crossed
        if state.s < lv.threshold <= s_tilde:
            s_new = lv.threshold
            break
    stopped = s_new >= config.a
    new_level = config.level_of(s_new)
    k = state.k + 1
    above = s_new >= config.a1
    return dataclasses.replace(
        state,
        s=s_new,
        active_level=new_level,
        stopped=stopped,
        stop_time=k if stopped else state.stop_time,
        k=k,
        tx_count=state.tx_count + n_sent,
        feedback_count=state.feedback_count + (1 if new_level != state.active_level else 0),
        time_above_a1=state.time_above_a1 + (1 if above else 0),
        time_below_a1=state.time_below_a1 + (0 if above else 1),
    )


def cusum_ac_step(state: DetectorState, config: CusumAcConfig, x: float, pair
                  ) -> tuple[DetectorState, bool]:
    """One CuSum-AC update for a single sensor; returns (state, sent).

    The M = 1 case of :func:`cusum_ac_multi_step`.
    """
    if config.n_sensors != 1:
        raise ValueError("config carries multiple sensors; use cusum_ac_multi_step")
    state, sent = cusum_ac_multi_step(state, config, [x], [pair])
    return state, sent[0]


def cusum_ac_multi_step(state: DetectorState, config: CusumAcConfig, xs, pairs
                        ) -> tuple[DetectorState, list[bool]]:
    """One fused CuSum-AC update over M sensors; returns (state, per-sensor sent).

    All sensors use the level selected by the fused statistic, and the fused
    increment is the sum of the per-sensor censored LLRs.
    """
    _require_running(state)
    if len(xs) != len(pairs):
        raise ValueError("xs and pairs must have the same length")
    if len(xs) != config.n_sensors:
        raise ValueError(
            f"config has {config.n_sensors} sensors but {len(xs)} observations were given"
        )
    level = state.active_level
    sent: list[bool] = []
    fused = 0.0
    for m, (x, pair) in enumerate(zip(xs, pairs)):
        if level == 0:
            sent_m = True
            inc_m = float(pair.llr(x))
        else:
            strat = config.strategy(level, m)
            sent_m = strat.apply(x)
            inc_m = float(pair.llr(x)) if sent_m else strat.llr_censored
        sent.append(bool(sent_m))
        fused += inc_m
    return _ac_update(state, config, fused, sum(sent)), sent


def random_tx_cusum_step(state: DetectorState, x: float, pair, epsilon: float, a: float,
                         rng: np.random.Generator) -> tuple[DetectorState, bool]:
    """One random-transmission CuSum update; the Bernoulli draw comes from ``rng``."""
    _require_running(state)
    if not (0.0 <= epsilon <= 1.0):
        raise ValueError(f"epsilon must lie in [0, 1], got {epsilon}")
    sent = bool(rng.random() < epsilon)
    inc = float(pair.llr(x)) if sent else 0.0
    return _cusum_update(state, inc, a, int(sent)), sent


def simulate_trace(detector, pair, nu: Optional[int], horizon: int, seed: int):
    """Per-step trace records of one single-sensor run.

    Observations come from the pre-change law for steps k < nu and from the
    post-change law from k = nu on (nu None means the change never happens).
    Returns a list of dicts with keys k, s, level, sent, stopped; the run
    ends at the alarm or after ``horizon`` steps.  The run is replication 0
    of a recorded engine batch under ``seed``, so it sees the observations
    of replication 0 of every batch under that seed.
    """
    from . import _engine  # _engine imports this module

    batch = _engine.run_batch(detector, [pair], n_reps=1, seed=seed, nu=nu, limit=horizon,
                              record=True)
    recs = batch.records
    return [
        {
            "k": k + 1,
            "s": float(recs["s"][k, 0]),
            "level": int(recs["level"][k, 0]),
            "sent": int(recs["sent"][k, 0, 0]),
            "stopped": int(recs["stopped"][k, 0]),
        }
        for k in range(int(batch.stop_time[0]))
    ]
