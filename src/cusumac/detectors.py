"""Single-step detector state machines.

Three detector families share one small value-type state:

* plain CuSum: ``c' = max(0, c + llr)``, alarm on ``c' > a`` (strict);
* CuSum-AC: censored increments below the switching threshold a1, full-rate
  increments at or above it, a reset that clamps an upward crossing of a1
  to a1, and an inclusive alarm ``s' >= a``;
* random-transmission CuSum: each observation is forwarded with probability
  ``epsilon`` independently of its value, an unsent slot contributing zero
  (the send decision carries no likelihood information).

A CuSum-AC detector is exactly a :class:`CusumAcConfig`; :func:`two_level`
builds one whose strategies come from the memoized optimizer.  The
strict/inclusive threshold distinction is deliberate and preserved even
though it is immaterial for continuous observation models.  All step
functions are pure: state in, new state out.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .censoring import CensoringStrategy, optimize
from .model import as_pairs

__all__ = [
    "CusumSpec",
    "RandomTxSpec",
    "CusumAcConfig",
    "DetectorState",
    "two_level",
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
class CusumAcConfig:
    """Two-level CuSum-AC: alarm threshold ``a``, switching threshold ``a1``, strategies.

    At or above ``a1`` every sensor sends; below it sensor ``m`` censors
    with ``strategies[m]`` at that strategy's rate (heterogeneous per-sensor
    rates are allowed; all sensors switch together).  ``a`` may be infinite.
    """

    a: float
    a1: float
    strategies: tuple[CensoringStrategy, ...]

    def __post_init__(self):
        if math.isnan(self.a):
            raise ValueError("alarm threshold a must not be NaN")
        if not self.a1 > 0.0:
            raise ValueError(f"switching threshold a1 must be positive, got {self.a1}")
        if self.a1 >= self.a:
            raise ValueError(
                f"switching threshold {self.a1} must lie below the alarm threshold {self.a}"
            )
        if not self.strategies:
            raise ValueError("CusumAcConfig needs one censoring strategy per sensor")
        if not all(0.0 < st.rate <= 1.0 for st in self.strategies):
            raise ValueError("censoring rates must lie in (0, 1]")

    @property
    def n_sensors(self) -> int:
        return len(self.strategies)


def two_level(pair_or_pairs, a: float, a1: float, eps1) -> CusumAcConfig:
    """CuSum-AC config: full rate at or above ``a1``, rate ``eps1`` below.

    Accepts one pair or a list of per-sensor pairs; ``eps1`` may be a scalar
    (shared by all sensors) or one rate per sensor.  Each strategy comes from
    the memoized :func:`cusumac.censoring.optimize`, so configs built on the
    same pairs and rates share their strategy objects.  Hand-built strategies
    go straight into :class:`CusumAcConfig`.
    """
    pairs = as_pairs(pair_or_pairs)
    rates = list(eps1) if isinstance(eps1, (list, tuple)) else [eps1] * len(pairs)
    if len(rates) != len(pairs):
        raise ValueError("need one censoring rate per sensor")
    strategies = tuple(optimize(p, r) for p, r in zip(pairs, rates))
    return CusumAcConfig(a=a, a1=a1, strategies=strategies)


@dataclass(frozen=True)
class DetectorState:
    """Running statistic plus stop flag and transmission/feedback bookkeeping.

    The statistic fixes CuSum-AC's censoring level for the next observation:
    censored below a1, full rate at or above it.  ``k`` counts the steps
    taken, so a stopped state stopped at step ``k``.  ``feedback_count``
    counts strategy announcements to the sensors: the initial announcement
    (sensors default to full rate, so starting below a1 costs one message)
    plus every later level switch.  ``time_above_a1`` counts the steps after
    which the statistic sits at or above a1; the rest of the ``k`` steps
    were spent below it.
    """

    s: float = 0.0
    stopped: bool = False
    k: int = 0
    tx_count: int = 0
    feedback_count: int = 0
    time_above_a1: int = 0


def initial_state(config: Optional[CusumAcConfig] = None, s0: float = 0.0) -> DetectorState:
    """Fresh state; for CuSum-AC a censored start is announced to the sensors."""
    censored = config is not None and s0 < config.a1
    return DetectorState(s=s0, feedback_count=int(censored))


def _require_running(state: DetectorState):
    if state.stopped:
        raise ValueError("detector already stopped; cannot step a stopped detector")


def _cusum_update(state: DetectorState, inc: float, a: float, n_sent: int) -> DetectorState:
    s_new = max(0.0, state.s + inc)
    return dataclasses.replace(
        state,
        s=s_new,
        k=state.k + 1,
        stopped=s_new > a,
        tx_count=state.tx_count + n_sent,
    )


def cusum_step(state: DetectorState, llr_value: float, a: float) -> DetectorState:
    """One plain-CuSum update; the detector sees (and is charged for) every observation."""
    _require_running(state)
    return _cusum_update(state, llr_value, a, 1)


def _ac_update(state: DetectorState, config: CusumAcConfig, fused_inc: float, n_sent: int
               ) -> DetectorState:
    s_new = max(0.0, state.s + fused_inc)
    if state.s < config.a1 <= s_new:
        s_new = config.a1
    above = s_new >= config.a1
    return dataclasses.replace(
        state,
        s=s_new,
        stopped=s_new >= config.a,
        k=state.k + 1,
        tx_count=state.tx_count + n_sent,
        feedback_count=state.feedback_count + (above != (state.s >= config.a1)),
        time_above_a1=state.time_above_a1 + above,
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
    censored = state.s < config.a1
    sent: list[bool] = []
    fused = 0.0
    for m, (x, pair) in enumerate(zip(xs, pairs)):
        if not censored:
            sent_m = True
            inc_m = float(pair.llr(x))
        else:
            strat = config.strategies[m]
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
