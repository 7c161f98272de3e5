"""Renewal-cycle estimators for the adaptive-censoring detector.

Between alarms the fused M-sensor statistic decomposes into i.i.d. cycles: a
full-rate excursion from the switching threshold a1 (the two-sided SPRT leg,
duration eta) that either reaches the alarm threshold or falls back below a1
with re-entry value s_hat, followed - on return - by a censored climb back to
a1 (duration phi).  This module estimates those cycle quantities by
simulation, plus the derived checks built on them: the slow-regime
membership test (is the censored climb at least as long as a plain CuSum run
to a1?), the alternating-renewal upper bound on the communication rate, and
the expected per-alarm feedback count.

Every leg, and the plain CuSum run t_a1, is one call of a single walker: the
reflected fused statistic stepped from a start value until it leaves
[lower, upper).  Within a leg the censoring level never changes, so the
increments are i.i.d. and a block of steps reduces to a cumulative sum
against a running minimum.  The walker does not use the engine's fixed
``OBS_BLOCK``, which the paired delay comparisons rely on: legs last a few to
a few dozen steps, so it draws a first block of ``_WALK_FIRST`` steps per
replication and doubles each later block up to ``_WALK_BLOCK``.  The
schedule depends only on the step count, so results do not depend on
batching.  With M > 1 sensors it is part of the walker's stream, since a
block is drawn sensor by sensor; with M = 1 the draws are one sequence
whatever the block sizes.

``estimate_cycle_direct`` measures whole cycles through the scalar detector
step function instead, giving an independent route for the composition
identity E[cycle] = E[eta] + p_return * E[phi | return].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._engine import _draw_obs, _rep_rngs
from .censoring import optimize
from .detectors import cusum_ac_multi_step, initial_state, two_level
from .model import as_pairs
from .montecarlo import McEstimate, derive_seed, summarize

__all__ = [
    "CycleStats",
    "DirectCycleStats",
    "EprimeCheck",
    "estimate_cycle",
    "estimate_cycle_direct",
    "check_eprime_membership",
    "rate_upper_bound",
    "feedback_expectation",
]

_WALK_CAP = 10_000_000  # hard step cap for open-band walks; hits are flagged, never silent
_WALK_FIRST = 16   # steps in a walk's first block; blocks then double
_WALK_BLOCK = 256  # largest block


@dataclass(frozen=True)
class CycleStats:
    """Monte Carlo estimates of the renewal-cycle quantities at (a1, a, eps1)."""

    a1: float
    a: float
    eps1: float
    eta0: McEstimate                 # mean SPRT leg duration from a1
    eta0_given_return: McEstimate    # same, conditioned on falling back below a1
    phi_given_return: McEstimate     # mean censored climb back to a1 after a return
    t_a1: McEstimate                 # plain-CuSum mean run length at threshold a1
    p_return: McEstimate             # probability the SPRT leg returns below a1
    return_value_samples: np.ndarray
    capped_walks: int

    def to_record(self) -> dict:
        rec = {"a1": self.a1, "a": self.a, "eps1": self.eps1,
               "capped_walks": self.capped_walks,
               "n_return_samples": int(self.return_value_samples.size)}
        for name in ("eta0", "eta0_given_return", "phi_given_return", "t_a1", "p_return"):
            est: McEstimate = getattr(self, name)
            rec[f"{name}_mean"] = est.mean
            rec[f"{name}_se"] = est.std_error
            rec[f"{name}_n"] = est.n_reps
        return rec


@dataclass(frozen=True)
class DirectCycleStats:
    """Whole-cycle measurements taken through the scalar detector steps."""

    cycle_length: McEstimate
    p_return: McEstimate


@dataclass(frozen=True)
class EprimeCheck:
    """Statistical verdict on slow-regime membership with its margin in SEs."""

    verdict: str  # "member" | "rejected" | "indeterminate"
    margin: float

    @property
    def is_member(self) -> bool:
        return self.verdict == "member"


def _sensors(pairs, eps1: float, strategy) -> tuple[list, list]:
    """Per-sensor pairs and censoring strategies (optimized, shared or as given)."""
    pairs = as_pairs(pairs)
    if strategy is None:
        return pairs, [optimize(p, eps1) for p in pairs]
    if not isinstance(strategy, (list, tuple)):
        return pairs, [strategy] * len(pairs)
    if len(strategy) != len(pairs):
        raise ValueError(f"got {len(strategy)} strategies for {len(pairs)} sensors")
    return pairs, list(strategy)


def _walk(pairs, strategies, starts: np.ndarray, lower: float, upper: float,
          seed: int, cap: int):
    """Step the reflected fused statistic from ``starts`` until it leaves [lower, upper).

    Replication i draws from stream [seed, i, 0] in blocks of 16, 16, 32,
    64, ... steps, doubling up to ``_WALK_BLOCK``, sensor by sensor within a
    block.  The schedule depends only on the step count; it is part of the
    stream at M > 1, and at M = 1 gives the same draws as any other
    schedule.  A sensor's increment is its raw LLR, or with ``strategies``
    its censored LLR: the constant inside the no-send interval.  Sensors are
    added in order onto 0.0, as the scalar step does.  With c_0 the start
    and W the unreflected walk from 0, the reflected statistic is
    c_k = W_k - min(-c_0, min_{j<=k} W_j).

    Returns (durations, exit values, n_capped); a capped walk has duration
    ``cap`` and exit value NaN.
    """
    n = starts.size
    rngs = _rep_rngs(seed, 0, n, 0)
    act = np.arange(n)
    w = np.zeros(n)
    w_min = -starts
    dur = np.full(n, cap, dtype=np.int64)
    exit_s = np.full(n, np.nan)
    k = 0
    while act.size and k < cap:
        B = min(_WALK_BLOCK, max(_WALK_FIRST, k), cap - k)
        x = _draw_obs(rngs, act, pairs, k, B, None)
        inc = np.zeros((act.size, B))
        for m, p in enumerate(pairs):
            llr = np.asarray(p.llr(x[:, m]))
            if strategies is not None:
                st = strategies[m]
                inside = (x[:, m] >= st.nosend_x_lo) & (x[:, m] <= st.nosend_x_hi)
                llr = np.where(inside, st.llr_censored, llr)
            inc += llr
        path = np.cumsum(inc, axis=1) + w[:, None]
        path_min = np.minimum(np.minimum.accumulate(path, axis=1), w_min[:, None])
        s = path - path_min
        out = (s < lower) | (s >= upper)
        found = out.any(axis=1)
        rows = np.nonzero(found)[0]
        idx = out[rows].argmax(axis=1)
        dur[act[rows]] = k + idx + 1
        exit_s[act[rows]] = s[rows, idx]
        keep = ~found
        act, w, w_min = act[keep], path[keep, -1], path_min[keep, -1]
        k += B
    return dur, exit_s, int(act.size)


def estimate_cycle(pairs, a1: float, a: float, eps1: float, n_reps: int, seed: int, *,
                   strategy=None, cap: int = _WALK_CAP) -> CycleStats:
    """Estimate the renewal-cycle quantities of the fused statistic pre-change.

    ``pairs`` is one pair or a list of per-sensor pairs, and ``strategy`` one
    shared censoring strategy or one per sensor (optimized at ``eps1`` when
    omitted).  ``a`` may be infinite (the SPRT leg is then open above).  The
    censored climb is simulated from every observed re-entry value, so the
    conditional mean over the empirical re-entry distribution needs no
    parametric form.
    """
    if not (0 < a1 < a):
        raise ValueError(f"need 0 < a1 < a, got a1={a1}, a={a}")
    if not (1e-3 < eps1 <= 1.0):
        raise ValueError(f"eps1 must lie in (1e-3, 1], got {eps1}")
    if n_reps < 100:
        raise ValueError("cycle estimation needs at least 100 replications")
    pairs, strategies = _sensors(pairs, eps1, strategy)

    eta, shat, capped_eta = _walk(pairs, None, np.full(n_reps, a1), a1, a,
                                  derive_seed(seed, 11), cap)
    returned = shat < a1
    ret_vals = shat[returned]
    phi, _, capped_phi = _walk(pairs, strategies, ret_vals, -math.inf, a1,
                               derive_seed(seed, 12), cap)
    t_a1, _, capped_t = _walk(pairs, None, np.zeros(n_reps), -math.inf,
                              np.nextafter(a1, math.inf), derive_seed(seed, 13), cap)

    return CycleStats(
        a1=a1,
        a=a,
        eps1=eps1,
        eta0=summarize(eta, seed, capped_eta),
        eta0_given_return=summarize(eta[returned], seed),
        phi_given_return=summarize(phi, seed, capped_phi),
        t_a1=summarize(t_a1, seed, capped_t),
        p_return=summarize(returned.astype(float), seed),
        return_value_samples=ret_vals,
        capped_walks=capped_eta + capped_phi + capped_t,
    )


def estimate_cycle_direct(pairs, a1: float, a: float, eps1: float, n_cycles: int,
                          seed: int, *, strategy=None, cap: int = 1_000_000
                          ) -> DirectCycleStats:
    """Measure whole SPRT cycles by stepping the scalar fused detector from a1.

    Takes pairs and strategies as :func:`estimate_cycle` does.  A cycle ends
    at the alarm or at the bit-exact reset back to a1 after a spell below;
    this is the independent route the composition identity is checked
    against.
    """
    pairs, strategies = _sensors(pairs, eps1, strategy)
    config = two_level(pairs, a=a, a1=a1, eps1=eps1, strategies=strategies)
    lengths = np.zeros(n_cycles, dtype=np.int64)
    returned = np.zeros(n_cycles, dtype=bool)
    for i, rng in enumerate(_rep_rngs(seed, 0, n_cycles, 0)):
        state = initial_state(config, s0=a1)
        while True:
            prev_s = state.s
            xs = [float(p.sample0(rng)) for p in pairs]
            state, _ = cusum_ac_multi_step(state, config, xs, pairs)
            if state.stopped:
                lengths[i] = state.k
                break
            if prev_s < a1 and state.s == a1:
                lengths[i] = state.k
                returned[i] = True
                break
            if state.k >= cap:
                lengths[i] = cap
                break
    return DirectCycleStats(
        cycle_length=summarize(lengths, seed),
        p_return=summarize(returned.astype(float), seed),
    )


def check_eprime_membership(stats: CycleStats) -> EprimeCheck:
    """Decide whether the censored climb dominates a plain CuSum run to a1.

    The defining inequality compares two estimated means, so the verdict is
    statistical: member at margin >= +3 combined standard errors, rejected
    at <= -3, indeterminate in between.
    """
    se = math.hypot(stats.phi_given_return.std_error, stats.t_a1.std_error)
    margin = (stats.phi_given_return.mean - stats.t_a1.mean) / se if se > 0 else math.inf
    if margin >= 3.0:
        verdict = "member"
    elif margin <= -3.0:
        verdict = "rejected"
    else:
        verdict = "indeterminate"
    return EprimeCheck(verdict=verdict, margin=float(margin))


def rate_upper_bound(stats: CycleStats) -> float:
    """Alternating-renewal upper bound on the pre-change communication rate.

    Every cycle alternates a full-rate leg (mean eta, conditioned on return
    as in the renewal-reward decomposition) with a censored leg (mean phi,
    rate eps1); the long-run send fraction is bounded by the time-weighted
    mix of the two rates.
    """
    eta = stats.eta0_given_return.mean
    phi = stats.phi_given_return.mean
    return (eta + stats.eps1 * phi) / (eta + phi)


def feedback_expectation(stats: CycleStats) -> float:
    """Expected strategy announcements per alarm, 2 / (1 - p_return).

    Each SPRT leg costs two announcements (the switch into the censored mode
    and the one out of it, the initial announcement standing in for the
    final leg's missing switch); legs per alarm are geometric.  A return
    probability at one within Monte Carlo resolution gives an unbounded
    count, reported as infinity.
    """
    p = stats.p_return.mean
    if p >= 1.0 - max(stats.p_return.std_error, 1e-12):
        return math.inf
    return 2.0 / (1.0 - p)
