"""Replicated Monte Carlo estimation of the three performance indices.

Estimates the average run length to false alarm (ARLFA), the detection delay
(simulated at change time nu = 1 by default, which the equalizer property of
the adaptive-censoring detector justifies), and the pre-change communication
rate, plus feedback and sojourn diagnostics.  Every estimate carries a plain
sample standard error; replications are i.i.d. by construction because each
one owns RNG streams derived from (seed, replication index).

Two communication-rate modes exist: ``no_stop`` disables the alarm (valid
because the censoring policy only depends on the switching threshold a1,
and the rate constraint holds uniformly in the alarm threshold) and is the
cheap default; ``conditional`` keeps the alarm and averages only over replications
surviving to the horizon, which is the literal conditional definition of the
rate and serves as a cross-check.  It resamples until enough replications
survive, in the same loop as the worst-history delay.

Worker processes come from one pool per process (:func:`pool_map`), built
on the first call that needs two or more workers and reused by every later
one; :func:`shutdown_pool` ends it.  Results never depend on the worker
count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _engine
from .detectors import CusumAcConfig
from .model import as_pairs

__all__ = [
    "McEstimate",
    "PerfReport",
    "PreChangeRun",
    "InfeasibleError",
    "estimate_arlfa",
    "estimate_delay",
    "estimate_comm_rate",
    "delay_samples",
    "paired_gap",
    "summarize",
    "pre_change_run",
    "measure_performance",
    "pool_map",
    "shutdown_pool",
]

_GOLDEN64 = 0x9E3779B97F4A7C15
_MAX_ATTEMPT_FACTOR = 100  # resampling budget for conditional estimators


class InfeasibleError(RuntimeError):
    """Raised when a conditional estimator cannot collect enough usable replications."""


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo point estimate: mean, standard error and replication counts."""

    mean: float
    std_error: float
    n_reps: int
    truncated_reps: int = 0


@dataclass(frozen=True)
class PreChangeRun:
    """Diagnostics of a pre-change (false alarm) run of one detector."""

    arlfa: McEstimate
    feedback_per_alarm: McEstimate
    feedback_ratio: McEstimate
    frac_time_above_a1: McEstimate


@dataclass(frozen=True)
class PerfReport:
    """The performance indices of one detector configuration."""

    arlfa: McEstimate
    delay: McEstimate
    comm_rate: McEstimate
    feedback_ratio: McEstimate
    frac_time_above_a1: McEstimate


def derive_seed(seed: int, salt: int) -> int:
    """Deterministic 63-bit sub-seed so different estimates use distinct streams."""
    return (seed + salt * _GOLDEN64) % 2**63


def summarize(values: np.ndarray, truncated: int = 0) -> McEstimate:
    """Reduce raw per-replication values to a Monte Carlo estimate."""
    values = np.asarray(values, dtype=float)
    n = values.size
    if n < 2:
        raise ValueError("need at least two replications for a standard error")
    return McEstimate(
        mean=float(values.mean()),
        std_error=float(values.std(ddof=1) / math.sqrt(n)),
        n_reps=n,
        truncated_reps=truncated,
    )


def _engine_task(args):
    detector, pairs, n_reps, seed, rep_offset, kwargs = args
    return _engine.run_batch(detector, pairs, n_reps=n_reps, seed=seed,
                             rep_offset=rep_offset, **kwargs)


def _usable_cores() -> int:
    """The cores this process may run on: its CPU affinity where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_pool: Optional[ProcessPoolExecutor] = None  # the shared worker pool, and its size
_pool_size = 0


def shutdown_pool() -> None:
    """Shut the shared worker pool down; the next call needing workers builds a new one."""
    global _pool
    pool, _pool = _pool, None
    if pool is not None:
        pool.shutdown(cancel_futures=True)


def pool_map(fn, tasks, n_jobs: int) -> list:
    """``[fn(task) for task in tasks]``, over the shared worker pool when it pays.

    ``n_jobs`` is capped at the cores this process may run on, since a pool
    forks all its workers at once.  One worker or one task runs in this
    process.  Otherwise the tasks are mapped, in order, over the process's
    one pool of ``n_jobs`` workers, built through ``ProcessPoolExecutor`` on
    first use and rebuilt only for a different worker count.  A pool whose
    map raised is shut down and never reused.
    """
    global _pool, _pool_size
    n_jobs = min(n_jobs, _usable_cores())
    if n_jobs <= 1 or len(tasks) < 2:
        return [fn(task) for task in tasks]
    if _pool is None or _pool_size != n_jobs:
        shutdown_pool()
        _pool, _pool_size = ProcessPoolExecutor(max_workers=n_jobs), n_jobs
    try:
        return list(_pool.map(fn, tasks))
    except BaseException:
        shutdown_pool()
        raise


def _run_chunked(detector, pairs, n_reps, seed, *, rep_offset=0, n_jobs=1, **kwargs
                 ) -> _engine.BatchResult:
    """Run a batch split into up to ``n_jobs`` chunks over the shared pool.

    The per-replication streams make results identical for every n_jobs, so
    chunking is purely a throughput knob.  The chunks are capped at the
    cores this process may run on and hold at least two replications each;
    :func:`pool_map` runs a lone chunk in this process.
    """
    chunks = max(1, min(n_jobs, _usable_cores(), n_reps // 2))
    base, extra = divmod(n_reps, chunks)
    tasks, offset = [], rep_offset
    for i in range(chunks):
        size = base + (1 if i < extra else 0)
        tasks.append((detector, pairs, size, seed, offset, kwargs))
        offset += size
    return _engine.concat_results(pool_map(_engine_task, tasks, n_jobs))


def _resample(detector, pairs, n_reps: int, seed: int, n_jobs: int, usable, failure: str,
              **kwargs) -> tuple[_engine.BatchResult, np.ndarray]:
    """Consecutive batches of ``n_reps`` until ``n_reps`` replications are usable.

    ``usable(batch)`` masks the replications that count.  Returns all batches
    concatenated and the indices of the first ``n_reps`` usable ones.  After
    ``_MAX_ATTEMPT_FACTOR * n_reps`` attempts it raises InfeasibleError with
    ``failure`` formatted with the counts ``got``, ``n_reps`` and ``attempts``.
    """
    parts, masks = [], []
    got = attempts = 0
    while got < n_reps:
        if attempts >= _MAX_ATTEMPT_FACTOR * n_reps:
            raise InfeasibleError(failure.format(got=got, n_reps=n_reps, attempts=attempts))
        batch = _run_chunked(detector, pairs, n_reps, seed, rep_offset=attempts,
                             n_jobs=n_jobs, **kwargs)
        parts.append(batch)
        masks.append(usable(batch))
        got += int(masks[-1].sum())
        attempts += batch.n_reps
    return _engine.concat_results(parts), np.flatnonzero(np.concatenate(masks))[:n_reps]


def estimate_arlfa(detector, pairs, n_reps: int, cap: int, seed: int, *, n_jobs: int = 1
                   ) -> McEstimate:
    """Mean run length to false alarm over pre-change-only trajectories.

    Trajectories hitting ``cap`` are included at value cap (a downward bias)
    and surfaced through ``truncated_reps``; pick cap large enough, about
    100x the expected run length.  This is the ``arlfa`` of :func:`pre_change_run`.
    """
    return pre_change_run(detector, pairs, n_reps, cap, seed, n_jobs=n_jobs).arlfa


def pre_change_run(detector, pairs, n_reps: int, cap: int, seed: int, *, n_jobs: int = 1
                   ) -> PreChangeRun:
    """ARLFA plus per-alarm feedback and sojourn diagnostics from one batch.

    Each of at least 100 trajectories runs pre-change to its alarm or
    ``cap`` steps; those hitting cap count as in :func:`estimate_arlfa`.
    """
    if n_reps < 100:
        raise ValueError("ARLFA estimation needs at least 100 replications")
    if cap < 1:
        raise ValueError("cap must be positive")
    batch = _run_chunked(detector, pairs, n_reps, seed, n_jobs=n_jobs,
                         nu=None, limit=int(cap), stop_enabled=True)
    truncated = int((~batch.stopped).sum())
    stop = batch.stop_time.astype(float)
    return PreChangeRun(
        arlfa=summarize(batch.stop_time, truncated),
        feedback_per_alarm=summarize(batch.feedback, truncated),
        feedback_ratio=summarize(batch.feedback / stop, truncated),
        frac_time_above_a1=summarize(batch.time_above / stop, truncated),
    )


def delay_samples(detector, pairs, n_reps: int, seed: int, nu: int = 1, *,
                  cap: int = 1_000_000, n_jobs: int = 1) -> tuple[np.ndarray, int]:
    """Per-replication delays (stop_time - nu + 1)^+ and the truncation count.

    Replication i always consumes the stream derived from (seed, i), so two
    detectors sampled with the same arguments are paired rep-by-rep, as
    :func:`paired_gap` needs for its common-random-numbers delay difference.
    """
    if nu < 1:
        raise ValueError("change time nu must be >= 1")
    if n_reps < 2:
        raise ValueError("need at least two replications")
    batch = _run_chunked(detector, pairs, n_reps, seed, n_jobs=n_jobs,
                         nu=nu, limit=int(nu - 1 + cap), stop_enabled=True)
    delays = np.maximum(batch.stop_time - nu + 1, 0)
    return delays, int((~batch.stopped).sum())


def paired_gap(delays_a: np.ndarray, delays_b: np.ndarray, truncated: int = 0) -> McEstimate:
    """Mean and standard error of the per-replication difference a - b."""
    return summarize(delays_a.astype(float) - delays_b.astype(float), truncated)


def estimate_delay(detector, pairs, n_reps: int, seed: int, nu: int = 1, *,
                   cap: int = 1_000_000, worst_history: bool = False, n_jobs: int = 1
                   ) -> McEstimate:
    """Mean detection delay (stop_time - nu + 1)^+ with the change at step nu.

    With ``worst_history=True`` and nu > 1 the estimate conditions on the
    least favorable pre-change history, a statistic exactly at zero when the
    change arrives (trajectories are resampled until ``n_reps`` qualify).
    That is the quantity the worst-case delay criterion actually takes as
    its essential supremum; the unconditional default mixes in favorable
    histories and is reported as such.
    """
    if n_reps < 2:
        raise ValueError("need at least two replications")
    if not worst_history or nu <= 1:  # delay_samples rejects nu < 1
        delays, truncated = delay_samples(detector, pairs, n_reps, seed, nu,
                                          cap=cap, n_jobs=n_jobs)
        return summarize(delays, truncated)
    batch, idx = _resample(
        detector, pairs, n_reps, seed, n_jobs, lambda b: ~b.rejected,
        "collected {got}/{n_reps} zero-statistic histories after {attempts} attempts",
        nu=nu, limit=int(nu - 1 + cap), stop_enabled=True, require_zero_at=nu - 1)
    delays = np.maximum(batch.stop_time[idx] - nu + 1, 0)
    return summarize(delays, int((~batch.stopped[idx]).sum()))


def estimate_comm_rate(detector, pairs, horizon: int, n_reps: int, seed: int,
                       mode: str = "no_stop", *, n_jobs: int = 1) -> McEstimate:
    """Pre-change transmissions per sensor per slot, averaged over replications."""
    if horizon < 10_000:
        raise ValueError("rate estimation needs a horizon of at least 10^4 slots")
    if n_reps < 2:
        raise ValueError("need at least two replications")
    pairs = as_pairs(pairs)
    denom = float(horizon * len(pairs))

    if mode == "no_stop":
        batch = _run_chunked(detector, pairs, n_reps, seed, n_jobs=n_jobs,
                             nu=None, limit=int(horizon), stop_enabled=False)
        return summarize(batch.tx / denom)
    if mode != "conditional":
        raise ValueError(f"unknown mode {mode!r}")
    batch, idx = _resample(
        detector, pairs, n_reps, seed, n_jobs,
        lambda b: ~b.stopped | (b.stop_time >= horizon),
        "collected {got}/{n_reps} trajectories surviving to the horizon after "
        "{attempts} attempts; survival is too rare",
        nu=None, limit=int(horizon), stop_enabled=True)
    return summarize(batch.tx[idx] / denom)


def measure_performance(config: CusumAcConfig, pairs, *, n_reps: int, cap: int,
                        horizon: int, seed: int, nu: int = 1, n_jobs: int = 1) -> PerfReport:
    """Full performance report of one adaptive-censoring configuration."""
    pre = pre_change_run(config, pairs, n_reps, cap, derive_seed(seed, 1), n_jobs=n_jobs)
    delay = estimate_delay(config, pairs, n_reps, derive_seed(seed, 2), nu=nu,
                           n_jobs=n_jobs)
    rate = estimate_comm_rate(config, pairs, horizon, max(100, n_reps // 10),
                              derive_seed(seed, 3), n_jobs=n_jobs)
    return PerfReport(
        arlfa=pre.arlfa,
        delay=delay,
        comm_rate=rate,
        feedback_ratio=pre.feedback_ratio,
        frac_time_above_a1=pre.frac_time_above_a1,
    )
