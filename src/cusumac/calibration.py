"""Parameter calibration: thresholds for an ARLFA target, and the grid search
over (a1, eps1) that meets a communication budget while minimizing delay.

Every threshold comes from one renewal ARLFA curve per detector
(:func:`cusumac.renewal.arlfa_curve`): :func:`threshold_curve` lays a grid
from the detector's lowest threshold (0, or just above a1 for CuSum-AC) up
to ln(max zeta), which is a proven upper bracket because every detector
here has ARLFA(a) >= e^a.  It grows the curve's legs until the relative
standard error at each calibrated threshold is at most ``tolerance / 6``;
:func:`calibrate_threshold` then interpolates ln ARLFA = ln zeta between the
bracketing grid points.  The grid search measures each candidate's
communication rate once, first (the rate does not depend on the alarm
threshold, so inadmissible candidates never pay for a calibration),
calibrates the admissible ones, and returns the one with the smallest delay;
slow-regime membership is recorded as advisory.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import asdict, dataclass
from typing import Optional, Sequence

import numpy as np

from ._engine import _StepTables
from .detectors import CusumAcConfig, two_level
from .model import as_pairs
from .montecarlo import (
    McEstimate,
    PerfReport,
    derive_seed,
    estimate_comm_rate,
    estimate_delay,
    measure_performance,
    pool_map,
)
from .renewal import (
    ArlfaCurve,
    EprimeCheck,
    arlfa_curve,
    check_eprime_membership,
    estimate_cycle,
)

__all__ = [
    "CalibrationTarget",
    "CalibrationError",
    "ThresholdCalibration",
    "ProbeRecord",
    "CandidateRecord",
    "CalibrationResult",
    "threshold_curve",
    "calibrate_threshold",
    "search_two_level",
    "DEFAULT_A1_GRID",
    "DEFAULT_EPS1_GRID",
]

# Default grids bracket the operating points used by the canned experiments.
DEFAULT_A1_GRID = tuple(round(0.2 * i, 1) for i in range(1, 11))       # 0.2 .. 2.0
DEFAULT_EPS1_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))     # 0.1 .. 0.9
# The winner's direct ARLFA runs are capped at max(CAP_MULT * zeta, 100) steps.
CAP_MULT = 100
_GRID_STEP = 0.1        # threshold spacing of a calibration curve
_PILOT_LEGS = 1000      # legs of a curve before it grows to its tolerance
_MAX_LEGS = 4_000_000   # a tolerance needing more legs is refused


class CalibrationError(RuntimeError):
    """Raised when no threshold can be calibrated; carries the curve points consulted."""

    def __init__(self, message: str, probes=()):
        super().__init__(message)
        self.probes = tuple(probes)


@dataclass(frozen=True)
class CalibrationTarget:
    """Constraints of one calibration problem."""

    zeta: float
    epsilon: float
    nu: int = 1
    tolerance: float = 0.05

    def __post_init__(self):
        _check_targets([self.zeta], self.tolerance)
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")


def _check_targets(zetas: Sequence[float], tolerance: float):
    if len(zetas) == 0:
        raise ValueError("zetas must be nonempty")
    for zeta in zetas:
        if not (1.0 <= zeta < math.inf):
            raise ValueError(f"zeta must be finite and >= 1, got {zeta}")
    if not (0.0 < tolerance < 1.0):
        raise ValueError(f"tolerance must lie in (0, 1), got {tolerance}")


@dataclass(frozen=True)
class ProbeRecord:
    """One curve point consulted by a calibration."""

    a: float
    arlfa_mean: float
    arlfa_se: float
    n_reps: int


@dataclass(frozen=True)
class ThresholdCalibration:
    """A calibrated threshold, the curve's ARLFA there, and its bracketing points."""

    a: float
    arlfa: McEstimate
    probes: tuple[ProbeRecord, ...]


def threshold_curve(detector, pairs, zetas: Sequence[float], seed: int,
                    tolerance: float) -> ArlfaCurve:
    """One ARLFA curve (:func:`cusumac.renewal.arlfa_curve`) that calibrates every target.

    The thresholds run in steps of 0.1 from the family's lowest (0, or just
    above a1 for CuSum-AC) to at least ln(max zetas).  Starting from 1000
    legs, the curve grows until its relative standard error at every
    reachable target's bracketing points is at most ``tolerance / 6``; a
    tolerance that would need more than 4 million legs raises
    :class:`CalibrationError`.  Targets and tolerance are checked as
    :class:`CalibrationTarget` checks them, before any leg is walked.
    """
    _check_targets(zetas, tolerance)
    floor = _StepTables(detector, pairs).regen  # 0, or a1 for CuSum-AC
    n_steps = max(1, math.ceil((math.log(max(zetas)) - floor) / _GRID_STEP))
    lowest = np.nextafter(floor, math.inf) if floor else 0.0
    grid = [lowest] + [floor + _GRID_STEP * k for k in range(1, n_steps + 1)]
    curve = arlfa_curve(detector, pairs, grid, _PILOT_LEGS, seed)
    target = tolerance / 6.0
    while True:
        rel_se = [p.arlfa_se / p.arlfa_mean for zeta in zetas if zeta >= curve.mean[0]
                  for p in _bracket(curve, zeta)[1]]
        worst = max(rel_se, default=0.0)
        if worst <= target:
            return curve
        need = math.ceil(curve.n_legs * (worst / target) ** 2)
        if need > _MAX_LEGS:
            raise CalibrationError(f"a relative SE of {target:.3g} needs about {need} legs, "
                                   f"more than {_MAX_LEGS}; raise the tolerance")
        curve = curve.grown(max(need, curve.n_legs + _PILOT_LEGS))


def _point(curve: ArlfaCurve, i: int) -> ProbeRecord:
    return ProbeRecord(a=float(curve.a[i]), arlfa_mean=float(curve.mean[i]),
                       arlfa_se=float(curve.std_error[i]), n_reps=curve.n_legs)


def _bracket(curve: ArlfaCurve, zeta: float) -> tuple[float, tuple[ProbeRecord, ...]]:
    """The threshold where ln ARLFA = ln zeta on ``curve``, and the points bracketing it."""
    mean = curve.mean
    if zeta <= 1.0 or zeta == mean[0]:
        return float(curve.a[0]), (_point(curve, 0),)  # zeta = 1: every run lasts a step
    if zeta < mean[0]:
        raise CalibrationError(f"no threshold reaches ARLFA {zeta:g}: the lowest, "
                               f"{curve.a[0]:g}, already gives {mean[0]:.4g}",
                               [_point(curve, 0)])
    hi = int(np.searchsorted(mean, zeta))  # the first point at or above zeta
    if hi == mean.size:
        raise CalibrationError(f"the curve tops out at ARLFA {mean[-1]:.4g} < {zeta:g}",
                               [_point(curve, -1)])
    lo, hi = _point(curve, hi - 1), _point(curve, hi)
    frac = math.log(zeta / lo.arlfa_mean) / math.log(hi.arlfa_mean / lo.arlfa_mean)
    return lo.a + frac * (hi.a - lo.a), (lo, hi)


def calibrate_threshold(curve: ArlfaCurve, zeta: float) -> ThresholdCalibration:
    """The threshold whose ARLFA on ``curve`` is ``zeta``.

    ln ARLFA is interpolated linearly in the threshold between the two curve
    points that bracket ``zeta`` (the curve is near-affine there, slope about
    one); they are returned as ``probes``.  ``arlfa`` is the in-sample curve
    value there, which is ``zeta``, with the relative standard error
    interpolated alike; ``n_reps`` counts legs.  zeta = 1 gives the lowest
    threshold.  A target below the curve's lowest point (for CuSum-AC,
    ARLFA just above a1 already exceeds it) or above its top raises
    :class:`CalibrationError`.
    """
    if not zeta >= 1.0:
        raise ValueError(f"zeta must be >= 1, got {zeta}")
    a, probes = _bracket(curve, zeta)
    lo, hi = probes[0], probes[-1]
    frac = (a - lo.a) / (hi.a - lo.a) if hi.a > lo.a else 0.0
    rel_se = (1 - frac) * lo.arlfa_se / lo.arlfa_mean + frac * hi.arlfa_se / hi.arlfa_mean
    mean = max(zeta, lo.arlfa_mean)  # zeta, or the lowest point's ARLFA for zeta = 1
    arlfa = McEstimate(mean=mean, std_error=rel_se * mean, n_reps=curve.n_legs,
                       truncated_reps=curve.capped)
    return ThresholdCalibration(a=a, arlfa=arlfa, probes=probes)


@dataclass(frozen=True)
class CandidateRecord:
    """One evaluated (a1, eps1) candidate of the grid search."""

    a1: float
    eps1: float
    a: float
    arlfa_mean: float
    arlfa_se: float
    rate_mean: float
    rate_se: float
    delay_mean: float
    delay_se: float
    eprime_verdict: str
    eprime_margin: float
    admissible: bool
    note: str = ""

    def _key(self) -> tuple:
        # A skipped candidate holds NaN placeholders; NaN == NaN is False, and a
        # tuple compares equal NaNs only when they are one object, which a
        # pickle round trip (a record made in a pool worker) does not keep.
        return tuple(None if isinstance(v, float) and math.isnan(v) else v
                     for v in (getattr(self, f.name) for f in dataclasses.fields(self)))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def to_record(self) -> dict:
        return dict(asdict(self), admissible=int(self.admissible))


def _skipped(a1: float, eps1: float, rate: McEstimate, note: str) -> CandidateRecord:
    """A candidate dropped before measurement: its screen rate, NaN elsewhere."""
    nan = math.nan
    return CandidateRecord(a1=a1, eps1=eps1, a=nan, arlfa_mean=nan, arlfa_se=nan,
                           rate_mean=rate.mean, rate_se=rate.std_error, delay_mean=nan,
                           delay_se=nan, eprime_verdict="skipped", eprime_margin=nan,
                           admissible=False, note=note)


@dataclass(frozen=True)
class CalibrationResult:
    """Outcome of the two-level grid search."""

    config: Optional[CusumAcConfig]
    report: Optional[PerfReport]
    search_trace: tuple[CandidateRecord, ...]

    @property
    def feasible(self) -> bool:
        """Whether an admissible candidate was calibrated, so a configuration was selected."""
        return self.config is not None


def _evaluate_candidate(task) -> tuple[CandidateRecord, Optional[CusumAcConfig]]:
    """One grid candidate: rate screen, curve, calibrated threshold, delay and cycle.

    Returns its trace record and, when it was calibrated, its config.
    """
    pairs, target, a1, eps1, n_reps, seed, rate_horizon, cycle_reps, n_jobs = task
    # The detector family, open above: the no_stop rate ignores the alarm
    # threshold, so it is measured once, before calibrating; the family
    # also names the ARLFA curve and the renewal cycle.
    family = two_level(pairs, math.inf, a1, eps1)
    rate = estimate_comm_rate(family, pairs, rate_horizon, max(100, n_reps // 10),
                              derive_seed(seed, 23), n_jobs=n_jobs)
    if not rate.mean <= target.epsilon + 3.0 * rate.std_error:
        return _skipped(a1, eps1, rate, "rate screen failed"), None
    try:
        curve = threshold_curve(family, pairs, [target.zeta],
                                derive_seed(seed, 22), target.tolerance)
        cal = calibrate_threshold(curve, target.zeta)
    except CalibrationError as err:
        return _skipped(a1, eps1, rate, f"calibration failed: {err}"), None
    config = dataclasses.replace(family, a=cal.a)
    delay = estimate_delay(config, pairs, n_reps, derive_seed(seed, 24),
                           nu=target.nu, n_jobs=n_jobs)
    cycle = estimate_cycle(family, pairs, cycle_reps, derive_seed(seed, 25))
    eprime: EprimeCheck = check_eprime_membership(cycle)
    rec = CandidateRecord(
        a1=a1, eps1=eps1, a=cal.a,
        arlfa_mean=cal.arlfa.mean, arlfa_se=cal.arlfa.std_error,
        rate_mean=rate.mean, rate_se=rate.std_error,
        delay_mean=delay.mean, delay_se=delay.std_error,
        eprime_verdict=eprime.verdict, eprime_margin=eprime.margin,
        admissible=True)
    return rec, config


def search_two_level(
    pairs,
    target: CalibrationTarget,
    a1_grid: Sequence[float] = DEFAULT_A1_GRID,
    eps1_grid: Sequence[float] = DEFAULT_EPS1_GRID,
    *,
    n_reps: int = 2000,
    seed: int = 0,
    rate_horizon: int = 10_000,
    cycle_reps: int = 4000,
    n_jobs: int = 1,
) -> CalibrationResult:
    """Brute-force search over (a1, eps1) minimizing delay under the constraints.

    Each candidate is built once, as ``two_level(pairs, inf, a1, eps1)``,
    whose strategies come from the memoized optimizer; its rate screen,
    ARLFA curve and renewal cycle all run that detector, and the calibrated
    config is the same detector at the calibrated threshold.  Every
    candidate's communication rate is measured once, in ``no_stop`` mode
    (which ignores the alarm threshold), on ``max(100, n_reps // 10)``
    replications.  A candidate is admissible when that rate does not exceed
    the budget by more than three standard errors; the others are recorded
    as ``rate screen failed`` and never calibrated.  Admissible candidates
    are calibrated to the ARLFA target on their own renewal curve
    (:func:`threshold_curve` at ``target.tolerance``) and their delay is
    measured on ``n_reps`` replications; a candidate whose ARLFA just above
    a1 already exceeds zeta is recorded as ``calibration failed``.  The
    trace's ``arlfa_mean`` is the in-sample curve value at the calibrated
    threshold.  The winner's final report is measured directly on a fresh
    seed, with its ARLFA runs capped at ``CAP_MULT * zeta`` steps.
    Slow-regime membership is judged on the renewal cycle of the fused
    statistic of all sensors, with each sensor's strategy at ``eps1``.
    When no candidate is calibrated, ``config`` and ``report`` are None and
    ``feasible`` is false.

    With ``n_jobs > 1`` and two or more candidates, whole candidates are
    mapped over the process's shared worker pool
    (:func:`cusumac.montecarlo.pool_map`), each running its batches at one
    worker; a lone candidate, and the winner's report, chunk their batches
    over the same pool.  Seeds do not depend on the worker count and the
    trace keeps grid order (a1 outer, eps1 inner), so the result is the same
    for every ``n_jobs``.
    """
    if not a1_grid or not eps1_grid:
        raise ValueError("grids must be nonempty")
    if any(not (1e-3 < e <= 1.0) for e in eps1_grid):
        raise ValueError("grid rates must lie in (1e-3, 1]")
    if any(not (a1 > 0.0) for a1 in a1_grid):
        raise ValueError("grid switching thresholds a1 must be positive")
    if n_reps < 100 or cycle_reps < 100:
        raise ValueError("the search needs at least 100 replications and 100 cycles")
    pairs = as_pairs(pairs)

    grid = [(a1, eps1) for a1 in a1_grid for eps1 in eps1_grid]
    # Whole candidates fan out over the workers, each running its batches in
    # its own process; a lone candidate chunks its batches instead.
    inner_jobs = 1 if len(grid) > 1 else n_jobs
    results = pool_map(_evaluate_candidate,
                       [(pairs, target, a1, eps1, n_reps, seed, rate_horizon, cycle_reps,
                         inner_jobs) for a1, eps1 in grid], n_jobs)
    trace = [rec for rec, _ in results]
    candidates = [(rec, config) for rec, config in results if config is not None]

    if not candidates:
        return CalibrationResult(config=None, report=None, search_trace=tuple(trace))
    _, best_cfg = min(candidates,
                      key=lambda rc: (rc[0].delay_mean, rc[0].a1, rc[0].eps1))
    report = measure_performance(
        best_cfg, pairs, n_reps=n_reps,
        cap=max(int(CAP_MULT * target.zeta), 100), horizon=rate_horizon,
        seed=derive_seed(seed, 99), nu=target.nu, n_jobs=n_jobs)
    return CalibrationResult(
        config=best_cfg,
        report=report,
        search_trace=tuple(trace),
    )
