"""Parameter calibration: thresholds for an ARLFA target, and the grid search
over (a1, eps1) that meets a communication budget while minimizing delay.

Threshold calibration exploits the near-affine relation between the alarm
threshold and the log of the run length: probes are placed by a log-space
secant clipped into a maintained bracket, starting from the asymptotic
``ln(zeta)`` rule, with early probes at a tenth of the replication budget and
acceptance only from a full-budget probe.  The grid search screens each
candidate by its communication rate first (the rate does not depend on the
alarm threshold, so infeasible candidates never pay for a calibration),
calibrates the survivors, and returns the admissible candidate with the
smallest delay; slow-regime membership is recorded as advisory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

from .censoring import optimize
from .detectors import CusumAcConfig, two_level
from .model import as_pairs
from .montecarlo import (
    McEstimate,
    PerfReport,
    derive_seed,
    estimate_arlfa,
    estimate_comm_rate,
    estimate_delay,
    measure_performance,
)
from .renewal import EprimeCheck, check_eprime_membership, estimate_cycle

__all__ = [
    "CalibrationTarget",
    "CalibrationError",
    "ThresholdCalibration",
    "ProbeRecord",
    "CandidateRecord",
    "CalibrationResult",
    "calibrate_threshold",
    "search_two_level",
    "DEFAULT_A1_GRID",
    "DEFAULT_EPS1_GRID",
]

# Default grids bracket the operating points used by the canned experiments.
DEFAULT_A1_GRID = tuple(round(0.2 * i, 1) for i in range(1, 11))       # 0.2 .. 2.0
DEFAULT_EPS1_GRID = tuple(round(0.1 * i, 1) for i in range(1, 10))     # 0.1 .. 0.9
# Full-budget ARLFA runs are capped at max(CAP_MULT * zeta, 100) steps.
CAP_MULT = 100


class CalibrationError(RuntimeError):
    """Raised when threshold bracketing fails; carries the probe trace."""

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
        if not self.zeta >= 1.0:
            raise ValueError(f"zeta must be >= 1, got {self.zeta}")
        if not (0.0 < self.epsilon <= 1.0):
            raise ValueError(f"epsilon must lie in (0, 1], got {self.epsilon}")
        if self.nu < 1:
            raise ValueError(f"nu must be >= 1, got {self.nu}")
        if not (0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must lie in (0, 1), got {self.tolerance}")


@dataclass(frozen=True)
class ProbeRecord:
    a: float
    arlfa_mean: float
    arlfa_se: float
    n_reps: int


@dataclass(frozen=True)
class ThresholdCalibration:
    a: float
    arlfa: McEstimate
    probes: tuple[ProbeRecord, ...]


def calibrate_threshold(
    make_detector: Callable[[float], object],
    pairs,
    zeta: float,
    seed: int,
    *,
    n_reps: int = 2000,
    tolerance: float = 0.05,
    max_probes: int = 40,
    initial: Optional[float] = None,
    n_jobs: int = 1,
) -> ThresholdCalibration:
    """Find a threshold whose estimated ARLFA matches ``zeta`` within tolerance.

    ``make_detector(a)`` must build the detector at threshold ``a``.  ln(ARLFA)
    is close to affine in the threshold with slope near one for CuSum-family
    detectors, so the search takes log-space secant steps with a fitted slope:
    cheap screen probes (a tenth of the budget, run-length cap 8 * zeta so a
    badly placed probe stays cheap) locate the threshold, then full-budget
    probes (run-length cap ``CAP_MULT * zeta``) confirm.  The first probe
    sits at the asymptotic ln(zeta) rule unless ``initial`` is given.
    """
    if zeta < 1.0:
        raise ValueError(f"zeta must be >= 1, got {zeta}")
    probes: list[ProbeRecord] = []

    def probe(a: float, n: int, idx: int, cap: int) -> McEstimate:
        try:
            detector = make_detector(a)
        except ValueError as err:
            # e.g. a probe at or below a two-level detector's switching threshold
            raise CalibrationError(f"no detector at threshold {a:g}: {err}", probes) from err
        est = estimate_arlfa(detector, pairs, n, cap=cap,
                             seed=derive_seed(seed, idx), n_jobs=n_jobs)
        probes.append(ProbeRecord(a=a, arlfa_mean=est.mean, arlfa_se=est.std_error,
                                  n_reps=est.n_reps))
        return est

    full_cap = max(int(CAP_MULT * zeta), 100)
    if zeta <= 1.0:
        # Any nonnegative threshold satisfies E[T] >= 1; zero is the smallest.
        est = probe(0.0, max(100, n_reps // 10), 0, full_cap)
        return ThresholdCalibration(a=0.0, arlfa=est, probes=tuple(probes))

    log_target = math.log(zeta)
    lo_bracket = log_target / 4.0
    hi_bracket = 4.0 * log_target
    n_screen = max(100, n_reps // 10)
    screen_cap = max(int(8 * zeta), 100)

    def clamp(a: float) -> float:
        return min(max(a, lo_bracket), hi_bracket)

    a_cur = clamp(initial if initial is not None else log_target)
    slope = 1.0  # d(a) / d(ln ARLFA), refined from probe pairs
    prev: Optional[tuple[float, float]] = None

    for idx in range(max_probes):
        # Screen until the expected miss is small, then confirm at full budget.
        near = prev is not None and abs(prev[1] - log_target) <= max(3.0 * tolerance, 0.15)
        full = near or n_screen >= n_reps or idx >= max_probes - 2
        est = probe(a_cur, n_reps if full else n_screen, idx,
                    full_cap if full else screen_cap)
        mean = max(est.mean, 1.0)
        log_mean = math.log(mean)
        if full and abs(mean - zeta) <= tolerance * zeta:
            return ThresholdCalibration(a=a_cur, arlfa=est, probes=tuple(probes))
        if prev is not None and abs(log_mean - prev[1]) > 0.05 and a_cur != prev[0]:
            fitted = (a_cur - prev[0]) / (log_mean - prev[1])
            if 0.25 <= fitted <= 4.0:
                slope = fitted
        prev = (a_cur, log_mean)
        step = (log_target - log_mean) * slope
        step = min(max(step, -1.5), 1.5)  # capped runs understate distance; iterate
        a_next = clamp(a_cur + step)
        if a_next == a_cur:
            a_next = clamp(a_cur + (0.01 if mean < zeta else -0.01))
        a_cur = a_next

    raise CalibrationError(
        f"no threshold with ARLFA within {tolerance:.0%} of {zeta:g} after "
        f"{max_probes} probes", probes,
    )


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
    eprime_verdict: str
    search_trace: tuple[CandidateRecord, ...]
    feasible: bool
    target: CalibrationTarget


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

    Every candidate is screened by its (threshold-independent) communication
    rate, then calibrated to the ARLFA target and measured.  Admissibility
    means the calibrated ARLFA reaches zeta within tolerance and the rate does
    not exceed the budget by more than three standard errors.  The rate is
    measured in ``no_stop`` mode.  The winner's final report is measured on
    a fresh seed, with its ARLFA runs capped at ``CAP_MULT * zeta`` steps.
    Slow-regime membership is judged on the renewal cycle of the fused
    statistic of all sensors, with each sensor's strategy at ``eps1``.
    When no candidate is admissible the best-effort candidate is still
    returned, flagged infeasible.
    """
    if not a1_grid or not eps1_grid:
        raise ValueError("grids must be nonempty")
    if any(not (1e-3 < e <= 1.0) for e in eps1_grid):
        raise ValueError("grid rates must lie in (1e-3, 1]")
    if any(not (a1 > 0.0) for a1 in a1_grid):
        raise ValueError("grid switching thresholds a1 must be positive")
    pairs = as_pairs(pairs)

    strategy_cache = {
        eps1: [optimize(p, eps1) for p in pairs] for eps1 in sorted(set(eps1_grid))
    }
    screen_reps = max(20, n_reps // 100)

    trace: list[CandidateRecord] = []
    candidates: list[tuple[CandidateRecord, CusumAcConfig]] = []
    warm_a: Optional[float] = None

    for a1 in a1_grid:
        for eps1 in eps1_grid:
            strategies = strategy_cache[eps1]
            config_of = lambda a, a1=a1, eps1=eps1, st=strategies: two_level(
                pairs, a, a1, eps1, strategies=st)
            # The rate ignores the alarm threshold, so screen before calibrating.
            rate_screen = estimate_comm_rate(
                config_of(a1 + 100.0), pairs, rate_horizon, screen_reps,
                derive_seed(seed, 21), n_jobs=n_jobs)
            if rate_screen.mean - 3.0 * rate_screen.std_error > target.epsilon:
                trace.append(_skipped(a1, eps1, rate_screen, "rate screen failed"))
                continue
            try:
                cal = calibrate_threshold(
                    config_of, pairs, target.zeta, derive_seed(seed, 22),
                    n_reps=n_reps, tolerance=target.tolerance, initial=warm_a,
                    n_jobs=n_jobs)
            except CalibrationError as err:
                trace.append(_skipped(a1, eps1, rate_screen, f"calibration failed: {err}"))
                continue
            warm_a = cal.a
            config = config_of(cal.a)
            rate = estimate_comm_rate(config, pairs, rate_horizon, max(100, n_reps // 10),
                                      derive_seed(seed, 23), n_jobs=n_jobs)
            delay = estimate_delay(config, pairs, n_reps, derive_seed(seed, 24),
                                   nu=target.nu, n_jobs=n_jobs)
            cycle = estimate_cycle(pairs, a1, math.inf, eps1, cycle_reps,
                                   derive_seed(seed, 25), strategy=strategies)
            eprime: EprimeCheck = check_eprime_membership(cycle)
            admissible = (
                cal.arlfa.mean >= target.zeta * (1.0 - target.tolerance)
                and rate.mean <= target.epsilon + 3.0 * rate.std_error
            )
            rec = CandidateRecord(
                a1=a1, eps1=eps1, a=cal.a,
                arlfa_mean=cal.arlfa.mean, arlfa_se=cal.arlfa.std_error,
                rate_mean=rate.mean, rate_se=rate.std_error,
                delay_mean=delay.mean, delay_se=delay.std_error,
                eprime_verdict=eprime.verdict, eprime_margin=eprime.margin,
                admissible=admissible)
            trace.append(rec)
            candidates.append((rec, config))

    admissible = [(rec, cfg) for rec, cfg in candidates if rec.admissible]
    pool = admissible if admissible else candidates
    feasible = bool(admissible)
    if not pool:
        return CalibrationResult(config=None, report=None, eprime_verdict="skipped",
                                 search_trace=tuple(trace), feasible=False, target=target)
    best_rec, best_cfg = min(pool, key=lambda rc: (rc[0].delay_mean, rc[0].a1, rc[0].eps1))
    report = measure_performance(
        best_cfg, pairs, n_reps=n_reps,
        cap=max(int(CAP_MULT * target.zeta), 100), horizon=rate_horizon,
        seed=derive_seed(seed, 99), nu=target.nu, n_jobs=n_jobs)
    return CalibrationResult(
        config=best_cfg,
        report=report,
        eprime_verdict=best_rec.eprime_verdict,
        search_trace=tuple(trace),
        feasible=feasible,
        target=target,
    )
