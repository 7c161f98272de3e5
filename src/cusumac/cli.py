"""Command-line front end: declarative experiment configs and canned sweeps.

Experiments are described in an INI-style file with one section per
experiment plus a ``[meta]`` section; every key is validated against the
experiment kind before any simulation starts, and unknown keys or sections
are hard errors (a typo in a statistical parameter must not be ignored), as
are a file that does not parse (a duplicated key, bytes that are not UTF-8),
a number that is not finite, and an experiment name that is not a plain file
stem or whose CSV another experiment also writes.
Each run writes one results CSV per experiment and a manifest holding the
fully resolved configuration; the manifest is itself a valid config whose
re-run reproduces the CSVs byte for byte, because all randomness flows from
the single recorded seed.

``--reproduce fig4|fig5|fig6`` runs the canned experiments: delay versus
false-alarm level for the adaptive-censoring detector against plain CuSum at
communication budgets 0.7 (fig4) and 0.4 (fig5), and delay versus
communication rate at ARLFA 10^4 against the random-transmission baseline
(fig6).  Both entry paths share one seed rule: ``--seed`` or ``[meta] seed``
is required, with ``0 <= seed < 2**64``, and an experiment's own ``seed``
key obeys the same bounds.  A ``delay_vs_arlfa`` sweep needs
``a1 < ln(min(zeta_grid))``: each increment's exponential has mean one before
the change and the clamp at a1 only delays the alarm, so every threshold
a > a1 has ARLFA >= e^a > zeta.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import math
import re
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from . import __version__
from .calibration import (
    DEFAULT_A1_GRID,
    DEFAULT_EPS1_GRID,
    CalibrationTarget,
    CandidateRecord,
    calibrate_threshold,
    search_two_level,
    threshold_curve,
)
from .detectors import CusumSpec, RandomTxSpec, simulate_trace, two_level
from .model import gaussian_mean_shift
from .montecarlo import (
    delay_samples,
    derive_seed,
    estimate_arlfa,
    estimate_comm_rate,
    estimate_delay,
    paired_gap,
    pre_change_run,
    summarize,
)
from .renewal import arlfa_curve

__all__ = ["main", "run", "reproduce", "ExperimentSpec", "parse_config",
           "REFERENCE_TWO_LEVEL_PARAMS"]

# Reference (a1, eps1) operating points for the delay-vs-rate sweep at
# ARLFA 10^4 with three identical Gaussian sensors: admissible minimum-delay
# candidates (network send rate within budget, threshold calibrated per
# point).  The table predates the current admissibility rule of
# scripts/derive_reference_params.py (one rate batch within three standard
# errors of the budget), and that script's grid cannot reproduce it: at
# budget 0.1 it tries eps1 in {0.045, 0.06, 0.075, 0.09}, not 0.055.
REFERENCE_TWO_LEVEL_PARAMS = {
    0.1: (1.6, 0.055),
    0.2: (1.2, 0.09),
    0.3: (0.8, 0.135),
    0.4: (0.8, 0.24),
    0.5: (0.8, 0.375),
    0.6: (0.4, 0.36),
    0.7: (0.4, 0.42),
    0.8: (0.8, 0.72),
    0.9: (0.4, 0.81),
}

# Operating points for the delay-vs-ARLFA comparisons at budgets 0.7 and 0.4
# (the canned fig4/fig5 runs keep these fixed across the ARLFA grid).
FIG45_TWO_LEVEL_PARAMS = {0.7: (0.78, 0.63), 0.4: (0.79, 0.27)}

RESULT_COLUMNS = [
    "experiment", "kind", "config_hash", "detector", "m", "mu0", "mu1", "sigma",
    "a", "a1", "eps1", "epsilon", "zeta_target", "nu", "horizon", "mode",
    "metric", "mean", "std_error", "n_reps", "truncated_reps", "seed",
]
TRACE_COLUMNS = ["k", "s", "level", "sent", "stopped"]
SEARCH_COLUMNS = [f.name for f in fields(CandidateRecord)]


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass
class ExperimentSpec:
    """One declarative experiment; unknown keys are rejected at parse time."""

    name: str
    kind: str
    mu0: float = 0.0
    mu1: float = 0.5
    sigma: float = 1.0
    m: int = 1
    detector: str = "cusum"
    a: Optional[float] = None
    a1: Optional[float] = None
    eps1: Optional[float] = None
    epsilon: Optional[float] = None
    zeta: Optional[float] = None
    zeta_grid: tuple[float, ...] = ()
    epsilon_grid: tuple[float, ...] = ()
    a1_grid: tuple[float, ...] = ()
    eps1_grid: tuple[float, ...] = ()
    nu: int = 1
    n_reps: int = 2000
    horizon: int = 10_000
    cap: Optional[int] = None
    mode: str = "no_stop"
    worst_history: bool = False
    tolerance: float = 0.05
    seed: Optional[int] = None  # resolved from meta when absent


_FIELD_PARSERS = {
    "mu0": float, "mu1": float, "sigma": float, "m": int,
    "detector": str, "a": float, "a1": float, "eps1": float, "epsilon": float,
    "zeta": float, "nu": int, "n_reps": int, "horizon": int, "cap": int,
    "mode": str, "tolerance": float, "seed": int,
}
_GRID_FIELDS = ("zeta_grid", "epsilon_grid", "a1_grid", "eps1_grid")
_BOOL_FIELDS = ("worst_history",)


def _parse_scalar(parse, text: str, where: str):
    """``parse(text)``; a ConfigError naming the section and key ``where`` if it fails."""
    try:
        value = parse(text)
    except ValueError:
        kind = "an integer" if parse is int else "a number"
        raise ConfigError(f"{where}: {text!r} is not {kind}") from None
    if parse is float and not math.isfinite(value):
        raise ConfigError(f"{where}: {text!r} is not a finite number")
    return value


def _parse_grid(text: str, where: str) -> tuple[float, ...]:
    vals = tuple(_parse_scalar(float, tok, where) for tok in text.replace(",", " ").split())
    if not vals:
        raise ConfigError(f"{where}: empty grid: {text!r}")
    return vals


def _parse_bool(text: str, where: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes"):
        return True
    if t in ("false", "0", "no"):
        return False
    raise ConfigError(f"{where}: {text!r} is not a boolean")


def parse_config(path) -> tuple[dict, list[ExperimentSpec]]:
    """Parse a config file into run settings and validated experiment specs."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    try:
        read = parser.read(path, encoding="utf-8")
    except (configparser.Error, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot parse config file {path}: {err}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")

    meta: dict = {}
    specs: list[ExperimentSpec] = []
    csv_stems: set = set()  # the CSV files the experiments write, by stem
    for section in parser.sections():
        if section == "meta":
            for key, value in parser.items(section):
                if key not in ("seed", "threads"):
                    raise ConfigError(f"unknown key {key!r} in [meta]")
                meta[key] = _parse_scalar(int, value, f"[meta] {key}")
            _require(meta.get("threads", 1) >= 1, "[meta] threads must be at least 1")
        elif section == "provenance":
            continue  # written by previous runs; carries no settings
        elif section.startswith("experiment:"):
            name = section.split(":", 1)[1].strip()
            items = dict(parser.items(section))
            kind = items.get("kind")
            if kind not in _KINDS:
                raise ConfigError(f"experiment {name!r}: unknown kind {kind!r}")
            stems = {name, f"{name}_trace"} if kind == "calibrate" else {name}
            if stems & csv_stems:
                raise ConfigError(f"experiment {name!r}: another experiment writes "
                                  f"{min(stems & csv_stems)}.csv")
            csv_stems |= stems
            allowed = _KINDS[kind][0]
            spec = ExperimentSpec(name=name, kind=kind)
            for key, value in items.items():
                if key == "kind":
                    continue
                if key not in allowed:
                    raise ConfigError(f"experiment {name!r}: unknown key {key!r} "
                                      f"for kind {kind!r}")
                where = f"[{section}] {key}"
                if key in _GRID_FIELDS:
                    setattr(spec, key, _parse_grid(value, where))
                elif key in _BOOL_FIELDS:
                    setattr(spec, key, _parse_bool(value, where))
                else:
                    setattr(spec, key, _parse_scalar(_FIELD_PARSERS[key], value, where))
            _validate_spec(spec)
            specs.append(spec)
        else:
            raise ConfigError(f"unknown section [{section}]")
    return meta, specs


def _require(cond: bool, message: str):
    if not cond:
        raise ConfigError(message)


def _require_levels(spec: ExperimentSpec, ceiling: float, ceiling_name: str):
    """CuSum-AC's levels: a1 and eps1 given, 0 < a1 < ceiling, eps1 in (1e-3, 1]."""
    _require(spec.a1 is not None and spec.eps1 is not None,
             f"{spec.name}: cusum_ac needs a1 and eps1")
    _require(0 < spec.a1 < ceiling, f"{spec.name}: need 0 < a1 < {ceiling_name}")
    _require(1e-3 < spec.eps1 <= 1, f"{spec.name}: eps1 must lie in (1e-3, 1]")


def _validate_spec(spec: ExperimentSpec):
    _require(re.fullmatch(r"[\w-][\w.-]*", spec.name, re.ASCII) is not None,
             f"experiment name {spec.name!r} is not a plain file name "
             "(letters, digits, '_', '-', '.'; no leading '.')")
    _require(spec.sigma > 0, f"{spec.name}: sigma must be positive")
    _require(spec.mu0 != spec.mu1, f"{spec.name}: mu0 and mu1 must differ")
    _require(spec.m >= 1, f"{spec.name}: m must be at least 1")
    _require(spec.nu >= 1, f"{spec.name}: nu must be at least 1")
    _require(spec.cap is None or spec.cap >= 1, f"{spec.name}: cap must be at least 1")
    _require(spec.seed is None or 0 <= spec.seed < 2**64,
             f"{spec.name}: seed must be nonnegative and fit in 64 bits")
    if spec.kind in ("trace", "arlfa", "delay", "rate"):
        _require(spec.detector in ("cusum", "cusum_ac", "random_tx"),
                 f"{spec.name}: unknown detector {spec.detector!r}")
        _require(spec.a is not None and spec.a >= 0,
                 f"{spec.name}: threshold a is required and must be nonnegative")
        if spec.detector == "cusum_ac":
            _require_levels(spec, spec.a, "a")
        if spec.detector == "random_tx":
            _require(spec.epsilon is not None and 0 <= spec.epsilon <= 1,
                     f"{spec.name}: random_tx needs epsilon in [0, 1]")
    if spec.kind == "trace":
        _require(spec.m == 1, f"{spec.name}: trace supports a single sensor")
        _require(spec.horizon >= 1, f"{spec.name}: horizon must be positive")
    if spec.kind in ("arlfa", "delay", "delay_vs_arlfa", "delay_vs_rate", "calibrate"):
        _require(spec.n_reps >= 100, f"{spec.name}: n_reps must be at least 100")
    if spec.kind in ("rate", "calibrate"):
        _require(spec.horizon >= 10_000, f"{spec.name}: rate horizon must be >= 10000")
    if spec.kind == "rate":
        _require(spec.mode in ("no_stop", "conditional"),
                 f"{spec.name}: mode must be no_stop or conditional")
        _require(spec.n_reps >= 2, f"{spec.name}: n_reps must be at least 2")
    if spec.kind == "delay_vs_arlfa":
        _require(bool(spec.zeta_grid), f"{spec.name}: zeta_grid is required")
        _require(all(z >= 1 for z in spec.zeta_grid), f"{spec.name}: zeta values must be >= 1")
        ln_zeta = math.log(min(spec.zeta_grid))
        _require_levels(spec, ln_zeta, f"ln(min(zeta_grid)) = {ln_zeta:g}")
        _require(spec.epsilon is None or 0 < spec.epsilon <= 1,
                 f"{spec.name}: epsilon must lie in (0, 1]")
    if spec.kind in ("delay_vs_rate", "calibrate"):
        _require(spec.zeta is not None and spec.zeta >= 1, f"{spec.name}: zeta >= 1 required")
    if spec.kind == "delay_vs_rate":
        _require(bool(spec.epsilon_grid), f"{spec.name}: epsilon_grid is required")
        for eps in spec.epsilon_grid:
            _require(0 < eps < 1, f"{spec.name}: epsilon grid values must lie in (0, 1)")
            _require(round(eps, 2) in REFERENCE_TWO_LEVEL_PARAMS,
                     f"{spec.name}: no reference (a1, eps1) for epsilon={eps}; "
                     f"available: {sorted(REFERENCE_TWO_LEVEL_PARAMS)}")
    if spec.kind == "calibrate":
        _require(spec.epsilon is not None and 0 < spec.epsilon <= 1,
                 f"{spec.name}: epsilon in (0, 1] required")
        for e in spec.eps1_grid:
            _require(1e-3 < e <= 1, f"{spec.name}: eps1 grid values must lie in (1e-3, 1]")
        for a1 in spec.a1_grid:
            _require(a1 > 0, f"{spec.name}: a1 grid values must be positive")
    _require(0 < spec.tolerance < 1, f"{spec.name}: tolerance must lie in (0, 1)")


def _spec_to_items(spec: ExperimentSpec) -> dict:
    """Fully resolved key/value view of a spec (manifest form)."""
    out = {}
    allowed = _KINDS[spec.kind][0]
    for f in fields(ExperimentSpec):
        if f.name not in allowed:
            continue
        value = getattr(spec, f.name)
        if value is None or value == () :
            continue
        if f.name in _GRID_FIELDS:
            out[f.name] = " ".join(repr(v) for v in value)
        elif isinstance(value, bool):
            out[f.name] = "true" if value else "false"
        elif isinstance(value, float):
            out[f.name] = repr(value)
        else:
            out[f.name] = str(value)
    return out


def _config_hash(items: dict) -> str:
    canon = ";".join(f"{k}={items[k]}" for k in sorted(items))
    return hashlib.sha256(canon.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, columns, rows) -> Path:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])
    return path


class _RowSink:
    def __init__(self, spec: ExperimentSpec, seed: int):
        self.spec = spec
        self.seed = seed
        self.hash = _config_hash(_spec_to_items(spec))
        self.rows: list[dict] = []

    def add(self, detector: str, metric: str, est, **extra):
        base = {
            "experiment": self.spec.name, "kind": self.spec.kind,
            "config_hash": self.hash, "detector": detector,
            "m": self.spec.m, "mu0": self.spec.mu0, "mu1": self.spec.mu1,
            "sigma": self.spec.sigma, "nu": self.spec.nu, "seed": self.seed,
            "metric": metric, "mean": est.mean, "std_error": est.std_error,
            "n_reps": est.n_reps, "truncated_reps": est.truncated_reps,
        }
        base.update(extra)
        self.rows.append(base)

    def write(self, out_dir: Path, columns=RESULT_COLUMNS) -> Path:
        """Write the rows to ``<experiment name>.csv`` in ``out_dir``."""
        return _write_csv(out_dir / f"{self.spec.name}.csv", columns, self.rows)


def _detector_of(spec: ExperimentSpec, pairs):
    if spec.detector == "cusum":
        return CusumSpec(spec.a)
    if spec.detector == "random_tx":
        return RandomTxSpec(spec.a, spec.epsilon)
    return two_level(pairs, spec.a, spec.a1, spec.eps1)


def run(spec: ExperimentSpec, out_dir: Path, seed: int, n_jobs: int = 1) -> list[Path]:
    """Execute one experiment; returns the paths written.

    Each experiment draws from a stream derived from the master seed and the
    experiment name (order-independent), unless the section pins its own seed.
    A spec that breaks a config rule raises :class:`ConfigError` before
    anything is written.
    """
    _validate_spec(spec)
    out_dir.mkdir(parents=True, exist_ok=True)
    if spec.seed is not None:
        exp_seed = spec.seed
    else:
        exp_seed = derive_seed(seed, int.from_bytes(
            hashlib.sha256(spec.name.encode()).digest()[:4], "big"))
    pairs = [gaussian_mean_shift(spec.mu0, spec.mu1, spec.sigma)] * spec.m
    return _KINDS[spec.kind][1](spec, pairs, out_dir, exp_seed, n_jobs)


def _run_trace(spec, pairs, out_dir, seed, n_jobs):
    detector = _detector_of(spec, pairs)
    rows = simulate_trace(detector, pairs[0], spec.nu, spec.horizon, seed)
    return [_write_csv(out_dir / f"{spec.name}.csv", TRACE_COLUMNS, rows)]


def _detector_extra(spec) -> dict:
    return {"a": spec.a, "a1": spec.a1, "eps1": spec.eps1, "epsilon": spec.epsilon}


def _run_arlfa(spec, pairs, out_dir, seed, n_jobs):
    detector = _detector_of(spec, pairs)
    cap = spec.cap if spec.cap is not None else 1_000_000
    if spec.detector == "cusum_ac":
        pre = pre_change_run(detector, pairs, spec.n_reps, cap, seed, n_jobs=n_jobs)
        ests = {"arlfa": pre.arlfa, "feedback_ratio": pre.feedback_ratio,
                "frac_time_above_a1": pre.frac_time_above_a1}
    else:
        ests = {"arlfa": estimate_arlfa(detector, pairs, spec.n_reps, cap, seed,
                                        n_jobs=n_jobs)}
    sink = _RowSink(spec, seed)
    for metric, est in ests.items():
        sink.add(spec.detector, metric, est, **_detector_extra(spec), cap=cap)
    return [sink.write(out_dir, RESULT_COLUMNS + ["cap"])]


def _run_delay(spec, pairs, out_dir, seed, n_jobs):
    detector = _detector_of(spec, pairs)
    est = estimate_delay(detector, pairs, spec.n_reps, seed, nu=spec.nu,
                         cap=spec.cap if spec.cap is not None else 1_000_000,
                         worst_history=spec.worst_history, n_jobs=n_jobs)
    sink = _RowSink(spec, seed)
    sink.add(spec.detector, "delay", est, **_detector_extra(spec))
    return [sink.write(out_dir)]


def _run_rate(spec, pairs, out_dir, seed, n_jobs):
    detector = _detector_of(spec, pairs)
    est = estimate_comm_rate(detector, pairs, spec.horizon, spec.n_reps, seed,
                             mode=spec.mode, n_jobs=n_jobs)
    sink = _RowSink(spec, seed)
    sink.add(spec.detector, "comm_rate", est, **_detector_extra(spec),
             horizon=spec.horizon, mode=spec.mode)
    return [sink.write(out_dir)]


def _calibrate(spec, pairs, detector, zetas, seed, salt) -> list:
    """(threshold, ARLFA row) for each of ``zetas``, calibrated on stream ``salt`` of ``seed``.

    The thresholds come from one renewal curve of the ``detector`` family.
    Each row is a second curve with as many legs on stream ``salt + 1000``,
    evaluated only at the chosen thresholds, so it is not the estimate the
    calibration selected on.
    """
    curve = threshold_curve(detector, pairs, zetas, derive_seed(seed, salt), spec.tolerance)
    chosen = [calibrate_threshold(curve, zeta).a for zeta in zetas]
    grid = sorted(set(chosen))
    fresh = arlfa_curve(detector, pairs, grid, curve.n_legs, derive_seed(seed, salt + 1000))
    return [(a, fresh.estimate(grid.index(a))) for a in chosen]


def _measure(sink, pairs, name, detector, arlfa, delay_seed, extra, n_jobs):
    """Add a calibrated detector's ``arlfa`` and ``delay`` rows; return its delays.

    The (samples, truncated) pair is drawn from ``delay_seed``, shared by the sweep point.
    """
    samples, truncated = delay_samples(detector, pairs, sink.spec.n_reps,
                                       delay_seed, nu=sink.spec.nu, n_jobs=n_jobs)
    sink.add(name, "arlfa", arlfa, **extra)
    sink.add(name, "delay", summarize(samples, truncated), **extra)
    return samples, truncated


def _add_gap(sink, name, metric, mine, other, extra):
    """Add ``mine`` minus ``other`` as row ``metric``; both are delays on one delay seed."""
    sink.add(name, metric, paired_gap(mine[0], other[0], mine[1] + other[1]), **extra)


def _run_delay_vs_arlfa(spec, pairs, out_dir, seed, n_jobs):
    ac_of = lambda a: two_level(pairs, a, spec.a1, spec.eps1)
    zetas = spec.zeta_grid
    cusum = _calibrate(spec, pairs, CusumSpec(0.0), zetas, seed, 10)
    adaptive = _calibrate(spec, pairs, ac_of(math.inf), zetas, seed, 40)
    # A no-stop run ignores the alarm threshold, so one rate serves every zeta.
    rate = estimate_comm_rate(ac_of(math.inf), pairs, 10_000, max(100, spec.n_reps // 10),
                              derive_seed(seed, 100), n_jobs=n_jobs)
    sink = _RowSink(spec, seed)
    for i, (zeta, (a_c, arl_c), (a_ac, arl_ac)) in enumerate(zip(zetas, cusum, adaptive)):
        delay_seed = derive_seed(seed, 70 + i)
        c_extra = {"a": a_c, "epsilon": 1.0, "zeta_target": zeta}
        ac_extra = {"a": a_ac, "a1": spec.a1, "eps1": spec.eps1,
                    "epsilon": spec.epsilon, "zeta_target": zeta}
        c = _measure(sink, pairs, "cusum", CusumSpec(a_c), arl_c, delay_seed, c_extra, n_jobs)
        ac = _measure(sink, pairs, "cusum_ac", ac_of(a_ac), arl_ac, delay_seed, ac_extra,
                      n_jobs)
        _add_gap(sink, "cusum_ac", "delay_gap_vs_cusum", ac, c, ac_extra)
        sink.add("cusum_ac", "comm_rate", rate, **ac_extra)
    return [sink.write(out_dir)]


def _run_delay_vs_rate(spec, pairs, out_dir, seed, n_jobs):
    sink = _RowSink(spec, seed)
    zeta = spec.zeta
    [(a_c, arl_c)] = _calibrate(spec, pairs, CusumSpec(0.0), [zeta], seed, 7)
    # One shared delay seed pairs every detector rep-by-rep at each grid point.
    delay_seed = derive_seed(seed, 8)
    c = _measure(sink, pairs, "cusum", CusumSpec(a_c), arl_c, delay_seed,
                 {"a": a_c, "epsilon": 1.0, "zeta_target": zeta}, n_jobs)

    for i, eps in enumerate(spec.epsilon_grid):
        a1, eps1 = REFERENCE_TWO_LEVEL_PARAMS[round(eps, 2)]
        ac_of = lambda a: two_level(pairs, a, a1, eps1)
        [(a_ac, arl_ac)] = _calibrate(spec, pairs, ac_of(math.inf), [zeta], seed, 20 + i)
        [(a_rtx, arl_rtx)] = _calibrate(spec, pairs, RandomTxSpec(0.0, eps), [zeta], seed,
                                        50 + i)
        ac_extra = {"a": a_ac, "a1": a1, "eps1": eps1, "epsilon": eps, "zeta_target": zeta}
        rtx_extra = {"a": a_rtx, "epsilon": eps, "zeta_target": zeta}
        ac = _measure(sink, pairs, "cusum_ac", ac_of(a_ac), arl_ac, delay_seed, ac_extra,
                      n_jobs)
        _add_gap(sink, "cusum_ac", "delay_gap_vs_cusum", ac, c, ac_extra)
        rate_ac = estimate_comm_rate(ac_of(a_ac), pairs, 10_000,
                                     max(100, spec.n_reps // 10),
                                     derive_seed(seed, 80 + i), n_jobs=n_jobs)
        sink.add("cusum_ac", "comm_rate", rate_ac, **ac_extra)
        rtx = _measure(sink, pairs, "random_tx", RandomTxSpec(a_rtx, eps), arl_rtx,
                       delay_seed, rtx_extra, n_jobs)
        _add_gap(sink, "random_tx", "delay_gap_vs_cusum_ac", rtx, ac, rtx_extra)
    return [sink.write(out_dir)]


def _run_calibrate(spec, pairs, out_dir, seed, n_jobs):
    target = CalibrationTarget(zeta=spec.zeta, epsilon=spec.epsilon, nu=spec.nu,
                               tolerance=spec.tolerance)
    a1_grid = spec.a1_grid or DEFAULT_A1_GRID
    eps1_grid = spec.eps1_grid or DEFAULT_EPS1_GRID
    result = search_two_level(pairs, target, a1_grid, eps1_grid, n_reps=spec.n_reps,
                              seed=seed, rate_horizon=spec.horizon, n_jobs=n_jobs)
    trace_path = _write_csv(out_dir / f"{spec.name}_trace.csv", SEARCH_COLUMNS,
                            [rec.to_record() for rec in result.search_trace])
    sink = _RowSink(spec, seed)
    if result.config is not None:
        cfg = result.config
        extra = {"a": cfg.a, "a1": cfg.a1, "eps1": cfg.strategies[0].rate,
                 "epsilon": spec.epsilon, "zeta_target": spec.zeta}
        for metric in ("arlfa", "delay", "comm_rate", "feedback_ratio", "frac_time_above_a1"):
            sink.add("cusum_ac", metric, getattr(result.report, metric), **extra)
    path = sink.write(out_dir)
    if not result.feasible:
        print(f"warning: {spec.name}: no admissible candidate; only the trace written",
              file=sys.stderr)
    return [path, trace_path]


_KEYS_COMMON = {"kind", "mu0", "mu1", "sigma", "m", "seed"}
_KEYS_DETECTOR = _KEYS_COMMON | {"detector", "a", "a1", "eps1", "epsilon"}
# kind -> (config keys it accepts, handler(spec, pairs, out_dir, seed, n_jobs))
_KINDS = {
    "trace": (_KEYS_DETECTOR | {"nu", "horizon"}, _run_trace),
    "arlfa": (_KEYS_DETECTOR | {"n_reps", "cap"}, _run_arlfa),
    "delay": (_KEYS_DETECTOR | {"n_reps", "nu", "cap", "worst_history"}, _run_delay),
    "rate": (_KEYS_DETECTOR | {"n_reps", "horizon", "mode"}, _run_rate),
    "delay_vs_arlfa": (_KEYS_COMMON | {"zeta_grid", "a1", "eps1", "epsilon", "n_reps",
                                       "tolerance"}, _run_delay_vs_arlfa),
    "delay_vs_rate": (_KEYS_COMMON | {"zeta", "epsilon_grid", "n_reps", "tolerance"},
                      _run_delay_vs_rate),
    "calibrate": (_KEYS_COMMON | {"zeta", "epsilon", "a1_grid", "eps1_grid", "n_reps",
                                  "nu", "tolerance", "horizon"}, _run_calibrate),
}


def _canned_specs(figure: str, n_reps: int) -> list[ExperimentSpec]:
    if figure in ("fig4", "fig5"):
        budget = 0.7 if figure == "fig4" else 0.4
        a1, eps1 = FIG45_TWO_LEVEL_PARAMS[budget]
        spec = ExperimentSpec(
            name=figure, kind="delay_vs_arlfa", m=3,
            zeta_grid=(2000.0, 5000.0, 10000.0),
            a1=a1, eps1=eps1, epsilon=budget, n_reps=n_reps, tolerance=0.05)
    elif figure == "fig6":
        spec = ExperimentSpec(
            name=figure, kind="delay_vs_rate", m=3, zeta=10_000.0,
            epsilon_grid=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
            n_reps=n_reps, tolerance=0.05)
    else:
        raise ConfigError(f"unknown canned experiment {figure!r}")
    _validate_spec(spec)
    return [spec]


def reproduce(figure: str, out_dir, seed: int, n_reps: int = 2000, n_jobs: int = 1
              ) -> list[Path]:
    """Run one canned experiment and write its CSV plus the manifest."""
    return _run_all(_canned_specs(figure, n_reps), {}, Path(out_dir), seed, n_jobs)


def _write_manifest(path: Path, meta: dict, specs: list[ExperimentSpec], status: str,
                    wall: float):
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    parser["meta"] = {k: str(v) for k, v in meta.items()}
    for spec in specs:
        parser[f"experiment:{spec.name}"] = _spec_to_items(spec)
    parser["provenance"] = {"version": __version__, "status": status,
                            "wall_time_s": f"{wall:.1f}"}
    with open(path, "w") as fh:
        parser.write(fh)


def _run_all(specs, meta, out_dir: Path, seed: Optional[int], n_jobs: int) -> list[Path]:
    """Run every spec under master ``seed`` and write the manifest; the one seed check.

    The manifest is written before the first experiment with ``status =
    running`` and rewritten at the end as ``complete``, or ``failed`` when an
    experiment raised, so a partial run still records its seed and config.
    """
    _require(seed is not None, "a seed is required (give --seed or [meta] seed); "
                               "wall-clock seeding is not supported")
    _require(0 <= seed < 2**64, "seed must be nonnegative and fit in 64 bits")
    if not specs:
        return []
    t0 = time.time()
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = out_dir / "manifest.ini"
    meta = {**meta, "seed": seed}
    _write_manifest(manifest, meta, specs, "running", 0.0)
    written = []
    try:
        for spec in specs:
            written.extend(run(spec, out_dir, seed, n_jobs))
    except BaseException:
        _write_manifest(manifest, meta, specs, "failed", time.time() - t0)
        raise
    _write_manifest(manifest, meta, specs, "complete", time.time() - t0)
    return written + [manifest]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="cusumac",
        description="Quickest change detection experiments with adaptive censoring.")
    parser.add_argument("--config", type=Path, help="experiment config file")
    parser.add_argument("--seed", type=int, help="master seed (required unless in config)")
    parser.add_argument("--reps", type=int, help="override per-experiment n_reps")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--threads", type=int, default=None, help="worker processes")
    parser.add_argument("--reproduce", choices=("fig4", "fig5", "fig6"),
                        help="run a canned experiment instead of a config file")
    args = parser.parse_args(argv)

    try:
        _require(args.threads is None or args.threads >= 1, "--threads must be at least 1")
        if args.reproduce:
            meta, specs = {}, _canned_specs(args.reproduce, 2000)
        elif args.config:
            meta, specs = parse_config(args.config)
        else:
            parser.print_usage(sys.stderr)
            print("error: --config or --reproduce is required", file=sys.stderr)
            return 2
        if args.reps is not None:
            for spec in specs:
                spec.n_reps = args.reps
                _validate_spec(spec)
        seed = args.seed if args.seed is not None else meta.get("seed")
        threads = args.threads if args.threads is not None else meta.get("threads", 1)
        _run_all(specs, meta, args.out, seed, threads)
        return 0
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except Exception as err:  # infeasible targets, calibration failure
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
