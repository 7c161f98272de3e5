"""Result checker: reads the CSVs a cusumac run wrote and counts operations.

An operation is one calibrated threshold or one estimate row group.  It
fails if its experiment raised (no CSV), reports truncated replications,
misses its calibration tolerance, or breaks a rate bound the repo's tests
use: an adaptive-censoring point may exceed its budget by at most 0.005
(``tests/test_calibration.py`` asserts ``rate <= 0.40 + 0.005`` for the
budget-0.4 operating point), random transmission must send at its
probability within the same 0.005, and plain CuSum sends every slot.  The
experiments and their parameters are read back from the run's
``manifest.ini``, so the checker needs no copy of the workload definition.
"""

from __future__ import annotations

import configparser
import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

RATE_SLACK = 0.005


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    duplicate_columns: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)

    def op(self, name: str, problems: list):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"{name}: " + "; ".join(problems))


def read_rows(path: Path, dup_log: dict) -> list[dict]:
    """Rows keyed by column name; a repeated column must repeat its value."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = []
        dups = sorted({c for c in header if header.count(c) > 1})
        if dups:
            dup_log[path.name] = dups
        for raw in reader:
            row: dict = {}
            for col, value in zip(header, raw):
                if col in row and row[col] != value:
                    raise ValueError(f"{path.name}: column {col!r} repeated with "
                                     f"different values {row[col]!r} and {value!r}")
                row.setdefault(col, value)
            rows.append(row)
    return rows


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _num(row: dict, col: str) -> float:
    text = row.get(col, "")
    return float(text) if text not in ("", None) else math.nan


def _estimate_problems(row: dict) -> list:
    problems = []
    if not math.isfinite(_num(row, "mean")):
        problems.append(f"{row['metric']} mean not finite")
    if row.get("truncated_reps") not in ("0", ""):
        problems.append(f"{row['metric']} has {row['truncated_reps']} truncated reps")
    return problems


def _threshold_problems(mean: float, zeta: float, tol: float) -> list:
    if abs(mean - zeta) <= tol * zeta:
        return []
    return [f"ARLFA {mean:.1f} misses {zeta:g} by more than {tol:.1%}"]


def _rate_problems(row: dict, detector: str, budget: float) -> list:
    rate = _num(row, "mean")
    if detector == "cusum" and rate != 1.0:
        return [f"plain CuSum rate {rate} is not 1"]
    if detector == "random_tx" and abs(rate - budget) > RATE_SLACK:
        return [f"random-transmission rate {rate:.4f} not within {RATE_SLACK} of {budget}"]
    if detector == "cusum_ac" and rate > budget + RATE_SLACK:
        return [f"rate {rate:.4f} above budget {budget} + {RATE_SLACK}"]
    return []


def _check_delay_vs_arlfa(name, sec, rows, res: CheckResult):
    tol = float(sec["tolerance"])
    budget = float(sec["epsilon"])
    for zeta in (float(z) for z in sec["zeta_grid"].split()):
        group = [r for r in rows if float(r["zeta_target"]) == zeta]
        by = {(r["detector"], r["metric"]): r for r in group}
        for det in ("cusum", "cusum_ac"):
            row = by.get((det, "arlfa"))
            problems = (["missing arlfa row"] if row is None else
                        _estimate_problems(row)
                        + _threshold_problems(_num(row, "mean"), zeta, tol))
            res.op(f"{name} {det} threshold at zeta={zeta:g}", problems)
        wanted = [("cusum", "delay"), ("cusum_ac", "delay"),
                  ("cusum_ac", "delay_gap_vs_cusum"), ("cusum_ac", "comm_rate")]
        problems = []
        for key in wanted:
            row = by.get(key)
            if row is None:
                problems.append(f"missing {key[0]} {key[1]} row")
                continue
            problems += _estimate_problems(row)
            if key[1] == "comm_rate":
                problems += _rate_problems(row, "cusum_ac", budget)
        res.op(f"{name} estimates at zeta={zeta:g}", problems)


def _check_calibrate(name, sec, rows, trace_rows, res: CheckResult):
    zeta, tol, budget = float(sec["zeta"]), float(sec["tolerance"]), float(sec["epsilon"])
    for rec in trace_rows:
        if rec["note"] == "rate screen failed":
            continue  # screened out before calibration: no threshold was sought
        label = f"{name} threshold at (a1={rec['a1']}, eps1={rec['eps1']})"
        if rec["note"].startswith("calibration failed"):
            res.op(label, [rec["note"]])
            continue
        res.op(label, _threshold_problems(_num(rec, "arlfa_mean"), zeta, tol))
    problems = []
    if not any(rec["admissible"] == "1" for rec in trace_rows):
        problems.append("no admissible candidate")
    by = {r["metric"]: r for r in rows}
    for metric in ("arlfa", "delay", "comm_rate", "feedback_ratio", "frac_time_above_a1"):
        row = by.get(metric)
        if row is None:
            problems.append(f"missing {metric} row")
            continue
        problems += _estimate_problems(row)
    if "arlfa" in by:
        # The report re-measures ARLFA on a fresh seed: allow 3 standard errors.
        row = by["arlfa"]
        mean, band = _num(row, "mean"), tol * zeta + 3.0 * _num(row, "std_error")
        if not abs(mean - zeta) <= band:
            problems.append(f"reported ARLFA {mean:.1f} outside {zeta:g} +- {band:.1f}")
    if "comm_rate" in by:
        problems += _rate_problems(by["comm_rate"], "cusum_ac", budget)
    res.op(f"{name} selected configuration", problems)


def _check_single(name, sec, rows, res: CheckResult):
    kind, detector = sec["kind"], sec.get("detector", "cusum")
    problems = [] if rows else ["no rows"]
    for row in rows:
        problems += _estimate_problems(row)
        metric, mean = row["metric"], _num(row, "mean")
        if metric in ("arlfa", "delay") and not mean >= (1.0 if metric == "arlfa" else 0.0):
            problems.append(f"{metric} {mean} out of range")
        if metric == "comm_rate":
            budget = float(sec.get("epsilon", "1.0"))
            problems += _rate_problems(row, detector, budget)
    res.op(f"{name} {kind}", problems)


def check_run(out_dir: Path) -> CheckResult:
    """Check every experiment listed in ``out_dir/manifest.ini``."""
    res = CheckResult()
    manifest = configparser.ConfigParser(interpolation=None)
    manifest.optionxform = str
    if not manifest.read(out_dir / "manifest.ini"):
        res.op("manifest", ["manifest.ini missing"])
        return res
    for section in manifest.sections():
        if not section.startswith("experiment:"):
            continue
        name = section.split(":", 1)[1]
        sec = manifest[section]
        path = out_dir / f"{name}.csv"
        if not path.exists():
            res.op(name, [f"{path.name} missing"])
            continue
        res.digests[path.name] = sha256(path)
        try:
            rows = read_rows(path, res.duplicate_columns)
        except ValueError as err:
            res.op(name, [str(err)])
            continue
        if sec["kind"] == "delay_vs_arlfa":
            _check_delay_vs_arlfa(name, sec, rows, res)
        elif sec["kind"] == "calibrate":
            trace_path = out_dir / f"{name}_trace.csv"
            if not trace_path.exists():
                res.op(name, [f"{trace_path.name} missing"])
                continue
            res.digests[trace_path.name] = sha256(trace_path)
            _check_calibrate(name, sec, rows, read_rows(trace_path, res.duplicate_columns), res)
        else:
            _check_single(name, sec, rows, res)
    return res
