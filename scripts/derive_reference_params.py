#!/usr/bin/env python3
"""Derive the reference (a1, eps1) operating points for the delay-vs-rate sweep.

For each communication budget the script runs ``calibration.search_two_level``
once over a small candidate grid: it measures each candidate's network rate
once and drops the inadmissible ones (rate more than three standard errors
above the budget), calibrates each admissible candidate's threshold on its
own renewal ARLFA curve (at the default tolerance of ``CalibrationTarget``,
0.05: the curve's relative standard error at the threshold is at most
0.05 / 6), and keeps the one with the smallest delay.  ``--reps`` sizes the
delay and rate batches of each candidate (at least 100 rate replications)
and the winner's direct re-measurement; it plays no part in the
calibration.  A candidate whose ARLFA just above a1 already exceeds the
target is listed as ``calibration failed``.  The script prints every
candidate of the search trace (``arlfa`` there is the in-sample curve value),
then the winning table in the form of cusumac.cli's
REFERENCE_TWO_LEVEL_PARAMS.  That table was not produced by this script
as it stands: it predates the admissibility rule above, and its budget-0.1
entry, eps1 = 0.055, is not on this script's grid (0.045, 0.06, 0.075 and
0.09 at that budget).  Regenerating the table means replacing it with this
script's output.

``--threads`` sets the worker processes, as ``cusumac --threads`` does: the
candidates of each search fan out over one worker pool, and the output is
the same for any worker count.

Usage: python scripts/derive_reference_params.py [--zeta 10000] [--sensors 3]
           [--reps 600] [--seed 20240501] [--threads 1]
"""

import argparse
import time

from cusumac import gaussian_mean_shift
from cusumac.calibration import CalibrationTarget, search_two_level

EPS_GRID = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
A1_CANDIDATES = [0.4, 0.8, 1.2]
# Tight budgets need a higher switching threshold: the three-sensor fused
# statistic spends too much time above small thresholds otherwise.
A1_CANDIDATES_TIGHT = [0.8, 1.2, 1.6, 2.0, 2.4]
EPS1_FRACTIONS = [0.45, 0.6, 0.75, 0.9]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--zeta", type=float, default=10_000.0, help="ARLFA target")
    ap.add_argument("--sensors", type=int, default=3, help="identical Gaussian sensors")
    ap.add_argument("--reps", type=int, default=600,
                    help="replications of each delay batch (rate batches: a tenth, at least 100)")
    ap.add_argument("--seed", type=int, default=20240501, help="master seed")
    ap.add_argument("--threads", type=int, default=1, help="worker processes")
    args = ap.parse_args()
    if args.threads < 1:
        ap.error("--threads must be at least 1")

    pairs = [gaussian_mean_shift(0.0, 0.5, 1.0)] * args.sensors
    table = {}
    for eps in EPS_GRID:
        t0 = time.time()
        result = search_two_level(
            pairs, CalibrationTarget(zeta=args.zeta, epsilon=eps),
            a1_grid=A1_CANDIDATES_TIGHT if eps <= 0.2 else A1_CANDIDATES,
            eps1_grid=[round(f * eps, 3) for f in EPS1_FRACTIONS],
            n_reps=args.reps, seed=args.seed, n_jobs=args.threads)
        for rec in result.search_trace:
            verdict = "admissible" if rec.admissible else rec.note
            print(f"  eps={eps} a1={rec.a1} eps1={rec.eps1}: a={rec.a:.3f} "
                  f"arlfa={rec.arlfa_mean:.0f} rate={rec.rate_mean:.3f}+-{rec.rate_se:.3f} "
                  f"delay={rec.delay_mean:.2f}+-{rec.delay_se:.2f} "
                  f"E'={rec.eprime_verdict} [{verdict}]")
        if not result.feasible:
            print(f"eps={eps}: NO ADMISSIBLE CANDIDATE")
            continue
        cfg, report = result.config, result.report
        table[eps] = (cfg.a1, cfg.strategies[0].rate, cfg.a)
        print(f"eps={eps}: chose a1={cfg.a1} eps1={cfg.strategies[0].rate} (a={cfg.a:.3f}, "
              f"rate={report.comm_rate.mean:.3f}, delay={report.delay.mean:.2f}) "
              f"[{time.time() - t0:.0f}s]")

    print("\nREFERENCE_TWO_LEVEL_PARAMS = {")
    for eps, (a1, eps1, a) in sorted(table.items()):
        print(f"    {eps}: ({a1}, {eps1}),  # calibrated a ~ {a:.2f}")
    print("}")


if __name__ == "__main__":
    main()
