"""Fast self-test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload at tiny sizes, once untraced and twice traced at one
sub-seed, and checks that: every invocation exits 0 and passes the result
checks; the untraced and both traced invocations write identical CSVs; the
spans nest with self times >= 0; and every per-layer count (probes,
rep-steps, calls, ...) repeats exactly between the two traced invocations.
Takes about a minute on two cores.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import sys
from pathlib import Path

import run
import layers

SEED = 20260808


def tiny(wl: run.Workload) -> run.Workload:
    config = re.sub(r"(?m)^n_reps = \d+$", "n_reps = 100", wl.config)
    config = re.sub(r"(?m)^zeta_grid = .*$", "zeta_grid = 300", config)
    config = re.sub(r"(?m)^zeta = .*$", "zeta = 300", config)
    return dataclasses.replace(wl, config=config)


def check_workload(wl: run.Workload, work: Path) -> list[str]:
    work.mkdir(parents=True)
    config = work / f"{wl.name}.ini"
    config.write_text(wl.config)
    sub_seed = run.sub_seeds(wl.name, SEED, 1)[0]
    deadline = run.now() + run.DEADLINE_S
    invs = [run.invoke(work, wl, config, sub_seed, tag, mode, deadline)
            for tag, mode in (("plain", "plain"), ("traced1", "traced"), ("traced2", "traced"))]
    errors = []
    for inv in invs:
        if inv["rc"] != 0 or inv["failed"] or not inv["attempted"]:
            errors.append(f"{inv['tag']}: rc={inv['rc']} attempted={inv['attempted']} "
                          f"failures={inv['failures']}")
    if errors:
        return errors
    if not invs[0]["digests"] or any(inv["digests"] != invs[0]["digests"] for inv in invs):
        errors.append("CSV digests differ between untraced and traced invocations")
    counts = []
    for inv in invs[1:]:
        spans = json.loads(Path(inv["spans_file"]).read_text())
        errors += [f"{inv['tag']}: {p}" for p in layers.check_nesting(spans)]
        if not spans or spans[0]["name"] != "main":
            errors.append(f"{inv['tag']}: no root cli.main span")
        values, _ = layers.layer_metrics(spans, inv["pool_starts"])
        counts.append({k: v for k, (v, unit) in values.items() if unit == "count"})
    if counts[0] != counts[1]:
        diff = {k: (counts[0][k], counts[1][k]) for k in counts[0]
                if counts[0][k] != counts[1][k]}
        errors.append(f"per-layer counts differ between traced runs: {diff}")
    return errors


def main() -> int:
    if not (run.ROOT / "src" / "cusumac" / "cli.py").is_file():
        print("error: run from a source checkout", file=sys.stderr)
        return 2
    base = run.ROOT / ".perfbench" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    failed = False
    for name, wl in run.WORKLOADS.items():
        errors = check_workload(tiny(wl), base / name)
        failed |= bool(errors)
        print(f"{'FAIL' if errors else 'ok  '} {name}")
        for err in errors:
            print(f"     {err}")
    if not failed:
        shutil.rmtree(base, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
