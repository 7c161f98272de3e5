"""Layered benchmark of the cusumac command-line interface.

    python3 perfbench/run.py --workload {fig5,search,estimates} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout.  Every invocation starts a fresh
interpreter on ``perfbench/child.py``, which runs ``cusumac.cli.main`` on a
config this script writes from the workload seed.  An untraced run cycles
through sub-seeds derived from ``--seed``, one invocation each, until the
next one would overrun ``--seconds`` (at least three).  The result CSVs are
checked (checks.py) and their sha256 digests reported.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (launch until the
CSVs and manifest are written), ``setup_s`` (launch until the first
experiment is dispatched: interpreter start, ``import cusumac.cli``, config
parse) and ``peak_rss_mb`` (largest resident set of the CLI process or any
of its workers), each the median over the invocations.  ``--trace 1`` runs
two sub-seeds untraced and traced and prints the per-layer metrics plus the
tracing overhead.  The next-to-last line of output is the full report
(provenance, digests, every invocation); the last line is the summary.
NOTES.md explains the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402

DEADLINE_S = 170.0  # a run must end within 180 s
INVOCATION_TIMEOUT_S = 150.0
SUB_SEEDS = 16        # distinct inputs an untraced run cycles through
MIN_INVOCATIONS = 3   # full invocations per untraced run, even past --seconds
TRACED_SEEDS = 2      # sub-seeds run untraced and traced in a traced run


@dataclass(frozen=True)
class Workload:
    name: str
    config: str          # INI text; the sub-seed goes on the command line
    threads: int = 1


WORKLOADS = {w.name: w for w in (
    # The paper's headline figure at reduced size: calibration and the
    # CuSum-AC kernel do most of the work (see NOTES.md for the scaling).
    Workload(
        name="fig5",
        config="""\
[experiment:fig5]
kind = delay_vs_arlfa
m = 3
zeta_grid = 1000 2000
a1 = 0.79
eps1 = 0.27
epsilon = 0.4
n_reps = 400
tolerance = 0.2
"""),
    # The only workload that runs renewal.estimate_cycle; also rate screens,
    # warm-started calibration and one worker pool per estimator call.
    Workload(
        name="search",
        threads=2,
        config="""\
[experiment:search]
kind = calibrate
m = 3
zeta = 1000
epsilon = 0.4
a1_grid = 0.8 1.2
eps1_grid = 0.27
n_reps = 200
tolerance = 0.2
"""),
    # The control: fixed thresholds, no calibration or renewal; the i.i.d.
    # block engine does most of the work.
    Workload(
        name="estimates",
        config="""\
[experiment:cusum_arlfa]
kind = arlfa
detector = cusum
m = 3
a = 7.22
n_reps = 300

[experiment:cusum_delay]
kind = delay
detector = cusum
m = 3
a = 7.22
n_reps = 2000

[experiment:cusum_rate]
kind = rate
detector = cusum
m = 3
a = 7.22
n_reps = 50

[experiment:rtx_arlfa]
kind = arlfa
detector = random_tx
epsilon = 0.5
m = 3
a = 6.76
n_reps = 300

[experiment:rtx_delay]
kind = delay
detector = random_tx
epsilon = 0.5
m = 3
a = 6.76
n_reps = 2000

[experiment:rtx_rate]
kind = rate
detector = random_tx
epsilon = 0.5
m = 3
a = 6.76
n_reps = 50

[experiment:ac_worst_delay]
kind = delay
detector = cusum_ac
m = 1
a = 4.5
a1 = 0.78
eps1 = 0.63
nu = 20
worst_history = true
n_reps = 1000

[experiment:rtx_conditional_rate]
kind = rate
detector = random_tx
epsilon = 0.5
m = 3
a = 6.76
mode = conditional
n_reps = 40
"""),
)}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def sub_seeds(workload: str, seed: int, n: int) -> list[int]:
    """The workload's inputs: n cusumac master seeds derived from --seed."""
    return [int.from_bytes(hashlib.sha256(f"{workload}:{seed}:{i}".encode()).digest()[:8],
                           "big") >> 1 for i in range(n)]


def invoke(work: Path, wl: Workload, config: Path, sub_seed: int, tag: str, mode: str,
           deadline: float) -> dict:
    """One timed CLI invocation (mode plain or traced) and the checks of its CSVs."""
    out = work / tag
    report_path = work / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path), mode,
           "--", "--config", str(config), "--seed", str(sub_seed), "--out", str(out),
           "--threads", str(wl.threads)]
    with open(work / f"{tag}.log", "w") as log:
        t_launch = now()
        proc = subprocess.Popen(cmd, cwd=work, stdout=log, stderr=subprocess.STDOUT,
                                start_new_session=True)
        limit = min(t_launch + INVOCATION_TIMEOUT_S, deadline)
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if now() > limit:
                os.killpg(proc.pid, signal.SIGKILL)
                _, status, rusage = os.wait4(proc.pid, 0)
                break
            time.sleep(0.02)
        proc.returncode = os.waitstatus_to_exitcode(status)
    inv = {"tag": tag, "sub_seed": sub_seed, "mode": mode, "rc": proc.returncode,
           "peak_rss_mb": rusage.ru_maxrss / 1024.0,
           "cpu_s": rusage.ru_utime + rusage.ru_stime}
    if proc.returncode == 0 and report_path.exists():
        rep = json.loads(report_path.read_text())
        inv.update(wall_s=rep["t_end"] - t_launch, setup_s=rep["t_first"] - t_launch,
                   import_s=rep["t_import"] - t_launch)
        if mode == "traced":
            inv.update(pool_starts=rep["pool_starts"],
                       pool_call_overhead_ms=rep["pool_call_overhead_ms"],
                       spans_file=str(report_path) + ".spans.json")
        res = checks.check_run(out)
    else:
        res = checks.CheckResult()
        res.op(tag, [f"exit code {proc.returncode}; see {work / (tag + '.log')}"])
    inv.update(attempted=res.attempted, failed=res.failed, failures=res.failures,
               digests=res.digests, duplicate_columns=res.duplicate_columns)
    shutil.rmtree(out, ignore_errors=True)
    return inv


def provenance(args, wl: Workload, seeds: list[int]) -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "python": platform.python_version(), "numpy": version("numpy"),
        "scipy": version("scipy"), "git_commit": git_commit(), "src_sha256": src.hexdigest(),
        "workload": wl.name, "seed": args.seed, "sub_seeds": seeds, "threads": wl.threads,
        "config": wl.config, "seconds": args.seconds, "trace": args.trace,
    }


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def summarize(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) >= 2 else [values[0]] * 3
    return {"median": statistics.median(values), "q1": q[0], "q3": q[2], "n": len(values)}


def run(args) -> tuple[dict, dict]:
    wl = WORKLOADS[args.workload]
    seeds = sub_seeds(wl.name, args.seed, SUB_SEEDS)
    work = ROOT / ".perfbench" / f"{wl.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / f"{wl.name}.ini"
    config.write_text(wl.config)
    t0 = now()
    deadline = t0 + DEADLINE_S
    invocations: list[dict] = []
    problems: list[str] = []

    if args.trace:
        # A fixed set of sub-seeds, so per-layer counts repeat exactly.
        for i, s in enumerate(seeds[:TRACED_SEEDS]):
            for mode in ("plain", "traced"):
                invocations.append(invoke(work, wl, config, s, f"s{i}-{mode}", mode,
                                          deadline))
    else:
        # Cycle through the sub-seeds until the next invocation would overrun
        # --seconds.
        i = 0
        while True:
            s = seeds[i % len(seeds)]
            invocations.append(invoke(work, wl, config, s, f"i{i}", "plain", deadline))
            i += 1
            if i >= MIN_INVOCATIONS and (now() - t0) * (i + 1) / i > args.seconds:
                break

    # A sub-seed must write the same CSVs every time it runs, traced or not.
    by_seed: dict = {}
    for inv in invocations:
        if inv["rc"] == 0:
            first = by_seed.setdefault(inv["sub_seed"], inv)
            if inv["digests"] != first["digests"]:
                problems.append(f"{inv['tag']}: CSV digests differ from {first['tag']}")
    attempted = sum(inv["attempted"] for inv in invocations)
    failed = sum(inv["failed"] for inv in invocations)
    done = [inv for inv in invocations if inv["rc"] == 0]
    plain = [inv for inv in done if inv["mode"] == "plain"]
    traced = [inv for inv in done if inv["mode"] == "traced"]

    metrics: dict = {}
    detail: dict = {}
    if not args.trace and plain:
        for name, unit in (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")):
            stats = summarize([inv[name] for inv in plain])
            metrics[name] = {"value": stats["median"], "unit": unit}
            detail[name] = dict(stats, unit=unit)
    elif args.trace and len(traced) == TRACED_SEEDS and plain:
        spans = layers.merge([json.loads(Path(inv["spans_file"]).read_text())
                              for inv in traced])
        values, missing = layers.layer_metrics(
            spans, sum(inv["pool_starts"] for inv in traced), len(traced))
        values["montecarlo.pool_call_overhead_ms"] = (
            statistics.median(inv["pool_call_overhead_ms"] for inv in traced), "ms")
        plain_wall = statistics.median(inv["wall_s"] for inv in plain)
        traced_wall = statistics.median(inv["wall_s"] for inv in traced)
        values["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        values["trace.wall_s"] = (traced_wall, "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(values.items())}
        nesting = layers.check_nesting(spans)
        problems += nesting
        detail = {"not_measured": missing, "n_spans": len(spans),
                  "spans_files": [inv["spans_file"] for inv in traced],
                  "untraced_wall_s": plain_wall}

    correct = (bool(invocations) and failed == 0 and not problems
               and all(inv["rc"] == 0 for inv in invocations) and bool(metrics))
    report = {
        "provenance": dict(provenance(args, wl, seeds), elapsed_s=now() - t0,
                           invocations=len(invocations)),
        "metrics_detail": detail,
        "problems": problems,
        "failures": [f for inv in invocations for f in inv["failures"]],
        "duplicate_columns": next((inv["duplicate_columns"] for inv in invocations
                                   if inv["duplicate_columns"]), {}),
        "digests": {str(s): by_seed[s]["digests"] for s in by_seed},
        "invocations": [{k: v for k, v in inv.items() if k not in ("digests", "failures")}
                        for inv in invocations],
    }
    (work / "report.json").write_text(json.dumps(report, indent=1))
    if correct:
        for path in work.iterdir():
            if path.name != "report.json" and not path.name.endswith(".spans.json"):
                path.unlink()
    summary = {"correct": correct, "attempted": attempted, "failed": failed,
               "metrics": metrics}
    return report, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cusumac" / "cli.py").is_file():
        print(f"error: no cusumac source tree under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    report, summary = run(args)
    print(json.dumps(report))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
