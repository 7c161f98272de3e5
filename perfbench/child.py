"""One timed invocation of the cusumac command-line interface.

    python3 perfbench/child.py REPORT MODE -- CLI_ARGS...

Runs ``cusumac.cli.main(CLI_ARGS)`` from the checkout's ``src`` tree and
writes REPORT, a JSON object holding CLOCK_MONOTONIC timestamps (interpreter
ready, ``cusumac.cli`` imported, first experiment dispatched, results and
manifest written) and the exit code.  CLOCK_MONOTONIC is system-wide, so the
parent compares these stamps with its own launch time.  MODE ``traced``
also wraps the layer boundaries (tracer.py), writes the spans to
REPORT.spans.json and adds the worker-pool start count and the pool call
overhead to REPORT; MODE ``plain`` runs unwrapped.
"""

import time

T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import cusumac.cli as cli  # noqa: E402

T_IMPORT = time.clock_gettime(time.CLOCK_MONOTONIC)


def _pool_call_overhead_ms(repeats: int = 5) -> float:
    """Median extra wall time of a trivial ARLFA estimate at n_jobs=2 over n_jobs=1."""
    from cusumac.detectors import CusumSpec
    from cusumac.model import gaussian_mean_shift
    from cusumac.montecarlo import estimate_arlfa

    pairs = [gaussian_mean_shift(0.0, 0.5, 1.0)]
    diffs = []
    for i in range(repeats):
        walls = {}
        for n_jobs in ((1, 2) if i % 2 == 0 else (2, 1)):
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            estimate_arlfa(CusumSpec(0.5), pairs, 100, 100, seed=i, n_jobs=n_jobs)
            walls[n_jobs] = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        diffs.append(walls[2] - walls[1])
    return statistics.median(diffs) * 1e3


def main(argv: list[str]) -> int:
    report_path, mode = Path(argv[0]), argv[1]
    cli_args = argv[3:] if argv[2:3] == ["--"] else argv[2:]
    marks = {"t_start": T_START, "t_import": T_IMPORT, "t_first": None}

    # Set-up ends when the first experiment is dispatched; the wrapper
    # removes itself on that first call.
    original_run = cli.run

    def first_run(*args, **kwargs):
        marks["t_first"] = time.clock_gettime(time.CLOCK_MONOTONIC)
        cli.run = original_run
        return original_run(*args, **kwargs)

    cli.run = first_run
    tracer = None
    if mode == "traced":
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
        rc = tracer.span("cli", "main", cli.main, cli_args)
        tracer.uninstall()
    else:
        rc = cli.main(cli_args)
    marks["t_end"] = time.clock_gettime(time.CLOCK_MONOTONIC)
    cli.run = original_run
    report = dict(marks, rc=rc)

    if tracer is not None:
        report.update(pool_starts=tracer.pool_starts,
                      pool_call_overhead_ms=_pool_call_overhead_ms())
        spans_path = report_path.with_name(report_path.name + ".spans.json")
        spans_path.write_text(json.dumps(tracer.spans))
    report_path.write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
