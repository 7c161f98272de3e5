"""Per-layer metrics computed from recorded spans (no cusumac import needed).

A span is a dict with ``name``, ``layer``, ``start``, ``end``, ``parent``
(index of the enclosing span, -1 for a root) and the sampler time and call
count spent directly inside it; engine spans also carry ``family``, ``mode``,
``rep_steps`` and ``drawn``; montecarlo spans carry ``children_cpu``.
A span's self time is its duration minus its child spans and sampler time.
"""

from __future__ import annotations

import math
import statistics

LAYERS = ("cli", "calibration", "montecarlo", "renewal", "censoring", "engine", "model")
FAMILIES = ("cusum_ac", "cusum", "random_tx")
MODES = ("arl", "delay", "nostop")
ESTIMATORS = ("estimate_arlfa", "estimate_delay", "estimate_comm_rate", "delay_samples",
              "pre_change_run", "measure_performance")


def self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] - s["sample_s"] for s in spans]
    for s in spans:
        if s["parent"] >= 0:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def merge(span_lists: list[list[dict]]) -> list[dict]:
    """Concatenate the spans of several processes, re-basing parent indices."""
    out: list[dict] = []
    for spans in span_lists:
        base = len(out)
        out.extend(dict(s, parent=s["parent"] + base if s["parent"] >= 0 else -1)
                   for s in spans)
    return out


def _dur(s: dict) -> float:
    return s["end"] - s["start"]


def _has_ancestor(spans, idx: int, name: str) -> bool:
    idx = spans[idx]["parent"]
    while idx >= 0:
        if spans[idx]["name"] == name:
            return True
        idx = spans[idx]["parent"]
    return False


def _outermost(spans, layer: str) -> list[dict]:
    """Spans of ``layer`` with no enclosing span of the same layer."""
    out = []
    for s in spans:
        if s["layer"] != layer:
            continue
        p = s["parent"]
        while p >= 0 and spans[p]["layer"] != layer:
            p = spans[p]["parent"]
        if p < 0:
            out.append(s)
    return out


def layer_metrics(spans: list[dict], pool_starts: int, invocations: int = 1
                  ) -> tuple[dict, dict]:
    """Per-layer metrics over the spans of ``invocations`` traced runs.

    Counts and seconds are means per invocation; ratios are taken over the
    totals.  Returns ``(values, not_measured)``: ``values`` maps each metric
    to ``(value, unit)``; ``not_measured`` maps a metric whose base the traced
    process did not see to the reason, and such a metric reads 0.
    """
    own = self_times(spans)
    values: dict = {}
    missing: dict = {}
    per = 1.0 / invocations
    unseen = ("engine batches ran in worker processes, outside the traced process"
              if pool_starts else "no such engine calls in this workload")

    def put(name, total, unit):
        values[name] = (float(total) * per, unit)

    def ratio(name, num, den, unit, reason):
        values[name] = (float(num / den) if den > 0 else 0.0, unit)
        if den <= 0:
            missing[name] = reason

    engine = [i for i, s in enumerate(spans) if s["layer"] == "engine"]
    total_steps = sum(spans[i]["rep_steps"] for i in engine)

    for layer in LAYERS:
        t = sum(own[i] for i, s in enumerate(spans) if s["layer"] == layer)
        if layer == "model":
            t = sum(s["sample_s"] for s in spans)
        put(f"{layer}.self_s", t, "s")

    cal = [i for i, s in enumerate(spans) if s["name"] == "calibrate_threshold"]
    put("calibration.thresholds", len(cal), "count")
    put("calibration.s", sum(_dur(s) for s in _outermost(spans, "calibration")), "s")
    ratio("calibration.probes_per_threshold", sum(spans[i].get("probes", 0) for i in cal),
          len(cal), "count", "no calibrated thresholds")
    cal_steps = sum(spans[i]["rep_steps"] for i in engine
                    if _has_ancestor(spans, i, "calibrate_threshold"))
    ratio("calibration.rep_steps_per_threshold", cal_steps, len(cal) if cal_steps else 0,
          "count", unseen if cal else "no calibrated thresholds")

    for fam in FAMILIES:
        for mode in MODES:
            sel = [spans[i] for i in engine
                   if spans[i]["family"] == fam and spans[i]["mode"] == mode]
            steps = sum(s["rep_steps"] for s in sel)
            secs = sum(_dur(s) for s in sel)
            key = f"engine.{fam}.{mode}"
            put(f"{key}.rep_steps", steps, "count")
            put(f"{key}.s", secs, "s")
            ratio(f"{key}.ns_per_rep_step", secs * 1e9, steps, "ns", unseen)
            if not steps and pool_starts:
                missing[f"{key}.rep_steps"] = missing[f"{key}.s"] = unseen
    ratio("engine.block_fill", total_steps, sum(spans[i]["drawn"] for i in engine),
          "ratio", unseen)

    outer_mc = _outermost(spans, "montecarlo")
    for est in ESTIMATORS:
        sel = [s for s in spans if s["layer"] == "montecarlo" and s["name"] == est]
        put(f"montecarlo.{est}.calls", len(sel), "count")
        put(f"montecarlo.{est}.s", sum(_dur(s) for s in sel), "s")
    ratio("montecarlo.worker_cpu_per_wall", sum(s["children_cpu"] for s in outer_mc),
          sum(_dur(s) for s in outer_mc), "ratio", "no estimator calls")
    put("montecarlo.pool_starts", pool_starts, "count")

    cyc = [i for i, s in enumerate(spans) if s["name"] == "estimate_cycle"]
    cyc_s = sum(_dur(spans[i]) for i in cyc)
    put("renewal.estimate_cycle.calls", len(cyc), "count")
    put("renewal.estimate_cycle.s", cyc_s, "s")
    ratio("renewal.estimate_cycle.engine_share",
          sum(_dur(spans[i]) for i in engine if _has_ancestor(spans, i, "estimate_cycle")),
          cyc_s, "ratio", "no estimate_cycle calls")

    opt = [_dur(s) for s in spans if s["name"] == "optimize"]
    put("censoring.optimize.calls", len(opt), "count")
    put("censoring.s", sum(_dur(s) for s in _outermost(spans, "censoring")), "s")
    values["censoring.optimize_ms"] = (statistics.median(opt) * 1e3 if opt else 0.0, "ms")
    if not opt:
        missing["censoring.optimize_ms"] = "no optimize calls"

    put("model.sample_calls", sum(s["sample_calls"] for s in spans), "count")
    put("model.sample_s", sum(s["sample_s"] for s in spans), "s")
    ratio("model.sample_calls_per_rep_step", sum(spans[i]["sample_calls"] for i in engine),
          total_steps, "ratio", unseen)
    return values, missing


def check_nesting(spans: list[dict], tol: float = 1e-9) -> list[str]:
    """Problems with the span tree: unclosed spans, children outside their
    parent's interval, negative self time."""
    problems = []
    for i, s in enumerate(spans):
        if s["end"] is None or s["end"] < s["start"]:
            problems.append(f"span {i} ({s['name']}) not closed properly")
            continue
        p = s["parent"]
        if p >= 0 and not (spans[p]["start"] <= s["start"] and s["end"] <= spans[p]["end"]):
            problems.append(f"span {i} ({s['name']}) escapes its parent {p}")
    if not problems:
        for i, t in enumerate(self_times(spans)):
            if t < -tol or math.isnan(t):
                problems.append(f"span {i} ({spans[i]['name']}) has self time {t}")
    return problems
