"""Span tracer that wraps cusumac's public functions from outside the package.

Each layer boundary (a public function of one module) becomes a span: name,
layer, start, end and the index of the enclosing span.  Spans are kept in
memory and written out once the run ends.  Distribution-pair samplers are
called tens of thousands of times per run, so they are not spans: their call
count and time are added to the enclosing span instead.

Several functions are imported by value into the modules that call them
(``cli`` imports ``calibrate_threshold``; ``calibration`` imports
``estimate_arlfa``, ...), so every module attribute that *is* a wrapped
function gets replaced, not only the one in the defining module.
"""

from __future__ import annotations

import functools
import resource
import sys
import time

from cusumac import _engine, calibration, censoring, model, montecarlo, renewal
from cusumac.detectors import CusumAcConfig, CusumSpec, RandomTxSpec

from layers import ESTIMATORS

# (layer, module, attribute) of every wrapped function.
_TARGETS = (
    [("calibration", calibration, n) for n in ("calibrate_threshold", "search_two_level")]
    + [("montecarlo", montecarlo, n) for n in ESTIMATORS]
    + [("renewal", renewal, "estimate_cycle"), ("censoring", censoring, "optimize"),
       ("engine", _engine, "run_batch")]
)
_SAMPLERS = ("sample0", "sample1")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _family(detector) -> str:
    if isinstance(detector, CusumAcConfig):
        return "cusum_ac"
    if isinstance(detector, RandomTxSpec):
        return "random_tx"
    if isinstance(detector, CusumSpec):
        return "cusum"
    return type(detector).__name__


def _engine_attrs(kwargs, result, detector) -> dict:
    """Rep-steps simulated and (computed) rep-steps drawn in whole blocks."""
    if not kwargs.get("stop_enabled", True):
        mode = "nostop"
    elif kwargs.get("nu") is not None:
        mode = "delay"
    else:
        mode = "arl"
    block = getattr(_engine, "OBS_BLOCK", 1024)
    limit = int(kwargs["limit"])
    stop = result.stop_time.astype("int64")
    drawn_per_rep = -(-stop // block) * block
    drawn_per_rep[drawn_per_rep > limit] = limit
    family = _family(detector)
    if family != "cusum_ac" and kwargs.get("require_zero_at") is not None:
        # The conditioned i.i.d. step loop draws for every replication until
        # the last one finishes.
        drawn = int(drawn_per_rep.max()) * stop.size
    else:
        drawn = int(drawn_per_rep.sum())
    return {"family": family, "mode": mode, "n_reps": int(stop.size),
            "rep_steps": int(stop.sum()), "drawn": drawn}


class Tracer:
    """Wraps the layer boundaries; ``uninstall`` restores every original."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.pool_starts = 0

    # -- recording -------------------------------------------------------
    def _open(self, layer: str, name: str) -> dict:
        span = {"name": name, "layer": layer, "start": now(), "end": None,
                "parent": self._stack[-1] if self._stack else -1,
                "sample_calls": 0, "sample_s": 0.0}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: dict):
        span["end"] = now()
        self._stack.pop()

    def span(self, layer: str, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span (used for the root ``cli.main`` span)."""
        span = self._open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(span)

    def _wrap(self, layer: str, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer, name)
            if layer == "montecarlo":
                span["children_cpu0"] = _children_cpu()
            try:
                result = fn(*args, **kwargs)
            except calibration.CalibrationError as err:
                span["probes"] = len(err.probes)
                raise
            finally:
                self._close(span)
                if layer == "montecarlo":
                    span["children_cpu"] = _children_cpu() - span.pop("children_cpu0")
            if name == "calibrate_threshold":
                span["probes"] = len(result.probes)
            elif layer == "engine":
                detector = args[0] if args else kwargs["detector"]
                span.update(_engine_attrs(kwargs, result, detector))
            return result
        return wrapper

    def _wrap_sampler(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = now()
            try:
                return fn(*args, **kwargs)
            finally:
                if stack:
                    span = spans[stack[-1]]
                    span["sample_calls"] += 1
                    span["sample_s"] += now() - t0
        return wrapper

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "cusumac" or name.startswith("cusumac.")]
        for layer, module, attr in _TARGETS:
            original = getattr(module, attr)
            wrapped = self._wrap(layer, attr, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapped)
        for attr in _SAMPLERS:
            self._patch(model.GaussianPair, attr,
                        self._wrap_sampler(model.GaussianPair.__dict__[attr]))
        tracer = self
        base = montecarlo.ProcessPoolExecutor

        class CountingPool(base):
            def __init__(self, *args, **kwargs):
                tracer.pool_starts += 1
                super().__init__(*args, **kwargs)

        self._patch(montecarlo, "ProcessPoolExecutor", CountingPool)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
