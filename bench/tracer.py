"""Span recorder for the benchmark's traced runs.

A traced child process calls :func:`install`, which wraps the public
functions of each ``lgqsmooth`` module named in ``TARGETS`` and rebinds
every module attribute that still refers to an original function, so a
call made through ``from .x import f`` in another module is timed too.
Spans stay in memory and are written out once, when the process ends.

A span is ``[name, start, end, parent, items]``: times come from
``CLOCK_MONOTONIC``, which every process on the host shares, ``parent``
is the index of the enclosing span in the same process (-1 at the top),
and ``items`` is the unit of work the call reports (records, samples,
trajectories or bytes; 0 when the layer has none).

:func:`layer_metrics` turns the spans of one workload run into the
per-layer metrics.  Times are self times (a span minus the union of its
child spans), except the ``pipeline`` stage, study and criterion times,
which are whole-span times; ``pipeline.self_s`` is their self part.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time
from collections import Counter

now = functools.partial(time.clock_gettime, time.CLOCK_MONOTONIC)

# criterion helper -> report index, so a criterion's time keeps its number
CRITERIA = {
    "_crit_filter_ss": 1, "_crit_t0_ratios": 2, "_crit_true_target": 3,
    "_crit_injection": 4, "_crit_consistency": 5, "_crit_mse": 6,
    "_crit_riccati": 7, "_crit_physicality": 8, "_crit_vacf": 9,
    "_crit_demod": 10, "_crit_reproducible": 11,
}
STAGES = ("simulate", "estimate", "smooth", "analyze", "demod", "inject")


def _n_samples(args, kwargs, result):
    first = args[0]
    if hasattr(first, "ndim"):          # stacked kernel: (N, n, 2) currents
        return int(first.shape[0] * first.shape[1])
    if isinstance(first, (list, tuple)):  # run_ltl_filter(records, ...)
        return sum(r.n for r in first)
    return first.n


def _n_records(args, kwargs, result):
    # an ensemble knows its size; simulate_true_and_record makes one record
    return getattr(result, "n_records", 1)


def _n_trajectories(args, kwargs, result):
    return len(args[0])


def _bytes_written(args, kwargs, result):
    return os.path.getsize(kwargs.get("path", args[-1]))


# module -> {function name: items counter or None}; recordio's readers and
# writers are found by prefix, so a new format is traced without an edit
TARGETS = {
    "config": {"parse_config": None},
    "estimate": {"filter_means": _n_samples, "retro_info": _n_samples,
                 "run_filter": _n_samples, "run_retrofilter": _n_samples,
                 "run_ltl_filter": _n_samples},
    "simulate": {"simulate_truth_ensemble": _n_records,
                 "simulate_true_and_record": _n_records},
    "smooth": {"combine_arrays": None, "smooth_general": None},
    "metrics": {"consistency_check": _n_trajectories,
                "vacf": _n_trajectories, "hs_sq_isotropic": None},
    "model": {"v_filter": None, "retro_precision": None,
              "v_filter_ss": None, "retro_precision_ss": None},
    "ingest": {"demodulate": None, "segment": None, "inject_noise": None},
    "pipeline": {**{f"stage_{s}": None for s in STAGES},
                 "acceptance_report": None, "run_injection_study": None,
                 **{name: None for name in CRITERIA}},
}


class Tracer:
    """In-memory span list of one process (its main thread)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.wrapped: dict[str, object] = {}

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, now(), None, parent, 0])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = now()
        self._stack.pop()

    def wrap(self, name: str, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.end(idx)
                raise
            self.end(idx)
            if count is not None:
                self.spans[idx][4] = count(args, kwargs, result)
            return result

        traced.__wrapped_original__ = fn
        return traced


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lgqsmooth"
                                  or name.startswith("lgqsmooth."))]


def install(tracer: Tracer) -> None:
    """Wrap every target and rebind it wherever it was imported."""
    originals: dict[int, tuple[str, object]] = {}
    for mod_name, funcs in TARGETS.items():
        mod = importlib.import_module(f"lgqsmooth.{mod_name}")
        for fname, count in funcs.items():
            fn = getattr(mod, fname)
            originals[id(fn)] = (f"{mod_name}.{fname}",
                                 tracer.wrap(f"{mod_name}.{fname}", fn, count))
    recordio = importlib.import_module("lgqsmooth.recordio")
    for fname in sorted(vars(recordio)):
        fn = getattr(recordio, fname)
        if fname.startswith(("write_", "read_")) and callable(fn) \
                and fn.__module__ == recordio.__name__:
            count = _bytes_written if fname.startswith("write_") else None
            originals[id(fn)] = (f"recordio.{fname}",
                                 tracer.wrap(f"recordio.{fname}", fn, count))

    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            hit = originals.get(id(value))
            if hit is not None:
                setattr(mod, attr, hit[1])
    tracer.wrapped = {name: w for name, w in originals.values()}


def unwrapped_references(tracer: Tracer) -> list[str]:
    """Module attributes that still hold a function the tracer wrapped."""
    originals = {id(w.__wrapped_original__) for w in tracer.wrapped.values()}
    return [f"{mod.__name__}.{attr}" for mod in _package_modules()
            for attr, value in vars(mod).items() if id(value) in originals]


# ---------------------------------------------------------------------------
# aggregation (parent side)
# ---------------------------------------------------------------------------

def _metric_of(name: str) -> str | None:
    """Per-layer time metric a span's self time is added to."""
    layer, _, fn = name.partition(".")
    if layer == "recordio":
        return "recordio.write_s" if fn.startswith("write_") \
            else "recordio.read_s"
    return {
        "cli.import": "cli.import_s",
        "config.parse_config": "config.parse_s",
        "estimate.filter_means": "estimate.filter_s",
        "estimate.run_filter": "estimate.filter_s",
        "estimate.run_ltl_filter": "estimate.filter_s",
        "estimate.retro_info": "estimate.retro_s",
        "estimate.run_retrofilter": "estimate.retro_s",
        "metrics.consistency_check": "metrics.consistency_s",
        "metrics.vacf": "metrics.vacf_s",
        "metrics.hs_sq_isotropic": "metrics.hs_s",
        "ingest.demodulate": "ingest.demod_s",
        "ingest.segment": "ingest.segment_s",
        "ingest.inject_noise": "ingest.inject_s",
        "bench.process": "bench.process_s",
    }.get(name, {"simulate": "simulate.ensemble_s",
                 "smooth": "smooth.combine_s",
                 "model": "model.closed_form_s",
                 "pipeline": "pipeline.self_s"}.get(layer))


def _span_metric(name: str) -> str | None:
    """Whole-span metric of a pipeline stage, study or criterion."""
    layer, _, fn = name.partition(".")
    if layer != "pipeline":
        return None
    if fn.startswith("stage_"):
        return f"pipeline.{fn}_s"
    if fn == "run_injection_study":
        return "pipeline.injection_study_s"
    if fn in CRITERIA:
        return f"pipeline.crit{CRITERIA[fn]:02d}_s"
    return None


# counts are made at a layer's outermost call: run_filter's own
# filter_means call is one estimate call, not two
_COUNTS = {
    "estimate": ("estimate.calls", "estimate.samples"),
    "simulate": (None, "simulate.records"),
    "smooth": ("smooth.calls", None),
    "metrics": (None, "metrics.trajectories_in"),
    "model": ("model.calls", None),
}

PER_LAYER = (
    ["cli.import_s", "config.parse_s",
     "recordio.write_s", "recordio.read_s", "recordio.files_written",
     "recordio.files_read", "recordio.bytes_written",
     "estimate.filter_s", "estimate.retro_s", "estimate.calls",
     "estimate.samples", "simulate.ensemble_s", "simulate.records",
     "smooth.combine_s", "smooth.calls",
     "metrics.consistency_s", "metrics.vacf_s", "metrics.hs_s",
     "metrics.trajectories_in", "model.closed_form_s", "model.calls",
     "ingest.demod_s", "ingest.segment_s", "ingest.inject_s"]
    + [f"pipeline.stage_{s}_s" for s in STAGES]
    + ["pipeline.self_s", "pipeline.injection_study_s"]
    + [f"pipeline.crit{i:02d}_s" for i in range(1, 12)]
    + ["bench.process_s", "trace.overhead_s"])


def _self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            children.setdefault(span[3], []).append((span[1], span[2]))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        lo = start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, lo), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                lo = c1
        out.append(end - start - covered)
    return out


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics and per-layer self-time totals of one span tree.

    ``spans`` is a single tree whose root (index 0) is the workload's
    whole timed sequence.
    """
    values = {name: 0.0 if name.endswith("_s") else 0 for name in PER_LAYER}
    by_layer: dict[str, float] = {}
    self_times = _self_times(spans)
    for i, (name, start, end, parent, items) in enumerate(spans):
        layer, _, fn = name.partition(".")
        # the benchmark's own spans are listed one by one
        key = name if layer == "bench" else layer
        by_layer[key] = by_layer.get(key, 0.0) + self_times[i]
        metric = _metric_of(name)
        if metric in values:
            values[metric] += self_times[i]
        whole = _span_metric(name)
        if whole is not None:
            values[whole] += end - start
        outer = parent < 0 or spans[parent][0].partition(".")[0] != layer
        if layer == "recordio":
            key = "recordio.files_written" if fn.startswith("write_") \
                else "recordio.files_read"
            values[key] += 1
            values["recordio.bytes_written"] += items
        elif layer in _COUNTS and outer:
            calls, work = _COUNTS[layer]
            if calls:
                values[calls] += 1
            if work:
                values[work] += items
    return values, by_layer


def call_counts(spans: list[list]) -> Counter:
    """Number of spans per name."""
    return Counter(span[0] for span in spans)
