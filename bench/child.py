"""One timed process of a benchmark workload.

    python3 bench/child.py cli      TIMING TRACE [--probe] -- ARGS...
    python3 bench/child.py lib      TIMING TRACE CONFIG RECORD
    python3 bench/child.py selftest TIMING TRACE CONFIG OUT_DIR

``cli`` runs ``lgqsmooth ARGS`` as the command line does and records
when the stage function is entered, which ends the process's set-up
time; ``--probe`` exits right there.  ``lib`` filters a long record's
segments in-process with ``run_filter``, ``run_retrofilter`` and
``run_ltl_filter`` and checks the results.  ``selftest`` runs the four
file stages in one process for the tracer self-test.  TRACE is 1 to
record spans.  Whatever happens, TIMING receives one JSON object.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import sys

import tracer as tr

_STAGE_ENTRIES = tuple(f"stage_{s}" for s in tr.STAGES) + ("acceptance_report",)


def _dump(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _hook_stage_entry(pipeline, doc: dict, timing: str, probe: bool) -> None:
    """Record the first entry into any stage function."""
    def hook(fn):
        @functools.wraps(fn)
        def entered(*args, **kwargs):
            if "stage_entry" not in doc:
                doc["stage_entry"] = tr.now()
                if probe:
                    _dump(timing, doc)
                    os._exit(0)
            return fn(*args, **kwargs)
        return entered

    for name in _STAGE_ENTRIES:
        setattr(pipeline, name, hook(getattr(pipeline, name)))


def _import_package(tracer, name: str):
    start = tr.now()
    import lgqsmooth.cli as cli
    if tracer is not None:
        tracer.spans.append([name, start, tr.now(), -1, 0])
    return cli


def run_cli(doc, timing, tracer, rest) -> int:
    probe = rest[:1] == ["--probe"]
    argv = rest[rest.index("--") + 1:]
    cli = _import_package(tracer, "cli.import")
    if tracer is not None:
        tr.install(tracer)
    _hook_stage_entry(cli.pipeline, doc, timing, probe)
    if tracer is None:
        return cli.main(argv)
    idx = tracer.begin("cli.main")
    try:
        return cli.main(argv)
    finally:
        tracer.end(idx)


def run_lib(doc, timing, tracer, rest) -> int:
    """Filter every segment of one long record, then check the results."""
    config_path, record_path = rest
    _import_package(tracer, "bench.import")
    if tracer is not None:
        tr.install(tracer)
    import numpy as np
    from lgqsmooth import config, estimate, ingest, model, recordio

    ep = model.effective_params(config.parse_config(config_path).params)
    rec = recordio.read_record_bin(record_path)
    segs = ingest.segment(rec, ep.record_duration, discard=0.0)
    attempted = failed = 0
    errors: list[str] = []
    results: dict[str, list] = {"filter": [], "retro": []}
    for seg in segs:
        for key, fn in (("filter", estimate.run_filter),
                        ("retro", estimate.run_retrofilter)):
            attempted += 1
            try:
                results[key].append(fn(seg, ep))
            except (ValueError, ArithmeticError) as exc:
                failed += 1
                errors.append(f"{fn.__name__}: {exc}")
    attempted += 1
    try:
        ltl = estimate.run_ltl_filter(segs, ep)
    except (ValueError, ArithmeticError) as exc:
        failed += 1
        errors.append(f"run_ltl_filter: {exc}")
        ltl = None

    idx = tracer.begin("bench.check") if tracer is not None else None
    digest = hashlib.sha256()
    for traj in results["filter"] + results["retro"] + [ltl]:
        if traj is not None:
            digest.update(traj.mean.tobytes())
            digest.update(traj.vw.tobytes())
    # innovations (I_k - g m_k) dt are white with variance
    # dt (1 + g^2 (v_k - 1) dt): the O(dt) term is the filter error
    # carried through one sample of the discrete-time record
    sq, expected, count = 0.0, 0.0, 0
    for seg, traj in zip(segs, results["filter"]):
        innov = estimate.innovations(seg, ep, traj)
        sq += float(np.sum(innov * innov)) / seg.dt
        expected += 2.0 * float(np.sum(
            1.0 + ep.meas_rate * seg.dt * (traj.vw[:-1] - 1.0)))
        count += innov.size
    doc["lib"] = {
        "attempted": attempted, "failed": failed, "errors": errors[:5],
        "n_segments": len(segs), "n_samples": rec.n,
        "converged": bool(ltl is not None and ltl.converged),
        "innovation_ratio": sq / count if count else math.nan,
        "innovation_expected": expected / count if count else math.nan,
        "innovation_se": math.sqrt(2.0 / count) if count else math.nan,
        "digest": digest.hexdigest(),
    }
    if idx is not None:
        tracer.end(idx)
    return 0


def run_selftest(doc, timing, tracer, rest) -> int:
    """All four file stages of a tiny run, in this one process."""
    config_path, out_dir = rest
    cli = _import_package(tracer, "cli.import")
    if tracer is not None:
        tr.install(tracer)
        doc["stale"] = tr.unwrapped_references(tracer)
        # the names pipeline imported with `from .x import f`
        doc["pipeline_rebound"] = {
            name: getattr(cli.pipeline, name)
            is tracer.wrapped[f"{mod}.{name}"]
            for mod, name in (("estimate", "filter_means"),
                              ("estimate", "retro_info"),
                              ("smooth", "combine_arrays"),
                              ("simulate", "simulate_truth_ensemble"),
                              ("metrics", "consistency_check"),
                              ("metrics", "vacf"))}
    for stage in ("simulate", "estimate", "smooth", "analyze"):
        code = cli.main([stage, "--config", config_path, "--out-dir",
                         out_dir])
        if code != 0:
            return code
    return 0


MODES = {"cli": run_cli, "lib": run_lib, "selftest": run_selftest}


def main() -> int:
    start = tr.now()
    mode, timing, trace = sys.argv[1:4]
    tracer = tr.Tracer() if trace == "1" else None
    doc: dict = {"start": start}
    code = 70
    try:
        code = MODES[mode](doc, timing, tracer, sys.argv[4:])
        return code
    except BaseException as exc:
        doc["error"] = repr(exc)
        raise
    finally:
        doc["code"] = code
        if tracer is not None:
            doc["spans"] = [s for s in tracer.spans if s[2] is not None]
        _dump(timing, doc)


if __name__ == "__main__":
    sys.exit(main())
