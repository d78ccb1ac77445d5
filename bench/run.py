#!/usr/bin/env python3
"""lgqsmooth benchmark: three workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory.  Inputs are generated from ``--seed`` before timing
starts.  The workload's operation sequence is then repeated, each time in
a fresh empty run directory, until ``--seconds`` would be exceeded (at
least once), and each end-to-end metric is the median over the
repetitions.  All files go under ``.bench_runs/`` in the checkout and are
removed at exit; timings and traces are kept outside the run directory.

Workloads (one process drives each; no operation uses more than 2
workers):

* ``pipeline_ref``: ``simulate -> estimate -> smooth -> analyze`` as four
  fresh CLI processes at the reference parameters, 750-sample records,
  ``formats = csv, bin``, all three targets, serial estimate.  Per-row CSV
  I/O in ``recordio`` and the four process start-ups take most of the time.
* ``report_ref``: ``lgqsmooth report`` at the reference config with 2000
  records: the stacked in-memory kernels and criterion 11's 2-worker pool.
* ``long_trace``: one simulated record of 2e5 samples and its 5 MHz
  carrier trace; ``lgqsmooth demod`` and ``lgqsmooth inject`` on it, then
  one process filtering the record's 750 us segments with ``run_filter``,
  ``run_retrofilter`` and ``run_ltl_filter``.  Per-sample recursions on one
  record cannot be stacked across records.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:
``wall_s`` (whole operation sequence, process starts included),
``setup_s`` (spawn to stage-function entry of one CLI process, as the
median over the run's CLI processes plus probes that stop at that entry,
times the number of CLI processes in the sequence), ``peak_rss_mb`` (largest peak RSS of one process, its
pool workers included) and ``disk_mb`` (bytes left in the run directory).
``fail_frac`` is ``failed / attempted`` of that line.  With ``--trace 1``
the repetitions alternate between untraced and traced, a tracer
self-test runs first, and the line carries the per-layer metrics of
``tracer.PER_LAYER``; a self-time table is printed above it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path

import tracer as tr

BENCH_DIR = Path(__file__).resolve().parent
CHILD = BENCH_DIR / "child.py"

PIPELINE_RECORDS = 100
REPORT_RECORDS = 2000
SELFTEST_RECORDS = 6
LONG_SAMPLES = 200_000
CARRIER_FS = 5.0e6
TARGETS = ("LTLFiltered", "TrueState", "Classical")
# consistency_check groups the three smoothed targets under these kinds
ANALYSIS_KINDS = ["ClassicalSmoothed", "Filtered", "Retrofiltered",
                  "SmoothedLTL", "SmoothedTrue"]
MIN_SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150.0
# a traced run's self times must add up to its wall time within this share
SELF_TIME_TOLERANCE = 0.005
INNOVATION_PULL_LIMIT = 5.0

REFERENCE_INI = """\
[params]
gamma_hz = 11.5e-3
gamma_fb_hz = 85.0
n_th = 2.45e5
coop = 3.16e4
eta = 0.38
omega_hz = 1.04e6
record_us = 750
dt_us = 1

[ensemble]
n_records = {n_records}
base_seed = {base_seed}

[targets]
kinds = {targets}

[noise_injection]
eta_new = 0.10

[outputs]
formats = csv, bin
"""

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "disk_mb": "MB"}


def base_seed(seed: int) -> int:
    """Program seed for a benchmark seed (nonnegative, below 2**31)."""
    return (20240001 + 7919 * seed) % (2 ** 31)


def write_config(path: Path, n_records: int, seed: int) -> Path:
    path.write_text(REFERENCE_INI.format(n_records=n_records,
                                         base_seed=seed,
                                         targets=", ".join(TARGETS)))
    return path


def tree_bytes(directory: Path) -> int:
    return sum(p.stat().st_size for p in directory.rglob("*") if p.is_file())


def tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(directory)).encode() + b"\0")
            h.update(p.read_bytes())
    return h.hexdigest()


class Bench:
    """State of one benchmark invocation: its work area and its checks."""

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.work = root / ".bench_runs" / f"{workload}-{seed}-{os.getpid()}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.inputs = self.work / "inputs"
        self.inputs.mkdir(parents=True)
        (self.work / "tmp").mkdir()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        TMPDIR=str(self.work / "tmp"))
        self.n_dirs = 0
        self.n_procs = 0
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def fresh(self, name: str) -> tuple[Path, Path]:
        """A new empty run directory and, beside it, a timing directory."""
        self.n_dirs += 1
        base = self.work / f"{self.n_dirs:03d}-{name}"
        (base / "run").mkdir(parents=True)
        (base / "timing").mkdir()
        return base / "run", base / "timing"

    def spawn(self, mode: str, args: list[str], timing_dir: Path,
              traced: bool, stdout: Path | None = None) -> dict:
        """Run one child to completion; return its times, exit code and RSS.

        The child is reaped with wait4, whose peak RSS covers the child and
        every process it waited for (a pool's workers).  It leads its own
        process group, so a timeout or an interrupt stops its workers too.
        """
        self.n_procs += 1
        timing = timing_dir / f"{self.n_procs:03d}-{mode}.json"
        log = timing_dir / f"{self.n_procs:03d}-{mode}.stderr"
        with open(stdout or os.devnull, "w") as out, open(log, "w") as err:
            start = tr.now()
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), mode, str(timing),
                 "1" if traced else "0", *args],
                stdout=out, stderr=err, env=self.env, cwd=self.root,
                start_new_session=True)
            timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg,
                                    (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = tr.now()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
            finally:
                timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        doc = json.loads(timing.read_text()) if timing.is_file() else {}
        if proc.returncode != 0:
            tail = log.read_text().strip().splitlines()[-1:] or ["no output"]
            self.problems.append(f"{mode} {' '.join(args[-6:])}: exit "
                                 f"{proc.returncode}: {tail[0]}")
        return {"start": start, "end": end, "code": proc.returncode,
                "rss_mb": usage.ru_maxrss * 1024 / 1e6, "doc": doc}

    def cli(self, args: list[str], timing_dir: Path, traced: bool,
            stdout: Path | None = None, probe: bool = False) -> dict:
        extra = ["--probe"] if probe else []
        res = self.spawn("cli", [*extra, "--", *args], timing_dir, traced,
                         stdout)
        self.check(res["code"] == 0, f"lgqsmooth {args[0]} exited "
                                     f"{res['code']}")
        entry = res["doc"].get("stage_entry")
        res["setup_s"] = entry - res["start"] if entry else None
        return res


# ---------------------------------------------------------------------------
# workloads: __init__ makes the inputs before timing, rep() is one timed
# sequence in a fresh run directory
# ---------------------------------------------------------------------------

class PipelineRef:
    name = "pipeline_ref"
    stages = ("simulate", "estimate", "smooth", "analyze")

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        self.n_records = PIPELINE_RECORDS
        self.config = write_config(bench.inputs / "run.ini", self.n_records,
                                   base_seed(seed))
        self.digests: list[str] = []

    def describe(self) -> str:
        return (f"{self.n_records} records x 750 samples, "
                f"{len(self.stages)} CLI processes")

    def probe_args(self, run_dir: Path) -> list[str]:
        return [self.stages[0], "--config", str(self.config),
                "--out-dir", str(run_dir)]

    def rep(self, traced: bool) -> dict:
        b = self.bench
        run_dir, timing = b.fresh(self.name)
        start = tr.now()
        procs = []
        for stage in self.stages:
            procs.append(b.cli([stage, "--config", str(self.config),
                                "--out-dir", str(run_dir)], timing, traced))
            if procs[-1]["code"] != 0:
                break
        end = tr.now()
        stats_path = run_dir / "analysis" / "stats.json"
        if b.check(stats_path.is_file(), "analysis/stats.json missing"):
            stats = json.loads(stats_path.read_text())
            b.check(stats.get("n_records") == self.n_records,
                    f"stats.json n_records {stats.get('n_records')} != "
                    f"{self.n_records}")
            b.check(stats.get("kinds") == ANALYSIS_KINDS,
                    f"stats.json kinds {stats.get('kinds')}")
        self.digests.append(tree_digest(run_dir / "analysis"))
        b.check(self.digests[-1] == self.digests[0],
                "analysis/ tables differ between runs of one seed")
        return {"start": start, "end": end, "procs": procs,
                "disk_bytes": tree_bytes(run_dir)}


class ReportRef:
    name = "report_ref"

    def __init__(self, bench: Bench, seed: int):
        self.bench = bench
        self.config = write_config(bench.inputs / "run.ini", REPORT_RECORDS,
                                   base_seed(seed))

    def describe(self) -> str:
        return f"report over {REPORT_RECORDS} records, 1 CLI process"

    def probe_args(self, run_dir: Path) -> list[str]:
        return ["report", "--config", str(self.config),
                "--out-dir", str(run_dir)]

    def rep(self, traced: bool) -> dict:
        b = self.bench
        run_dir, timing = b.fresh(self.name)
        report = run_dir / "report.txt"
        start = tr.now()
        res = b.cli(self.probe_args(run_dir), timing, traced, stdout=report)
        end = tr.now()
        lines = report.read_text().splitlines()
        b.check(lines[-1:] == ["11/11 criteria passed"],
                f"report: {(lines or ['no output'])[-1]}")
        return {"start": start, "end": end, "procs": [res],
                "disk_bytes": tree_bytes(run_dir)}


class LongTrace:
    name = "long_trace"
    eta_new = 0.10

    def __init__(self, bench: Bench, seed: int):
        sys.path.insert(0, str(bench.root / "src"))
        from lgqsmooth import config, model, recordio, simulate

        self.bench = bench
        self.seed = base_seed(seed)
        self.config = write_config(bench.inputs / "run.ini", 1, self.seed)
        cfg = config.parse_config(self.config)
        ep = model.effective_params(cfg.params)
        self.eta = ep.eta
        self.omega_hz = cfg.params.omega / (2.0 * math.pi)
        truth = simulate.simulate_true_and_record(ep, LONG_SAMPLES * ep.dt,
                                                  self.seed)
        raw = simulate.synthesize_raw(truth.record, cfg.params.omega,
                                      CARRIER_FS, seed=self.seed + 1)
        self.record = bench.inputs / "record.bin"
        self.trace = bench.inputs / "trace.bin"
        recordio.write_record_bin(truth.record, self.record)
        recordio.write_raw_bin(raw, self.trace)
        # demod keeps every stride-th filtered sample, drops the default
        # 4000 us transient and cuts 750 us records
        stride = round(CARRIER_FS * ep.dt)
        n_out = -(-raw.n // stride)
        n_skip = round(4000e-6 / ep.dt)
        self.n_demod = (n_out - n_skip) // round(cfg.params.record_duration
                                                 / ep.dt)
        self.digests: list[str] = []

    def describe(self) -> str:
        return (f"1 record of {LONG_SAMPLES} samples, {CARRIER_FS:.0e} Hz "
                f"trace; demod + inject CLI processes, 1 library process")

    def probe_args(self, run_dir: Path) -> list[str]:
        return ["demod", "--trace", str(self.trace), "--out-dir",
                str(run_dir / "demod"), "--omega-hz", repr(self.omega_hz),
                "--formats", "bin"]

    def rep(self, traced: bool) -> dict:
        b = self.bench
        run_dir, timing = b.fresh(self.name)
        start = tr.now()
        procs = [b.cli(self.probe_args(run_dir), timing, traced)]
        procs.append(b.cli(["inject", "--records", str(run_dir / "demod"),
                            "--out-dir", str(run_dir / "inject"),
                            "--eta-old", repr(self.eta),
                            "--eta-new", repr(self.eta_new),
                            "--seed", str(self.seed + 2),
                            "--formats", "bin"], timing, traced))
        lib = b.spawn("lib", [str(self.config), str(self.record)], timing,
                      traced)
        procs.append(lib)
        end = tr.now()

        for sub in ("demod", "inject"):
            n = len(list((run_dir / sub).glob("record_*.bin"))) \
                if (run_dir / sub).is_dir() else 0
            b.check(n == self.n_demod,
                    f"{sub} wrote {n} records, expected {self.n_demod}")
        res = lib["doc"].get("lib")
        if b.check(lib["code"] == 0 and res is not None,
                   f"library process exited {lib['code']}"):
            b.attempted += res["attempted"]
            b.failed += res["failed"]
            b.problems += res["errors"]
            b.check(res["n_segments"] == LONG_SAMPLES // 750,
                    f"{res['n_segments']} segments of the record")
            b.check(res["converged"], "run_ltl_filter did not converge")
            pull = abs(res["innovation_ratio"] - res["innovation_expected"]) \
                / res["innovation_se"]
            if not self.digests:
                print(f"  innovation variance / dt {res['innovation_ratio']:.5f}"
                      f", expected {res['innovation_expected']:.5f}, "
                      f"pull {pull:.2f} se")
            b.check(pull <= INNOVATION_PULL_LIMIT,
                    f"innovation variance / dt = {res['innovation_ratio']:.5f}"
                    f", expected {res['innovation_expected']:.5f} "
                    f"({pull:.1f} se)")
            self.digests.append(res["digest"])
            b.check(self.digests[-1] == self.digests[0],
                    "filter outputs differ between runs of one seed")
        return {"start": start, "end": end, "procs": procs,
                "disk_bytes": tree_bytes(run_dir)}


WORKLOADS = {w.name: w for w in (PipelineRef, ReportRef, LongTrace)}


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

def repeat(seconds: float, reps: list, run_one) -> None:
    """Repeat while one more repetition is expected to fit in the budget."""
    begin = tr.now()
    while True:
        run_one()
        elapsed = tr.now() - begin
        if elapsed + elapsed / len(reps) > seconds:
            return


def end_to_end(bench: Bench, work, reps: list[dict]) -> dict:
    setups = [p["setup_s"] for r in reps for p in r["procs"]
              if p.get("setup_s") is not None]
    n_cli = sum(1 for p in reps[0]["procs"] if "setup_s" in p)
    run_dir, timing = bench.fresh("probe")
    while len(setups) < MIN_SETUP_SAMPLES:
        res = bench.cli(work.probe_args(run_dir), timing, False, probe=True)
        if res["setup_s"] is None:
            break
        setups.append(res["setup_s"])
    return {
        "wall_s": statistics.median(r["end"] - r["start"] for r in reps),
        "setup_s": n_cli * statistics.median(setups) if setups else 0.0,
        "peak_rss_mb": statistics.median(
            max(p["rss_mb"] for p in r["procs"]) for r in reps),
        "disk_mb": statistics.median(r["disk_bytes"] for r in reps) / 1e6,
    }


def span_tree(rep: dict) -> list[list]:
    """One span tree for a repetition: sequence -> processes -> calls."""
    spans = [["bench.sequence", rep["start"], rep["end"], -1, 0]]
    for proc in rep["procs"]:
        top = len(spans)
        spans.append(["bench.process", proc["start"], proc["end"], 0, 0])
        offset = top + 1
        for name, start, end, parent, items in proc["doc"].get("spans", ()):
            spans.append([name, start, end,
                          top if parent < 0 else parent + offset, items])
    return spans


def self_test(bench: Bench) -> None:
    """Tracer checks on a tiny file pipeline run in one process."""
    config = write_config(bench.inputs / "selftest.ini", SELFTEST_RECORDS,
                          base_seed(0))
    digests = {}
    for traced in (False, True):
        run_dir, timing = bench.fresh("selftest")
        res = bench.spawn("selftest", [str(config), str(run_dir)], timing,
                          traced)
        bench.check(res["code"] == 0, f"self-test exited {res['code']}")
        digests[traced] = tree_digest(run_dir / "analysis")
    bench.check(digests[True] == digests[False],
                "self-test: traced analysis/ differs from untraced")
    doc = res["doc"]
    bench.check(doc.get("stale") == [],
                f"self-test: unwrapped references {doc.get('stale')}")
    bench.check(all(doc.get("pipeline_rebound", {None: False}).values()),
                f"self-test: pipeline imports not rebound "
                f"{doc.get('pipeline_rebound')}")
    counts = tr.call_counts(doc.get("spans", []))
    n = SELFTEST_RECORDS
    expected = {"estimate.run_filter": n, "estimate.run_retrofilter": n,
                "smooth.smooth_general": n * len(TARGETS),
                "pipeline.stage_estimate": 1}
    for name, want in expected.items():
        bench.check(counts.get(name, 0) == want,
                    f"self-test: {counts.get(name, 0)} {name} calls, "
                    f"expected {want}")


def traced_metrics(bench: Bench, plain: list[dict],
                   traced: list[dict]) -> tuple[dict, str]:
    per_rep = []
    table = ""
    for rep in traced:
        spans = span_tree(rep)
        values, by_layer = tr.layer_metrics(spans)
        wall = rep["end"] - rep["start"]
        total = sum(by_layer.values())
        bench.check(abs(total - wall) <= SELF_TIME_TOLERANCE * wall,
                    f"self times add up to {total:.4f} s, traced wall "
                    f"{wall:.4f} s")
        per_rep.append(values)
        if not table:
            table = format_shares(by_layer, wall, total)
    counts = [{k: v for k, v in values.items() if not k.endswith("_s")}
              for values in per_rep]
    bench.check(all(c == counts[0] for c in counts),
                "traced counts differ between runs of one seed")
    metrics = {name: statistics.median(v[name] for v in per_rep)
               for name in tr.PER_LAYER}
    overhead = (statistics.median(r["end"] - r["start"] for r in traced)
                - statistics.median(r["end"] - r["start"] for r in plain))
    metrics["trace.overhead_s"] = overhead
    table += f"\n  tracing overhead: {overhead:+.3f} s on the median wall time"
    return metrics, table


def format_shares(by_layer: dict, wall: float, total: float) -> str:
    lines = [f"  {'layer':<16} {'self s':>9} {'share':>7}"]
    for layer, secs in sorted(by_layer.items(), key=lambda kv: -kv[1]):
        lines.append(f"  {layer:<16} {secs:9.3f} {100 * secs / wall:6.1f}%")
    lines.append(f"  {'sum':<16} {total:9.3f} of traced wall {wall:.3f} s")
    return "\n".join(lines)


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "bytes" if name.endswith("bytes_written") else "count"


def measure(bench: Bench, work, seconds: float, trace: bool) -> dict:
    plain: list[dict] = []
    traced: list[dict] = []
    if trace:
        self_test(bench)

        def run_one():
            plain.append(work.rep(False))
            traced.append(work.rep(True))
        repeat(seconds, traced, run_one)
        metrics, table = traced_metrics(bench, plain, traced)
        print(f"{work.name}: self time by layer, first traced run")
        print(table)
        return {name: {"value": metrics[name], "unit": unit_of(name)}
                for name in tr.PER_LAYER}
    repeat(seconds, plain, lambda: plain.append(work.rep(False)))
    metrics = end_to_end(bench, work, plain)
    walls = ", ".join(f"{r['end'] - r['start']:.3f}" for r in plain)
    print(f"{work.name}: {len(plain)} runs, wall_s {walls}")
    print("  " + ", ".join(f"{name} {metrics[name]:.4f} {unit}"
                           for name, unit in END_TO_END_UNITS.items()))
    return {name: {"value": metrics[name], "unit": END_TO_END_UNITS[name]}
            for name in END_TO_END_UNITS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "lgqsmooth" / "__init__.py").is_file():
        print(f"bench: no lgqsmooth sources under {root / 'src'}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    # a terminated benchmark still stops its children and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    bench = Bench(root, args.workload, args.seed)
    try:
        work = WORKLOADS[args.workload](bench, args.seed)
        print(f"{work.name} seed {args.seed}: {work.describe()}")
        metrics = measure(bench, work, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it
    for problem in bench.problems:
        print(f"  problem: {problem}")
    print(f"fail_frac {bench.failed}/{bench.attempted} = "
          f"{bench.failed / max(bench.attempted, 1):.4f}")
    print(json.dumps({"correct": bench.failed == 0,
                      "attempted": bench.attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
