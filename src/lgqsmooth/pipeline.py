"""Pipeline stages behind the CLI subcommands.

Each stage reads and writes plain files in the run directory so stages can
be rerun or inspected independently:

    records/record_%05d.{csv,bin}      measurement records
    truth/truth_%05d.csv               ground-truth mean trajectories
    estimates/filtered_%05d.csv        forward filter output
    estimates/retro_%05d.csv           retrofilter output
    smoothed/<target>/smoothed_%05d.csv
    analysis/{consistency.csv,stats.json,hs.csv,vacf.csv}

Each of the four file stages keeps its numerical kernels in its own
process and hands the text of its per-record files to worker processes
(:class:`_FileWorkers`, ``_WORKERS`` where workers fork, else none):
contiguous slices of files to write, each file's bytes made by its
recordio writer, and slices of files to parse, whose own columns
(:func:`recordio.read_own_columns`) the stage takes in file order and
checks itself.  A worker only formats or parses;
every check that names a file or a sample, and the generic readers for a
file its writer would not have made, stay in the stage's process.  So
the artifacts, and each error's class and message, are the same for any
worker count, and no user setting changes it: the stages' ``jobs``
argument is for criterion 11 and the tests.

The acceptance report writes no run directory.  It generates, filters and
smooths its two ensembles (the injection study and the main ensemble) in
record blocks, each one call of a module-level block function that
returns only what its criteria read.  Both ensembles go through one block
driver, :func:`_submit_blocks`, whose docstring gives the rules that keep
the report text the same bits in any process and for any worker count,
on a pool of ``_WORKERS`` ensemble workers.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import io
import itertools
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from . import recordio
from .config import RunConfig
from .estimate import (
    STATE_KINDS,
    Trajectory,
    _check_record,
    effect_defined,
    effect_means,
    filter_grid,
    filter_means,
    retro_grid,
    retro_info,
    run_filter,
    run_retrofilter,
)
from .ingest import (
    DEFAULT_BW_3DB,
    DEFAULT_ORDER,
    Lowpass,
    _injected,
    demod_filter,
    demodulate,
    inject_noise,
    segment,
)
from .metrics import (
    _ACF_BLOCK,
    acov_rows,
    add_rows,
    consistency_check,
    hs_avg_theory,
    hs_avg_theory_classical,
    hs_sq_isotropic,
    vacf,
    vacf_from_sums,
)
from .model import (
    EffectiveParams,
    effective_params,
    filter_riccati_rhs,
    relaxation_rate,
    retro_precision,
    retro_precision_ss,
    retro_riccati_rhs,
    shup_violation_predicted,
    v_filter,
    v_filter_ss,
)
from .simulate import (
    MeasurementRecord,
    NumericalError,
    _n_steps,
    derive_record_seeds,
    simulate_truth_ensemble,
    synthesize_raw,
    truth_stream,
)
from .smooth import (
    _TRAJ_KIND,
    TARGET_KINDS,
    TargetSpec,
    combine_arrays,
    smooth_general,
    smoothed_variance,
)


def log(msg: str) -> None:
    print(msg, file=sys.stderr)


def _rusage(field: str, children: bool = False):
    """A ``resource.getrusage`` field of this process, or with ``children``
    of the child processes joined so far, each counted with the processes
    it joined; None where the ``resource`` module does not exist."""
    try:
        import resource
    except ImportError:
        return None
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return getattr(resource.getrusage(who), field)


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size so far, in MB (10^6 bytes): of this process,
    or with ``children`` of its largest child process already joined.

    ``ru_maxrss`` counts KiB on Linux and bytes on macOS; NaN where the
    ``resource`` module does not exist."""
    peak = _rusage("ru_maxrss", children)
    if peak is None:
        return math.nan
    return peak / 1e6 if sys.platform == "darwin" else peak * 1024 / 1e6


def _filter_and_retro_grid(ep: EffectiveParams, n: int):
    """The trajectory time grid of n samples, with the filter's covariance
    and the retrofilter's precision on it: times, v_f, w."""
    times, v_f = filter_grid(ep, n)
    _, w = retro_grid(ep, n)
    return times, v_f, w


def run_grid(ep: EffectiveParams) -> tuple[np.ndarray, dict]:
    """A run's trajectory time grid, from the configured record length and
    sample period (:func:`_filter_and_retro_grid`), and kind -> closed-form
    vw on it: the covariance of each state kind and the precision of
    Retrofiltered."""
    times, v_f, w = _filter_and_retro_grid(
        ep, _n_steps(ep, ep.record_duration))
    closed = {"Filtered": v_f, "Retrofiltered": w}
    for target in TARGET_KINDS:
        closed[_TRAJ_KIND[target]] = smoothed_variance(
            v_f, w, TargetSpec.of(target, ep).v_tar)
    return times, closed


# ---------------------------------------------------------------------------
# file layout helpers
# ---------------------------------------------------------------------------

def _indexed(directory: Path, stem: str, i: int, ext: str) -> Path:
    return directory / f"{stem}_{i:05d}.{ext}"


def _slices(n: int, size: int) -> list[slice]:
    """Contiguous slices of at most ``size`` covering range(n), in order."""
    return [slice(lo, min(lo + size, n)) for lo in range(0, n, size)]


# the worker processes of a file stage and of the report's ensembles: the
# bytes are the same for any count, and the file stages get no faster
# past two
_WORKERS = 2

# the most files of one directory that a worker formats or parses in one
# task, so what a task's arguments or result hold of a stage's arrays: at
# 100 reference records, analyze peaks about 2 MB above the one-process
# stage with 64-file slices, 1 MB with 16 and 0.4 MB with 8, in the same
# time within the noise
_SLICE_FILES = 8


def _each(fn, *columns) -> list:
    """``fn`` on each row of ``columns``, in order, as a list: one task of
    a file stage's text work, a slice of files written or parsed.  Module
    level, so a worker process can unpickle it."""
    return [fn(*row) for row in zip(*columns)]


def _forks() -> bool:
    """Whether a process pool started now would fork its workers."""
    import multiprocessing

    # the set start method, else the platform's default (the first of the
    # list), without fixing it as get_start_method() would
    method = multiprocessing.get_start_method(allow_none=True) \
        or multiprocessing.get_all_start_methods()[0]
    return method == "fork"


class _FileWorkers:
    """The processes that format and parse a file stage's per-record text
    files, ``n_files`` to a directory, and the contiguous slices of files
    each task takes.

    With one process (``jobs`` = 1, one file, or a start method other
    than fork) a slice is one file, and :meth:`starmap` is
    ``itertools.starmap`` in this process, so each file is written as
    soon as it is made and read just before it is checked.  With more,
    ``min(jobs, n_files)`` worker processes take slices of
    ceil(n_files / processes) files, at most _SLICE_FILES, so there are
    never more workers than slices.  The pool is imported and started at
    the first task, and on exit, after an error too, it finishes the
    tasks in flight and shuts down, as the report's ensemble pool does
    (:func:`acceptance_report`).  At most 2 processes + 1 tasks are in
    flight, so this process holds a few slices of arguments and
    results, however many files there are.

    Workers are used only where the start method is fork (they fork at
    the first submit, before the pool's own threads start): a forked pool
    of two starts in about 10 ms, where spawned workers, which import
    numpy and this package afresh, take about 0.4 s, more than a
    100-record stage's whole text work.
    """

    def __init__(self, jobs: int, n_files: int, stage: str):
        if jobs < 1:
            raise ValueError(f"{stage}: jobs must be at least 1, got {jobs}")
        self.processes = max(1, min(jobs, n_files))
        if self.processes > 1 and not _forks():
            self.processes = 1
        size = 1 if self.processes == 1 \
            else min(-(-n_files // self.processes), _SLICE_FILES)
        self.slices = _slices(n_files, size)
        self._pool = None

    def __enter__(self) -> "_FileWorkers":
        return self

    def __exit__(self, *exc) -> None:
        if self._pool is not None:
            # no cancel_futures: with it, CPython 3.11's shutdown can
            # wait forever once a task's arguments failed to pickle
            self._pool.shutdown()
            self._pool = None

    def starmap(self, fn, tasks):
        """``fn(*task)`` for each task, as an iterator in task order; a
        task is made only when it is about to be submitted."""
        if self.processes == 1:
            return itertools.starmap(fn, tasks)
        return self._pooled(fn, tasks)

    def _pooled(self, fn, tasks):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.processes)
        running: collections.deque = collections.deque()
        for task in tasks:
            running.append(self._pool.submit(fn, *task))
            if len(running) > 2 * self.processes:
                yield running.popleft().result()
        while running:
            yield running.popleft().result()


def _write(workers: _FileWorkers, tasks) -> None:
    """Run write tasks, each a writer, its objects and their paths, on
    ``workers``."""
    for _ in workers.starmap(_each, tasks):
        pass


def _record_tasks(records, directory: Path, formats, first: int = 0):
    """The write tasks of ``records``, indexed from ``first``, in each of
    ``formats``."""
    index = range(first, first + len(records))
    for ext in formats:
        write = recordio.write_record_bin if ext == "bin" \
            else recordio.write_record_csv
        yield write, records, [_indexed(directory, "record", i, ext)
                               for i in index]


def _write_records(records, directory: Path, formats) -> None:
    """Write ``records`` in this process."""
    directory.mkdir(parents=True, exist_ok=True)
    for task in _record_tasks(records, directory, formats):
        _each(*task)


def _indexed_paths(directory: Path, stem: str, ext: str,
                   n: int | None = None) -> list[Path]:
    """``<stem>_00000.<ext>`` to ``<stem>_<n-1>.<ext>`` in a directory,
    which must be all of its ``<stem>_*.<ext>`` files; without ``n``, n
    runs to the largest index present.  An error names the directory and
    the first missing file, else the first stray one."""
    names = {p.name for p in directory.glob(f"{stem}_*.{ext}")}
    if not names:
        raise FileNotFoundError(f"{directory}: no {stem} files")
    if n is None:
        digits = (name[len(stem) + 1:-len(ext) - 1] for name in names)
        n = 1 + max((int(d) for d in digits
                     if d.isdecimal() and f"{int(d):05d}" == d), default=-1)
    paths = [_indexed(directory, stem, i, ext) for i in range(n)]
    for path in paths:
        if path.name not in names:
            raise ValueError(f"{directory}: {path.name} is missing, one of "
                             f"the {n} {stem} files indexed from 0")
    stray = names.difference(path.name for path in paths)
    if stray:
        raise ValueError(f"{directory}: {min(stray)} is stray, not one of "
                         f"the {n} {stem} files indexed from 0")
    return paths


def load_records(directory: Path, n: int | None = None
                 ) -> tuple[list[Path], list[MeasurementRecord]]:
    """Read ``record_00000`` to ``record_<n-1>`` from a directory, the
    ``.bin`` files where there are any, else the ``.csv`` files.

    Each format present must hold exactly those files; without ``n``, n
    runs to the largest index in either format.  Returns the paths read
    and their records, in index order."""
    directory = Path(directory)
    exts = [ext for ext in ("bin", "csv")
            if next(directory.glob(f"record_*.{ext}"), None)]
    if not exts:
        raise FileNotFoundError(f"no record files under {directory}")
    if n is None:
        n = max(len(_indexed_paths(directory, "record", ext)) for ext in exts)
    paths = [_indexed_paths(directory, "record", ext, n) for ext in exts][0]
    read = recordio.read_record_bin if exts[0] == "bin" \
        else recordio.read_record_csv
    return paths, [read(p) for p in paths]


def _load_stacks(base_dir: Path, n_records: int, ep: EffectiveParams,
                 workers: _FileWorkers, targets=(), truth: bool = False):
    """Read a run's trajectories and check them against its configuration.

    Reads estimates/, smoothed/<target>/ for each of ``targets``, and,
    with ``truth``, truth/ where it exists, each into one stack.  Each
    directory must hold exactly ``<stem>_00000.csv`` to
    ``<stem>_<n_records-1>.csv``, so a missing or stray file is an error,
    not a shifted pairing; every directory is checked so before any file
    is read.  Each file must hold the time grid of :func:`run_grid`, its
    directory's kind (Filtered, Retrofiltered or the target's smoothed
    kind) and exactly that kind's closed-form vw.  An error names the file
    at fault, or the directory when all of its files have another kind.
    A non-finite mean or information vector is a NumericalError naming
    the file and sample, except an effect mean where it is not
    :func:`effect_defined`, NaN by design.

    ``workers`` parse each file's own columns
    (:func:`recordio.read_own_columns`); this process takes them
    in file order and makes every check, reading any other file with its
    generic reader, so the result and any error are the same for any
    worker count.

    Returns the :func:`run_grid` grid, kind -> (means (N, n+1, 2), vw),
    the retrofilter's information vectors (N, n+1, 2), and the truth means
    (None unless read)."""
    times, closed = grid = run_grid(ep)
    defined = effect_defined(closed["Retrofiltered"], ep)
    dirs = [(base_dir / "estimates", "filtered", "Filtered"),
            (base_dir / "estimates", "retro", "Retrofiltered")]
    dirs += [(base_dir / "smoothed" / t, "smoothed", _TRAJ_KIND[t])
             for t in targets]
    if truth and (base_dir / "truth").is_dir():
        dirs.append((base_dir / "truth", "truth", None))
    # each directory's files, and the text this run's writer gives its
    # shared columns
    reads = [(_indexed_paths(directory, stem, "csv", n_records),
              recordio.means_layout(times) if kind is None
              else recordio.trajectory_layout(times, kind, closed[kind],
                                              kind == "Retrofiltered"))
             for directory, stem, kind in dirs]
    owns = itertools.chain.from_iterable(workers.starmap(_each, (
        (functools.partial(recordio.read_own_columns, layout), paths[sl])
        for paths, layout in reads for sl in workers.slices)))
    stacks, info, truth_means = {}, None, None
    for (directory, _, kind), (paths, _) in zip(dirs, reads):
        means = np.empty((n_records, times.shape[0], 2))
        retro = kind == "Retrofiltered"
        if retro:
            info = np.empty_like(means)
        vw = closed.get(kind)
        name = "precision" if retro else "covariance"
        other = []  # files of another kind, named once all are read
        for i, (path, own) in enumerate(zip(paths, owns)):
            if own is not None:
                m, z = own[:, :2], (own[:, 2:] if retro else None)
            else:
                # any other file, valid or not: the generic reader and
                # the checks whose errors name what is wrong
                if kind is None:
                    t, m = recordio.read_means_csv(path)
                    k = v = z = None
                else:
                    tr = recordio.read_trajectory_csv(path)
                    t, m, k, v, z = tr.times, tr.mean, tr.kind, tr.vw, tr.info
                if not np.array_equal(t, times):
                    raise ValueError(f"{path}: time grid of {t.shape[0]} "
                                     f"points differs from the config's "
                                     f"{times.shape[0]}-point grid")
                if k != kind:
                    other.append((path, k))
                    continue
                if vw is not None and not np.array_equal(v, vw):
                    raise ValueError(f"{path}: {name} differs from its "
                                     f"closed form at the configured "
                                     f"parameters")
            bad = ~np.isfinite(m).all(axis=1)
            if z is not None:
                bad = bad & defined | ~np.isfinite(z).all(axis=1)
                info[i] = z
            if bad.any():
                raise NumericalError(f"{path}: non-finite value at sample "
                                     f"{int(np.flatnonzero(bad)[0])}")
            means[i] = m
        if other:
            path, k = (directory, other[0][1]) if len(other) == n_records \
                else other[0]
            raise ValueError(f"{path}: kind {k}, expected {kind}")
        if kind is None:
            truth_means = means
        else:
            stacks[kind] = (means, vw)
    return grid, stacks, info, truth_means


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def stage_simulate(cfg: RunConfig, base_dir: Path,
                   jobs: int = _WORKERS) -> None:
    """Draw the configured ensemble and write its records and truth, the
    files' text made on ``jobs`` processes (:class:`_FileWorkers`)."""
    workers = _FileWorkers(jobs, cfg.n_records, "simulate")
    for sub in ("records", "truth", "estimates", "smoothed", "analysis"):
        for path in sorted((base_dir / sub).rglob("*")):
            if path.is_file():
                raise ValueError(f"simulate: {path} exists; simulate needs "
                                 "a run directory without stage outputs")
    ep = effective_params(cfg.params)
    ens = simulate_truth_ensemble(ep, ep.record_duration, cfg.n_records,
                                  cfg.base_seed)
    rec_dir, truth_dir = base_dir / "records", base_dir / "truth"
    for directory in (rec_dir, truth_dir):
        directory.mkdir(parents=True, exist_ok=True)
    write_truth = functools.partial(recordio.write_means_csv, ens.times)

    def tasks():
        for sl in workers.slices:
            yield from _record_tasks(
                [ens.record(i) for i in range(sl.start, sl.stop)], rec_dir,
                cfg.formats, sl.start)
            yield write_truth, ens.means[sl], [
                _indexed(truth_dir, "truth", i, "csv")
                for i in range(sl.start, sl.stop)]
    with workers:
        _write(workers, tasks())
    log(f"simulate: wrote {cfg.n_records} records to {base_dir}")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------

def _estimate_stack(ep: EffectiveParams, currents: np.ndarray):
    """Filter and retrofilter stacked records (N, n, 2) from the
    unconditional state: times, v_f, w, m_f, z."""
    times, v_f, w = _filter_and_retro_grid(ep, currents.shape[1])
    m_f = filter_means(currents, ep, v_f, np.zeros((currents.shape[0], 2)))
    z = retro_info(currents, ep, w)
    return times, v_f, w, m_f, z


def stage_estimate(cfg: RunConfig, base_dir: Path,
                   jobs: int = _WORKERS) -> None:
    """Filter and retrofilter every record in this process, and write the
    estimates, their text made on ``jobs`` processes
    (:class:`_FileWorkers`)."""
    workers = _FileWorkers(jobs, cfg.n_records, "estimate")
    ep = effective_params(cfg.params)
    n = _n_steps(ep, ep.record_duration)
    paths, records = load_records(base_dir / "records", cfg.n_records)
    for path, rec in zip(paths, records):
        _check_record(rec, ep, str(path))
        if rec.n != n:
            raise ValueError(f"{path}: {rec.n} samples, the config's "
                             f"records have {n}")
    est_dir = base_dir / "estimates"
    est_dir.mkdir(parents=True, exist_ok=True)

    def tasks():
        # a slice is filtered when its files are about to be handed out
        for sl in workers.slices:
            index = range(sl.start, sl.stop)
            for stem, run in (("filtered", run_filter),
                              ("retro", run_retrofilter)):
                yield recordio.write_trajectory_csv, [
                    run(records[i], ep) for i in index], [
                    _indexed(est_dir, stem, i, "csv") for i in index]
    with workers:
        _write(workers, tasks())
    log(f"estimate: wrote {len(records)} filtered/retro pairs")


# ---------------------------------------------------------------------------
# smooth
# ---------------------------------------------------------------------------

def stage_smooth(cfg: RunConfig, base_dir: Path,
                 jobs: int = _WORKERS) -> None:
    """Combine each record's estimates for every configured target in this
    process; the estimates are parsed and the smoothed files' text made
    on ``jobs`` processes (:class:`_FileWorkers`)."""
    ep = effective_params(cfg.params)
    with _FileWorkers(jobs, cfg.n_records, "smooth") as workers:
        (times, _), stacks, info, _ = _load_stacks(
            base_dir, cfg.n_records, ep, workers)
        (m_f, v_f), (m_r, w) = stacks["Filtered"], stacks["Retrofiltered"]
        pairs = [(Trajectory(times, m_f[i], v_f, "Filtered"),
                  Trajectory(times, m_r[i], w, "Retrofiltered", info=info[i]))
                 for i in range(cfg.n_records)]

        def tasks():
            for kind in cfg.targets:
                tgt = TargetSpec.of(kind, ep)
                out_dir = base_dir / "smoothed" / kind
                out_dir.mkdir(parents=True, exist_ok=True)
                for sl in workers.slices:
                    yield recordio.write_trajectory_csv, [
                        smooth_general(f, r, tgt) for f, r in pairs[sl]], [
                        _indexed(out_dir, "smoothed", i, "csv")
                        for i in range(sl.start, sl.stop)]
        _write(workers, tasks())
    for kind in cfg.targets:
        log(f"smooth: target {kind}: wrote {len(pairs)} trajectories")


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def stage_analyze(cfg: RunConfig, base_dir: Path,
                  jobs: int = _WORKERS) -> None:
    """Ensemble statistics, distances and autocorrelations of a run's
    trajectories, which are parsed on ``jobs`` processes
    (:class:`_FileWorkers`)."""
    ep = effective_params(cfg.params)
    with _FileWorkers(jobs, cfg.n_records, "analyze") as workers:
        (times, closed), stacks, info, truth = _load_stacks(
            base_dir, cfg.n_records, ep, workers, cfg.targets, truth=True)
    # analyze only checks the information vectors; they, the truth and the
    # Retrofiltered means are freed before the autocorrelation's transforms,
    # which set the stage's peak memory
    del info
    stats = consistency_check(stacks, times, ep)

    analysis = base_dir / "analysis"
    analysis.mkdir(parents=True, exist_ok=True)

    # empirical HS distance to the simulated true state where truth exists
    hs_rows: dict = {}
    hs_mean: dict = {}
    if truth is not None:
        for kind, (means, vw) in stacks.items():
            if kind not in STATE_KINDS or kind == "SmoothedLTL":
                # the LTL-targeted state is not a truth-consistent
                # estimator, so the closed-form average does not apply
                continue
            emp_mean = hs_sq_isotropic(
                1.0, truth.transpose(1, 0, 2), vw[:, None],
                means.transpose(1, 0, 2)).mean(axis=1)
            if kind == "ClassicalSmoothed":
                theory = hs_avg_theory_classical(
                    1.0, closed["Filtered"], closed["Retrofiltered"],
                    closed["SmoothedTrue"], vw)
            else:
                theory = hs_avg_theory(1.0, vw)
            hs_rows[kind] = (emp_mean, theory)
            # record average; the final sample alone degenerates to the
            # filter for every estimator because w(T) = 0
            hs_mean[("TrueState", kind)] = float(emp_mean.mean())
        if hs_rows:
            recordio.write_hs_csv(stats.times, hs_rows,
                                  analysis / "hs.csv")
        stats = dataclasses.replace(stats, hs_mean=hs_mean)

    recordio.write_consistency_csv(stats, analysis / "consistency.csv")
    recordio.write_stats_json(stats, analysis / "stats.json")

    state_means = {kind: m for kind, (m, _) in stacks.items()
                   if kind in STATE_KINDS}
    del stacks, truth
    res = vacf(state_means, times[1] - times[0])
    recordio.write_vacf_csv(res, analysis / "vacf.csv")
    log(f"analyze: wrote {analysis}")


# ---------------------------------------------------------------------------
# inject / demod
# ---------------------------------------------------------------------------

def stage_inject(records_dir: Path, out_dir: Path, eta_old: float,
                 eta_new: float, seed: int, formats=("csv",)) -> int:
    paths, records = load_records(records_dir)
    seeds = derive_record_seeds(seed, len(records))
    injected = [recordio._named(path, inject_noise, rec, eta_old, eta_new,
                                seed=int(s))
                for path, rec, s in zip(paths, records, seeds)]
    _write_records(injected, Path(out_dir), formats)
    log(f"inject: wrote {len(injected)} records at eta = {eta_new}")
    return len(injected)


def stage_demod(trace_path: Path, out_dir: Path, omega: float,
                bw_3db: float, order: int, dt_out: float, record_len: float,
                discard: float, formats=("csv",)) -> int:
    trace_path = Path(trace_path)
    read = recordio.read_raw_bin if trace_path.suffix == ".bin" \
        else recordio.read_raw_csv
    raw = read(trace_path)
    rec = demodulate(raw, omega, bw_3db=bw_3db, order=order, dt_out=dt_out)
    # segment's arithmetic; the trace sample behind each output is stride
    need = int(round(discard / dt_out)) + int(round(record_len / dt_out))
    if rec.n < need:
        stride = int(round(raw.fs * dt_out))
        raise ValueError(
            f"{trace_path}: {raw.n} samples, one record after the discard "
            f"needs {(need - 1) * stride + 1}")
    parts = segment(rec, record_len, discard=discard)
    _write_records(parts, Path(out_dir), formats)
    log(f"demod: wrote {len(parts)} records")
    return len(parts)


# ---------------------------------------------------------------------------
# the report's ensembles (criteria 4, 5, 6 and 9)
#
# Both ensembles run in record blocks through one driver, _submit_blocks,
# whose docstring gives the block and bit-order rules.
# ---------------------------------------------------------------------------

def _submit_blocks(map_, block, n_records: int, *base_seeds):
    """Map ``block`` over an ensemble's record blocks with ``map_`` and
    return the function that collects them: (rows, acov).

    ``block`` takes a block's slice of each base seed's record seeds
    (:func:`derive_record_seeds`) and returns name -> (b, *shape) rows and
    kind -> each record's velocity autocovariance (:func:`metrics.acov_rows`).
    The collect fills name -> (n_records, *shape) arrays, each allocated
    when the first block brings that name, and adds the autocovariance
    rows to one running sum per kind (:func:`metrics.add_rows`).

    The bits are the same in any process and for any worker count.  A
    record's draws and means come from its own generator and row-by-row
    recursions, and its autocovariance row from its own means, whatever
    its block or process.  Blocks are _ACF_BLOCK records, a size that sets
    each task's memory and length, not a bit.  Results are read, and rows
    summed, in record order.  ``map_`` is the builtin ``map``, which runs
    each block in this process when its result is read, or a process
    pool's ``map``, which submits every block at once and yields the
    results in record order.  Each block's result is dropped before the
    next is asked for, so memory is flat in the record count apart from
    the collected arrays.
    """
    slices = _slices(n_records, _ACF_BLOCK)
    seeds = [derive_record_seeds(base, n_records) for base in base_seeds]
    blocks = map_(block, *([column[sl] for sl in slices] for column in seeds))

    def collect() -> tuple[dict, dict]:
        rows: dict = {}
        acov: dict = {}
        for sl in slices:
            block_rows, block_acov = next(blocks)
            # by key, so that no loop variable holds a block's array
            # while the next block runs
            for name in block_rows:
                # not setdefault, which would allocate its default per block
                if name not in rows:
                    rows[name] = np.empty(
                        (n_records, *block_rows[name].shape[1:]))
                rows[name][sl] = block_rows[name]
            for kind in block_acov:
                add_rows(acov.setdefault(
                    kind, np.zeros(block_acov[kind].shape[1])),
                    block_acov[kind])
            del block_rows, block_acov
        return rows, acov
    return collect


@dataclasses.dataclass(frozen=True)
class InjectionStudy:
    """What criteria 4 and 9 read of the reduced-efficiency comparison.

    The clean ensemble provides the long-time-limit target; the injected
    window is re-estimated at the reduced efficiency.  Of the means, only
    the two ``probes`` columns are kept: ``m_ltl``, ``m_f`` and ``m_s`` are
    (N, 2, 2).  The closed-form curves cover the whole window, and
    ``acov`` holds each kind's sum of the N records' velocity
    autocovariances (:func:`metrics.acov_rows`), added in record order.
    """

    ep_new: EffectiveParams
    v_tar: float
    times: np.ndarray
    probes: tuple              # window sample indices of the kept columns
    m_ltl: np.ndarray          # (N, 2, 2) target means at the probes
    v_f: np.ndarray            # filter covariance at eta_new
    m_f: np.ndarray
    v_s: np.ndarray            # smoothed toward the LTL target
    m_s: np.ndarray
    acov: dict                 # ClassicalSmoothed, SmoothedLTL, Filtered


def _study_block(ep: EffectiveParams, eta_new: float, steps: list,
                 v_clean: np.ndarray, v_tar: float, probes: tuple,
                 seeds: np.ndarray, inject_seeds: np.ndarray
                 ) -> tuple[dict, dict]:
    """One block of the injection study, a record per seed.

    The clean ensemble is streamed in the time blocks ``steps``, warm-up
    blocks and then the window, and the clean filter runs block by block
    from the previous block's last mean, so only the window is kept.  The
    window is injected down to ``eta_new`` with each record's inject seed,
    then filtered, retrofiltered and smoothed at ``eta_new``.  Returns the
    clean, filtered and LTL-smoothed means at the probe columns (m_ltl,
    m_f, m_s) and kind -> each record's velocity autocovariance
    (:func:`metrics.acov_rows`), as two dicts."""
    m_ltl, lo = np.zeros((len(seeds), 1, 2)), 0
    for _, truth, win in truth_stream(ep, seeds, steps):
        m_ltl = filter_means(win, ep, v_clean[lo:], m_ltl[:, -1])
        lo += win.shape[1]
    del truth  # only the window's currents and clean means are used
    # in place: the clean window is not needed once its noise is added
    for row, s in zip(win, inject_seeds):
        row[...] = _injected(row, ep.dt, ep.eta, eta_new, int(s))
    kept = {"m_ltl": m_ltl[:, probes]}
    del m_ltl
    _, v_f, w, m_f, z = _estimate_stack(
        dataclasses.replace(ep, eta=eta_new), win)
    del win
    max_lag = steps[-1] - 1
    kept["m_f"] = m_f[:, probes]
    # each kind's autocovariance as soon as it exists, so that at most one
    # smoothed stack is held through a transform
    _, m_cs = combine_arrays(v_f, m_f, w, z, 0.0)
    acov = {"ClassicalSmoothed": acov_rows(m_cs, ep.dt, max_lag)}
    del m_cs
    _, m_s = combine_arrays(v_f, m_f, w, z, v_tar)
    del z
    kept["m_s"] = m_s[:, probes]
    acov["SmoothedLTL"] = acov_rows(m_s, ep.dt, max_lag)
    del m_s
    acov["Filtered"] = acov_rows(m_f, ep.dt, max_lag)
    return kept, acov


def _submit_study(map_, ep: EffectiveParams, eta_new: float,
                  n_records: int, base_seed: int, inject_seed: int,
                  window: float = 1e-3, warmup_records: int = 3):
    """Submit the blocks of :func:`run_injection_study`
    (:func:`_study_block`) through :func:`_submit_blocks` and return the
    function that collects them into its InjectionStudy."""
    ep_new = dataclasses.replace(ep, eta=eta_new)
    n_total = _n_steps(ep, warmup_records * ep.record_duration + window)
    n_win = _n_steps(ep, window)
    n_rec = _n_steps(ep, ep.record_duration)
    n_warm = n_total - n_win
    steps = [min(n_rec, n_warm - lo) for lo in range(0, n_warm, n_rec)]
    _, v_clean = filter_grid(ep, n_total)
    v_tar = v_filter_ss(ep)
    probes = (0, n_win // 2)
    collect = _submit_blocks(
        map_, functools.partial(_study_block, ep, eta_new, steps + [n_win],
                                v_clean, v_tar, probes),
        n_records, base_seed, inject_seed)

    def study() -> InjectionStudy:
        kept, acov = collect()
        times, v_f, w = _filter_and_retro_grid(ep_new, n_win)
        return InjectionStudy(ep_new=ep_new, v_tar=v_tar, times=times,
                              probes=probes, v_f=v_f,
                              v_s=smoothed_variance(v_f, w, v_tar),
                              acov=acov, **kept)
    return study


def run_injection_study(ep: EffectiveParams, eta_new: float, n_records: int,
                        base_seed: int, inject_seed: int,
                        window: float = 1e-3,
                        warmup_records: int = 3) -> InjectionStudy:
    """Filter a clean ensemble through a warm-up into its long-time limit,
    then re-estimate the last ``window`` of its records at ``eta_new``.

    Records run in blocks (:func:`_study_block`), in this process, one
    block at a time (:func:`_submit_blocks` with the builtin ``map``)."""
    return _submit_study(map, ep, eta_new, n_records, base_seed,
                         inject_seed, window, warmup_records)()


# ---------------------------------------------------------------------------
# acceptance report
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class CriterionResult:
    """One line of the validation report."""

    index: int
    title: str
    passed: bool
    detail: str


def _crit_filter_ss(ep: EffectiveParams) -> CriterionResult:
    v = v_filter_ss(ep)
    ok = abs(v / 4.7 - 1.0) <= 0.02
    return CriterionResult(1, "steady-state filtered variance", ok,
                           f"v_F_ss = {v:.4f}, expected 4.7 within 2%")


def _crit_t0_ratios(ep: EffectiveParams) -> CriterionResult:
    _, closed = run_grid(ep)
    v_f, v_sl = closed["Filtered"][0], closed["SmoothedLTL"][0]
    v_tar = TargetSpec.of("LTLFiltered", ep).v_tar
    # error stds sqrt(v - v_tar) at t = 0
    ratio = math.sqrt(v_f - v_tar) / math.sqrt(v_sl - v_tar)
    purity = v_f / v_sl
    ok = 2.7 <= ratio <= 3.1 and 5.4 <= purity <= 6.1
    return CriterionResult(
        2, "start-of-record error and purity ratios", ok,
        f"std ratio = {ratio:.3f} in [2.7, 3.1], "
        f"variance ratio = {purity:.3f} in [5.4, 6.1]")


def _crit_true_target(ep: EffectiveParams) -> CriterionResult:
    _, closed = run_grid(ep)
    r0 = closed["Filtered"][0] / closed["SmoothedTrue"][0]
    v_ss = v_filter_ss(ep)
    r_ss = v_ss / smoothed_variance(v_ss, retro_precision_ss(ep), 1.0)
    ok = r0 > 10.0 and abs(r_ss - 1.43) <= 0.02
    return CriterionResult(
        3, "true-state smoothing gain", ok,
        f"t = 0 variance ratio = {r0:.2f} > 10, "
        f"steady ratio = {r_ss:.4f} within 1.43 +- 0.02")


def _crit_injection(study: InjectionStudy) -> CriterionResult:
    v_tar = study.v_tar
    imp0 = 1.0 - (hs_avg_theory(v_tar, study.v_s[0])
                  / hs_avg_theory(v_tar, study.v_f[0]))
    ep2 = study.ep_new
    v_fss = v_filter_ss(ep2)
    v_sss = smoothed_variance(v_fss, retro_precision_ss(ep2), v_tar)
    imp_ss = 1.0 - hs_avg_theory(v_tar, v_sss) / hs_avg_theory(v_tar, v_fss)
    ok = abs(imp0 - 0.23) <= 0.01 and abs(imp_ss - 0.13) <= 0.01

    pulls = []
    for j, k in enumerate(study.probes):
        for v_curve, m_kept in ((study.v_f, study.m_f),
                                (study.v_s, study.m_s)):
            samp = hs_sq_isotropic(v_tar, study.m_ltl[:, j],
                                   v_curve[k], m_kept[:, j])
            se = samp.std(ddof=1) / math.sqrt(samp.shape[0])
            pulls.append(abs(samp.mean() - hs_avg_theory(v_tar, v_curve[k]))
                         / se)
    # np.max keeps a NaN pull (an undefined spread), which then fails
    worst = float(np.max(pulls))
    ok = ok and worst <= 3.0
    return CriterionResult(
        4, "reduced-efficiency smoothing advantage", ok,
        f"theory gain {100 * imp0:.1f}% at t = 0 (23 +- 1), "
        f"{100 * imp_ss:.1f}% steady (13 +- 1); "
        f"worst sampled deviation {worst:.2f} se (limit 3)")


def _report_probes(n: int) -> np.ndarray:
    """Criterion 5's 20 probe samples of an n-sample record."""
    return np.unique(np.round(np.linspace(0, n - 1, 20)).astype(int))


def _kinds_of(ep: EffectiveParams, v_f, w, m_f, z):
    """(kind, means) of the five conditioning kinds of one block of
    filtered and retrofiltered records, each made only when asked for, so
    a caller that keeps slices holds at most two means stacks at once."""
    yield "Filtered", m_f
    for target in TARGET_KINDS:
        _, m = combine_arrays(v_f, m_f, w, z, TargetSpec.of(target, ep).v_tar)
        yield _TRAJ_KIND[target], m
    yield "Retrofiltered", effect_means(w, z, ep)


# the kinds whose late-window squared errors criterion 6 reads
_LATE_KINDS = ("SmoothedTrue", "Filtered")


def _main_block(ep: EffectiveParams, cols: np.ndarray, lo: int,
                seeds: np.ndarray) -> tuple[dict, dict]:
    """One block of the main ensemble, a record per seed: kind -> means at
    the columns ``cols`` for the five kinds, and ``late <kind>`` -> the
    squared errors against the truth from sample ``lo`` for the kinds of
    _LATE_KINDS; no autocovariance."""
    _, truth, currents = next(truth_stream(
        ep, seeds, [_n_steps(ep, ep.record_duration)]))
    _, v_f, w, m_f, z = _estimate_stack(ep, currents)
    del currents
    rows = {}
    for kind, m in _kinds_of(ep, v_f, w, m_f, z):
        rows[kind] = m[:, cols]
        if kind in _LATE_KINDS:
            err = rows[f"late {kind}"] = np.subtract(m[:, lo:],
                                                     truth[:, lo:])
            err **= 2
    return rows, {}


def _submit_main(map_, ep: EffectiveParams, n_records: int,
                 base_seed: int):
    """Submit the main ensemble's blocks (:func:`_main_block`) through
    :func:`_submit_blocks` and return the function that collects what
    criteria 5 and 6 read of it.

    Every kind's vw is its closed form of :func:`run_grid`.  The collected
    arrays are the grid times at the kept columns (the probes, then the
    last sample, so the kept times span the record), kind -> (means, vw)
    at those columns as consistency_check takes them, and for the kinds
    of _LATE_KINDS the late-window squared errors against the truth
    (N, n+1-lo, 2) with vw[lo:], from lo = round(0.7 n)."""
    times, closed = run_grid(ep)
    n = times.shape[0] - 1
    cols = np.append(_report_probes(n), n)
    lo = int(round(0.7 * n))
    # _main_block is looked up here, when the blocks are submitted
    block = functools.partial(_main_block, ep, cols, lo)
    collect = _submit_blocks(map_, block, n_records, base_seed)

    def arrays():
        rows, _ = collect()
        late = {kind: (rows.pop(f"late {kind}"), closed[kind][lo:])
                for kind in _LATE_KINDS}
        stacks = {kind: (m, closed[kind][cols]) for kind, m in rows.items()}
        return times[cols], stacks, late
    return arrays


def _crit_consistency(ep, arrays) -> CriterionResult:
    times, stacks, _ = arrays
    stats = consistency_check(stacks, times, ep)
    # every kept column but the record's last sample is a probe
    bad = sum(int(stats.outside[kind][:-1].sum()) for kind in stats.outside)
    total = len(stats.outside) * (times.shape[0] - 1)
    return CriterionResult(
        5, "ensemble variance consistency", bad == 0,
        f"{total - bad}/{total} probes within 3 standard errors "
        f"across {len(stats.outside)} conditioning kinds")


def _crit_mse(ep, arrays) -> CriterionResult:
    _, _, late = arrays
    rat_s, rat_f = (np.mean(err) / np.mean(vw - 1.0)
                    for err, vw in (late["SmoothedTrue"], late["Filtered"]))
    ok = abs(rat_s - 1.0) <= 0.05 and abs(rat_f - 1.0) <= 0.05
    return CriterionResult(
        6, "mean-square error identities", ok,
        f"late-window MSE over theory: smoothed {rat_s:.4f}, "
        f"filtered {rat_f:.4f} (each within 5% of 1)")


def _random_effective(rng: np.random.Generator) -> EffectiveParams:
    return EffectiveParams(
        gamma_eff=10.0 ** rng.uniform(-2.0, 3.0),
        n_th_eff=10.0 ** rng.uniform(0.0, 6.0),
        coop_eff=10.0 ** rng.uniform(0.0, 6.0),
        eta=rng.uniform(0.05, 1.0))


def _rk4(rhs, y0: np.ndarray, h: np.ndarray, n_out: int,
         steps: int) -> np.ndarray:
    """Classical fourth-order Runge-Kutta for the autonomous y' = rhs(y),
    one fixed step h per element of y0: y at the start and after each of
    n_out intervals of ``steps`` steps, stacked (n_out + 1, len(y0))
    (Hairer, Norsett & Wanner, Solving ODEs I, 1993)."""
    y, out = y0, [y0]
    for _ in range(n_out):
        for _ in range(steps):
            k1 = rhs(y)
            k2 = rhs(y + 0.5 * h * k1)
            k3 = rhs(y + 0.5 * h * k2)
            k4 = rhs(y + h * k3)
            y = y + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(y)
    return np.array(out)


def _crit_riccati() -> CriterionResult:
    n_sets, rng = 100, np.random.default_rng(20240707)
    eps = [_random_effective(rng) for _ in range(n_sets)]
    # the right-hand sides read only these, so arrays of them stack the sets
    sets = SimpleNamespace(**{name: np.array([getattr(ep, name) for ep in eps])
                              for name in ("gamma_eff", "n_tot", "eta_coop")})
    horizon = np.array([6.0 / relaxation_rate(ep, ep.eta_coop)
                        for ep in eps])
    n_out, steps = 40, 10

    # both flows in precision form, where they relax at the Riccati rate
    # with no fast transient; the retro precision's rate stays finite at
    # w = 0
    def p_rhs(p):
        return -(p * p) * filter_riccati_rhs(1.0 / p, sets)

    def w_rhs(w):
        pos = w > 0.0
        inv = 1.0 / np.where(pos, w, 1.0)
        return np.where(pos, -(w * w) * retro_riccati_rhs(inv, sets),
                        2.0 * sets.gamma_eff * sets.eta_coop)

    p0 = 1.0 / np.array([ep.sigma2_uncon for ep in eps])

    def flows(per_interval):
        h = horizon / (n_out * per_interval)
        v = 1.0 / _rk4(p_rhs, p0, h, n_out, per_interval)
        w = _rk4(w_rhs, np.zeros(n_sets), h, n_out, per_interval)
        # w(T) = 0 is exact, so the relative deviation starts one sample on
        return v, w[1:]

    def deviation(got, ref):
        return max(float(np.max(np.abs(g - r) / r)) for g, r in zip(got, ref))

    ts = np.linspace(0.0, horizon, n_out + 1)
    v_ref = np.column_stack([v_filter(ts[:, j], ep)
                             for j, ep in enumerate(eps)])
    w_ref = np.column_stack([retro_precision(horizon[j] - ts[:, j],
                                             horizon[j], ep)
                             for j, ep in enumerate(eps)])[1:]
    v, w = flows(steps)
    worst = deviation((v, w), (v_ref, w_ref))
    # RK4's error falls 16-fold when its step halves, so the change from
    # a run at half the steps is 15 times the error of the finer run
    est = deviation(flows(steps // 2), (v, w)) / 15.0
    ok = worst < 1e-6
    return CriterionResult(
        7, "closed forms against direct integration", ok,
        f"worst relative deviation {worst:.2e} over {n_sets} "
        f"parameter sets (limit 1e-6); RK4 error estimate {est:.2e}")


def _crit_physicality() -> CriterionResult:
    n_sets, rng = 1000, np.random.default_rng(20240808)
    min_vs = math.inf
    for _ in range(n_sets):
        ep = _random_effective(rng)
        horizon = 8.0 / relaxation_rate(ep, ep.eta_coop)
        ep = dataclasses.replace(ep, record_duration=horizon,
                                 dt=horizon / 480.0)
        # run_grid's SmoothedTrue, the only kind read, without the others
        _, v_f, w = _filter_and_retro_grid(ep, _n_steps(ep, horizon))
        v_s = smoothed_variance(v_f, w, TargetSpec.of("TrueState", ep).v_tar)
        min_vs = min(min_vs, float(v_s.min()))
    quantum_ok = min_vs >= 1.0 - 1e-9

    etas = np.linspace(0.05, 0.95, 20)
    factors = np.logspace(-2.0, 2.0, 20)
    mismatches = 0
    for eta in etas:
        for f in factors:
            ratio = f / (4.0 * eta - 1.0) if eta > 0.25 else f
            ep = EffectiveParams(1.0, 1.0e4, ratio * 1.0e4, float(eta))
            v_cs = smoothed_variance(v_filter_ss(ep), retro_precision_ss(ep),
                                     0.0)
            if (v_cs < 1.0) != shup_violation_predicted(ep):
                mismatches += 1
    ok = quantum_ok and mismatches == 0
    return CriterionResult(
        8, "physicality and classical-violation boundary", ok,
        f"min v_S = {min_vs:.6f} >= 1 over {n_sets} sets; "
        f"{400 - mismatches}/400 grid cells match the predicate")


def _crit_vacf(study: InjectionStudy) -> CriterionResult:
    res = vacf_from_sums(study.acov, study.m_f.shape[0],
                         study.times.shape[0] - 1,
                         study.times[1] - study.times[0])
    d = res.decorrelation_time
    ratio = d["ClassicalSmoothed"] / max(d["Filtered"], d["SmoothedLTL"])
    ok = ratio >= 10.0
    return CriterionResult(
        9, "classical velocity decorrelation", ok,
        f"decorrelation {1e6 * d['ClassicalSmoothed']:.0f} us classical vs "
        f"{1e6 * d['Filtered']:.0f} us filtered and "
        f"{1e6 * d['SmoothedLTL']:.0f} us smoothed (ratio {ratio:.1f} >= 10)")


def _crit_demod(omega: float) -> CriterionResult:
    fs = 5.0e6
    dt = 1.0e-6
    n = 4000
    t = np.arange(n) * dt
    amp = 3.0e4
    cur = amp * np.stack((np.cos(2.0 * math.pi * 300.0 * t),
                          np.sin(2.0 * math.pi * 450.0 * t)), axis=-1)
    raw = synthesize_raw(MeasurementRecord(dt, cur), omega, fs, seed=13)
    out = demodulate(raw, omega)
    k0 = 400
    sq_err, sq = (out.currents[k0:n] - cur[k0:]) ** 2, cur[k0:] ** 2
    err = math.sqrt((sq_err[:, 0].mean() + sq_err[:, 1].mean())
                    / (sq[:, 0].mean() + sq[:, 1].mean()))

    imp = np.zeros((1, int(round(600e-6 * fs))))
    imp[0, 0] = 1.0
    zpk = demod_filter(DEFAULT_BW_3DB, DEFAULT_ORDER, fs)
    h = np.abs(Lowpass(zpk, rows=1)(imp)[0])
    tail = float(h[int(round(400e-6 * fs)):].max() / h.max())
    ok = err < 0.05 and tail < 1e-3
    return CriterionResult(
        10, "carrier demodulation round trip", ok,
        f"quadrature RMS error {100 * err:.2f}% (< 5%) after 400 us; "
        f"impulse tail {tail:.1e} of peak (< 1e-3)")


def _run_all_stages(cfg: RunConfig, base_dir: Path, jobs: int) -> None:
    for stage in (stage_simulate, stage_estimate, stage_smooth,
                  stage_analyze):
        stage(cfg, base_dir, jobs=jobs)


def _crit_reproducible(cfg: RunConfig) -> CriterionResult:
    import tempfile

    small = dataclasses.replace(cfg, n_records=min(cfg.n_records, 8),
                                formats=("csv", "bin"))
    sums = []
    # the stages' own lines name temporary directories and would reach
    # the report's stderr from a worker, interleaved with its own lines
    with tempfile.TemporaryDirectory() as td, \
            contextlib.redirect_stderr(io.StringIO()):
        for name, jobs in (("a", 1), ("b", _WORKERS)):
            base = Path(td) / name
            _run_all_stages(small, base, jobs)
            paths = sorted(p for p in base.rglob("*") if p.is_file())
            sums.append({str(p.relative_to(base)): recordio.checksum(p)
                         for p in paths})
    ok = sums[0] == sums[1]
    n_files = len(sums[0])
    return CriterionResult(
        11, "bitwise reproducibility", ok,
        f"{n_files} artifact files byte-identical across two runs "
        f"(1 and {_WORKERS} workers)")


# the injection study's efficiency when the config has no [noise_injection]
DEFAULT_ETA_NEW = 0.10

# glibc's mallopt parameters (malloc.h) and the ensemble workers' values:
# the mmap threshold lies above a block's largest arrays, the study's
# 4.1 MB (256, 1001, 2) window stacks, so every block array comes from
# the heap; the trim threshold lies above a block's 21-23 MB of
# short-lived heap (tracemalloc), so a freed block stays with the worker
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_WORKER_MMAP_THRESHOLD = 32 << 20
_WORKER_TRIM_THRESHOLD = 256 << 20


def _keep_heap() -> None:
    """Ensemble worker initializer: glibc's malloc keeps each block's freed
    memory for the next block, whose arrays then reuse pages the worker
    has already faulted in, in place of an mmap and a fresh fault per page
    for every block.  It changes where arrays live, not a bit of what is
    computed.  Never raises, since a pool whose initializer raises is
    broken; does nothing where the C library has no ``mallopt``."""
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, TypeError, AttributeError):
        return  # without mallopt a worker only faults more pages
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _WORKER_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _WORKER_TRIM_THRESHOLD)


def _ensemble_pool():
    """The report's pool: ``_WORKERS`` ensemble workers that keep their
    freed heap (:func:`_keep_heap`)."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=_WORKERS, initializer=_keep_heap)


def acceptance_report(cfg: RunConfig) -> list[CriterionResult]:
    """Run the full validation suite and return one result per criterion.

    Statistical checks reuse two shared ensembles: the main truth ensemble
    at the configured parameters and the reduced-efficiency injection
    study, each run in record blocks that leave only the slices their
    criteria read (:func:`_submit_blocks`, which says why the text is the
    same bits for any worker count).  A pool of ``_WORKERS`` ensemble
    workers (:func:`_ensemble_pool`) runs criterion 11, its first task
    (``pool.submit``), then every block of the study and of the main
    ensemble, all submitted at once, so that neither worker idles while
    the other finishes.  Each worker keeps the heap its blocks free
    (:func:`_keep_heap`), so a block reuses the pages of the block before
    it and does not fault them in again.  Meanwhile this process runs
    criteria 7 and 8, which read neither ensemble, then collects the
    blocks and computes the rest.  No Python thread but the main one is
    alive at any fork: the pool forks its workers at its first submit,
    before its own threads start, and criterion 11's file workers start
    inside an ensemble worker, which runs one.  OpenBLAS's worker thread,
    which ``import numpy`` starts, is alive at this process's first fork
    until OpenBLAS's own fork handler stops it.  The record count,
    the study's efficiency and the carrier, through criterion 10, are
    checked before the pool starts.  The pool is held in one ``with``
    block, as a file stage holds its workers: on leaving it, after an
    error too, the tasks already queued finish and the workers are
    joined, so the report leaves no process behind.  Seeds derive from
    the configured base seed, so the report is reproducible.  The last
    stderr line gives this process's peak RSS, the largest child's and
    the child processes' minor page faults.
    """
    ep = effective_params(cfg.params)
    if cfg.n_records < 2:
        raise ValueError(f"report: ensemble.n_records = {cfg.n_records}, the "
                         "report's ensemble statistics need at least 2")
    eta_new = cfg.eta_new if cfg.eta_new is not None else DEFAULT_ETA_NEW
    if not 0 < eta_new <= cfg.params.eta:
        given = " (its default)" if cfg.eta_new is None else ""
        raise ValueError(f"report: noise_injection.eta_new = {eta_new:g}"
                         f"{given} must be in (0, params.eta = "
                         f"{cfg.params.eta:g}]")
    omega = cfg.params.omega if cfg.params.omega > 0 else 2.0 * math.pi * 1.04e6
    demod = _crit_demod(omega)
    with _ensemble_pool() as pool:
        results = [_crit_filter_ss(ep), _crit_t0_ratios(ep),
                   _crit_true_target(ep)]
        log("report: running the reduced-efficiency injection study, the "
            f"main ensemble and the reproducibility runs on {_WORKERS} "
            "ensemble workers")
        reproducible = pool.submit(_crit_reproducible, cfg)
        collect_study = _submit_study(pool.map, ep, eta_new, cfg.n_records,
                                      cfg.base_seed + 1_000_003,
                                      cfg.base_seed + 2_000_003)
        collect_main = _submit_main(pool.map, ep, cfg.n_records,
                                    cfg.base_seed)
        log("report: cross-checking closed forms and physicality bounds "
            "while the workers run")
        riccati, physicality = _crit_riccati(), _crit_physicality()

        study = collect_study()
        results.append(_crit_injection(study))
        # criterion 9 also reads the study; computed now, so the study is
        # freed before the main ensemble is collected, and listed in its
        # place
        crit_vacf = _crit_vacf(study)
        del study
        _log_peak_rss("injection study")

        arrays = collect_main()
        results.append(_crit_consistency(ep, arrays))
        results.append(_crit_mse(ep, arrays))
        del arrays
        _log_peak_rss("main ensemble")

        results += [riccati, physicality, crit_vacf, demod,
                    reproducible.result()]
    _log_peak_rss("reproducibility", children="largest child process")
    return results


def _log_peak_rss(phase: str, children: str = "") -> None:
    # children: a label for the largest peak among the child processes
    # joined so far, each counted with the processes it joined; their
    # minor page faults follow it
    extra = f", {children} {peak_rss_mb(children=True):.1f} MB, child " \
        f"processes' minor page faults {_rusage('ru_minflt', True)}" \
        if children else ""
    log(f"report: {phase} done, peak RSS {peak_rss_mb():.1f} MB{extra}")


def format_report(results: list[CriterionResult]) -> str:
    lines = []
    n_pass = 0
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        n_pass += int(r.passed)
        lines.append(f"criterion {r.index:2d} {mark}  {r.title}: {r.detail}")
    lines.append(f"{n_pass}/{len(results)} criteria passed")
    return "\n".join(lines)
