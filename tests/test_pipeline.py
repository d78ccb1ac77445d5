"""Stage pipeline round trips on a small ensemble."""

import dataclasses
import json
import math
import multiprocessing
import os
import re
import resource
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from lgqsmooth import pipeline, recordio
from lgqsmooth.config import RunConfig
from lgqsmooth.ingest import RawTrace
from lgqsmooth.estimate import STATE_KINDS
from lgqsmooth.metrics import consistency_check, vacf
from lgqsmooth.model import PhysicalParams, effective_params, v_filter_ss
from lgqsmooth.simulate import MeasurementRecord, simulate_truth_ensemble, synthesize_raw
from lgqsmooth.smooth import TARGET_KINDS

from _oracles import (
    injection_study_whole,
    main_arrays_whole,
    same_bits,
    velocity_acov_whole,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def small_cfg():
    params = PhysicalParams(gamma=TWO_PI * 11.5e-3, n_th=2.45e5,
                            coop=3.16e4, eta=0.38, gamma_fb=TWO_PI * 85.0,
                            omega=TWO_PI * 1.04e6,
                            record_duration=250e-6)
    return RunConfig(params=params, n_records=5, base_seed=909,
                     targets=("LTLFiltered", "TrueState", "Classical"),
                     eta_new=0.10, out_dir=None, formats=("csv", "bin"))


@pytest.fixture(scope="module")
def run_dir(small_cfg, tmp_path_factory):
    # every stage in this process, the reference for other worker counts
    base = tmp_path_factory.mktemp("run")
    pipeline.stage_simulate(small_cfg, base, jobs=1)
    pipeline.stage_estimate(small_cfg, base, jobs=1)
    pipeline.stage_smooth(small_cfg, base, jobs=1)
    pipeline.stage_analyze(small_cfg, base, jobs=1)
    return base


def test_layout(run_dir, small_cfg):
    n = small_cfg.n_records
    assert len(list((run_dir / "records").glob("record_*.csv"))) == n
    assert len(list((run_dir / "records").glob("record_*.bin"))) == n
    assert len(list((run_dir / "truth").glob("truth_*.csv"))) == n
    assert len(list((run_dir / "estimates").glob("filtered_*.csv"))) == n
    assert len(list((run_dir / "estimates").glob("retro_*.csv"))) == n
    for kind in small_cfg.targets:
        found = list((run_dir / "smoothed" / kind).glob("smoothed_*.csv"))
        assert len(found) == n
    for name in ("consistency.csv", "stats.json", "hs.csv", "vacf.csv"):
        assert (run_dir / "analysis" / name).is_file()


def test_records_match_direct_simulation(run_dir, small_cfg):
    ep = effective_params(small_cfg.params)
    ens = simulate_truth_ensemble(ep, ep.record_duration,
                                  small_cfg.n_records, small_cfg.base_seed)
    _, records = pipeline.load_records(run_dir / "records")
    assert len(records) == small_cfg.n_records
    for i, rec in enumerate(records):
        ref = ens.record(i)
        np.testing.assert_array_equal(rec.currents, ref.currents)
        assert rec.eta_effective == ref.eta_effective
        assert rec.seed == ref.seed


def test_smoothed_outputs_valid(run_dir, small_cfg):
    ep = effective_params(small_cfg.params)
    # the reader checks each file's kind and its vw against the closed form
    n = small_cfg.n_records
    _, stacks, _, _ = pipeline._load_stacks(
        run_dir, n, ep, pipeline._FileWorkers(1, n, "read"), ("TrueState",))
    means, v_s = stacks["SmoothedTrue"]
    assert np.isfinite(means).all()
    # smoothing never inflates the covariance and respects the target
    assert (v_s <= stacks["Filtered"][1] + 1e-12).all()
    assert (v_s >= 1.0 - 1e-12).all()


def test_analyze_tables(run_dir, small_cfg):
    doc = json.loads((run_dir / "analysis" / "stats.json").read_text())
    assert doc["n_records"] == small_cfg.n_records
    assert set(doc["outside_fraction"]) == {
        "Filtered", "Retrofiltered", "SmoothedTrue", "SmoothedLTL",
        "ClassicalSmoothed"}
    assert set(doc["hs_mean"]) == {"TrueState:Filtered",
                                   "TrueState:SmoothedTrue",
                                   "TrueState:ClassicalSmoothed"}
    lines = (run_dir / "analysis" / "hs.csv").read_text().splitlines()
    assert lines[0] == "t_s,kind,hs_empirical,hs_theory"
    assert len(lines) > 1


def _tree(base: Path) -> dict:
    return {str(p.relative_to(base)): p.read_bytes()
            for p in sorted(base.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("jobs", [2, 3])  # 5 records in 3/2 and 2/2/1
def test_file_stages_are_bitwise_identical_for_any_worker_count(
        small_cfg, run_dir, tmp_path, jobs):
    # all four stages, each on its own pool, which it shuts down before
    # it returns
    other = tmp_path / "par"
    for stage in (pipeline.stage_simulate, pipeline.stage_estimate,
                  pipeline.stage_smooth, pipeline.stage_analyze):
        stage(small_cfg, other, jobs=jobs)
        assert multiprocessing.active_children() == []
    assert _tree(other) == _tree(run_dir)


@pytest.mark.parametrize("jobs, n_files, processes, sizes", [
    (1, 5, 1, [1] * 5),          # this process, one file at a time
    (2, 1, 1, [1]),              # one file needs no pool
    (2, 5, 2, [3, 2]),
    (3, 5, 3, [2, 2, 1]),
    (8, 3, 3, [1, 1, 1]),        # never more workers than files
    (2, 200, 2, [8] * 25),
])
def test_file_workers_take_contiguous_slices(jobs, n_files, processes,
                                             sizes):
    workers = pipeline._FileWorkers(jobs, n_files, "test")
    assert workers.processes == processes <= len(workers.slices)
    assert [sl.stop - sl.start for sl in workers.slices] == sizes
    assert [sl.start for sl in workers.slices] == \
        [sum(sizes[:k]) for k in range(len(sizes))]


def test_file_workers_give_results_in_task_order():
    # more tasks than are kept in flight, so results and submissions
    # interleave; the pool is gone once the workers exit
    with pipeline._FileWorkers(2, 40, "test") as workers:
        tasks = ((abs, [-i, i]) for i in range(20))
        assert list(workers.starmap(pipeline._each, tasks)) == [
            [i, i] for i in range(20)]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("method, methods", [
    ("spawn", None),                          # set by the program
    ("forkserver", None),
    (None, ["spawn", "fork", "forkserver"]),  # macOS's default
    (None, ["forkserver", "spawn", "fork"]),  # Linux's, Python 3.14
])
def test_file_stages_start_no_pool_unless_workers_fork(
        small_cfg, run_dir, tmp_path, monkeypatch, method, methods):
    # workers that import numpy afresh start slower than a stage's whole
    # text work, so without fork every stage runs in its own process
    import concurrent.futures

    def no_pool(*args, **kwargs):
        raise AssertionError("a file stage started a pool")

    monkeypatch.setattr(multiprocessing, "get_start_method",
                        lambda allow_none=False: method)
    if methods is not None:
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: methods)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    assert pipeline._FileWorkers(2, 5, "test").processes == 1
    other = tmp_path / "run"
    for stage in (pipeline.stage_simulate, pipeline.stage_estimate,
                  pipeline.stage_smooth, pipeline.stage_analyze):
        stage(small_cfg, other, jobs=2)
    assert _tree(other) == _tree(run_dir)


def test_reproducibility_runs_inside_a_pool_worker(small_cfg):
    # the report runs criterion 11 in one of its ensemble workers, which
    # leaves through os._exit: its file stages' own pool must be shut down
    # before the criterion returns, or the worker never finishes
    from concurrent.futures import ProcessPoolExecutor

    cfg = dataclasses.replace(small_cfg, n_records=3)
    with ProcessPoolExecutor(max_workers=1) as pool:
        result = pool.submit(pipeline._crit_reproducible, cfg).result(
            timeout=120)
    assert result.passed, result.detail
    assert multiprocessing.active_children() == []


def test_serial_estimate_writes_each_record_before_the_next(
        small_cfg, tmp_path, monkeypatch):
    base = tmp_path / "run"
    pipeline.stage_simulate(small_cfg, base)
    filtered = []
    run_filter = pipeline.run_filter

    def checked(rec, ep):
        i = len(filtered)
        if i:
            assert (base / "estimates" / f"filtered_{i - 1:05d}.csv").is_file()
            assert (base / "estimates" / f"retro_{i - 1:05d}.csv").is_file()
        filtered.append(i)
        return run_filter(rec, ep)

    monkeypatch.setattr(pipeline, "run_filter", checked)
    pipeline.stage_estimate(small_cfg, base, jobs=1)
    assert len(filtered) == small_cfg.n_records


def test_load_records_requires_files(tmp_path, ref_ep):
    with pytest.raises(FileNotFoundError):
        pipeline.load_records(tmp_path)
    with pytest.raises(FileNotFoundError):
        pipeline._load_stacks(tmp_path, 1, ref_ep,
                              pipeline._FileWorkers(1, 1, "read"))


@pytest.mark.parametrize("indices, n, fault", [
    ([0, 1, 2], None, None),
    ([0, 1, 2], 3, None),
    ([0, 2], None, "record_00001.csv is missing"),
    ([0, 1], 3, "record_00002.csv is missing"),
    ([0, 1, 2], 2, "record_00002.csv is stray"),
    ([0, 1, "old"], None, "record_old.csv is stray"),
    ([0, 1, "5"], None, "record_5.csv is stray"),
], ids=["all", "all of n", "gap", "short of n", "past n", "other name",
        "unpadded index"])
def test_indexed_paths_are_the_whole_file_set(tmp_path, indices, n, fault):
    for i in indices:
        (tmp_path / f"record_{i:05d}.csv" if isinstance(i, int)
         else tmp_path / f"record_{i}.csv").write_text("")
    (tmp_path / "record_00009.bin").write_text("")  # another format
    if fault is None:
        assert pipeline._indexed_paths(tmp_path, "record", "csv", n) == [
            tmp_path / f"record_{i:05d}.csv" for i in range(3)]
    else:
        with pytest.raises(ValueError,
                           match="^" + re.escape(f"{tmp_path}: {fault}")):
            pipeline._indexed_paths(tmp_path, "record", "csv", n)


def test_stage_inject(run_dir, small_cfg, tmp_path):
    out = tmp_path / "inj"
    n = pipeline.stage_inject(run_dir / "records", out, 0.38, 0.10, seed=5,
                              formats=("bin",))
    assert n == small_cfg.n_records
    _, injected = pipeline.load_records(out)
    _, clean = pipeline.load_records(run_dir / "records")
    for rec, ref in zip(injected, clean):
        assert rec.eta_effective == 0.10
        assert rec.n == ref.n
        assert not np.allclose(rec.currents[:, 0], ref.currents[:, 0])
    out2 = tmp_path / "inj2"
    pipeline.stage_inject(run_dir / "records", out2, 0.38, 0.10, seed=5,
                          formats=("bin",))
    for p in sorted(out.iterdir()):
        assert recordio.checksum(p) == recordio.checksum(out2 / p.name)


def test_stage_demod(tmp_path, ref_ep):
    fs = 1.0e6
    omega = TWO_PI * 2.0e5
    dt = 1e-6
    t = np.arange(2000) * dt
    rec = MeasurementRecord(dt, np.column_stack(
        [200.0 * np.cos(TWO_PI * 400.0 * t), np.zeros_like(t)]))
    raw = synthesize_raw(rec, omega, fs, seed=3)
    trace = tmp_path / "trace.bin"
    recordio.write_raw_bin(raw, trace)
    out = tmp_path / "demod"
    n = pipeline.stage_demod(trace, out, omega, bw_3db=30e3, order=4,
                             dt_out=1e-6, record_len=300e-6,
                             discard=1000e-6, formats=("csv",))
    assert n == 3
    _, parts = pipeline.load_records(out)
    assert all(p.n == 300 for p in parts)


def test_file_stages_match_stacked_kernels(run_dir, small_cfg):
    # the per-record file stages and the report's stacked kernels are two
    # paths to the same trajectories; on one config's seeds they agree bit
    # for bit, means, information vectors and truth alike
    ep = effective_params(small_cfg.params)
    n = small_cfg.n_records
    (times, _), stacks, info, truth = pipeline._load_stacks(
        run_dir, n, ep, pipeline._FileWorkers(1, n, "read"), TARGET_KINDS,
        truth=True)
    ens = simulate_truth_ensemble(ep, ep.record_duration, n,
                                  small_cfg.base_seed)
    s_times, v_f, w, m_f, z = pipeline._estimate_stack(ep, ens.currents)
    assert same_bits(times, s_times)
    stacked = dict(pipeline._kinds_of(ep, v_f, w, m_f, z))
    assert set(stacks) == set(stacked) and len(stacked) == 5
    for kind, means in stacked.items():
        assert same_bits(stacks[kind][0], means), kind
    assert same_bits(info, z)
    assert same_bits(truth, ens.means)


def test_own_columns_are_the_generic_readers_bits(run_dir, small_cfg):
    # every trajectory and truth file of the run, read as its writer made
    # it at the run's layout, gives the generic reader's arrays bit for bit
    ep = effective_params(small_cfg.params)
    times, closed = pipeline.run_grid(ep)
    n_read = 0
    for path in sorted(run_dir.rglob("*.csv")):
        if path.parent.name == "truth":
            own = recordio.read_own_columns(recordio.means_layout(times), path)
            expected = recordio.read_means_csv(path)[1]
        elif path.parent.name not in ("records", "analysis"):
            traj = recordio.read_trajectory_csv(path)
            retro = traj.kind == "Retrofiltered"
            own = recordio.read_own_columns(recordio.trajectory_layout(
                times, traj.kind, closed[traj.kind], retro), path)
            expected = np.hstack([traj.mean, traj.info]) if retro \
                else traj.mean
        else:
            continue
        assert own is not None, path
        assert same_bits(own, expected), path
        n_read += 1
    assert n_read == small_cfg.n_records * 6


def test_stacks_are_the_generic_readers_stacks(run_dir, small_cfg,
                                              monkeypatch):
    # the run's stacks read through the own columns and through the
    # generic readers alone are the same bits
    ep = effective_params(small_cfg.params)
    n = small_cfg.n_records
    args = (run_dir, n, ep, pipeline._FileWorkers(1, n, "read"), TARGET_KINDS)
    fast = pipeline._load_stacks(*args, truth=True)
    monkeypatch.setattr(recordio, "read_own_columns",
                        lambda layout, path: None)
    generic = pipeline._load_stacks(*args, truth=True)
    assert fast[1].keys() == generic[1].keys()
    for kind, (means, vw) in fast[1].items():
        assert same_bits(means, generic[1][kind][0]), kind
        assert same_bits(vw, generic[1][kind][1]), kind
    assert same_bits(fast[2], generic[2])
    assert same_bits(fast[3], generic[3])


def _table(path) -> dict:
    """kind -> the float columns of an analysis CSV whose second column is
    the kind, parsed back from their %.17g text."""
    rows: dict = {}
    for line in path.read_text().splitlines()[1:]:
        fields = line.split(",")
        rows.setdefault(fields[1], []).append(
            [float(x) for x in fields[:1] + fields[2:]])
    return {kind: np.array(cols) for kind, cols in rows.items()}


def test_analysis_tables_match_stacked_path(run_dir, small_cfg):
    # analyze's consistency and autocorrelation tables hold the bits of
    # consistency_check and vacf on the report's stacked kernels at the
    # same seeds, so the file path and the stacked path cannot drift apart
    ep = effective_params(small_cfg.params)
    ens = simulate_truth_ensemble(ep, ep.record_duration,
                                  small_cfg.n_records, small_cfg.base_seed)
    times, v_f, w, m_f, z = pipeline._estimate_stack(ep, ens.currents)
    _, closed = pipeline.run_grid(ep)
    means = dict(pipeline._kinds_of(ep, v_f, w, m_f, z))
    stats = consistency_check({kind: (m, closed[kind])
                               for kind, m in means.items()}, times, ep)
    table = _table(run_dir / "analysis" / "consistency.csv")
    assert sorted(table) == sorted(stats.var_ens)
    for kind, cols in table.items():
        expected = np.column_stack([stats.times, stats.var_ens[kind],
                                    stats.theory[kind], stats.sev[kind],
                                    stats.outside[kind]])
        assert same_bits(cols, expected), kind
    res = vacf({kind: m for kind, m in means.items() if kind in STATE_KINDS},
               times[1] - times[0])
    table = _table(run_dir / "analysis" / "vacf.csv")
    assert sorted(table) == sorted(res.values) and len(table) == 4
    for kind, cols in table.items():
        assert same_bits(cols, np.column_stack([res.lags,
                                                 res.values[kind]])), kind


def test_injection_study_structure(ref_ep):
    # 300 records: one full 256-record block and a partial one
    study = pipeline.run_injection_study(ref_ep, 0.10, 300, 777, 888,
                                         window=3e-4, warmup_records=1)
    n_win = int(round(3e-4 / ref_ep.dt))
    assert study.probes == (0, n_win // 2)
    assert study.m_ltl.shape == (300, 2, 2)
    assert study.m_f.shape == study.m_s.shape == study.m_ltl.shape
    assert study.times.shape == study.v_f.shape == (n_win + 1,)
    assert set(study.acov) == {"Filtered", "SmoothedLTL",
                               "ClassicalSmoothed"}
    assert all(a.shape == (n_win,) for a in study.acov.values())
    assert study.v_f[0] == pytest.approx(study.ep_new.sigma2_uncon)
    assert study.v_tar == pytest.approx(v_filter_ss(ref_ep))
    # smoothing interpolates between the target floor and the filter
    assert (study.v_s <= study.v_f + 1e-12).all()
    assert (study.v_s >= study.v_tar - 1e-12).all()
    assert np.isfinite(study.m_s).all()


@pytest.mark.parametrize("window, warmup_records, record_us", [
    (1e-3, 3, 750.0), (3e-4, 1, 750.0),
    (2.5e-4, 2, 400.4)])  # warm-up blocks of 400, 400 and 1 samples
def test_injection_study_matches_whole_array_oracle(ref_ep, window,
                                                    warmup_records,
                                                    record_us):
    # in 256-record blocks, each streamed in record-length time blocks,
    # the study keeps the bits of one ensemble over warm-up and window:
    # its probe columns, its curves and its autocovariance sums
    ep = dataclasses.replace(ref_ep, record_duration=record_us * 1e-6)
    n_records = 300
    study = pipeline.run_injection_study(ep, 0.10, n_records, 777, 888,
                                         window=window,
                                         warmup_records=warmup_records)
    whole = injection_study_whole(ep, 0.10, n_records, 777, 888,
                                  window=window,
                                  warmup_records=warmup_records)
    probes = list(study.probes)
    for name in ("m_ltl", "m_f", "m_s"):
        assert same_bits(getattr(study, name), whole[name][:, probes]), name
    for name in ("times", "v_f", "v_s"):
        assert same_bits(getattr(study, name), whole[name]), name
    n_win = whole["v_f"].shape[0] - 1
    for kind, name in (("Filtered", "m_f"), ("SmoothedLTL", "m_s"),
                       ("ClassicalSmoothed", "m_cs")):
        acov = velocity_acov_whole(whole[name], ep.dt, n_win - 1)
        assert same_bits(study.acov[kind], acov.sum(axis=(0, 2))), kind


def test_main_arrays_match_whole_stack_oracle(ref_ep):
    # in 256-record blocks the main ensemble keeps what criteria 5 and 6
    # read, bit for bit: variances and their error bars at the probes, and
    # the late-window MSE ratios
    n_records = 300
    times, stacks, late = pipeline._submit_main(map, ref_ep, n_records,
                                                 4242)()
    truth, w_times, w_stacks = main_arrays_whole(ref_ep, n_records, 4242)
    n = w_times.shape[0] - 1
    probes = pipeline._report_probes(n)
    assert probes.shape == (20,)
    assert same_bits(times, w_times[np.append(probes, n)])
    got = consistency_check(stacks, times, ref_ep)
    expected = consistency_check(w_stacks, w_times, ref_ep)
    assert set(got.var_ens) == set(expected.var_ens)
    for kind in expected.var_ens:
        assert same_bits(got.var_ens[kind][:-1],
                          expected.var_ens[kind][probes]), kind
        assert same_bits(got.sev[kind][:-1], expected.sev[kind][probes]), \
            kind
    lo = int(round(0.7 * n))
    for kind in ("SmoothedTrue", "Filtered"):
        m, v = w_stacks[kind]
        err, vw = late[kind]
        ratio = np.mean(err) / np.mean(vw - 1.0)
        expected_ratio = (np.mean((m[:, lo:, :] - truth[:, lo:, :]) ** 2)
                          / np.mean(v[lo:] - 1.0))
        assert same_bits(ratio, expected_ratio), kind


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_report_ensembles_memory_is_flat_in_records(ref_ep):
    # 512 and 1280 records, two and five blocks, so each peak is a later
    # block's work on top of the collected arrays that the first block's
    # result allocated; only the slices the criteria read may grow with
    # the record count.  At 250 samples per record those are, in float64
    # pairs, the study's three kinds at two probes, and the main
    # ensemble's five kinds at 20 probes and the last sample plus two
    # kinds' squared errors over samples 175..250
    ep = dataclasses.replace(ref_ep, record_duration=250e-6)
    for name, run, kept in (
            ("study",
             lambda n: pipeline.run_injection_study(ep, 0.10, n, 5, 6,
                                                    window=3e-4,
                                                    warmup_records=1),
             3 * 2 * 16),
            ("main ensemble",
             lambda n: pipeline._submit_main(map, ep, n, 7)(),
             (5 * 21 + 2 * 76) * 16)):
        small = _traced_peak(run, 512)
        large = _traced_peak(run, 1280)
        assert large <= small + kept * 768 + 1e6, (name, small, large)


@pytest.mark.parametrize("name", ["_study_block", "_main_block"])
def test_ensemble_blocks_are_freed_before_the_next_block_runs(ref_ep, name,
                                                              monkeypatch):
    # the collect drops each block's result before it asks for the next:
    # inside block k, every array that the blocks before k returned is
    # dead, and once collected none is left.  600 records are three
    # blocks, the last a short one
    ep = dataclasses.replace(ref_ep, record_duration=50e-6)
    block, refs, seen = getattr(pipeline, name), [], []

    def checked_block(*args):
        assert [r for r in refs if r() is not None] == []
        seen.append(len(refs))
        rows, acov = block(*args)
        refs.extend(weakref.ref(a) for part in (rows, acov)
                    for a in part.values())
        return rows, acov

    monkeypatch.setattr(pipeline, name, checked_block)
    if name == "_study_block":
        pipeline.run_injection_study(ep, 0.10, 600, 5, 6, window=1e-4,
                                     warmup_records=1)
    else:
        pipeline._submit_main(map, ep, 600, 7)()
    assert len(seen) == 3 and 0 == seen[0] < seen[1] < seen[2]
    assert [r for r in refs if r() is not None] == []


def test_pooled_ensembles_match_in_process_bits(ref_ep):
    # 300 records: a full 256-record block and a short one.  Run on the
    # report's two workers, which keep their freed heap, and collected in
    # record order, both ensembles keep the bits of the in-process run:
    # every kept array, every curve and the three autocovariance sums
    with pipeline._ensemble_pool() as pool:
        study = pipeline._submit_study(pool.map, ref_ep, 0.10, 300, 777, 888)
        arrays = pipeline._submit_main(pool.map, ref_ep, 300, 4242)
        study, arrays = study(), arrays()
    inline = pipeline.run_injection_study(ref_ep, 0.10, 300, 777, 888)
    for name in ("times", "m_ltl", "m_f", "m_s", "v_f", "v_s"):
        assert same_bits(getattr(study, name), getattr(inline, name)), name
    assert (study.ep_new, study.v_tar, study.probes) == \
        (inline.ep_new, inline.v_tar, inline.probes)
    assert list(study.acov) == list(inline.acov) == [
        "ClassicalSmoothed", "SmoothedLTL", "Filtered"]
    for kind, total in inline.acov.items():
        assert same_bits(study.acov[kind], total), kind
    times, stacks, late = arrays
    i_times, i_stacks, i_late = pipeline._submit_main(map, ref_ep, 300,
                                                      4242)()
    assert same_bits(times, i_times)
    for got, expected in ((stacks, i_stacks), (late, i_late)):
        assert set(got) == set(expected)
        for kind, (values, vw) in expected.items():
            assert same_bits(got[kind][0], values), kind
            assert same_bits(got[kind][1], vw), kind


def test_report_forks_only_single_threaded_processes(small_cfg, monkeypatch):
    # a process that forks while another of its threads holds a lock can
    # hand the child a lock nobody releases; Python 3.12 warns about such a
    # fork.  The report's ensemble pool's workers fork from the report's
    # one thread, and criterion 11's pool from a worker.
    # os.fork swallows its warning even under an "error" filter, so the
    # warnings are recorded, and each fork, in this process or a worker,
    # first checks that its process runs one thread
    real_fork = os.fork

    def fork():
        assert threading.active_count() == 1, \
            f"fork from a process with {threading.active_count()} threads"
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", DeprecationWarning)
        results = pipeline.acceptance_report(small_cfg)
    assert [r.index for r in results] == list(range(1, 12))
    assert [str(w.message) for w in caught
            if issubclass(w.category, DeprecationWarning)
            and "fork" in str(w.message)] == []


def test_undefined_pull_fails_criterion_4(ref_ep):
    # one record has no sample spread, so its pulls are NaN; they must
    # fail the check, not vanish from the worst one.  The default window
    # passes the theory half, so only the pulls decide
    one = pipeline.run_injection_study(ref_ep, 0.10, 1, 5, 6)
    with np.errstate(all="ignore"), warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = pipeline._crit_injection(one)
    assert res.detail.startswith("theory gain 23.0% at t = 0 (23 +- 1), "
                                 "13.0% steady (13 +- 1); ")
    assert not res.passed
    assert "worst sampled deviation nan se" in res.detail
    # identical records: zero spread, so no pull is finite either
    two = pipeline.run_injection_study(ref_ep, 0.10, 2, 5, 6)
    same = dataclasses.replace(
        two, **{name: np.repeat(getattr(two, name)[:1], 2, axis=0)
                for name in ("m_ltl", "m_f", "m_s")})
    with np.errstate(all="ignore"):
        res = pipeline._crit_injection(same)
    assert not res.passed


def test_criterion_7_reads_the_closed_forms_not_the_integrator():
    # RK4's own error is near 1e-10, four orders below the 1e-6 limit
    res = pipeline._crit_riccati()
    assert res.passed
    words = res.detail.split()
    assert float(words[3]) <= 1e-9
    # "error estimate <value>" closes the detail
    assert words[-3:-1] == ["error", "estimate"]
    assert float(words[-1]) <= 1e-9


@pytest.mark.parametrize("name", ["v_filter", "retro_precision"])
def test_criterion_7_catches_a_closed_form_error(name, monkeypatch):
    # the flows are integrated through the model's right-hand sides, not
    # the closed forms, so a 2e-6 relative error in either one fails it
    closed = getattr(pipeline, name)
    monkeypatch.setattr(pipeline, name,
                        lambda *args: closed(*args) * (1.0 + 2e-6))
    assert not pipeline._crit_riccati().passed


def test_peak_rss_matches_kernel_high_water_mark():
    status = Path("/proc/self/status")
    if not status.is_file():
        pytest.skip("needs /proc/self/status")
    peak = pipeline.peak_rss_mb()
    hwm = next(int(line.split()[1]) for line in status.read_text().splitlines()
               if line.startswith("VmHWM:"))
    assert peak > 0
    # both count KiB of one process; VmHWM is read after, so it can only grow
    assert peak <= hwm * 1024 / 1e6 + 1e-9
    assert pipeline.peak_rss_mb() >= peak


def test_report_phase_logs_peak_rss(capsys):
    pipeline._log_peak_rss("main ensemble")
    captured = capsys.readouterr()
    assert captured.out == ""
    line = captured.err.strip()
    assert line.startswith("report: main ensemble done, peak RSS ")
    assert line.endswith(" MB")
    assert float(line.split()[-2]) > 0


def test_reproducibility_phase_logs_largest_child_peak_rss(capsys):
    # the line ends with the minor page faults of the child processes
    # joined so far, which only grow
    def child_faults():
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt

    before = child_faults()
    pipeline._log_peak_rss("reproducibility",
                           children="largest child process")
    after = child_faults()
    line = capsys.readouterr().err.strip()
    assert line.startswith("report: reproducibility done, peak RSS ")
    own, child = line.split(", largest child process ")
    assert float(own.split()[-2]) > 0
    child, faults = child.split(", child processes' minor page faults ")
    assert child.endswith(" MB")
    assert float(child.split()[0]) == pytest.approx(
        pipeline.peak_rss_mb(children=True), abs=0.05)
    assert before <= int(faults) <= after
