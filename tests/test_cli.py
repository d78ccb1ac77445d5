"""Command line behavior: exit codes, output routing, reproducibility."""

import concurrent.futures
import contextlib
import functools
import io
import math
import multiprocessing
import platform
import shutil
import struct
import tempfile
from concurrent.futures import Future
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lgqsmooth import pipeline, recordio
from lgqsmooth.cli import main
from lgqsmooth.config import parse_config
from lgqsmooth.estimate import KINDS
from lgqsmooth.ingest import RawTrace
from lgqsmooth.smooth import TARGET_KINDS
from lgqsmooth.simulate import (MeasurementRecord, NumericalError,
                                synthesize_raw)

TWO_PI = 2.0 * math.pi

CONFIG = """
[params]
gamma_hz = 11.5e-3
gamma_fb_hz = 85.0
n_th = 2.45e5
coop = 3.16e4
eta = 0.38
omega_hz = 1.04e6
record_us = 250
dt_us = 1

[ensemble]
n_records = 4
base_seed = 31

[outputs]
formats = csv, bin
"""


@pytest.fixture()
def cfg_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(CONFIG)
    return path


def run_all(cfg_path, out):
    for cmd in ("simulate", "estimate", "smooth", "analyze"):
        code = main([cmd, "--config", str(cfg_path), "--out-dir", str(out)])
        assert code == 0, cmd


def main_on(jobs: int, argv) -> int:
    """``main(argv)`` with its file stage's text made on ``jobs``
    processes, a count no flag sets; the stage leaves no process behind,
    whether it succeeds or fails."""
    name = f"stage_{argv[0]}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, name,
                   functools.partial(getattr(pipeline, name), jobs=jobs))
        code = main(argv)
    assert multiprocessing.active_children() == []
    return code


def main_each(argv) -> tuple[int, str]:
    """``main(argv)`` on one worker, then on two: the exit code and stderr
    of each, which must be the same, so a failing stage must fail with
    the same error class and message whatever parses its files."""
    outcomes = []
    for jobs in (1, 2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main_on(jobs, argv)
        outcomes.append((code, err.getvalue()))
    assert outcomes[0] == outcomes[1], outcomes
    return outcomes[0]


def _no_own_columns(layout, path):
    # module level, so that a file worker can unpickle it
    return None


def test_full_run_exit_zero(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    run_all(cfg_path, out)
    assert (out / "analysis" / "stats.json").is_file()
    # data goes to files, progress to stderr
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "simulate" in captured.err


def test_two_runs_are_byte_identical(cfg_path, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    run_all(cfg_path, a)
    run_all(cfg_path, b)
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert files_a == files_b
    for rel in files_a:
        assert recordio.checksum(a / rel) == recordio.checksum(b / rel), rel


def test_out_dir_from_environment(cfg_path, tmp_path, monkeypatch):
    target = tmp_path / "from_env"
    monkeypatch.setenv("LGQSMOOTH_OUT_DIR", str(target))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert (target / "records").is_dir()


def test_out_dir_from_config_before_environment(cfg_path, tmp_path,
                                                monkeypatch):
    target = tmp_path / "from_cfg"
    cfg_path.write_text(CONFIG.replace(
        "[outputs]\n", f"[outputs]\ndirectory = {target}\n"))
    monkeypatch.setenv("LGQSMOOTH_OUT_DIR", str(tmp_path / "from_env"))
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert (target / "records").is_dir()
    assert not (tmp_path / "from_env").exists()


def test_out_dir_defaults_to_out_in_the_working_directory(cfg_path, tmp_path,
                                                          monkeypatch):
    monkeypatch.delenv("LGQSMOOTH_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["simulate", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "out" / "records").is_dir()


def test_missing_config_is_exit_one(tmp_path, capsys):
    code = main(["simulate", "--config", str(tmp_path / "none.ini")])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_invalid_config_is_exit_one(tmp_path, capsys):
    path = tmp_path / "bad.ini"
    path.write_text(CONFIG.replace("coop", "chop"))
    assert main(["simulate", "--config", str(path)]) == 1
    assert "unknown key" in capsys.readouterr().err


def test_nonfinite_config_number_is_exit_one(tmp_path, capsys):
    path = tmp_path / "nan.ini"
    path.write_text(CONFIG.replace("n_th = 2.45e5", "n_th = nan"))
    assert main(["simulate", "--config", str(path),
                 "--out-dir", str(tmp_path / "run")]) == 1
    assert "config error: params.n_th: not a finite number" \
        in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_usage_error_is_exit_one():
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--config"])
    assert exc.value.code == 1


def test_estimate_has_no_jobs_flag(cfg_path, capsys):
    # the worker count changes no byte, so no flag sets it
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--config", str(cfg_path), "--jobs", "2"])
    assert exc.value.code == 1
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["simulate", "estimate", "smooth", "analyze",
                                 "report", "inject", "demod"])
def test_subcommand_help_is_exit_zero(cmd, capsys):
    with pytest.raises(SystemExit) as exc:
        main([cmd, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: lgqsmooth {cmd} ")


def _estimate_with_nan_sample(cfg_path, tmp_path, capsys, jobs: int):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    victim = out / "records" / "record_00002.csv"
    text = victim.read_text().splitlines()
    parts = text[40].split(",")
    parts[1] = "nan"
    text[40] = ",".join(parts)
    victim.write_text("\n".join(text) + "\n")
    for stale in (out / "records").glob("record_*.bin"):
        stale.unlink()
    code = main_on(jobs, ["estimate", "--config", str(cfg_path),
                          "--out-dir", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical error" in err and "sample 39" in err
    assert "record_00002" in err
    assert not (out / "estimates" / "filtered_00000.csv").exists()


def test_nonfinite_record_is_exit_two(cfg_path, tmp_path, capsys):
    _estimate_with_nan_sample(cfg_path, tmp_path, capsys, 1)


def test_nonfinite_record_in_worker_pool_is_exit_two(cfg_path, tmp_path,
                                                     capsys):
    # 4 records on 2 workers take the process-pool path
    _estimate_with_nan_sample(cfg_path, tmp_path, capsys, 2)


def _estimate_with_short_record(cfg_path, tmp_path, capsys, jobs: int):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    victim = out / "records" / "record_00002.csv"
    text = victim.read_text().splitlines()
    victim.write_text("\n".join(text[:-10]) + "\n")
    for stale in (out / "records").glob("record_*.bin"):
        stale.unlink()
    capsys.readouterr()
    code = main_on(jobs, ["estimate", "--config", str(cfg_path),
                          "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"lgqsmooth: error: {victim}: 240 samples, the config's " \
        "records have 250" in err
    assert not (out / "estimates" / "filtered_00000.csv").exists()


def test_short_record_is_exit_one(cfg_path, tmp_path, capsys):
    _estimate_with_short_record(cfg_path, tmp_path, capsys, 1)


def test_short_record_in_worker_pool_is_exit_one(cfg_path, tmp_path,
                                                 capsys):
    _estimate_with_short_record(cfg_path, tmp_path, capsys, 2)


@pytest.mark.parametrize("jobs", [0, -5])
def test_jobs_below_one_is_exit_one(cfg_path, tmp_path, capsys, jobs):
    # the stages check the count they are given before they read anything
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    capsys.readouterr()
    with pytest.raises(ValueError, match=f"estimate: jobs must be at least "
                                         f"1, got {jobs}"):
        pipeline.stage_estimate(parse_config(cfg_path), out, jobs=jobs)
    assert main_on(jobs, ["estimate", "--config", str(cfg_path),
                          "--out-dir", str(out)]) == 1
    assert f"lgqsmooth: error: estimate: jobs must be at least 1, got " \
        f"{jobs}" in capsys.readouterr().err
    assert not (out / "estimates").exists()


def test_worker_pool_never_exceeds_the_chunks(cfg_path, tmp_path,
                                              monkeypatch):
    # 3 records on 8 workers are 3 one-record slices; the stand-in pool runs
    # each task in this process, so no worker process is started, and it
    # is shut down before the stage returns
    asked = []

    class InlinePool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def submit(self, fn, *args):
            done = Future()
            done.set_result(fn(*args))
            return done

        def shutdown(self):
            asked.append("shutdown")

    cfg_path.write_text(CONFIG.replace("n_records = 4", "n_records = 3"))
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    # the file workers import the executor only when they start a pool
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    assert main_on(8, ["estimate", "--config", str(cfg_path),
                       "--out-dir", str(out)]) == 0
    assert asked == [3, "shutdown"]
    assert sorted(p.name for p in (out / "estimates").iterdir()) == [
        f"{stem}_{i:05d}.csv" for stem in ("filtered", "retro")
        for i in range(3)]


@pytest.mark.parametrize("defect", ["first record cut by 10 rows",
                                    "record file deleted",
                                    "record_us edited after simulate"])
def test_estimate_input_error_names_path(cfg_path, tmp_path, capsys, defect):
    # the config, not another record, gives the count and the length
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    records = out / "records"
    victim = records / "record_00000.bin"
    if defect == "first record cut by 10 rows":
        victim = records / "record_00000.csv"
        victim.write_text(
            "\n".join(victim.read_text().splitlines()[:-10]) + "\n")
        for stale in records.glob("record_*.bin"):
            stale.unlink()
    elif defect == "record file deleted":
        (records / "record_00002.bin").unlink()
        victim = records
    else:
        cfg_path.write_text(CONFIG.replace("record_us = 250",
                                           "record_us = 200"))
    capsys.readouterr()
    code = main(["estimate", "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 1
    assert f"lgqsmooth: error: {victim}: " in capsys.readouterr().err
    assert not (out / "estimates").exists()


def test_simulate_refuses_earlier_run(cfg_path, tmp_path, capsys):
    # a 12-record run, then a 4-record simulate into the same directory
    out = tmp_path / "run"
    big = tmp_path / "big.ini"
    big.write_text(CONFIG.replace("n_records = 4", "n_records = 12"))
    run_all(big, out)
    kept = sorted(out.rglob("*_00011.*"))
    before = [p.read_bytes() for p in kept]
    capsys.readouterr()
    code = main(["simulate", "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 1
    stale = out / "records" / "record_00000.bin"
    assert f"lgqsmooth: error: simulate: {stale} exists" in \
        capsys.readouterr().err
    assert len(kept) == 8
    assert [p.read_bytes() for p in kept] == before


def test_malformed_trajectory_is_exit_one(cfg_path, tmp_path):
    out = tmp_path / "run"
    for cmd in ("simulate", "estimate"):
        assert main([cmd, "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
    victim = out / "estimates" / "filtered_00003.csv"
    text = victim.read_text().splitlines()
    text[2] = "0.0001,Filtered,1.5"
    victim.write_text("\n".join(text) + "\n")
    code, err = main_each(["smooth", "--config", str(cfg_path),
                           "--out-dir", str(out)])
    assert code == 1
    assert f"lgqsmooth: error: {victim}: " in err


@pytest.mark.parametrize("defect", ["filtered file cut by one row",
                                    "retro file of another kind",
                                    "record_us edited after estimate"])
def test_smooth_input_error_names_path(cfg_path, tmp_path, defect):
    out = tmp_path / "run"
    for cmd in ("simulate", "estimate"):
        assert main([cmd, "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
    if defect == "filtered file cut by one row":
        victim = out / "estimates" / "filtered_00002.csv"
        text = victim.read_text().splitlines()
        victim.write_text("\n".join(text[:-1]) + "\n")
    elif defect == "record_us edited after estimate":
        cfg_path.write_text(CONFIG.replace("record_us = 250",
                                           "record_us = 200"))
        victim = out / "estimates" / "filtered_00000.csv"
    else:
        victim = out / "estimates" / "retro_00001.csv"
        victim.write_text(victim.read_text().replace(",Retrofiltered,",
                                                     ",Filtered,"))
    code, err = main_each(["smooth", "--config", str(cfg_path),
                           "--out-dir", str(out)])
    assert code == 1
    assert f"lgqsmooth: error: {victim}: " in err
    assert not (out / "smoothed").exists()


@pytest.mark.parametrize("cmd", ["smooth", "analyze"])
def test_renamed_trajectory_file_is_exit_one(cfg_path, tmp_path, capsys,
                                             cmd):
    # the file count still matches, but index 2 is gone: pairing files by
    # sorted name would put filtered_00003 beside retro_00002
    out = tmp_path / "run"
    for stage in ("simulate", "estimate", "smooth")[:2 if cmd == "smooth"
                                                     else 3]:
        assert main([stage, "--config", str(cfg_path),
                     "--out-dir", str(out)]) == 0
    victim = out / "estimates" / "filtered_00002.csv"
    victim.rename(victim.with_name("filtered_00004.csv"))
    capsys.readouterr()
    code = main([cmd, "--config", str(cfg_path), "--out-dir", str(out)])
    assert code == 1
    assert f"lgqsmooth: error: {victim.parent}: {victim.name} is missing" \
        in capsys.readouterr().err


@pytest.mark.parametrize("cmd, rel, stray", [
    ("estimate", "records/record_00000.csv", "record_old.csv"),
    ("estimate", "records/record_00000.bin", "record_00004.bin"),
    ("inject", "records/record_00000.csv", "record_old.csv"),
    ("smooth", "estimates/filtered_00000.csv", "filtered_old.csv"),
    ("analyze", "estimates/retro_00000.csv", "retro_00004.csv"),
    ("analyze", "smoothed/TrueState/smoothed_00000.csv", "smoothed_old.csv"),
    ("analyze", "truth/truth_00000.csv", "truth_old.csv"),
])
def test_stray_file_is_exit_one(clean_run, tmp_path, capsys, cmd, rel,
                                stray):
    # a copy of a good file under a name outside the run's indices
    cfg, clean = clean_run
    out = tmp_path / "run"
    shutil.copytree(clean, out)
    source = out / rel
    shutil.copy(source, source.with_name(stray))
    capsys.readouterr()
    if cmd == "inject":
        code = main(["inject", "--records", str(out / "records"),
                     "--out-dir", str(tmp_path / "inj"),
                     "--eta-old", "0.38", "--eta-new", "0.1"])
    else:
        code = main([cmd, "--config", str(cfg), "--out-dir", str(out)])
    assert code == 1
    assert f"lgqsmooth: error: {source.parent}: {stray} is stray" \
        in capsys.readouterr().err
    assert not (tmp_path / "inj").exists()


@pytest.mark.parametrize("defect", ["smoothed file cut by one row",
                                    "first filtered file cut by one row",
                                    "truth file deleted",
                                    "smoothed directory deleted",
                                    "smoothed file of another kind",
                                    "first smoothed file of another kind",
                                    "smoothed directory of another kind",
                                    "first smoothed file's vw scaled by 1.5"])
def test_analyze_input_error_names_path(cfg_path, tmp_path, defect):
    out = tmp_path / "run"
    run_all(cfg_path, out)
    smoothed = out / "smoothed" / "TrueState"
    if defect.endswith("file cut by one row"):
        # the first file of its directory, so only the run's grid can tell
        victim = smoothed / "smoothed_00000.csv"
        if defect.startswith("first filtered"):
            victim = out / "estimates" / "filtered_00000.csv"
        text = victim.read_text().splitlines()
        victim.write_text("\n".join(text[:-1]) + "\n")
    elif defect == "first smoothed file's vw scaled by 1.5":
        # the file the others used to be compared with; the closed form
        # names it
        victim = smoothed / "smoothed_00000.csv"
        lines = victim.read_text().splitlines()
        for i in range(1, len(lines)):
            parts = lines[i].split(",")
            parts[4] = repr(1.5 * float(parts[4]))
            lines[i] = ",".join(parts)
        victim.write_text("\n".join(lines) + "\n")
    elif defect == "truth file deleted":
        (out / "truth" / "truth_00001.csv").unlink()
        victim = out / "truth"
    elif defect == "smoothed directory deleted":
        victim = out / "smoothed" / "Classical"
        shutil.rmtree(victim)
    else:
        paths = sorted(smoothed.glob("smoothed_*.csv"))
        if defect == "smoothed file of another kind":
            paths = paths[2:3]
        elif defect == "first smoothed file of another kind":
            # the file the others used to be compared with
            paths = paths[:1]
        for path in paths:
            text = path.read_text()
            path.write_text(text.replace(",SmoothedTrue,", ",SmoothedLTL,"))
        victim = paths[0] if len(paths) == 1 else smoothed
    code, err = main_each(["analyze", "--config", str(cfg_path),
                           "--out-dir", str(out)])
    assert code == 1
    assert f"lgqsmooth: error: {victim}: " in err


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    """A finished 4-record run and its config, shared and never modified."""
    base = tmp_path_factory.mktemp("clean")
    cfg = base / "run.ini"
    cfg.write_text(CONFIG)
    run_all(cfg, base / "run")
    return cfg, base / "run"


_TRAJ_FILES = tuple(
    [f"estimates/{stem}_{i:05d}.csv" for stem in ("filtered", "retro")
     for i in range(4)]
    + [f"smoothed/{t}/smoothed_{i:05d}.csv" for t in TARGET_KINDS
       for i in range(4)])


def _not_a_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


# row defects no writer makes: a comment line, an inline comment, a blank
# line, a bare "\r" or "\v" inside a row and an "_" inside a number
_ROW_DEFECTS = ["comment", "tail", "blank", "control", "underscore"]


def _row_defect(lines: list, defect: str, row: int, at: int, word: str):
    """Make ``defect`` in a table's lines, lines[0] the header, at data
    row ``row``; ``at`` picks the place within the row."""
    line = lines[row]
    if defect == "comment":
        lines.insert(row, "#" + word)
    elif defect == "tail":
        lines[row] = line + " #" + word
    elif defect == "blank":
        lines.insert(row + 1, "")  # after the last row too
    elif defect == "control":
        # never after the row's last character, where "\r" would make a
        # CRLF line end
        k = at // 2 % len(line)
        lines[row] = line[:k] + "\r\v"[at % 2] + line[k:]
    else:
        digits = [k for k in range(1, len(line))
                  if line[k - 1].isdigit() and line[k].isdigit()]
        assume(digits)
        k = digits[at % len(digits)]
        lines[row] = line[:k] + "_" + line[k:]


@settings(max_examples=80, deadline=None)
@given(rel=st.sampled_from(_TRAJ_FILES),
       defect=st.sampled_from(["truncate", "time", "kind", "vw", "text"]
                              + _ROW_DEFECTS),
       row=st.integers(1, 251),
       number=st.floats(),
       kind=st.sampled_from(KINDS + ("", "filtered")),
       column=st.sampled_from([0, 2, 3, 4, 5, 6]),
       word=st.text("abcdefinxyz.-+ ", max_size=6).filter(_not_a_number),
       at=st.integers(0, 2 ** 16))
# a comma-free comment line, which the generic reader once crashed on
@example(rel="estimates/filtered_00001.csv", defect="comment", row=3,
         number=0.0, kind="Filtered", column=0, word=" note", at=0)
@example(rel="estimates/retro_00002.csv", defect="control", row=7,
         number=0.0, kind="Filtered", column=0, word="x", at=0)
@example(rel="smoothed/Classical/smoothed_00003.csv", defect="blank",
         row=251, number=0.0, kind="Filtered", column=0, word="x", at=0)
def test_corrupt_trajectory_is_exit_one(clean_run, rel, defect, row, number,
                                        kind, column, word, at):
    # estimates/ are checked by smooth, smoothed/ by analyze; each file
    # has a header and 251 rows
    cfg, clean = clean_run
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "run"
        shutil.copytree(clean, out)
        victim = out / rel
        lines = victim.read_text().splitlines()
        if defect == "truncate":
            lines = lines[:row]  # the header and 0 to 250 rows
        elif defect in _ROW_DEFECTS:
            _row_defect(lines, defect, row, at, word)
        else:
            fields = lines[row].split(",")
            if defect == "text":
                fields[column] = word
            elif defect == "kind":
                assume(kind != fields[1])
                fields[1] = kind
            else:
                col = 0 if defect == "time" else 4
                assume(number != float(fields[col]))
                fields[col] = repr(number)
            lines[row] = ",".join(fields)
        victim.write_text("\n".join(lines) + "\n")
        stage = "smooth" if rel.startswith("estimates") else "analyze"
        code, err = main_each([stage, "--config", str(cfg),
                               "--out-dir", str(out)])
    assert code == 1, err
    assert (f"lgqsmooth: error: {victim}: " in err
            or f"lgqsmooth: error: {victim.parent}: " in err), err


@pytest.mark.parametrize("cmd, rel, column, value", [
    ("smooth", "estimates/filtered_00003.csv", 2, "nan"),
    ("smooth", "estimates/retro_00001.csv", 6, "inf"),
    ("analyze", "estimates/filtered_00003.csv", 3, "-inf"),
    ("analyze", "estimates/retro_00002.csv", 2, "nan"),
    ("analyze", "smoothed/Classical/smoothed_00000.csv", 3, "nan"),
    ("analyze", "truth/truth_00001.csv", 1, "inf")])
def test_nonfinite_trajectory_is_exit_two(clean_run, tmp_path, cmd, rel,
                                          column, value):
    # row 41 holds sample 40; there the retrofilter's effect mean is
    # defined, so every column named above must be finite
    cfg, clean = clean_run
    out = tmp_path / "run"
    shutil.copytree(clean, out)
    victim = out / rel
    lines = victim.read_text().splitlines()
    fields = lines[41].split(",")
    fields[column] = value
    lines[41] = ",".join(fields)
    victim.write_text("\n".join(lines) + "\n")
    code, err = main_each([cmd, "--config", str(cfg), "--out-dir", str(out)])
    assert code == 2
    assert err.startswith(f"lgqsmooth: numerical error: {victim}: "
                          "non-finite "), err
    assert err.endswith(" at sample 40\n"), err
    # the stage wrote nothing: every smoothed and analysis file but the
    # victim is still the clean run's
    for sub in ("smoothed", "analysis"):
        for path in sorted((clean / sub).rglob("*.*")):
            copy = out / path.relative_to(clean)
            assert copy == victim or copy.read_bytes() == path.read_bytes()


_BIN_HEADER = 36  # magic, then dt, n, eta and seed


@settings(max_examples=80, deadline=None)
@given(rel=st.sampled_from(
           [f"records/record_{i:05d}.bin" for i in range(4)]
           + [f"truth/truth_{i:05d}.csv" for i in range(4)]),
       defect=st.sampled_from(["header", "body", "dt", "text"]
                              + _ROW_DEFECTS),
       cut=st.integers(0, 2 ** 16),
       row=st.integers(1, 251),
       number=st.floats(),
       word=st.text("abcdefinxyz.-+ ", max_size=6).filter(_not_a_number))
@example(rel="records/record_00001.bin", defect="body", cut=13, row=1,
         number=0.0, word="x")
@example(rel="records/record_00001.bin", defect="dt", cut=0, row=1,
         number=2e-6, word="x")
@example(rel="truth/truth_00002.csv", defect="comment", cut=0, row=5,
         number=0.0, word=" note")
@example(rel="truth/truth_00000.csv", defect="tail", cut=0, row=251,
         number=0.0, word=" x")
@example(rel="truth/truth_00001.csv", defect="control", cut=1, row=9,
         number=0.0, word="x")
@example(rel="truth/truth_00003.csv", defect="underscore", cut=2, row=40,
         number=0.0, word="x")
def test_corrupt_record_or_truth_is_exit_one(clean_run, rel, defect, cut, row,
                                             number, word):
    # records/ are read by estimate (the .bin files, as both formats
    # exist), truth/ by analyze; a truth file has a header and 251 rows
    cfg, clean = clean_run
    with tempfile.TemporaryDirectory() as td:
        out = Path(td) / "run"
        shutil.copytree(clean, out)
        victim = out / rel
        if victim.suffix == ".bin":
            data = bytearray(victim.read_bytes())
            # cut at any byte, mid-sample too
            if defect == "header":
                data = data[:cut % _BIN_HEADER]
            elif defect == "body":
                data = data[:_BIN_HEADER + cut % (len(data) - _BIN_HEADER)]
            elif defect == "dt":
                # a dt within the 1e-9 relative tolerance is no defect
                assume(not abs(number - 1e-6) <= 1e-15)
                data[4:12] = struct.pack("<d", number)
            else:
                assume(False)  # every binary field is a number
            victim.write_bytes(bytes(data))
        else:
            lines = victim.read_text().splitlines()
            if defect in _ROW_DEFECTS:
                _row_defect(lines, defect, row, cut, word)
            elif defect == "header":
                lines[0] = lines[0][:cut % len(lines[0])]
            elif defect == "body":
                lines = lines[:row]  # the header and 0 to 250 rows
            else:
                fields = lines[row].split(",")
                if defect == "dt":
                    assume(number != float(fields[0]))
                    fields[0] = repr(number)
                else:
                    fields[cut % 3] = word
                lines[row] = ",".join(fields)
            victim.write_text("\n".join(lines) + "\n")
        stage = "estimate" if rel.startswith("records") else "analyze"
        code, err = main_each([stage, "--config", str(cfg),
                               "--out-dir", str(out)])
    assert code == 1, err
    assert f"lgqsmooth: error: {victim}: " in err, err


def _set_field(row: int, column: int, value: str):
    """An edit of one field of a table's text; row 0 is the header."""
    def edit(text: str) -> str:
        lines = text.split("\n")
        fields = lines[row].split(",")
        fields[column] = value
        lines[row] = ",".join(fields)
        return "\n".join(lines)
    return edit


def _ulp_up(row: int, column: int):
    def edit(text: str) -> str:
        value = float(text.split("\n")[row].split(",")[column])
        return _set_field(row, column,
                          repr(float(np.nextafter(value, math.inf))))(text)
    return edit


def _wrap_row(row: int):
    """Row ``row`` takes the next row's first field: 8 fields, then 6."""
    def edit(text: str) -> str:
        lines = text.split("\n")
        first, rest = lines[row + 1].split(",", 1)
        lines[row] += "," + first
        lines[row + 1] = rest
        return "\n".join(lines)
    return edit


# file -> an edit that makes it a file its writer never makes
_UNWRITTEN = {
    "truth/truth_00001.csv": _set_field(2, 0, "1e-06"),
    "estimates/filtered_00001.csv":
        lambda text: text.replace(",Filtered,", ",SmoothedTrue,"),
    "smoothed/TrueState/smoothed_00002.csv": _ulp_up(10, 4),
    "estimates/filtered_00003.csv": _set_field(3, 5, "0"),
    "estimates/retro_00001.csv": _wrap_row(20),
    "smoothed/Classical/smoothed_00000.csv": _set_field(7, 2, "1.5\n"),
    "estimates/retro_00002.csv": _set_field(7, 6, "1_5"),
    "estimates/retro_00003.csv": lambda text: text.replace("\n", "\r\n"),
    "truth/truth_00002.csv": lambda text: text[:-1],
}


@pytest.mark.parametrize("rel", sorted(_UNWRITTEN))
def test_unwritten_table_reads_as_the_generic_reader_reads_it(
        clean_run, tmp_path, monkeypatch, rel):
    # another spelling of a shared field, another kind, vw one ulp off, a
    # number in a nan info column, a row boundary moved by one field, a
    # line end or an underscore inside a number, CRLF line ends and no
    # final line end: each stage gives the exit code, the error and the
    # outputs of the generic readers alone
    cfg, clean = clean_run
    outcomes = []
    for fast, jobs in ((True, 1), (True, 2), (False, 1), (False, 2)):
        if not fast:
            monkeypatch.setattr(recordio, "read_own_columns",
                                _no_own_columns)
        out = tmp_path / f"run-{fast}-{jobs}"
        shutil.copytree(clean, out)
        shutil.rmtree(out / "analysis")
        victim = out / rel
        victim.write_bytes(
            _UNWRITTEN[rel](victim.read_text()).encode())
        for stage in ("smooth", "analyze") if rel.startswith("estimates") \
                else ("analyze",):
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = main_on(jobs, [stage, "--config", str(cfg),
                                      "--out-dir", str(out)])
            outcomes.append((stage, code, err.getvalue().replace(
                str(out), "RUN")))
        outcomes.append({str(p.relative_to(out)): p.read_bytes()
                         for p in sorted(out.rglob("*")) if p.is_file()})
    quarter = len(outcomes) // 4
    for k in range(1, 4):
        assert outcomes[k * quarter:(k + 1) * quarter] == outcomes[:quarter]


def test_csv_only_estimates_equal_csv_and_bin_estimates(clean_run, tmp_path):
    # estimate reads the .bin records of a csv+bin run and the .csv
    # records of a csv-only run: the same bytes out
    cfg, clean = clean_run
    out = tmp_path / "csv"
    shutil.copytree(clean / "records", out / "records",
                    ignore=shutil.ignore_patterns("*.bin"))
    assert not list((out / "records").glob("*.bin"))
    assert main(["estimate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    names = sorted(p.name for p in (clean / "estimates").iterdir())
    assert names == sorted(p.name for p in (out / "estimates").iterdir())
    for name in names:
        assert (out / "estimates" / name).read_bytes() \
            == (clean / "estimates" / name).read_bytes(), name


def test_record_dt_mismatch_is_exit_one(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    other = tmp_path / "dt2.ini"
    other.write_text(CONFIG.replace("dt_us = 1", "dt_us = 2"))
    capsys.readouterr()
    code = main(["estimate", "--config", str(other), "--out-dir", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert f"lgqsmooth: error: {out / 'records' / 'record_00000.bin'}: " \
        "record dt 1e-06 does not match" in err
    assert not (out / "estimates").exists()


@pytest.mark.parametrize("passed, code, line, total", [
    ((True, True, True), 0, "criterion  2 PASS  check 2: detail",
     "3/3 criteria passed"),
    ((True, False, True), 3, "criterion  2 FAIL  check 2: detail",
     "2/3 criteria passed"),
])
def test_report_exit_code(cfg_path, tmp_path, capsys, monkeypatch, passed,
                          code, line, total):
    results = [pipeline.CriterionResult(i + 1, f"check {i + 1}", ok, "detail")
               for i, ok in enumerate(passed)]
    monkeypatch.setattr(pipeline, "acceptance_report", lambda cfg: results)
    assert main(["report", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "rep")]) == code
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 4 and out[1] == line and out[-1] == total


def test_inject_subcommand(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    code = main(["inject", "--records", str(out / "records"),
                 "--out-dir", str(tmp_path / "inj"),
                 "--eta-old", "0.38", "--eta-new", "0.1", "--seed", "9"])
    assert code == 0
    assert len(list((tmp_path / "inj").glob("record_*.csv"))) == 4
    # efficiency mismatch against record metadata is an input error
    code = main(["inject", "--records", str(out / "records"),
                 "--out-dir", str(tmp_path / "inj2"),
                 "--eta-old", "0.5", "--eta-new", "0.1"])
    assert code == 1
    assert f"lgqsmooth: error: {out / 'records' / 'record_00000.bin'}: " \
        "eta_old 0.5 does not match" in capsys.readouterr().err
    assert not (tmp_path / "inj2").exists()
    # so is an output format outside csv/bin, as in the config
    code = main(["inject", "--records", str(out / "records"),
                 "--out-dir", str(tmp_path / "inj3"),
                 "--eta-old", "0.38", "--eta-new", "0.1",
                 "--formats", "csv,parquet"])
    assert code == 1
    assert "formats must list csv and/or bin, got 'csv,parquet'" \
        in capsys.readouterr().err
    assert not (tmp_path / "inj3").exists()


@pytest.mark.parametrize("ext", ["csv", "bin"])
def test_inject_nonfinite_record_is_exit_two(cfg_path, tmp_path, capsys, ext):
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    victim = out / "records" / f"record_00001.{ext}"
    if ext == "csv":
        # the .bin files are read where they exist
        for stale in (out / "records").glob("record_*.bin"):
            stale.unlink()
        lines = victim.read_text().splitlines()
        lines[1 + 17] = lines[1 + 17].rsplit(",", 1)[0] + ",nan"
        victim.write_text("\n".join(lines) + "\n")
    else:
        blob = bytearray(victim.read_bytes())
        blob[36 + 8 * (2 * 17 + 1):36 + 8 * (2 * 17 + 2)] = \
            struct.pack("<d", math.nan)
        victim.write_bytes(bytes(blob))
    capsys.readouterr()
    code = main(["inject", "--records", str(out / "records"),
                 "--out-dir", str(tmp_path / "inj"),
                 "--eta-old", "0.38", "--eta-new", "0.1", "--seed", "9"])
    assert code == 2
    assert f"lgqsmooth: numerical error: {victim}: non-finite record value " \
        "at sample 17" in capsys.readouterr().err
    assert not (tmp_path / "inj").exists()


def test_inject_refuses_a_gap_in_the_records(cfg_path, tmp_path, capsys):
    # the .csv of the deleted .bin stays; neither format may be read
    # around the gap
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg_path),
                 "--out-dir", str(out)]) == 0
    (out / "records" / "record_00001.bin").unlink()
    capsys.readouterr()
    code = main(["inject", "--records", str(out / "records"),
                 "--out-dir", str(tmp_path / "inj"), "--formats", "bin",
                 "--eta-old", "0.38", "--eta-new", "0.1", "--seed", "9"])
    assert code == 1
    assert f"lgqsmooth: error: {out / 'records'}: record_00001.bin is " \
        "missing" in capsys.readouterr().err
    assert not (tmp_path / "inj").exists()


def test_demod_too_short_trace_is_exit_one(tmp_path, capsys):
    # 20000 samples at 5 MHz are 4000 us, all of the default discard; one
    # 750 us record after it needs output sample 4749, trace sample 23745
    rng = np.random.default_rng(8)
    trace = tmp_path / "trace.bin"
    recordio.write_raw_bin(RawTrace(fs=5e6, samples=rng.normal(size=20000)),
                           trace)
    code = main(["demod", "--trace", str(trace),
                 "--out-dir", str(tmp_path / "records"),
                 "--omega-hz", "1.04e6"])
    assert code == 1
    assert f"lgqsmooth: error: {trace}: 20000 samples, one record after " \
        "the discard needs 23746" in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


@pytest.mark.parametrize("ext", ["csv", "bin"])
def test_nonfinite_trace_is_exit_two(tmp_path, capsys, ext):
    rng = np.random.default_rng(8)
    trace = tmp_path / f"trace.{ext}"
    write = recordio.write_raw_csv if ext == "csv" else recordio.write_raw_bin
    write(RawTrace(fs=5e6, samples=rng.normal(size=30000)), trace)
    if ext == "csv":
        lines = trace.read_text().splitlines()
        lines[1 + 7] = lines[1 + 7].split(",")[0] + ",nan"
        trace.write_text("\n".join(lines) + "\n")
    else:
        blob = bytearray(trace.read_bytes())
        blob[16 + 8 * 7:16 + 8 * 8] = struct.pack("<d", math.nan)
        trace.write_bytes(bytes(blob))
    code = main(["demod", "--trace", str(trace),
                 "--out-dir", str(tmp_path / "records"),
                 "--omega-hz", "1.04e6"])
    assert code == 2
    assert f"lgqsmooth: numerical error: {trace}: ingest: non-finite raw " \
        "sample at index 7" in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


@pytest.mark.parametrize("flags", [["--omega-hz", "nan"],
                                   ["--omega-hz", "1.04e6", "--bw-hz", "nan"]],
                         ids=["--omega-hz", "--bw-hz"])
def test_nonfinite_demod_flag_is_exit_one(tmp_path, capsys, flags):
    # rejected while the arguments are parsed, before the trace is read
    with pytest.raises(SystemExit) as exc:
        main(["demod", "--trace", str(tmp_path / "trace.bin"),
              "--out-dir", str(tmp_path / "records"), *flags])
    assert exc.value.code == 1
    assert f"argument {flags[-2]}: not a finite number: 'nan'" \
        in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


def test_non_number_demod_flag_is_exit_one(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["demod", "--trace", str(tmp_path / "trace.bin"),
              "--out-dir", str(tmp_path / "records"), "--omega-hz", "1.04e6",
              "--bw-hz", "abc"])
    assert exc.value.code == 1
    assert "argument --bw-hz: not a number: 'abc'" in capsys.readouterr().err
    assert not (tmp_path / "records").exists()


BAD_FLAGS = {
    # flag: (value, what the value is not)
    "--order": ("0", "an integer from 2 to 8"),
    "--omega-hz": ("-1", "a positive number"),
    "--bw-hz": ("0", "a positive number"),
    "--dt-us": ("-1", "a positive number"),
    "--record-us": ("-5", "a positive number"),
    "--discard-us": ("-0.5", "a nonnegative number"),
}


@pytest.mark.parametrize("flag", sorted(BAD_FLAGS))
def test_out_of_range_flag_is_exit_one(tmp_path, capsys, flag):
    # rejected while the arguments are parsed, naming the flag and the
    # value as typed, before any input is read or output written
    value, what = BAD_FLAGS[flag]
    with pytest.raises(SystemExit) as exc:
        main(["demod", "--trace", str(tmp_path / "trace.bin"),
              "--omega-hz", "1.04e6", "--out-dir", str(tmp_path / "out"),
              flag, value])
    assert exc.value.code == 1
    assert f"argument {flag}: not {what}: {value!r}" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_bad_inject_seed_is_exit_one(tmp_path, capsys, seed):
    # a seed is a nonnegative integer, as ensemble.base_seed in a config;
    # rejected while the arguments are parsed, before a record is read
    with pytest.raises(SystemExit) as exc:
        main(["inject", "--records", str(tmp_path / "records"),
              "--out-dir", str(tmp_path / "inj"), "--eta-old", "0.38",
              "--eta-new", "0.1", "--seed", seed])
    assert exc.value.code == 1
    kind = "a nonnegative integer" if seed == "-1" else "an integer"
    assert f"argument --seed: not {kind}: {seed!r}" \
        in capsys.readouterr().err
    assert not (tmp_path / "inj").exists()


def test_demod_grid_defaults_are_the_params_defaults():
    from lgqsmooth.cli import build_parser
    from lgqsmooth.model import PhysicalParams

    args = build_parser().parse_args(["demod", "--trace", "t.bin",
                                      "--out-dir", "o", "--omega-hz", "1e6"])
    assert args.dt_us * 1e-6 == PhysicalParams.dt
    assert args.record_us * 1e-6 == PhysicalParams.record_duration


def test_demod_subcommand(tmp_path):
    fs = 1.0e6
    dt = 1e-6
    t = np.arange(1500) * dt
    rec = MeasurementRecord(dt, np.column_stack(
        [100.0 * np.cos(TWO_PI * 500.0 * t), np.zeros_like(t)]))
    raw = synthesize_raw(rec, TWO_PI * 2.0e5, fs, seed=21)
    trace = tmp_path / "trace.bin"
    recordio.write_raw_bin(raw, trace)
    code = main(["demod", "--trace", str(trace),
                 "--out-dir", str(tmp_path / "records"),
                 "--omega-hz", "2e5", "--bw-hz", "30e3",
                 "--record-us", "250", "--discard-us", "750"])
    assert code == 0
    assert len(list((tmp_path / "records").glob("record_*.csv"))) == 3


def _child_env() -> dict:
    """Environment in which a child interpreter imports this lgqsmooth."""
    import os
    from pathlib import Path

    import lgqsmooth

    path = [str(Path(lgqsmooth.__file__).parents[1])]
    if os.environ.get("PYTHONPATH"):
        path.append(os.environ["PYTHONPATH"])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_console_entry_point():
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-m", "lgqsmooth.cli",
                           "--version"], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 0
    assert "lgqsmooth" in proc.stdout


def test_cli_import_leaves_scipy_signal_unloaded():
    import json
    import subprocess
    import sys

    script = """
import json, math, sys
import lgqsmooth.cli
loaded = [m for m in ("scipy.signal",) if m in sys.modules]
import numpy as np
from lgqsmooth.ingest import demodulate
from lgqsmooth.simulate import MeasurementRecord, synthesize_raw
t = np.arange(1500) * 1e-6
rec = MeasurementRecord(1e-6, np.column_stack(
    [100.0 * np.cos(2 * math.pi * 500.0 * t), np.zeros_like(t)]))
raw = synthesize_raw(rec, 2 * math.pi * 2.0e5, 1.0e6, seed=21)
out = demodulate(raw, 2 * math.pi * 2.0e5, bw_3db=30e3)
after_demod = [m for m in ("scipy.signal",) if m in sys.modules]
from lgqsmooth.pipeline import _crit_demod
crit = _crit_demod(2 * math.pi * 1.04e6)
print(json.dumps({"loaded": loaded, "n": out.n,
                  "finite": bool(np.isfinite(out.currents).all()),
                  "after_demod": after_demod, "crit_passed": crit.passed,
                  "after_crit": [m for m in ("scipy.signal",)
                                 if m in sys.modules]}))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc == {"loaded": [], "n": 1500, "finite": True,
                   "after_demod": [], "crit_passed": True, "after_crit": []}


def test_cli_import_leaves_process_pools_unloaded():
    # the file stages and the report import the modules that start and
    # talk to other processes only when they start a pool
    import subprocess
    import sys

    script = """
import sys
import lgqsmooth.cli
print(",".join(m for m in ("multiprocessing", "concurrent.futures")
               if m in sys.modules))
"""
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "\n"


# a live set larger than a block's 21-23 MB of short-lived heap: three
# (256, 1001, 2) float stacks, as the filter, retrofilter and smoothed
# means, and three 8.4 MB complex arrays, about 37 MB in all.  Each round
# fills it, so every page is touched, and frees it
_HEAP_ROUNDS_SCRIPT = """
import json, resource
import numpy as np
from lgqsmooth import pipeline

pipeline._keep_heap()
pages, faults = 0, []
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    live = [np.ones((256, 1001, 2)) for _ in range(3)]
    live += [np.ones((256, 1025, 2), complex) for _ in range(3)]
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    pages = sum(a.nbytes for a in live) // resource.getpagesize()
    del live
print(json.dumps({"pages": pages, "faults": faults}))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the ensemble workers' heap setting is glibc's")
def test_ensemble_worker_refills_a_freed_block_without_faults():
    # after the ensemble workers' initializer, a block's freed arrays stay
    # in the heap, so the next block faults almost none of its pages in
    # (without it glibc unmaps them, and each round faults about half).
    # A fresh interpreter leaves pytest's own heap out of the count
    import json
    import subprocess
    import sys

    proc = subprocess.run([sys.executable, "-c", _HEAP_ROUNDS_SCRIPT],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["pages"] > 9000
    assert doc["faults"][0] > 0
    for faults in doc["faults"][1:]:
        assert faults < 0.05 * doc["pages"], doc


def test_keep_heap_returns_where_the_c_library_has_no_mallopt(monkeypatch):
    # a pool whose initializer raises is broken, so a C library without
    # mallopt leaves the worker's allocator as it is
    import ctypes
    from types import SimpleNamespace

    monkeypatch.setattr(ctypes, "CDLL", lambda name: SimpleNamespace())
    assert pipeline._keep_heap() is None


def test_report_runs_without_scipy(tmp_path):
    import json
    import subprocess
    import sys

    # numpy is the only runtime dependency: with every scipy import made
    # to fail, in the report's process and in the workers it forks, the
    # report still computes all 11 criteria
    script = f"""
import json, sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{{name}} is not installed here")
        return None

sys.meta_path.insert(0, NoScipy())
from lgqsmooth import pipeline
from lgqsmooth.config import parse_config_text
cfg = parse_config_text({CONFIG!r})
results = pipeline.acceptance_report(cfg)
print(json.dumps({{
    "loaded": [m for m in sys.modules if m.split(".")[0] == "scipy"],
    "indices": [r.index for r in results]}}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True,
                          env={**_child_env(), "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc == {"loaded": [], "indices": list(range(1, 12))}


@pytest.mark.skipif(multiprocessing.get_all_start_methods()[0] != "fork",
                    reason="the report's pools fork only under the fork "
                           "start method")
def test_report_forks_with_no_second_python_thread(tmp_path):
    import subprocess
    import sys

    # a hook in the report's process, inherited by the workers it forks,
    # logs the live Python threads at each fork: the two ensemble workers
    # and, inside one of them, the two file workers of each of criterion
    # 11's four two-worker stages, each pool shut down before the next
    log = tmp_path / "forks.txt"
    script = f"""
import os, threading

def before():
    with open({str(log)!r}, "a") as f:
        f.write(f"{{threading.active_count()}}\\n")

os.register_at_fork(before=before)
from lgqsmooth import pipeline
from lgqsmooth.config import parse_config_text
pipeline.acceptance_report(parse_config_text({CONFIG!r}))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True,
                          env={**_child_env(), "TMPDIR": str(tmp_path)})
    assert proc.returncode == 0, proc.stderr
    assert log.read_text().split() == ["1"] * 10


def test_report_stderr_holds_only_the_reports_lines(cfg_path, tmp_path):
    import subprocess
    import sys

    # criterion 11 runs its eight file stages inside an ensemble worker;
    # their own lines name temporary directories and would interleave with
    # the report's, so none of them reaches the report's stderr.  Four
    # records fail some criteria, so the report exits 3 or 0
    proc = subprocess.run([sys.executable, "-m", "lgqsmooth.cli", "report",
                           "--config", str(cfg_path)],
                          capture_output=True, text=True,
                          env={**_child_env(), "TMPDIR": str(tmp_path)})
    assert proc.returncode in (0, 3), proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("report: ") for line in lines), \
        lines


def test_bad_carrier_is_exit_one_before_the_ensembles(cfg_path, tmp_path,
                                                      capsys):
    # a 2 MHz carrier cannot be sampled at criterion 10's 5 MHz, so
    # criterion 10 raises before the pool starts, and the report fails as
    # an input error without running either ensemble
    cfg_path.write_text(CONFIG.replace("omega_hz = 1.04e6", "omega_hz = 2e6"))
    code = main(["report", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "rep")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lgqsmooth: error: fs must exceed four times the carrier " \
        "frequency" in captured.err
    assert "running the reduced-efficiency injection study" \
        not in captured.err


def _failing_block(*args):
    # module level, so the report's pool can pickle it by name
    raise NumericalError("block failed")


def test_failing_pooled_block_is_exit_two(cfg_path, tmp_path, capsys,
                                          monkeypatch):
    # a main-ensemble block that raises in a pool worker fails the report
    # as a numerical error, prints no table, and leaves no child process:
    # the pool is joined
    monkeypatch.setattr(pipeline, "_main_block", _failing_block)
    code = main(["report", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "rep")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "lgqsmooth: numerical error: block failed" in captured.err
    assert multiprocessing.active_children() == []


_SLOW_PICKLE_SCRIPT = """
import pickle, sys, time
from lgqsmooth import cli, pipeline

class SlowToPickle:
    # fails to pickle only after a while, as a large argument with an
    # unpicklable part would, so the report meets the error while later
    # blocks are still being sent to its workers
    def __call__(self, *args):
        raise AssertionError("never sent")

    def __reduce__(self):
        time.sleep(0.2)
        raise pickle.PicklingError("the study block cannot be pickled")

pipeline._study_block = SlowToPickle()
sys.exit(cli.main(["report", "--config", sys.argv[1]]))
"""


def test_unpicklable_block_fails_the_report_and_joins_the_pool(tmp_path):
    import os
    import signal
    import subprocess
    import sys

    # 1000 records are four study blocks, so blocks are in flight when the
    # first one's error reaches the report: its pool finishes them and
    # joins its workers, where a shutdown that cancels them waits forever
    # on CPython 3.11.  The child and its workers share a process group.
    cfg = tmp_path / "run.ini"
    cfg.write_text(CONFIG.replace("n_records = 4", "n_records = 1000"))
    proc = subprocess.Popen(
        [sys.executable, "-c", _SLOW_PICKLE_SCRIPT, str(cfg)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env={**_child_env(), "TMPDIR": str(tmp_path)},
        start_new_session=True)
    try:
        out, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):
            os.killpg(proc.pid, 0)  # no process is left in the group
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    assert proc.returncode == 1
    assert out == ""
    assert "PicklingError: the study block cannot be pickled" in err


def test_report_checks_default_injection_efficiency_first(cfg_path, tmp_path,
                                                          capsys):
    # without [noise_injection] the study runs at eta_new = 0.10, which a
    # 0.05 detector cannot reach; the report says so before it starts
    # the cross-checks or the study
    cfg_path.write_text(CONFIG.replace("eta = 0.38", "eta = 0.05"))
    code = main(["report", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "rep")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "noise_injection.eta_new = 0.1 (its default) must be in " \
        "(0, params.eta = 0.05]" in captured.err
    assert "cross-checking" not in captured.err
    assert "running the reduced-efficiency injection study" \
        not in captured.err


def test_report_refuses_one_record(cfg_path, tmp_path, capsys):
    # one record has no ensemble spread, so the report refuses it up front
    cfg_path.write_text(CONFIG.replace("n_records = 4", "n_records = 1"))
    code = main(["report", "--config", str(cfg_path),
                 "--out-dir", str(tmp_path / "rep")])
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "report: ensemble.n_records = 1" in captured.err
    assert "cross-checking" not in captured.err
