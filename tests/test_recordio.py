"""File format round trips."""

import json
import re
import struct

import numpy as np
import pytest

from lgqsmooth import recordio
from lgqsmooth.estimate import Trajectory, run_filter, run_retrofilter
from lgqsmooth.ingest import RawTrace
from lgqsmooth.metrics import EnsembleStats, VacfResult, consistency_check, vacf
from lgqsmooth.simulate import MeasurementRecord, simulate_truth_ensemble


@pytest.fixture()
def rec(rng):
    n = 64
    i1 = rng.normal(size=n) * 1e3
    i2 = rng.normal(size=n) * 1e3
    return MeasurementRecord(1e-6, np.column_stack([i1, i2]),
                             eta_effective=0.38, seed=1234)


@pytest.fixture()
def rng():
    return np.random.default_rng(7)


def test_record_csv_round_trip(rec, tmp_path):
    path = tmp_path / "rec.csv"
    recordio.write_record_csv(rec, path)
    back = recordio.read_record_csv(path)
    assert back.dt == rec.dt
    np.testing.assert_array_equal(back.currents, rec.currents)
    # text format stores only the samples
    assert back.eta_effective is None and back.seed is None


def test_record_csv_currents_own_their_bytes(rec, tmp_path):
    # the currents are a contiguous (n, 2) array, not a view that keeps
    # the parsed (n, 3) table with its time column alive
    path = tmp_path / "rec.csv"
    recordio.write_record_csv(rec, path)
    cur = recordio.read_record_csv(path).currents
    assert cur.flags.c_contiguous
    held = cur if cur.base is None else cur.base
    assert held.nbytes == cur.nbytes == rec.n * 2 * 8


def test_record_bin_round_trip(rec, tmp_path):
    path = tmp_path / "rec.bin"
    recordio.write_record_bin(rec, path)
    back = recordio.read_record_bin(path)
    assert back.dt == rec.dt
    assert back.eta_effective == rec.eta_effective
    assert back.seed == rec.seed
    np.testing.assert_array_equal(back.currents, rec.currents)


def test_record_bin_bytes_are_pinned(tmp_path):
    # magic, the <dQdq header, then the samples interleaved I1, I2
    rec = MeasurementRecord(0.5, [[1.0, -2.0], [0.25, 3.0], [-0.5, 1.5]],
                            eta_effective=0.75, seed=7)
    path = tmp_path / "rec.bin"
    recordio.write_record_bin(rec, path)
    expected = bytes.fromhex(
        "4c475131"                              # b"LGQ1"
        "000000000000e03f" "0300000000000000"   # dt = 0.5, n = 3
        "000000000000e83f" "0700000000000000"   # eta = 0.75, seed = 7
        "000000000000f03f" "00000000000000c0"   # I1, I2 = 1, -2
        "000000000000d03f" "0000000000000840"   # 0.25, 3
        "000000000000e0bf" "000000000000f83f")  # -0.5, 1.5
    assert path.read_bytes() == expected
    back = recordio.read_record_bin(path)
    assert back.currents.tolist() == [[1.0, -2.0], [0.25, 3.0], [-0.5, 1.5]]


def test_record_bin_keeps_missing_metadata(rec, tmp_path):
    bare = MeasurementRecord(rec.dt, rec.currents)
    path = tmp_path / "bare.bin"
    recordio.write_record_bin(bare, path)
    back = recordio.read_record_bin(path)
    assert back.eta_effective is None and back.seed is None


def test_record_bin_rejects_corruption(rec, tmp_path):
    path = tmp_path / "rec.bin"
    recordio.write_record_bin(rec, path)
    blob = path.read_bytes()

    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(ValueError, match="not a record file"):
        recordio.read_record_bin(bad)
    bad.write_bytes(blob[:20])
    with pytest.raises(ValueError, match="truncated header"):
        recordio.read_record_bin(bad)
    bad.write_bytes(blob[:-8])
    with pytest.raises(ValueError, match="truncated body"):
        recordio.read_record_bin(bad)
    bad.write_bytes(blob + bytes(24))
    msg = (f"^{re.escape(str(bad))}: body of 1048 bytes, but the header's "
           "n = 64 requires 1024$")
    with pytest.raises(ValueError, match=msg):
        recordio.read_record_bin(bad)
    # the dt field follows the 4-byte magic
    for dt in (0.0, float("nan")):
        bad.write_bytes(blob[:4] + struct.pack("<d", dt) + blob[12:])
        msg = f"^{re.escape(str(bad))}: dt must be finite"
        with pytest.raises(ValueError, match=msg):
            recordio.read_record_bin(bad)


def test_record_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,i1,i2\n0,1,2\n1e-6,1,2\n2.5e-6,1,2\n")
    with pytest.raises(ValueError, match="not uniform"):
        recordio.read_record_csv(path)
    path.write_text("t_s,i1,i2\n0,1,2\n")
    with pytest.raises(ValueError, match="rows"):
        recordio.read_record_csv(path)


def test_writes_are_byte_stable(rec, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    recordio.write_record_csv(rec, a)
    recordio.write_record_csv(rec, b)
    assert recordio.checksum(a) == recordio.checksum(b)
    c, d = tmp_path / "a.bin", tmp_path / "b.bin"
    recordio.write_record_bin(rec, c)
    recordio.write_record_bin(rec, d)
    assert c.read_bytes() == d.read_bytes()
    assert recordio.checksum(a) != recordio.checksum(c)


@pytest.fixture(scope="module")
def small_run(ref_ep):
    import dataclasses

    ep = dataclasses.replace(ref_ep, record_duration=150e-6)
    ens = simulate_truth_ensemble(ep, ep.record_duration, 3, 555)
    recs = [ens.record(i) for i in range(3)]
    filt = [run_filter(r, ep) for r in recs]
    retro = [run_retrofilter(r, ep) for r in recs]
    return ep, filt, retro


def test_trajectory_round_trip(small_run, tmp_path):
    ep, filt, retro = small_run
    for traj in (filt[0], retro[0]):
        path = tmp_path / f"{traj.kind}.csv"
        recordio.write_trajectory_csv(traj, path)
        back = recordio.read_trajectory_csv(path)
        assert back.kind == traj.kind
        np.testing.assert_array_equal(back.times, traj.times)
        np.testing.assert_array_equal(back.vw, traj.vw)
        # retro means are nan where the effect carries no information
        np.testing.assert_array_equal(back.mean, traj.mean)
        if traj.info is None:
            assert back.info is None
        else:
            np.testing.assert_array_equal(back.info, traj.info)


def test_trajectory_read_rejects_bad_kind(small_run, tmp_path):
    ep, filt, _ = small_run
    path = tmp_path / "t.csv"
    recordio.write_trajectory_csv(filt[0], path)
    text = path.read_text()
    path.write_text(text.replace("Filtered", "Blurred"))
    with pytest.raises(ValueError, match="unknown trajectory kind"):
        recordio.read_trajectory_csv(path)
    mixed = text.splitlines()
    mixed[2] = mixed[2].replace("Filtered", "SmoothedTrue")
    path.write_text("\n".join(mixed) + "\n")
    with pytest.raises(ValueError, match="one trajectory kind"):
        recordio.read_trajectory_csv(path)
    path.write_text("wrong,header\n")
    with pytest.raises(ValueError, match="header"):
        recordio.read_trajectory_csv(path)


def test_means_round_trip(tmp_path, rng):
    times = np.arange(5) * 1e-6
    means = rng.normal(size=(5, 2))
    path = tmp_path / "m.csv"
    recordio.write_means_csv(times, means, path)
    t, m = recordio.read_means_csv(path)
    np.testing.assert_array_equal(t, times)
    np.testing.assert_array_equal(m, means)


def test_raw_round_trips(tmp_path, rng):
    raw = RawTrace(5e6, rng.normal(size=100))
    pc, pb = tmp_path / "r.csv", tmp_path / "r.bin"
    recordio.write_raw_csv(raw, pc)
    recordio.write_raw_bin(raw, pb)
    back_c = recordio.read_raw_csv(pc)
    back_b = recordio.read_raw_bin(pb)
    for back in (back_c, back_b):
        np.testing.assert_array_equal(back.samples, raw.samples)
    assert back_b.fs == raw.fs
    assert back_c.fs == pytest.approx(raw.fs, rel=1e-12)
    blob = pb.read_bytes()
    pb.write_bytes(blob[:40])
    with pytest.raises(ValueError, match="truncated body"):
        recordio.read_raw_bin(pb)
    pb.write_bytes(blob + bytes(8))
    msg = (f"^{re.escape(str(pb))}: body of 808 bytes, but the header's "
           "n = 100 requires 800$")
    with pytest.raises(ValueError, match=msg):
        recordio.read_raw_bin(pb)
    # the fs field opens the header
    for fs in (0.0, float("nan")):
        pb.write_bytes(struct.pack("<d", fs) + blob[8:])
        msg = f"^{re.escape(str(pb))}: fs must be finite"
        with pytest.raises(ValueError, match=msg):
            recordio.read_raw_bin(pb)


def test_analysis_tables(small_run, tmp_path):
    ep, filt, retro = small_run
    stacks = {group[0].kind: (np.stack([tr.mean for tr in group]),
                              group[0].vw) for group in (filt, retro)}
    times = filt[0].times
    stats = consistency_check(stacks, times, ep)
    recordio.write_consistency_csv(stats, tmp_path / "c.csv")
    lines = (tmp_path / "c.csv").read_text().splitlines()
    assert lines[0] == "t_s,kind,var_ens,theory,sev,outside"
    assert len(lines) == 1 + 2 * stats.times.shape[0]

    recordio.write_stats_json(stats, tmp_path / "s.json")
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["schema_version"] == recordio.SCHEMA_VERSION
    assert doc["n_records"] == 3
    assert set(doc["outside_fraction"]) == {"Filtered", "Retrofiltered"}

    rows = {"Filtered": (stats.var_ens["Filtered"],
                         stats.theory["Filtered"])}
    recordio.write_hs_csv(stats.times, rows, tmp_path / "h.csv")
    lines = (tmp_path / "h.csv").read_text().splitlines()
    assert len(lines) == 1 + stats.times.shape[0]

    res = vacf({"Filtered": stacks["Filtered"][0]}, times[1] - times[0])
    recordio.write_vacf_csv(res, tmp_path / "v.csv")
    lines = (tmp_path / "v.csv").read_text().splitlines()
    assert len(lines) == 1 + res.lags.shape[0]


# ---------------------------------------------------------------------------
# text format and malformed input
# ---------------------------------------------------------------------------

SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324,
                     1.7976931348623157e308, 0.1, 3.0, -42.0, 1e22, 2.5e-7])
# a strictly increasing grid of the finite values
TIMES = np.array([-42.0, -0.0, 5e-324, 2.5e-7, 0.1, 3.0, 7.0, 1e22, 3e22,
                  1e300, 1.7976931348623157e308])


def _line(*fields) -> str:
    """One row as the per-value writers printed it."""
    return ",".join(f if isinstance(f, str) else format(float(f), ".17g")
                    for f in fields) + "\n"


def _format_case(name):
    """(write(path), expected text) for one CSV writer."""
    n = SPECIALS.shape[0]
    a, b, c = SPECIALS, np.roll(SPECIALS, 3), np.roll(SPECIALS, 7)
    times = TIMES
    if name == "record":
        # a record holds only finite samples; the other cases cover nan/inf
        a, b = TIMES, np.roll(TIMES, 3)
        rec = MeasurementRecord(1e-6, np.column_stack([a, b]))
        return (lambda p: recordio.write_record_csv(rec, p),
                "t_s,i1,i2\n" + "".join(
                    _line(k * 1e-6, a[k], b[k]) for k in range(n)))
    if name in ("filtered", "retrofiltered"):
        retro = name == "retrofiltered"
        kind = "Retrofiltered" if retro else "Filtered"
        info = np.column_stack([b, c]) if retro else None
        traj = Trajectory(times, np.column_stack([a, b]), c, kind, info=info)
        z = info if retro else np.full((n, 2), np.nan)
        return (lambda p: recordio.write_trajectory_csv(traj, p),
                "t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2\n" + "".join(
                    _line(times[k], kind, a[k], b[k], c[k], z[k, 0], z[k, 1])
                    for k in range(n)))
    if name == "means":
        means = np.column_stack([a, c])
        return (lambda p: recordio.write_means_csv(times, means, p),
                "t_s,x1,x2\n" + "".join(
                    _line(times[k], a[k], c[k]) for k in range(n)))
    if name == "raw":
        raw = RawTrace(3.0e6, TIMES[::-1])
        return (lambda p: recordio.write_raw_csv(raw, p),
                "t_s,value\n" + "".join(
                    _line(k / raw.fs, raw.samples[k]) for k in range(n)))
    kinds = ("Filtered", "Retrofiltered")
    cols = {"Filtered": (np.abs(a), b, c), "Retrofiltered": (np.abs(c), a, b)}
    if name == "consistency":
        outside = {k: cols[k][0] > 1.0 for k in kinds}
        stats = EnsembleStats(times, {k: cols[k][0] for k in kinds},
                              {k: cols[k][1] for k in kinds},
                              {k: cols[k][2] for k in kinds}, outside,
                              1.0, 3, 3.0)
        return (lambda p: recordio.write_consistency_csv(stats, p),
                "t_s,kind,var_ens,theory,sev,outside\n" + "".join(
                    _line(times[k], kind, *(col[k] for col in cols[kind]),
                          str(int(outside[kind][k])))
                    for kind in kinds for k in range(n)))
    if name == "hs":
        rows = {k: cols[k][1:] for k in kinds}
        return (lambda p: recordio.write_hs_csv(times, rows, p),
                "t_s,kind,hs_empirical,hs_theory\n" + "".join(
                    _line(times[k], kind, rows[kind][0][k], rows[kind][1][k])
                    for kind in kinds for k in range(n)))
    values = {k: np.concatenate([[1.0], cols[k][1][1:]]) for k in kinds}
    res = VacfResult(times, values, {k: 0.0 for k in kinds})
    return (lambda p: recordio.write_vacf_csv(res, p),
            "lag_s,kind,value\n" + "".join(
                _line(times[k], kind, values[kind][k])
                for kind in kinds for k in range(n)))


@pytest.mark.parametrize("name", ["record", "filtered", "retrofiltered",
                                  "means", "raw", "consistency", "hs",
                                  "vacf"])
def test_text_format_matches_per_value_reference(name, tmp_path):
    write, expected = _format_case(name)
    path = tmp_path / f"{name}.csv"
    write(path)
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("first_zero", [0.0, -0.0])
def test_shared_columns_differing_in_a_zeros_sign_print_apart(first_zero,
                                                             tmp_path):
    # vw arrays equal under == but not in their bytes print "0" and "-0";
    # each file, whichever is written first, has its own vw's text
    times = np.arange(4) * 1e-6
    mean = np.arange(8.0).reshape(4, 2)
    for zero in (first_zero, -first_zero):
        vw = np.array([4.7, zero, 2.5, 1.0])
        path = tmp_path / f"traj_{zero!r}.csv"
        recordio.write_trajectory_csv(
            Trajectory(times, mean, vw, "Filtered"), path)
        assert path.read_text() == \
            "t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2\n" + "".join(
                _line(times[k], "Filtered", *mean[k], vw[k], "nan", "nan")
                for k in range(4))
        assert path.read_text().split("\n")[2].split(",")[4] == \
            format(zero, ".17g")


MALFORMED = {
    # reader, header, good rows, a row cut short
    "trajectory": (recordio.read_trajectory_csv,
                   "t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2",
                   ["0,Filtered,1,2,3,nan,nan", "1e-4,Filtered,1,2,3,nan,nan"],
                   "2e-4,Filtered,1.5"),
    "record": (recordio.read_record_csv, "t_s,i1,i2",
               ["0,1,2", "1e-6,1,2"], "2e-6,1"),
    "means": (recordio.read_means_csv, "t_s,x1,x2",
              ["0,1,2", "1e-6,1,2"], "2e-6,1"),
    "raw": (recordio.read_raw_csv, "t_s,value",
            ["0,1", "2e-7,1"], "4e-7"),
}


@pytest.mark.parametrize("defect", ["short row", "long row", "non-numeric",
                                    "empty"])
@pytest.mark.parametrize("reader", sorted(MALFORMED))
def test_malformed_csv_error_names_file(reader, defect, tmp_path):
    read, header, good, short = MALFORMED[reader]
    rows = {"short row": good + [short],
            "long row": [good[0], good[1] + ",1"],
            "non-numeric": [good[0], good[1].replace("1", "x", 1)],
            "empty": []}[defect]
    path = tmp_path / f"{reader}.csv"
    path.write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(ValueError) as exc:
        read(path)
    assert str(exc.value).startswith(f"{path}: ")


def test_reader_rejects_another_writers_table(tmp_path, rng):
    # a truth dump has a record's shape (three uniform numeric columns) but
    # not its header
    truth = tmp_path / "truth_00000.csv"
    recordio.write_means_csv(np.arange(751) * 1e-6,
                             rng.normal(size=(751, 2)), truth)
    with pytest.raises(ValueError, match="expected header 't_s,i1,i2'") as exc:
        recordio.read_record_csv(truth)
    assert str(exc.value).startswith(f"{truth}: ")

    record = tmp_path / "record_00000.csv"
    recordio.write_record_csv(
        MeasurementRecord(1e-6, np.column_stack([np.zeros(4), np.ones(4)])),
        record)
    trajectory = "t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2"
    for read, header in ((recordio.read_means_csv, "t_s,x1,x2"),
                         (recordio.read_raw_csv, "t_s,value"),
                         (recordio.read_trajectory_csv, trajectory)):
        with pytest.raises(ValueError, match=f"expected header '{header}'"):
            read(record)

    # seven columns led by t_s, but not the trajectory writer's names
    renamed = tmp_path / "filtered_00000.csv"
    renamed.write_text("t_s,a,b,c,d,e,f\n0,Filtered,1,2,3,nan,nan\n"
                       "1e-4,Filtered,1,2,3,nan,nan\n")
    with pytest.raises(ValueError, match=f"expected header '{trajectory}'"):
        recordio.read_trajectory_csv(renamed)


def test_trajectory_time_grid_error_names_file(tmp_path):
    path = tmp_path / "filtered_00000.csv"
    path.write_text("t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2\n"
                    "0,Filtered,1,2,3,nan,nan\n0,Filtered,1,2,3,nan,nan\n")
    with pytest.raises(ValueError, match="strictly increasing") as exc:
        recordio.read_trajectory_csv(path)
    assert str(exc.value).startswith(f"{path}: ")
