"""File formats for records, trajectories, raw traces and analysis tables.

All text output uses %.17g so float64 values round-trip exactly and two
writes of the same data are byte-identical.  Text tables are formatted in
bulk, one ``%`` over all rows of a table block, and the bytes equal those
of formatting each value with ``format(float(x), ".17g")``.  Text tables
are parsed with ``np.loadtxt``; a reader requires its writer's header
line, and a wrong header or malformed rows raise ``ValueError`` naming
the file.  Binary formats are little-endian float64 throughout.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .estimate import KINDS, Trajectory
from .ingest import RawTrace
from .metrics import EnsembleStats, VacfResult
from .simulate import MeasurementRecord

SCHEMA_VERSION = 1
_RECORD_MAGIC = b"LGQ1"


def _open_w(path):
    return open(path, "w", newline="\n")


def _write_table(path, header: str, blocks) -> None:
    """Write a header line, then each block's rows with a single ``%``.

    A block is a row template and its columns: equal-length 1-d arrays,
    one per placeholder.  Values are taken as float64, so ``%.17g`` gives
    the bytes of ``format(float(x), ".17g")`` and ``%d`` those of
    ``int(x)``.
    """
    with _open_w(path) as fh:
        fh.write(header + "\n")
        for row, columns in blocks:
            flat = np.column_stack(columns).astype(float, copy=False).ravel()
            fh.write((row * len(columns[0])) % tuple(flat.tolist()))


def _split_table(path) -> tuple[str, list[str]]:
    """Header line and data lines of a text table."""
    lines = Path(path).read_text().splitlines()
    return (lines[0] if lines else ""), lines[1:]


def _rows(path, header: str) -> list[str]:
    """Data lines of a text table whose first line must be ``header``."""
    first, rows = _split_table(path)
    if first != header:
        raise ValueError(f"{path}: expected header {header!r}, found {first!r}")
    return rows


def _numbers(path, rows: list[str], usecols=None) -> np.ndarray:
    """Parse comma-separated numeric rows; errors name the file."""
    if not any(rows):
        raise ValueError(f"{path}: no data rows")
    try:
        return np.loadtxt(rows, delimiter=",", usecols=usecols, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _check_body(path, data: bytes, n: int, size: int) -> None:
    """The body after a binary header holds n samples of ``size`` bytes."""
    if len(data) < n * size:
        raise ValueError(f"{path}: truncated body")
    if len(data) > n * size:
        raise ValueError(f"{path}: body of {len(data)} bytes, but the "
                         f"header's n = {n} requires {n * size}")


# ---------------------------------------------------------------------------
# measurement records
# ---------------------------------------------------------------------------

def write_record_csv(rec: MeasurementRecord, path) -> None:
    """Columns t_s,i1,i2; efficiency and seed metadata are not stored."""
    _write_table(path, "t_s,i1,i2", [
        ("%.17g,%.17g,%.17g\n", (np.arange(rec.n) * rec.dt, *rec.currents.T))])


def read_record_csv(path) -> MeasurementRecord:
    data = _numbers(path, _rows(path, "t_s,i1,i2"))
    if data.shape[1] != 3 or data.shape[0] < 2:
        raise ValueError(f"{path}: expected t_s,i1,i2 rows")
    t = data[:, 0]
    dt = float(t[1] - t[0])
    if dt <= 0 or np.abs(np.diff(t) - dt).max() > 1e-6 * dt:
        raise ValueError(f"{path}: time column is not uniform")
    # a copy, so the record does not keep the parsed time column alive
    return MeasurementRecord(dt=dt, currents=np.ascontiguousarray(data[:, 1:]))


def write_record_bin(rec: MeasurementRecord, path) -> None:
    """Magic 'LGQ1', then dt (f8), n (u8), eta (f8, NaN=unknown),
    seed (i8, -1=unknown), then the rows of ``currents`` (f8, I1, I2)."""
    eta = float("nan") if rec.eta_effective is None else rec.eta_effective
    seed = -1 if rec.seed is None else int(rec.seed)
    with open(path, "wb") as fh:
        fh.write(_RECORD_MAGIC)
        fh.write(struct.pack("<dQdq", rec.dt, rec.n, eta, seed))
        fh.write(rec.currents.astype("<f8", copy=False).tobytes())


def read_record_bin(path) -> MeasurementRecord:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _RECORD_MAGIC:
            raise ValueError(f"{path}: not a record file")
        header = fh.read(32)
        if len(header) != 32:
            raise ValueError(f"{path}: truncated header")
        dt, n, eta, seed = struct.unpack("<dQdq", header)
        data = fh.read()
    _check_body(path, data, n, 16)
    body = np.frombuffer(data, dtype="<f8")
    try:
        return MeasurementRecord(
            dt=dt, currents=body.reshape(-1, 2).copy(),
            eta_effective=None if np.isnan(eta) else eta,
            seed=None if seed < 0 else seed)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2.

    vw holds the covariance for state kinds and the effect precision for
    the retrofilter; the info columns carry the retrofilter's information
    vector and are nan otherwise.
    """
    columns = [traj.times, traj.mean[:, 0], traj.mean[:, 1], traj.vw]
    if traj.info is None:
        # the all-NaN info columns, as %.17g would print them
        row = "%.17g," + traj.kind + ",%.17g,%.17g,%.17g,nan,nan\n"
    else:
        row = "%.17g," + traj.kind + ",%.17g,%.17g,%.17g,%.17g,%.17g\n"
        columns += [traj.info[:, 0], traj.info[:, 1]]
    _write_table(path, "t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2",
                 [(row, columns)])


def read_trajectory_csv(path) -> Trajectory:
    header, rows = _split_table(path)
    fields = header.split(",")
    if fields[0] != "t_s" or len(fields) != 7:
        raise ValueError(f"{path}: expected trajectory header")
    # every row has at least seven fields once this parse succeeds
    data = _numbers(path, rows, usecols=(0, 2, 3, 4, 5, 6))
    kinds = {row.split(",", 2)[1] for row in rows if row}
    if len(kinds) != 1:
        raise ValueError(f"{path}: expected exactly one trajectory kind")
    kind = kinds.pop()
    if kind not in KINDS:
        raise ValueError(f"{path}: unknown trajectory kind {kind!r}")
    info = data[:, 4:6].copy() if kind == "Retrofiltered" else None
    try:
        return Trajectory(data[:, 0].copy(), data[:, 1:3].copy(),
                          data[:, 3].copy(), kind, info=info)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_means_csv(times: np.ndarray, means: np.ndarray, path) -> None:
    """Plain mean trajectories (ground truth dumps): t_s,x1,x2."""
    _write_table(path, "t_s,x1,x2", [
        ("%.17g,%.17g,%.17g\n", (times, means[:, 0], means[:, 1]))])


def read_means_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data = _numbers(path, _rows(path, "t_s,x1,x2"))
    if data.shape[1] != 3:
        raise ValueError(f"{path}: expected t_s,x1,x2 rows")
    return data[:, 0], data[:, 1:]


# ---------------------------------------------------------------------------
# raw traces
# ---------------------------------------------------------------------------

def write_raw_csv(raw: RawTrace, path) -> None:
    _write_table(path, "t_s,value", [
        ("%.17g,%.17g\n", (np.arange(raw.n) / raw.fs, raw.samples))])


def read_raw_csv(path) -> RawTrace:
    data = _numbers(path, _rows(path, "t_s,value"))
    if data.shape[1] != 2 or data.shape[0] < 2:
        raise ValueError(f"{path}: expected t_s,value rows")
    t = data[:, 0]
    step = float(t[1] - t[0])
    if step <= 0 or np.abs(np.diff(t) - step).max() > 1e-6 * step:
        raise ValueError(f"{path}: time column is not uniform")
    return RawTrace(fs=1.0 / step, samples=data[:, 1])


def write_raw_bin(raw: RawTrace, path) -> None:
    """Header fs (f8), n (u8); then samples as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<dQ", raw.fs, raw.n))
        fh.write(np.asarray(raw.samples, dtype="<f8").tobytes())


def read_raw_bin(path) -> RawTrace:
    with open(path, "rb") as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated header")
        fs, n = struct.unpack("<dQ", header)
        data = fh.read()
    _check_body(path, data, n, 8)
    body = np.frombuffer(data, dtype="<f8")
    try:
        return RawTrace(fs=fs, samples=body.copy())
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# analysis tables
# ---------------------------------------------------------------------------

def write_consistency_csv(stats: EnsembleStats, path) -> None:
    """Per-time rows t_s,kind,var_ens,theory,sev,outside."""
    _write_table(path, "t_s,kind,var_ens,theory,sev,outside", [
        ("%.17g," + kind + ",%.17g,%.17g,%.17g,%d\n",
         (stats.times, stats.var_ens[kind], stats.theory[kind],
          stats.sev[kind], stats.outside[kind]))
        for kind in sorted(stats.var_ens)])


def write_stats_json(stats: EnsembleStats, path) -> None:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "n_records": stats.n_records,
        "n_eff": stats.n_eff,
        "sigma2_uncon": stats.sigma2_uncon,
        "kinds": sorted(stats.var_ens),
        "outside_fraction": {
            kind: float(np.mean(stats.outside[kind]))
            for kind in sorted(stats.outside)
        },
        "hs_mean": {
            ":".join(k) if isinstance(k, tuple) else str(k): float(val)
            for k, val in sorted(stats.hs_mean.items())},
    }
    with _open_w(path) as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_hs_csv(times: np.ndarray, rows: dict, path) -> None:
    """rows: kind -> (empirical, theory) arrays on the common time grid."""
    _write_table(path, "t_s,kind,hs_empirical,hs_theory", [
        ("%.17g," + kind + ",%.17g,%.17g\n", (times, *rows[kind]))
        for kind in sorted(rows)])


def write_vacf_csv(res: VacfResult, path) -> None:
    _write_table(path, "lag_s,kind,value", [
        ("%.17g," + kind + ",%.17g\n", (res.lags, res.values[kind]))
        for kind in sorted(res.values)])


def checksum(path) -> str:
    """Stable content hash used by the determinism checks."""
    import hashlib

    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
