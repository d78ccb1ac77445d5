"""File formats for records, trajectories, raw traces and analysis tables.

All text output uses %.17g so float64 values round-trip exactly and two
writes of the same data are byte-identical.  Text tables are formatted in
bulk, one ``%`` over all rows of a table block, and the bytes equal those
of formatting each value with ``format(float(x), ".17g")``.  A text
reader requires its writer's exact header and column count, a binary
reader a body of exactly its header's n samples, and every error, the
read object's constructor's included, is a ``ValueError`` naming the
file: a ``NumericalError`` for a non-finite record or trace sample.
Binary formats are little-endian float64 throughout.
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


def _table(path, header: str, usecols=None) -> tuple[np.ndarray, list]:
    """The numbers of a text table whose first line must be ``header``,
    parsed with ``np.loadtxt`` (only ``usecols`` if given), and its data
    lines.  Every row holds the header's column count."""
    text = Path(path).read_text()
    lines = text.splitlines()
    first, rows = (lines[0] if lines else ""), lines[1:]
    if first != header:
        raise ValueError(f"{path}: expected header {header!r}, found {first!r}")
    if not any(rows):
        raise ValueError(f"{path}: no data rows")
    try:
        data = np.loadtxt(rows, delimiter=",", usecols=usecols, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    # after loadtxt's own checks, the comma count fixes every row's width
    if text.count(",") != header.count(",") * (1 + data.shape[0]):
        raise ValueError(f"{path}: expected {header} rows")
    return data, rows


def _step(path, t: np.ndarray) -> float:
    """The step of a uniform time column of at least two samples."""
    if t.shape[0] < 2:
        raise ValueError(f"{path}: expected at least two rows")
    step = float(t[1] - t[0])
    if step <= 0 or np.abs(np.diff(t) - step).max() > 1e-6 * step:
        raise ValueError(f"{path}: time column is not uniform")
    return step


def _binary(path, magic: bytes, fmt: str, size: int) -> tuple:
    """The header fields and float64 body of a binary file: ``magic``,
    then a header packed as ``fmt`` whose second field is the sample
    count n, then exactly n samples of ``size`` bytes."""
    with open(path, "rb") as fh:
        if fh.read(len(magic)) != magic:
            raise ValueError(f"{path}: not a record file")
        header = fh.read(struct.calcsize(fmt))
        if len(header) != struct.calcsize(fmt):
            raise ValueError(f"{path}: truncated header")
        fields = struct.unpack(fmt, header)
        data = fh.read()
    n = fields[1]
    if len(data) < n * size:
        raise ValueError(f"{path}: truncated body")
    if len(data) > n * size:
        raise ValueError(f"{path}: body of {len(data)} bytes, but the "
                         f"header's n = {n} requires {n * size}")
    return fields, np.frombuffer(data, dtype="<f8")


def _named(path, fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, with its ValueError naming the file and
    keeping its class."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise type(exc)(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# measurement records
# ---------------------------------------------------------------------------

def write_record_csv(rec: MeasurementRecord, path) -> None:
    """Columns t_s,i1,i2; efficiency and seed metadata are not stored."""
    _write_table(path, "t_s,i1,i2", [
        ("%.17g,%.17g,%.17g\n", (np.arange(rec.n) * rec.dt, *rec.currents.T))])


def read_record_csv(path) -> MeasurementRecord:
    data, _ = _table(path, "t_s,i1,i2")
    # a copy, so the record does not keep the parsed time column alive
    return _named(path, MeasurementRecord, dt=_step(path, data[:, 0]),
                  currents=np.ascontiguousarray(data[:, 1:]))


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
    (dt, _, eta, seed), body = _binary(path, _RECORD_MAGIC, "<dQdq", 16)
    return _named(path, MeasurementRecord,
                  dt=dt, currents=body.reshape(-1, 2).copy(),
                  eta_effective=None if np.isnan(eta) else eta,
                  seed=None if seed < 0 else seed)


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------

_TRAJECTORY_HEADER = "t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2"


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
    _write_table(path, _TRAJECTORY_HEADER, [(row, columns)])


def read_trajectory_csv(path) -> Trajectory:
    # every row has at least seven fields once this parse succeeds
    data, rows = _table(path, _TRAJECTORY_HEADER, usecols=(0, 2, 3, 4, 5, 6))
    kinds = {row.split(",", 2)[1] for row in rows if row}
    if len(kinds) != 1:
        raise ValueError(f"{path}: expected exactly one trajectory kind")
    kind = kinds.pop()
    if kind not in KINDS:
        raise ValueError(f"{path}: unknown trajectory kind {kind!r}")
    info = data[:, 4:6].copy() if kind == "Retrofiltered" else None
    return _named(path, Trajectory, data[:, 0].copy(), data[:, 1:3].copy(),
                  data[:, 3].copy(), kind, info=info)


def write_means_csv(times: np.ndarray, means: np.ndarray, path) -> None:
    """Plain mean trajectories (ground truth dumps): t_s,x1,x2."""
    _write_table(path, "t_s,x1,x2", [
        ("%.17g,%.17g,%.17g\n", (times, means[:, 0], means[:, 1]))])


def read_means_csv(path) -> tuple[np.ndarray, np.ndarray]:
    data, _ = _table(path, "t_s,x1,x2")
    return data[:, 0], data[:, 1:]


# ---------------------------------------------------------------------------
# raw traces
# ---------------------------------------------------------------------------

def write_raw_csv(raw: RawTrace, path) -> None:
    _write_table(path, "t_s,value", [
        ("%.17g,%.17g\n", (np.arange(raw.n) / raw.fs, raw.samples))])


def read_raw_csv(path) -> RawTrace:
    data, _ = _table(path, "t_s,value")
    return _named(path, RawTrace, fs=1.0 / _step(path, data[:, 0]),
                  samples=data[:, 1])


def write_raw_bin(raw: RawTrace, path) -> None:
    """Header fs (f8), n (u8); then samples as little-endian float64."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<dQ", raw.fs, raw.n))
        fh.write(np.asarray(raw.samples, dtype="<f8").tobytes())


def read_raw_bin(path) -> RawTrace:
    (fs, _), body = _binary(path, b"", "<dQ", 8)
    return _named(path, RawTrace, fs=fs, samples=body.copy())


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
