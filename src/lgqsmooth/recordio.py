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

Records, trajectories and truth dumps share most of their text between
the files of a run: the time grid, the kind, the closed-form vw and the
NaN info columns.  Their writers print those columns once per
:class:`Layout` and each file's own values into it with one ``%``, and
:func:`read_own_columns` parses only the own columns of a file that is
byte for byte what its writer makes at a layout, and leaves any other
file to the generic readers and their checks.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
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
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
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
# tables whose shared columns are printed once
# ---------------------------------------------------------------------------

def _fields(body: str) -> list[str]:
    """A table body's fields, each line end a field of its own, so a row
    of w columns is w + 1 fields and a final line end leaves ""."""
    return body.replace("\n", ",\n,").split(",")


@dataclass(frozen=True)
class Layout:
    """One shape of text table as its writer prints it, but for each
    file's own values.

    ``template`` is the data rows with the shared columns already printed
    and ``%.17g`` in each own field, so a file is ``header``, a line end
    and ``template % own``.  ``width`` is the fields of a row split by
    :func:`_fields`, its line end counted, and ``own`` the indices of the
    own columns.  A layout pickles as the arguments of its cached
    constructor, so a worker process that reads many files of one layout
    builds it, and its ``shared`` fields, once."""

    header: str
    template: str
    width: int
    own: tuple
    made_from: tuple = field(default=(), compare=False, repr=False)

    def __reduce__(self):
        return _layout, self.made_from

    @functools.cached_property
    def shared(self) -> tuple[int, tuple]:
        """The template's field count under :func:`_fields`, and each
        shared column's index and fields, the line ends' column and
        column 0's final "" included; made when a file is first read."""
        fields = _fields(self.template)
        return len(fields), tuple(
            (col, fields[col::self.width]) for col in range(self.width)
            if col not in self.own)


@functools.lru_cache(maxsize=16)
def _layout(header: str, row: str, n: int, *columns: bytes) -> Layout:
    """n rows of ``row``, whose ``%.17g`` fields take the float64
    ``columns`` in order and whose ``%%.17g`` fields are each file's own.

    Columns come as their bytes, so that two columns differing only in
    the sign of a zero, which print differently, are two layouts."""
    shared = np.column_stack([np.frombuffer(c) for c in columns]).ravel()
    template = (row * n) % tuple(shared.tolist())
    cells = row[:-1].split(",")
    return Layout(header, template, len(cells) + 1,
                  tuple(i for i, cell in enumerate(cells)
                        if cell == "%%.17g"), (header, row, n, *columns))


def _bytes(column) -> bytes:
    return np.ascontiguousarray(column, dtype=float).tobytes()


def trajectory_layout(times: np.ndarray, kind: str, vw: np.ndarray,
                      info: bool) -> Layout:
    """The layout of a trajectory file of ``kind`` on ``times`` with
    ``vw``: its own columns are the means, and with ``info`` the
    information vector, else the info columns are nan."""
    tail = "%%.17g,%%.17g" if info else "nan,nan"
    return _layout(_TRAJECTORY_HEADER,
                   "%.17g," + kind + ",%%.17g,%%.17g,%.17g," + tail + "\n",
                   len(times), _bytes(times), _bytes(vw))


def means_layout(times: np.ndarray) -> Layout:
    """The layout of a truth dump (:func:`write_means_csv`) on ``times``."""
    return _layout("t_s,x1,x2", "%.17g,%%.17g,%%.17g\n", len(times),
                   _bytes(times))


def _write_rows(path, layout: Layout, own) -> None:
    """Write a file of ``layout`` whose own columns are the columns of
    ``own``, 1-d or 2-d arrays of one length, in order."""
    flat = np.column_stack(own).astype(float, copy=False).ravel()
    with _open_w(path) as fh:
        fh.write(layout.header + "\n")
        fh.write(layout.template % tuple(flat.tolist()))


# what float() reads in a field but np.loadtxt or str.splitlines reads
# otherwise: digit-group underscores and every white space but "\n"
_FOREIGN = ("_", " ", "\t", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def read_own_columns(layout: Layout, path) -> np.ndarray | None:
    """The own columns, (rows, len(layout.own)), of a file that is exactly
    what its writer makes at ``layout``: the same header, and every
    shared field and line end as the layout prints it.  Returns None for
    any other file, valid or not, so that the caller reads it with its
    generic reader, which checks it and names what is wrong.

    The own fields are parsed with float(), which gives the bits of
    np.loadtxt on an ASCII field with neither underscores nor white
    space; a file holding any of those is another file.  A file that
    cannot be read or decoded is another file too, so this never raises
    for what a file holds, and the generic reader reports it."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError):
        return None
    header, _, body = text.partition("\n")
    if header != layout.header or not body.isascii() \
            or any(c in body for c in _FOREIGN):
        return None
    fields = _fields(body)
    width = layout.width
    size, shared = layout.shared
    if len(fields) != size or any(fields[col::width] != text
                                  for col, text in shared):
        return None
    own: list = []
    for col in layout.own:
        own += fields[col::width]
    try:
        values = np.fromiter(map(float, own), float, len(own))
    except ValueError:
        return None
    return values.reshape(len(layout.own), -1).T


# ---------------------------------------------------------------------------
# measurement records
# ---------------------------------------------------------------------------

def write_record_csv(rec: MeasurementRecord, path) -> None:
    """Columns t_s,i1,i2; efficiency and seed metadata are not stored."""
    _write_rows(path, _layout("t_s,i1,i2", "%.17g,%%.17g,%%.17g\n", rec.n,
                              _bytes(np.arange(rec.n) * rec.dt)),
                (rec.currents,))


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
    info = traj.info is not None
    own = (traj.mean, traj.info) if info else (traj.mean,)
    _write_rows(path, trajectory_layout(traj.times, traj.kind, traj.vw, info),
                own)


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
    _write_rows(path, means_layout(times), (means,))


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
    # imported here: no other file stage writes JSON
    import json

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
