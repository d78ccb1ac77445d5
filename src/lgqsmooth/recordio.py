"""File formats for records, trajectories, raw traces and analysis tables.

All text output uses %.17g so float64 values round-trip exactly and two
writes of the same data are byte-identical.  One writer prints every text
table, one ``%`` over all rows of a block, with the bytes of formatting
each value with ``format(float(x), ".17g")``.  One tokenizer reads every
text table: the writer's exact header and field count, LF or CRLF line
ends, and no blank or ``#`` line; ``float()`` reads every number.  A
binary reader requires a body of exactly its header's n samples.  Every
error, the read object's constructor's included, is a ``ValueError``
naming the file: a ``NumericalError`` for a non-finite record or trace
sample.  Binary formats are little-endian float64 throughout.

Records, trajectories and truth dumps share most of their text between
the files of a run: the time grid, the kind, the closed-form vw and the
NaN info columns.  Their writers print those columns once per
:class:`Layout` and each file's own values into it, and
:func:`read_own_columns` compares a file's shared fields as text and
gives the generic reader's own columns, or leaves the file to it.
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

_RECORD_HEADER = "t_s,i1,i2"
_TRAJECTORY_HEADER = "t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2"
_MEANS_HEADER = "t_s,x1,x2"
_RAW_HEADER = "t_s,value"


def _open_w(path):
    return open(path, "w", newline="\n")


def _write_table(path, header: str, blocks) -> None:
    """Write a header line, then each block's text with a single ``%``.

    A block is a template of all its rows and its columns, 1-d or 2-d
    arrays of one length whose values fill it row by row.  Values are
    taken as float64, so ``%.17g`` gives the bytes of
    ``format(float(x), ".17g")`` and ``%d`` those of ``int(x)``."""
    with _open_w(path) as fh:
        fh.write(header + "\n")
        for template, columns in blocks:
            flat = np.column_stack(columns).astype(float, copy=False).ravel()
            fh.write(template % tuple(flat.tolist()))


def _fields(body: str) -> tuple[list[str], int]:
    """The fields of rows that each end in "\\n", the line end a field of
    its own, so r rows of w columns are r * (w + 1) fields, and r."""
    spread = body.replace("\n", ",\n,")
    fields = spread.split(",")
    fields.pop()  # the "" after the final line end
    # each line end gained two commas; str.count would scan the text again
    return fields, (len(spread) - len(body)) // 2


# what float() reads in or around a number but no writer prints; any
# other control character fails float() or the kind check
_UNPRINTED = ("_", "\v", "\f", "\r", "\x1c", "\x1d", "\x1e", "\x1f")


def _read_table(path, header: str, cols) -> tuple[list[str], np.ndarray]:
    """The :func:`_fields` of a text table's data rows, and its columns
    ``cols`` read by float(), (rows, len(cols)): an ASCII file of
    ``header``, then at least one row of its field count, and no
    ``_UNPRINTED``.  An error names the file, and a number's its line and
    column."""
    data = Path(path).read_bytes()
    if not data.isascii():
        raise ValueError(f"{path}: not ASCII text")
    text = data.decode("ascii")
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    first, _, body = text.partition("\n")
    if first != header:
        raise ValueError(f"{path}: expected header {header!r}, "
                         f"found {first!r}")
    if not body:
        raise ValueError(f"{path}: no data rows")
    if not body.endswith("\n"):
        body += "\n"
    for char in _UNPRINTED:
        if char in body:
            raise ValueError(f"{path}: {char!r} in a data row")
    (cells, rows), width = _fields(body), header.count(",") + 2
    if len(cells) != rows * width \
            or cells[width - 1::width].count("\n") != rows:
        line = next(k for k, row in enumerate(body.split("\n"), 2)
                    if row.count(",") != width - 2)
        raise ValueError(f"{path}: line {line}: expected {header} fields")
    numbers: list = []
    for col in cols:
        numbers += cells[col::width]
    try:
        values = np.fromiter(map(float, numbers), float, len(numbers))
    except ValueError:
        for k, text in enumerate(numbers):
            try:
                float(text)
            except ValueError:
                name = header.split(",")[cols[k // rows]]
                raise ValueError(f"{path}: line {k % rows + 2}, column "
                                 f"{name}: {text!r} is not a number") \
                    from None
        raise
    return cells, values.reshape(len(cols), -1).T


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

@dataclass(frozen=True)
class Layout:
    """One shape of text table as its writer prints it, but for each
    file's own values.

    ``template`` is the data rows with the shared columns already printed
    and ``%.17g`` in each own field, so a file is ``header``, a line end
    and ``template % own``; ``own`` is the indices of the own columns.  A
    layout pickles as the arguments of its cached constructor, so a
    worker process that reads many files of one layout builds it, and its
    ``shared`` fields, once."""

    header: str
    template: str
    own: tuple
    made_from: tuple = field(default=(), compare=False, repr=False)

    def __reduce__(self):
        return _layout, self.made_from

    @functools.cached_property
    def shared(self) -> tuple[int, int, tuple]:
        """A row's and the template's field count under :func:`_fields`,
        and each shared column's index and fields; made when a file is
        first read."""
        fields, _ = _fields(self.template)
        width = self.header.count(",") + 2
        return width, len(fields), tuple(
            (col, fields[col::width]) for col in range(width - 1)
            if col not in self.own)


@functools.lru_cache(maxsize=16)
def _layout(header: str, row: str, n: int, *columns: bytes) -> Layout:
    """n rows of ``row``, whose ``%.17g`` fields take the float64
    ``columns`` in order and whose ``%%.17g`` fields are each file's own.

    Columns come as their bytes, so that two columns differing only in
    the sign of a zero, which print differently, are two layouts."""
    shared = np.column_stack([np.frombuffer(c) for c in columns]).ravel()
    template = (row * n) % tuple(shared.tolist())
    return Layout(header, template,
                  tuple(i for i, cell in enumerate(row[:-1].split(","))
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
    return _layout(_MEANS_HEADER, "%.17g,%%.17g,%%.17g\n", len(times),
                   _bytes(times))


def read_own_columns(layout: Layout, path) -> np.ndarray | None:
    """The own columns, (rows, len(layout.own)), that the generic reader
    gives a file whose shared fields are, as text, what its writer prints
    at ``layout``.  Returns None for any other file, valid or not, or one
    that cannot be read, so that the caller reads it with its generic
    reader, which checks it and names what is wrong."""
    try:
        cells, own = _read_table(path, layout.header, layout.own)
    except (OSError, ValueError):
        return None
    width, size, shared = layout.shared
    if len(cells) != size or any(cells[col::width] != text
                                 for col, text in shared):
        return None
    return own


# ---------------------------------------------------------------------------
# measurement records
# ---------------------------------------------------------------------------

def write_record_csv(rec: MeasurementRecord, path) -> None:
    """Columns t_s,i1,i2; efficiency and seed metadata are not stored."""
    layout = _layout(_RECORD_HEADER, "%.17g,%%.17g,%%.17g\n", rec.n,
                     _bytes(np.arange(rec.n) * rec.dt))
    _write_table(path, layout.header, [(layout.template, (rec.currents,))])


def read_record_csv(path) -> MeasurementRecord:
    _, data = _read_table(path, _RECORD_HEADER, (0, 1, 2))
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

def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Columns t_s,kind,mean_x1,mean_x2,vw,info_x1,info_x2.

    vw holds the covariance for state kinds and the effect precision for
    the retrofilter; the info columns carry the retrofilter's information
    vector and are nan otherwise.
    """
    info = traj.info is not None
    own = (traj.mean, traj.info) if info else (traj.mean,)
    layout = trajectory_layout(traj.times, traj.kind, traj.vw, info)
    _write_table(path, layout.header, [(layout.template, own)])


def read_trajectory_csv(path) -> Trajectory:
    cells, data = _read_table(path, _TRAJECTORY_HEADER, (0, 2, 3, 4, 5, 6))
    kinds = set(cells[1::8])  # seven columns and the line end
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
    layout = means_layout(times)
    _write_table(path, layout.header, [(layout.template, (means,))])


def read_means_csv(path) -> tuple[np.ndarray, np.ndarray]:
    _, data = _read_table(path, _MEANS_HEADER, (0, 1, 2))
    return data[:, 0], data[:, 1:]


# ---------------------------------------------------------------------------
# raw traces
# ---------------------------------------------------------------------------

def write_raw_csv(raw: RawTrace, path) -> None:
    _write_table(path, _RAW_HEADER, [
        ("%.17g,%.17g\n" * raw.n, (np.arange(raw.n) / raw.fs, raw.samples))])


def read_raw_csv(path) -> RawTrace:
    _, data = _read_table(path, _RAW_HEADER, (0, 1))
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
        (f"%.17g,{kind},%.17g,%.17g,%.17g,%d\n" * len(stats.times),
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
        (f"%.17g,{kind},%.17g,%.17g\n" * len(times), (times, *rows[kind]))
        for kind in sorted(rows)])


def write_vacf_csv(res: VacfResult, path) -> None:
    _write_table(path, "lag_s,kind,value", [
        (f"%.17g,{kind},%.17g\n" * len(res.lags),
         (res.lags, res.values[kind]))
        for kind in sorted(res.values)])


def checksum(path) -> str:
    """Stable content hash used by the determinism checks."""
    import hashlib

    h = hashlib.sha256()
    h.update(Path(path).read_bytes())
    return h.hexdigest()
