"""Carrier-band trace processing: shot-noise normalization, lock-in style
demodulation with a causal Butterworth low-pass, record segmentation, and
the efficiency-reducing noise-injection protocol.

The demodulation gain convention matches ``simulate.synthesize_raw``: a
quadrature pair embedded as ``I1 sqrt(2) cos(wt) + I2 sqrt(2) sin(wt)``
round-trips at unit gain.  The Butterworth filter is applied causally, so
outputs carry its startup transient and group delay; callers discard the
transient window.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .simulate import MeasurementRecord

DEFAULT_BW_3DB = 56.5e3
DEFAULT_ORDER = 4
# 10 segments of 400 us each
DEFAULT_DISCARD = 4.0e-3

_MIN_ORDER, _MAX_ORDER = 2, 8
# carrier must sit well above the filter band for the 2w image to die
_MIN_CARRIER_TO_BW = 5.0


@dataclass(frozen=True)
class RawTrace:
    """A sampled carrier-band trace.

    ``shot_level`` is the per-sample variance of the white shot-noise
    floor when known; traces in the normalized convention have
    ``shot_level == fs`` (unit spectral density).
    """

    fs: float
    samples: np.ndarray
    shot_level: float | None = None

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be finite and positive, got {self.fs}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.shape[0] == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.isfinite(samples).all():
            raise ValueError("ingest: non-finite raw sample")
        if self.shot_level is not None and self.shot_level <= 0:
            raise ValueError("shot_level must be positive when given")
        object.__setattr__(self, "samples", samples)

    @property
    def n(self) -> int:
        return self.samples.shape[0]

    @property
    def duration(self) -> float:
        return self.n / self.fs

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) / self.fs


def normalize_shot_noise(raw: RawTrace, shot_level: float) -> RawTrace:
    """Rescale a trace so its white floor has per-sample variance fs.

    ``shot_level`` is the known per-sample shot-noise variance of the
    input; estimating it from data is out of scope.
    """
    if shot_level <= 0:
        raise ValueError("shot_level must be positive")
    scale = math.sqrt(raw.fs / shot_level)
    return RawTrace(fs=raw.fs, samples=raw.samples * scale, shot_level=raw.fs)


def demod_filter(bw_3db: float, order: int, fs: float):
    """Coefficients (b, a) of the causal low-pass used by demodulate."""
    if not _MIN_ORDER <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [{_MIN_ORDER}, {_MAX_ORDER}]")
    if bw_3db <= 0 or bw_3db >= fs / 2:
        raise ValueError("bw_3db must lie below the input Nyquist rate")
    # scipy.signal costs about a second to import; only demod needs it
    from scipy import signal as sps

    return sps.butter(order, bw_3db, btype="low", fs=fs)


def demodulate(raw: RawTrace, omega: float, bw_3db: float = DEFAULT_BW_3DB,
               order: int = DEFAULT_ORDER,
               dt_out: float = 1e-6) -> MeasurementRecord:
    """Mix a trace down from the carrier and low-pass to quadrature records.

    Both branches are mixed with sqrt(2) cos/sin references, filtered with
    the same causal Butterworth low-pass, and decimated by stride to
    ``dt_out``.  Output currents keep the shot-noise normalization of the
    input within the filter band.
    """
    if omega <= 0:
        raise ValueError("omega must be positive")
    f_carrier = omega / (2.0 * math.pi)
    if f_carrier < _MIN_CARRIER_TO_BW * bw_3db:
        raise ValueError("carrier frequency must sit well above bw_3db")
    if raw.fs <= 4.0 * f_carrier:
        raise ValueError("sample rate must exceed four times the carrier")
    if dt_out <= 0:
        raise ValueError("dt_out must be positive")
    stride_f = raw.fs * dt_out
    stride = int(round(stride_f))
    if stride < 1 or abs(stride_f - stride) > 1e-9 * stride_f:
        raise ValueError("dt_out must be an integer multiple of 1/fs")
    # anti-alias margin for stride decimation
    if bw_3db > 0.25 / dt_out:
        raise ValueError("bw_3db too large for the decimated rate")
    b, a = demod_filter(bw_3db, order, raw.fs)
    if raw.duration < 5.0 / (2.0 * math.pi * bw_3db):
        raise ValueError("trace shorter than the demodulation transient")

    from scipy import signal as sps

    t = raw.times
    root2 = math.sqrt(2.0)
    y1 = sps.lfilter(b, a, raw.samples * (root2 * np.cos(omega * t)))
    y2 = sps.lfilter(b, a, raw.samples * (root2 * np.sin(omega * t)))
    return MeasurementRecord(dt=dt_out, i1=y1[::stride], i2=y2[::stride])


def segment(rec: MeasurementRecord, record_len: float,
            discard: float = DEFAULT_DISCARD) -> list[MeasurementRecord]:
    """Drop the transient prefix and chop into fixed-length records.

    Windows are consecutive and non-overlapping; a trailing partial
    window is dropped.  Returns an empty list (with a warning) when the
    input is too short for a single record.
    """
    if record_len <= 0:
        raise ValueError("record_len must be positive")
    if discard < 0:
        raise ValueError("discard must be non-negative")
    n_skip = int(round(discard / rec.dt))
    n_win = int(round(record_len / rec.dt))
    if n_win < 1:
        raise ValueError("record_len shorter than one sample")
    n_rec = (rec.n - n_skip) // n_win if rec.n > n_skip else 0
    if n_rec < 1:
        warnings.warn("trace too short for one record after discard",
                      stacklevel=2)
        return []
    out = []
    for k in range(n_rec):
        lo = n_skip + k * n_win
        out.append(MeasurementRecord(
            dt=rec.dt, i1=rec.i1[lo:lo + n_win], i2=rec.i2[lo:lo + n_win],
            eta_effective=rec.eta_effective))
    return out


def inject_noise(rec: MeasurementRecord, eta_old: float, eta_new: float,
                 seed: int | None = None) -> MeasurementRecord:
    """Reduce the effective detection efficiency by adding white noise.

    Adds independent Gaussian noise of per-sample variance sigma2/dt with
    sigma2 = eta_old/eta_new - 1 to each current, then rescales by
    1/sqrt(1 + sigma2) so the white floor stays at the shot-noise level.
    The signal component shrinks accordingly, exactly as a detector of
    efficiency eta_new would record it.
    """
    if not 0 < eta_new <= eta_old <= 1:
        raise ValueError("requires 0 < eta_new <= eta_old <= 1")
    if rec.eta_effective is not None and \
            abs(rec.eta_effective - eta_old) > 1e-9:
        raise ValueError("eta_old does not match the record's efficiency")
    sigma2 = eta_old / eta_new - 1.0
    if sigma2 == 0.0:
        return MeasurementRecord(dt=rec.dt, i1=rec.i1.copy(),
                                 i2=rec.i2.copy(), eta_effective=eta_new,
                                 seed=rec.seed)
    rng = np.random.default_rng(
        np.random.SeedSequence(seed) if seed is not None
        else np.random.SeedSequence())
    sig = math.sqrt(sigma2 / rec.dt)
    scale = 1.0 / math.sqrt(1.0 + sigma2)
    noise = rng.normal(0.0, sig, (2, rec.n))
    # the parent seed no longer reproduces the record on its own
    return MeasurementRecord(
        dt=rec.dt,
        i1=(rec.i1 + noise[0]) * scale,
        i2=(rec.i2 + noise[1]) * scale,
        eta_effective=eta_new,
        seed=None)
