"""Carrier-band trace processing: lock-in style demodulation with a causal
Butterworth low-pass, record segmentation, and the efficiency-reducing
noise-injection protocol.

The demodulation gain convention matches ``simulate.synthesize_raw``: a
quadrature pair embedded as ``I1 sqrt(2) cos(wt) + I2 sqrt(2) sin(wt)``
round-trips at unit gain.  The Butterworth filter is applied causally, so
outputs carry its startup transient and group delay; callers discard the
transient window.

The low-pass is designed in numpy along the zpk steps of SciPy's
``butter`` (analog prototype, tan prewarp at the internal fs = 2, bilinear
transform), so demodulation needs no scipy.  It runs as a cascade of
sections, one per conjugate pole pair (and one for the real pole of an odd
order), each normalized to unit DC gain.  A section's output is
``d x + 2 Re(y)`` with the complex first-order recurrence
``y_k = p y_{k-1} + r x_k`` (partial fractions of the section).  That
recurrence is evaluated in blocks of L samples: within a block the
response from rest is ``p^j cumsum(r x_j p^-j)``, and the states entering
the blocks follow the same recurrence with pole ``p^L``, solved the same
way.  L keeps ``|p|^-L`` bounded.  The trace is mixed and filtered in time
chunks whose section states carry over, so memory stays bounded too.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import PhysicalParams
from .simulate import MeasurementRecord, NumericalError

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

    Traces are taken in the shot-noise-normalized convention: the white
    floor has per-sample variance fs (unit spectral density).
    """

    fs: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.fs) and self.fs > 0):
            raise ValueError(f"fs must be finite and positive, got {self.fs}")
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.shape[0] == 0:
            raise ValueError("samples must be a non-empty 1-d array")
        if not np.isfinite(samples).all():
            first = int(np.flatnonzero(~np.isfinite(samples))[0])
            raise NumericalError(
                f"ingest: non-finite raw sample at index {first}")
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


def demod_filter(bw_3db: float, order: int, fs: float):
    """Zeros, poles and gain of the causal low-pass used by demodulate.

    The same arithmetic as SciPy's ``butter(order, bw_3db, fs=fs,
    output="zpk")``, so the values match it bit for bit."""
    if not _MIN_ORDER <= order <= _MAX_ORDER:
        raise ValueError(f"order must be in [{_MIN_ORDER}, {_MAX_ORDER}]")
    if not 0 < bw_3db < fs / 2:
        raise ValueError(f"bw_3db = {bw_3db:g} must lie in (0, "
                         f"{fs / 2:g}): above zero and below the input "
                         f"Nyquist rate")
    wn = np.float64(bw_3db) / (fs / 2)
    # analog prototype; the middle pole of an odd order is exactly real
    m = np.arange(-order + 1, order, 2, dtype=float)
    p = -np.exp(1j * np.pi * m / (2 * order))
    # move the cutoff to the frequency prewarped for the internal fs = 2
    warped = float(4.0 * np.tan(np.pi * wn / 2.0))
    p = warped * p
    # bilinear transform; the zeros at infinity land on z = -1
    k = warped ** order * np.real(1.0 / np.prod(4.0 - p))
    return -np.ones(order), (4.0 + p) / (4.0 - p), k


# |p|^-L of a block stays below this, so the weights p^-j stay finite
_MAX_GROWTH = 1e8
# trace samples mixed and filtered at a time (rounded to a stride multiple)
_CHUNK = 1 << 18


def _block_len(p: complex) -> int:
    decay = -math.log(abs(p))
    return max(1, int(math.log(_MAX_GROWTH) / decay))


def _recurrence(p: complex, x: np.ndarray, c: np.ndarray,
                r: complex = 1.0) -> np.ndarray:
    """``y_k = p y_{k-1} + r x_k`` along the last axis of x from
    y_{-1} = c."""
    n = x.shape[-1]
    length = min(n, _block_len(p))
    if length <= 1:
        y = np.empty(x.shape, dtype=complex)
        for k in range(n):
            c = p * c + r * x[..., k]
            y[..., k] = c
        return y
    log_p = np.log(p)
    j = np.arange(1, length + 1)
    n_blocks = -(-n // length)
    y = np.zeros(x.shape[:-1] + (n_blocks * length,), dtype=complex)
    y[..., :n] = x
    y = y.reshape(x.shape[:-1] + (n_blocks, length))
    y *= r * np.exp(-j * log_p)
    np.cumsum(y, axis=-1, out=y)
    # with j from 0 in a block: y_j = p^(j+1) (entering state + running sum)
    p_block = np.exp(length * log_p)
    enter = np.empty(x.shape[:-1] + (n_blocks,), dtype=complex)
    enter[..., 0] = c
    enter[..., 1:] = _recurrence(p_block, y[..., :-1, -1], c, p_block)
    y += enter[..., None]
    y *= np.exp(j * log_p)
    return y.reshape(x.shape[:-1] + (-1,))[..., :n]


class Lowpass:
    """A :func:`demod_filter` design run as a cascade of first-order
    complex sections (see the module docstring).  Each call filters the
    next chunk of ``(rows, n)`` samples and carries the section states
    over, so chunks fed in turn give the output of the whole trace.

    The zeros are taken to be Butterworth's, all at z = -1.  The partial
    fractions divide by the poles, which demodulate's conditions keep
    near 1 (the band lies below fs / 20)."""

    def __init__(self, zpk, rows: int):
        _, poles, k = zpk
        sections, gains = [], []
        for p in poles[poles.imag >= 0]:
            if p.imag > 0:
                # (1 + w)^2 / ((1 - p w)(1 - conj(p) w)) at unit DC gain
                g = abs(1.0 - p) ** 2 / 4.0
                d = g / abs(p) ** 2
                # 1 - conj(p) / p written as 2i Im(p) / p: the difference
                # cancels to about arg(p)^2 in the real part for a narrow band
                r = g * (1.0 + 1.0 / p) ** 2 * p / (2j * p.imag)
            else:
                # (1 + w) / (1 - p w); half the residue, as 2 Re(y) is used
                p = p.real
                g = (1.0 - p) / 2.0
                d = -g / p
                r = g * (1.0 + 1.0 / p) / 2.0
            sections.append((p, r, d))
            gains.append(g)
        # the gain left over (1 up to rounding) goes to the first section
        p, r, d = sections[0]
        corr = k / math.prod(gains)
        sections[0] = (p, r * corr, d * corr)
        self._sections = sections
        self._states = np.zeros((len(sections), rows), dtype=complex)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        for i, (p, r, d) in enumerate(self._sections):
            y = _recurrence(p, x, self._states[i], r)
            self._states[i] = y[..., -1]
            x = d * x + 2.0 * y.real
        return x


def demodulate(raw: RawTrace, omega: float, bw_3db: float = DEFAULT_BW_3DB,
               order: int = DEFAULT_ORDER,
               dt_out: float = PhysicalParams.dt) -> MeasurementRecord:
    """Mix a trace down from the carrier and low-pass to quadrature records.

    Both branches are mixed with sqrt(2) cos/sin references, filtered with
    the same causal Butterworth low-pass, and decimated by stride to
    ``dt_out``.  Output currents keep the shot-noise normalization of the
    input within the filter band.
    """
    if not omega > 0:
        raise ValueError("omega must be positive")
    f_carrier = omega / (2.0 * math.pi)
    if f_carrier < _MIN_CARRIER_TO_BW * bw_3db:
        raise ValueError("carrier frequency must sit well above bw_3db")
    if raw.fs <= 4.0 * f_carrier:
        raise ValueError("sample rate must exceed four times the carrier")
    if not dt_out > 0:
        raise ValueError(f"dt_out must be positive, got {dt_out}")
    stride_f = raw.fs * dt_out
    stride = int(round(stride_f))
    if stride < 1 or abs(stride_f - stride) > 1e-9 * stride_f:
        raise ValueError("dt_out must be an integer multiple of 1/fs")
    # anti-alias margin for stride decimation
    if bw_3db > 0.25 / dt_out:
        raise ValueError("bw_3db too large for the decimated rate")
    lowpass = Lowpass(demod_filter(bw_3db, order, raw.fs), rows=2)
    if raw.duration < 5.0 / (2.0 * math.pi * bw_3db):
        raise ValueError("trace shorter than the demodulation transient")

    root2 = math.sqrt(2.0)
    out = np.empty((-(-raw.n // stride), 2))
    step = max(1, _CHUNK // stride) * stride
    for lo in range(0, raw.n, step):
        x = raw.samples[lo:lo + step]
        phase = omega * (np.arange(lo, lo + x.shape[0]) / raw.fs)
        y = lowpass(np.stack((x * (root2 * np.cos(phase)),
                              x * (root2 * np.sin(phase)))))
        out[lo // stride:(lo + x.shape[0] - 1) // stride + 1] = \
            y[:, ::stride].T
    return MeasurementRecord(dt=dt_out, currents=out)


def segment(rec: MeasurementRecord, record_len: float,
            discard: float = DEFAULT_DISCARD) -> list[MeasurementRecord]:
    """Drop the transient prefix and chop into fixed-length records.

    Windows are consecutive and non-overlapping; a trailing partial
    window is dropped.  Returns an empty list (with a warning) when the
    input is too short for a single record.
    """
    if not record_len > 0:
        raise ValueError(f"record_len must be positive, got {record_len}")
    if not discard >= 0:
        raise ValueError(f"discard must be non-negative, got {discard}")
    n_skip = int(round(discard / rec.dt))
    n_win = int(round(record_len / rec.dt))
    if n_win < 1:
        raise ValueError("record_len shorter than one sample")
    n_rec = (rec.n - n_skip) // n_win if rec.n > n_skip else 0
    if n_rec < 1:
        warnings.warn("trace too short for one record after discard",
                      stacklevel=2)
        return []
    return [MeasurementRecord(dt=rec.dt, currents=rec.currents[lo:lo + n_win],
                              eta_effective=rec.eta_effective)
            for lo in range(n_skip, n_skip + n_rec * n_win, n_win)]


def _injected(currents: np.ndarray, dt: float, eta_old: float,
              eta_new: float, seed: int) -> np.ndarray:
    """The injection protocol on one record's (n, 2) currents, unchecked:
    a new array, and an exact copy when the efficiencies are equal."""
    sigma2 = eta_old / eta_new - 1.0
    if sigma2 == 0.0:
        return currents.copy()
    sig = math.sqrt(sigma2 / dt)
    scale = 1.0 / math.sqrt(1.0 + sigma2)
    noise = np.random.default_rng(seed).normal(0.0, sig, currents.shape)
    return (currents + noise) * scale


def inject_noise(rec: MeasurementRecord, eta_old: float, eta_new: float,
                 seed: int) -> MeasurementRecord:
    """Reduce the effective detection efficiency by adding white noise.

    Adds independent Gaussian noise of per-sample variance sigma2/dt with
    sigma2 = eta_old/eta_new - 1 to each current, then rescales by
    1/sqrt(1 + sigma2) so the white floor stays at the shot-noise level.
    The signal component shrinks accordingly, exactly as a detector of
    efficiency eta_new would record it.  The noise is one
    ``default_rng(seed)`` normal draw in the record's (n, 2) shape: sample
    by sample, I1's value and then I2's.
    """
    if not 0 < eta_new <= eta_old <= 1:
        raise ValueError("requires 0 < eta_new <= eta_old <= 1")
    if rec.eta_effective is not None and \
            abs(rec.eta_effective - eta_old) > 1e-9:
        raise ValueError(f"eta_old {eta_old} does not match the record's "
                         f"efficiency {rec.eta_effective}")
    currents = _injected(rec.currents, rec.dt, eta_old, eta_new, seed)
    # with noise added, the parent seed no longer reproduces the record
    return MeasurementRecord(rec.dt, currents, eta_effective=eta_new,
                             seed=rec.seed if eta_new == eta_old else None)
