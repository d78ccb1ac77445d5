"""Synthetic measurement records with ground-truth mean trajectories.

Sampling conventions shared with the estimators:

* Record sample ``I_j(t_k)``, ``k = 0..n-1``, covers ``[t_k, t_k + dt)``:
  ``I_j(t_k) dt = sqrt(2 eta Gamma C) <X_j>(t_k) dt + dW_j`` with the Wiener
  increment of variance dt.  Currents therefore carry per-sample variance
  1/dt (unit spectral density, the shot-noise normalization).
* A record's currents are one (n, 2) array, row k ``(I_1, I_2)(t_k)``,
  so a member of an ensemble's (N, n, 2) currents is a record as it is.
* State trajectories span ``t_0 .. t_n`` (n+1 points for n samples).
* The mean's linear drift is applied through the exact factor
  ``exp(-Gamma dt / 2)`` each step; only the measurement/noise kicks are
  Euler increments, which removes discretization bias in the slow decay.

Per-record randomness is a fixed draw sequence from a dedicated
``numpy.random.Generator``: initial mean first, then one ``(n, k)`` block of
Wiener increments.  The stacked ensemble helpers replay exactly that
sequence for each member, so an ensemble slice is bit-identical to the
record generated alone from the same seed.

True states are generated by one stream, :func:`truth_stream`, which
yields the stacked ensemble as consecutive time blocks.  It carries each
record's generator and last true mean from one block to the next; drawing
``(b, k)`` increments block after block consumes a generator exactly as one
``(n, k)`` draw, and the mean recursion (:func:`_affine_recurrence`, which
the estimators share) is sequential in time, so the blocks concatenate to
the bits of a single-block run.  A long ensemble
whose early samples are only a warm-up then never has to be held whole.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .model import EffectiveParams, relaxation_rate

# Wiener-increment column layouts
_TRUE_COLS = 6       # observed pair, unobserved optical pair, thermal pair

# time steps per chunk of the stacked recurrence: 16 to 128 run equally
# fast on (256, 751, 2); the chunk buffer stays cache-sized
_CHUNK = 64


class NumericalError(ValueError):
    """Numerical failure or non-finite value; the message names the sample."""


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled quadrature currents in shot-noise-normalized units.

    ``currents`` (n, 2) holds sample k's pair (I1, I2) in row k, the
    layout the filters and the ``.bin`` format share; every value is
    finite, so no consumer checks a record again.  ``eta_effective``
    is the detection efficiency the record statistics correspond to (None
    when unknown, e.g. demodulated external data); ``seed`` is the
    generating RNG seed when the record is synthetic.
    """

    dt: float
    currents: np.ndarray
    eta_effective: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        currents = np.asarray(self.currents, dtype=float)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if currents.ndim != 2 or currents.shape[1] != 2:
            raise ValueError("currents must be an (n, 2) array, got shape "
                             f"{currents.shape}")
        if not np.isfinite(currents).all():
            k = int(np.flatnonzero(~np.isfinite(currents).all(axis=1))[0])
            raise NumericalError(f"non-finite record value at sample {k}")
        object.__setattr__(self, "currents", currents)

    @property
    def n(self) -> int:
        return self.currents.shape[0]

    @property
    def duration(self) -> float:
        return self.n * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt


@dataclass(frozen=True)
class TruthBundle:
    """A record together with the true mean trajectory that produced it."""

    times: np.ndarray
    true_mean: np.ndarray
    record: MeasurementRecord


@dataclass(frozen=True)
class TruthEnsemble:
    """Stacked records and the states behind them: means (N, n+1, 2), the
    true means or a surrogate's hidden states, and currents (N, n, 2)."""

    times: np.ndarray
    means: np.ndarray
    currents: np.ndarray
    seeds: np.ndarray
    dt: float
    eta: float

    @property
    def n_records(self) -> int:
        return self.means.shape[0]

    def record(self, i: int) -> MeasurementRecord:
        return MeasurementRecord(self.dt, self.currents[i], self.eta,
                                 int(self.seeds[i]))


# ---------------------------------------------------------------------------
# Seeds and step counts
# ---------------------------------------------------------------------------

def derive_record_seeds(base_seed: int, n_records: int) -> np.ndarray:
    """Deterministic per-record seeds from a base seed.

    Counter-derived words from the seed sequence, truncated to 63 bits so
    they round-trip through signed storage.
    """
    if n_records < 0:
        raise ValueError("n_records must be nonnegative")
    words = np.random.SeedSequence(base_seed).generate_state(
        max(n_records, 1), dtype=np.uint64)
    return (words >> np.uint64(1))[:n_records].astype(np.int64)


def _check_step(ep: EffectiveParams) -> None:
    # the true state's flow is the fastest of the conditioning flows
    step = ep.dt * relaxation_rate(ep, ep.coop_eff + ep.n_th_eff)
    if step > 0.1:
        raise ValueError("dt too large for a faithful discretization: "
                         f"dt * rate = {step:.3g} > 0.1")


def _n_steps(ep: EffectiveParams, duration: float) -> int:
    if duration < ep.dt:
        raise ValueError("duration must be at least one sample period")
    return int(round(duration / ep.dt))


# ---------------------------------------------------------------------------
# True-state generator (full heterodyne unravelling of all baths)
# ---------------------------------------------------------------------------

def _draw_initial(rng: np.random.Generator, ep: EffectiveParams) -> np.ndarray:
    """A record's initial mean, its generator's first draw."""
    return rng.normal(0.0, math.sqrt(max(ep.sigma2_uncon - 1.0, 0.0)), 2)


def _draw_kicks(rng: np.random.Generator, ep: EffectiveParams,
                kicks: np.ndarray, noise: np.ndarray) -> None:
    """Draw the state kicks (b, 2) and record noise (b, 2) of the next b
    samples straight into ``kicks`` and ``noise``.

    The three Wiener pairs are reduced at once, so an ensemble never holds
    all of its (b, 6) increments.
    """
    dw = rng.normal(0.0, math.sqrt(ep.dt), (kicks.shape[0], _TRUE_COLS))
    g_obs = math.sqrt(ep.meas_rate)
    g_u1 = math.sqrt(2.0 * (1.0 - ep.eta) * ep.gamma_eff * ep.coop_eff)
    g_u2 = math.sqrt(2.0 * ep.gamma_eff * ep.n_th_eff)
    # true covariance held at its stationary value 1, so kicks carry unit v;
    # summed as (g_obs dw_0 + g_u1 dw_1) + g_u2 dw_2
    np.multiply(dw[:, 0:2], g_obs, out=kicks)
    kicks += g_u1 * dw[:, 2:4]
    kicks += g_u2 * dw[:, 4:6]
    np.divide(dw[:, 0:2], ep.dt, out=noise)


def _affine_recurrence(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y[:, k+1] = a[k] y[:, k] + y[:, k+1]`` for k < n, in place.

    ``y`` (N, n+1, 2) holds the start, then the offsets; it may be a
    time-reversed view.  A stack is recursed time-major, in chunks of
    ``_CHUNK`` steps: each chunk's samples are copied, as one complex128
    per (x1, x2) pair, into an (m+1, N) buffer whose step k is contiguous
    across records, stepped there, and copied back.  The pair view is only
    ever copied, and each element sees the step it would see in place, so
    the bits are those of the record-major loop.  One record is recursed
    on Python floats, read and written through a memoryview, with the same
    IEEE operations as a stacked row, so its bits are that row's.
    Strictly sequential, so no bit depends on where a block or a chunk
    starts.
    """
    if y.shape[0] == 1:
        # a view of y unless y is reversed; then a copy, written back below
        row = np.ascontiguousarray(y[0]).reshape(-1)
        m = memoryview(row)
        x1, x2 = m[0], m[1]
        j = 2
        for c in memoryview(np.ascontiguousarray(a)):
            x1 = c * x1 + m[j]
            x2 = c * x2 + m[j + 1]
            m[j], m[j + 1] = x1, x2
            j += 2
        y[0] = row.reshape(-1, 2)
        return y
    n = a.shape[0]
    # the last axis stays contiguous in a reversed view, so pairs are too
    pairs = y.view(np.complex128)[..., 0]
    buf = np.empty((min(n, _CHUNK) + 1, y.shape[0]), np.complex128)
    # a chunk's step j as one contiguous float64 row over all records
    rows = list(buf.view(np.float64))
    step = np.empty_like(rows[0])
    for k0 in range(0, n, _CHUNK):
        m = min(n - k0, _CHUNK)
        buf[:m + 1] = pairs[:, k0:k0 + m + 1].T
        for c, prev, cur in zip(a[k0:k0 + m].tolist(), rows, rows[1:]):
            np.multiply(prev, c, out=step)
            cur += step
        pairs[:, k0 + 1:k0 + m + 1] = buf[1:m + 1].T
    return y


def _evolve_true(means: np.ndarray, currents: np.ndarray,
                 ep: EffectiveParams) -> tuple[np.ndarray, np.ndarray]:
    """Stacked true means and currents, in place: ``means`` (N, n+1, 2)
    holds the start, then the kicks; ``currents`` (N, n, 2) holds the
    record noise, to which each record's mean leakage is added."""
    n = currents.shape[1]
    f = math.exp(-ep.gamma_eff * ep.dt / 2.0)
    g_obs = math.sqrt(ep.meas_rate)
    _affine_recurrence(np.full(n, f), means)
    # one record at a time, so no (N, n, 2) temporary is made
    for row, mean in zip(currents, means):
        row += g_obs * mean[:n]
    return means, currents


def truth_stream(ep: EffectiveParams, seeds: Sequence, steps: Iterable[int]
                 ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Stacked true means and records, one time block at a time.

    One record per seed in ``seeds``, drawn from its own
    ``np.random.default_rng(seed)``.  For each block length b in
    ``steps`` it yields ``(times, means, currents)``: the block's b+1 grid
    times, means (N, b+1, 2) starting from the previous block's last mean,
    and currents (N, b, 2).  The generators and that last mean are the only
    state carried between blocks, and the concatenated blocks (each
    block's first mean dropped after the first) are bit-identical to one
    block over all the samples.
    """
    _check_step(ep)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    mean = np.array([_draw_initial(rng, ep) for rng in rngs]).reshape(-1, 2)
    lo = 0
    for b in steps:
        means = np.empty((len(rngs), b + 1, 2))
        currents = np.empty((len(rngs), b, 2))
        means[:, 0] = mean
        for i, rng in enumerate(rngs):
            _draw_kicks(rng, ep, means[i, 1:], currents[i])
        _evolve_true(means, currents, ep)
        yield np.arange(lo, lo + b + 1) * ep.dt, means, currents
        mean = means[:, b].copy()
        lo += b


def simulate_true_and_record(ep: EffectiveParams, duration: float,
                             seed: int | None = None) -> TruthBundle:
    """Simulate the true state under monitoring of all baths plus its record.

    The true mean diffuses under three independent Wiener pairs (observed
    optical, unobserved optical, thermal); the record shares the observed
    pair, which is what correlates record noise with the state kick.  The
    initial mean is drawn from the stationary distribution
    N(0, (2 n_tot - 1) I) so the unconditional marginal is exact.
    """
    n = _n_steps(ep, duration)
    times, means, currents = next(truth_stream(ep, [seed], [n]))
    return TruthBundle(times, means[0],
                       MeasurementRecord(ep.dt, currents[0], ep.eta, seed))


def simulate_truth_ensemble(ep: EffectiveParams, duration: float,
                            n_records: int, base_seed: int) -> TruthEnsemble:
    """Stacked ensemble of independent truth bundles.

    The one-block case of :func:`truth_stream`.  Each member replays the
    exact draw sequence of :func:`simulate_true_and_record` under its
    counter-derived seed, so slices are bit-identical to individually
    generated records.
    """
    n = _n_steps(ep, duration)
    seeds = derive_record_seeds(base_seed, n_records)
    times, means, currents = next(truth_stream(ep, seeds, [n]))
    return TruthEnsemble(times, means, currents, seeds, ep.dt, ep.eta)


# ---------------------------------------------------------------------------
# Raw-trace synthesis (round-trip driver for the ingest pipeline)
# ---------------------------------------------------------------------------

def synthesize_raw(record: MeasurementRecord, omega: float, fs: float,
                   seed: int):
    """Modulate a quadrature record onto a carrier plus unit shot noise.

    raw(t) = I1(t) sqrt(2) cos(omega t) + I2(t) sqrt(2) sin(omega t) + xi(t),
    sampled at fs with the record held zero-order; xi is white with
    per-sample variance fs (unit spectral density), matching the
    shot-noise normalization the demodulator expects.  The amplitude
    convention makes demodulation recover I1, I2 at unit gain.  ``seed``
    seeds the noise generator.
    """
    if fs <= 4.0 * omega / (2.0 * math.pi):
        raise ValueError("fs must exceed four times the carrier frequency")
    if omega <= 0:
        raise ValueError("omega must be positive for carrier synthesis")

    from .ingest import RawTrace  # deferred: ingest imports this module

    n_raw = int(round(record.n * record.dt * fs))
    t = np.arange(n_raw) / fs
    idx = np.minimum((t / record.dt + 1e-9).astype(int), record.n - 1)
    signal = (record.currents[idx, 0] * math.sqrt(2.0) * np.cos(omega * t)
              + record.currents[idx, 1] * math.sqrt(2.0) * np.sin(omega * t))
    noise = np.random.default_rng(seed).normal(0.0, math.sqrt(fs), n_raw)
    return RawTrace(fs=fs, samples=signal + noise)
