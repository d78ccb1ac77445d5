"""Synthetic measurement records with ground-truth mean trajectories.

Sampling conventions shared with the estimators:

* Record sample ``I_j(t_k)``, ``k = 0..n-1``, covers ``[t_k, t_k + dt)``:
  ``I_j(t_k) dt = sqrt(2 eta Gamma C) <X_j>(t_k) dt + dW_j`` with the Wiener
  increment of variance dt.  Currents therefore carry per-sample variance
  1/dt (unit spectral density, the shot-noise normalization).
* State trajectories span ``t_0 .. t_n`` (n+1 points for n samples).
* The mean's linear drift is applied through the exact factor
  ``exp(-Gamma dt / 2)`` each step; only the measurement/noise kicks are
  Euler increments, which removes discretization bias in the slow decay.

Per-record randomness is a fixed draw sequence from a dedicated
``numpy.random.Generator``: initial mean first, then one ``(n, k)`` block of
Wiener increments.  The stacked ensemble helpers replay exactly that
sequence for each member, so an ensemble slice is bit-identical to the
record generated alone from the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import EffectiveParams

# Wiener-increment column layouts
_TRUE_COLS = 6       # observed pair, unobserved optical pair, thermal pair
_SURR_COLS = 4       # process pair, measurement pair


@dataclass(frozen=True)
class MeasurementRecord:
    """Sampled quadrature currents in shot-noise-normalized units.

    ``eta_effective`` is the detection efficiency the record statistics
    correspond to (None when unknown, e.g. demodulated external data);
    ``seed`` is the generating RNG seed when the record is synthetic.
    """

    dt: float
    i1: np.ndarray
    i2: np.ndarray
    eta_effective: float | None = None
    seed: int | None = None

    def __post_init__(self) -> None:
        i1 = np.asarray(self.i1, dtype=float)
        i2 = np.asarray(self.i2, dtype=float)
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and positive, got {self.dt}")
        if i1.ndim != 1 or i1.shape != i2.shape:
            raise ValueError("i1 and i2 must be 1-d arrays of equal length")
        object.__setattr__(self, "i1", i1)
        object.__setattr__(self, "i2", i2)

    @property
    def n(self) -> int:
        return self.i1.shape[0]

    @property
    def duration(self) -> float:
        return self.n * self.dt

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n) * self.dt

    @property
    def currents(self) -> np.ndarray:
        """Samples stacked as an (n, 2) array."""
        return np.stack([self.i1, self.i2], axis=-1)


@dataclass(frozen=True)
class TruthBundle:
    """A record together with the true mean trajectory that produced it."""

    times: np.ndarray
    true_mean: np.ndarray
    record: MeasurementRecord


@dataclass(frozen=True)
class TruthEnsemble:
    """Stacked truth bundles: means (N, n+1, 2), currents (N, n, 2)."""

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
        return MeasurementRecord(self.dt, self.currents[i, :, 0],
                                 self.currents[i, :, 1], self.eta,
                                 int(self.seeds[i]))


@dataclass(frozen=True)
class SurrogateEnsemble:
    """Stacked surrogate draws: hidden states (N, n+1, 2), currents (N, n, 2)."""

    times: np.ndarray
    hidden: np.ndarray
    currents: np.ndarray
    seeds: np.ndarray
    dt: float
    eta: float

    @property
    def n_records(self) -> int:
        return self.hidden.shape[0]

    def record(self, i: int) -> MeasurementRecord:
        return MeasurementRecord(self.dt, self.currents[i, :, 0],
                                 self.currents[i, :, 1], self.eta,
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


def stability_rate(ep: EffectiveParams) -> float:
    """Fastest Riccati relaxation rate among the conditioning flows (1/s)."""
    mu = ep.coop_eff + ep.n_th_eff
    return ep.gamma_eff * math.sqrt(1.0 + 16.0 * mu * ep.n_tot)


def _check_step(ep: EffectiveParams) -> None:
    if ep.dt * stability_rate(ep) > 0.1:
        raise ValueError(
            "dt too large for a faithful discretization: "
            f"dt * rate = {ep.dt * stability_rate(ep):.3g} > 0.1")


def _n_steps(ep: EffectiveParams, duration: float) -> int:
    if duration < ep.dt:
        raise ValueError("duration must be at least one sample period")
    return int(round(duration / ep.dt))


# ---------------------------------------------------------------------------
# True-state generator (full heterodyne unravelling of all baths)
# ---------------------------------------------------------------------------

def _draw_true(rng: np.random.Generator, n: int, ep: EffectiveParams
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Initial mean, state kicks (n, 2) and record noise (n, 2) of a record.

    The three Wiener pairs are reduced at once, so an ensemble never holds
    all of its (n, 6) increments.
    """
    scale0 = math.sqrt(max(ep.sigma2_uncon - 1.0, 0.0))
    m0 = rng.normal(0.0, scale0, 2)
    dw = rng.normal(0.0, math.sqrt(ep.dt), (n, _TRUE_COLS))
    g_obs = math.sqrt(ep.meas_rate)
    g_u1 = math.sqrt(2.0 * (1.0 - ep.eta) * ep.gamma_eff * ep.coop_eff)
    g_u2 = math.sqrt(2.0 * ep.gamma_eff * ep.n_th_eff)
    # true covariance held at its stationary value 1, so kicks carry unit v
    kicks = g_obs * dw[:, 0:2] + g_u1 * dw[:, 2:4] + g_u2 * dw[:, 4:6]
    return m0, kicks, dw[:, 0:2] / ep.dt


def _evolve_true(m0: np.ndarray, kicks: np.ndarray, noise: np.ndarray,
                 ep: EffectiveParams) -> tuple[np.ndarray, np.ndarray]:
    """Stacked true means and currents; ``noise`` becomes the currents."""
    n = kicks.shape[1]
    f = math.exp(-ep.gamma_eff * ep.dt / 2.0)
    g_obs = math.sqrt(ep.meas_rate)
    means = np.empty((m0.shape[0], n + 1, 2))
    means[:, 0] = m0
    for k in range(n):
        means[:, k + 1] = f * means[:, k] + kicks[:, k]
    noise += g_obs * means[:, :n]
    return means, noise


def simulate_true_and_record(ep: EffectiveParams, duration: float,
                             seed: int | None = None) -> TruthBundle:
    """Simulate the true state under monitoring of all baths plus its record.

    The true mean diffuses under three independent Wiener pairs (observed
    optical, unobserved optical, thermal); the record shares the observed
    pair, which is what correlates record noise with the state kick.  The
    initial mean is drawn from the stationary distribution
    N(0, (2 n_tot - 1) I) so the unconditional marginal is exact.
    """
    _check_step(ep)
    n = _n_steps(ep, duration)
    rng = np.random.default_rng(seed)
    m0, kicks, noise = _draw_true(rng, n, ep)
    means, currents = _evolve_true(m0[None], kicks[None], noise[None], ep)
    record = MeasurementRecord(ep.dt, currents[0, :, 0], currents[0, :, 1],
                               ep.eta, seed)
    times = np.arange(n + 1) * ep.dt
    return TruthBundle(times, means[0], record)


def simulate_truth_ensemble(ep: EffectiveParams, duration: float,
                            n_records: int, base_seed: int) -> TruthEnsemble:
    """Stacked ensemble of independent truth bundles.

    Each member replays the exact draw sequence of
    :func:`simulate_true_and_record` under its counter-derived seed, so
    slices are bit-identical to individually generated records.
    """
    _check_step(ep)
    n = _n_steps(ep, duration)
    seeds = derive_record_seeds(base_seed, n_records)
    m0 = np.empty((n_records, 2))
    kicks = np.empty((n_records, n, 2))
    noise = np.empty((n_records, n, 2))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        m0[i], kicks[i], noise[i] = _draw_true(rng, n, ep)
    means, currents = _evolve_true(m0, kicks, noise, ep)
    times = np.arange(n + 1) * ep.dt
    return TruthEnsemble(times, means, currents, seeds, ep.dt, ep.eta)


# ---------------------------------------------------------------------------
# Classical surrogate generator (identical record statistics)
# ---------------------------------------------------------------------------

def _draw_surrogate(rng: np.random.Generator, n: int,
                    ep: EffectiveParams) -> tuple[np.ndarray, np.ndarray]:
    x0 = rng.normal(0.0, math.sqrt(ep.sigma2_uncon), 2)
    dw = rng.normal(0.0, math.sqrt(ep.dt), (n, _SURR_COLS))
    return x0, dw


def _evolve_surrogate(x0: np.ndarray, dw: np.ndarray,
                      ep: EffectiveParams) -> tuple[np.ndarray, np.ndarray]:
    n = dw.shape[1]
    g, dt = ep.gamma_eff, ep.dt
    f = math.exp(-g * dt / 2.0)
    g_proc = math.sqrt(2.0 * g * ep.n_tot)
    g_obs = math.sqrt(ep.meas_rate)
    hidden = np.empty((x0.shape[0], n + 1, 2))
    hidden[:, 0] = x0
    for k in range(n):
        hidden[:, k + 1] = f * hidden[:, k] + g_proc * dw[:, k, 0:2]
    currents = g_obs * hidden[:, :n] + dw[:, :, 2:4] / dt
    return hidden, currents


def simulate_surrogate_record(ep: EffectiveParams, duration: float,
                              seed: int | None = None
                              ) -> tuple[np.ndarray, MeasurementRecord]:
    """Classical Ornstein-Uhlenbeck surrogate with the same record law.

    The hidden state is an OU process with the system drift and diffusion;
    the record adds independent measurement noise.  First and second
    moments (and spectra) of the currents match the true-state generator,
    which is what makes the filtering problem classically equivalent.
    """
    _check_step(ep)
    n = _n_steps(ep, duration)
    rng = np.random.default_rng(seed)
    x0, dw = _draw_surrogate(rng, n, ep)
    hidden, currents = _evolve_surrogate(x0[None], dw[None], ep)
    record = MeasurementRecord(ep.dt, currents[0, :, 0], currents[0, :, 1],
                               ep.eta, seed)
    return hidden[0], record


def simulate_surrogate_ensemble(ep: EffectiveParams, duration: float,
                                n_records: int,
                                base_seed: int) -> SurrogateEnsemble:
    """Stacked ensemble of surrogate records (see simulate_truth_ensemble)."""
    _check_step(ep)
    n = _n_steps(ep, duration)
    seeds = derive_record_seeds(base_seed, n_records)
    x0 = np.empty((n_records, 2))
    dw = np.empty((n_records, n, _SURR_COLS))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        x0[i], dw[i] = _draw_surrogate(rng, n, ep)
    hidden, currents = _evolve_surrogate(x0, dw, ep)
    times = np.arange(n + 1) * ep.dt
    return SurrogateEnsemble(times, hidden, currents, seeds, ep.dt, ep.eta)


# ---------------------------------------------------------------------------
# Raw-trace synthesis (round-trip driver for the ingest pipeline)
# ---------------------------------------------------------------------------

def synthesize_raw(record: MeasurementRecord, omega: float, fs: float,
                   seed: int | None = None):
    """Modulate a quadrature record onto a carrier plus unit shot noise.

    raw(t) = I1(t) sqrt(2) cos(omega t) + I2(t) sqrt(2) sin(omega t) + xi(t),
    sampled at fs with the record held zero-order; xi is white with
    per-sample variance fs (unit spectral density), matching the
    shot-noise normalization the demodulator expects.  The amplitude
    convention makes demodulation recover I1, I2 at unit gain.

    The noise seed defaults to a value derived from the record's own seed.
    """
    if fs <= 4.0 * omega / (2.0 * math.pi):
        raise ValueError("fs must exceed four times the carrier frequency")
    if omega <= 0:
        raise ValueError("omega must be positive for carrier synthesis")

    from .ingest import RawTrace  # deferred: ingest imports this module

    n_raw = int(round(record.n * record.dt * fs))
    t = np.arange(n_raw) / fs
    idx = np.minimum((t / record.dt + 1e-9).astype(int), record.n - 1)
    signal = (record.i1[idx] * math.sqrt(2.0) * np.cos(omega * t)
              + record.i2[idx] * math.sqrt(2.0) * np.sin(omega * t))
    if seed is None and record.seed is not None:
        entropy = np.random.SeedSequence((record.seed, 0x7261))
    else:
        entropy = np.random.SeedSequence(seed)
    rng = np.random.default_rng(entropy)
    noise = rng.normal(0.0, math.sqrt(fs), n_raw)
    return RawTrace(fs=fs, samples=signal + noise, shot_level=fs)
