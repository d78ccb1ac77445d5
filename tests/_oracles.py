"""Independent numerical oracles used by the test suite.

The closed-form covariances in the package are validated against
adaptive-step ODE integration of the underlying Riccati flows.  Time is
scaled by gamma before integration so the solver sees O(1) coefficients
regardless of the absolute rates.  The general-covariance Hilbert-Schmidt
distance, itself checked against a Wigner-grid integral, is the reference
for the package's isotropic one.  The injection study and the velocity
autocorrelation are also kept in their whole-array forms, which the
record-blocked study and autocorrelation must reproduce, and so is the
report's main ensemble, whose kept slices the record-blocked one must
reproduce.
The filter and retrofilter recursions are kept in their per-sample forms:
the retrofilter's reproduces the package's bits, the filter's bounds the
rounding of the package's factor-and-offset form.  The stacked kernels
are also kept as they were first written, record-major with per-sample
factors broadcast as ``x[:, None]`` and one stacked step per sample; the
package's time-major chunks and pair-wide factors must reproduce their
bits.  A classical surrogate ensemble, whose hidden state has the record
law of the quantum system, is the Monte Carlo reference of the classical
smoother.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import solve_ivp

from lgqsmooth.estimate import (
    effect_defined,
    effect_means,
    filter_grid,
    filter_means,
    retro_grid,
    retro_info,
)
from lgqsmooth.model import EffectiveParams, v_filter_ss
from lgqsmooth.simulate import (
    TruthEnsemble,
    _check_step,
    _evolve_true,
    _n_steps,
    derive_record_seeds,
    simulate_truth_ensemble,
)
from lgqsmooth.smooth import _terms, combine_arrays


def same_bits(a, b) -> bool:
    """Equal shapes and equal float64 bits, element for element."""
    return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                 b.view(np.uint64))


def gaussian_hs_sq(a: tuple, b: tuple) -> float:
    """Squared Hilbert-Schmidt distance Tr[(rho_a - rho_b)^2] between two
    Gaussian states, each a (mean 2-vector, 2x2 covariance) pair.

    Purity P = 1/sqrt(det V); overlap O = 2 exp(-r^T (Va+Vb)^-1 r / 2)
    / sqrt(det(Va+Vb)) with r the mean difference.
    """
    (mean_a, va), (mean_b, vb) = a, b
    det_a, det_b = np.linalg.det(va), np.linalg.det(vb)
    if det_a <= 0 or det_b <= 0:
        raise ValueError("covariance matrices must be positive definite")
    s = va + vb
    det_s = np.linalg.det(s)
    if det_s <= 1e-300:
        raise ValueError("singular covariance sum")
    r = np.asarray(mean_a, dtype=float) - np.asarray(mean_b, dtype=float)
    overlap = 2.0 * math.exp(-0.5 * float(r @ np.linalg.solve(s, r))) / math.sqrt(det_s)
    # squared norm; tiny negatives are rounding artifacts
    return max(0.0, 1.0 / math.sqrt(det_a) + 1.0 / math.sqrt(det_b) - 2.0 * overlap)


def _sroot(ep: EffectiveParams, mu: float) -> float:
    return float(np.sqrt(1.0 + 16.0 * mu * ep.n_tot))


def probe_times(ep: EffectiveParams, mu: float | None = None) -> np.ndarray:
    """Times spanning the transient of the relevant Riccati flow."""
    if mu is None:
        mu = ep.eta_coop
    s = _sroot(ep, mu)
    scaled = np.array([0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0])
    return scaled / (ep.gamma_eff * s)


def filter_variance_ode(ep: EffectiveParams, times: np.ndarray,
                        v0: float | None = None,
                        mu: float | None = None) -> np.ndarray:
    """Integrate dv/dx = -v + 2 n_tot - 2 mu v^2 in scaled time x = gamma t."""
    if mu is None:
        mu = ep.eta_coop
    n = ep.n_tot
    if v0 is None:
        v0 = 2.0 * n
    x_eval = np.asarray(times) * ep.gamma_eff

    def rhs(_, v):
        return -v + 2.0 * n - 2.0 * mu * v * v

    sol = solve_ivp(rhs, (0.0, float(x_eval[-1]) if x_eval[-1] > 0 else 1e-12),
                    [v0], t_eval=x_eval, method="Radau",
                    rtol=1e-10, atol=1e-12 * max(2.0 * n, 1.0))
    assert sol.success, sol.message
    return sol.y[0]


def retro_precision_ode(ep: EffectiveParams, taus: np.ndarray) -> np.ndarray:
    """Integrate the retrofiltered precision from the exact final condition.

    In reversed scaled time x = gamma (T - t) the effect variance obeys
    dv/dx = v + 2 n_tot - 2 eta C v^2 from an unbounded start; the
    equivalent precision flow dw/dx = 2 eta C - w - 2 n_tot w^2 starts from
    w(0) = 0 exactly and has no singular layer, so it is the cleaner
    independent check of the same solution.
    """
    ec = ep.eta_coop
    n = ep.n_tot
    x_eval = np.asarray(taus) * ep.gamma_eff

    def rhs(_, w):
        return 2.0 * ec - w - 2.0 * n * w * w

    sol = solve_ivp(rhs, (0.0, float(x_eval[-1])), [0.0], t_eval=x_eval,
                    method="Radau", rtol=1e-10, atol=1e-16)
    assert sol.success, sol.message
    return sol.y[0]


def retro_variance_ode_from_big(ep: EffectiveParams, taus: np.ndarray,
                                v_big: float) -> np.ndarray:
    """Variance-space retrofilter flow started from a huge finite variance."""
    ec = ep.eta_coop
    n = ep.n_tot
    x_eval = np.asarray(taus) * ep.gamma_eff

    def rhs(_, v):
        return v + 2.0 * n - 2.0 * ec * v * v

    sol = solve_ivp(rhs, (0.0, float(x_eval[-1])), [v_big], t_eval=x_eval,
                    method="Radau", rtol=1e-10, atol=1e-12 * v_big)
    assert sol.success, sol.message
    return sol.y[0]


def filter_means_reference(currents: np.ndarray, ep: EffectiveParams,
                           v: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """The filter mean update as the model states it, one stacked step per
    sample: m_{k+1} = f m_k + g v_k (I_k dt - g m_k dt)."""
    n = currents.shape[1]
    dt = ep.dt
    f = math.exp(-ep.gamma_eff * dt / 2.0)
    g = math.sqrt(ep.meas_rate)
    means = np.empty((currents.shape[0], n + 1, 2))
    means[:, 0] = m0
    for k in range(n):
        mk = means[:, k]
        means[:, k + 1] = f * mk + g * v[k] * (currents[:, k] * dt
                                               - g * mk * dt)
    return means


def retro_info_reference(currents: np.ndarray, ep: EffectiveParams,
                         w: np.ndarray) -> np.ndarray:
    """The retrofilter's information update as the model states it, one
    stacked step per sample from t_n backward:
    z_k = [1 - (Gamma/2 + 2 Gamma n_tot w_{k+1}) dt] z_{k+1} + g I_k dt."""
    n = currents.shape[1]
    dt = ep.dt
    g = math.sqrt(ep.meas_rate)
    half_g = ep.gamma_eff / 2.0
    drift = 2.0 * ep.gamma_eff * ep.n_tot
    z = np.empty((currents.shape[0], n + 1, 2))
    z[:, n] = 0.0
    for k in range(n - 1, -1, -1):
        decay = 1.0 - (half_g + drift * w[k + 1]) * dt
        z[:, k] = decay * z[:, k + 1] + g * currents[:, k] * dt
    return z


def affine_recurrence_loop(a: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``y[:, k+1] += a[k] y[:, k]`` for k < n, one stacked step at a time
    on the (N, n+1, 2) array as it lies, in place."""
    for k in range(a.shape[0]):
        y[:, k + 1] += a[k] * y[:, k]
    return y


def filter_means_broadcast(currents: np.ndarray, ep: EffectiveParams,
                           v: np.ndarray, m0: np.ndarray) -> np.ndarray:
    """The package's filter mean recursion, with the gain broadcast and
    the recurrence stepped record-major."""
    n = currents.shape[1]
    dt = ep.dt
    f = math.exp(-ep.gamma_eff * dt / 2.0)
    g = math.sqrt(ep.meas_rate)
    gain = g * v[:n]
    means = np.empty((currents.shape[0], n + 1, 2))
    means[:, 0] = m0
    np.multiply(currents, dt, out=means[:, 1:])
    means[:, 1:] *= gain[:, None]
    return affine_recurrence_loop(f - gain * (g * dt), means)


def retro_info_broadcast(currents: np.ndarray, ep: EffectiveParams,
                         w: np.ndarray) -> np.ndarray:
    """The package's information-vector recursion, stepped record-major
    on the time-reversed view."""
    n = currents.shape[1]
    dt = ep.dt
    g = math.sqrt(ep.meas_rate)
    decay = 1.0 - (ep.gamma_eff / 2.0
                   + 2.0 * ep.gamma_eff * ep.n_tot * w[1:n + 1]) * dt
    z = np.empty((currents.shape[0], n + 1, 2))
    z[:, n] = 0.0
    np.multiply(currents, g, out=z[:, :n])
    z[:, :n] *= dt
    affine_recurrence_loop(decay[::-1], z[:, ::-1])
    return z


def effect_means_broadcast(w: np.ndarray, z: np.ndarray,
                           ep: EffectiveParams) -> np.ndarray:
    """z/w with w and the defined mask broadcast, NaN where undefined."""
    out = np.full(z.shape, np.nan)
    np.divide(z, w[:, None], out=out, where=effect_defined(w, ep)[:, None])
    return out


def combine_arrays_broadcast(v_f: np.ndarray, m_f: np.ndarray, w: np.ndarray,
                             z: np.ndarray, v_tar: float
                             ) -> tuple[np.ndarray, np.ndarray]:
    """The smoothing combination with each per-sample term broadcast:
    p_S (info_F m_F + z / (1 + w v_tar)), m_F where the mask copies."""
    copy, info_f, denom, p_s, v_s = _terms(v_f, w, v_tar)
    m_s = p_s[:, None] * (info_f[:, None] * m_f + z / denom[:, None])
    return v_s, np.where(copy[:, None], m_f, m_s)


def injection_study_whole(ep: EffectiveParams, eta_new: float,
                          n_records: int, base_seed: int, inject_seed: int,
                          window: float = 1e-3,
                          warmup_records: int = 3) -> dict:
    """The injection study on whole arrays: one ensemble over warm-up and
    window, the clean filter over all of it, then the window sliced out.

    Returns the arrays of ``pipeline.InjectionStudy`` by field name."""
    ep_new = dataclasses.replace(ep, eta=eta_new)
    total = warmup_records * ep.record_duration + window
    n_total = int(round(total / ep.dt))
    n_win = int(round(window / ep.dt))
    currents = simulate_truth_ensemble(ep, total, n_records,
                                       base_seed).currents
    _, v_clean = filter_grid(ep, n_total)
    m_clean = filter_means(currents, ep, v_clean, np.zeros((n_records, 2)))
    win = currents[:, n_total - n_win:, :]
    sigma2 = ep.eta / eta_new - 1.0
    scale = 1.0 / math.sqrt(1.0 + sigma2)
    sig = math.sqrt(sigma2 / ep.dt)
    injected = np.empty_like(win)
    for i, s in enumerate(derive_record_seeds(inject_seed, n_records)):
        rng = np.random.default_rng(int(s))
        injected[i] = (win[i] + rng.normal(0.0, sig, win[i].shape)) * scale
    times, v_f = filter_grid(ep_new, n_win)
    _, w = retro_grid(ep_new, n_win)
    m_f = filter_means(injected, ep_new, v_f, np.zeros((n_records, 2)))
    z = retro_info(injected, ep_new, w)
    v_tar = v_filter_ss(ep)
    v_s, m_s = combine_arrays(v_f, m_f, w, z, v_tar)
    v_cs, m_cs = combine_arrays(v_f, m_f, w, z, 0.0)
    return dict(times=times, m_ltl=m_clean[:, n_total - n_win:], v_f=v_f,
                m_f=m_f, w=w, v_s=v_s, m_s=m_s, v_cs=v_cs, m_cs=m_cs)


def main_arrays_whole(ep: EffectiveParams, n_records: int,
                      base_seed: int):
    """The report's main ensemble on whole stacks: truth means, time grid
    and kind -> (means (N, n+1, 2), vw) for the five conditioning kinds."""
    ens = simulate_truth_ensemble(ep, ep.record_duration, n_records,
                                  base_seed)
    n = ens.currents.shape[1]
    times, v_f = filter_grid(ep, n)
    _, w = retro_grid(ep, n)
    m_f = filter_means(ens.currents, ep, v_f, np.zeros((n_records, 2)))
    z = retro_info(ens.currents, ep, w)
    stacks = {"Filtered": (m_f, v_f)}
    for kind, v_tar in (("SmoothedLTL", v_filter_ss(ep)),
                        ("SmoothedTrue", 1.0), ("ClassicalSmoothed", 0.0)):
        v, m = combine_arrays(v_f, m_f, w, z, v_tar)
        stacks[kind] = (m, v)
    stacks["Retrofiltered"] = (effect_means(w, z, ep), w)
    return ens.means, times, stacks


def velocity_acov_whole(means: np.ndarray, dt: float,
                        max_lag: int) -> np.ndarray:
    """Every record's velocity autocovariance, (N, max_lag+1, 2), all
    records in one transform and held whole; the power spectrum is
    ``np.conj(f) * f``, whose operand order numpy keeps at any size."""
    n = means.shape[1] - 1
    size = 1 << (2 * n - 1).bit_length()
    f = np.fft.rfft(np.diff(means, axis=1) / dt, size, axis=1)
    return np.fft.irfft(np.conj(f) * f, size, axis=1)[:, :max_lag + 1].copy()


def acf_biased_whole(means: np.ndarray, dt: float,
                     max_lag: int) -> np.ndarray:
    """Velocity autocovariance of (N, n+1, 2) means, all records in one
    transform, averaged over records and components."""
    n = means.shape[1] - 1
    return velocity_acov_whole(means, dt, max_lag).mean(axis=(0, 2)) / n


# Wiener-increment columns of a surrogate record: process pair, measurement
# pair
_SURR_COLS = 4


def simulate_surrogate_ensemble(ep: EffectiveParams, duration: float,
                                n_records: int,
                                base_seed: int) -> TruthEnsemble:
    """Classical Ornstein-Uhlenbeck surrogate with the same record law.

    The hidden state is an OU process with the system drift and diffusion;
    the record adds independent measurement noise.  First and second
    moments (and spectra) of the currents match the true-state generator,
    which is what makes the filtering problem classically equivalent.  Each
    record draws its initial state, then one ``(n, 4)`` block of process
    and measurement increments; the states evolve as the true means do, so
    the ensemble's ``means`` are the hidden states.
    """
    _check_step(ep)
    n = _n_steps(ep, duration)
    seeds = derive_record_seeds(base_seed, n_records)
    g_proc = math.sqrt(2.0 * ep.gamma_eff * ep.n_tot)
    means = np.empty((n_records, n + 1, 2))
    currents = np.empty((n_records, n, 2))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(int(s))
        means[i, 0] = rng.normal(0.0, math.sqrt(ep.sigma2_uncon), 2)
        dw = rng.normal(0.0, math.sqrt(ep.dt), (n, _SURR_COLS))
        np.multiply(dw[:, 0:2], g_proc, out=means[i, 1:])
        np.divide(dw[:, 2:4], ep.dt, out=currents[i])
    _evolve_true(means, currents, ep)
    return TruthEnsemble(np.arange(n + 1) * ep.dt, means, currents, seeds,
                         ep.dt, ep.eta)
