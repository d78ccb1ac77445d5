"""Forward filtering and backward retrofiltering of measurement records.

Covariances are never recursed: they come from the closed forms in
:mod:`lgqsmooth.model`, evaluated on the sample grid, which removes
discretization error from the second moments.  Only the means (and the
effect information vector) are recursed per sample.

Conditioning convention: the filtered state at ``t_k`` uses samples
``I_0 .. I_{k-1}`` (the record over ``[0, t_k)``); the retrofiltered effect
at ``t_k`` uses samples ``I_k .. I_{n-1}`` (the record over ``[t_k, T)``).
Both trajectories therefore have n+1 points for an n-sample record, and
their time grids align for smoothing.

The mean update per sample uses the exact exponential drift f = exp(-Gamma
dt/2) and the covariance at the beginning of the step, f m_k + g v(t_k)
(I_k dt - g m_k dt) with g = sqrt(2 eta Gamma C), collected as

    m_{k+1} = [f - g v(t_k) g dt] m_k + g v(t_k) I_k dt

The retrofiltered effect is propagated in information form (precision w,
information vector z = w * mean), backward from the uninformative final
condition z(T) = 0, w(T) = 0:

    z_k = [1 - (Gamma/2 + 2 Gamma n_tot w(t_{k+1})) dt] z_{k+1} + g I_k dt

so no retrofiltered quantity is ever stored as an unbounded variance.

Both are first-order affine recurrences over stacked records (leading
axis = ensemble member) run by :func:`lgqsmooth.simulate._affine_recurrence`,
the retrofilter's on time-reversed views.  The arrays stay record-major,
(N, n+1, 2); the recurrence steps a stack time-major inside the kernel, in
chunks of 64 steps moved as (x1, x2) pair copies, with the bits of the
step-by-step loop.  Per-sample factors (gain, precision, copy masks) are
applied pair-wide, as (n, 2) arrays with each value repeated for both
quadratures (:func:`_pair_wide`), so no operand is broadcast along the
trailing axis of 2.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import math
import numpy as np

from .model import (
    EffectiveParams,
    retro_precision,
    retro_precision_ss,
    v_filter,
    v_filter_ss,
)
from .simulate import MeasurementRecord, _affine_recurrence

KINDS = ("Filtered", "Retrofiltered", "LTL", "SmoothedLTL", "SmoothedTrue",
         "ClassicalSmoothed")
STATE_KINDS = tuple(k for k in KINDS if k != "Retrofiltered")

# below this fraction of the steady-state precision the effect mean is
# reported as undefined (NaN) rather than divided out
W_MIN_FRACTION = 1e-12


@dataclass(frozen=True)
class Trajectory:
    """Aligned per-time Gaussian states (or effects) of one conditioning kind.

    ``vw`` holds the scalar covariance v for state kinds and the precision w
    for kind "Retrofiltered"; ``info`` carries the effect information vector
    z for the retrofiltered kind (None otherwise).  ``mean`` for the
    retrofiltered kind is z/w where the precision is meaningful and NaN
    elsewhere.
    """

    times: np.ndarray
    mean: np.ndarray
    vw: np.ndarray
    kind: str
    info: np.ndarray | None = None
    converged: bool = True

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        mean = np.asarray(self.mean, dtype=float)
        vw = np.asarray(self.vw, dtype=float)
        if self.kind not in KINDS:
            raise ValueError(f"unknown trajectory kind: {self.kind!r}")
        if times.ndim != 1 or np.any(np.diff(times) <= 0):
            raise ValueError("times must be strictly increasing")
        if mean.shape != (times.shape[0], 2) or vw.shape != times.shape:
            raise ValueError("mean/vw shapes inconsistent with times")
        if (self.info is not None) != (self.kind == "Retrofiltered"):
            raise ValueError("info is carried exactly by retrofiltered trajectories")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "vw", vw)
        if self.info is not None:
            info = np.asarray(self.info, dtype=float)
            if info.shape != mean.shape:
                raise ValueError("info shape inconsistent")
            object.__setattr__(self, "info", info)


def _check_record(rec: MeasurementRecord, ep: EffectiveParams, module: str) -> None:
    if rec.eta_effective is not None and abs(rec.eta_effective - ep.eta) > 1e-9:
        raise ValueError(
            f"{module}: record efficiency {rec.eta_effective} does not match "
            f"params eta {ep.eta}")
    if abs(rec.dt - ep.dt) > 1e-9 * ep.dt:
        raise ValueError(
            f"{module}: record dt {rec.dt} does not match params dt {ep.dt}")


# ---------------------------------------------------------------------------
# Stacked primitives (leading axis = ensemble member)
# ---------------------------------------------------------------------------

def _pair_wide(x: np.ndarray) -> np.ndarray:
    """Per-sample values (n,) as (n, 2), each repeated for both
    quadratures: a contiguous operand for (..., n, 2) pairs, where
    ``x[:, None]`` would be broadcast along their axis of 2."""
    return np.repeat(x, 2).reshape(-1, 2)


def filter_means(currents: np.ndarray, ep: EffectiveParams, v: np.ndarray,
                 m0: np.ndarray) -> np.ndarray:
    """Mean recursion over stacked records: (N, n, 2) -> (N, n+1, 2)."""
    n = currents.shape[1]
    dt = ep.dt
    f = math.exp(-ep.gamma_eff * dt / 2.0)
    g = math.sqrt(ep.meas_rate)
    gain = g * v[:n]
    means = np.empty((currents.shape[0], n + 1, 2))
    means[:, 0] = m0
    np.multiply(currents, dt, out=means[:, 1:])
    means[:, 1:] *= _pair_wide(gain)
    return _affine_recurrence(f - gain * (g * dt), means)


def retro_info(currents: np.ndarray, ep: EffectiveParams,
               w: np.ndarray) -> np.ndarray:
    """Backward information-vector recursion over stacked records."""
    n = currents.shape[1]
    dt = ep.dt
    g = math.sqrt(ep.meas_rate)
    half_g = ep.gamma_eff / 2.0
    drift = 2.0 * ep.gamma_eff * ep.n_tot
    decay = 1.0 - (half_g + drift * w[1:n + 1]) * dt
    z = np.empty((currents.shape[0], n + 1, 2))
    z[:, n] = 0.0
    np.multiply(currents, g, out=z[:, :n])
    z[:, :n] *= dt
    # from t_n backward: reversed in time, z is a forward recurrence
    _affine_recurrence(decay[::-1], z[:, ::-1])
    return z


def filter_grid(ep: EffectiveParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Trajectory time grid and closed-form filter covariance for n samples."""
    times = np.arange(n + 1) * ep.dt
    return times, v_filter(times, ep)


def retro_grid(ep: EffectiveParams, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Time grid and closed-form retrofiltered precision for n samples."""
    times = np.arange(n + 1) * ep.dt
    return times, retro_precision(times, n * ep.dt, ep)


def effect_defined(w: np.ndarray, ep: EffectiveParams) -> np.ndarray:
    """Where the precision w is above the meaningful floor, so that the
    effect mean z/w is defined."""
    return w > W_MIN_FRACTION * retro_precision_ss(ep)


def effect_means(w: np.ndarray, z: np.ndarray, ep: EffectiveParams) -> np.ndarray:
    """z/w, NaN where it is not :func:`effect_defined`."""
    # divided in place where defined, so a stack makes no masked copies
    out = np.full(z.shape, np.nan)
    np.divide(z, _pair_wide(w), out=out,
              where=_pair_wide(effect_defined(w, ep)))
    return out


# ---------------------------------------------------------------------------
# Public per-record operations
# ---------------------------------------------------------------------------

def run_filter(rec: MeasurementRecord, ep: EffectiveParams) -> Trajectory:
    """Forward-filter one record from the unconditional state into a state
    trajectory (kind "Filtered")."""
    _check_record(rec, ep, "estimate.run_filter")
    times, v = filter_grid(ep, rec.n)
    means = filter_means(rec.currents[None], ep, v, np.zeros((1, 2)))[0]
    return Trajectory(times, means, v, "Filtered")


def run_retrofilter(rec: MeasurementRecord, ep: EffectiveParams) -> Trajectory:
    """Backward-propagate the record's effect (kind "Retrofiltered").

    Stored in information form; the final point is exactly uninformative
    (w = 0, z = 0).
    """
    _check_record(rec, ep, "estimate.run_retrofilter")
    times, w = retro_grid(ep, rec.n)
    z = retro_info(rec.currents[None], ep, w)[0]
    mean = effect_means(w, z, ep)
    return Trajectory(times, mean, w, "Retrofiltered", info=z)


def run_ltl_filter(recs: Sequence[MeasurementRecord], ep: EffectiveParams,
                   min_warmup: int = 3) -> Trajectory:
    """Filter across warm-up records, then report the final record's window.

    The returned trajectory (kind "LTL") uses times relative to the target
    record and carries the closed-form covariance evaluated at the global
    filtering time, which is steady to well below 1e-6 relative once the
    warm-up spans a few records.  With insufficient warm-up a warning is
    emitted and the trajectory is marked not converged when the covariance
    still sits more than 1e-3 relative above its steady state.
    """
    if len(recs) == 0:
        raise ValueError("need at least one record")
    dt = recs[0].dt
    for r in recs:
        if r.dt != dt:
            raise ValueError("records must share one sample period")
        _check_record(r, ep, "estimate.run_ltl_filter")
    if len(recs) - 1 < min_warmup:
        warnings.warn(f"fewer than {min_warmup} warm-up records; "
                      "LTL covariance may not have converged", stacklevel=2)
    currents = np.concatenate([r.currents for r in recs], axis=0)
    n_total = currents.shape[0]
    times, v = filter_grid(ep, n_total)
    means = filter_means(currents[None], ep, v, np.zeros((1, 2)))[0]
    offset = n_total - recs[-1].n
    vss = v_filter_ss(ep)
    converged = (v[offset] - vss) <= 1e-3 * vss
    sl = slice(offset, n_total + 1)
    return Trajectory(times[sl] - times[offset], means[sl], v[sl], "LTL",
                      converged=bool(converged))


def innovations(rec: MeasurementRecord, ep: EffectiveParams,
                traj: Trajectory | None = None) -> np.ndarray:
    """Innovation increments I_k dt - g m_k dt.

    White, with the discrete-time conditional variance
    dt (1 + g^2 (v_k - 1) dt) per component at sample k: the shot
    noise's dt plus the filter error's g^2 (v_k - v_true) dt^2, with the
    true covariance v_true = 1.
    """
    if traj is None:
        traj = run_filter(rec, ep)
    g = math.sqrt(ep.meas_rate)
    return (rec.currents - g * traj.mean[:-1]) * rec.dt
