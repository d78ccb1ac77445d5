"""Parameters and closed-form covariance solutions.

Everything downstream (simulation, estimation, smoothing, metrics) consumes
the types and closed forms defined here.  Conventions used throughout the
package:

* Quadratures are scaled so the ground state has unit variance per
  quadrature; all covariance matrices of conditioned states are then
  proportional to the identity, ``V = v * I``, and the closed forms track
  the scalar ``v``.
* All rates are angular (rad/s).  Config files take ordinary Hz and are
  converted on load (see :mod:`lgqsmooth.config`).
* The retrofiltered (effect) variance diverges at the final time; it is
  therefore handled in information form.  :func:`retro_precision` is total
  and returns ``w = 1/v_R`` (zero where the variance is unbounded), while
  :func:`v_retro` raises where ``w == 0`` rather than return a float
  infinity.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

# exp() arguments at or above this are saturated; the asymptotic value is
# returned instead of evaluating the closed form.
EXP_CLAMP = 700.0


# ---------------------------------------------------------------------------
# Parameter containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PhysicalParams:
    """Resonator, bath, and measurement parameters as configured.

    Parameters
    ----------
    gamma : float
        Intrinsic energy decay rate (rad/s).
    n_th : float
        Thermal bath occupancy (dimensionless).
    coop : float
        Optomechanical cooperativity (dimensionless).
    eta : float
        Detection efficiency, in (0, 1].
    gamma_fb : float, optional
        Feedback-broadened decay rate (rad/s).  When present it must be
        >= gamma; the working parameters are then obtained by
        :func:`effective_params`.
    omega : float
        Resonance angular frequency (rad/s); used only by the ingest
        pipeline (demodulation carrier).
    record_duration : float
        Length of one measurement record (s).
    dt : float
        Sample period of the records (s).
    """

    gamma: float
    n_th: float
    coop: float
    eta: float
    gamma_fb: float | None = None
    omega: float = 0.0
    record_duration: float = 750e-6
    dt: float = 1e-6

    def __post_init__(self) -> None:
        if not self.gamma > 0:
            raise ValueError("gamma must be positive")
        if self.gamma_fb is not None and not self.gamma_fb >= self.gamma:
            raise ValueError("gamma_fb must be >= gamma")
        if not self.n_th >= 0:
            raise ValueError("n_th must be nonnegative")
        if not self.coop >= 0:
            raise ValueError("coop must be nonnegative")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must be in (0, 1]")
        if not self.omega >= 0:
            raise ValueError("omega must be nonnegative")
        if not 0 < self.dt < self.record_duration:
            raise ValueError("need 0 < dt < record_duration")


@dataclass(frozen=True)
class EffectiveParams:
    """Working parameters after the feedback substitution.

    The products gamma_eff * coop_eff and gamma_eff * n_th_eff equal the
    intrinsic gamma * coop and gamma * n_th: the substitution broadens the
    linewidth while preserving the optical and thermal decoherence rates.

    Derived quantities: ``n_tot = coop_eff + n_th_eff + 1/2`` (total
    occupancy including measurement backaction), ``sigma2_uncon = 2 * n_tot``
    (unconditional per-quadrature variance), and
    ``meas_rate = 2 * eta * gamma_eff * coop_eff``.
    """

    gamma_eff: float
    n_th_eff: float
    coop_eff: float
    eta: float
    record_duration: float = 750e-6
    dt: float = 1e-6

    def __post_init__(self) -> None:
        if not self.gamma_eff > 0:
            raise ValueError("gamma_eff must be positive")
        if not self.n_th_eff >= 0:
            raise ValueError("n_th_eff must be nonnegative")
        if not self.coop_eff >= 0:
            raise ValueError("coop_eff must be nonnegative")
        if not 0 < self.eta <= 1:
            raise ValueError("eta must be in (0, 1]")
        if not 0 < self.dt < self.record_duration:
            raise ValueError("need 0 < dt < record_duration")

    @property
    def n_tot(self) -> float:
        return self.coop_eff + self.n_th_eff + 0.5

    @property
    def sigma2_uncon(self) -> float:
        return 2.0 * self.n_tot

    @property
    def meas_rate(self) -> float:
        return 2.0 * self.eta * self.gamma_eff * self.coop_eff

    @property
    def eta_coop(self) -> float:
        return self.eta * self.coop_eff


# ---------------------------------------------------------------------------
# Parameter operations
# ---------------------------------------------------------------------------

def effective_params(p: PhysicalParams) -> EffectiveParams:
    """Map configured parameters to the working (feedback-substituted) set.

    With feedback broadening the linewidth from gamma to gamma_fb, the
    monitored dynamics are those of a resonator with decay gamma_fb whose
    thermal occupancy and cooperativity are scaled by gamma/gamma_fb.  The
    scaling of the cooperativity is implied by the invariance of the
    optical decoherence rate gamma * coop; without it the steady-state
    filter variance would be inconsistent with the broadened-linewidth
    dynamics.  Without gamma_fb the mapping is the identity.
    """
    if p.gamma_fb is None:
        return EffectiveParams(p.gamma, p.n_th, p.coop, p.eta,
                               p.record_duration, p.dt)
    ratio = p.gamma / p.gamma_fb
    return EffectiveParams(p.gamma_fb, p.n_th * ratio, p.coop * ratio, p.eta,
                           p.record_duration, p.dt)


# ---------------------------------------------------------------------------
# Closed-form covariances
# ---------------------------------------------------------------------------

def _sroot(n_tot: float, mu: float) -> float:
    # s = sqrt(1 + 16 mu n_tot); mu is the quadratic Riccati coefficient
    # (eta*C for the filter, C + n_th for the true state).
    return math.sqrt(1.0 + 16.0 * mu * n_tot)


def relaxation_rate(ep: EffectiveParams, mu: float) -> float:
    """Relaxation rate gamma s = gamma sqrt(1 + 16 mu n_tot) of a Riccati
    flow with quadratic coefficient mu (1/s): mu = eta C for the filter and
    the retrofilter, mu = C + n_th for the true state, whose flow is the
    fastest."""
    return ep.gamma_eff * _sroot(ep.n_tot, mu)


def _vft(t: np.ndarray, gamma: float, n_tot: float, mu: float,
         v0: float | None) -> np.ndarray:
    """Shared closed form for forward Riccati flows v' = -g v + 2 g n - 2 g mu v^2.

    ``v0 = None`` selects the unconditional initial condition v(0) = 2 n_tot
    via a cancellation-free expression for v(0) - v_ss.
    """
    if mu == 0.0:
        # linear limit: plain exponential relaxation to 2 n_tot
        if v0 is None:
            return np.full_like(t, 2.0 * n_tot)
        return 2.0 * n_tot + (v0 - 2.0 * n_tot) * np.exp(-gamma * t)
    s = _sroot(n_tot, mu)
    vss = 4.0 * n_tot / (1.0 + s)
    b = 2.0 * mu / s
    if v0 is None:
        d0 = 2.0 * n_tot * (16.0 * mu * n_tot) / (1.0 + s) ** 2
    else:
        if v0 <= 0:
            raise ValueError("initial variance must be positive")
        d0 = v0 - vss
        if d0 == 0.0:
            return np.full_like(t, vss)
    arg = gamma * s * t
    with np.errstate(over="ignore"):
        u = (1.0 / d0 + b) * np.exp(np.minimum(arg, EXP_CLAMP)) - b
        v = vss + 1.0 / u
    return np.where(arg >= EXP_CLAMP, vss, v)


def _as_time_array(t) -> tuple[np.ndarray, bool]:
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def v_filter(t, ep: EffectiveParams, v0: float | None = None):
    """Filtered covariance v_F(t) from the closed-form Riccati solution.

    Parameters
    ----------
    t : float or array_like
        Time(s) since the start of filtering, s.
    ep : EffectiveParams
    v0 : float, optional
        Initial variance; defaults to the unconditional 2 n_tot.

    Returns
    -------
    float or ndarray
        v_F(t); monotone relaxation from v0 toward :func:`v_filter_ss`.
        Exponential arguments are clamped at ``EXP_CLAMP`` beyond which the
        steady-state value is returned.
    """
    arr, scalar = _as_time_array(t)
    if np.any(arr < 0):
        raise ValueError("t must be nonnegative")
    out = _vft(arr, ep.gamma_eff, ep.n_tot, ep.eta_coop, v0)
    return float(out) if scalar else out


def v_filter_ss(ep: EffectiveParams) -> float:
    """Steady-state filtered covariance, 4 n_tot / (1 + s).

    Algebraically equal to (s - 1)/(4 eta C) with
    s = sqrt(1 + 16 eta C n_tot), but finite (2 n_tot) in the
    unmonitored limit eta C -> 0 without a special case.
    """
    s = _sroot(ep.n_tot, ep.eta_coop)
    return 4.0 * ep.n_tot / (1.0 + s)


def retro_precision(t, T: float, ep: EffectiveParams):
    """Retrofiltered precision w(t) = 1/v_R(t) for a record ending at T.

    Total everywhere: w(T) = 0 (uninformative final condition) and w = 0
    identically when eta C = 0.  Computed as b E / (v_Rss b E + 1) with
    E = expm1(gamma s (T - t)), which never forms an infinity.
    """
    arr, scalar = _as_time_array(t)
    if np.any(arr < 0):
        raise ValueError("t must be nonnegative")
    if np.any(arr > T):
        raise ValueError("t must not exceed the final time T")
    ec = ep.eta_coop
    if ec == 0.0:
        out = np.zeros_like(arr)
        return float(out) if scalar else out
    n_tot = ep.n_tot
    s = _sroot(n_tot, ec)
    vrss = (s + 1.0) / (4.0 * ec)
    b = 2.0 * ec / s
    arg = ep.gamma_eff * s * (T - arr)
    e = np.expm1(np.minimum(arg, EXP_CLAMP))
    w = b * e / (vrss * b * e + 1.0)
    out = np.where(arg >= EXP_CLAMP, 1.0 / vrss, w)
    return float(out) if scalar else out


def v_retro(t, T: float, ep: EffectiveParams):
    """Retrofiltered covariance v_R(t) where it is finite.

    Raises where the precision vanishes (t = T, or eta C = 0); callers that
    must handle the uninformative boundary use :func:`retro_precision`.
    """
    w = retro_precision(t, T, ep)
    warr = np.asarray(w, dtype=float)
    if np.any(warr == 0.0):
        raise ValueError(
            "retrofiltered variance is unbounded where the precision is 0 "
            "(final time, or no measurement); use retro_precision")
    out = 1.0 / warr
    return float(out) if warr.ndim == 0 else out


def v_retro_ss(ep: EffectiveParams) -> float:
    """Steady-state retrofiltered covariance (s + 1)/(4 eta C).

    Satisfies v_retro_ss - v_filter_ss = 1/(2 eta C) exactly.  Raises in
    the unmonitored limit where the effect variance is unbounded.
    """
    ec = ep.eta_coop
    if ec == 0.0:
        raise ValueError("retrofiltered variance is unbounded for eta C = 0; "
                         "use retro_precision_ss")
    return (_sroot(ep.n_tot, ec) + 1.0) / (4.0 * ec)


def retro_precision_ss(ep: EffectiveParams) -> float:
    """Steady-state retrofiltered precision 4 eta C / (s + 1); total."""
    return 4.0 * ep.eta_coop / (_sroot(ep.n_tot, ep.eta_coop) + 1.0)


def v_true(t, ep: EffectiveParams, v0: float | None = None):
    """Transient covariance of the true (all-baths-monitored) state.

    Same closed-form family as the filter with quadratic coefficient
    C + n_th instead of eta C.  The steady state is exactly 1: with
    mu = C + n_th and n_tot = mu + 1/2 the root s = 4 mu + 1 identically,
    so 4 n_tot / (1 + s) = 1.
    """
    arr, scalar = _as_time_array(t)
    if np.any(arr < 0):
        raise ValueError("t must be nonnegative")
    out = _vft(arr, ep.gamma_eff, ep.n_tot, ep.coop_eff + ep.n_th_eff, v0)
    return float(out) if scalar else out


def filter_riccati_rhs(v, ep: EffectiveParams):
    """dv/dt of the filtered covariance; fixed point at v_filter_ss."""
    g = ep.gamma_eff
    return -g * v + 2.0 * g * ep.n_tot - 2.0 * g * ep.eta_coop * v * v


def retro_riccati_rhs(v, ep: EffectiveParams):
    """dv/dtau of the retrofiltered covariance in reversed time tau = T - t.

    Positive linear term: the effect variance relaxes toward v_retro_ss as
    the remaining record grows.
    """
    g = ep.gamma_eff
    return g * v + 2.0 * g * ep.n_tot - 2.0 * g * ep.eta_coop * v * v


# ---------------------------------------------------------------------------
# Steady-state approximations and the uncertainty-violation predicate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SteadyStateApprox:
    """Large-measurement-rate approximations of the steady-state variances."""

    v_f: float
    v_s_true: float
    v_cs: float
    shup_violation: bool


def shup_violation_predicted(ep: EffectiveParams) -> bool:
    """Regime where classical smoothing is predicted to beat the uncertainty bound.

    True iff eta > 1/4 and C/n_th > 1/(4 eta - 1).  Uses the effective
    cooperativity and occupancy; the ratio is insensitive to the feedback
    substitution.
    """
    if ep.eta <= 0.25:
        return False
    if ep.n_th_eff == 0.0:
        return ep.coop_eff > 0.0
    return ep.coop_eff / ep.n_th_eff > 1.0 / (4.0 * ep.eta - 1.0)


def ss_approximations(ep: EffectiveParams) -> SteadyStateApprox:
    """Approximate steady-state variances, valid for eta C >> 1/2.

    v_F ~ sqrt(n_tot / eta C); the smoothed-to-true-state variance
    v_S ~ 1 + (sqrt(n_tot/eta C) - sqrt(eta C/n_tot))/2; the classical
    smoother v_cS ~ sqrt(n_tot/eta C)/2.  Also evaluates the predicate for
    the classical smoother violating the uncertainty bound.
    """
    ec = ep.eta_coop
    if ec <= 0.5:
        warnings.warn("steady-state approximations assume eta*coop >> 1/2",
                      stacklevel=2)
    if ec == 0.0:
        raise ValueError("approximations undefined for eta C = 0")
    r = math.sqrt(ep.n_tot / ec)
    return SteadyStateApprox(
        v_f=r,
        v_s_true=1.0 + 0.5 * (r - 1.0 / r),
        v_cs=0.5 * r,
        shup_violation=shup_violation_predicted(ep),
    )
