"""Parameter mapping and closed-form covariances."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    filter_variance_ode,
    probe_times,
    retro_precision_ode,
    retro_variance_ode_from_big,
)
from conftest import random_effective_params
from lgqsmooth.model import (
    EffectiveParams,
    PhysicalParams,
    effective_params,
    filter_riccati_rhs,
    retro_precision,
    retro_precision_ss,
    ss_approximations,
    shup_violation_predicted,
    v_filter,
    v_filter_ss,
    v_retro,
    v_retro_ss,
    v_true,
)

# Frozen reference values for the strong-monitoring parameter set
# (hand-evaluated from the closed forms before implementation).
N_TH_EFF = 33.147058823529406
COOP_EFF = 4.275294117647059
N_TOT = 37.92235294117647
SIGMA2 = 75.84470588235294
V_F_SS = 4.6800
V_R_SS = 4.9878


def params_strategy():
    return st.builds(
        lambda lg, ln, lc, eta: EffectiveParams(
            gamma_eff=10.0 ** lg, n_th_eff=10.0 ** ln,
            coop_eff=10.0 ** lc, eta=eta),
        st.floats(-2, 4), st.floats(-2, 6), st.floats(-2, 6),
        st.floats(0.05, 1.0),
    )


# ---------------------------------------------------------------------------
# Parameter mapping
# ---------------------------------------------------------------------------

def test_effective_params_reference_values(ref_params):
    ep = effective_params(ref_params)
    assert ep.gamma_eff == ref_params.gamma_fb
    assert ep.n_th_eff == pytest.approx(N_TH_EFF, rel=1e-12)
    assert ep.coop_eff == pytest.approx(COOP_EFF, rel=1e-12)
    assert ep.n_tot == pytest.approx(N_TOT, rel=1e-12)
    assert ep.sigma2_uncon == pytest.approx(SIGMA2, rel=1e-12)


def test_effective_params_preserves_decoherence_rates(ref_params):
    p = ref_params
    ep = effective_params(p)
    assert ep.gamma_eff * ep.coop_eff == pytest.approx(p.gamma * p.coop, rel=1e-12)
    assert ep.gamma_eff * ep.n_th_eff == pytest.approx(p.gamma * p.n_th, rel=1e-12)
    # the decoherence ratio is what the substitution is designed to preserve
    assert ep.coop_eff / ep.n_th_eff == pytest.approx(p.coop / p.n_th, rel=1e-12)


def test_effective_params_identity_without_feedback():
    p = PhysicalParams(gamma=10.0, n_th=100.0, coop=5.0, eta=0.5)
    ep = effective_params(p)
    assert (ep.gamma_eff, ep.n_th_eff, ep.coop_eff) == (10.0, 100.0, 5.0)


def test_effective_params_identity_at_equal_rates():
    p = PhysicalParams(gamma=10.0, n_th=100.0, coop=5.0, eta=0.5, gamma_fb=10.0)
    ep = effective_params(p)
    assert (ep.gamma_eff, ep.n_th_eff, ep.coop_eff) == (10.0, 100.0, 5.0)


def test_physical_params_validation():
    with pytest.raises(ValueError):
        PhysicalParams(gamma=0.0, n_th=1.0, coop=1.0, eta=0.5)
    with pytest.raises(ValueError):
        PhysicalParams(gamma=1.0, n_th=-1.0, coop=1.0, eta=0.5)
    with pytest.raises(ValueError):
        PhysicalParams(gamma=1.0, n_th=1.0, coop=1.0, eta=1.5)
    with pytest.raises(ValueError):
        PhysicalParams(gamma=1.0, n_th=1.0, coop=1.0, eta=0.5, gamma_fb=0.5)
    with pytest.raises(ValueError):
        PhysicalParams(gamma=1.0, n_th=1.0, coop=1.0, eta=0.5,
                       record_duration=1e-6, dt=1e-6)


@pytest.mark.parametrize("kwargs, name", [
    (dict(n_th=math.nan), "n_th"),
    (dict(coop=math.nan), "coop"),
    (dict(gamma_fb=math.nan), "gamma_fb"),
    (dict(omega=math.nan), "omega"),
])
def test_physical_params_reject_nan(kwargs, name):
    # each bound is written so that NaN fails it
    args = dict(gamma=1.0, n_th=1.0, coop=1.0, eta=0.5) | kwargs
    with pytest.raises(ValueError, match=f"^{name} must"):
        PhysicalParams(**args)


@pytest.mark.parametrize("name", ["n_th_eff", "coop_eff"])
def test_effective_params_reject_nan(name):
    args = dict(gamma_eff=1.0, n_th_eff=1.0, coop_eff=1.0, eta=0.5)
    with pytest.raises(ValueError, match=f"^{name} must"):
        EffectiveParams(**(args | {name: math.nan}))


@pytest.mark.parametrize("kwargs, match", [
    (dict(gamma_eff=0.0), r"^gamma_eff must be positive$"),
    (dict(gamma_eff=-1.0), r"^gamma_eff must be positive$"),
    (dict(eta=0.0), r"^eta must be in \(0, 1\]$"),
    (dict(eta=1.5), r"^eta must be in \(0, 1\]$"),
    (dict(record_duration=1e-6, dt=1e-6),
     r"^need 0 < dt < record_duration$"),
    (dict(record_duration=1e-6, dt=2e-6),
     r"^need 0 < dt < record_duration$"),
])
def test_effective_params_validation(kwargs, match):
    args = dict(gamma_eff=1.0, n_th_eff=1.0, coop_eff=1.0, eta=0.5)
    with pytest.raises(ValueError, match=match):
        EffectiveParams(**(args | kwargs))


# ---------------------------------------------------------------------------
# The unconditional state
# ---------------------------------------------------------------------------

def test_unconditional_state(ref_ep):
    # zero mean and v = 2 n_tot, where run_filter starts (checked in
    # test_estimate.test_filter_starts_unconditional)
    assert ref_ep.sigma2_uncon == pytest.approx(SIGMA2, rel=1e-12)
    ground = EffectiveParams(gamma_eff=1.0, n_th_eff=0.0, coop_eff=0.0, eta=1.0)
    assert ground.sigma2_uncon == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Filtered covariance
# ---------------------------------------------------------------------------

def test_v_filter_initial_condition(ref_ep):
    assert v_filter(0.0, ref_ep) == pytest.approx(SIGMA2, rel=1e-12)


def test_v_filter_ss_reference(ref_ep):
    assert v_filter_ss(ref_ep) == pytest.approx(V_F_SS, rel=1e-4)
    # headline figure: steady-state variance about 4.7 zero-point units
    assert v_filter_ss(ref_ep) == pytest.approx(4.7, rel=0.02)


def test_v_filter_ss_unmonitored_limit():
    ep = EffectiveParams(gamma_eff=1.0, n_th_eff=10.0, coop_eff=0.0, eta=0.5)
    assert v_filter_ss(ep) == pytest.approx(2.0 * ep.n_tot, rel=1e-12)
    # tiny eta*coop must not lose precision to cancellation
    ep2 = EffectiveParams(gamma_eff=1.0, n_th_eff=10.0, coop_eff=1e-9, eta=0.5)
    assert v_filter_ss(ep2) == pytest.approx(2.0 * ep2.n_tot, rel=1e-6)


def test_v_filter_matches_ode_reference(ref_ep):
    t = probe_times(ref_ep)
    closed = v_filter(t, ref_ep)
    ode = filter_variance_ode(ref_ep, t)
    assert np.allclose(closed, ode, rtol=1e-7, atol=0.0)


def test_v_filter_matches_ode_random_params():
    rng = np.random.default_rng(7)
    for _ in range(12):
        ep = random_effective_params(rng)
        t = probe_times(ep)
        closed = v_filter(t, ep)
        ode = filter_variance_ode(ep, t)
        assert np.allclose(closed, ode, rtol=1e-6, atol=0.0), ep


def test_v_filter_custom_initial_variance(ref_ep):
    # generalized closed form: approach to the same steady state from below
    t = probe_times(ref_ep)
    closed = v_filter(t, ref_ep, v0=1.0)
    ode = filter_variance_ode(ref_ep, t, v0=1.0)
    assert np.allclose(closed, ode, rtol=1e-7)
    assert np.all(np.diff(closed) > 0)  # grows toward v_F_ss


def test_v_filter_from_its_steady_state_stays_there(ref_ep):
    # v0 = v_F_ss leaves no transient: the constant, exactly
    t = probe_times(ref_ep)
    v_ss = v_filter_ss(ref_ep)
    assert np.array_equal(v_filter(t, ref_ep, v0=v_ss), np.full_like(t, v_ss))
    with pytest.raises(ValueError, match="initial variance must be positive"):
        v_filter(t, ref_ep, v0=0.0)


def test_unmonitored_flow_from_a_given_variance():
    # C = 0: no measurement, so v relaxes linearly to the unconditional
    # 2 n_tot, v(t) = 2 n_tot + (v0 - 2 n_tot) exp(-gamma t), as it would
    # across a gap in a record
    ep = EffectiveParams(gamma_eff=3.0, n_th_eff=10.0, coop_eff=0.0, eta=0.5)
    t = probe_times(ep)
    for v0 in (1.0, 4.0 * ep.n_tot):
        closed = v_filter(t, ep, v0=v0)
        expected = 2.0 * ep.n_tot + (v0 - 2.0 * ep.n_tot) \
            * np.exp(-ep.gamma_eff * t)
        assert np.allclose(closed, expected, rtol=1e-14, atol=0.0)
        assert np.allclose(closed, filter_variance_ode(ep, t, v0=v0),
                           rtol=1e-7, atol=0.0)


def test_v_filter_monotone_and_converged(ref_ep):
    s = math.sqrt(1.0 + 16.0 * ref_ep.eta_coop * ref_ep.n_tot)
    t = np.linspace(0.0, 20.0 / (ref_ep.gamma_eff * s), 400)
    v = v_filter(t, ref_ep)
    assert np.all(np.diff(v) <= 0.0)
    # after 20 e-folding times the residual transient is below 1e-9 of the
    # unconditional scale (the gap itself decays like exp(-20) * d0)
    assert abs(v[-1] - v_filter_ss(ref_ep)) <= 1e-9 * ref_ep.sigma2_uncon


def test_v_filter_overflow_clamp(ref_ep):
    # far beyond the clamp the steady state is returned exactly
    assert v_filter(1e9, ref_ep) == v_filter_ss(ref_ep)


def test_v_filter_rejects_negative_time(ref_ep):
    with pytest.raises(ValueError):
        v_filter(-1e-9, ref_ep)


# ---------------------------------------------------------------------------
# Retrofiltered covariance
# ---------------------------------------------------------------------------

def test_retro_final_condition(ref_ep):
    T = ref_ep.record_duration
    assert retro_precision(T, T, ref_ep) == 0.0
    with pytest.raises(ValueError):
        v_retro(T, T, ref_ep)


def test_v_retro_ss_reference(ref_ep):
    assert v_retro_ss(ref_ep) == pytest.approx(V_R_SS, rel=1e-4)


def test_retro_ss_identity(ref_ep):
    gap = v_retro_ss(ref_ep) - v_filter_ss(ref_ep)
    assert gap == pytest.approx(1.0 / (2.0 * ref_ep.eta_coop), rel=1e-12)


def test_retro_precision_matches_ode_reference(ref_ep):
    taus = probe_times(ref_ep)
    T = float(taus[-1])
    w_closed = retro_precision(T - taus, T, ref_ep)
    w_ode = retro_precision_ode(ref_ep, taus)
    assert np.allclose(w_closed, w_ode, rtol=1e-7,
                       atol=1e-9 * retro_precision_ss(ref_ep))


def test_v_retro_matches_variance_ode_from_big_start(ref_ep):
    # variance-space flow from a huge finite final variance converges onto
    # the unbounded-start closed form away from the final time
    taus = probe_times(ref_ep)[2:]
    T = float(taus[-1])
    v_closed = v_retro(T - taus, T, ref_ep)
    v_ode = retro_variance_ode_from_big(ref_ep, taus, v_big=1e10)
    # loose tolerance: the huge-start flow carries stiff-layer solver error;
    # the strict 1e-6 oracle is the precision-space test above
    assert np.allclose(v_closed, v_ode, rtol=1e-4)


def test_retro_precision_matches_ode_random_params():
    rng = np.random.default_rng(11)
    for _ in range(12):
        ep = random_effective_params(rng, monitored=True)
        taus = probe_times(ep)
        T = float(taus[-1])
        w_closed = retro_precision(T - taus, T, ep)
        w_ode = retro_precision_ode(ep, taus)
        assert np.allclose(w_closed, w_ode, rtol=1e-6,
                           atol=1e-9 * retro_precision_ss(ep)), ep


def test_retro_monotone_in_t(ref_ep):
    T = ref_ep.record_duration
    t = np.linspace(0.0, T, 300)
    w = retro_precision(t, T, ref_ep)
    assert np.all(np.diff(w) <= 0.0)       # precision falls toward the end
    v = v_retro(t[:-1], T, ref_ep)
    assert np.all(np.diff(v) >= 0.0)       # variance grows toward the end
    assert np.all(w >= 0.0)


def test_retro_precision_unmonitored():
    ep = EffectiveParams(gamma_eff=1.0, n_th_eff=10.0, coop_eff=0.0, eta=0.5)
    t = np.linspace(0.0, 0.5, 7)
    assert np.all(retro_precision(t, 0.5, ep) == 0.0)
    with pytest.raises(ValueError):
        v_retro_ss(ep)


def test_retro_rejects_time_past_final(ref_ep):
    with pytest.raises(ValueError):
        retro_precision(2.0, 1.0, ref_ep)


def test_retro_precision_clamp(ref_ep):
    # long remaining record: steady precision returned exactly
    assert retro_precision(0.0, 1e9, ref_ep) == retro_precision_ss(ref_ep)


# ---------------------------------------------------------------------------
# True-state covariance
# ---------------------------------------------------------------------------

def test_v_true_ss_exact(ref_ep):
    # far beyond the clamp the closed form returns its steady state, 1
    assert v_true(1.0, ref_ep) == pytest.approx(1.0, abs=1e-12)
    # Riccati right-hand side cancels identically at v = 1
    g = ref_ep.gamma_eff
    mu = ref_ep.coop_eff + ref_ep.n_th_eff
    rhs = -g * 1.0 + 2.0 * g * ref_ep.n_tot - 2.0 * g * mu * 1.0 * 1.0
    assert abs(rhs) <= 1e-9 * 2.0 * g * ref_ep.n_tot


def test_v_true_transient_matches_ode(ref_ep):
    mu = ref_ep.coop_eff + ref_ep.n_th_eff
    t = probe_times(ref_ep, mu=mu)
    closed = v_true(t, ref_ep)
    ode = filter_variance_ode(ref_ep, t, mu=mu)
    assert np.allclose(closed, ode, rtol=1e-6)


def test_v_true_transient_decay_rate(ref_ep):
    # decay from 2 n_tot at least as fast as the linearized rate
    mu = ref_ep.coop_eff + ref_ep.n_th_eff
    s = math.sqrt(1.0 + 16.0 * mu * ref_ep.n_tot)
    t = np.linspace(0.0, 3.0 / (ref_ep.gamma_eff * s), 50)[1:]
    excess = v_true(t, ref_ep) - 1.0
    bound = (ref_ep.sigma2_uncon - 1.0) * np.exp(-ref_ep.gamma_eff * s * t)
    assert np.all(excess <= bound * 1.001)


def test_v_true_rejects_negative_time(ref_ep):
    with pytest.raises(ValueError, match="^t must be nonnegative$"):
        v_true(np.array([0.0, 1e-6, -1e-9]), ref_ep)


def test_filter_riccati_fixed_point(ref_ep):
    scale = 2.0 * ref_ep.gamma_eff * ref_ep.n_tot
    assert abs(filter_riccati_rhs(v_filter_ss(ref_ep), ref_ep)) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# Steady-state approximations and the uncertainty predicate
# ---------------------------------------------------------------------------

def test_ss_approximations_reference(ref_ep):
    approx = ss_approximations(ref_ep)
    assert approx.v_f == pytest.approx(4.832, rel=1e-3)
    # approximation within a few percent of the exact steady state
    assert approx.v_f == pytest.approx(v_filter_ss(ref_ep), rel=0.04)
    assert approx.v_cs == pytest.approx(2.416, rel=1e-3)
    assert not approx.shup_violation


def test_ss_approximation_gap_positive():
    rng = np.random.default_rng(3)
    for _ in range(50):
        ep = random_effective_params(rng, monitored=True)
        if ep.eta_coop <= 0.5:
            continue
        a = ss_approximations(ep)
        # quantum-smoothed stays above classical by about 1 - 1/(2 v_F)
        assert a.v_s_true - a.v_cs > 0.0


def test_shup_predicate_reference(ref_ep):
    # efficiency condition met, cooperativity-to-thermal ratio not met
    assert ref_ep.eta > 0.25
    assert ref_ep.coop_eff / ref_ep.n_th_eff < 1.0 / (4.0 * ref_ep.eta - 1.0)
    assert not shup_violation_predicted(ref_ep)


def test_shup_predicate_violating_regime():
    ep = EffectiveParams(gamma_eff=1.0, n_th_eff=1e4, coop_eff=3e4, eta=0.5)
    assert shup_violation_predicted(ep)
    # exact classical-smoother steady state dips below the uncertainty bound
    v_cs = 1.0 / (1.0 / v_filter_ss(ep) + retro_precision_ss(ep))
    assert v_cs < 1.0
    assert v_filter_ss(ep) >= 1.0


def test_shup_predicate_without_thermal_noise():
    # n_th = 0: C/n_th is unbounded, so any measurement qualifies once
    # eta > 1/4
    assert shup_violation_predicted(
        EffectiveParams(gamma_eff=1.0, n_th_eff=0.0, coop_eff=2.0, eta=0.5))
    assert not shup_violation_predicted(
        EffectiveParams(gamma_eff=1.0, n_th_eff=0.0, coop_eff=0.0, eta=0.5))
    assert not shup_violation_predicted(
        EffectiveParams(gamma_eff=1.0, n_th_eff=0.0, coop_eff=2.0, eta=0.25))


def test_ss_approximations_warns_at_weak_monitoring():
    ep = EffectiveParams(gamma_eff=1.0, n_th_eff=5.0, coop_eff=0.4, eta=0.5)
    with pytest.warns(UserWarning):
        ss_approximations(ep)


# ---------------------------------------------------------------------------
# Property-based invariants
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(params_strategy())
def test_ss_gap_identity_property(ep):
    if ep.eta_coop == 0.0:
        return
    gap = v_retro_ss(ep) - v_filter_ss(ep)
    assert gap == pytest.approx(1.0 / (2.0 * ep.eta_coop), rel=1e-10)


@settings(max_examples=60, deadline=None)
@given(params_strategy())
def test_v_filter_bounds_property(ep):
    s = math.sqrt(1.0 + 16.0 * ep.eta_coop * ep.n_tot)
    t = np.linspace(0.0, 10.0 / (ep.gamma_eff * s), 64)
    v = v_filter(t, ep)
    vss = v_filter_ss(ep)
    # 1e-9 margins: the cancellation-free v(0) expression still rounds at
    # the ~1e-10 relative level for extreme cooperativities
    assert np.all(np.diff(v) <= 1e-9 * ep.sigma2_uncon)
    assert np.all(v >= vss * (1.0 - 1e-9))
    assert np.all(v <= ep.sigma2_uncon * (1.0 + 1e-9))


@settings(max_examples=40, deadline=None)
@given(st.floats(-3, 3), st.floats(-2, 5), st.floats(-2, 5),
       st.floats(0.05, 1.0), st.floats(1.1, 1e4))
def test_decoherence_rates_preserved_property(lg, ln, lc, eta, broaden):
    gamma = 10.0 ** lg
    p = PhysicalParams(gamma=gamma, n_th=10.0 ** ln, coop=10.0 ** lc,
                       eta=eta, gamma_fb=gamma * broaden)
    ep = effective_params(p)
    assert ep.gamma_eff * ep.coop_eff == pytest.approx(p.gamma * p.coop, rel=1e-12)
    assert ep.gamma_eff * ep.n_th_eff == pytest.approx(p.gamma * p.n_th, rel=1e-12)
