"""Smoother checks: exact limits, frozen values, statistical consistency."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgqsmooth import (
    EffectiveParams,
    TargetSpec,
    run_filter,
    run_retrofilter,
    smooth_general,
    v_filter_ss,
)
from lgqsmooth.estimate import (
    Trajectory,
    effect_means,
    filter_grid,
    filter_means,
    retro_grid,
    retro_info,
)
from lgqsmooth.model import (
    retro_precision_ss,
    shup_violation_predicted,
    ss_approximations,
)
from lgqsmooth.pipeline import _estimate_stack
from lgqsmooth.smooth import (
    SINGULARITY_EPS,
    combine_arrays,
    smoothed_variance,
    z_values,
)
from lgqsmooth.simulate import (simulate_true_and_record,
                                simulate_truth_ensemble)

from conftest import random_effective_params
from _oracles import (
    combine_arrays_broadcast,
    same_bits,
    simulate_surrogate_ensemble,
)

# frozen reference values at the reference parameters, 750 us record
VS0_LTL = 13.191414778285022
VSSS_TRUE = 3.279203050648993
VS0_TRUE = 6.544213402315354
VCS_SS = 2.4144747593216405
Z_SS_TRUE = 0.10343725521630703


def test_target_spec_of(ref_ep):
    v_tar = {"LTLFiltered": v_filter_ss(ref_ep), "TrueState": 1.0,
             "Classical": 0.0}
    for kind, v in v_tar.items():
        t = TargetSpec.of(kind, ref_ep)
        assert t.kind == kind and t.v_tar == v
    with pytest.raises(ValueError, match="unknown target kind"):
        TargetSpec.of("Other", ref_ep)


def test_target_spec():
    with pytest.raises(ValueError, match="kind"):
        TargetSpec("Other", 1.0)
    with pytest.raises(ValueError):
        TargetSpec("LTLFiltered", -1.0)
    with pytest.raises(ValueError):
        TargetSpec("Classical", 0.5)
    with pytest.raises(ValueError):
        TargetSpec("TrueState", 2.0)


def _sample(v_tar):
    """(v_F, w) of one sample: on the target, inside or just outside the
    SINGULARITY_EPS band, or well above it; w zero or positive."""
    rel = st.one_of(st.just(0.0),
                    st.floats(-SINGULARITY_EPS / 2, SINGULARITY_EPS),
                    st.floats(SINGULARITY_EPS, 4 * SINGULARITY_EPS),
                    st.floats(1e-6, 1e3))
    v_f = rel.map(lambda r: v_tar * (1.0 + r)) if v_tar > 0 \
        else st.floats(1e-3, 1e3)
    return st.tuples(v_f, st.one_of(st.just(0.0), st.floats(1e-9, 1e3)))


@st.composite
def _samples(draw):
    v_tar = draw(st.sampled_from([0.0, 1.0, 4.68, 37.9]))
    return v_tar, draw(st.lists(_sample(v_tar), min_size=1, max_size=8))


@settings(max_examples=200, deadline=None)
@given(_samples())
def test_smoothed_variance_is_combine_arrays_bitwise(case):
    v_tar, samples = case
    v_f, w = (np.array(col) for col in zip(*samples))
    zeros = np.zeros((v_f.shape[0], 2))
    v_s, _ = combine_arrays(v_f, zeros, w, zeros, v_tar)
    got = smoothed_variance(v_f, w, v_tar)
    assert got.tobytes() == v_s.tobytes()
    for k, (vf_k, w_k) in enumerate(samples):
        one = smoothed_variance(vf_k, w_k, v_tar)
        assert type(one) is float
        assert np.float64(one).tobytes() == v_s[k].tobytes()


@settings(max_examples=200, deadline=None)
@given(_samples(), st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_combine_arrays_matches_broadcast_oracle(case, n_rec, seed):
    # pair-wide terms keep the bits of the broadcast formula for one
    # (n, 2) mean and a stack of them, copied samples included: w = 0, and
    # v_F on or inside the SINGULARITY_EPS band around v_tar
    v_tar, samples = case
    v_f, w = (np.array(col) for col in zip(*samples))
    shape = (n_rec, v_f.shape[0], 2) if n_rec else (v_f.shape[0], 2)
    rng = np.random.default_rng(seed)
    m_f, z = rng.normal(0.0, 10.0, shape), rng.normal(0.0, 10.0, shape)
    v_s, m_s = combine_arrays(v_f, m_f, w, z, v_tar)
    v_o, m_o = combine_arrays_broadcast(v_f, m_f, w, z, v_tar)
    assert same_bits(v_s, v_o) and same_bits(m_s, m_o)


@pytest.mark.parametrize("kind", ["LTLFiltered", "TrueState", "Classical"])
def test_combine_arrays_matches_broadcast_oracle_on_a_block(ref_ep, kind):
    # a block of filtered and retrofiltered records at each target; the
    # final sample (w = 0) copies, and so do LTL samples forced onto the
    # band around v_F_ss
    ens = simulate_truth_ensemble(ref_ep, ref_ep.record_duration, 16,
                                  base_seed=4411)
    _, v_f, w, m_f, z = _estimate_stack(ref_ep, ens.currents)
    v_tar = TargetSpec.of(kind, ref_ep).v_tar
    if kind == "LTLFiltered":
        v_f = v_f.copy()
        v_f[100::50] = v_tar * (1.0 + SINGULARITY_EPS / 2)
    for m, zz in ((m_f, z), (m_f[5], z[5])):
        v_s, m_s = combine_arrays(v_f, m, w, zz, v_tar)
        v_o, m_o = combine_arrays_broadcast(v_f, m, w, zz, v_tar)
        assert same_bits(v_s, v_o) and same_bits(m_s, m_o)
    assert np.array_equal(m_s[-1], m_f[5, -1])
    if kind == "LTLFiltered":
        assert np.array_equal(m_s[100::50], m_f[5, 100::50])


def test_alignment_and_kind_checks(ref_ep):
    bun = simulate_true_and_record(ref_ep, 50e-6, seed=1)
    filt = run_filter(bun.record, ref_ep)
    retro = run_retrofilter(bun.record, ref_ep)
    with pytest.raises(ValueError, match="kind"):
        smooth_general(retro, retro, TargetSpec.of("TrueState", ref_ep))
    with pytest.raises(ValueError, match="retrofiltered"):
        smooth_general(filt, filt, TargetSpec.of("TrueState", ref_ep))
    short = run_retrofilter(simulate_true_and_record(ref_ep, 40e-6, 1).record,
                            ref_ep)
    with pytest.raises(ValueError, match="grids"):
        smooth_general(filt, short, TargetSpec.of("TrueState", ref_ep))


def test_singularity_named(ref_ep):
    n = 5
    times = np.arange(n) * ref_ep.dt
    filt = Trajectory(times, np.zeros((n, 2)), np.full(n, 2.0), "Filtered")
    retro = Trajectory(times, np.zeros((n, 2)), np.full(n, 0.1),
                       "Retrofiltered", info=np.zeros((n, 2)))
    with pytest.raises(ValueError, match="sample 0"):
        smooth_general(filt, retro, TargetSpec.of("LTLFiltered", ref_ep))


def test_uninformative_future_copies_filtered(ref_ep):
    # unmonitored params: retro precision identically zero
    ep0 = EffectiveParams(gamma_eff=100.0, n_th_eff=40.0, coop_eff=0.0,
                          eta=0.5, record_duration=1e-3, dt=1e-6)
    bun = simulate_true_and_record(ep0, 200e-6, seed=4)
    filt = run_filter(bun.record, ep0)
    retro = run_retrofilter(bun.record, ep0)
    assert np.all(retro.vw == 0.0)
    out = smooth_general(filt, retro, TargetSpec.of("TrueState", ep0))
    assert np.array_equal(out.mean, filt.mean)
    assert np.array_equal(out.vw, filt.vw)
    assert out.kind == "SmoothedTrue"
    # final sample of any record has w = 0 and must copy the filter exactly
    bun2 = simulate_true_and_record(ref_ep, 100e-6, seed=5)
    f2 = run_filter(bun2.record, ref_ep)
    r2 = run_retrofilter(bun2.record, ref_ep)
    for kind in ("LTLFiltered", "TrueState", "Classical"):
        s2 = smooth_general(f2, r2, TargetSpec.of(kind, ref_ep))
        assert s2.vw[-1] == f2.vw[-1]
        assert np.array_equal(s2.mean[-1], f2.mean[-1])


@pytest.fixture(scope="module")
def ref_smoothed(ref_ep):
    bun = simulate_true_and_record(ref_ep, ref_ep.record_duration, seed=21)
    filt = run_filter(bun.record, ref_ep)
    retro = run_retrofilter(bun.record, ref_ep)
    return filt, retro


def test_frozen_covariances(ref_ep, ref_smoothed):
    filt, retro = ref_smoothed
    ltl = smooth_general(filt, retro, TargetSpec.of("LTLFiltered", ref_ep))
    true = smooth_general(filt, retro, TargetSpec.of("TrueState", ref_ep))
    cl = smooth_general(filt, retro, TargetSpec.of("Classical", ref_ep))
    assert ltl.vw[0] == pytest.approx(VS0_LTL, rel=1e-9)
    assert true.vw[0] == pytest.approx(VS0_TRUE, rel=1e-9)
    # steady-state values need distance from both record ends; a 750 us
    # record never has both flows within 1e-6, so use a longer one
    bun = simulate_true_and_record(ref_ep, 2.5e-3, seed=22)
    f2 = run_filter(bun.record, ref_ep)
    r2 = run_retrofilter(bun.record, ref_ep)
    true = smooth_general(f2, r2, TargetSpec.of("TrueState", ref_ep))
    cl = smooth_general(f2, r2, TargetSpec.of("Classical", ref_ep))
    k = 1250
    assert true.vw[k] == pytest.approx(VSSS_TRUE, rel=1e-6)
    assert cl.vw[k] == pytest.approx(VCS_SS, rel=1e-6)
    # published anchors
    sig2 = ref_ep.sigma2_uncon
    vfss = v_filter_ss(ref_ep)
    assert sig2 / ltl.vw[0] == pytest.approx(5.75, rel=2e-3)
    assert math.sqrt((sig2 - vfss) / (ltl.vw[0] - vfss)) == pytest.approx(
        2.89, rel=2e-3)
    assert vfss / true.vw[k] == pytest.approx(1.427, rel=1e-3)
    assert sig2 / true.vw[0] == pytest.approx(11.6, rel=1e-3)
    # classical steady value against its closed-form approximation
    approx = ss_approximations(ref_ep)
    assert cl.vw[k] == pytest.approx(approx.v_cs, rel=1e-3)
    # the quantum targets' states obey the uncertainty bound v >= 1
    assert min(ltl.vw.min(), true.vw.min()) >= 1.0
    assert ltl.kind == "SmoothedLTL" and cl.kind == "ClassicalSmoothed"


def test_ltl_smoothed_converges_to_filter(ref_ep):
    bun = simulate_true_and_record(ref_ep, 2e-3, seed=8)
    filt = run_filter(bun.record, ref_ep)
    retro = run_retrofilter(bun.record, ref_ep)
    out = smooth_general(filt, retro, TargetSpec.of("LTLFiltered", ref_ep))
    vfss = v_filter_ss(ref_ep)
    late = np.abs(filt.vw - vfss) < 1e-6
    late[-1] = False  # final sample has no retrofiltered mean
    assert late.sum() > 500
    assert np.all(np.abs(out.vw[late] - filt.vw[late]) < 1e-3)
    # the smoothed mean collapses onto the filtered one, far from the retro
    assert np.all(np.abs(out.mean[late] - filt.mean[late])
                  <= 0.02 * np.abs(retro.mean[late] - filt.mean[late]) + 1e-12)


def test_ordering_sweep():
    rng = np.random.default_rng(17)
    for _ in range(40):
        ep = random_effective_params(rng, monitored=True)
        vfss = v_filter_ss(ep)
        n = 64
        # synthetic covariance curves spanning transient to steady state
        v_f = vfss + (ep.sigma2_uncon - vfss) * np.linspace(1, 0, n) ** 2
        w = retro_precision_ss(ep) * np.linspace(0, 1, n)
        for v_tar in (0.0, 1.0, vfss, rng.uniform(0, vfss)):
            if np.any(v_f - v_tar < 0):
                continue
            v_s, _ = combine_arrays(v_f, np.zeros((n, 2)), w,
                                    np.zeros((n, 2)), v_tar)
            assert np.all(v_s >= v_tar - 1e-12 * max(v_tar, 1.0))
            assert np.all(v_s <= v_f + 1e-12 * v_f)


def test_quantum_smoothed_always_physical():
    rng = np.random.default_rng(23)
    for _ in range(200):
        ep = random_effective_params(rng, monitored=True)
        vfss = v_filter_ss(ep)
        wss = retro_precision_ss(ep)
        v_s, _ = combine_arrays(np.array([vfss * (1 + 1e-6)]),
                                np.zeros((1, 2)), np.array([wss]),
                                np.zeros((1, 2)), 1.0)
        assert v_s[0] >= 1.0 - 1e-9


def test_classical_smoother_can_violate_uncertainty():
    # strong-measurement low-thermal regime: classical steady state dips
    # below the ground-state variance while the quantum one cannot
    ep = EffectiveParams(gamma_eff=100.0, n_th_eff=1e4, coop_eff=3e4, eta=0.5,
                         record_duration=1e-3, dt=1e-9)
    vfss = v_filter_ss(ep)
    wss = retro_precision_ss(ep)
    v_cs, _ = combine_arrays(np.array([vfss]), np.zeros((1, 2)),
                             np.array([wss]), np.zeros((1, 2)), 0.0)
    v_qs, _ = combine_arrays(np.array([vfss]), np.zeros((1, 2)),
                             np.array([wss]), np.zeros((1, 2)), 1.0)
    assert v_cs[0] < 1.0 < v_qs[0]
    assert v_cs[0] < 1.0 - 1e-9
    assert v_qs[0] >= 1.0 - 1e-9


def test_z_factor_values(ref_ep):
    # the classical-vs-general mean gain at the steady state
    vfss = v_filter_ss(ref_ep)
    wss = retro_precision_ss(ref_ep)
    z_true = float(z_values(vfss, wss, 1.0))
    assert z_true == pytest.approx(Z_SS_TRUE, rel=1e-9)
    assert float(z_values(vfss, wss, 0.0)) == pytest.approx(0.0, abs=1e-14)
    # spec-level hand arithmetic: v_cS/v_R - (v_S - 1)/(v_R + 1)
    assert z_true == pytest.approx(0.1034, rel=1e-3)


def test_per_record_mean_identity(ref_ep, ref_smoothed):
    filt, retro = ref_smoothed
    cl = smooth_general(filt, retro, TargetSpec.of("Classical", ref_ep))
    for kind in ("LTLFiltered", "TrueState"):
        tgt = TargetSpec.of(kind, ref_ep)
        out = smooth_general(filt, retro, tgt)
        z = z_values(filt.vw, retro.vw, tgt.v_tar)
        lhs = cl.mean - out.mean
        rhs = z[:, None] * (retro.mean - filt.mean)
        sel = retro.vw > 0
        scale = np.abs(lhs[sel]).max()
        assert np.allclose(lhs[sel], rhs[sel], rtol=1e-10, atol=1e-10 * scale)


# ---------------------------------------------------------------------------
# ensemble statistics
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoothed_ensembles(ref_ep, main_truth):
    n = main_truth.currents.shape[1]
    _, v = filter_grid(ref_ep, n)
    _, w = retro_grid(ref_ep, n)
    f_means = filter_means(main_truth.currents, ref_ep, v,
                           np.zeros((main_truth.n_records, 2)))
    z = retro_info(main_truth.currents, ref_ep, w)
    return v, w, f_means, z


@pytest.mark.parametrize("v_tar_key", ["ltl", "true", "classical"])
def test_ensemble_spread_consistency(ref_ep, main_truth, smoothed_ensembles,
                                     v_tar_key):
    v, w, f_means, z = smoothed_ensembles
    v_tar = {"ltl": v_filter_ss(ref_ep), "true": 1.0, "classical": 0.0}[v_tar_key]
    v_s, m_s = combine_arrays(v, f_means, w, z, v_tar)
    sig2 = ref_ep.sigma2_uncon
    n_rec = main_truth.n_records
    rel = 4.0 * math.sqrt(2.0 / (2 * n_rec))
    for k in (0, 200, 500):
        spread = (m_s[:, k] ** 2).mean()
        assert spread == pytest.approx(sig2 - v_s[k], rel=rel)


def test_true_state_smoothed_mse(ref_ep, main_truth, smoothed_ensembles):
    v, w, f_means, z = smoothed_ensembles
    v_s, m_s = combine_arrays(v, f_means, w, z, 1.0)
    n_rec = main_truth.n_records
    rel = 4.0 * math.sqrt(2.0 / (2 * n_rec))
    for k in (0, 200, 500):
        err = main_truth.means[:, k] - m_s[:, k]
        assert (err ** 2).mean() == pytest.approx(v_s[k] - 1.0, rel=rel)


def test_classical_mse_exceeds_quantum(ref_ep, main_truth, smoothed_ensembles):
    """On common records the classical true-state error strictly exceeds the
    quantum smoothed error, by exactly z^2 (v_F + v_R) on average."""
    v, w, f_means, z = smoothed_ensembles
    _, m_s = combine_arrays(v, f_means, w, z, 1.0)
    _, m_cs = combine_arrays(v, f_means, w, z, 0.0)
    k = 500
    tr = main_truth.means[:, k]
    gap = ((tr - m_cs[:, k]) ** 2 - (tr - m_s[:, k]) ** 2)
    zk = float(z_values(v[k], w[k], 1.0))
    theory = zk ** 2 * (v[k] + 1.0 / w[k])
    n_rec = main_truth.n_records
    se = gap.std(ddof=1) / math.sqrt(2 * n_rec)
    assert gap.mean() > 0
    assert abs(gap.mean() - theory) < 4.0 * se


# ---------------------------------------------------------------------------
# classical surrogate: Monte Carlo of the classical smoother
# ---------------------------------------------------------------------------

def _window_means(per_sample: np.ndarray) -> list[tuple[float, float]]:
    """Mean and standard error of (N, n+1) per-sample values over the
    first, middle and last tenth of the record; the se comes from the
    spread of the per-record window means."""
    n = per_sample.shape[1] - 1
    out = []
    for lo, hi in ((0, n // 10), (9 * n // 20, 11 * n // 20),
                   (9 * n // 10, n + 1)):
        r = per_sample[:, lo:hi].mean(axis=1)
        out.append((float(r.mean()), float(r.std(ddof=1) / math.sqrt(
            r.shape[0]))))
    return out


def _surrogate_estimates(ep, base_seed):
    ens = simulate_surrogate_ensemble(ep, ep.record_duration, 2000,
                                      base_seed)
    _, v_f, w, m_f, z = _estimate_stack(ep, ens.currents)
    v_cs, m_cs = combine_arrays(v_f, m_f, w, z, 0.0)
    return ens.means, (m_f, v_f), (m_cs, v_cs)


def test_surrogate_mse_equals_filter_and_classical_covariances(ref_ep):
    """For a classical hidden state with the record law of the quantum
    system, the filter and the classical two-filter smoother (Fraser &
    Potter 1969) are the optimal estimators: their mean-square errors are
    v_F and v_cS."""
    hidden, filtered, classical = _surrogate_estimates(ref_ep, 20240611)
    for name, (means, v) in (("filtered", filtered),
                             ("classical", classical)):
        per = ((means - hidden) ** 2).mean(axis=-1) / v
        for k, (ratio, se) in enumerate(_window_means(per)):
            assert abs(ratio - 1.0) < 4.0 * se, \
                f"{name}, window {k}: MSE / v = {ratio:.4f} +- {se:.4f}"


def test_surrogate_classical_mse_below_ground_state(ref_ep):
    """Where the predicate says so, the classical smoother estimates a
    classical hidden state with a mean-square error below 1, the bound no
    quantum state estimate can pass."""
    ep = dataclasses.replace(ref_ep, n_th_eff=5.0, coop_eff=20.0, eta=0.9)
    assert shup_violation_predicted(ep)
    hidden, _, (m_cs, _) = _surrogate_estimates(ep, 20240612)
    mse, se = _window_means(((m_cs - hidden) ** 2).mean(axis=-1))[1]
    assert mse < 1.0 - 4.0 * se, f"classical MSE {mse:.4f} +- {se:.4f}"


# ---------------------------------------------------------------------------
# nondifferentiability: quadratic variation against the sample period
# ---------------------------------------------------------------------------

def test_quantum_estimates_nondifferentiable_classical_smooth(ref_ep):
    """Mean squared increment per dt over the middle third of 400 records.

    Quantum noise gives the filtered and the LTL-smoothed means a
    quadratic variation that does not depend on dt: their rate stays flat.
    The classical smoothed mean is differentiable, so its rate falls in
    proportion to dt: log-log slope 1."""
    dts = (1e-6, 0.5e-6, 0.25e-6)
    rates: dict = {"Filtered": [], "SmoothedLTL": [], "ClassicalSmoothed": []}
    for j, dt in enumerate(dts):
        ep = dataclasses.replace(ref_ep, dt=dt)
        ens = simulate_truth_ensemble(ep, ep.record_duration, 400,
                                      base_seed=20240901 + j)
        times, v_f, w, m_f, z = _estimate_stack(ep, ens.currents)
        del ens
        n = times.shape[0] - 1
        mid = slice(n // 3, 2 * n // 3 + 1)
        for kind, means in (
                ("Filtered", m_f),
                ("SmoothedLTL",
                 combine_arrays(v_f, m_f, w, z, v_filter_ss(ep))[1]),
                ("ClassicalSmoothed", combine_arrays(v_f, m_f, w, z, 0.0)[1])):
            per = (np.diff(means[:, mid], axis=1) ** 2).mean(axis=(1, 2)) / dt
            rates[kind].append((per.mean(), per.std(ddof=1)
                                / math.sqrt(per.shape[0])))
    for kind in ("Filtered", "SmoothedLTL"):
        r0, se0 = rates[kind][0]
        for r, se in rates[kind][1:]:
            assert abs(r - r0) < 4.0 * math.hypot(se, se0), (kind, rates[kind])
    slope = np.polyfit(np.log(dts), np.log(
        [r for r, _ in rates["ClassicalSmoothed"]]), 1)[0]
    assert abs(slope - 1.0) < 0.2, (slope, rates["ClassicalSmoothed"])
