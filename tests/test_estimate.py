"""Filtering and retrofiltering checks against ground truth.

The mean recursions are validated against the truth ensemble through the
exact Gaussian identities they must satisfy:

* filter error      Var[m_T - m_F] = v_F(t) - v_true
* filter spread     Var[m_F]       = sigma2 - v_F(t)
* effect error      Var[m_T - m_R] = v_R(t) + v_true   (flat-prior estimate)
* cross moment      Cov[m_F, m_R]  = sigma2 - v_F(t)

and through optimality: innovations are white, and any perturbation of the
filter gain strictly increases the steady-state mean squared error.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from lgqsmooth import (
    EffectiveParams,
    MeasurementRecord,
    NumericalError,
    Trajectory,
    innovations,
    run_filter,
    run_ltl_filter,
    run_retrofilter,
    v_filter_ss,
)
from lgqsmooth.estimate import (
    effect_means,
    filter_grid,
    filter_means,
    retro_grid,
    retro_info,
)
from lgqsmooth.model import retro_precision_ss, v_retro
from lgqsmooth.simulate import (
    _evolve_true,
    simulate_true_and_record,
    simulate_truth_ensemble,
)

from _oracles import (
    effect_means_broadcast,
    filter_means_broadcast,
    filter_means_reference,
    retro_info_broadcast,
    retro_info_reference,
    same_bits,
)


def make_record(ep, seed=0, n=None):
    dur = (n * ep.dt) if n is not None else ep.record_duration
    return simulate_true_and_record(ep, dur, seed=seed).record


# ---------------------------------------------------------------------------
# structure and validation
# ---------------------------------------------------------------------------

def test_trajectory_validation():
    t = np.arange(4) * 1e-6
    m = np.zeros((4, 2))
    v = np.ones(4)
    with pytest.raises(ValueError, match="kind"):
        Trajectory(t, m, v, "Wrong")
    with pytest.raises(ValueError, match="increasing"):
        Trajectory(t[::-1], m, v, "Filtered")
    with pytest.raises(ValueError, match="info"):
        Trajectory(t, m, v, "Filtered", info=m)
    with pytest.raises(ValueError, match="info"):
        Trajectory(t, m, v, "Retrofiltered")


def test_trajectory_rejects_mis_shaped_arrays():
    t = np.arange(4) * 1e-6
    m = np.zeros((4, 2))
    v = np.ones(4)
    with pytest.raises(ValueError, match="mean/vw shapes"):
        Trajectory(t, m, v[:3], "Filtered")
    with pytest.raises(ValueError, match="mean/vw shapes"):
        Trajectory(t, m, v[:, None], "Filtered")
    with pytest.raises(ValueError, match="info shape"):
        Trajectory(t, m, v, "Retrofiltered", info=m[:3])


def test_filter_rejects_eta_mismatch(ref_ep):
    rec = make_record(ref_ep, n=10)
    bad = EffectiveParams(gamma_eff=ref_ep.gamma_eff, n_th_eff=ref_ep.n_th_eff,
                          coop_eff=ref_ep.coop_eff, eta=0.2,
                          record_duration=ref_ep.record_duration, dt=ref_ep.dt)
    with pytest.raises(ValueError, match="run_filter: record efficiency"):
        run_filter(rec, bad)
    with pytest.raises(ValueError,
                       match="run_retrofilter: record efficiency"):
        run_retrofilter(rec, bad)


def test_non_finite_sample_reported(ref_ep):
    # a record is finite by construction, so no filter meets a NaN
    rec = make_record(ref_ep, n=20)
    currents = rec.currents.copy()
    currents[13, 0] = np.nan
    with pytest.raises(NumericalError,
                       match="^non-finite record value at sample 13$"):
        MeasurementRecord(rec.dt, currents, rec.eta_effective)


# ---------------------------------------------------------------------------
# deterministic behaviour
# ---------------------------------------------------------------------------

def test_unmonitored_filter_is_pure_decay():
    ep = EffectiveParams(gamma_eff=100.0, n_th_eff=40.0, coop_eff=0.0,
                         eta=0.5, record_duration=1e-3, dt=1e-6)
    n = 1000
    currents = np.zeros((1, n, 2))
    currents[0, :, 0] = np.random.default_rng(3).normal(0, 1e3, n)
    m0 = np.array([[3.0, -2.0]])
    _, v = filter_grid(ep, n)
    means = filter_means(currents, ep, v, m0)[0]
    f = math.exp(-ep.gamma_eff * ep.dt / 2.0)
    ks = np.arange(n + 1)
    assert np.allclose(means, f ** ks[:, None] * m0[0], rtol=1e-12)


def test_covariance_independent_of_record(ref_ep):
    a = run_filter(make_record(ref_ep, seed=1, n=100), ref_ep)
    b = run_filter(make_record(ref_ep, seed=2, n=100), ref_ep)
    assert np.array_equal(a.vw, b.vw)
    assert not np.array_equal(a.mean, b.mean)
    ra = run_retrofilter(make_record(ref_ep, seed=1, n=100), ref_ep)
    rb = run_retrofilter(make_record(ref_ep, seed=2, n=100), ref_ep)
    assert np.array_equal(ra.vw, rb.vw)


def test_filter_starts_unconditional(ref_ep):
    traj = run_filter(make_record(ref_ep, n=50), ref_ep)
    assert np.all(traj.mean[0] == 0.0)
    assert traj.vw[0] == pytest.approx(ref_ep.sigma2_uncon, rel=1e-14)
    assert traj.kind == "Filtered"
    assert traj.times.shape[0] == 51


def test_retrofilter_final_condition(ref_ep):
    traj = run_retrofilter(make_record(ref_ep, n=50), ref_ep)
    assert traj.kind == "Retrofiltered"
    assert traj.vw[-1] == 0.0
    assert np.all(traj.info[-1] == 0.0)
    assert np.all(np.isnan(traj.mean[-1]))
    assert np.all(traj.vw >= 0.0)
    # precision grows monotonically with the remaining record
    assert np.all(np.diff(traj.vw) <= 1e-15)
    # interior points carry a defined mean
    assert np.all(np.isfinite(traj.mean[:-1]))
    assert np.allclose(traj.info[10] / traj.vw[10], traj.mean[10])


def test_effect_mean_floor(ref_ep):
    w = np.array([0.0, 1e-20, 1.0])
    z = np.ones((3, 2))
    out = effect_means(w, z, ref_ep)
    assert np.all(np.isnan(out[0])) and np.all(np.isnan(out[1]))
    assert np.allclose(out[2], 1.0)
    assert 1e-20 < 1e-12 * retro_precision_ss(ref_ep)


# ---------------------------------------------------------------------------
# statistical identities against the truth ensemble
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def filtered_ensemble(ref_ep, main_truth):
    n = main_truth.currents.shape[1]
    times, v = filter_grid(ref_ep, n)
    m0 = np.zeros((main_truth.n_records, 2))
    means = filter_means(main_truth.currents, ref_ep, v, m0)
    return times, v, means


@pytest.fixture(scope="module")
def retro_ensemble(ref_ep, main_truth):
    n = main_truth.currents.shape[1]
    times, w = retro_grid(ref_ep, n)
    z = retro_info(main_truth.currents, ref_ep, w)
    return times, w, z


def test_filter_error_and_spread(ref_ep, main_truth, filtered_ensemble):
    times, v, means = filtered_ensemble
    sig2 = ref_ep.sigma2_uncon
    n_rec = main_truth.n_records
    rel = 4.0 * math.sqrt(2.0 / (2 * n_rec))
    for k in (0, 100, 300, 749):
        err = main_truth.means[:, k] - means[:, k]
        mse = (err ** 2).mean()
        assert mse == pytest.approx(v[k] - 1.0, rel=rel)
        spread = (means[:, k] ** 2).mean()
        if k == 0:
            assert spread == 0.0
        else:
            assert spread == pytest.approx(sig2 - v[k], rel=rel)


def test_retro_error_and_cross_moment(ref_ep, main_truth, filtered_ensemble,
                                      retro_ensemble):
    _, v, f_means = filtered_ensemble
    _, w, z = retro_ensemble
    r_means = effect_means(w, z, ref_ep)
    sig2 = ref_ep.sigma2_uncon
    n_rec = main_truth.n_records
    rel = 4.0 * math.sqrt(2.0 / (2 * n_rec))
    for k in (0, 200, 400, 600):
        err = main_truth.means[:, k] - r_means[:, k]
        assert np.all(np.isfinite(err))
        assert abs(err.mean()) < 4.0 * err.std() / math.sqrt(2 * n_rec)
        assert (err ** 2).mean() == pytest.approx(1.0 / w[k] + 1.0, rel=rel)
    for k in (300, 500, 700):
        cross = (f_means[:, k] * r_means[:, k]).mean()
        scale = math.sqrt(float((f_means[:, k] ** 2).mean()
                                * (r_means[:, k] ** 2).mean()))
        assert abs(cross - (sig2 - v[k])) < 4.0 * scale / math.sqrt(2 * n_rec)


def test_innovations_white(ref_ep, main_truth, filtered_ensemble):
    _, v, means = filtered_ensemble
    dt = ref_ep.dt
    g = math.sqrt(ref_ep.meas_rate)
    e = (main_truth.currents - g * means[:, :-1]) * dt
    k0 = 300
    tail = e[:, k0:, :]
    theory = dt * (1.0 + g * g * (v[k0:-1] - 1.0) * dt)
    ratio = (tail ** 2).mean(axis=(0, 2)) / theory
    assert ratio.mean() == pytest.approx(1.0, abs=0.005)
    flat = tail.reshape(tail.shape[0], -1)
    denom = (flat ** 2).sum()
    for lag in range(1, 6):
        num = (tail[:, :-lag, :] * tail[:, lag:, :]).sum()
        assert abs(num / denom) < 0.004, f"lag {lag}"


def test_innovations_orthogonal_to_filter_mean(ref_ep, main_truth,
                                               filtered_ensemble):
    """Each innovation is uncorrelated with the mean it corrects.

    Given the past, e_k has mean 0 and variance dt (1 + g^2 (v_k - 1) dt)
    per component, so sum_k e_k . m_k over the ensemble is a martingale and
    its z score is about standard normal.  The exact filter reads -2.5 at
    this seed (-0.6 to -2.5 over three seeds; the Euler gain step may leave
    a small negative bias).  A gain scaled by 0.8 or 1.2 reads +13.7 or -14.2,
    while the lag bounds of test_innovations_white and the innovation
    variance still pass."""
    _, v, means = filtered_ensemble
    dt = ref_ep.dt
    g = math.sqrt(ref_ep.meas_rate)
    m = means[:, :-1]
    e = (main_truth.currents - g * m) * dt
    var = dt * (1.0 + g * g * (v[:-1] - 1.0) * dt)
    z = float((e * m).sum() / math.sqrt((var[:, None] * m * m).sum()))
    assert abs(z) < 5.0, f"innovation-mean z score {z:.2f}"


def test_innovations_helper(ref_ep):
    rec = make_record(ref_ep, seed=9, n=200)
    e = innovations(rec, ref_ep)
    traj = run_filter(rec, ref_ep)
    g = math.sqrt(ref_ep.meas_rate)
    manual = (rec.currents - g * traj.mean[:-1]) * rec.dt
    assert np.array_equal(e, manual)
    assert e.shape == (200, 2)


def test_gain_perturbation_increases_mse(ref_ep, main_truth, filtered_ensemble):
    """Spot check of optimality: +-10% gain scaling strictly hurts."""
    times, v, means_opt = filtered_ensemble
    dt = ref_ep.dt
    f = math.exp(-ref_ep.gamma_eff * dt / 2.0)
    g = math.sqrt(ref_ep.meas_rate)
    cur = main_truth.currents
    k0, k1 = 400, 750

    def run_scaled(alpha):
        m = np.zeros((cur.shape[0], 2))
        sq = []
        for k in range(k1):
            m = f * m + alpha * g * v[k] * (cur[:, k] * dt - g * m * dt)
            if k + 1 >= k0:
                d = main_truth.means[:, k + 1] - m
                sq.append((d ** 2).mean())
        return float(np.mean(sq))

    mse_opt = run_scaled(1.0)
    err = main_truth.means[:, k0:k1 + 1] - means_opt[:, k0:k1 + 1]
    assert mse_opt == pytest.approx(float((err ** 2).mean()), rel=1e-12)
    assert run_scaled(0.9) > mse_opt
    assert run_scaled(1.1) > mse_opt


def _within_reference(got, ref):
    # the declared tolerance: 1e-12 of each quadrature's largest |m|
    err = np.abs(got - ref).max(axis=(0, 1))
    return bool(np.all(err <= 1e-12 * np.abs(ref).max(axis=(0, 1))))


def test_recursions_match_per_sample_references(ref_ep, main_truth,
                                                filtered_ensemble,
                                                retro_ensemble):
    """The filter's factor-and-offset recurrence rounds differently from
    the per-sample update and stays within tolerance; the retrofilter does
    the per-sample arithmetic, so its bits are the reference's.  Both on
    the stacked main ensemble and on one record of over 1e5 samples, which
    takes the float path."""
    _, v, means = filtered_ensemble
    _, w, z = retro_ensemble
    m0 = np.zeros((main_truth.n_records, 2))
    ref = filter_means_reference(main_truth.currents, ref_ep, v, m0)
    assert _within_reference(means, ref)
    assert same_bits(z, retro_info_reference(main_truth.currents, ref_ep, w))
    long = main_truth.currents[:134].reshape(1, -1, 2)
    assert long.shape[1] >= 100_000
    _, v_long = filter_grid(ref_ep, long.shape[1])
    _, w_long = retro_grid(ref_ep, long.shape[1])
    m0 = np.array([[3.0, -2.0]])
    assert _within_reference(filter_means(long, ref_ep, v_long, m0),
                             filter_means_reference(long, ref_ep, v_long, m0))
    assert same_bits(retro_info(long, ref_ep, w_long),
                      retro_info_reference(long, ref_ep, w_long))


# ---------------------------------------------------------------------------
# long-time-limit filtering across warm-up records
# ---------------------------------------------------------------------------

def test_ltl_filter_converged(ref_ep):
    ens = simulate_truth_ensemble(ref_ep, ref_ep.record_duration, 4,
                                  base_seed=550)
    recs = [ens.record(i) for i in range(4)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = run_ltl_filter(recs, ref_ep)
    assert traj.kind == "LTL"
    assert traj.converged
    assert traj.times[0] == 0.0
    assert traj.times.shape[0] == recs[-1].n + 1
    vss = v_filter_ss(ref_ep)
    assert np.all(np.abs(traj.vw - vss) < 1e-9 * vss)

    # the target window must equal the corresponding slice of one long run
    cat = np.concatenate([r.currents for r in recs], axis=0)
    n_tot = cat.shape[0]
    _, v_all = filter_grid(ref_ep, n_tot)
    m_all = filter_means(cat[None], ref_ep, v_all, np.zeros((1, 2)))[0]
    off = n_tot - recs[-1].n
    assert np.array_equal(traj.mean, m_all[off:])
    assert np.array_equal(traj.vw, v_all[off:])


def test_ltl_filter_insufficient_warmup(ref_ep):
    rec = make_record(ref_ep, seed=3)
    with pytest.warns(UserWarning, match="warm-up"):
        traj = run_ltl_filter([rec], ref_ep)
    assert not traj.converged
    # without warm-up the window is just a fresh filter run
    plain = run_filter(rec, ref_ep)
    assert np.array_equal(traj.mean, plain.mean)
    assert np.array_equal(traj.vw, plain.vw)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj2 = run_ltl_filter([rec], ref_ep, min_warmup=0)
    assert not traj2.converged


def test_ltl_filter_mixed_dt_rejected(ref_ep):
    a = make_record(ref_ep, seed=1, n=10)
    b = MeasurementRecord(2e-6, np.zeros((5, 2)), ref_ep.eta)
    with pytest.raises(ValueError, match="sample period"):
        run_ltl_filter([a, b], ref_ep)
    with pytest.raises(ValueError, match="at least one"):
        run_ltl_filter([], ref_ep)


def test_retro_variance_view_matches_precision(ref_ep):
    # v_retro and the stored precision agree away from the final sample
    rec = make_record(ref_ep, n=200)
    traj = run_retrofilter(rec, ref_ep)
    t = traj.times[:-1]
    v = v_retro(t, rec.duration, ref_ep)
    assert np.allclose(v, 1.0 / traj.vw[:-1], rtol=1e-12)


# ---------------------------------------------------------------------------
# single-record recursion against the stacked kernels
# ---------------------------------------------------------------------------

@st.composite
def _stacked_currents(draw):
    # up to 200 samples: the stacked recurrence's 64-step chunks end
    # mid-record, on a record's last step and past it
    n_rec = draw(st.integers(1, 5))
    n = draw(st.integers(0, 200))
    value = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
    currents = draw(hnp.arrays(float, (n_rec, n, 2), elements=value))
    m0 = draw(hnp.arrays(float, (n_rec, 2), elements=value))
    return currents, m0


def _edge(n):
    """Three records of n samples: none, one, or a chunk boundary at,
    just before or just after the last step (64-step chunks)."""
    rng = np.random.default_rng(n)
    return rng.normal(0.0, 1e3, (3, n, 2)), rng.normal(0.0, 1e3, (3, 2))


def _start_and_kicks(m0, kicks):
    # _evolve_true's means argument: the start, then the kicks
    means = np.empty((m0.shape[0], kicks.shape[1] + 1, 2))
    means[:, 0] = m0
    means[:, 1:] = kicks
    return means


@settings(max_examples=80, deadline=None)
@given(_stacked_currents())
@example(_edge(0))
@example(_edge(1))
@example(_edge(63))
@example(_edge(64))
@example(_edge(65))
@example(_edge(129))
def test_single_record_matches_stacked_rows_property(ref_ep, data):
    # a one-record call recurses on Python floats; its bits must equal the
    # corresponding row of the stacked loop, for the filter, the
    # retrofilter and the true means (currents stand in for the kicks)
    currents, m0 = data
    n = currents.shape[1]
    _, v = filter_grid(ref_ep, n)
    _, w = retro_grid(ref_ep, n)
    m_all = filter_means(currents, ref_ep, v, m0)
    z_all = retro_info(currents, ref_ep, w)
    t_all, c_all = _evolve_true(_start_and_kicks(m0, currents),
                                currents.copy(), ref_ep)
    for i in range(currents.shape[0]):
        row = slice(i, i + 1)
        m_one = filter_means(currents[row], ref_ep, v, m0[row])
        z_one = retro_info(currents[row], ref_ep, w)
        t_one, c_one = _evolve_true(_start_and_kicks(m0[row], currents[row]),
                                    currents[row].copy(), ref_ep)
        assert same_bits(m_one, m_all[row])
        assert same_bits(z_one, z_all[row])
        assert same_bits(t_one, t_all[row])
        assert same_bits(c_one, c_all[row])
    if n == 0:
        assert same_bits(m_all[:, 0], m0)
        assert same_bits(t_all[:, 0], m0)
        assert not np.any(z_all)


def test_per_record_runs_match_stacked_rows(ref_ep):
    ens = simulate_truth_ensemble(ref_ep, ref_ep.record_duration, 8,
                                  base_seed=750)
    assert ens.currents.shape == (8, 750, 2)
    _, v = filter_grid(ref_ep, 750)
    _, w = retro_grid(ref_ep, 750)
    m0 = np.zeros((8, 2))
    m_all = filter_means(ens.currents, ref_ep, v, m0)
    z_all = retro_info(ens.currents, ref_ep, w)
    for i in range(8):
        rec = ens.record(i)
        assert same_bits(run_filter(rec, ref_ep).mean, m_all[i])
        assert same_bits(run_retrofilter(rec, ref_ep).info, z_all[i])


@settings(max_examples=60, deadline=None)
@given(_stacked_currents())
@example(_edge(0))
@example(_edge(64))
@example(_edge(129))
def test_stacked_kernels_match_broadcast_oracles_property(ref_ep, data):
    # the time-major chunks and pair-wide factors keep the bits of the
    # record-major loop with broadcast factors, stacked and for one
    # record, and the effect mean's mask wherever w has holes
    currents, m0 = data
    n = currents.shape[1]
    _, v = filter_grid(ref_ep, n)
    _, w = retro_grid(ref_ep, n)
    for rows in (slice(None), slice(0, 1)):
        c = currents[rows]
        assert same_bits(filter_means(c, ref_ep, v, m0[rows]),
                          filter_means_broadcast(c, ref_ep, v, m0[rows]))
        assert same_bits(retro_info(c, ref_ep, w),
                          retro_info_broadcast(c, ref_ep, w))
    z = retro_info(currents, ref_ep, w)
    holes = w.copy()
    holes[::3] = 0.0
    for w_k in (w, holes):
        for z_k in (z, z[0]):
            assert same_bits(effect_means(w_k, z_k, ref_ep),
                              effect_means_broadcast(w_k, z_k, ref_ep))


def test_ensemble_kernels_match_broadcast_oracles(ref_ep, main_truth,
                                                  filtered_ensemble,
                                                  retro_ensemble):
    # the report's block size and record length, many chunks deep
    _, v, means = filtered_ensemble
    _, w, z = retro_ensemble
    c = main_truth.currents[:256]
    m0 = np.zeros((256, 2))
    assert same_bits(means[:256], filter_means_broadcast(c, ref_ep, v, m0))
    assert same_bits(z[:256], retro_info_broadcast(c, ref_ep, w))
    assert same_bits(effect_means(w, z[:256], ref_ep),
                      effect_means_broadcast(w, z[:256], ref_ep))
