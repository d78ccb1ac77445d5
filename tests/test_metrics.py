"""Metric checks: HS distance against a Wigner-grid oracle, theory curves,
SEV calibration on correlated ensembles, consistency check, VACF."""

import math

import numpy as np
import pytest

from lgqsmooth import (
    EffectiveParams,
    TargetSpec,
    consistency_check,
    hs_avg_theory,
    hs_avg_theory_classical,
    run_filter,
    run_retrofilter,
    sev,
    smooth_general,
    std_delta_theory,
    v_filter_ss,
    vacf,
)
from lgqsmooth.estimate import (
    filter_grid,
    filter_means,
    retro_grid,
    retro_info,
)
from lgqsmooth.metrics import (
    _biased,
    acov_rows,
    add_rows,
    effective_record_count,
    hs_sq_isotropic,
    vacf_from_sums,
)
from lgqsmooth.model import retro_precision_ss
from lgqsmooth.smooth import combine_arrays, z_values
from lgqsmooth.simulate import simulate_true_and_record

from _oracles import acf_biased_whole, gaussian_hs_sq, velocity_acov_whole


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distance
# ---------------------------------------------------------------------------

def wigner(xs, ps, mean, cov):
    inv = np.linalg.inv(cov)
    dx = xs[:, None] - mean[0]
    dp = ps[None, :] - mean[1]
    q = inv[0, 0] * dx ** 2 + 2 * inv[0, 1] * dx * dp + inv[1, 1] * dp ** 2
    return np.exp(-0.5 * q) / (2 * math.pi * math.sqrt(np.linalg.det(cov)))


def isotropic(mean, v):
    """A (mean, covariance) pair with covariance v I."""
    return np.asarray(mean, dtype=float), v * np.eye(2)


def test_hs_sq_matches_wigner_grid():
    a = (np.array([0.3, -0.6]), np.array([[2.3, 0.4], [0.4, 1.7]]))
    b = (np.array([1.8, -1.4]), np.array([[1.2, -0.3], [-0.3, 3.0]]))
    h = 0.02
    grid = np.arange(-14.0, 14.0 + h / 2, h)
    wa = wigner(grid, grid, *a)
    wb = wigner(grid, grid, *b)
    oracle = 4 * math.pi * np.sum((wa - wb) ** 2) * h * h
    assert gaussian_hs_sq(a, b) == pytest.approx(oracle, rel=1e-5)


def test_hs_sq_basic_properties():
    a = isotropic([0.5, 1.0], 2.0)
    b = isotropic([-1.0, 0.0], 3.5)
    assert gaussian_hs_sq(a, a) == 0.0
    assert gaussian_hs_sq(a, b) == pytest.approx(gaussian_hs_sq(b, a), rel=1e-14)
    assert gaussian_hs_sq(a, b) > 0
    # orthogonal pure states saturate at 2
    far = isotropic([40.0, 0.0], 1.0)
    ground = isotropic([0.0, 0.0], 1.0)
    assert gaussian_hs_sq(ground, far) == pytest.approx(2.0, abs=1e-12)
    # vectorized isotropic variant agrees with the matrix form
    v = hs_sq_isotropic(2.0, np.array([0.5, 1.0]), 3.5, np.array([-1.0, 0.0]))
    assert float(v) == pytest.approx(gaussian_hs_sq(a, b), rel=1e-12)


def test_hs_sq_errors():
    bad = (np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))
    good = isotropic([0, 0], 1.0)
    with pytest.raises(ValueError, match="positive definite"):
        gaussian_hs_sq(bad, good)


def test_hs_avg_theory():
    assert hs_avg_theory(2.0, 2.0) == 0.0
    assert hs_avg_theory(2.0, 4.0) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        hs_avg_theory(4.0, 2.0)
    with pytest.raises(ValueError):
        hs_avg_theory(0.0, 2.0)
    # a curve of v_est: every sample must satisfy the bound
    curve = np.array([1.0, 2.0, 4.0])
    assert np.array_equal(hs_avg_theory(1.0, curve), 1.0 - 1.0 / curve)
    with pytest.raises(ValueError):
        hs_avg_theory(1.0, np.array([2.0, 0.5]))
    with pytest.raises(ValueError):
        hs_avg_theory(1.0, np.array([2.0, np.nan]))


def test_hs_empirical_matches_theory(ref_ep, main_truth):
    """Monte-Carlo averages of the HS distance against both closed forms."""
    n = main_truth.currents.shape[1]
    _, v = filter_grid(ref_ep, n)
    _, w = retro_grid(ref_ep, n)
    f_means = filter_means(main_truth.currents, ref_ep, v,
                           np.zeros((main_truth.n_records, 2)))
    z = retro_info(main_truth.currents, ref_ep, w)
    v_s, m_s = combine_arrays(v, f_means, w, z, 1.0)
    v_cs, m_cs = combine_arrays(v, f_means, w, z, 0.0)
    k = 500
    tr = main_truth.means[:, k]
    n_rec = main_truth.n_records

    d_s = hs_sq_isotropic(1.0, tr, float(v_s[k]), m_s[:, k])
    th_s = hs_avg_theory(1.0, float(v_s[k]))
    assert abs(d_s.mean() - th_s) < 3.5 * d_s.std(ddof=1) / math.sqrt(n_rec)

    d_f = hs_sq_isotropic(1.0, tr, float(v[k]), f_means[:, k])
    th_f = hs_avg_theory(1.0, float(v[k]))
    assert abs(d_f.mean() - th_f) < 3.5 * d_f.std(ddof=1) / math.sqrt(n_rec)

    # classical estimator against the true state, per-time theory
    zk = float(z_values(v[k], w[k], 1.0))
    denom = (float(v_s[k]) + float(v_cs[k])) + zk ** 2 * (v[k] + 1.0 / w[k])
    th_c = 1.0 / float(v_cs[k]) + 1.0 - 4.0 / denom
    curve = hs_avg_theory_classical(1.0, v, w, v_s, v_cs)
    assert curve[k] == pytest.approx(th_c, rel=1e-12)
    # the final sample has w = 0: z vanishes there, so no spread is added
    assert curve[-1] == pytest.approx(
        1.0 / v_cs[-1] + 1.0 - 4.0 / (v_s[-1] + v_cs[-1]), rel=1e-12)
    d_c = hs_sq_isotropic(1.0, tr, float(v_cs[k]), m_cs[:, k])
    assert abs(d_c.mean() - th_c) < 3.5 * d_c.std(ddof=1) / math.sqrt(n_rec)
    # classical pays a strict penalty over the quantum smoother
    assert th_c > th_s
    assert np.all(curve[:-1] > 1.0 - 1.0 / v_s[:-1])


def test_hs_classical_steady_matches_pertime(ref_ep):
    # at long horizons the per-time classical theory approaches the
    # steady-state closed form
    vfss = v_filter_ss(ref_ep)
    wss = retro_precision_ss(ref_ep)
    v_s = float(combine_arrays(np.array([vfss]), np.zeros((1, 2)),
                               np.array([wss]), np.zeros((1, 2)), 1.0)[0][0])
    v_cs = vfss / (1 + wss * vfss)
    z = float(z_values(vfss, wss, 1.0))
    denom = (v_s + v_cs) + z ** 2 * (vfss + 1.0 / wss)
    manual = 1.0 / v_cs + 1.0 - 4.0 / denom
    assert hs_avg_theory_classical(1.0, vfss, wss, v_s, v_cs) == \
        pytest.approx(manual, rel=1e-12)
    with pytest.raises(ValueError):
        hs_avg_theory_classical(0.0, vfss, wss, v_s, v_cs)


# ---------------------------------------------------------------------------
# Std(delta) theory
# ---------------------------------------------------------------------------

def test_std_delta_frozen_values(ref_ep):
    tgt = TargetSpec.of("LTLFiltered", ref_ep)
    f0 = float(std_delta_theory(ref_ep, "Filtered", tgt, 0.0))
    s0 = float(std_delta_theory(ref_ep, "Smoothed", tgt, 0.0))
    assert f0 == pytest.approx(8.44, rel=1e-3)
    assert s0 == pytest.approx(2.92, rel=2e-3)
    assert f0 / s0 == pytest.approx(2.89, rel=1e-3)


def test_std_delta_ordering(ref_ep):
    t = np.linspace(0.0, ref_ep.record_duration, 151)
    for kind in ("LTLFiltered", "TrueState"):
        tgt = TargetSpec.of(kind, ref_ep)
        f = std_delta_theory(ref_ep, "Filtered", tgt, t)
        s = std_delta_theory(ref_ep, "Smoothed", tgt, t)
        c = std_delta_theory(ref_ep, "Classical", tgt, t)
        assert np.all(s <= f + 1e-12)
        assert np.all(s <= c + 1e-12)


def test_std_delta_errors(ref_ep):
    with pytest.raises(ValueError, match="estimator kind"):
        std_delta_theory(ref_ep, "Other", TargetSpec.of("TrueState", ref_ep),
                         0.0)
    # a target larger than the filtered variance is invalid
    big = EffectiveParams(gamma_eff=1.0, n_th_eff=1e6, coop_eff=1e-3,
                          eta=0.05, record_duration=1.0, dt=1e-3)
    wide = TargetSpec.of("LTLFiltered", big)
    assert wide.v_tar > ref_ep.sigma2_uncon
    with pytest.raises(ValueError, match="negative variance"):
        std_delta_theory(ref_ep, "Filtered", wide, 0.0)


def test_std_delta_empirical_classical(ref_ep, main_truth):
    n = main_truth.currents.shape[1]
    _, v = filter_grid(ref_ep, n)
    _, w = retro_grid(ref_ep, n)
    f_means = filter_means(main_truth.currents, ref_ep, v,
                           np.zeros((main_truth.n_records, 2)))
    z = retro_info(main_truth.currents, ref_ep, w)
    _, m_cs = combine_arrays(v, f_means, w, z, 0.0)
    k = 500
    t = float(k * ref_ep.dt)
    delta = m_cs[:, k] - main_truth.means[:, k]
    emp = math.sqrt(float((delta ** 2).mean()))
    th = float(std_delta_theory(ref_ep, "Classical",
                                TargetSpec.of("TrueState", ref_ep), t))
    n_eff = effective_record_count(ref_ep, main_truth.n_records,
                                   ref_ep.record_duration)
    assert abs(emp - th) < 3.0 * th / math.sqrt(2 * 2 * n_eff)


# ---------------------------------------------------------------------------
# standard error of variance
# ---------------------------------------------------------------------------

def test_effective_record_count_closed_form(ref_ep):
    # oracle: geometric-series closed form of the correlation sum
    for n, dur in ((300, 750e-6), (16653, 750e-6), (50, 5e-3), (2000, 1e-3)):
        q = math.exp(-ref_ep.gamma_eff * dur)
        s1 = (q - q ** n) / (1 - q)
        s2 = q * (1 - n * q ** (n - 1) + (n - 1) * q ** n) / (1 - q) ** 2
        closed = n / (1.0 + 2.0 * (s1 - s2 / n))
        assert effective_record_count(ref_ep, n, dur) == pytest.approx(
            closed, rel=1e-10)
    # paper-scale correlation factor
    n_eff = effective_record_count(ref_ep, 16653, 750e-6)
    assert n_eff / 16653 == pytest.approx(0.1977, rel=1e-3)


def test_sev_limits(ref_ep):
    # uncorrelated records
    assert effective_record_count(ref_ep, 500, 10.0) == pytest.approx(500, rel=1e-12)
    assert sev(ref_ep, 500, 3.0, 10.0) == pytest.approx(3.0 * math.sqrt(2 / 500))
    # fully correlated records
    assert effective_record_count(ref_ep, 500, 0.0) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(ValueError):
        sev(ref_ep, 1, 3.0, 750e-6)


def test_sev_calibrated_on_correlated_ensemble(ref_ep):
    """Sample variances of AR(1) record values land outside +-1 SEV roughly
    one third of the time, as for a correctly calibrated error bar."""
    dur = 0.4 / ref_ep.gamma_eff
    rho = math.exp(-ref_ep.gamma_eff * dur / 2.0)
    v_true = 3.7
    n, m = 300, 4000
    rng = np.random.default_rng(1234)
    x = np.empty((m, n))
    x[:, 0] = rng.normal(0.0, math.sqrt(v_true), m)
    innov = rng.normal(0.0, math.sqrt(v_true * (1 - rho * rho)), (m, n - 1))
    for k in range(1, n):
        x[:, k] = rho * x[:, k - 1] + innov[:, k - 1]
    vhat = x.var(axis=1, ddof=1)
    bar = sev(ref_ep, n, v_true, dur)
    frac = float(np.mean(np.abs(vhat - v_true) > bar))
    assert 0.28 < frac < 0.36


# ---------------------------------------------------------------------------
# ensemble consistency
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_traj_ensemble(ref_ep):
    from lgqsmooth.simulate import simulate_truth_ensemble

    ens = simulate_truth_ensemble(ref_ep, 300e-6, 300, base_seed=909)
    rows = []
    for i in range(ens.n_records):
        rec = ens.record(i)
        f = run_filter(rec, ref_ep)
        r = run_retrofilter(rec, ref_ep)
        s = smooth_general(f, r, TargetSpec.of("TrueState", ref_ep))
        rows.append((f, r, s))
    stacks = {tr.kind: (np.stack([row[j].mean for row in rows]), tr.vw)
              for j, tr in enumerate(rows[0])}
    return stacks, rows[0][0].times


def test_consistency_check_passes(ref_ep, small_traj_ensemble):
    stats = consistency_check(*small_traj_ensemble, ref_ep)
    assert set(stats.var_ens) == {"Filtered", "Retrofiltered", "SmoothedTrue"}
    assert stats.n_records == 300
    assert stats.n_eff < stats.n_records
    for kind in stats.var_ens:
        assert not stats.outside[kind].any(), kind
    # effect identity: theory exceeds sigma2; state identity stays below
    assert np.all(stats.theory["Retrofiltered"][:-1] > stats.sigma2_uncon)
    assert np.all(stats.theory["Filtered"] <= stats.sigma2_uncon)
    # filtered start is deterministic: both sides exactly zero
    assert stats.var_ens["Filtered"][0] == 0.0
    assert stats.theory["Filtered"][0] == pytest.approx(0.0, abs=1e-12)


def test_consistency_check_flags_degenerate(ref_ep):
    # duplicated records: ensemble variance collapses to float dust, far
    # below the theory value, so late samples must be flagged
    bun = simulate_true_and_record(ref_ep, 750e-6, seed=5)
    f = run_filter(bun.record, ref_ep)
    stats = consistency_check({"Filtered": (np.stack([f.mean] * 100), f.vw)},
                              f.times, ref_ep)
    assert np.all(stats.var_ens["Filtered"] < 1e-20)
    assert stats.outside["Filtered"][100:].all()


def test_consistency_check_errors(ref_ep):
    bun = simulate_true_and_record(ref_ep, 100e-6, seed=5)
    f = run_filter(bun.record, ref_ep)
    with pytest.raises(ValueError, match="at least two"):
        consistency_check({"Filtered": (f.mean[None], f.vw)}, f.times, ref_ep)
    with pytest.raises(ValueError, match="empty"):
        consistency_check({}, f.times, ref_ep)


# ---------------------------------------------------------------------------
# velocity autocorrelation
# ---------------------------------------------------------------------------

def _blocked_sum(means, dt, max_lag):
    """The report's path: the rows of each 256-record block added to one
    running sum in record order."""
    total = np.zeros(max_lag + 1)
    for lo in range(0, means.shape[0], 256):
        add_rows(total, acov_rows(means[lo:lo + 256], dt, max_lag))
    return total


@pytest.mark.parametrize("n_records", [8, 100, 256, 257, 1000])
def test_acf_blocked_matches_whole_transform(n_records):
    # a row has the same bits in any batch, so the report's 256-record
    # blocks give the bits of one transform over the whole array; vacf
    # normalizes the same sum
    rng = np.random.default_rng(n_records)
    dt = 1e-6
    means = np.cumsum(rng.normal(size=(n_records, 1001, 2)), axis=1)
    got = _biased(_blocked_sum(means, dt, 999), n_records, 1000)
    expected = acf_biased_whole(means, dt, 999)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    norm = got / got[0]
    norm[0] = 1.0
    values = vacf({None: means}, dt).values[None]
    assert np.array_equal(values.view(np.uint64), norm.view(np.uint64))


@pytest.mark.parametrize("n_records", [8, 256, 257, 1000])
def test_acf_running_sum_matches_whole_mean(n_records):
    # the record-order running sum over per-record autocovariances, fed in
    # the report's 256-record blocks, gives the bits of numpy's mean over
    # the whole (N, max_lag+1, 2) array, and its curve is vacf's on the
    # whole stack
    rng = np.random.default_rng(n_records)
    dt = 1e-6
    means = np.cumsum(rng.normal(size=(n_records, 1001, 2)), axis=1)
    acov = velocity_acov_whole(means, dt, 999)
    expected = acov.mean(axis=(0, 2)) / 1000
    total = _blocked_sum(means, dt, 999)
    got = _biased(total, n_records, 1000)
    assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))
    res = vacf_from_sums({"Filtered": total}, n_records, 1000, dt)
    whole = vacf({"Filtered": means}, dt)
    assert np.array_equal(res.values["Filtered"], whole.values["Filtered"])
    assert np.array_equal(total.view(np.uint64),
                          acov.sum(axis=(0, 2)).view(np.uint64))


@pytest.mark.parametrize("n_samples", [101, 751])
@pytest.mark.parametrize("n_records", [3, 9, 257])
def test_acov_rows_do_not_depend_on_their_batch(n_records, n_samples):
    # each record's row has the bits of the record transformed alone, in
    # a batch small enough that numpy multiplies without eliding the
    # conjugate's temporary, and large enough that it elides it; so any
    # split of a stack into blocks gives vacf's bits
    rng = np.random.default_rng(n_records * n_samples)
    dt = 1e-6
    means = np.cumsum(rng.normal(size=(n_records, n_samples, 2)), axis=1)
    max_lag = n_samples - 2
    rows = acov_rows(means, dt, max_lag)
    for i in range(n_records):
        alone = acov_rows(means[i:i + 1], dt, max_lag)[0]
        assert np.array_equal(rows[i].view(np.uint64),
                              alone.view(np.uint64)), i
    whole = vacf({"Filtered": means}, dt).values["Filtered"]
    for block in (1, 2, 7, 100, n_records):
        total = np.zeros(max_lag + 1)
        for lo in range(0, n_records, block):
            add_rows(total, acov_rows(means[lo:lo + block], dt, max_lag))
        got = vacf_from_sums({"Filtered": total}, n_records,
                             n_samples - 1, dt).values["Filtered"]
        assert np.array_equal(got.view(np.uint64), whole.view(np.uint64)), \
            block


def test_acov_rows_work_space_is_a_few_records():
    # one call on a report block holds its result and the transforms of
    # a few records at a time, not of the whole block (18.8 MB in one
    # transform)
    import tracemalloc

    rng = np.random.default_rng(5)
    means = np.cumsum(rng.normal(size=(256, 1001, 2)), axis=1)
    tracemalloc.start()
    try:
        rows = acov_rows(means, 1e-6, 999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < rows.nbytes + (4 << 20), peak


def test_vacf_white_velocity():
    rng = np.random.default_rng(7)
    dt = 1e-6
    walks = np.stack([np.cumsum(rng.normal(size=(401, 2)), axis=0)
                      for _ in range(100)])
    res = vacf({"Filtered": walks}, dt, max_lag=50)
    val = res.values["Filtered"]
    assert val[0] == 1.0
    assert np.all(np.abs(val[1:]) < 0.1)
    assert res.decorrelation_time["Filtered"] == pytest.approx(dt)
    assert res.lags[1] == pytest.approx(dt)


def test_vacf_constant_velocity_never_decorrelates():
    # the biased estimator tapers as 1 - lag/n for a constant velocity;
    # with max_lag well below n it never crosses the threshold
    dt = 1e-6
    ramp = np.linspace(0, 1, 301)[:, None] * np.ones(2)
    res = vacf({"Filtered": ramp[None]}, dt, max_lag=100)
    assert res.decorrelation_time["Filtered"] == math.inf
    expect = 1.0 - np.arange(101) / 300.0
    assert np.allclose(res.values["Filtered"], expect, atol=1e-9)


def test_vacf_group_and_errors(ref_ep):
    rng = np.random.default_rng(8)
    dt = 1e-6
    slow = np.stack([np.cumsum(rng.normal(size=(201, 2)), axis=0)
                     for _ in range(20)])
    fast = np.stack([rng.normal(size=(201, 2)) for _ in range(20)])
    res = vacf({"Filtered": slow, "ClassicalSmoothed": fast}, dt, max_lag=30)
    assert set(res.values) == {"Filtered", "ClassicalSmoothed"}
    with pytest.raises(ValueError, match="too short"):
        vacf({"Filtered": slow}, dt, max_lag=200)
    nan_means = np.zeros((1, 201, 2))
    nan_means[0, 5, 0] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        vacf({"Filtered": nan_means}, dt, max_lag=10)
    with pytest.raises(ValueError, match="empty"):
        vacf({}, dt, max_lag=10)


def test_vacf_rejects_kinds_on_different_grids():
    means = np.zeros((3, 201, 2))
    for other in (means[:2], means[:, :150]):
        with pytest.raises(ValueError, match="same records and grid"):
            vacf({"Filtered": means, "SmoothedTrue": other}, 1e-6,
                 max_lag=10)


def test_vacf_distinguishes_smooth_from_rough(ref_ep):
    """OU-like slow means decorrelate over their relaxation time, far
    slower than white-velocity means at the same dt."""
    rng = np.random.default_rng(11)
    dt = 1e-6
    n, n_rec = 800, 60
    tau = 50e-6
    rho = math.exp(-dt / tau)
    vel = np.zeros((n_rec, n + 1, 2))
    vel[:, 0] = rng.normal(size=(n_rec, 2))
    kick = rng.normal(0.0, math.sqrt(1 - rho * rho), (n_rec, n, 2))
    for k in range(n):
        vel[:, k + 1] = rho * vel[:, k] + kick[:, k]
    # integrate an OU velocity so the means are smooth on the tau scale
    x = np.cumsum(vel, axis=1) * dt
    rough = np.stack([rng.normal(size=(n + 1, 2)).cumsum(axis=0)
                      for i in range(n_rec)])
    res = vacf({"SmoothedTrue": x, "Filtered": rough}, dt, max_lag=400)
    assert res.decorrelation_time["SmoothedTrue"] > \
        10 * res.decorrelation_time["Filtered"]
