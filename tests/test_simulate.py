"""Statistical and determinism checks for the synthetic-record generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lgqsmooth import (
    EffectiveParams,
    MeasurementRecord,
    simulate_true_and_record,
    simulate_truth_ensemble,
)
from lgqsmooth.model import relaxation_rate
from lgqsmooth.simulate import (
    _evolve_true,
    derive_record_seeds,
    truth_stream,
)

from conftest import REF
from _oracles import simulate_surrogate_ensemble


def short_ep(n_steps: int) -> EffectiveParams:
    return EffectiveParams(
        gamma_eff=REF["gamma_fb"], n_th_eff=33.147058823529406,
        coop_eff=4.275294117647059, eta=REF["eta"],
        record_duration=n_steps * 1e-6, dt=1e-6)


# ---------------------------------------------------------------------------
# shapes, validation, determinism
# ---------------------------------------------------------------------------

def test_record_validation():
    with pytest.raises(ValueError):
        MeasurementRecord(0.0, np.zeros((3, 2)))
    for shape in ((3,), (3, 3), (2, 3), (3, 2, 2)):
        with pytest.raises(ValueError, match=r"\(n, 2\) array"):
            MeasurementRecord(1e-6, np.zeros(shape))
    rec = MeasurementRecord(2e-6, [[k, k + 1] for k in range(4)],
                            eta_effective=0.38, seed=7)
    assert rec.n == 4
    assert rec.duration == pytest.approx(8e-6)
    assert np.allclose(rec.times, [0, 2e-6, 4e-6, 6e-6])
    assert rec.currents.shape == (4, 2)
    assert rec.currents.dtype == np.float64
    assert np.all(rec.currents[:, 1] == np.arange(4.0) + 1)
    assert rec.eta_effective == 0.38 and rec.seed == 7


def test_true_record_deterministic(ref_ep):
    a = simulate_true_and_record(ref_ep, 50e-6, seed=123)
    b = simulate_true_and_record(ref_ep, 50e-6, seed=123)
    c = simulate_true_and_record(ref_ep, 50e-6, seed=124)
    assert np.array_equal(a.true_mean, b.true_mean)
    assert np.array_equal(a.record.currents, b.record.currents)
    assert not np.array_equal(a.record.currents[:, 0],
                              c.record.currents[:, 0])
    assert a.true_mean.shape == (51, 2)
    assert a.record.n == 50
    assert a.times.shape == (51,)
    assert a.record.seed == 123
    assert a.record.eta_effective == ref_ep.eta


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_truth_ensemble_slices_bit_identical(ref_ep):
    # a single record recurses on Python floats, the ensemble on stacked
    # rows; the bits must agree
    ens = simulate_truth_ensemble(ref_ep, 40e-6, 6, base_seed=99)
    assert ens.n_records == 6
    for i in (0, 3, 5):
        solo = simulate_true_and_record(ref_ep, 40e-6, seed=int(ens.seeds[i]))
        assert np.array_equal(_bits(ens.means[i]), _bits(solo.true_mean))
        assert np.array_equal(_bits(ens.currents[i]),
                              _bits(solo.record.currents))
        rec = ens.record(i)
        assert np.array_equal(_bits(rec.currents), _bits(solo.record.currents))
        assert rec.seed == int(ens.seeds[i])


@settings(max_examples=30, deadline=None)
@given(n_records=st.sampled_from([1, 2, 5]),
       steps=st.lists(st.integers(1, 40), min_size=1, max_size=6),
       base_seed=st.integers(0, 2 ** 31))
def test_truth_stream_blocks_concatenate_to_ensemble(ref_ep, n_records,
                                                     steps, base_seed):
    n = sum(steps)
    ens = simulate_truth_ensemble(ref_ep, n * ref_ep.dt, n_records,
                                  base_seed)
    blocks = list(truth_stream(ref_ep, ens.seeds, steps))
    assert [c.shape[1] for _, _, c in blocks] == steps
    # each block restarts from the previous block's last mean
    times = np.concatenate([blocks[0][0][:1]] + [t[1:] for t, _, _ in blocks])
    means = np.concatenate([blocks[0][1][:, :1]]
                           + [m[:, 1:] for _, m, _ in blocks], axis=1)
    currents = np.concatenate([c for _, _, c in blocks], axis=1)
    assert np.array_equal(_bits(times), _bits(ens.times))
    assert np.array_equal(_bits(means), _bits(ens.means))
    assert np.array_equal(_bits(currents), _bits(ens.currents))


def test_derive_record_seeds():
    s1 = derive_record_seeds(42, 1000)
    s2 = derive_record_seeds(42, 1000)
    assert np.array_equal(s1, s2)
    assert s1.dtype == np.int64
    assert np.all(s1 >= 0)
    assert len(np.unique(s1)) == 1000
    assert derive_record_seeds(42, 0).shape == (0,)
    assert not np.array_equal(derive_record_seeds(43, 1000), s1)
    with pytest.raises(ValueError):
        derive_record_seeds(1, -1)


def test_stability_guard(ref_ep):
    bad = EffectiveParams(gamma_eff=ref_ep.gamma_eff,
                          n_th_eff=ref_ep.n_th_eff, coop_eff=ref_ep.coop_eff,
                          eta=ref_ep.eta, record_duration=1.0, dt=1e-2)
    with pytest.raises(ValueError, match="dt too large"):
        simulate_true_and_record(bad, 1.0, seed=0)
    with pytest.raises(ValueError, match="one sample period"):
        simulate_true_and_record(ref_ep, 0.5e-6, seed=0)
    assert relaxation_rate(ref_ep, ref_ep.coop_eff + ref_ep.n_th_eff) \
        * ref_ep.dt < 0.1


def test_pure_decay_without_noise(ref_ep):
    # exact exponential drift: with all increments zeroed the mean is f^k m0
    m0 = np.array([[3.0, -2.0]])
    start = np.zeros((1, 21, 2))
    start[:, 0] = m0
    means, currents = _evolve_true(start, np.zeros((1, 20, 2)), ref_ep)
    f = math.exp(-ref_ep.gamma_eff * ref_ep.dt / 2.0)
    ks = np.arange(21)
    assert np.allclose(means[0], f ** ks[:, None] * m0[0], rtol=1e-12, atol=0)
    g = math.sqrt(ref_ep.meas_rate)
    assert np.allclose(currents[0], g * means[0, :20], rtol=1e-12)


# ---------------------------------------------------------------------------
# moment checks
# ---------------------------------------------------------------------------

def test_true_mean_stationary_variance():
    ep = short_ep(30)
    n_rec = 4000
    ens = simulate_truth_ensemble(ep, ep.record_duration, n_rec, base_seed=2024)
    target = ep.sigma2_uncon - 1.0
    tol = 4.0 * math.sqrt(2.0 / (n_rec - 1)) * target
    for k in (0, 30):
        var = ens.means[:, k].var(axis=0, ddof=1)
        assert np.all(np.abs(var - target) < tol)
        mean = ens.means[:, k].mean(axis=0)
        assert np.all(np.abs(mean) < 4.0 * math.sqrt(target / n_rec))


def test_record_sample_variance_includes_mean_leakage():
    # Var[I dt] at a fixed sample = meas_rate * Var[m] dt^2 + dt; at k = 0 the
    # mean variance is exactly sigma2 - 1 by construction
    ep = short_ep(10)
    n_rec = 8000
    ens = simulate_truth_ensemble(ep, ep.record_duration, n_rec, base_seed=31)
    dt = ep.dt
    incr = ens.currents[:, 0, :] * dt
    theory = ep.meas_rate * (ep.sigma2_uncon - 1.0) * dt ** 2 + dt
    var = incr.var(axis=0, ddof=1)
    tol = 4.0 * math.sqrt(2.0 / (n_rec - 1)) * theory
    assert np.all(np.abs(var - theory) < tol)
    # the state-leakage excess over pure shot noise is real and resolved
    assert np.all(var > dt * 1.05)


def test_unmonitored_record_is_pure_noise():
    ep = EffectiveParams(gamma_eff=REF["gamma_fb"], n_th_eff=40.0,
                         coop_eff=0.0, eta=0.5, record_duration=2e-2, dt=1e-6)
    bun = simulate_true_and_record(ep, ep.record_duration, seed=11)
    incr = bun.record.currents * ep.dt
    n = bun.record.n
    assert incr.var(ddof=1) == pytest.approx(ep.dt, rel=4.0 * math.sqrt(2.0 / (2 * n)))
    # neighbouring increments uncorrelated
    for j in (0, 1):
        r = np.corrcoef(incr[:-1, j], incr[1:, j])[0, 1]
        assert abs(r) < 4.0 / math.sqrt(n - 1)


def test_surrogate_hidden_stationary_variance():
    ep = short_ep(30)
    n_rec = 4000
    ens = simulate_surrogate_ensemble(ep, ep.record_duration, n_rec,
                                      base_seed=404)
    target = ep.sigma2_uncon
    tol = 4.0 * math.sqrt(2.0 / (n_rec - 1)) * target
    for k in (0, 30):
        var = ens.means[:, k].var(axis=0, ddof=1)
        assert np.all(np.abs(var - target) < tol)


def test_cross_record_independence():
    ep = short_ep(5)
    ens = simulate_truth_ensemble(ep, ep.record_duration, 4000, base_seed=8)
    a = ens.means[0::2, 0, 0]
    b = ens.means[1::2, 0, 0]
    r = np.corrcoef(a, b)[0, 1]
    assert abs(r) < 4.0 / math.sqrt(a.shape[0])


def test_true_and_surrogate_records_share_second_moments():
    """The two generators produce records with the same law up to O(dt) terms.

    At lag 0 they differ by construction: the true record's noise increment
    also kicks the mean it is about to measure, which shifts the per-sample
    variance by meas_rate * v_true * dt^2 relative to the surrogate.  That
    exact offset is included in the comparison.
    """
    ep = short_ep(200)
    n_rec = 2000
    t_ens = simulate_truth_ensemble(ep, ep.record_duration, n_rec, base_seed=61)
    s_ens = simulate_surrogate_ensemble(ep, ep.record_duration, n_rec,
                                        base_seed=62)
    dt = ep.dt
    ti = t_ens.currents[:, :, 0] * dt
    si = s_ens.currents[:, :, 0] * dt

    for lag in range(6):
        tp = (ti[:, :ti.shape[1] - lag] * ti[:, lag:]).mean(axis=1)
        sp = (si[:, :si.shape[1] - lag] * si[:, lag:]).mean(axis=1)
        offset = -ep.meas_rate * 1.0 * dt ** 2 if lag == 0 else 0.0
        diff = tp.mean() - sp.mean() - offset
        se = math.sqrt(tp.var(ddof=1) / n_rec + sp.var(ddof=1) / n_rec)
        assert abs(diff) < 3.5 * se, f"lag {lag}: {diff / se:.2f} sigma"
