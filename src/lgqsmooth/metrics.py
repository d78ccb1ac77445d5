"""Statistical comparators for trajectory ensembles.

Hilbert-Schmidt distances between Gaussian states (empirical and closed
form), theory curves for the estimator error spread, the ensemble
self-consistency check with its standard-error-of-variance bars, and the
velocity autocorrelation of trajectory means.  The two ensemble statistics
take one stack per trajectory kind: means of shape (N, n+1, 2) for N
records on a shared grid of n+1 samples.  The autocorrelation computes
each record's autocovariance row (:func:`acov_rows`), whose bits depend
on no other record, and adds the rows to one running sum per kind, in
record order (:func:`add_rows`).  :func:`vacf` takes a kind's rows
_ACF_BLOCK records at a time, so it holds at most that many rows and its
transforms' work space stays under 4 MB at 1000 samples however many
records a kind holds.  The acceptance report runs its ensembles in
record blocks and feeds them through the same two functions and
:func:`vacf_from_sums`, so it never holds a whole stack and gets the bits
of one :func:`vacf` call on the whole ensemble.

The standard error of an ensemble variance uses an effective record count
that discounts temporal correlation between consecutive records of length
T: N_eff = N / [1 + 2 sum_{k=1}^{N-1} (1 - k/N) exp(-Gamma T k)].  For
independently seeded synthetic records this is conservative (the true
correlation is zero); error bars are then wider than strictly necessary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .estimate import effect_defined
from .model import EffectiveParams, retro_precision, v_filter
from .smooth import TargetSpec, smoothed_variance, z_values

# a curve has decorrelated once it drops below 1/e
VACF_THRESHOLD = 1.0 / math.e

# records whose autocovariance rows vacf holds at once, and records per
# block of the report's ensembles
_ACF_BLOCK = 256

# records per transform in acov_rows: sets its work space, not its bits
_ACOV_CHUNK = 16

ESTIMATOR_KINDS = ("Filtered", "Smoothed", "Classical")


# ---------------------------------------------------------------------------
# Hilbert-Schmidt distance
# ---------------------------------------------------------------------------

def hs_sq_isotropic(v_a, m_a, v_b, m_b) -> np.ndarray:
    """Vectorized distance for isotropic states; means have a trailing 2-axis."""
    v_a = np.asarray(v_a, dtype=float)
    v_b = np.asarray(v_b, dtype=float)
    r2 = np.sum((np.asarray(m_a, dtype=float) - np.asarray(m_b, dtype=float)) ** 2,
                axis=-1)
    s = v_a + v_b
    out = 1.0 / v_a + 1.0 / v_b - 4.0 * np.exp(-0.5 * r2 / s) / s
    return np.maximum(out, 0.0)


def hs_avg_theory(v_tar, v_est):
    """Closed-form ensemble average of the squared HS distance, for floats
    or arrays (a curve of v_est per sample).

    Valid when the estimator is consistent with the target (the mean error
    carries variance v_est - v_tar per component); the average then reduces
    to the purity difference 1/v_tar - 1/v_est.
    """
    if not np.all((0 < v_tar) & (v_tar <= v_est)):
        raise ValueError("need v_est >= v_tar > 0")
    return 1.0 / v_tar - 1.0 / v_est


def _classical_excess(v_f, w, v_tar: float):
    """z^2 (v_F + v_R) per sample, the classical smoother's extra mean
    spread about the target; 0 where w = 0, the limit as z ~ w."""
    w = np.asarray(w, dtype=float)
    z = z_values(v_f, w, v_tar)
    w_safe = np.where(w > 0, w, 1.0)
    return np.where(w > 0, z * z * (v_f + 1.0 / w_safe), 0.0)


def hs_avg_theory_classical(v_tar: float, v_f, w, v_s, v_cs):
    """HS average between target states and classical-smoothed ones, per sample.

    1/v_cS + 1/v_tar - 4 / [(v_S + v_cS) + z^2 (v_F + v_R)]: the classical
    mean carries the extra spread z^2 (v_F + v_R) about the target.  z
    vanishes like w at uninformative samples, so z^2 v_R -> 0 there.
    """
    if not v_tar > 0:
        raise ValueError("needs a quantum target (v_tar > 0)")
    gap = _classical_excess(v_f, w, v_tar)
    return 1.0 / v_cs + 1.0 / v_tar - 4.0 / ((v_s + v_cs) + gap)


def std_delta_theory(ep: EffectiveParams, estimator_kind: str,
                     tgt: TargetSpec, t) -> np.ndarray:
    """Theory curve for Std[m_est(t) - m_tar(t)].

    Filtered -> sqrt(v_F - v_tar); Smoothed -> sqrt(v_S - v_tar);
    Classical -> sqrt((v_S - v_tar) + z^2 (v_F + v_R)).  The retrofilter
    horizon is ep.record_duration.
    """
    if estimator_kind not in ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator kind: {estimator_kind!r}")
    t = np.asarray(t, dtype=float)
    v_f = v_filter(t, ep)
    if estimator_kind == "Filtered":
        arg = v_f - tgt.v_tar
    else:
        w = retro_precision(t, ep.record_duration, ep)
        arg = smoothed_variance(v_f, w, tgt.v_tar) - tgt.v_tar
        if estimator_kind == "Classical":
            arg = arg + _classical_excess(v_f, w, tgt.v_tar)
    if np.any(arg < 0):
        raise ValueError("negative variance argument: invalid target")
    return np.sqrt(arg)


# ---------------------------------------------------------------------------
# standard error of variance
# ---------------------------------------------------------------------------

def effective_record_count(ep: EffectiveParams, n_records: int,
                           record_duration: float) -> float:
    """Record count discounted for correlation between consecutive records."""
    if n_records < 2:
        raise ValueError("need at least two records")
    q = math.exp(-ep.gamma_eff * record_duration)
    k = np.arange(1, n_records)
    total = float(np.sum((1.0 - k / n_records) * q ** k))
    return n_records / (1.0 + 2.0 * total)


def sev(ep: EffectiveParams, n_records: int, value: float | np.ndarray,
        record_duration: float) -> float | np.ndarray:
    """Standard error of an ensemble variance whose true value is `value`."""
    n_eff = effective_record_count(ep, n_records, record_duration)
    return math.sqrt(4.0 / (2.0 * n_eff)) * value


# ---------------------------------------------------------------------------
# ensemble self-consistency
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnsembleStats:
    """Per-time ensemble variances against their deterministic theory.

    ``var_ens``, ``theory``, ``sev``, ``outside`` are keyed by trajectory
    kind; ``outside`` flags samples deviating by more than 3 SEV.
    ``hs_mean`` is filled by pipelines that also compare states directly,
    keyed by (target kind, estimator kind).
    """

    times: np.ndarray
    var_ens: dict
    theory: dict
    sev: dict
    outside: dict
    sigma2_uncon: float
    n_records: int
    n_eff: float
    hs_mean: dict = field(default_factory=dict)


def consistency_check(stacks: dict, times: np.ndarray,
                      ep: EffectiveParams) -> EnsembleStats:
    """Compare ensemble variances of the means with their theory values.

    ``stacks`` maps each kind to ``(means, vw)``: means (N, n+1, 2) on
    ``times`` and the shared covariance (precision for "Retrofiltered").
    State kinds satisfy Var_ens[m_C(t)] = sigma2_uncon - v_C(t); the
    retrofiltered effect satisfies Var_ens[m_R(t)] = sigma2_uncon + v_R(t)
    where the effect mean is defined (:func:`estimate.effect_defined`).
    Variances are pooled over the two mean components with the unbiased
    estimator.
    """
    if not stacks:
        raise ValueError("empty ensemble")
    sig2 = ep.sigma2_uncon
    duration = float(times[-1] - times[0])
    var_ens: dict = {}
    theory: dict = {}
    sev_d: dict = {}
    outside: dict = {}
    n_records = 0
    for kind, (means, vw) in stacks.items():
        if means.shape[0] < 2:
            raise ValueError(f"need at least two records per kind ({kind})")
        v = means.var(axis=0, ddof=1).mean(axis=-1)
        if kind == "Retrofiltered":
            defined = effect_defined(vw, ep)
            th = np.where(defined, sig2 + 1.0 / np.where(defined, vw, 1.0),
                          np.nan)
            v = np.where(defined, v, np.nan)
        else:
            th = sig2 - vw
        n_records = max(n_records, means.shape[0])
        bars = sev(ep, means.shape[0], np.abs(th), duration)
        var_ens[kind] = v
        theory[kind] = th
        sev_d[kind] = bars
        # absolute floor keeps float dust (exact-start samples) unflagged
        outside[kind] = np.abs(v - th) > 3.0 * bars + 1e-9 * sig2
    n_eff = effective_record_count(ep, n_records, duration)
    return EnsembleStats(times, var_ens, theory, sev_d, outside, sig2,
                         n_records, n_eff)


# ---------------------------------------------------------------------------
# velocity autocorrelation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VacfResult:
    """Normalized velocity autocorrelation per trajectory kind.

    ``decorrelation_time`` is the first lag at which the curve drops below
    VACF_THRESHOLD (math.inf if it never does within the window).
    """

    lags: np.ndarray
    values: dict
    decorrelation_time: dict


def acov_rows(batch: np.ndarray, dt: float, max_lag: int) -> np.ndarray:
    """Each record's biased velocity autocovariance at lags 0..max_lag,
    summed over the two components: (N, max_lag+1) for N means
    (N, n+1, 2) sampled every dt.

    A row has the same bits in any batch.  The transforms give each record
    the same bits whatever else they transform; the power spectrum is
    written ``np.conj(f) * f`` because numpy evaluates ``f * np.conj(f)``
    in an order that depends on the array's size: from 256 KiB on, it
    elides the conjugate's temporary into ``np.multiply(conj, f,
    out=conj)``, and below that it runs ``np.multiply(f, conj)``.  The
    two orders round the imaginary parts otherwise, and ``irfft`` reads
    those rounding residues, so with the conjugate on the right a row
    would change in its last bits with the size of its batch.  With it on
    the left both evaluations take the same order.  Records are
    transformed _ACOV_CHUNK at a time into one preallocated result, so
    the work space is that of a few records.
    """
    n = batch.shape[1] - 1
    size = 1 << (2 * n - 1).bit_length()
    rows = np.empty((batch.shape[0], max_lag + 1))
    for lo in range(0, batch.shape[0], _ACOV_CHUNK):
        f = np.fft.rfft(np.diff(batch[lo:lo + _ACOV_CHUNK], axis=1) / dt,
                        size, axis=1)
        # conjugate on the left: one operand order whether or not numpy
        # elides the temporary, so a row's bits do not depend on its batch
        f = np.conj(f) * f
        acov = np.fft.irfft(f, size, axis=1)[:, :max_lag + 1]
        del f
        np.add(acov[..., 0], acov[..., 1], out=rows[lo:lo + _ACOV_CHUNK])
        del acov
    return rows


def add_rows(total: np.ndarray, rows: np.ndarray) -> None:
    """Add per-record rows to a running sum in record order, one row at a
    time: the order in which the sum over a blocked ensemble has the bits
    of the sum over the whole one."""
    for row in rows:
        total += row


def _biased(total: np.ndarray, n_records: int, n: int) -> np.ndarray:
    # the mean over records and components, per velocity sample
    return total / (2 * n_records) / n


def vacf_from_sums(sums: dict, n_records: int, n: int,
                   dt: float) -> VacfResult:
    """Normalized velocity autocorrelation per kind from the running sums
    (:func:`add_rows` of :func:`acov_rows`) over ``n_records`` records of
    n velocities each, with the first lag at which each curve drops below
    VACF_THRESHOLD."""
    values: dict = {}
    decorr: dict = {}
    for kind, total in sums.items():
        acov = _biased(total, n_records, n)
        if acov[0] <= 0:
            raise ValueError(f"zero velocity power in kind {kind}")
        norm = acov / acov[0]
        norm[0] = 1.0
        values[kind] = norm
        below = norm < VACF_THRESHOLD
        decorr[kind] = float(np.flatnonzero(below)[0]) * dt if below.any() \
            else math.inf
    lags = np.arange(next(iter(sums.values())).shape[0]) * dt
    return VacfResult(lags, values, decorr)


def vacf(means: dict, dt: float, max_lag: int | None = None) -> VacfResult:
    """Autocorrelation of finite-difference mean velocities per kind;
    ``means`` maps each kind to its (N, n+1, 2) stack, sampled every dt,
    and every kind has the same N and n.  Each record's row
    (:func:`acov_rows`) is added to its kind's sum in record order
    (:func:`add_rows`), as the report does; _ACF_BLOCK bounds the rows
    held at once and changes no bit."""
    if not means:
        raise ValueError("empty ensemble")
    shape = next(iter(means.values())).shape
    if any(stack.shape != shape for stack in means.values()):
        raise ValueError("every kind needs the same records and grid")
    n_v = shape[1] - 1
    if max_lag is None:
        max_lag = n_v - 1
    if max_lag >= n_v:
        raise ValueError("trajectory too short for requested max lag")
    sums = {}
    for kind, stack in means.items():
        if not np.all(np.isfinite(stack)):
            raise ValueError(f"non-finite means in kind {kind}")
        total = sums[kind] = np.zeros(max_lag + 1)
        for lo in range(0, shape[0], _ACF_BLOCK):
            add_rows(total, acov_rows(stack[lo:lo + _ACF_BLOCK], dt, max_lag))
    return vacf_from_sums(sums, shape[0], n_v, dt)
