"""Pointwise combination of filtered and retrofiltered trajectories.

The smoothed state for a Gaussian target with covariance v_tar * I is

    v_S = [ (v_F - v_tar)^-1 + (v_R + v_tar)^-1 ]^-1 + v_tar
    m_S = (v_S - v_tar) [ (v_F - v_tar)^-1 m_F + (v_R + v_tar)^-1 m_R ]

evaluated per sample.  The retrofiltered part is consumed in information
form, (v_R + v_tar)^-1 m_R = z / (1 + w v_tar), so uninformative samples
(w = 0) never produce infinities: there the smoothed state is the filtered
state, copied verbatim.

Targets: the long-time-limit filtered state (v_tar = v_F_ss), the true
state (v_tar = 1), and the classical smoother (all target terms zero),
whose variance can dip below the ground-state value.  v_S alone, without
means, is :func:`smoothed_variance`; it and :func:`combine_arrays` share
one set of terms, so both give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .estimate import Trajectory, _pair_wide
from .model import EffectiveParams, v_filter_ss

TARGET_KINDS = ("LTLFiltered", "TrueState", "Classical")

_TRAJ_KIND = {
    "LTLFiltered": "SmoothedLTL",
    "TrueState": "SmoothedTrue",
    "Classical": "ClassicalSmoothed",
}

# relative width of the band around v_F = v_tar inside which the exact
# convergence limit (smoothed = filtered) is substituted
SINGULARITY_EPS = 1e-9


@dataclass(frozen=True)
class TargetSpec:
    """What the smoother estimates: target kind and its covariance scale."""

    kind: str
    v_tar: float

    def __post_init__(self) -> None:
        if self.kind not in TARGET_KINDS:
            raise ValueError(f"unknown target kind: {self.kind!r}")
        if self.v_tar < 0:
            raise ValueError("v_tar must be nonnegative")
        if self.kind == "Classical" and self.v_tar != 0.0:
            raise ValueError("classical target has no covariance parameter")
        if self.kind == "TrueState" and self.v_tar != 1.0:
            raise ValueError("true-state target variance is the ground-state value")

    @classmethod
    def of(cls, kind: str, ep: EffectiveParams) -> "TargetSpec":
        """The target of a kind at the working parameters: v_tar = v_F_ss
        for LTLFiltered, 1 for TrueState, 0 for Classical."""
        if kind == "LTLFiltered":
            return cls(kind, v_filter_ss(ep))
        return cls(kind, 1.0 if kind == "TrueState" else 0.0)


def _terms(v_f, w, v_tar: float):
    """Per-sample terms of the combination: the copy mask, the filtered
    weight (v_F - v_tar)^-1, 1 + w v_tar, p_S = v_S - v_tar and v_S."""
    v_f = np.asarray(v_f, dtype=float)
    w = np.asarray(w, dtype=float)
    d = v_f - v_tar
    eps = SINGULARITY_EPS * v_tar
    bad = d < -eps
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise ValueError(
            f"smooth: target variance exceeds filtered variance at sample {idx}")
    copy = (d <= eps) | (w == 0.0)
    d_safe = np.where(copy, 1.0, d)
    info_f = 1.0 / d_safe
    denom = 1.0 + w * v_tar
    info_r = w / denom
    p_s = 1.0 / (info_f + info_r)
    return copy, info_f, denom, p_s, np.where(copy, v_f, p_s + v_tar)


def smoothed_variance(v_f, w, v_tar: float):
    """Smoothed covariance v_S per sample, the v_S of :func:`combine_arrays`
    without means; v_f and w are floats or arrays of one shape, and a
    float pair gives a float."""
    v_s = _terms(v_f, w, v_tar)[-1]
    return float(v_s) if v_s.ndim == 0 else v_s


def combine_arrays(v_f: np.ndarray, m_f: np.ndarray, w: np.ndarray,
                   z: np.ndarray, v_tar: float) -> tuple[np.ndarray, np.ndarray]:
    """Smoothing combination on bare arrays (means may be stacked).

    v_f, w: (n,); m_f, z: (n, 2) or both (N, n, 2).  Samples with w = 0,
    and samples where the filter has converged onto the target (v_F - v_tar
    below SINGULARITY_EPS relative), copy the filtered state verbatim: both
    are the exact limits of the combination.  The per-sample terms are
    applied pair-wide, in the order p_S (info_F m_F + z / (1 + w v_tar)).
    """
    copy, info_f, denom, p_s, v_s = _terms(v_f, w, v_tar)
    m_s = m_f * _pair_wide(info_f)
    m_s += z / _pair_wide(denom)
    m_s *= _pair_wide(p_s)
    np.copyto(m_s, m_f, where=_pair_wide(copy))
    return v_s, m_s


def smooth_general(filt: Trajectory, retro: Trajectory,
                   tgt: TargetSpec) -> Trajectory:
    """Combine a filtered and a retrofiltered trajectory for a target.

    The trajectories must share one time grid.  The classical target's
    variance can fall below the ground-state value; a quantum target's
    never does.
    """
    if filt.kind not in ("Filtered", "LTL"):
        raise ValueError(f"cannot smooth a trajectory of kind {filt.kind!r}")
    if retro.kind != "Retrofiltered":
        raise ValueError("second argument must be a retrofiltered trajectory")
    if not np.array_equal(filt.times, retro.times):
        raise ValueError("filtered and retrofiltered time grids differ")
    v_s, m_s = combine_arrays(filt.vw, filt.mean, retro.vw, retro.info,
                              tgt.v_tar)
    return Trajectory(filt.times, m_s, v_s, _TRAJ_KIND[tgt.kind],
                      converged=filt.converged)


def z_values(v_f: np.ndarray, w: np.ndarray, v_tar: float) -> np.ndarray:
    """Gain relating the classical and general smoothed means per sample:

        m_cS - m_S = z (m_R - m_F)

    z = v_cS / v_R - (v_S - v_tar) / (v_R + v_tar), in precision form, with
    the terms of :func:`combine_arrays`.  Requires v_f >= v_tar; where the
    combination copies the filtered state, the limit v_S = v_tar is taken.
    """
    copy, _, denom, p_s, _ = _terms(v_f, w, v_tar)
    p_s = np.where(copy, 0.0, p_s)
    v_cs_w = w * v_f / (1.0 + w * v_f)
    return v_cs_w - w * p_s / denom
