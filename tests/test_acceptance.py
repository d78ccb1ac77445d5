"""End-to-end validation of the statistical guarantees.

The report's own criteria run once, through ``pipeline.acceptance_report``
on the reference configuration, and each result is one test.  Next to
them sit independent cross-checks that do not share the report's code:
criteria 2 and 3 on a separate scalar smoothing algebra, criteria 7 and 8
over a wider random parameter range, and criterion 11 through the CLI.
Each test prints a single pass/fail line on the real stdout so the table
is visible even while pytest captures output, then asserts.  Every draw
is seeded, so the outcome of this file is reproducible bit for bit.
"""

import dataclasses
import functools
import math
import sys

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from lgqsmooth import pipeline, recordio
from lgqsmooth.cli import main as cli_main
from lgqsmooth.config import RunConfig
from lgqsmooth.model import (
    filter_riccati_rhs,
    retro_precision,
    retro_precision_ss,
    retro_riccati_rhs,
    shup_violation_predicted,
    v_filter,
    v_filter_ss,
    EffectiveParams,
)
from lgqsmooth.smooth import TARGET_KINDS, combine_arrays

from conftest import random_effective_params


_CAPTURE = None


@pytest.fixture(scope="module", autouse=True)
def _capture_bypass(request):
    # pytest captures at the file-descriptor level, so even the original
    # stdout object would land in the capture buffer; suspend it per line
    global _CAPTURE
    _CAPTURE = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE = None


def _line(idx: int, ok: bool, detail: str) -> None:
    mark = "PASS" if ok else "FAIL"
    text = f"[criterion {idx:2d}] {mark}  {detail}"
    if _CAPTURE is None:
        print(text, file=sys.__stdout__, flush=True)
    else:
        with _CAPTURE.global_and_fixture_disabled():
            print(text, flush=True)
    assert ok, detail


def _smooth_scalar(v_f: float, w: float, v_tar: float) -> float:
    # independent errors: filter about the target at d = v_f - v_tar,
    # retro about it at v_r + v_tar, combined with the optimal weight
    d = v_f - v_tar
    a = 1.0 + w * v_tar
    return v_tar + d * a / (a + w * d)


# ---------------------------------------------------------------------------
# the report's criteria
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def report(ref_params):
    """The 11 criteria at the reference config, keyed by index."""
    cfg = RunConfig(params=ref_params, n_records=2000, base_seed=20240001,
                    targets=TARGET_KINDS, eta_new=0.10, out_dir=None,
                    formats=("csv", "bin"))
    return {r.index: r for r in pipeline.acceptance_report(cfg)}


def test_report_lists_criteria_in_order(report):
    # criterion 9 is computed right after 4 but must keep its place
    assert [r.index for r in report.values()] == list(range(1, 12))


@pytest.mark.parametrize("index", range(1, 12))
def test_report_criterion(report, index):
    r = report[index]
    _line(index, r.passed, f"{r.title}: {r.detail}")


# ---------------------------------------------------------------------------
# independent cross-checks
# ---------------------------------------------------------------------------

def test_criterion_02_start_of_record_ratios(ref_ep):
    ep = ref_ep
    v_tar = v_filter_ss(ep)
    v_f0 = ep.sigma2_uncon
    w0 = float(retro_precision(0.0, ep.record_duration, ep))
    v_s0 = _smooth_scalar(v_f0, w0, v_tar)
    std_ratio = math.sqrt(v_f0 - v_tar) / math.sqrt(v_s0 - v_tar)
    purity = v_f0 / v_s0
    ok = 2.7 <= std_ratio <= 3.1 and 5.4 <= purity <= 6.1
    _line(2, ok, f"t = 0 error-std ratio {std_ratio:.3f} in [2.7, 3.1], "
                 f"variance ratio {purity:.3f} in [5.4, 6.1]")


def test_criterion_03_true_state_gain(ref_ep):
    ep = ref_ep
    w0 = float(retro_precision(0.0, ep.record_duration, ep))
    r0 = ep.sigma2_uncon / _smooth_scalar(ep.sigma2_uncon, w0, 1.0)
    v_ss = v_filter_ss(ep)
    r_ss = v_ss / _smooth_scalar(v_ss, retro_precision_ss(ep), 1.0)
    ok = r0 > 10.0 and abs(r_ss - 1.43) <= 0.02
    _line(3, ok, f"true-state variance ratio {r0:.2f} > 10 at t = 0, "
                 f"{r_ss:.4f} within 1.43 +- 0.02 at steady state")


def test_criterion_07_closed_forms_vs_ode():
    rng = np.random.default_rng(20240707)
    worst = 0.0
    for _ in range(100):
        ep = random_effective_params(rng, monitored=True)
        rate = ep.gamma_eff * math.sqrt(1.0 + 16.0 * ep.eta_coop * ep.n_tot)
        horizon = 6.0 / rate
        ts = np.linspace(0.0, horizon, 41)
        sol = solve_ivp(lambda t, y: [filter_riccati_rhs(y[0], ep)],
                        (0.0, horizon), [ep.sigma2_uncon], t_eval=ts,
                        method="LSODA", rtol=1e-10,
                        atol=1e-12 * ep.sigma2_uncon)
        ref = v_filter(ts, ep)
        worst = max(worst, float(np.max(np.abs(sol.y[0] - ref) / ref)))

        def w_rhs(t, y, ep=ep):
            w = y[0]
            if w <= 0.0:
                return [2.0 * ep.gamma_eff * ep.eta_coop]
            return [-(w * w) * retro_riccati_rhs(1.0 / w, ep)]

        w_ss = retro_precision_ss(ep)
        sol = solve_ivp(w_rhs, (0.0, horizon), [0.0], t_eval=ts,
                        method="LSODA", rtol=1e-10, atol=1e-12 * w_ss)
        ref = retro_precision(horizon - ts, horizon, ep)
        worst = max(worst,
                    float(np.max(np.abs(sol.y[0][1:] - ref[1:]) / ref[1:])))
    _line(7, worst < 1e-6,
          f"filter and retro closed forms within {worst:.2e} relative of "
          f"direct integration over 100 parameter sets (limit 1e-6)")


def test_criterion_08_physicality():
    rng = np.random.default_rng(20240808)
    min_vs = math.inf
    for _ in range(1000):
        ep = random_effective_params(rng, monitored=True)
        rate = ep.gamma_eff * math.sqrt(1.0 + 16.0 * ep.eta_coop * ep.n_tot)
        horizon = 8.0 / rate
        ep = dataclasses.replace(ep, record_duration=horizon,
                                 dt=horizon / 480.0)
        _, v_f = pipeline.filter_grid(ep, 480)
        _, w = pipeline.retro_grid(ep, 480)
        zeros = np.zeros((481, 2))
        v_s, _ = combine_arrays(v_f, zeros, w, zeros, 1.0)
        min_vs = min(min_vs, float(v_s.min()))
    quantum_ok = min_vs >= 1.0 - 1e-9

    mismatches = 0
    for eta in np.linspace(0.05, 0.95, 20):
        for f in np.logspace(-2.0, 2.0, 20):
            ratio = f / (4.0 * eta - 1.0) if eta > 0.25 else f
            ep = EffectiveParams(1.0, 1.0e4, ratio * 1.0e4, float(eta))
            v_cs = 1.0 / (1.0 / v_filter_ss(ep) + retro_precision_ss(ep))
            if (v_cs < 1.0) != shup_violation_predicted(ep):
                mismatches += 1
    _line(8, quantum_ok and mismatches == 0,
          f"min smoothed variance {min_vs:.6f} >= 1 over 1000 sets; "
          f"classical violation predicate exact on {400 - mismatches}/400 "
          f"grid cells")


def test_criterion_11_reproducibility(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[params]\n"
        "gamma_hz = 11.5e-3\ngamma_fb_hz = 85.0\n"
        "n_th = 2.45e5\ncoop = 3.16e4\neta = 0.38\n"
        "record_us = 250\ndt_us = 1\n"
        "[ensemble]\nn_records = 6\nbase_seed = 7\n"
        "[outputs]\nformats = csv, bin\n")
    sums = []
    for name, jobs in (("a", 1), ("b", 2)):
        base = tmp_path / name
        for cmd in ("simulate", "estimate", "smooth", "analyze"):
            # each stage's text made on ``jobs`` processes, a count no
            # flag sets
            stage = f"stage_{cmd}"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(pipeline, stage, functools.partial(
                    getattr(pipeline, stage), jobs=jobs))
                assert cli_main([cmd, "--config", str(cfg),
                                 "--out-dir", str(base)]) == 0
        paths = sorted(p for p in base.rglob("*") if p.is_file())
        sums.append({str(p.relative_to(base)): recordio.checksum(p)
                     for p in paths})
    ok = sums[0] == sums[1] and len(sums[0]) > 0
    _line(11, ok, f"{len(sums[0])} artifact files byte-identical across "
                  f"two runs with different worker counts")
