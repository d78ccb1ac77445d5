"""Config file parsing."""

import dataclasses
import math

import pytest

from lgqsmooth.config import ConfigError, parse_config, parse_config_text

TWO_PI = 2.0 * math.pi

FULL = """
# reference oscillator
[params]
gamma_hz = 11.5e-3
gamma_fb_hz = 85.0
n_th = 2.45e5
coop = 3.16e4
eta = 0.38
omega_hz = 1.04e6
record_us = 750
dt_us = 1

[ensemble]
n_records = 2000
base_seed = 42

[targets]
kinds = LTLFiltered, TrueState

[noise_injection]
eta_new = 0.10

[outputs]
directory = runs/ref
formats = csv, bin
"""

MINIMAL = """
[params]
gamma_hz = 0.5
n_th = 10
coop = 100
eta = 0.5

[ensemble]
n_records = 10
base_seed = 1
"""


def test_full_config():
    cfg = parse_config_text(FULL)
    p = cfg.params
    assert p.gamma == pytest.approx(TWO_PI * 11.5e-3, rel=1e-12)
    assert p.gamma_fb == pytest.approx(TWO_PI * 85.0, rel=1e-12)
    assert p.n_th == 2.45e5
    assert p.coop == 3.16e4
    assert p.eta == 0.38
    assert p.omega == pytest.approx(TWO_PI * 1.04e6, rel=1e-12)
    assert p.record_duration == pytest.approx(750e-6, rel=1e-12)
    assert p.dt == pytest.approx(1e-6, rel=1e-12)
    assert cfg.n_records == 2000
    assert cfg.base_seed == 42
    assert cfg.targets == ("LTLFiltered", "TrueState")
    assert cfg.eta_new == 0.10
    assert cfg.out_dir == "runs/ref"
    assert cfg.formats == ("csv", "bin")


def test_minimal_defaults():
    cfg = parse_config_text(MINIMAL)
    assert cfg.params.omega == 0.0
    assert cfg.params.record_duration == pytest.approx(750e-6)
    assert cfg.params.dt == pytest.approx(1e-6)
    assert cfg.targets == ("LTLFiltered", "TrueState", "Classical")
    assert cfg.eta_new is None
    assert cfg.out_dir is None
    assert cfg.formats == ("csv",)


@pytest.mark.parametrize("text, expected", [
    (FULL, dict(gamma=TWO_PI * 11.5e-3, n_th=2.45e5, coop=3.16e4, eta=0.38,
                gamma_fb=TWO_PI * 85.0, omega=TWO_PI * 1.04e6,
                record_duration=1e-6 * 750.0, dt=1e-6 * 1.0)),
    (MINIMAL, dict(gamma=TWO_PI * 0.5, n_th=10.0, coop=100.0, eta=0.5,
                   gamma_fb=None, omega=0.0, record_duration=750e-6,
                   dt=1e-6)),
], ids=["full", "minimal"])
def test_params_field_bits(text, expected):
    # each configured value times its unit factor, each absent one its
    # PhysicalParams default, exactly
    params = parse_config_text(text).params
    got = {f.name: getattr(params, f.name) for f in dataclasses.fields(params)}
    assert got == expected


def test_inline_comments_stripped():
    cfg = parse_config_text(MINIMAL.replace("eta = 0.5",
                                            "eta = 0.5  # detection"))
    assert cfg.params.eta == 0.5


@pytest.mark.parametrize("mangle, match", [
    (lambda s: s.replace("[ensemble]", "[ensembel]"), "unknown section"),
    (lambda s: s.replace("coop =", "emokittens =\ncoop ="), "unknown key"),
    (lambda s: s.replace("n_th = 10\n", ""), "missing key"),
    (lambda s: s.replace("n_records = 10", "n_records = 0"), "at least 1"),
    (lambda s: s.replace("base_seed = 1", "base_seed = -4"), "base_seed"),
    (lambda s: s.replace("eta = 0.5", "eta = braid"), "not a number"),
    (lambda s: s.replace("coop = 100", "coop = many"),
     r"^params\.coop: not a number$"),
    (lambda s: s.replace("n_th = 10", "n_th = nan"),
     r"^params\.n_th: not a finite number$"),
    (lambda s: s.replace("coop = 100", "coop = -inf"),
     r"^params\.coop: not a finite number$"),
    (lambda s: s + "\n[noise_injection]\neta_new = nan\n",
     r"^noise_injection\.eta_new: not a finite number$"),
    (lambda s: s.replace("n_th = 10", "n_th = -1"),
     r"^params: n_th must be nonnegative$"),
    (lambda s: s.replace("n_records = 10", "n_records = 2.5"),
     "not an integer"),
    (lambda s: s + "\n[targets]\nkinds = Filtered\n", "target"),
    (lambda s: s + "\n[noise_injection]\neta_new = 0.7\n", "eta_new"),
    (lambda s: s + "\n[outputs]\nformats = csv, parquet\n", "formats"),
    (lambda s: s + "\n[outputs]\ndirectory =\n", "directory"),
    (lambda s: s.replace("coop = 100", "coop 100"), r"^config syntax: "),
    (lambda s: s.replace("base_seed = 1\n", ""),
     r"^ensemble missing key base_seed$"),
    (lambda s: s + "\n[targets]\nkinds = , ,\n", r"^targets\.kinds is empty$"),
    (lambda s: s + "\n[noise_injection]\n",
     r"^noise_injection missing key eta_new$"),
])
def test_rejects_bad_config(mangle, match):
    with pytest.raises(ConfigError, match=match):
        parse_config_text(mangle(MINIMAL))


def test_missing_sections():
    with pytest.raises(ConfigError, match="params"):
        parse_config_text("[ensemble]\nn_records = 3\nbase_seed = 0\n")
    with pytest.raises(ConfigError, match="ensemble"):
        parse_config_text(MINIMAL.split("[ensemble]")[0])


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(FULL)
    assert parse_config(path) == parse_config_text(FULL)
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.ini")
