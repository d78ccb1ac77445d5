"""Run configuration: flat key-value text with sections.

Frequencies are configured in Hz and converted to angular rates; durations
are configured in microseconds.  Unknown sections or keys are errors, as
are missing required keys, so a typo never silently changes a run.  An
absent optional ``[params]`` key takes its ``PhysicalParams`` default,
so the defaults are written only in ``model``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path

from .model import PhysicalParams
from .smooth import TARGET_KINDS

TWO_PI = 2.0 * math.pi

# [params] key -> (PhysicalParams field, factor from the configured unit)
_PARAMS = {"gamma_hz": ("gamma", TWO_PI), "gamma_fb_hz": ("gamma_fb", TWO_PI),
           "n_th": ("n_th", 1.0), "coop": ("coop", 1.0), "eta": ("eta", 1.0),
           "omega_hz": ("omega", TWO_PI),
           "record_us": ("record_duration", 1e-6), "dt_us": ("dt", 1e-6)}
# the keys of the fields without a default
_REQUIRED_PARAMS = {"gamma_hz", "n_th", "coop", "eta"}
_SECTION_KEYS = {
    "params": set(_PARAMS),
    "ensemble": {"n_records", "base_seed"},
    "targets": {"kinds"},
    "noise_injection": {"eta_new"},
    "outputs": {"directory", "formats"},
}
_FORMATS = {"csv", "bin"}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    params: PhysicalParams
    n_records: int
    base_seed: int
    targets: tuple[str, ...]
    eta_new: float | None
    out_dir: str | None
    formats: tuple[str, ...]


def _get_float(section, key: str, name: str) -> float:
    try:
        value = float(section[key])
    except ValueError as exc:
        raise ConfigError(f"{name}.{key}: not a number") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{name}.{key}: not a finite number")
    return value


def _get_int(section, key: str, name: str) -> int:
    try:
        return int(section[key])
    except ValueError as exc:
        raise ConfigError(f"{name}.{key}: not an integer") from exc


def parse_formats(text: str) -> tuple[str, ...]:
    """A comma list of output formats, each csv or bin, in first-listed
    order without repeats."""
    entries = [s.strip() for s in text.split(",") if s.strip()]
    if not entries or set(entries) - _FORMATS:
        raise ConfigError(f"formats must list csv and/or bin, got {text!r}")
    return tuple(dict.fromkeys(entries))


def parse_config_text(text: str) -> RunConfig:
    cp = configparser.ConfigParser(interpolation=None,
                                   inline_comment_prefixes=("#",))
    cp.optionxform = str
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc

    for section in cp.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        extra = set(cp[section]) - _SECTION_KEYS[section]
        if extra:
            raise ConfigError(
                f"unknown key in [{section}]: {sorted(extra)[0]}")
    for required in ("params", "ensemble"):
        if required not in cp:
            raise ConfigError(f"missing section [{required}]")

    par = cp["params"]
    missing = _REQUIRED_PARAMS - set(par)
    if missing:
        raise ConfigError(f"params missing key {sorted(missing)[0]}")
    values = {name: factor * _get_float(par, key, "params")
              for key, (name, factor) in _PARAMS.items() if key in par}
    try:
        params = PhysicalParams(**values)
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from exc

    ens = cp["ensemble"]
    for key in ("n_records", "base_seed"):
        if key not in ens:
            raise ConfigError(f"ensemble missing key {key}")
    n_records = _get_int(ens, "n_records", "ensemble")
    if n_records < 1:
        raise ConfigError("ensemble.n_records must be at least 1")
    base_seed = _get_int(ens, "base_seed", "ensemble")
    if base_seed < 0:
        raise ConfigError("ensemble.base_seed must be nonnegative")

    targets: tuple[str, ...] = TARGET_KINDS
    if "targets" in cp and "kinds" in cp["targets"]:
        entries = [s.strip() for s in cp["targets"]["kinds"].split(",")
                   if s.strip()]
        if not entries:
            raise ConfigError("targets.kinds is empty")
        for entry in entries:
            if entry not in TARGET_KINDS:
                raise ConfigError(f"targets.kinds: unknown kind {entry!r}")
        targets = tuple(entries)

    eta_new = None
    if "noise_injection" in cp:
        if "eta_new" not in cp["noise_injection"]:
            raise ConfigError("noise_injection missing key eta_new")
        eta_new = _get_float(cp["noise_injection"], "eta_new",
                             "noise_injection")
        if not 0 < eta_new <= params.eta:
            raise ConfigError(
                "noise_injection.eta_new must be in (0, params.eta]")

    # None lets the caller fall back to its own default location
    out_dir = None
    formats: tuple[str, ...] = ("csv",)
    if "outputs" in cp:
        out = cp["outputs"]
        if "directory" in out:
            out_dir = out["directory"].strip()
            if not out_dir:
                raise ConfigError("outputs.directory is empty")
        if "formats" in out:
            formats = parse_formats(out["formats"])

    return RunConfig(params=params, n_records=n_records, base_seed=base_seed,
                     targets=targets, eta_new=eta_new, out_dir=out_dir,
                     formats=formats)


def parse_config(path) -> RunConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config_text(p.read_text())
