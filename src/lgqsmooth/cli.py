"""Command line front end.

Subcommands map one-to-one onto pipeline stages; ``report`` runs the
statistical validation suite and prints one pass/fail line per criterion.
Progress messages go to stderr, data products go to files (or stdout for
the report table).

Exit codes: 0 success, 1 configuration or input error, 2 numerical
failure inside an estimator, 3 validation criteria not met.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from . import __version__, pipeline
from .config import ConfigError, parse_config, parse_formats
from .ingest import (
    _MAX_ORDER,
    _MIN_ORDER,
    DEFAULT_BW_3DB,
    DEFAULT_DISCARD,
    DEFAULT_ORDER,
)
from .model import PhysicalParams
from .simulate import NumericalError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_ACCEPTANCE = 3


class _Parser(argparse.ArgumentParser):
    """Argument errors are configuration errors, not exit status 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# Each flag's type checks its value's range while the arguments are
# parsed, so an error names the flag and the value as typed, exits 1 and
# leaves nothing written; the library keeps its own checks for other
# callers.

def _real(text: str) -> float:
    """A float flag's value, which must be finite, as a config number."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None


def _within(convert, ok, wanted: str):
    """A flag type: the value ``convert`` reads from the text, which must
    satisfy ``ok``, else the error ``not <wanted>: '<text>'``."""
    def parse(text: str):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"not {wanted}: {text!r}")
        return value
    return parse


# a frequency or a time
_positive = _within(_real, lambda v: v > 0, "a positive number")
_nonnegative = _within(_real, lambda v: v >= 0, "a nonnegative number")
# as ensemble.base_seed in a config
_seed = _within(_int, lambda v: v >= 0, "a nonnegative integer")
# a low-pass filter order the filter design takes
_order = _within(_int, lambda v: _MIN_ORDER <= v <= _MAX_ORDER,
                 f"an integer from {_MIN_ORDER} to {_MAX_ORDER}")


def _add_config_args(sp) -> None:
    sp.add_argument("--config", required=True, metavar="PATH",
                    help="run configuration file")
    sp.add_argument("--out-dir", metavar="DIR",
                    help="run directory (default: outputs.directory from "
                         "the config, else $LGQSMOOTH_OUT_DIR, else ./out)")


def _add_output_args(sp) -> None:
    sp.add_argument("--out-dir", required=True, metavar="DIR")
    sp.add_argument("--formats", default="csv",
                    help="output formats, comma list of csv/bin (default "
                         "csv)")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="lgqsmooth",
        description="Simulate, estimate, and validate conditional "
                    "trajectories of a monitored oscillator.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("simulate",
                        help="draw an ensemble of true states and records")
    _add_config_args(sp)

    sp = sub.add_parser("estimate",
                        help="run the filter and retrofilter over records")
    _add_config_args(sp)

    sp = sub.add_parser("smooth",
                        help="combine filter and retrofilter per target")
    _add_config_args(sp)

    sp = sub.add_parser("analyze",
                        help="ensemble statistics, distances, and "
                             "autocorrelations")
    _add_config_args(sp)

    sp = sub.add_parser("report",
                        help="run the validation suite and print the table")
    _add_config_args(sp)

    sp = sub.add_parser("inject",
                        help="rescale records to a lower efficiency")
    sp.add_argument("--records", required=True, metavar="DIR",
                    help="directory of input record files")
    _add_output_args(sp)
    sp.add_argument("--eta-old", required=True, type=_real,
                    help="efficiency the records were taken at")
    sp.add_argument("--eta-new", required=True, type=_real,
                    help="reduced efficiency to emulate")
    sp.add_argument("--seed", type=_seed, default=0,
                    help="base seed for the injected noise (default 0)")

    sp = sub.add_parser("demod",
                        help="demodulate a raw trace into records")
    sp.add_argument("--trace", required=True, metavar="PATH",
                    help="raw trace file (.bin or .csv)")
    _add_output_args(sp)
    sp.add_argument("--omega-hz", required=True, type=_positive,
                    help="carrier frequency in Hz")
    sp.add_argument("--bw-hz", type=_positive, default=DEFAULT_BW_3DB,
                    help="low-pass 3 dB bandwidth in Hz (default %(default)g)")
    sp.add_argument("--order", type=_order, default=DEFAULT_ORDER,
                    help="low-pass filter order (default %(default)d)")
    sp.add_argument("--dt-us", type=_positive,
                    default=PhysicalParams.dt * 1e6,
                    help="output sample spacing in us (default %(default)g)")
    sp.add_argument("--record-us", type=_positive,
                    default=PhysicalParams.record_duration * 1e6,
                    help="record length in us (default %(default)g)")
    sp.add_argument("--discard-us", type=_nonnegative,
                    default=DEFAULT_DISCARD * 1e6,
                    help="transient to discard in us (default %(default)g)")
    return parser


def _resolve_out(args, cfg) -> Path:
    if args.out_dir:
        return Path(args.out_dir)
    if cfg is not None and cfg.out_dir:
        return Path(cfg.out_dir)
    env = os.environ.get("LGQSMOOTH_OUT_DIR")
    if env:
        return Path(env)
    return Path("out")


def _dispatch(args) -> int:
    cmd = args.command
    if cmd in ("simulate", "estimate", "smooth", "analyze", "report"):
        cfg = parse_config(Path(args.config))
        base = _resolve_out(args, cfg)
        if cmd != "report":
            getattr(pipeline, f"stage_{cmd}")(cfg, base)
            return EXIT_OK
        results = pipeline.acceptance_report(cfg)
        print(pipeline.format_report(results))
        if not all(r.passed for r in results):
            return EXIT_ACCEPTANCE
        return EXIT_OK
    if cmd == "inject":
        pipeline.stage_inject(Path(args.records), Path(args.out_dir),
                              args.eta_old, args.eta_new, args.seed,
                              formats=parse_formats(args.formats))
        return EXIT_OK
    if cmd == "demod":
        pipeline.stage_demod(Path(args.trace), Path(args.out_dir),
                             2.0 * math.pi * args.omega_hz,
                             bw_3db=args.bw_hz, order=args.order,
                             dt_out=args.dt_us * 1e-6,
                             record_len=args.record_us * 1e-6,
                             discard=args.discard_us * 1e-6,
                             formats=parse_formats(args.formats))
        return EXIT_OK
    raise AssertionError(f"unhandled command {cmd!r}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ConfigError as exc:
        print(f"lgqsmooth: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"lgqsmooth: numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError) as exc:
        print(f"lgqsmooth: error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
