"""Command-line experiment runner.

Subcommands: ``distortion``, ``timing``, ``ls``, ``cprand``,
``concentration`` (each emits a trial CSV plus a ``*.summary.csv``), and
``verify`` (runs the oracle/verification battery and sets the exit code).

Flags may also be supplied through ``--config path`` pointing at a
``key=value`` text file (keys are the long flag names in full, underscores
or dashes). Each line becomes a ``--key=value`` flag parsed ahead of the command
line, so a file value is checked exactly as its flag would be and explicit
flags override it. Every default lives in ``ExperimentConfig``.
"""

from __future__ import annotations

import argparse
import sys

from .bench import CHOICES, KINDS, ExperimentConfig, emit_csv, run_experiment
from .kron import ResourceLimitError
from .testkit import verify_suite

_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def parse_shape(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; expected e.g. 125x125")
    if not dims or any(n < 1 for n in dims):
        raise argparse.ArgumentTypeError(f"bad shape {text!r}; dimensions must be >= 1")
    return dims


def parse_seed(text: str) -> int:
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"bad seed {text!r}; expected a non-negative integer")


def parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad list {text!r}; expected comma-separated ints")


def parse_m_grid(text: str) -> tuple[int, ...]:
    """``start:stop:step`` (stop inclusive)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}; expected start:stop:step")
    try:
        start, stop, step = (int(p) for p in parts)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}; expected integers")
    if step < 1 or stop < start:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    return tuple(range(start, stop + 1, step))


def config_flags(path: str, keys) -> list[str]:
    """The ``--key=value`` flags of a ``key=value`` config file; ``gaussian``
    takes true/1/yes (the bare flag) or false/0/no (no flag). Each key must be
    one of ``keys`` exactly: argparse would take an abbreviation as the flag
    it begins."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.replace("_", "-")
            if key not in keys:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key != "gaussian":
                flags.append(f"--{key}={value}")
            elif value.lower() in _TRUE:
                flags.append("--gaussian")
            elif value.lower() not in _FALSE:
                raise ValueError(f"bad gaussian value {value!r}; expected one of {_TRUE + _FALSE}")
    return flags


def _add_experiment_flags(sub) -> set[str]:
    """Add the experiment flags to ``sub``; returns the keys a config file may
    set (every long flag but ``--config``, without its dashes)."""
    actions = [
        sub.add_argument("--shape", type=parse_shape, help="e.g. 125x125"),
        sub.add_argument("--degrees", type=parse_int_list, help="e.g. 1,2,3"),
        sub.add_argument("--m-grid", type=parse_m_grid, help="start:stop:step (stop inclusive)"),
        sub.add_argument("--m-list", dest="m_grid", metavar="M_LIST", type=parse_int_list,
                         help="e.g. 64,256,1024 (sets the same grid as --m-grid; the later flag wins)"),
        sub.add_argument("--trials", type=int),
        sub.add_argument("--seed", type=parse_seed),
        *(sub.add_argument(f"--{name}", choices=allowed) for name, allowed in CHOICES.items()),
        sub.add_argument("--gaussian", dest="include_gaussian", action="store_true",
                         help="include the dense Gaussian baseline"),
        sub.add_argument("--rank", type=int),
        sub.add_argument("--snr-db", type=float),
        sub.add_argument("--sweeps", dest="max_sweeps", type=int, help="maximum ALS sweeps"),
        sub.add_argument("--fit-tol", type=float, help="fit-improvement stopping tolerance"),
        sub.add_argument("--out", help="output CSV path (default <kind>.csv)"),
    ]
    sub.add_argument("--config", help="key=value file supplying defaults for these flags")
    return {opt[2:] for action in actions for opt in action.option_strings}


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config of a parsed experiment command: only the flags given."""
    settings = vars(args).copy()
    kind = settings.pop("command")
    settings.pop("config", None)
    if "shape" not in settings:
        raise ValueError("a shape is required (--shape or config file)")
    return ExperimentConfig(kind=kind, **settings)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kfjlt", description="Kronecker FJLT experiment runner"
    )
    subs = parser.add_subparsers(dest="command", required=True)
    # Flags not given stay out of the namespace, so the defaults are the callee's.
    quiet = {"argument_default": argparse.SUPPRESS}
    for kind in KINDS:  # every kind takes the same flags, so the same keys
        keys = _add_experiment_flags(subs.add_parser(kind, help=f"run the {kind} experiment", **quiet))
    verify = subs.add_parser("verify", help="run the oracle/verification battery", **quiet)
    verify.add_argument("--seed", type=parse_seed)

    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if args.command == "verify":
        del args.command
        results = verify_suite(verbose=True, **vars(args))
        failed = [r for r in results if not r.passed]
        print(f"{len(results) - len(failed)}/{len(results)} checks passed")
        return 1 if failed else 0

    try:
        if "config" in args:
            # argv[0] is the command; file flags go first, so given flags win
            args = parser.parse_args([argv[0], *config_flags(args.config, keys), *argv[1:]])
        config = build_config(args)
        records = run_experiment(config)
        csv_path, summary_path = emit_csv(records, config.out)
    except (ValueError, OSError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(records)} records to {csv_path} (summary: {summary_path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
