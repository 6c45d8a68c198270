"""Command-line front end: `hyperselect <scenario> --config <path>`.

Exit codes: 0 on success, 2 on an invalid configuration (a config file
that is not UTF-8 text, a negative --seed) or an --out path that cannot be
made a directory, 3 on an invariant violation inside a pipeline (an
InvariantViolation: a duality mismatch, a stalled iteration, a census
contradiction), 4 when a truncation is too shallow to settle a membership,
and 1 on any other exception, a bug the library did not anticipate.
Failures print a single machine-readable JSON record to stderr; an exit 1
record carries the traceback too.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# numpy-free: help, usage and config errors exit before any library module loads
from .scenarios import SCENARIOS, ConfigError, parse_config_file


def _fail(code, kind, message, **extra):
    sys.stderr.write(json.dumps(
        {"error": kind, "message": str(message), **extra}, sort_keys=True) + "\n")
    return code


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="hyperselect",
        description="Run one of the bundled experiment scenarios.")
    parser.add_argument("scenario", help=f"one of: {', '.join(sorted(SCENARIOS))}")
    parser.add_argument("--config", default=None,
                        help="key=value config file; omit for scenario defaults")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out", help="output directory")
    args = parser.parse_args(argv)

    if args.scenario not in SCENARIOS:
        return _fail(2, "ConfigError",
                     f"unknown scenario {args.scenario!r};"
                     f" choose from {', '.join(sorted(SCENARIOS))}")
    if args.seed < 0:
        return _fail(2, "ConfigError", f"--seed: expected a non-negative integer,"
                                       f" got {args.seed}")
    try:
        params = parse_config_file(args.config) if args.config else {}
    except ConfigError as err:
        return _fail(2, "ConfigError", err)

    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        return _fail(2, "ConfigError", f"--out {out}: cannot make the output directory"
                                       f" ({err.strerror})")
    from .borel import DepthInsufficient
    from .norms import InvariantViolation

    try:
        files = SCENARIOS[args.scenario](params, args.seed, out)
    except ConfigError as err:
        return _fail(2, "ConfigError", err)
    except DepthInsufficient as err:
        return _fail(4, "DepthInsufficient", err)
    except InvariantViolation as err:
        return _fail(3, type(err).__name__, err)
    except Exception as err:  # noqa: BLE001 - an unanticipated failure, reported in full
        import traceback

        return _fail(1, type(err).__name__, err, traceback=traceback.format_exc())
    print(json.dumps({"scenario": args.scenario, "seed": args.seed,
                      "files": sorted(str(f) for f in files)}, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
