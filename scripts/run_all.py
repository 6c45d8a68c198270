"""Run every scenario with its sample config.

Writes one subdirectory per scenario under --out and prints each result
line as it goes.  Exit code is the first nonzero scenario exit, so this
doubles as a smoke test for a fresh install.  Runs from a source checkout
too: `src` is put first on the import path, so the package needs no install.
"""
import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hyperselect.cli import main as run_cli  # noqa: E402
from hyperselect.scenarios import SCENARIOS  # noqa: E402

CONFIG_DIR = ROOT / "scripts" / "configs"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs", help="output root (default: ./runs)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", default=None, help="comma-separated scenario subset")
    args = ap.parse_args()
    names = list(SCENARIOS)
    if args.only:
        names = [n for n in args.only.split(",") if n]
    for name in names:
        cfg = CONFIG_DIR / f"{name}.cfg"
        argv = [name, "--seed", str(args.seed), "--out", str(Path(args.out) / name)]
        if cfg.exists():
            argv += ["--config", str(cfg)]
        t0 = time.perf_counter()
        code = run_cli(argv)
        print(f"# {name}: exit {code} in {1000 * (time.perf_counter() - t0):.0f} ms",
              file=sys.stderr)
        if code != 0:
            return code
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
