"""Run every scenario with its sample config.

Writes one subdirectory per scenario under --out and prints each result
line as it goes.  Exit code is the first nonzero scenario exit, so this
doubles as a smoke test for a fresh install.  Runs from a source checkout
too: `src` is put first on the import path, so the package needs no install.

With --check, the files written are then compared with the seed-0 digests
in scripts/seed0.sha256: each file that differs, each listed file of a
scenario run that was not written and each written file that is not
listed is named on stderr, and the exit code is 1 when there is any.
"""
import argparse
import hashlib
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hyperselect.cli import main as run_cli  # noqa: E402
from hyperselect.scenarios import SCENARIOS  # noqa: E402

CONFIG_DIR = ROOT / "scripts" / "configs"
MANIFEST = ROOT / "scripts" / "seed0.sha256"


def mismatches(out, names, manifest=MANIFEST):
    """One line per file under out/<name>, for each scenario name, that does
    not match its digest in the manifest, or per manifest file of those
    scenarios that is missing; paths are relative to out, as listed."""
    want = {}
    for line in Path(manifest).read_text(encoding="utf-8").splitlines():
        digest, path = line.split(maxsplit=1)
        if path.split("/")[0] in names:
            want[path] = digest
    out = Path(out)
    written = {f.relative_to(out).as_posix() for name in names if (out / name).is_dir()
               for f in (out / name).rglob("*") if f.is_file()}
    problems = []
    for path in sorted(want.keys() | written):
        if path not in want:
            problems.append(f"{path}: not in {Path(manifest).name}")
        elif path not in written:
            problems.append(f"{path}: not written")
        elif hashlib.sha256((out / path).read_bytes()).hexdigest() != want[path]:
            problems.append(f"{path}: digest differs")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="runs", help="output root (default: ./runs)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--only", default=None, help="comma-separated scenario subset")
    ap.add_argument("--check", action="store_true",
                    help=f"compare the written files with {MANIFEST.name}; exit 1 on a mismatch")
    args = ap.parse_args()
    if args.check and args.seed != 0:
        ap.error("--check compares with the seed-0 digests; it needs --seed 0")
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
    if args.check:
        problems = mismatches(args.out, names)
        for line in problems:
            print(f"# mismatch: {line}", file=sys.stderr)
        if problems:
            return 1
        print(f"# all files match {MANIFEST.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
