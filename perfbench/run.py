"""hyperselect scenario benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs from a source checkout: `src` is put on the import path here, so the
package needs no install.  One process runs one workload, one pass at a
time (a closed loop with a single client).  The last line of standard output
is one JSON object with `correct`, `attempted`, `failed` and `metrics`;
lines before it record the environment, output digests, the unscaled
medians and any failed check.  Untraced times are scaled by the host speed
that `reference.py` measures alongside them.
`--workload all` runs each workload in its own process, prints every metric
by name with its unit, and exits nonzero when any output check failed.
See perfbench/README.md for the metrics and why each workload exists.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

# One BLAS thread.  On the 2-vCPU host the benchmark was built on, a process
# with OpenBLAS's default of 2 threads sometimes ran each BLAS call about 15
# times and the interpreter about 2 times slower, for its first second or
# for a whole run; that measures the host's vCPU scheduling, not hyperselect.
# Set before numpy loads, here and in the set-up interpreters, which inherit it.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import reference  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("ball-oracle", "select-hull", "select-restricted", "exact-routes")
SETUP_REPEATS = 5
SETUP_SLICES = 16

END_TO_END_UNITS = {"norm_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "1"}

# A fresh interpreter pays this on every CLI call: the package import plus
# parsing the workload's configs.
SETUP_CODE = """\
import sys
sys.path.insert(0, sys.argv[1])
import hyperselect.cli
from hyperselect.scenarios import parse_config_file
for path in sys.argv[2:]:
    parse_config_file(path)
"""


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "loadavg_at_start": os.getloadavg(),
    }


def _blas_threads():
    """Threads of the OpenBLAS that numpy loaded, read from the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _setup_times(configs, sampler):
    """Scaled wall seconds for fresh interpreters to import and parse configs,
    each between two sets of reference slices; and the raw seconds."""
    sampler.take(SETUP_SLICES)
    raw, scaled = [], []
    for _ in range(SETUP_REPEATS):
        first = len(sampler.samples) - SETUP_SLICES
        start = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, configs)],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        raw.append(perf_counter() - start)
        sampler.take(SETUP_SLICES)
        scaled.append(sampler.scaled(raw[-1], first))
    return scaled, raw


def _pass_times(workload, seconds, sampler):
    """Scaled and raw wall seconds of passes until `seconds` have run, with
    reference slices taken throughout each pass."""
    raw, scaled = [], []
    start = perf_counter()
    with sampler.running():
        while not raw or perf_counter() - start < seconds:
            first = len(sampler.samples)
            raw.append(workload.run_pass(clock=sampler.now))
            scaled.append(sampler.scaled(raw[-1], first))
    return scaled, raw


def _measure(workload, configs, seconds):
    """Untimed warm-up pass, then medians of set-up and pass times, each
    scaled by the host speed the reference slices saw alongside it."""
    workload.run_pass()
    sampler = reference.Sampler()
    setups, raw_setups = _setup_times(configs, sampler)
    walls, raw_walls = _pass_times(workload, seconds, sampler)
    values = {"norm_wall_s": statistics.median(walls), "setup_s": statistics.median(setups)}
    unscaled = {"wall_s": statistics.median(raw_walls), "setup_s": statistics.median(raw_setups),
                "slice_s": statistics.median(sampler.samples), "passes": len(raw_walls)}
    return values, unscaled


def _measure_traced(workload, seconds):
    """Untimed warm-up pass, then untraced and traced passes in turn until
    `seconds` have run; medians of the traced metrics."""
    import tracer as layer_tracer

    workload.run_pass()
    walls, traced_walls, layer_runs = [], [], []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        walls.append(workload.run_pass())
        tracer = layer_tracer.Tracer()
        with layer_tracer.installed(tracer):
            traced_walls.append(workload.run_pass(tracer))
        layer_runs.append(tracer.metrics())
    metrics = {}
    for name, first in layer_runs[0].items():
        # counts repeat exactly from pass to pass; keep them whole numbers
        pick = statistics.median_low if isinstance(first, int) else statistics.median
        metrics[name] = pick(run[name] for run in layer_runs)
    metrics["trace.wall_s"] = statistics.median(traced_walls)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(walls)
    return metrics, {"wall_s": statistics.median(walls), "passes": len(walls)}


def _units(trace):
    if not trace:
        return END_TO_END_UNITS
    import tracer as layer_tracer

    return {**layer_tracer.metric_units(), "trace.wall_s": "s", "trace.overhead_s": "s"}


def run_workload(args):
    env = _environment()
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, Workload

    configs = [ROOT / "scripts" / "configs" / f"{s}.cfg" for s in WORKLOADS[args.workload]]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as out_root:
        workload = Workload(args.workload, ROOT, out_root, args.seed)
        if args.trace:
            values, unscaled = _measure_traced(workload, args.seconds)
        else:
            values, unscaled = _measure(workload, configs, args.seconds)
    if not args.trace:
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values["ok_frac"] = (workload.attempted - workload.failed) / workload.attempted
    units = _units(args.trace)
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({"digests": workload.digests}, sort_keys=True))
    print(json.dumps({"unscaled": unscaled}, sort_keys=True))
    for problem in workload.problems:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if workload.failed == 0 else 1


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    status = 0
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        unscaled = {}
        for line in lines[:-1]:
            if line.startswith("FAILED"):
                print(f"{name}: {line}")
            elif line.startswith('{"unscaled"'):
                unscaled = json.loads(line)["unscaled"]
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit {proc.returncode})")
            status = 1
            continue
        if proc.returncode != 0 or not result["correct"]:
            status = 1
        rows = dict(result["metrics"])
        if not args.trace:
            rows["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "1"}
            rows["wall_s"] = {"value": unscaled["wall_s"], "unit": "s"}  # not host-scaled
        for metric, entry in rows.items():
            print(f"{name:18} {metric:48} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None):
    args = _parse_args(argv)
    missing = [p for p in (SRC / "hyperselect" / "__init__.py", ROOT / "scripts" / "configs")
               if not p.exists()]
    if missing:
        print(f"perfbench: not a hyperselect checkout, missing {missing[0]}", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
