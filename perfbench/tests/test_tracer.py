"""Tracer self-check: on one traced pass of each workload, every traced
function's call count equals cProfile's count for the same function object.

A mismatch means a call reached the original function around the tracer,
for example through a `from .module import name` binding it did not rebind.

    python3 -m pytest perfbench/tests -q
"""
import cProfile
import pstats
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import tracer as layer_tracer  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_calls_match_cprofile(name, tmp_path):
    workload = Workload(name, ROOT, tmp_path, seed=0)
    tracer = layer_tracer.Tracer()
    profile = cProfile.Profile()
    with layer_tracer.installed(tracer):
        profile.runcall(workload.run_pass, tracer)
    assert workload.failed == 0, workload.problems

    profiled = pstats.Stats(profile).stats
    traced = tracer.metrics()
    for metric, _module, _attr, _has_children, _hook in layer_tracer.LAYERS:
        code = tracer.originals[metric].__code__
        key = (code.co_filename, code.co_firstlineno, code.co_name)
        ncalls = profiled[key][1] if key in profiled else 0
        assert traced[f"{metric}.calls"] == ncalls, metric
