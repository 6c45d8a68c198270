"""Host-speed reference: slices run during a timed block, and the sampler's
clock leaves their time out.

    python3 -m pytest perfbench/tests -q
"""
import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import reference  # noqa: E402


def test_clock_leaves_slices_out():
    sampler = reference.Sampler()
    with sampler.running():
        wall_start, clock_start = perf_counter(), sampler.now()
        while perf_counter() - wall_start < 3 * reference.INTERVAL_S + 0.1:
            pass
        wall, clock = perf_counter() - wall_start, sampler.now() - clock_start
    assert len(sampler.samples) >= 2
    assert clock == pytest.approx(wall - sum(sampler.samples), abs=0.01)


def test_short_pass_gets_a_slice():
    sampler = reference.Sampler()
    scaled = sampler.scaled(1.0, 0)
    assert len(sampler.samples) == 1
    assert scaled == pytest.approx(reference.NOMINAL_S / sampler.samples[0])
