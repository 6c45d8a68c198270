"""Outside-in layer tracing for hyperselect.

The tracer wraps public functions of the package's layers without touching
the package: each traced function is rebound in every `hyperselect.*`
namespace that holds it (so `from .norms import min_distance_oracle` in
`duality` is caught too), and methods are patched on their classes.  Each
call becomes a span with a parent (the innermost enclosing traced call);
spans are folded into per-function totals as they close, so memory stays
flat however many calls a pass makes.
"""
from __future__ import annotations

import functools
import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np
from hyperselect.selection import BallRestrictedValue

RESTRICTED_PROJECT = "selection.BallRestrictedValue.project"


def _count_rows(counters, args, result, parent):
    counters["hulls.HullProjector.project.rows"] += len(np.atleast_2d(args[1]))
    if parent == RESTRICTED_PROJECT:
        counters["selection.dykstra_rounds"] += 1


def _count_rounds(counters, args, result, parent):
    counters["selection.rounds"] += len(result.rounds)


def _count_cover(counters, args, result, parent):
    counters["selection.cover_elements"] += len(result.values)


def _count_fallback(counters, args, result, parent):
    counters["selection.restricted_fallbacks"] += isinstance(result, BallRestrictedValue)


def _count_samples(counters, args, result, parent):
    counters["algebras.unit_ball_sample.samples"] += len(result)


# (metric prefix, owning module, attribute path, has traced callees, counter hook)
LAYERS = (
    ("norms.min_distance_oracle", "hyperselect.norms", "min_distance_oracle", False, None),
    ("norms.probe_metric", "hyperselect.norms", "probe_metric", False, None),
    ("duality.is_subspace_ball", "hyperselect.duality", "is_subspace_ball", True, None),
    ("duality.quotient_routes", "hyperselect.duality", "quotient_routes", True, None),
    ("duality.ball_section_points", "hyperselect.duality", "ball_section_points", False, None),
    ("duality.linprog", "hyperselect.duality", "linprog", False, None),
    ("hulls.HullProjector.init", "hyperselect.hulls", "HullProjector.__init__", True, None),
    ("hulls.HullProjector.project", "hyperselect.hulls", "HullProjector.project", False,
     _count_rows),
    ("hulls.dedupe_points", "hyperselect.hulls", "dedupe_points", False, None),
    (RESTRICTED_PROJECT, "hyperselect.selection", "BallRestrictedValue.project", True, None),
    ("selection.michael_selection", "hyperselect.selection", "michael_selection", True,
     _count_rounds),
    ("selection.dense_selection_family", "hyperselect.selection", "dense_selection_family",
     True, None),
    ("selection.build_partition_of_unity", "hyperselect.selection",
     "build_partition_of_unity", False, _count_cover),
    ("selection.restrict_value", "hyperselect.selection", "restrict_value", True,
     _count_fallback),
    ("algebras.adjoint_modulus", "hyperselect.algebras", "adjoint_modulus", True, None),
    ("algebras.unit_ball_sample", "hyperselect.algebras", "unit_ball_sample", False,
     _count_samples),
    ("algebras.build_fS", "hyperselect.algebras", "build_fS", False, None),
    ("algebras.marechal_pseudometric", "hyperselect.algebras", "marechal_pseudometric",
     False, None),
    ("borel.bundled_borel_instances", "hyperselect.borel", "bundled_borel_instances", True,
     None),
    ("borel.sigma2_reduce", "hyperselect.borel", "sigma2_reduce", False, None),
    ("borel.pfin_census", "hyperselect.borel", "pfin_census", False, None),
)

COUNTERS = (
    "hulls.HullProjector.project.rows",
    "selection.dykstra_rounds",
    "selection.rounds",
    "selection.cover_elements",
    "selection.restricted_fallbacks",
    "algebras.unit_ball_sample.samples",
    "borel.sigma2_reduce.raised",
    "scenarios.output_bytes",
)

SCENARIO_NAMES = ("duality", "counterexample", "selection", "marechal", "finiteness",
                  "borel")


def metric_units():
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name, _module, _attr, has_children, _hook in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.s"] = "s"
        if has_children:
            units[f"{name}.self_s"] = "s"
    units.update((name, "count") for name in COUNTERS)
    units.update((f"scenarios.{name}.s", "s") for name in SCENARIO_NAMES)
    return units


class Tracer:
    """Per-function call counts, inclusive and child time, and counters."""

    def __init__(self):
        self.stats = {}       # name -> [calls, inclusive s, traced-child s, raised]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.originals = {}   # name -> the unwrapped function object
        self._stack = []      # open spans: [name, traced-child s]

    def wrap(self, name, fn, hook=None):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        self.originals[name] = fn
        stack, counters = self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            parent_name = parent[0] if parent else None
            span = [name, 0.0]
            stack.append(span)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                stats[3] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += span[1]
                if parent is not None:
                    parent[1] += elapsed
            if hook is not None:
                hook(counters, args, result, parent_name)
            return result

        return traced

    def metrics(self):
        out = {}
        for name, _module, _attr, has_children, _hook in LAYERS:
            calls, total, child, _raised = self.stats.get(name, (0, 0.0, 0.0, 0))
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            if has_children:
                out[f"{name}.self_s"] = total - child
        counters = dict(self.counters)
        counters["borel.sigma2_reduce.raised"] = self.stats.get(
            "borel.sigma2_reduce", (0, 0.0, 0.0, 0))[3]
        out.update(counters)
        for scenario in SCENARIO_NAMES:
            out[f"scenarios.{scenario}.s"] = self.stats.get(
                f"scenarios.{scenario}", (0, 0.0))[1]
        return out


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "hyperselect" or name.startswith("hyperselect."))]


@contextmanager
def installed(tracer):
    """Rebind every traced layer function for the duration of the block."""
    undo = []
    try:
        for name, module_name, attr, _has_children, hook in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                setattr(cls, method, tracer.wrap(name, original, hook))
                undo.append((cls, method, original))
                continue
            original = getattr(module, attr)
            wrapper = tracer.wrap(name, original, hook)
            for mod in _package_modules():
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            setattr(owner, key, original)
