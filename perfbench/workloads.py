"""Workload passes: the CLI scenarios on their sample configs, with output checks.

A pass runs each scenario of a workload once, in-process, into a fresh
output directory, then checks paper-level facts read back from the files it
wrote and takes the SHA-256 of every file.  Only the scenario calls are
timed; clearing directories, checks and digests are not.
"""
from __future__ import annotations

import csv
import hashlib
import json
import shutil
from pathlib import Path
from time import perf_counter

from hyperselect.scenarios import SCENARIOS, parse_config_file

# Workload name -> scenarios, in run order.  Why each exists is in README.md.
WORKLOADS = {
    "ball-oracle": ("counterexample",),
    "select-hull": ("selection",),
    "select-restricted": ("marechal",),
    "exact-routes": ("duality", "finiteness", "borel"),
}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _json(path):
    return json.loads(Path(path).read_text(encoding="utf-8"))


def _check_counterexample(out, params):
    tol = float(params.get("tol", 1e-3))
    witness = _json(out / "witness.json")
    problems = []
    if witness["ok"] is not False:
        problems.append("witness.json: limit disc accepted as a subspace ball")
    if not abs(witness["defect"] - 0.5) <= tol:
        problems.append(f"witness.json: defect {witness['defect']} not within {tol} of 1/2")
    bad = [r["n"] for r in _rows(out / "counterexample.csv") if r["ball_ok"] != "true"]
    if bad:
        problems.append(f"counterexample.csv: ball_ok false for n={','.join(bad)}")
    return problems


def _check_selection(out, params):
    problems = []
    for r in _rows(out / "decay.csv"):
        k = int(r["k"])
        if not float(r["max_defect"]) < 0.5 ** (k + 1):
            problems.append(f"decay.csv: round {k} defect {r['max_defect']} >= 2^-{k + 1}")
    for r in _rows(out / "family_audit.csv"):
        if not float(r["audit_gap"]) <= float(r["bound"]):
            problems.append(f"family_audit.csv: m_max={r['m_max']} gap {r['audit_gap']}"
                            f" exceeds bound {r['bound']}")
    if _json(out / "continuity.json").get("jump_rejected") is not True:
        problems.append("continuity.json: jump map not rejected")
    return problems


def _check_marechal(out, params):
    summary = _json(out / "summary.json")
    if summary["worst_audit_l2"] <= summary["audit_bound_l2"]:
        return []
    return [f"summary.json: worst_audit_l2 {summary['worst_audit_l2']}"
            f" exceeds {summary['audit_bound_l2']}"]


def _check_duality(out, params):
    per_norm = _json(out / "summary.json")["per_norm"]
    return [f"summary.json: {kind} max_abs_diff {v['max_abs_diff']} exceeds tol {v['tol']}"
            for kind, v in sorted(per_norm.items()) if not v["max_abs_diff"] <= v["tol"]]


def _check_finiteness(out, params):
    return []  # the scenario has no paper-level gate; its digests are still compared


def _check_borel(out, params):
    bad = [r["name"] for r in _rows(out / "borel.csv") if r["match"] != "true"]
    return [f"borel.csv: census disagrees with membership for {', '.join(bad)}"] if bad else []


CHECKS = {
    "counterexample": _check_counterexample,
    "selection": _check_selection,
    "marechal": _check_marechal,
    "duality": _check_duality,
    "finiteness": _check_finiteness,
    "borel": _check_borel,
}


class Workload:
    """One workload's scenarios and configs, and the record of its passes.

    The first pass fixes each scenario's output digests; a later pass whose
    digests differ counts as a failed run of that scenario.
    """

    def __init__(self, name, root, out_root, seed):
        self.scenarios = WORKLOADS[name]
        self.seed = seed
        self.out_root = Path(out_root)
        config_dir = Path(root) / "scripts" / "configs"
        self.params = {s: parse_config_file(config_dir / f"{s}.cfg") for s in self.scenarios}
        self.digests = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def run_pass(self, tracer=None, clock=perf_counter):
        """Run every scenario once; returns the summed scenario seconds, as
        read from `clock`."""
        total = 0.0
        for scenario in self.scenarios:
            out = self.out_root / scenario
            shutil.rmtree(out, ignore_errors=True)
            out.mkdir(parents=True)
            run = SCENARIOS[scenario]
            if tracer is not None:
                run = tracer.wrap(f"scenarios.{scenario}", run)
            self.attempted += 1
            start = clock()
            try:
                run(self.params[scenario], self.seed, out)
            except Exception as err:  # noqa: BLE001 - any raise is a failed run, reported
                total += clock() - start
                self._fail(scenario, [f"{type(err).__name__}: {err}"])
                continue
            total += clock() - start
            self._fail(scenario, self._check(scenario, out, tracer))
        return total

    def _fail(self, scenario, problems):
        if problems:
            self.failed += 1
            self.problems.extend(f"{scenario}: {p}" for p in problems)

    def _check(self, scenario, out, tracer):
        files = sorted(p for p in out.iterdir() if p.is_file())
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files}
        if tracer is not None:
            tracer.counters["scenarios.output_bytes"] += sum(p.stat().st_size for p in files)
        try:
            problems = CHECKS[scenario](out, self.params[scenario])
        except (OSError, KeyError, ValueError) as err:
            problems = [f"unreadable output: {type(err).__name__}: {err}"]
        first = self.digests.setdefault(scenario, digests)
        if digests != first:
            changed = sorted(k for k in set(first) | set(digests)
                             if first.get(k) != digests.get(k))
            problems.append(f"output differs from the first pass: {', '.join(changed)}")
        return problems
