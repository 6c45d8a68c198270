"""The command-line runner: config parsing, exit codes, emitted files, and
byte-identical reruns."""
import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hyperselect.cli import main
from hyperselect.duality import SECTION_DIM_CAP, DualityMismatch
from hyperselect.norms import InvariantViolation
from hyperselect.scenarios import (
    _BOREL_KEYS,
    _COUNTEREXAMPLE_KEYS,
    _MARECHAL_KEYS,
    _SELECTION_KEYS,
    SCENARIOS,
    ConfigError,
    SpectralBallTarget,
    _duality_keys,
    _finiteness_keys,
    _resolve,
    _write_json,
    coords_to_sym,
    parse_config_file,
    sym_to_coords,
)
from hyperselect.hulls import HullProjector
from hyperselect.selection import IterationStall, NetTooCoarse, NotACover

SAMPLE_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
SEED0_MANIFEST = SAMPLE_CONFIGS.parent / "seed0.sha256"


BUNDLED_MAP_NAMES = ("constant-interval", "sliding-left-end", "growing-right-end",
                     "sine-singleton", "sine-band", "vee-band", "vertical-segment",
                     "rotating-segment", "rising-triangle", "constant-square")


def _write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _read_outputs(out_dir):
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


# ---------------------------------------------------------------------------
# config file parsing


def test_parse_skips_comments_and_blanks(tmp_path):
    path = _write_config(tmp_path, """
# full-line comment
d = 6   # trailing comment

d2=8
name = with spaces
""")
    assert parse_config_file(path) == {"d": "6", "d2": "8", "name": "with spaces"}


def test_parse_rejects_duplicate_key(tmp_path):
    path = _write_config(tmp_path, "d=6\nd=7\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_file(path)


def test_parse_rejects_missing_equals(tmp_path):
    path = _write_config(tmp_path, "just a line\n")
    with pytest.raises(ConfigError, match="key=value"):
        parse_config_file(path)


def test_parse_rejects_empty_key(tmp_path):
    path = _write_config(tmp_path, "=value\n")
    with pytest.raises(ConfigError, match="empty key"):
        parse_config_file(path)


def test_parse_missing_file():
    with pytest.raises(ConfigError, match="cannot read"):
        parse_config_file("/nonexistent/path.cfg")


def test_parse_rejects_non_utf8_config(tmp_path):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"d=\xff\xfe\n")
    with pytest.raises(ConfigError, match=f"cannot read config {path}"):
        parse_config_file(path)


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["no-such-thing", "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


def test_negative_seed_exits_2_before_anything_runs(tmp_path, capsys):
    # numpy's generator refuses a negative seed, and the other scenarios
    # never read it; the CLI rejects it for all six alike
    for scenario in SCENARIOS:
        assert main([scenario, "--seed", "-1", "--out", str(tmp_path / "o")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "--seed" in record["message"]
    assert not (tmp_path / "o").exists()


def test_out_path_that_is_a_file_exits_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("", encoding="utf-8")
    assert main(["borel", "--out", str(taken)]) == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert str(taken) in record["message"]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    # counterexample decides its criterion in closed form on the disc, so it
    # has no sample-grid key such as angles; the dense family pins each member
    # on all of U_nm, so selection and marechal take no exhaustion depth; the
    # adjoint modulus is bounded by exact witnesses, so finiteness draws no
    # samples
    for scenario, key in (("borel", "bogus_key"), ("counterexample", "angles"),
                          ("selection", "p_max"), ("marechal", "hw_p_max"),
                          ("finiteness", "sample_count")):
        cfg = _write_config(tmp_path, f"{key}=64\n")
        code = main([scenario, "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 2
        assert key in json.loads(capsys.readouterr().err)["message"]


def test_bad_value_type_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "d=six\n")
    code = main(["borel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2


def test_bad_bool_exits_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "check_jump=yes\n")
    code = main(["selection", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


def test_inconsistent_depths_exit_2(tmp_path, capsys):
    cfg = _write_config(tmp_path, "d=8\nd2=6\n")
    code = main(["borel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


def test_invariant_violation_exits_3(tmp_path, capsys):
    # zero tolerance turns the route-agreement check into a tripwire
    cfg = _write_config(tmp_path, "norms=l2\ntrials=20\ntol_l2=0\n")
    code = main(["duality", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DualityMismatch"


def test_census_contradiction_exits_3(tmp_path, capsys, monkeypatch):
    import hyperselect.borel as borel
    monkeypatch.setattr(borel, "pfin_census", lambda m1, deeper: {"verdict": "Unknown"})
    code = main(["borel", "--out", str(tmp_path / "o")])
    assert code == 3
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "InvariantViolation"
    assert "contradicts analytic membership" in record["message"]


def test_invariant_failures_share_one_base():
    for err in (DualityMismatch, IterationStall, NetTooCoarse, NotACover):
        assert issubclass(err, InvariantViolation), err
    assert issubclass(InvariantViolation, RuntimeError)


def test_unanticipated_error_exits_1_with_its_traceback(tmp_path, capsys, monkeypatch):
    # a KeyError is no invariant report: a bug the library did not foresee
    def broken(params, seed, out):
        raise KeyError("no such column")

    monkeypatch.setitem(SCENARIOS, "duality", broken)
    code = main(["duality", "--out", str(tmp_path / "o")])
    assert code == 1
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "KeyError"
    assert "no such column" in record["message"]
    assert "in broken" in record["traceback"]


def test_frontier_policy_fail_exits_4(tmp_path, capsys):
    cfg = _write_config(tmp_path, "frontier_policy=fail\nd=6\nd2=8\ncount=3\nprefix_len=2\n")
    code = main(["borel", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 4
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "DepthInsufficient"


def test_registry_has_all_scenarios():
    assert sorted(SCENARIOS) == ["borel", "counterexample", "duality",
                                 "finiteness", "marechal", "selection"]


# ---------------------------------------------------------------------------
# success path


def test_borel_run_reports_files(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, "d=6\nd2=8\ncount=3\nprefix_len=2\n")
    code = main(["borel", "--config", cfg, "--seed", "3", "--out", str(out)])
    assert code == 0
    record = json.loads(capsys.readouterr().out)
    assert record["scenario"] == "borel"
    assert record["seed"] == 3
    names = {p.rsplit("/", 1)[-1] for p in record["files"]}
    assert names == {"borel.csv", "summary.json"}
    for f in record["files"]:
        assert (out / f.rsplit("/", 1)[-1]).exists()


def test_borel_census_matches_membership(tmp_path, capsys):
    out = tmp_path / "o"
    code = main(["borel", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = (out / "borel.csv").read_text().strip().splitlines()[1:]
    assert all(row.endswith(",true") for row in rows)
    summary = json.loads((out / "summary.json").read_text())
    assert summary["certified"] == 20
    assert summary["frontier"] == 2


@pytest.mark.parametrize("d2", [21, 2000])
def test_borel_runs_at_any_depth(tmp_path, capsys, d2):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, f"d2={d2}\n")
    assert main(["borel", "--config", cfg, "--out", str(out)]) == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert (summary["depths"], summary["certified"]) == ([8, d2], 20)


def test_duality_outputs_within_tolerance(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, "norms=l2\ntrials=10\ndim=3\n")
    code = main(["duality", "--config", cfg, "--seed", "7", "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["per_norm"]["l2"]["max_abs_diff"] <= 1e-12


def test_finiteness_sweep_shapes(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _write_config(tmp_path, "m=2\nblock_sizes=1,2\neps_list=0.1,0.2\n")
    code = main(["finiteness", "--config", cfg, "--out", str(out)])
    assert code == 0
    capsys.readouterr()
    rows = (out / "finiteness.csv").read_text().strip().splitlines()
    assert rows[0] == "eps,delta,block_size"
    assert len(rows) == 1 + 2 * 2  # eps grid x block sizes


def test_spectral_ball_target_matches_one_matrix_at_a_time():
    target = SpectralBallTarget()
    points = np.random.default_rng(8).standard_normal((200, 3)) * 1.5
    projected, inside = [], []
    for v in points:
        w, q = np.linalg.eigh(coords_to_sym(v))
        projected.append(sym_to_coords((q * np.clip(w, -1.0, 1.0)) @ q.T))
        inside.append(np.abs(np.linalg.eigvalsh(coords_to_sym(v))).max() <= 1.0 + 1e-9)
    assert np.array_equal(target.project(points), np.array(projected))
    assert np.array_equal(target.contains(points), np.array(inside))
    assert target.contains(target.project(points)).all()


def test_marechal_audit_gap_over_its_bound_raises(tmp_path, monkeypatch):
    # the members at v_0 = 0 alone stay near the origin, about sqrt(2) from
    # every corner of the values, so the audit must refuse to write a summary
    import hyperselect.scenarios as scenarios
    import hyperselect.selection as selection
    full = selection.dense_selection_family
    monkeypatch.setattr(selection, "dense_selection_family", lambda *args, **kw: [
        mem for mem in full(*args, **kw) if mem.net_index == 0])
    with pytest.raises(InvariantViolation,
                       match=r"exceeds the bound .* at theta .*, generator \d"):
        scenarios.run_marechal({"theta_count": "2", "hw_points": "3"}, 0, tmp_path)
    assert not (tmp_path / "summary.json").exists()


# a nan tolerance would switch the primal/dual gate off (diff > nan is never
# true), and a non-finite block size used to surface as an invariant violation
@pytest.mark.parametrize("scenario,text,key", [
    ("duality", "norms=l1\ntrials=2\ntol_polyhedral=nan\n", "tol_polyhedral"),
    ("finiteness", "block_sizes=1,inf\n", "block_sizes"),
    ("finiteness", "block_sizes=1,nan\n", "block_sizes"),
], ids=["tol_polyhedral-nan", "block_sizes-inf", "block_sizes-nan"])
def test_non_finite_number_exits_2(tmp_path, capsys, scenario, text, key):
    cfg = _write_config(tmp_path, text)
    code = main([scenario, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert key in record["message"]


@pytest.mark.parametrize("scenario,text,key", [
    ("duality", f"dim={SECTION_DIM_CAP + 1}\nnorms=l1\n", "dim"),
    ("duality", "norms=l1\ntrials=-5\n", "trials"),
    ("duality", "norms=l1\ntrials=0\n", "trials"),
    ("counterexample", "scales=0.5,-1\n", "scales"),
    ("counterexample", "scales=0.5,1\n", "scales"),
    ("marechal", "hw_tol=-1\n", "hw_tol"),
    ("selection", "tol=0\n", "tol"),
    ("selection", "family_tol=-0.01\n", "family_tol"),
    ("selection", "eps=0\n", "eps"),
    ("marechal", "hw_m_max=0\n", "hw_m_max"),
    ("marechal", "probe_count=0\n", "probe_count"),
    ("selection", "m_max=0\n", "m_max"),
    ("finiteness", "witness_count=-1\n", "witness_count"),
    ("finiteness", "eps_list=0.1,0\n", "eps_list"),
    ("finiteness", "probe_count=0\n", "probe_count"),
    ("finiteness", "m=9\n", "m"),
    # m = 1 probes dimension 1, which has only the directions -1 and +1
    ("finiteness", "m=1\nblock_sizes=1\nprobe_count=4\n", "probe_count"),
    ("borel", "count=0\n", "count"),
    ("borel", "count=16\n", "count"),
    ("counterexample", "tol=-1\n", "tol"),
    ("selection", "net=5\n", "net"),
    ("duality", "norms=\n", "norms"),
    ("borel", "d2=0\n", "d2"),
    ("selection", "n1d=0\n", "n1d"),
    ("marechal", "hw_theta_max=0\n", "hw_theta_max"),
    ("duality", "tol_l2=-1\n", "tol_l2"),
    ("duality", "norms=l1\ntol_polyhedral=-1\n", "tol_polyhedral"),
    ("selection", "map=vertical-segment\nnet=0.5\n", "net"),
    ("borel", "prefix_len=-1\n", "prefix_len"),
    # the bundle lists 2**prefix_len instances
    ("borel", "d=21\nd2=21\nprefix_len=20\n", "prefix_len"),
    # the default eps is below the distance from the fixed 2-D net to the
    # triangle at x = 0
    ("selection", "map=rising-triangle\n", "eps"),
    ("selection", "map=nope\n", "map"),
], ids=["dim-over-section-cap", "trials-negative", "trials-zero", "scales-negative", "scales-one",
        "hw_tol-negative", "tol-zero", "family_tol-negative", "eps-zero",
        "hw_m_max-zero", "marechal-probe_count-zero",
        "m_max-zero", "witness_count-negative", "eps_list-zero",
        "finiteness-probe_count-zero",
        "m-over-cap", "probe_count-over-dim-1", "count-zero", "count-over-prefixes", "tol-negative",
        "net-outside-target", "norms-empty", "d2-zero", "n1d-zero",
        "hw_theta_max-zero", "tol_l2-negative", "tol_polyhedral-negative",
        "net-with-2d-map", "prefix_len-negative", "prefix_len-over-cap",
        "eps-too-small-for-net", "map-unknown"])
def test_out_of_range_value_exits_2(tmp_path, capsys, scenario, text, key):
    cfg = _write_config(tmp_path, text)
    code = main([scenario, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert f"config key {key}:" in record["message"]
    if key == "map":
        assert all(name in record["message"] for name in BUNDLED_MAP_NAMES)


def test_selection_pass_builds_a_projector_per_target_only(tmp_path, monkeypatch):
    # a map holds its values as stacked arrays, so on the sample config only
    # the targets of the map and of the jump witness build a HullProjector
    built = []
    init = HullProjector.__init__

    def counted(self, generators):
        built.append(len(generators))
        init(self, generators)

    monkeypatch.setattr(HullProjector, "__init__", counted)
    SCENARIOS["selection"](parse_config_file(SAMPLE_CONFIGS / "selection.cfg"), 0, tmp_path)
    monkeypatch.undo()
    assert 0 < len(built) <= 2


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"non-finite JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


def test_one_point_grid_writes_strict_json(tmp_path, capsys):
    # a one-point grid has no adjacent pair, so the worst violation has
    # null fields; it held defect -Infinity, which strict parsers reject
    cfg = _write_config(tmp_path, "n1d=1\nn2d=1\n")
    assert main(["selection", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    report = _strict_json((tmp_path / "o" / "continuity.json").read_text(encoding="utf-8"))
    assert report["continuity"]["ok"] is True
    assert report["continuity"]["worst"] == dict.fromkeys(("x", "x_prime", "probe", "defect"))
    # nor has the jump witness on one point, so it is neither rejected nor kept
    assert report["jump_rejected"] is None


def test_json_files_refuse_non_finite_values(tmp_path):
    for value in (float("-inf"), float("inf"), float("nan")):
        with pytest.raises(ValueError):
            _write_json(tmp_path / "out.json", {"defect": value})
        assert not (tmp_path / "out.json").exists()


def test_polyhedral_duality_runs_at_the_section_cap(tmp_path, capsys):
    cfg = _write_config(tmp_path, f"dim={SECTION_DIM_CAP}\nnorms=l1,linf\ntrials=3\n")
    assert main(["duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_sample_configs_name_and_pass_every_key():
    # scripts/run_all.py and the benchmark run these files; check them against
    # each scenario's table without running the scenario
    tables = {"duality": _duality_keys(), "counterexample": _COUNTEREXAMPLE_KEYS,
              "selection": _SELECTION_KEYS, "marechal": _MARECHAL_KEYS,
              "finiteness": _finiteness_keys(), "borel": _BOREL_KEYS}
    assert sorted(tables) == sorted(SCENARIOS)
    for name, table in tables.items():
        params = parse_config_file(SAMPLE_CONFIGS / f"{name}.cfg")
        assert sorted(params) == sorted(table), name
        _resolve(params, table)


def test_block_sizes_must_be_integers(tmp_path, capsys):
    cfg = _write_config(tmp_path, "block_sizes=1.5\n")
    code = main(["finiteness", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# determinism


def test_rerun_is_byte_identical(tmp_path, capsys):
    cfg = _write_config(tmp_path, "d=6\nd2=8\ncount=3\nprefix_len=2\n")
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert main(["borel", "--config", cfg, "--seed", "5", "--out", str(out)]) == 0
        outs.append(_read_outputs(out))
    capsys.readouterr()
    assert outs[0] == outs[1]


@pytest.mark.parametrize("scenario", list(SCENARIOS))
def test_sample_config_matches_seed0_manifest(tmp_path, capsys, scenario):
    # counterexample writes only exact dyadic values, so its digests hold on
    # any numpy or BLAS build; the others are checked on the numpy that
    # recorded the manifest (README).  No output goes through scipy
    if scenario != "counterexample" and np.__version__ != "2.4.6":
        pytest.skip("digests were recorded with numpy 2.4.6")
    out = tmp_path / scenario
    cfg = str(SAMPLE_CONFIGS / f"{scenario}.cfg")
    assert main([scenario, "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    manifest = dict(reversed(line.split("  ", 1))
                    for line in SEED0_MANIFEST.read_text(encoding="utf-8").splitlines())
    names = sorted(key for key in manifest if key.startswith(f"{scenario}/"))
    assert names == sorted(f"{scenario}/{p.name}" for p in out.iterdir())
    for name in names:
        digest = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        assert digest == manifest[name], name


def test_duality_rerun_byte_identical_and_seed_sensitive(tmp_path, capsys):
    cfg = _write_config(tmp_path, "norms=l2\ntrials=8\ndim=3\n")
    by_seed = {}
    for seed in ("2", "2", "9"):
        out = tmp_path / f"s{seed}-{len(by_seed.get(seed, []))}"
        assert main(["duality", "--config", cfg, "--seed", seed, "--out", str(out)]) == 0
        by_seed.setdefault(seed, []).append(_read_outputs(out))
    capsys.readouterr()
    assert by_seed["2"][0] == by_seed["2"][1]
    assert by_seed["2"][0]["duality.csv"] != by_seed["9"][0]["duality.csv"]


def test_console_script_end_to_end(tmp_path):
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "hyperselect.cli", "borel", "--seed", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["scenario"] == "borel"
    assert (out / "borel.csv").exists()


# ---------------------------------------------------------------------------
# runtime dependencies: numpy only, scipy serves the tests

SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh_python(code, *args):
    """Run `code` in a fresh interpreter with the source tree importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          capture_output=True, text=True, timeout=300, check=False, env=env)


SCIPY_BLOCKED_RUN = """
import json
import sys
from pathlib import Path


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    raise SystemExit("the scipy blocker let scipy in")

import hyperselect
from hyperselect.cli import main
from hyperselect.scenarios import SCENARIOS

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
codes = {name: main([name, "--config", str(configs / f"{name}.cfg"),
                     "--out", str(out / name)])
         for name in SCENARIOS}
print(json.dumps(codes))
"""


def test_scenarios_run_with_scipy_blocked(tmp_path):
    # a fresh interpreter: the test modules import scipy themselves
    proc = _fresh_python(SCIPY_BLOCKED_RUN, SAMPLE_CONFIGS, tmp_path)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(SCENARIOS, 0), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SCENARIOS)


def test_finiteness_runs_with_unit_ball_sampling_blocked(tmp_path, monkeypatch, capsys):
    # the adjoint modulus comes from exact witnesses; the unit-ball sample is
    # the tests' reference only, and no library path may draw it
    def refuse(*args, **kwargs):
        raise AssertionError("unit_ball_sample called from the library")

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "hyperselect"]:
        if hasattr(module, "unit_ball_sample"):
            monkeypatch.setattr(module, "unit_ball_sample", refuse)
    cfg = str(SAMPLE_CONFIGS / "finiteness.cfg")
    assert main(["finiteness", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    assert (tmp_path / "o" / "finiteness.csv").exists()


# ---------------------------------------------------------------------------
# start-up: each process imports what it runs, and no more

NUMPY_BLOCKED_CLI = """
import sys


class BlockNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, BlockNumpy())
from hyperselect.cli import main

sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv,config,code", [
    (["--help"], None, 0),
    (["no-such-thing"], None, 2),
    (["borel", "--config"], b"d 8\n", 2),
    (["borel", "--config"], b"d=\xff\xfe\n", 2),
    (["duality", "--seed", "-1"], None, 2),
], ids=["help", "unknown-scenario", "malformed-line", "non-utf8", "negative-seed"])
def test_cli_exits_without_numpy_before_a_scenario_runs(tmp_path, argv, config, code):
    # a fresh interpreter whose numpy import raises: any numpy import on
    # these paths would end in an exit-1 record
    if config is not None:
        (tmp_path / "run.cfg").write_bytes(config)
        argv = argv + [tmp_path / "run.cfg"]
    proc = _fresh_python(NUMPY_BLOCKED_CLI, *argv, "--out", tmp_path / "o")
    assert proc.returncode == code, proc.stderr
    if code == 2:
        assert json.loads(proc.stderr)["error"] == "ConfigError"
    assert not (tmp_path / "o").exists()


MODULES_AFTER = """
import json
import sys

{statement}
print(json.dumps(sorted(name for name in sys.modules
                        if name.split(".")[0] in ("hyperselect", "numpy"))))
"""


def _modules_after(statement, *args):
    proc = _fresh_python(MODULES_AFTER.format(statement=statement), *args)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_borel_run_imports_only_its_modules(tmp_path):
    loaded = _modules_after(
        "from hyperselect.cli import main\nassert main(sys.argv[1:]) == 0",
        "borel", "--config", SAMPLE_CONFIGS / "borel.cfg", "--out", tmp_path / "o")
    library = {name for name in loaded if name.startswith("hyperselect.")}
    assert library == {"hyperselect.cli", "hyperselect.scenarios", "hyperselect.norms",
                       "hyperselect.borel"}


def test_package_exports_names_lazily():
    assert _modules_after("import hyperselect") == ["hyperselect"]
    import hyperselect

    for name in hyperselect.__all__:
        assert not inspect.ismodule(getattr(hyperselect, name)), name
    with pytest.raises(AttributeError):
        hyperselect.no_such_name  # noqa: B018


def test_tracer_self_check_passes_on_its_own():
    # run alone, nothing imports the package before the first traced pass,
    # so a runner that kept a name bound during that pass would keep the
    # tracer's wrapper and fail the next workload's count
    root = SRC.parent
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "perfbench/tests", "-q", "-p", "no:cacheprovider"],
        capture_output=True, text=True, timeout=300, check=False, cwd=root)
    assert proc.returncode == 0, proc.stdout + proc.stderr
