"""The command-line runner: config parsing, exit codes, emitted files, and
byte-identical reruns."""
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from hyperselect.cli import main
from hyperselect.duality import SECTION_DIM_CAP
from hyperselect.scenarios import (
    _BOREL_KEYS,
    _COUNTEREXAMPLE_KEYS,
    _DUALITY_KEYS,
    _FINITENESS_KEYS,
    _MARECHAL_KEYS,
    _SELECTION_KEYS,
    SCENARIOS,
    ConfigError,
    SpectralBallTarget,
    _resolve,
    coords_to_sym,
    parse_config_file,
    sym_to_coords,
)

SAMPLE_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"
SEED0_MANIFEST = SAMPLE_CONFIGS.parent / "seed0.sha256"


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


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_scenario_exits_2(tmp_path, capsys):
    code = main(["no-such-thing", "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"


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
    # on all of U_nm, so selection and marechal take no exhaustion depth
    for scenario, key in (("borel", "bogus_key"), ("counterexample", "angles"),
                          ("selection", "p_max"), ("marechal", "hw_p_max")):
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
    cfg = _write_config(tmp_path, "m=2\nblock_sizes=1,2\neps_list=0.1,0.2\nsample_count=100\n")
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
    full = scenarios.dense_selection_family
    monkeypatch.setattr(scenarios, "dense_selection_family", lambda *args, **kw: [
        mem for mem in full(*args, **kw) if mem.net_index == 0])
    with pytest.raises(RuntimeError, match=r"exceeds the bound .* at theta .*, generator \d"):
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
    ("finiteness", "sample_count=0\n", "sample_count"),
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
    ("borel", "d2=21\n", "d2"),
    ("selection", "n1d=0\n", "n1d"),
    ("marechal", "hw_theta_max=0\n", "hw_theta_max"),
    ("duality", "tol_l2=-1\n", "tol_l2"),
    ("duality", "norms=l1\ntol_polyhedral=-1\n", "tol_polyhedral"),
    ("selection", "map=vertical-segment\nnet=0.5\n", "net"),
    ("borel", "prefix_len=-1\n", "prefix_len"),
    # the default eps is below the distance from the fixed 2-D net to the
    # triangle at x = 0
    ("selection", "map=rising-triangle\n", "eps"),
], ids=["dim-over-section-cap", "trials-negative", "trials-zero", "scales-negative", "scales-one",
        "hw_tol-negative", "tol-zero", "family_tol-negative", "eps-zero",
        "hw_m_max-zero", "marechal-probe_count-zero",
        "m_max-zero", "sample_count-zero", "witness_count-negative", "eps_list-zero",
        "finiteness-probe_count-zero",
        "m-over-cap", "probe_count-over-dim-1", "count-zero", "count-over-prefixes", "tol-negative",
        "net-outside-target", "norms-empty", "d2-over-cap", "n1d-zero",
        "hw_theta_max-zero", "tol_l2-negative", "tol_polyhedral-negative",
        "net-with-2d-map", "prefix_len-negative", "eps-too-small-for-net"])
def test_out_of_range_value_exits_2(tmp_path, capsys, scenario, text, key):
    cfg = _write_config(tmp_path, text)
    code = main([scenario, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 2
    record = json.loads(capsys.readouterr().err)
    assert record["error"] == "ConfigError"
    assert f"config key {key}:" in record["message"]


def test_polyhedral_duality_runs_at_the_section_cap(tmp_path, capsys):
    cfg = _write_config(tmp_path, f"dim={SECTION_DIM_CAP}\nnorms=l1,linf\ntrials=3\n")
    assert main(["duality", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()


def test_sample_configs_name_and_pass_every_key():
    # scripts/run_all.py and the benchmark run these files; check them against
    # each scenario's table without running the scenario
    tables = {"duality": _DUALITY_KEYS, "counterexample": _COUNTEREXAMPLE_KEYS,
              "selection": _SELECTION_KEYS, "marechal": _MARECHAL_KEYS,
              "finiteness": _FINITENESS_KEYS, "borel": _BOREL_KEYS}
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
    # any numpy or BLAS build; the others are checked on the build that
    # recorded the manifest (README)
    if scenario != "counterexample" and (np.__version__, scipy.__version__) != ("2.4.6", "1.17.1"):
        pytest.skip("digests were recorded with numpy 2.4.6 and scipy 1.17.1")
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
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_BLOCKED_RUN, str(SAMPLE_CONFIGS), str(tmp_path)],
        capture_output=True, text=True, timeout=300, check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(SCENARIOS, 0), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(SCENARIOS)
