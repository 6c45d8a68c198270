"""Written figures against their closed forms, on any numpy build.

A digest says only that some byte of a file changed; these checks say
which figure moved and by how much.  Each runs a scenario on its sample
config, reads back what it wrote and compares with a closed form derived
from the scenario's own inputs, within a bound set from the measured error
of the written digits.
"""
import json
from pathlib import Path

import numpy as np

from hyperselect.norms import dyadic_weights
from hyperselect.scenarios import SCENARIOS, matrix_unit_probes, parse_config_file

SAMPLE_CONFIGS = Path(__file__).resolve().parents[1] / "scripts" / "configs"


def test_marechal_curve_is_the_off_diagonal_weight_times_sin_2theta(tmp_path):
    # The curve is the weighted sum over the matrix-unit probes x of
    # |s_theta(x) - s_0(x)|, s_A(x) the trace norm of the HS projection of
    # x onto the rotated diagonal algebra A.  Its minimal projections are
    # p1 = u e11 u* and p2 = u e22 u*, u the rotation by theta.  A diagonal
    # unit projects to cos^2 p1 + sin^2 p2 (or the reverse), of trace norm 1
    # at every theta, so it adds nothing.  An off-diagonal unit projects to
    # +-cs (p1 - p2), of trace norm 2|cs| = |sin 2 theta|, against 0 at
    # theta = 0.  So the curve is w_off |sin 2 theta|, w_off the summed
    # weights of the off-diagonal probes (51/128 for the sample's 8 probes).
    params = parse_config_file(SAMPLE_CONFIGS / "marechal.cfg")
    SCENARIOS["marechal"](params, 0, tmp_path)
    probes = matrix_unit_probes(2, int(params["probe_count"]))
    weights = dyadic_weights(len(probes))
    w_off = sum(w for p, w in zip(probes, weights) if p[0, 1] != 0 or p[1, 0] != 0)
    lines = (tmp_path / "curve.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "theta,pseudometric"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert len(rows) == int(params["theta_count"])
    deviation = np.abs(rows[:, 1] - w_off * np.abs(np.sin(2.0 * rows[:, 0])))
    print(f"curve.csv: worst deviation {deviation.max():.2e} from w_off |sin 2 theta|,"
          f" w_off = {w_off}")
    # the file keeps 12 significant digits of theta and of the value, which
    # read 7.2e-13 apart from the closed form at worst
    assert deviation.max() <= 1e-12


def _csv_rows(path):
    """The header and the rows of a written CSV file, as strings."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split(","), [line.split(",") for line in rows]


def test_borel_census_certifies_every_cylinder_and_constant_instance(tmp_path):
    # The bundle holds one cylinder instance per binary prefix of length
    # prefix_len, a member of the family or not, and four constant ones:
    # half in, half out, the full space and a late arrival.  Each is decided
    # the same way at both depths, so all are certified.  Its two
    # singleton-branch instances ask about the point 1^infinity, which no
    # depth certifies, so they land on the frontier.
    params = parse_config_file(SAMPLE_CONFIGS / "borel.cfg")
    SCENARIOS["borel"](params, 0, tmp_path)
    prefix_len = int(params["prefix_len"])
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    print(f"borel/summary.json: {summary}")
    assert summary == {"certified": 2 ** prefix_len + 4, "frontier": 2,
                       "depths": [int(params["d"]), int(params["d2"])]}
    header, rows = _csv_rows(tmp_path / "borel.csv")
    assert header == ["name", "expected", "support_d", "support_d2", "verdict", "match"]
    assert sum("cylinder" in name for name, *_ in rows) == 2 ** prefix_len
    frontier = [row for row in rows if row[4] == "DepthInsufficient"]
    assert [row[1] for row in frontier] == ["depth_insufficient"] * 2
    assert all(row[5] == "true" for row in rows)


def test_every_duality_route_gap_is_within_its_norms_tolerance(tmp_path):
    # the primal and dual routes are both exact, so each written gap is
    # roundoff.  The worst gaps read l1 1.8e-15, linf 8.9e-16 and l2
    # 1.6e-15, so each norm is gated at ulp scale, as the seeded sweep of
    # test_polyhedral_routes_agree_to_a_few_ulps gates l1 and linf; the
    # config's tolerances, 1e-12, are a thousand times looser
    params = parse_config_file(SAMPLE_CONFIGS / "duality.cfg")
    SCENARIOS["duality"](params, 0, tmp_path)
    norms = params["norms"].split(",")
    gate = {"l1": 2e-14, "linf": 1e-14, "l2": 1e-14}
    header, rows = _csv_rows(tmp_path / "duality.csv")
    assert header == ["trial", "norm", "primal", "dual", "abs_diff"]
    assert len(rows) == int(params["trials"]) * len(norms)
    assert {norm for _, norm, *_ in rows} == set(norms)
    worst = {kind: max(float(row[4]) for row in rows if row[1] == kind) for kind in norms}
    print(f"duality.csv: worst abs_diff per norm {worst} against {gate}")
    assert all(worst[kind] <= gate[kind] for kind in norms)


def test_finiteness_modulus_is_eps_times_its_block_size_constant(tmp_path):
    # delta / eps reads 1, sqrt(2)/3 and sqrt(2)/12 at block sizes 1, 2 and
    # 4.  No derivation of these constants from the witness that attains
    # them is given yet (ROADMAP item 6), so this pins the floats.
    params = parse_config_file(SAMPLE_CONFIGS / "finiteness.cfg")
    SCENARIOS["finiteness"](params, 0, tmp_path)
    constant = {1: 1.0, 2: np.sqrt(2.0) / 3.0, 4: np.sqrt(2.0) / 12.0}
    header, rows = _csv_rows(tmp_path / "finiteness.csv")
    assert header == ["eps", "delta", "block_size"]
    sizes = [int(size) for size in params["block_sizes"].split(",")]
    eps_list = [float(eps) for eps in params["eps_list"].split(",")]
    assert [(float(eps), int(size)) for eps, _, size in rows] == [
        (eps, size) for size in sizes for eps in eps_list]
    deviation = max(abs(float(delta) - float(eps) * constant[int(size)])
                    for eps, delta, size in rows)
    print(f"finiteness.csv: worst deviation {deviation:.2e} of delta from eps * c")
    # the file keeps 12 significant digits of delta < 1, which read 4.1e-13
    # apart from eps * c at worst
    assert deviation <= 1e-12
