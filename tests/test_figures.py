"""Written figures against their closed forms, on any numpy build.

A digest says only that some byte of a file changed; these checks say
which figure moved and by how much.  Each runs a scenario on its sample
config, reads back what it wrote and compares with a closed form derived
from the scenario's own inputs, within a bound set from the measured error
of the written digits.
"""
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import nnls

from hyperselect.algebras import adjoint_modulus, build_fS, default_strong_spec
from hyperselect.norms import dyadic_weights, eval_norm
from hyperselect.scenarios import (SCENARIOS, block_subsets, matrix_unit_probes,
                                   parse_config_file)
from hyperselect.selection import BUNDLED_MAPS

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
    # summary.json's curve figures: the curve vanishes at theta = 0 and
    # peaks at theta_max, where |sin 2 theta| peaks on [0, pi/4]
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    peak = w_off * abs(math.sin(2.0 * float(params["theta_max"])))
    print(f"marechal/summary.json: curve_max {summary['curve_max']} against"
          f" w_off |sin 2 theta_max| = {peak}, curve_min {summary['curve_min']}")
    assert summary["curve_min"] == 0.0
    assert abs(summary["curve_max"] - peak) <= 1e-12


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


def test_duality_summary_is_the_maxima_of_its_rows(tmp_path):
    # summary.json holds, per norm, the largest abs_diff written to
    # duality.csv, the number of its rows and the config's tolerance for
    # that norm; both files keep 12 significant digits of the same float,
    # so they agree exactly
    params = parse_config_file(SAMPLE_CONFIGS / "duality.cfg")
    SCENARIOS["duality"](params, 0, tmp_path)
    _, rows = _csv_rows(tmp_path / "duality.csv")
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    assert summary["seed"] == 0
    norms = params["norms"].split(",")
    assert sorted(summary["per_norm"]) == sorted(norms)
    for kind in norms:
        diffs = [float(row[4]) for row in rows if row[1] == kind]
        tol = float(params["tol_l2" if kind == "l2" else "tol_polyhedral"])
        assert summary["per_norm"][kind] == {"max_abs_diff": max(diffs), "tol": tol,
                                             "trials": len(diffs)}


def test_counterexample_gaps_and_witness_are_dyadic(tmp_path):
    # The probes are e_0 .. e_{P-1}, P = probe_count, with weights
    # w_j = 2^-(j+1).  Ball n is the unit disc along d_n = e_0 / 2 + e_n and
    # the limit the disc along e_0 / 2, so their supports differ only at
    # e_n, by 1: the weighted gap is w_n = 2^-(n+1) while e_n is a probe
    # (n < P), and 0 after.  V_n = span(d_n) has sup-norm unit ball
    # {z d_n : |z| <= 1}, with support 1/2 at e_0 and 1 at e_n; the limit
    # span of e_0 has support 1 at e_0.  So the fixed probes see a gap of 1
    # at e_n while n < P and 1/2 at e_0 after, and adding e_n to them always
    # sees 1.  Every ball passes the rescaling test.  The limit disc has
    # rho = r ||e_0 / 2|| = 1/2, so its defect max(0, min(1, rho / s) - rho)
    # is 1/2 at s = 1/2 (1/6 at 3/4), reached at (lam* / s) e_0 / 2 = e_0.
    # All of these are dyadic, so they are compared exactly.
    params = parse_config_file(SAMPLE_CONFIGS / "counterexample.cfg")
    SCENARIOS["counterexample"](params, 0, tmp_path)
    terms, probe_count = int(params["terms"]), int(params["probe_count"])
    trunc = int(params["trunc_dim"]) or terms + 2
    header, rows = _csv_rows(tmp_path / "counterexample.csv")
    assert header == ["n", "ball_ok", "weighted_gap", "fixed_probe_gap", "escaping_probe_gap"]
    got = [(int(n), ok, float(weighted), float(fixed), float(escaping))
           for n, ok, weighted, fixed, escaping in rows]
    assert got == [(n, "true", 0.5 ** (n + 1) if n < probe_count else 0.0,
                    1.0 if n < probe_count else 0.5, 1.0) for n in range(1, terms + 1)]
    witness = json.loads((tmp_path / "witness.json").read_text(encoding="utf-8"))
    e_0 = [[1.0, 0.0]] + [[0.0, 0.0]] * (trunc - 1)  # (real, imaginary) pairs
    assert witness == {"ok": False, "defect": 0.5, "scale": 0.5, "rescaled_point": e_0}


def test_finiteness_modulus_is_eps_times_its_block_size_constant(tmp_path):
    # delta = eps * c(b), c(b) the least ratio rho(z) / rho(z*) over the
    # witnesses z of the block algebra, rho(x) = sum_k w_k |x e_k| over the
    # probes e_0 .. e_{P-1} with weights w_k = 2^-(k+1).  At b = 1 every
    # witness is self-adjoint (diagonal units, 1 - pi_S and their
    # differences), so c(1) = 1.  At b >= 2 the least ratio belongs to the
    # pair z = u_(0,b-1) - u_(1,b-1) of block n = 0: z has one nonzero
    # column, b - 1, equal to e_0 - e_1, so rho(z) = sqrt(2) w_{b-1}; z* has
    # columns 0 and 1, each a unit vector, so rho(z*) = w_0 + w_1; and
    # c(b) = sqrt(2) w_{b-1} / (w_0 + w_1), sqrt(2)/3 and sqrt(2)/12 at b = 2
    # and 4.  The pair's ratio reproduces adjoint_modulus bit for bit.
    params = parse_config_file(SAMPLE_CONFIGS / "finiteness.cfg")
    SCENARIOS["finiteness"](params, 0, tmp_path)
    m = int(params["m"])
    sizes = [int(size) for size in params["block_sizes"].split(",")]
    eps_list = [float(eps) for eps in params["eps_list"].split(",")]
    spec = default_strong_spec(m * m, int(params["probe_count"]))
    w = spec.weights
    constant = {}
    for size in sizes:
        algebra, _ = build_fS(block_subsets(m, size))
        if size == 1:
            units = algebra.units
            assert np.array_equal(units, units.conj().swapaxes(-1, -2))
            constant[size] = 1.0
        else:
            z = np.zeros((m * m, m * m), dtype=np.complex128)
            z[0, size - 1], z[1, size - 1] = 1.0, -1.0
            rho, rho_star = eval_norm(z, spec), eval_norm(z.conj().T, spec)
            assert (rho, rho_star) == (np.sqrt(2.0) * w[size - 1], w[0] + w[1])
            constant[size] = rho / rho_star
        assert adjoint_modulus(algebra, eps_list, spec) == [
            (eps, eps * constant[size]) for eps in eps_list]
    assert constant == {1: 1.0, 2: np.sqrt(2.0) / 3.0, 4: np.sqrt(2.0) / 12.0}
    header, rows = _csv_rows(tmp_path / "finiteness.csv")
    assert header == ["eps", "delta", "block_size"]
    assert [(float(eps), int(size)) for eps, _, size in rows] == [
        (eps, size) for size in sizes for eps in eps_list]
    deviation = max(abs(float(delta) - float(eps) * constant[int(size)])
                    for eps, delta, size in rows)
    print(f"finiteness.csv: worst deviation {deviation:.2e} of delta from eps * c")
    # the file keeps 12 significant digits of delta < 1, which read 4.1e-13
    # apart from eps * c at worst
    assert deviation <= 1e-12


def test_finiteness_witness_norms_are_probe_weight_sums(tmp_path):
    # The units of the block algebra are the 0/1 matrix units
    # u_(n,k,l) = e_(nm+k, nm+l), for n < m and k, l in S_n in order, then
    # 1 - pi_S when the blocks miss a diagonal entry.  x e_j is column j of
    # x, so rho_strong(x) = sum_k w_k |x e_k| sums the weights w_k = 2^-(k+1)
    # of the probe indices k < P where x has a nonzero column (each such
    # column a unit vector): w_(nm+l) for u_(n,k,l), and the weights of the
    # diagonal entries outside the blocks for 1 - pi_S.  Each is a sum of a
    # few dyadic weights, so it is compared exactly.
    params = parse_config_file(SAMPLE_CONFIGS / "finiteness.cfg")
    SCENARIOS["finiteness"](params, 0, tmp_path)
    m, count = int(params["m"]), int(params["witness_count"])
    w = dyadic_weights(int(params["probe_count"]))

    def weight(column):
        return float(w[column]) if column < len(w) else 0.0

    expected = []
    for size in (int(size) for size in params["block_sizes"].split(",")):
        S = block_subsets(m, size).subsets
        rho = [weight(n * m + l) for n in range(m) for k in sorted(S[n]) for l in sorted(S[n])]
        diagonal = {n * m + k for n in range(m) for k in S[n]}
        if len(diagonal) < m * m:
            rho.append(sum(weight(j) for j in range(m * m) if j not in diagonal))
        expected.extend((size, index, r) for index, r in enumerate(rho[:count]))
    header, rows = _csv_rows(tmp_path / "witnesses.csv")
    assert header == ["block_size", "unit_index", "rho_strong"]
    assert [(int(size), int(index), float(r)) for size, index, r in rows] == expected
    assert expected[4] == (1, 4, 0.48046875)  # w_1 + w_2 + w_3 + w_4 + w_6 + w_7


# ---------------------------------------------------------------------------
# selection and marechal: the dense family and the selection iteration


@pytest.fixture(scope="module")
def selection_run(tmp_path_factory):
    """The selection scenario's sample config and the directory it wrote."""
    out = tmp_path_factory.mktemp("selection")
    params = parse_config_file(SAMPLE_CONFIGS / "selection.cfg")
    SCENARIOS["selection"](params, 0, out)
    return params, out


def test_selection_decay_keeps_its_logged_invariants(selection_run):
    # No closed form is known for max_defect past k = 4 (round 5 reads
    # 0.0009375 and round 9 1.77e-12, off any 2^-k pattern), so each round
    # is gated by the invariants the iteration logs: defect < 2^-(k+1)
    # after round k, and step <= 2^-k = step_bound between rounds k - 1
    # and k.  Rounds run while 2^-k >= tol.
    params, out = selection_run
    tol = float(params["tol"])
    header, rows = _csv_rows(out / "decay.csv")
    assert header == ["k", "max_defect", "max_step", "step_bound"]
    assert [int(row[0]) for row in rows] == list(range(math.floor(math.log2(1.0 / tol)) + 1))
    assert rows[0][2:] == ["", ""]
    slack = min(0.5 ** (int(k) + 1) - float(defect) for k, defect, *_ in rows)
    for k, defect, step, bound in rows[1:]:
        assert float(bound) == 0.5 ** int(k)
        assert float(step) <= float(bound)
    print(f"decay.csv: least slack {slack:.3g} of a round's defect under 2^-(k+1)")
    assert slack > 0


def test_selection_defects_are_the_last_logged_round(selection_run):
    # selection.csv holds d(f(x), F(x)) for the last round's f, and the
    # last decay.csv row logs the largest of them; both files keep 12
    # significant digits of the same float, so they agree exactly
    # (1.76980652355e-12 at seed 0).  The invariant after the last round K
    # puts every row below 2^-(K+1).
    params, out = selection_run
    F = BUNDLED_MAPS[params["map"]](int(params["n1d"]), int(params["n2d"]))
    _, decay = _csv_rows(out / "decay.csv")
    header, rows = _csv_rows(out / "selection.csv")
    assert header == ["x0", "f0", "defect"] and len(rows) == len(F)
    worst = max(float(row[2]) for row in rows)
    k, logged = int(decay[-1][0]), float(decay[-1][1])
    print(f"selection.csv: largest defect {worst:.12g}, {abs(worst - logged):.3g} from the"
          f" logged {logged:.12g}; bound 2^-{k + 1}")
    assert worst == logged
    assert worst < 0.5 ** (k + 1)


def test_approx_defects_are_below_eps(selection_run):
    # approx_selection's partition of unity is subordinate to the cover
    # U_v = {x : d(v, F(x)) < eps}, so f(x) is a convex combination of net
    # points within eps of the convex F(x), and d(f(x), F(x)) < eps.  The
    # worst written defect reads 1.9e-15 at seed 0, so it is also gated at
    # 1e-14: a bound set from that measurement, not from a theorem
    params, out = selection_run
    F = BUNDLED_MAPS[params["map"]](int(params["n1d"]), int(params["n2d"]))
    eps = float(params["eps"])
    header, rows = _csv_rows(out / "approx.csv")
    assert header == ["x0", "f0", "defect"] and len(rows) == len(F)
    worst = max(float(row[2]) for row in rows)
    print(f"approx.csv: largest defect {worst:.3g} against eps {eps} and the measured 1e-14")
    assert worst < eps
    assert worst <= 1e-14


def test_selection_continuity_is_the_sliding_intervals_excess(selection_run):
    # On sliding-left-end, F(x) = [x, 1], so e(F(x), F(x')) = max(0, x' - x):
    # over an adjacent pair the excess is the grid step h to the right and
    # 0 to the left, and the least passing slope e / d is 1.  The worst
    # defect e - (L d + 1e-9), at L = slope_hint = 2, is then h - 2h - 1e-9
    # = -(h + 1e-9), at a pair x' = x + 1, witnessed by F(x)'s left end x.
    # The jump map's values jump by 1 over one step, so it is rejected.
    params, out = selection_run
    assert params["map"] == "sliding-left-end"
    F = BUNDLED_MAPS[params["map"]](int(params["n1d"]), int(params["n2d"]))
    report = json.loads((out / "continuity.json").read_text(encoding="utf-8"))
    check, worst = report["continuity"], report["continuity"]["worst"]
    assert report["jump_rejected"] is True and check["ok"] is True
    assert check["slope"] == F.slope_hint == 2.0
    # 12 significant digits of a ratio within a few ulps of 1
    assert check["least_slope"] == 1.0
    points = F.domain.points[:, 0]
    x = worst["x"]
    assert worst["x_prime"] == x + 1
    h = points[x + 1] - points[x]
    assert h == pytest.approx(1.0 / (len(F) - 1), abs=1e-15)
    deviation = abs(worst["defect"] + (h + 1e-9))
    print(f"continuity.json: worst defect {worst['defect']} at x = {x}, {deviation:.2e}"
          f" from -(h + 1e-9)")
    # the file keeps 12 significant digits of the defect, about 1e-2
    assert deviation <= 1e-14
    assert worst["witness"] == [float("%.12g" % points[x])]


def test_selection_family_audit_gaps_are_within_their_bounds(selection_run):
    # The audit slices the family at m <= m_max // 2 and at m_max.  Every
    # generator of the sample map lies within 1/4 of a net point, so each
    # slice's gap is under its bound 1/m + 2 family_tol, and members counts
    # the family.csv rows in the slice.
    params, out = selection_run
    m_max, family_tol = int(params["m_max"]), float(params["family_tol"])
    _, family = _csv_rows(out / "family.csv")
    header, rows = _csv_rows(out / "family_audit.csv")
    assert header == ["m_max", "members", "audit_gap", "bound"]
    assert [int(row[0]) for row in rows] == sorted({max(1, m_max // 2), m_max})
    for m_used, members, gap, bound in rows:
        assert int(members) == sum(int(row[2]) <= int(m_used) for row in family)
        assert float(bound) == pytest.approx(1.0 / int(m_used) + 2.0 * family_tol, abs=1e-12)
        print(f"family_audit.csv: gap {gap} against bound {bound} at m_max {m_used}")
        assert float(gap) <= float(bound)


def test_selection_restricted_counts_are_the_pinned_rows(selection_run):
    # member (n, m) is pinned exactly where d(v_n, F(x)) < 1/m.  The sample
    # map is 1-D, so each value is the interval between its least and
    # largest generator, and d(v, [lo, hi]) = max(lo - v, v - hi, 0)
    params, out = selection_run
    F = BUNDLED_MAPS[params["map"]](int(params["n1d"]), int(params["n2d"]))
    assert F.target.dim == 1
    net = [float(v) for v in params["net"].split(",")]
    ends = np.array([[gens.min(), gens.max()] for gens in F.generators().values()])
    header, rows = _csv_rows(out / "family.csv")
    assert header == ["member", "net_index", "m", "restricted_count"]
    members = [(n, m) for n in range(len(net)) for m in range(1, int(params["m_max"]) + 1)]
    assert [(int(i), int(n), int(m)) for i, n, m, _ in rows] == [
        (i, n, m) for i, (n, m) in enumerate(members)]
    for _, n, m, count in rows:
        v = net[int(n)]
        dist = np.maximum(np.maximum(ends[:, 0] - v, v - ends[:, 1]), 0.0)
        assert int(count) == int((dist < 1.0 / int(m)).sum())


def test_marechal_summary_is_read_from_its_audit_and_family(tmp_path):
    # summary.json's worst figures are the column maxima of hw_audit.csv,
    # family_members the number of distinct members in hw_family.csv, and
    # audit_bound_l2 is 1/hw_m_max + 2 hw_tol, which the worst l2 gap keeps
    # under.  Both files keep 12 significant digits of the same floats, so
    # the maxima agree exactly.
    params = parse_config_file(SAMPLE_CONFIGS / "marechal.cfg")
    SCENARIOS["marechal"](params, 0, tmp_path)
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    header, audit = _csv_rows(tmp_path / "hw_audit.csv")
    assert header == ["theta", "generator", "audit_l2", "audit_strong_star"]
    assert summary["worst_audit_l2"] == max(float(row[2]) for row in audit)
    assert summary["worst_audit_strong_star"] == max(float(row[3]) for row in audit)
    _, family = _csv_rows(tmp_path / "hw_family.csv")
    assert summary["family_members"] == len({row[0] for row in family})
    assert len(family) == summary["family_members"] * int(params["hw_points"])
    bound = 1.0 / int(params["hw_m_max"]) + 2.0 * float(params["hw_tol"])
    assert summary["audit_bound_l2"] == pytest.approx(bound, abs=1e-12)
    print(f"marechal/summary.json: worst l2 gap {summary['worst_audit_l2']} against"
          f" {summary['audit_bound_l2']}")
    assert summary["worst_audit_l2"] <= summary["audit_bound_l2"]


def test_marechal_audit_is_each_corners_distance_to_the_nearest_member(tmp_path):
    # hw_audit.csv holds one row per grid point theta and corner of
    # F(theta), in the order I, -I, D_theta, -D_theta (isometric
    # coordinates, as below), and audit_l2 is the least L2 distance from
    # that corner to the members' values at theta, read from hw_family.csv.
    # Both files keep 12 significant digits, which read 2.0e-12 apart from
    # the recomputed distance at worst.
    params = parse_config_file(SAMPLE_CONFIGS / "marechal.cfg")
    SCENARIOS["marechal"](params, 0, tmp_path)
    points = int(params["hw_points"])
    grid = np.linspace(0.0, float(params["hw_theta_max"]), points)
    _, family = _csv_rows(tmp_path / "hw_family.csv")
    values = np.array([[float(v) for v in row[4:]] for row in family]).reshape(-1, points, 3)
    _, audit = _csv_rows(tmp_path / "hw_audit.csv")
    assert [int(row[1]) for row in audit] == list(range(4)) * points
    theta = np.array([float(row[0]) for row in audit])
    assert np.abs(theta - np.repeat(grid, 4)).max() <= 1e-12
    eye = np.array([1.0, 1.0, 0.0])
    deviation = []
    for (j, g), row in zip(np.ndindex(points, 4), audit):
        t = grid[j]
        d = np.array([math.cos(2 * t), -math.cos(2 * t), math.sqrt(2.0) * math.sin(2 * t)])
        corner = [eye, -eye, d, -d][g]
        deviation.append(abs(float(row[2]) - np.linalg.norm(values[:, j] - corner, axis=1).min()))
    print(f"marechal/hw_audit.csv: worst deviation {max(deviation):.2e} from the least"
          f" distance to a member")
    assert max(deviation) <= 1e-11


def test_marechal_family_values_are_selections_of_the_rotated_squares(tmp_path):
    # hw_family.csv holds one row per member and grid point theta.  The
    # members are the pairs (n, m), m <= hw_m_max, over the net: the zero
    # matrix and the values' distinct corners +-I and +-D_theta, 2 + 2
    # hw_points of them.  Each member is a selection of F run to tolerance
    # hw_tol, so each value lies in the target, the operator-norm unit
    # ball, and within hw_tol of its square F(theta) = conv{+-I, +-D_theta},
    # D_theta = u diag(1, -1) u* for the rotation u by theta: in isometric
    # coordinates I = (1, 1, 0) and D_theta = (cos 2t, -cos 2t, sqrt2 sin 2t).
    # The distance to the square is bounded by that of the convex
    # combination nnls finds, a weighted row holding its weights to sum 1.
    params = parse_config_file(SAMPLE_CONFIGS / "marechal.cfg")
    SCENARIOS["marechal"](params, 0, tmp_path)
    points, tol = int(params["hw_points"]), float(params["hw_tol"])
    grid = np.linspace(0.0, float(params["hw_theta_max"]), points)
    members = [(n, m) for n in range(3 + 2 * points)
               for m in range(1, int(params["hw_m_max"]) + 1)]
    header, rows = _csv_rows(tmp_path / "hw_family.csv")
    assert header == ["member", "net_index", "m", "theta", "v0", "v1", "v2"]
    assert [tuple(map(int, row[:3])) for row in rows] == [
        (i, n, m) for i, (n, m) in enumerate(members) for _ in grid]
    table = np.array([[float(v) for v in row[3:]] for row in rows])
    theta, values = table[:, 0], table[:, 1:]
    # the file keeps 12 significant digits of each grid point
    assert np.abs(theta - np.tile(grid, len(members))).max() <= 1e-12
    off = values[:, 2] / math.sqrt(2.0)
    sym = np.stack([np.stack([values[:, 0], off], axis=-1),
                    np.stack([off, values[:, 1]], axis=-1)], axis=-2)
    norm = np.abs(np.linalg.eigvalsh(sym)).max(axis=1)
    dist = np.empty(len(values))
    for j, (t, v) in enumerate(zip(theta, values)):
        eye = np.array([1.0, 1.0, 0.0])
        d = np.array([math.cos(2 * t), -math.cos(2 * t), math.sqrt(2.0) * math.sin(2 * t)])
        corners = np.array([eye, -eye, d, -d]).T
        lam, _ = nnls(np.vstack([corners, np.full(4, 1e3)]), np.append(v, 1e3))
        dist[j] = np.linalg.norm(corners @ (lam / lam.sum()) - v)
    print(f"marechal/hw_family.csv: largest operator norm {norm.max():.6g}, largest"
          f" distance to the square {dist.max():.3g} against hw_tol {tol}")
    assert norm.max() <= 1.0 + 1e-9
    assert dist.max() <= tol
