"""Written figures against their closed forms, on any numpy build.

A digest says only that some byte of a file changed; these checks say
which figure moved and by how much.  Each runs a scenario on its sample
config, reads back what it wrote and compares with a closed form derived
from the scenario's own inputs, within a bound set from the measured error
of the written digits.
"""
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
