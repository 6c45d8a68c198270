"""Theorems the code relies on, stated as property tests on small random
cases.  Hypothesis draws the same examples on every run (see conftest.py).

Michael's selection theorem (E. Michael, "Continuous selections I", Ann.
of Math. 63, 1956), in the discrete form michael_selection logs: after
round k every point's defect d(f_k(x), F(x)) is below 2^-(k+1), and
consecutive rounds move no point by more than 2^-k.  The Haagerup-Winslow
dense family pins one map F to a ball B(v_n, 1/m) on some rows per member,
so it runs as F with one set of balls per member, in one lockstep; each
set's run must be that of F restricted to the set on its own.

An anchored round settles a (net point v, row x) pair as a hit without
projecting it when s = |v - p| < eps and s + d < r, p the projection of
the anchor f_k(x) onto F(x) and d its distance: d(v, F(x)) <= s, since p
lies in F(x), and the projection P onto F(x) is 1-Lipschitz and fixes p,
so |Pv - f_k(x)| <= s + d.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperselect import selection
from hyperselect.selection import (HullTarget, SetValuedMap, _Lockstep, _michael_lockstep,
                                   grid_domain_1d, michael_selection)

_LATTICE = 16  # interval ends on the 1/16 lattice, so values repeat, touch and shrink to points


@st.composite
def _interval_map_with_ball_sets(draw):
    """A map of n <= 6 intervals [lo, hi] in [0, 1] on the 1-D grid and 1 to
    3 sets of balls: each set pins some rows to a ball B(c, r) that meets
    the row's interval, its radius at least 1e-3 past the distance from c,
    and leaves the other rows with radius inf."""
    n = draw(st.integers(2, 6))
    ends = np.array(draw(st.lists(st.tuples(st.integers(0, _LATTICE), st.integers(0, _LATTICE)),
                                  min_size=n, max_size=n))) / _LATTICE
    lo, hi = ends.min(axis=1), ends.max(axis=1)
    F = SetValuedMap(grid_domain_1d(n), [np.array([[a], [b]]) for a, b in zip(lo, hi)],
                     HullTarget(np.array([[0.0], [1.0]])))
    count = draw(st.integers(1, 3))
    unit = st.floats(0.0, 1.0, allow_subnormal=False)
    center = np.array(draw(st.lists(unit, min_size=count * n, max_size=count * n)))
    center = center.reshape(count, n)
    slack = np.array(draw(st.lists(st.floats(1e-3, 0.5), min_size=count * n,
                                   max_size=count * n))).reshape(count, n)
    pinned = np.array(draw(st.lists(st.booleans(), min_size=count * n,
                                    max_size=count * n))).reshape(count, n)
    reach = np.abs(center - np.clip(center, lo, hi))  # d(c, [lo, hi])
    return F, center[..., None], np.where(pinned, reach + slack, np.inf)


@settings(max_examples=60)
@given(case=_interval_map_with_ball_sets())
def test_each_ball_set_keeps_michaels_invariants_and_its_own_run(case):
    F, center, radius = case
    names = [f"set {i}" for i in range(len(radius))]
    tol = 1.0 / 32
    results = _michael_lockstep(F, tol, F.ball_sets(center, radius, names), names)
    assert len(results) == len(names)
    for c, r, name, got in zip(center, radius, names, results):
        assert [entry["k"] for entry in got.rounds] == list(range(6))
        for entry in got.rounds:
            k = entry["k"]
            assert entry["max_defect"] < 0.5 ** (k + 1)
            assert (entry["max_step"] is None) == (k == 0)
            assert k == 0 or entry["max_step"] <= 0.5 ** k
        want = michael_selection(F.restrict(c, r, name), tol)
        assert got.values.tobytes() == want.values.tobytes()
        assert got.defects.tobytes() == want.defects.tobytes()
        assert got.rounds == want.rounds


@settings(max_examples=60)
@given(case=_interval_map_with_ball_sets())
def test_every_pair_the_inside_bound_settles_is_a_hit(case):
    F, center, radius = case
    names = [f"set {i}" for i in range(len(radius))]
    anchored = []
    cover = _Lockstep.cover

    def recording(self, net, eps, anchors=None, r=None, nearest=None):
        if anchors is not None:
            anchored.append((self, net, eps, anchors, r, nearest))
        return cover(self, net, eps, anchors, r, nearest)

    _Lockstep.cover = recording
    try:
        _michael_lockstep(F, 1.0 / 32, F.ball_sets(center, radius, names), names)
    finally:
        _Lockstep.cover = cover
    assert len(anchored) == 5
    margin = selection._FILTER_MARGIN
    for run, (points, owner), eps, anchors, r, (near, defect) in anchored:
        # every net point against every row under its own set, unfiltered
        want = np.zeros((run.count, np.bincount(owner).max(), len(F)), dtype=bool)
        settled = np.zeros_like(want)
        for i in range(run.count):
            net = points[owner == i]
            for g in run.groups:
                proj, dist = g.stack.project_runs(net[:, None, :], g.balls,
                                                  np.full(len(net), i))
                want[i, :len(net)][:, g.rows] = (
                    (dist < eps) & (np.linalg.norm(proj - anchors[i, g.rows], axis=2) < r))
                s = np.linalg.norm(net[:, None, :] - near[i, g.rows], axis=2)
                settled[i, :len(net)][:, g.rows] = (
                    (s < eps - margin) & (s + defect[i, g.rows] < r - margin))
        assert not (settled & ~want).any()
        assert np.array_equal(cover(run, (points, owner), eps, anchors, r, (near, defect)), want)
