"""Partitions of unity, approximate and iterated selections, dense
families, and the lower-continuity checker."""
import dataclasses
import itertools

import numpy as np
import pytest
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from hyperselect.hulls import (
    GENERATOR_CAP,
    KERNEL_ENTRIES,
    BallSections,
    HullProjector,
    HullStack,
    TooManyGenerators,
    capped_runs,
    dedupe_points,
    lattice_round,
)
from hyperselect.selection import (
    BUNDLED_MAPS,
    BallRestrictedValue,
    DiscreteDomain,
    FamilyMember,
    HullTarget,
    IterationStall,
    MichaelResult,
    NetTooCoarse,
    NotACover,
    OpenCover,
    SetValuedMap,
    approx_selection,
    build_partition_of_unity,
    check_lower_continuity,
    dense_selection_family,
    density_audit,
    grid_domain_1d,
    grid_domain_2d,
    jump_map,
    michael_selection,
    restrict_value,
    _MAX_ELEMENTS,
    _Lockstep,
    _lex_sort,
    _michael_lockstep,
    _project_all,
)
from hyperselect.norms import UnsupportedNorm
from hyperselect.scenarios import rotated_ball_map


def _interval_map(domain, lo_fn, hi_fn, name=""):
    values = [np.array([[lo_fn(x)], [hi_fn(x)]]) for x in domain.points[:, 0]]
    target = HullTarget(np.array([[0.0], [1.0]]))
    return SetValuedMap(domain, values, target, name=name, slope_hint=1.0)


def _nearest(F, points):
    """Projection of points[i] onto F(x_i) and its distance, per domain point."""
    proj, dist = _Lockstep(F).nearest(points[None])
    return proj[0], dist[0]


# ---------------------------------------------------------------------------
# partitions of unity


def test_single_element_cover_gives_constant_one():
    dom = grid_domain_1d(51)
    cover = OpenCover(dom, np.ones((1, len(dom)), dtype=bool))
    pou = build_partition_of_unity(dom, cover)
    assert np.allclose(pou.values, 1.0)
    assert pou.max_active == 1


def test_two_interval_cover_hand_values():
    # [0, 0.6) and (0.4, 1] on the millimeter grid: at 0.5 both bumps are
    # active with g = (0.05, 0.025), so the halving step kills the second
    dom = grid_domain_1d(1001)
    xs = dom.points[:, 0]
    cover = OpenCover(dom, np.stack([xs < 0.6, xs > 0.4]))
    pou = build_partition_of_unity(dom, cover)
    i_half = int(np.argmin(np.abs(xs - 0.5)))
    assert pou.values[0, i_half] == pytest.approx(1.0, abs=1e-12)
    assert pou.values[1, i_half] == 0.0
    i_one = int(np.argmin(np.abs(xs - 1.0)))
    assert pou.values[1, i_one] == pytest.approx(1.0, abs=1e-12)


def test_partition_axioms_on_random_ball_covers():
    rng = np.random.default_rng(0)
    dom = grid_domain_2d(9, 9)
    for _ in range(5):
        centers = rng.random((6, 2))
        radii = 0.45 + 0.4 * rng.random(6)
        cover = OpenCover.from_balls(dom, centers, radii)
        if not cover.bitmaps.any(axis=0).all():
            continue
        pou = build_partition_of_unity(dom, cover)
        assert pou.values.min() >= 0.0 and pou.values.max() <= 1.0
        assert np.abs(pou.values.sum(axis=0) - 1.0).max() <= 1e-12
        for i in range(len(cover)):
            assert np.all(cover.bitmaps[i][pou.support(i)])
        assert pou.max_active >= 1


def test_uncovered_point_raises():
    dom = grid_domain_1d(11)
    bitmap = (dom.points[:, 0] < 0.5)[None, :]
    with pytest.raises(NotACover):
        build_partition_of_unity(dom, OpenCover(dom, bitmap))


def _loop_partition(domain, bitmaps):
    """Reference: the partition of unity with each element's distance to its
    complement taken in a loop of minima, as it was before the neighbour
    order."""
    dist_comp = np.empty((len(bitmaps), len(domain)))
    for i, inside in enumerate(bitmaps):
        if inside.all():
            dist_comp[i] = np.inf
            continue
        dist_comp[i] = domain.pair_d[:, ~inside].min(axis=1)
        dist_comp[i][~inside] = 0.0
    weights = 0.5 ** np.arange(1, len(bitmaps) + 1)
    g_n = weights[:, None] * np.minimum(1.0, dist_comp)
    g = g_n.max(axis=0)
    uncovered = np.nonzero(g <= 0.0)[0]
    if uncovered.size:
        raise NotACover(f"domain point index {int(uncovered[0])} lies in no cover element")
    f_n = np.maximum(0.0, g_n - g[None, :] / 2.0)
    rho = f_n / f_n.sum(axis=0)[None, :]
    return rho, int((rho > 0).sum(axis=0).max())


def test_partition_matches_the_element_loop():
    # random covers of 1-D and 2-D grids, some with a full element, give
    # the loop's rho bit for bit; a stack of covers padded with empty
    # elements gives each cover's own rho; an uncovered point raises the
    # loop's NotACover
    rng = np.random.default_rng(3)
    for dom in (grid_domain_1d(37), grid_domain_2d(7, 6), grid_domain_1d(1)):
        covers = []
        for trial in range(12):
            count = int(rng.integers(1, 9))
            bitmaps = rng.random((count, len(dom))) < rng.uniform(0.1, 0.9)
            if trial % 3 == 0:
                bitmaps[rng.integers(count)] = True
            bitmaps[-1] |= ~bitmaps.any(axis=0)
            pou = build_partition_of_unity(dom, OpenCover(dom, bitmaps))
            rho, max_active = _loop_partition(dom, bitmaps)
            assert np.array_equal(pou.values, rho) and pou.max_active == max_active
            covers.append((bitmaps, rho))
        padded = np.zeros((len(covers), 8, len(dom)), dtype=bool)
        for j, (bitmaps, _) in enumerate(covers):
            padded[j, :len(bitmaps)] = bitmaps
        stacked = build_partition_of_unity(dom, OpenCover(dom, padded)).values
        for j, (bitmaps, rho) in enumerate(covers):
            assert np.array_equal(stacked[j, :len(bitmaps)], rho)
            assert not stacked[j, len(bitmaps):].any()
        if len(dom) > 1:
            bitmaps = rng.random((4, len(dom))) < 0.5
            bitmaps[:, 5] = False
            with pytest.raises(NotACover) as got:
                build_partition_of_unity(dom, OpenCover(dom, bitmaps))
            with pytest.raises(NotACover) as want:
                _loop_partition(dom, bitmaps)
            assert str(got.value) == str(want.value)


# ---------------------------------------------------------------------------
# approximate selections


def test_exact_when_only_one_net_point_qualifies():
    dom = grid_domain_1d(41)
    F = _interval_map(dom, lambda x: 0.5, lambda x: 0.5)
    res = approx_selection(F, eps=0.4, net=np.array([[0.0], [0.5], [1.0]]))
    assert np.allclose(res.values, 0.5)


def test_selection_stays_eps_close():
    dom = grid_domain_1d(101)
    F = _interval_map(dom, lambda x: x, lambda x: 1.0)
    net = np.linspace(0.0, 1.0, 9)[:, None]
    res = approx_selection(F, eps=0.5, net=net)
    assert res.defects.max() < 0.5
    xs = dom.points[:, 0]
    vals = res.values[:, 0]
    # strictness holds up to projection rounding at the exact boundary
    assert np.all(vals > xs - 0.5 - 1e-9) and np.all(vals < 1.5)


def test_selection_is_convex_combination_of_net_points():
    dom = grid_domain_1d(51)
    F = _interval_map(dom, lambda x: x, lambda x: 1.0)
    net = np.linspace(0.0, 1.0, 9)[:, None]
    res = approx_selection(F, eps=0.5, net=net)
    assert res.pou.values.min() >= 0.0
    assert np.abs(res.pou.values.sum(axis=0) - 1.0).max() <= 1e-12
    recombined = res.pou.values.T @ res.net
    assert np.allclose(recombined, res.values, atol=1e-12)


def test_cover_thinning_keeps_a_cover_below_the_element_cap():
    # 1,001 net points give 1,001 nonempty elements, above the cap, so the
    # greedy pass keeps only elements that cover new points
    F = BUNDLED_MAPS["sliding-left-end"]()
    net = np.linspace(0.0, 1.0, 1001)[:, None]
    eps = 0.25
    assert (_project_all(F, net)[1] < eps).any(axis=1).sum() > _MAX_ELEMENTS
    res = approx_selection(F, eps=eps, net=net)
    assert len(res.pou.cover) == len(res.net) <= _MAX_ELEMENTS
    assert res.pou.cover.bitmaps.any(axis=0).all()
    assert res.pou.values.min() >= 0.0
    assert np.abs(res.pou.values.sum(axis=0) - 1.0).max() <= 1e-12
    assert res.defects.max() < eps


def test_too_coarse_net_raises():
    dom = grid_domain_1d(21)
    F = _interval_map(dom, lambda x: 1.0, lambda x: 1.0)
    with pytest.raises(NetTooCoarse):
        approx_selection(F, eps=0.25, net=np.array([[0.0]]))


# ---------------------------------------------------------------------------
# the iteration


def test_singleton_map_converges_to_the_function():
    dom = grid_domain_1d(81)
    F = _interval_map(dom, lambda x: 0.25 + 0.5 * x, lambda x: 0.25 + 0.5 * x)
    tol = 1e-3
    res = michael_selection(F, tol=tol)
    target = 0.25 + 0.5 * dom.points[:, 0]
    assert np.abs(res.values[:, 0] - target).max() <= tol
    assert len(res.rounds) <= int(np.ceil(np.log2(1.0 / tol))) + 3


def test_sliding_interval_bounds_and_decay():
    dom = grid_domain_1d(101)
    F = _interval_map(dom, lambda x: x, lambda x: 1.0)
    tol = 1e-3
    res = michael_selection(F, tol=tol)
    xs = dom.points[:, 0]
    vals = res.values[:, 0]
    assert np.all(vals >= xs - tol) and np.all(vals <= 1.0 + tol)
    assert res.defects.max() <= tol
    for row in res.rounds:
        if row["k"] >= 1 and row["max_step"] is not None:
            assert row["max_step"] <= 0.5 ** row["k"] + 1e-12


def test_vertical_segment_selection_stays_in_square():
    dom = grid_domain_1d(41)
    values = [np.array([[x, 0.0], [x, 1.0]]) for x in dom.points[:, 0]]
    square = HullTarget(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    F = SetValuedMap(dom, values, square, name="segments", slope_hint=1.0)
    res = michael_selection(F, tol=1e-3)
    assert res.values.min() >= -1e-9 and res.values.max() <= 1.0 + 1e-9
    steps = np.linalg.norm(np.diff(res.values, axis=0), axis=1)
    assert steps.max() <= 10.0 * dom.mesh


@pytest.mark.parametrize("name", ["sliding-left-end", "rising-triangle"])
def test_each_round_makes_one_cover_pass_and_one_diagonal_pass(monkeypatch, name):
    # per run and generator-count group: one diagonal pass projecting each
    # value's hull-generator mean onto its value, then per round one cover
    # pass over the net and one diagonal pass projecting f_k(x) onto F(x),
    # whose result also seeds the next round's net.  Round 0's cover pass
    # is all-pairs; each anchored round's is at most one gathered pass over
    # the candidate pairs that no bound settles, and none when the bounds
    # settle them all, as they do for every pair of the rising triangle.
    # A pass makes one kernel call per run under the entry cap, no more
    F = BUNDLED_MAPS[name]()
    passes = {id(g.stack): [] for g in F.groups}
    calls = {id(g.stack): 0 for g in F.groups}
    parent, taken = {}, []  # each gathered stack's parent stack
    project_runs, project_pairs = HullStack.project_runs, HullStack.project_pairs
    take, project = HullStack.take, HullStack.project

    def counted_pass(self, points, balls=None, owner=None):
        if id(self) in passes:
            hulls = len(self.generators)
            kind = "diagonal" if points.shape[1] == hulls else "all-pairs"
            runs = len(capped_runs(len(points), hulls * self.entries))
            passes[id(self)].append((kind if hulls > 1 else "either", hulls, runs))
        return project_runs(self, points, balls, owner)

    def counted_pairs(self, points, hulls, balls=None, owner=None):
        if id(self) in passes:
            assert len(points) > 0
            _, k, dim = self.generators.shape  # a gathered hull's slot entries
            runs = len(capped_runs(len(points), k * 2 ** (k - 1) * dim))
            passes[id(self)].append(("pairs", 0, runs))
        return project_pairs(self, points, hulls, balls, owner)

    def counted_take(self, index):
        stack = take(self, index)
        taken.append(stack)  # alive, so no other stack takes its id
        parent[id(stack)] = id(self)
        return stack

    def counted_call(self, points, balls=None):
        key = parent.get(id(self), id(self))
        if key in calls:
            calls[key] += 1
            assert points.shape[0] * len(self.generators) * self.entries <= KERNEL_ENTRIES
        return project(self, points, balls)

    monkeypatch.setattr(HullStack, "project_runs", counted_pass)
    monkeypatch.setattr(HullStack, "project_pairs", counted_pairs)
    monkeypatch.setattr(HullStack, "take", counted_take)
    monkeypatch.setattr(HullStack, "project", counted_call)
    res = michael_selection(F, tol=1e-3)
    monkeypatch.undo()
    anchored = len(res.rounds) - 1
    assert anchored > 0
    for g in F.groups:
        kinds = [kind for kind, _, _ in passes[id(g.stack)]]
        if len(g.rows) == 1:
            # the diagonal and all-pairs passes look alike here
            assert kinds.count("either") == len(res.rounds) + 2
        else:
            assert kinds.count("diagonal") == len(res.rounds) + 1
            assert kinds.count("all-pairs") == 1
            assert "pairs" not in kinds[:kinds.index("all-pairs")]
        assert kinds.count("pairs") <= anchored
        assert calls[id(g.stack)] == sum(runs for _, _, runs in passes[id(g.stack)])
    pair_passes = sum(kind == "pairs" for stack in passes.values() for kind, _, _ in stack)
    assert (pair_passes > 0) == (name == "sliding-left-end")
    assert (sum(hulls for stack in passes.values() for _, hulls, _ in stack)
            == len(F) * (len(res.rounds) + 2))


def test_bundled_suite_converges_everywhere():
    tol = 1e-3
    for F in [build(41, 7) for build in BUNDLED_MAPS.values()]:
        res = michael_selection(F, tol=tol)
        assert res.defects.max() <= tol, F.name


def test_bundled_maps_pass_continuity_check():
    for F in [build(41, 7) for build in BUNDLED_MAPS.values()]:
        report = check_lower_continuity(F)
        assert report["ok"], F.name
        assert report["least_slope"] <= F.slope_hint, F.name


# ---------------------------------------------------------------------------
# dense families


def test_singleton_map_family_is_constant():
    dom = grid_domain_1d(21)
    F = _interval_map(dom, lambda x: 0.5, lambda x: 0.5)
    members = dense_selection_family(F, np.array([[0.0], [0.5], [1.0]]),
                                     m_max=2, tol=1e-3)
    for mem in members:
        assert np.abs(mem.values - 0.5).max() <= 1e-3


def test_family_reaches_every_net_point_of_constant_interval():
    dom = grid_domain_1d(21)
    F = _interval_map(dom, lambda x: 0.0, lambda x: 1.0)
    net = np.array([[0.0], [0.5], [1.0]])
    tol = 1e-2
    members = dense_selection_family(F, net, m_max=2, tol=tol)
    for v in net[:, 0]:
        for i in range(len(dom)):
            best = min(abs(mem.values[i, 0] - v) for mem in members)
            assert best <= 0.5 + 2 * tol


def test_family_audit_bound_and_monotonicity():
    dom = grid_domain_1d(21)
    F = _interval_map(dom, lambda x: 0.0, lambda x: 1.0)
    net = np.linspace(0.0, 1.0, 5)[:, None]
    tol = 1e-2
    audits = []
    for m_max in (2, 4):
        members = dense_selection_family(F, net, m_max=m_max, tol=tol)
        worst, _ = density_audit(members, F)
        audits.append(worst)
        assert worst <= 1.0 / m_max + 2 * tol
    assert audits[1] <= audits[0] + 1e-12


def test_density_audit_matches_one_member_at_a_time():
    F = BUNDLED_MAPS["rising-triangle"](11, 3)
    rng = np.random.default_rng(7)
    members = [FamilyMember(0, 1, rng.uniform(0.0, 1.0, (len(F), 2)), [], 0)
               for _ in range(6)]
    l2 = lambda a, b: np.linalg.norm(a - b, axis=1)
    l1_rows = lambda a, b: [float(np.abs(p - q).sum()) for p, q in zip(a, b)]
    for metric in (None, l1_rows):
        pair = l2 if metric is None else metric
        expected = [(i, g, w, min(float(pair(mem.values[i][None, :], w[None, :])[0])
                                  for mem in members))
                    for i, gens in F.generators().items() for g, w in enumerate(gens)]
        worst, rows = density_audit(members, F, metric)
        assert [(i, g, best) for i, g, _, best in rows] == [(i, g, b) for i, g, _, b in expected]
        assert worst == max(b for *_, b in expected)
        # a small audit takes one metric call over every (generator, member) pair
        calls = []

        def counted(a, b, pair=pair):
            calls.append(len(a))
            return pair(a, b)

        again, counted_rows = density_audit(members, F, counted)
        assert again == worst and [r[3] for r in counted_rows] == [r[3] for r in rows]
        assert calls == [len(members) * len(expected)]


def test_density_audit_splits_its_metric_calls_past_the_kernel_cap():
    # 800 members of dimension 2 take 1,600 entries a generator, so a run
    # holds at most 10 generators and the audit splits into several calls
    F = BUNDLED_MAPS["rising-triangle"](11, 3)
    rng = np.random.default_rng(9)
    members = [FamilyMember(0, 1, rng.uniform(0.0, 1.0, (len(F), 2)), [], 0)
               for _ in range(800)]
    l2 = lambda a, b: np.linalg.norm(a - b, axis=1)
    calls = []

    def counted(a, b):
        calls.append(a.size)
        return l2(a, b)

    worst, rows = density_audit(members, F, counted)
    audited = [(i, g, w) for i, gens in F.generators().items() for g, w in enumerate(gens)]
    assert len(calls) > 1 and max(calls) <= KERNEL_ENTRIES
    assert sum(calls) == len(members) * len(audited) * 2
    # the rows of one call over every pair
    stacked = np.stack([mem.values for mem in members])
    at = [i for i, _, _ in audited]
    gens = np.stack([w for _, _, w in audited])
    single = l2(stacked[:, at].swapaxes(0, 1).reshape(-1, 2),
                np.repeat(gens, len(members), axis=0)).reshape(len(audited), -1).min(axis=1)
    assert [(i, g, best) for i, g, _, best in rows] == [
        (i, g, float(b)) for (i, g, _), b in zip(audited, single)]
    assert worst == float(single.max())


def test_value_exactly_one_over_m_away_is_not_pinned():
    # a vertex face has lam = 1 exactly, so d(0, [0.5, 1]) = 0.5 and
    # d(0, {1}) = 1 to the last bit, and a value exactly 1/m from v_n stays
    # out of the open set U_nm: on F(x) = [x, 1], U_{0,1} = {x < 1}
    F = _interval_map(grid_domain_1d(3), lambda x: 0.5 + 0.5 * x, lambda x: 1.0)
    assert _project_all(F, np.zeros((1, 1)))[1][0].tolist() == [0.5, 0.75, 1.0]
    F = BUNDLED_MAPS["sliding-left-end"](101, 11)
    members = dense_selection_family(F, np.zeros((1, 1)), 2, tol=1e-2)
    assert [(mem.m, mem.restricted_count) for mem in members] == [(1, 100), (2, 50)]


def test_smaller_family_is_the_slice_of_the_larger():
    dom = grid_domain_1d(21)
    F = _interval_map(dom, lambda x: 0.5 + 0.5 * x, lambda x: 1.0)
    net = np.array([[0.0], [0.5], [1.0]])
    small = dense_selection_family(F, net, 1, tol=1e-2)
    sliced = [mem for mem in dense_selection_family(F, net, 2, tol=1e-2) if mem.m <= 1]
    assert len(small) == len(sliced) == 3
    for a, b in zip(small, sliced):
        assert ((a.net_index, a.m, a.restricted_count)
                == (b.net_index, b.m, b.restricted_count))
        assert np.array_equal(a.values, b.values)


def test_family_selects_once_per_distinct_modified_map(monkeypatch):
    dom = grid_domain_1d(21)
    F = _interval_map(dom, lambda x: 0.6 + 0.4 * x, lambda x: 1.0)
    net = np.array([[0.0], [0.5], [1.0]])  # v = 0 is at least 0.6 from every value
    tol = 1e-2
    calls = []

    def counted(G, tol, sets=None, names=None):
        calls.append((G, sets, names))
        return _michael_lockstep(G, tol, sets, names)

    monkeypatch.setattr("hyperselect.selection._michael_lockstep", counted)
    members = dense_selection_family(F, net, m_max=2, tol=tol)
    monkeypatch.undo()
    ((G, sets, names),) = calls  # the members run in one lockstep, on F itself
    assert G is F

    # member (n, m) is pinned on exactly U_nm = {x : d(v_n, F(x)) < 1/m},
    # and is the selection of F with each pinned row restricted to the ball
    values = [HullProjector(gens) for gens in F.generators().values()]
    pinning = 0
    for mem in members:
        v, radius = net[mem.net_index], 1.0 / mem.m
        pinned = np.array([value.project(v[None, :])[1][0] < radius for value in values])
        assert mem.restricted_count == int(pinned.sum())
        pinning += bool(pinned.any())
        expected = michael_selection(
            F.restrict(np.broadcast_to(v, (len(F), 1)), np.where(pinned, radius, np.inf)),
            tol=tol)
        assert np.array_equal(mem.values, expected.values)
        assert mem.rounds == expected.rounds
    assert [(mem.net_index, mem.m) for mem in members] == [(n, m) for n in range(3)
                                                           for m in (1, 2)]
    # (v = 0, m = 2) pins nothing and takes the one selection of F, whose
    # set clips no row
    assert 0 < pinning < len(members)
    plain = [all(b is None or np.isinf(b.radius[i]).all() for b in sets)
             for i in range(len(names))]
    assert len(names) == pinning + 1 and sum(plain) == 1


def test_family_members_build_no_stack(monkeypatch):
    # every restriction keeps F's stacks, so once F is built its family
    # solves no face again: the members share all of F's stacks
    F = BUNDLED_MAPS["sliding-left-end"](41, 5)
    net = np.linspace(0.0, 1.0, 5)[:, None]
    sets, names = _family_sets(monkeypatch, F, net)  # run on F's own groups
    assert len(names) > 1 and all(b is not None for b in sets)
    built = []
    init = HullStack.__init__

    def counted(self, generators):
        built.append(np.shape(generators))
        init(self, generators)

    monkeypatch.setattr(HullStack, "__init__", counted)
    members = dense_selection_family(F, net, 2, tol=1e-2)
    monkeypatch.undo()
    assert built == [] and len(members) == 10


def test_a_pinned_row_starts_at_its_ball_centre():
    # the start point of a row with a finite ball is its ball's centre, whose
    # projection onto F(x) within the ball is the point of F(x) nearest the
    # pin; every other row starts at its hull-generator mean
    gens = [np.array([[0.5, 0.5]]), UNIT_SQUARE[[0, 1]], UNIT_SQUARE[[0, 3]],
            UNIT_SQUARE[[0, 1, 2]], UNIT_SQUARE[[1, 2, 3]], UNIT_SQUARE]
    F = SetValuedMap(grid_domain_1d(len(gens)), gens, HullTarget(UNIT_SQUARE))
    center = np.array([[0.55, 0.5], [0.1, 0.3], [0.0, 0.0], [0.2, 0.1], [0.0, 0.0], [0.9, 0.3]])
    radius = np.array([0.1, 0.5, np.inf, 0.4, np.inf, 0.2])
    G = F.restrict(center, radius)
    pinned = np.isfinite(radius)
    means = np.array([g.mean(axis=0) for g in gens])
    want = np.where(pinned[:, None], center, means)
    assert not np.array_equal(want[pinned], means[pinned])
    assert np.array_equal(_Lockstep(G).means(), want[None])
    sets = F.ball_sets(np.stack([np.zeros_like(center), center]),
                       np.stack([np.full(len(gens), np.inf), radius]), ["", ""])
    assert np.array_equal(_Lockstep(F, sets, 2).means(), np.stack([means, want]))


def _sequential_family(F, net, m_max, tol):
    """Reference: the family member by member, one michael_selection per
    distinct map and F's once, as it ran before its members ran in
    lockstep.  Returns each member, or the exception its own restriction or
    selection raises, with the member's map named as the family names it."""
    value_dists = _project_all(F, net)[1]
    plain, members = None, []
    for n in range(len(net)):
        for m in range(1, m_max + 1):
            pinned = value_dists[n] < 1.0 / m
            try:
                if pinned.any():
                    sel = michael_selection(F.restrict(
                        np.broadcast_to(net[n], (len(F), net.shape[1])),
                        np.where(pinned, 1.0 / m, np.inf), f"{F.name}|n={n},m={m}"), tol=tol)
                else:
                    plain = plain or michael_selection(F, tol=tol)
                    sel = plain
            except (ValueError, NotACover, NetTooCoarse, IterationStall) as err:
                members.append(err)
                continue
            members.append(FamilyMember(n, m, sel.values, sel.rounds, int(pinned.sum())))
    return members


def _marechal_case():
    """The marechal scenario's map and net."""
    F, _ = rotated_ball_map(7, np.pi / 4)
    gens = np.unique(np.round(np.concatenate(list(F.generators().values())), 12), axis=0)
    return F, np.concatenate([np.zeros((1, 3)), gens])


def test_lockstep_family_matches_the_members_one_at_a_time(monkeypatch):
    shifted = _interval_map(grid_domain_1d(21), lambda x: 0.6 + 0.4 * x, lambda x: 1.0)
    cases = [
        # the marechal scenario's map and net
        (*_marechal_case(), "same-layout"),
        # the members' groups differ in which hold balls: v = 1 - 1e-13 pins
        # the point row x = 1, v = 0 does not; v = 1/4 + 1e-13 pins
        # [3/4, 1] at m = 2 only at the end point 3/4
        (BUNDLED_MAPS["sliding-left-end"](41, 5), np.array([[0.0], [0.25 + 1e-13], [0.5],
                                                              [1.0 - 1e-13]]),
         "layouts-differ"),
        # k = 3 with balls
        (BUNDLED_MAPS["rising-triangle"](41, 6),
         np.concatenate([_UNIT_SQUARE_CORNERS, [[0.5, 0.5]]]), "triangle-balls"),
        # (v = 0, m = 2) pins nothing and takes F's own selection
        (shifted, np.array([[0.0], [0.5], [1.0]]), "unpinned"),
    ]
    for F, net, case in cases:
        sets, names = _family_sets(monkeypatch, F, net)
        # the groups each pinning set clips
        layouts = {layout for layout in (
            tuple(b is not None and bool(np.isfinite(b.radius[i]).any()) for b in sets)
            for i in range(len(names))) if any(layout)}
        if case == "layouts-differ":
            assert len(layouts) > 1
        if case == "triangle-balls":
            assert any(g.stack.generators.shape[1] == 3 and b is not None
                       and np.isfinite(b.radius).any() for g, b in zip(F.groups, sets))
        want = _sequential_family(F, net, 2, 1e-2)
        got = dense_selection_family(F, net, 2, tol=1e-2)
        if case == "unpinned":
            assert any(mem.restricted_count == 0 for mem in got)
        assert len(got) == len(want) == 2 * len(net)
        for a, b in zip(got, want):
            assert ((a.net_index, a.m, a.restricted_count)
                    == (b.net_index, b.m, b.restricted_count)), case
            assert np.array_equal(a.values, b.values), case
            assert a.rounds == b.rounds, case


_UNIT_SQUARE_CORNERS = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


class _DriftingTarget(HullTarget):
    """A target whose projection drifts by a fixed shift, so that nets miss
    the narrow values and their rounds stall."""

    def __init__(self, generators, shift):
        super().__init__(generators)
        self.shift = np.asarray(shift, dtype=np.float64)

    def project(self, points):
        return np.clip(np.asarray(points) + self.shift, 0.0, 1.0)


def _drifting_triangles():
    # one row already holds a ball, so members that pin it fail to restrict
    dom = grid_domain_1d(9)
    values = [np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2 + 0.6 * max(x, 0.05)]])
              for x in dom.points[:, 0]]
    F = SetValuedMap(dom, values, _DriftingTarget(_UNIT_SQUARE_CORNERS, [0.05, 0.0]))
    return F.restrict(np.tile([0.8, 0.2], (9, 1)), np.where(np.arange(9) == 8, 0.05, np.inf),
                      "drifting")


def _stall_round(err):
    return int(str(err).split("k=")[1].split()[0])


@pytest.mark.parametrize("case", ["stall-before-an-earlier-stall", "stall-first",
                                  "restriction-first"])
def test_a_restriction_error_then_the_earliest_stall_decides_the_error(monkeypatch, case):
    # a failing restriction raises before any selection runs; with none,
    # the earliest round in which some member stalls raises the stall of
    # the first member in (n, m) order that stalls in it
    if case == "stall-before-an-earlier-stall":
        # at this drift two members stall first, in round 2, so the tie is
        # broken by (n, m) order
        dom = grid_domain_1d(21)
        F = SetValuedMap(dom, [np.array([[0.2 + 0.3 * x], [0.9]]) for x in dom.points[:, 0]],
                         _DriftingTarget(np.array([[0.0], [1.0]]), [0.1]))
        net = np.array([[0.0], [0.5], [1.0]])
    else:
        F = _drifting_triangles()
        net = np.array([[0.0, 1.0], [1.0, 1.0], [0.5, 0.5], [0.0, 0.0], [1.0, 0.0]])
        if case == "restriction-first":
            net = net[[1, 0]]
    want = _sequential_family(F, net, 2, 0.125)
    errors = [mem for mem in want if isinstance(mem, Exception)]
    refused = [err for err in errors if type(err) is ValueError]
    stalls = [err for err in errors if isinstance(err, IterationStall)]
    assert stalls
    if case == "stall-before-an-earlier-stall":
        # a later member stalls in an earlier round
        rounds = [_stall_round(err) for err in stalls]
        assert not refused and min(rounds[1:]) < rounds[0]
        expected = stalls[rounds.index(min(rounds))]
        assert len({str(err) for err, k in zip(stalls, rounds) if k == min(rounds)}) > 1
    else:
        assert "already restricted" in str(refused[0])
        assert isinstance(errors[0], IterationStall) == (case == "stall-first")
        expected = refused[0]
        if case == "restriction-first":
            # the restriction error names its member as a stall does
            assert str(expected).startswith(f"{F.name}|n=0,m=1: the value at row 8 is")
    calls = []

    def counted(G, tol, sets=None, names=None):
        calls.append(names)
        return _michael_lockstep(G, tol, sets, names)

    monkeypatch.setattr("hyperselect.selection._michael_lockstep", counted)
    with pytest.raises(type(expected)) as got:
        dense_selection_family(F, net, 2, tol=0.125)
    assert type(got.value) is type(expected) and str(got.value) == str(expected)
    # no selection runs once a restriction fails
    assert len(calls) == (0 if refused else 1)


def _all_pairs_cover(run, net, eps, anchors=None, r=None):
    """Reference for _Lockstep.cover: every point of the flat net (points,
    owner) projected onto every row under its own set of balls, set by set,
    with no distance filter."""
    points, owner = net
    inside = np.zeros((run.count, np.bincount(owner).max(), len(run.domain)), dtype=bool)
    for i in range(run.count):
        net = points[owner == i]
        for g in run.groups:
            proj, dist = g.stack.project_runs(net[:, None, :], g.balls, np.full(len(net), i))
            hit = dist < eps
            if anchors is not None:
                hit &= np.linalg.norm(proj - anchors[i, g.rows], axis=2) < r
            inside[i, :len(net)][:, g.rows] = hit
    return inside


def _recorded_covers(monkeypatch, runs):
    """The arguments of every _Lockstep.cover call made by runs()."""
    recorded = []
    cover = _Lockstep.cover

    def recording(self, net, eps, anchors=None, r=None, nearest=None):
        recorded.append((self, net, eps, anchors, r, nearest))
        return cover(self, net, eps, anchors, r, nearest)

    monkeypatch.setattr(_Lockstep, "cover", recording)
    got = runs()
    monkeypatch.undo()
    return got, recorded


@pytest.mark.parametrize("name", ["marechal", "rising-triangle", "rotating-segment",
                                  "sliding-left-end"])
def test_anchored_cover_matches_the_all_pairs_reference(monkeypatch, name):
    # a pair (v, x) is a hit only when |v - f_k(x)| < eps + r, and it is one
    # when s = |v - p| < eps and s + d < r, p the projection of f_k(x) onto
    # F(x) and d its distance; so projecting only the pairs that neither
    # bound settles keeps every cover element, and so every value, uncovered
    # point, kept net and partition of unity
    if name == "marechal":
        F, net = _marechal_case()
    else:
        F = BUNDLED_MAPS[name]()
        net = (np.linspace(0.0, 1.0, 5)[:, None] if F.target.dim == 1
               else np.concatenate([_UNIT_SQUARE_CORNERS, [[0.5, 0.5]]]))
    _, covers = _recorded_covers(monkeypatch, lambda: dense_selection_family(F, net, 2, tol=1e-2))
    projected = []
    project_pairs = HullStack.project_pairs

    def counted(self, points, hulls, balls=None, owner=None):
        projected.append(len(points))
        return project_pairs(self, points, hulls, balls, owner)

    anchored = [call for call in covers if call[4] is not None]
    assert len(anchored) >= 5
    pairs = 0
    for run, net, eps, anchors, r, nearest in anchored:
        # the family's restrictions put balls on the hulls of every size
        assert any(g.balls is not None for g in run.groups)
        monkeypatch.setattr(HullStack, "project_pairs", counted)
        calls = len(projected)
        inside = run.cover(net, eps, anchors, r, nearest)
        monkeypatch.undo()
        # at most one gathered pass per group, each over some pairs
        assert len(projected) - calls <= len(run.groups) and all(projected[calls:])
        want = _all_pairs_cover(run, net, eps, anchors, r)
        assert np.array_equal(inside, want)
        pairs += len(net[0]) * len(run.domain)
        got = run.cover_average(net, eps, anchors, r, nearest)
        ref = run.average(net, want)
        assert np.array_equal(got[0], ref[0]) and np.array_equal(got[1], ref[1])
        # the kept flat nets: their points and their maps
        assert all(np.array_equal(a, b) for a, b in zip(got[3], ref[3]))
        assert len(got[2]) == len(ref[2])
        for a, b in zip(got[2], ref[2]):
            assert np.array_equal(a.cover.bitmaps, b.cover.bitmaps)
            assert np.array_equal(a.values, b.values) and a.max_active == b.max_active
    # over marechal's six anchored rounds the distance filter leaves 1,428
    # of the 5,712 pairs and the inside bound settles every one of them, so
    # no pair is projected; the other maps still project some
    assert sum(projected) <= pairs
    assert (sum(projected) == 0) == (name == "marechal")


def test_the_inside_bound_adds_the_anchors_defect(monkeypatch):
    # round 1's scales, r = 1/4 and eps = 3/32.  Row 0's anchor a = 0.32 lies
    # d = 0.22 from its value [0, 0.1], at p = 0.1.  Net point v = 0.05 is
    # s = 0.05 from p, within eps and within r, but s + d = 0.27 is not
    # within r, and v's projection, v itself, lies 0.27 from a: the pair is
    # projected, and it is no hit.  v = 0.1 has s = 0 and s + d = 0.22 < r,
    # a hit the bound settles; v = 1 and every pair at row 1 (value
    # [0.5, 0.6], anchor 0.55) lie beyond eps + r of the anchor
    F = _interval_map(grid_domain_1d(2), lambda x: 0.5 * x, lambda x: 0.1 + 0.5 * x)
    run = _Lockstep(F)
    anchors = np.array([[[0.32], [0.55]]])
    eps, r = 0.75 * 0.5 ** 3, 0.5 ** 2
    net = (np.array([[0.05], [0.1], [1.0]]), np.zeros(3, dtype=np.intp))
    projected = []
    project_pairs = HullStack.project_pairs

    def counted(self, points, hulls, balls=None, owner=None):
        projected.append(points.tolist())
        return project_pairs(self, points, hulls, balls, owner)

    monkeypatch.setattr(HullStack, "project_pairs", counted)
    inside = run.cover(net, eps, anchors, r, run.nearest(anchors))
    monkeypatch.undo()
    assert projected == [[[0.05]]]
    assert inside.tolist() == [[[False, False], [True, False], [False, False]]]
    assert np.array_equal(inside, _all_pairs_cover(run, net, eps, anchors, r))


@pytest.mark.parametrize("shift, anchored", [(0.08, True), (-0.5, False)])
def test_a_stall_names_its_first_uncovered_point_and_logged_round(monkeypatch, shift,
                                                                  anchored):
    # the drifting target makes the nets miss the values, so the maps stall
    # in an anchored round or in round 0; the error names the first map that
    # leaves a point uncovered in the first round that does, numbered as
    # the rounds log it, and that map's first point that no element covers
    dom = grid_domain_1d(21)
    F = SetValuedMap(dom, [np.array([[0.2 + 0.3 * x], [0.9]]) for x in dom.points[:, 0]],
                     _DriftingTarget(np.array([[0.0], [1.0]]), [shift]))
    sets, names = _family_sets(monkeypatch, F, np.array([[0.0], [0.5], [1.0]]))
    # F's own set, which clips no row, first
    center, radius = _set_balls(F, sets, len(names))
    names = [F.name] + names
    sets = F.ball_sets(np.concatenate([np.zeros_like(center[:1]), center]),
                       np.concatenate([np.full_like(radius[:1], np.inf), radius]), names)

    def stall():
        with pytest.raises(IterationStall) as err:
            _michael_lockstep(F, 0.125, sets, names)
        return err.value

    err, covers = _recorded_covers(monkeypatch, stall)
    k = len(covers) - 1  # one cover pass per round, and none after the stall
    assert (k > 0) == anchored and _stall_round(err) == k
    covered = _all_pairs_cover(*covers[k][:5]).any(axis=1)
    i = int(np.flatnonzero(~covered.all(axis=1))[0])
    index = int(covered[i].argmin())
    assert str(err).startswith(f"round k={k} left domain index {index} uncovered"
                               f" in map {names[i]!r}")


def _per_map_nets(run, projections, cell):
    """Reference for _Lockstep.nets: each map's projections snapped and
    pulled back into C, then deduped and lex-sorted on their own."""
    dim = projections.shape[-1]
    snapped = run.target.project(lattice_round(projections, cell).reshape(-1, dim))
    return [net[_lex_sort(net)] for net in map(dedupe_points,
                                                snapped.reshape(projections.shape))]


def _assert_flat_net_is_per_map(run, projections, cell):
    points, owner = run.nets(projections, cell)
    assert np.all(np.diff(owner) >= 0)
    want = _per_map_nets(run, projections, cell)
    assert len(points) == len(owner) == sum(map(len, want))
    for i, net in enumerate(want):
        assert points[owner == i].tobytes() == net.tobytes()


class _IdentityTarget:
    """A target that leaves every point where it is."""

    def __init__(self, dim):
        self.dim = dim

    def project(self, points):
        return np.asarray(points, dtype=np.float64)

    def contains(self, points):
        return np.ones(len(np.atleast_2d(points)), dtype=bool)


def test_flat_net_is_each_maps_deduped_lex_sorted_net(monkeypatch):
    # one lexsort by (map, coordinates) over the maps' deduped points gives,
    # map by map, the bits of dedupe_points followed by _lex_sort: a deduped
    # net has no ties
    recorded = []
    nets = _Lockstep.nets

    def recording(self, projections, cell):
        recorded.append((self, projections, cell))
        return nets(self, projections, cell)

    monkeypatch.setattr(_Lockstep, "nets", recording)
    F, net = _marechal_case()
    dense_selection_family(F, net, 2, tol=1e-2)
    marechal = len(recorded)
    F = BUNDLED_MAPS["sliding-left-end"]()
    michael_selection(F, tol=1e-3)
    dense_selection_family(F, np.linspace(0.0, 1.0, 5)[:, None], 2, tol=1e-2)
    monkeypatch.undo()
    assert 0 < marechal < len(recorded)
    assert max(run.count for run, _, _ in recorded) > 1
    for run, projections, cell in recorded:
        _assert_flat_net_is_per_map(run, projections, cell)
    # random maps on a coarse lattice, so many points repeat exactly or tie
    # in a coordinate, with planted exact duplicates, a pair 4e-13 apart
    # that the dedupe drops, one map repeating another's points, and a
    # cell of 2^-60 that leaves points in [1/4, 1) as they are
    rng = np.random.default_rng(12)
    run = _Lockstep(F, [None] * len(F.groups), 6)
    run.target = _IdentityTarget(3)
    projections = 0.25 + 0.125 * rng.integers(0, 4, (6, len(F), 3))
    projections[:, 5:60:7] = projections[:, :1]
    projections[:, 3] = projections[:, 2] + [4e-13, 0.0, 0.0]
    projections[4] = projections[1]
    _, near = run.nets(projections, 2.0 ** -60)
    assert np.bincount(near).max() < len(F) - 8
    _assert_flat_net_is_per_map(run, projections, 2.0 ** -60)
    assert not np.array_equal(projections[0, 2], projections[0, 3])


def test_each_round_sorts_its_nets_in_one_lexsort(monkeypatch):
    # a round's nets are one flat array over every map, sorted once
    F, net = _marechal_case()
    counts, inside = [], []
    nets, lexsort = _Lockstep.nets, np.lexsort

    def counted_nets(self, projections, cell):
        counts.append(0)
        inside.append(True)
        try:
            return nets(self, projections, cell)
        finally:
            inside.pop()

    def counted_lexsort(keys, *args, **kwargs):
        if inside:
            counts[-1] += 1
        return lexsort(keys, *args, **kwargs)

    monkeypatch.setattr(_Lockstep, "nets", counted_nets)
    monkeypatch.setattr(np, "lexsort", counted_lexsort)
    members = dense_selection_family(F, net, 2, tol=1e-2)
    monkeypatch.undo()
    assert counts == [1] * len(members[0].rounds)


@pytest.mark.parametrize("points, dim", [(7, 3), (21, 2), (2, 3), (7, 1), (101, 1)])
def test_average_keeps_each_maps_product_bits(points, dim):
    # every map's values are the bits of its own rho.T @ net, for net sizes
    # 1 to the padded width, read through the packed flat net
    rng = np.random.default_rng(points * 10 + dim)
    corners = np.array(list(itertools.product((0.0, 1.0), repeat=dim)))
    F = SetValuedMap(grid_domain_1d(points), [corners] * points, HullTarget(corners))
    width = 24
    run = _Lockstep(F, [None], width)
    sizes = np.arange(1, width + 1)
    owner = np.repeat(np.arange(width), sizes)
    net = (rng.random((len(owner), dim)), owner)
    inside = np.zeros((width, width, points), dtype=bool)
    for i, size in enumerate(sizes):
        element = rng.integers(0, size, points)  # each point in one element or more
        inside[i, element, np.arange(points)] = True
        inside[i, :size] |= rng.random((size, points)) < 0.4
        inside[i, :size, 0] = True  # no element empty
    values, missing, pous, kept = run.average(net, inside)
    assert (missing == -1).all() and np.array_equal(kept[1], owner)
    rho = [r for pou in pous for r in pou.values]  # each map's, padded
    assert len(pous) > 1 or points < 101
    for i, size in enumerate(sizes):
        want = rho[i][:size].T @ net[0][owner == i]
        assert values[i].tobytes() == want.tobytes(), size


def test_kernel_calls_stay_under_the_entry_cap(monkeypatch):
    # a stack of k generators holds, per hull, the 2^k - 1 faces' generators
    # in slots: slot j takes generator j of every face that has one, so the
    # slots hold k 2^(k-1) entries, one per (face, generator)
    shapes, gathered = [], []
    original, take = HullStack.project, HullStack.take

    def recorded(self, points, balls=None):
        hulls, k, dim = self.generators.shape
        # a call's largest temporaries hold, per (query, hull) pair, the
        # slot weights or the faces' points
        assert self.entries == max(k * 2 ** (k - 1), (2 ** k - 1) * dim)
        shapes.append((points.shape[0], hulls, self.entries))
        if balls is not None:
            gathered.append(max(getattr(balls, f.name).size
                                for f in dataclasses.fields(BallSections)))
        return original(self, points, balls)

    def recorded_take(self, index):
        stack = take(self, index)
        hulls, k, dim = stack.generators.shape
        # the gathered faces: a weight row and a generator per slot entry
        assert stack._g.shape == stack._w.shape == (hulls, dim, k * 2 ** (k - 1))
        gathered.append(stack._w.size)
        return stack

    cases = [_marechal_case(),
             (BUNDLED_MAPS["sliding-left-end"](), np.linspace(0.0, 1.0, 5)[:, None]),
             (BUNDLED_MAPS["rising-triangle"](),
              np.concatenate([_UNIT_SQUARE_CORNERS, [[0.5, 0.5]]]))]
    monkeypatch.setattr(HullStack, "project", recorded)
    monkeypatch.setattr(HullStack, "take", recorded_take)
    for F, net in cases:
        dense_selection_family(F, net, 2, tol=1e-2)
        michael_selection(F, tol=1e-2)
    monkeypatch.undo()
    # the all-pairs passes over every member's net are split into calls
    assert max(m * v for m, v, _ in shapes) > 1000
    assert max(m * v * entries for m, v, entries in shapes) <= KERNEL_ENTRIES
    # so are the gathered faces and ball sections of the anchored rounds'
    # pair passes: k 2^(k-1) dim slot entries per gathered hull, at least a
    # pair's slot weights or face points in a kernel temporary or a section
    assert KERNEL_ENTRIES // 2 < max(gathered) <= KERNEL_ENTRIES


# ---------------------------------------------------------------------------
# lower-continuity checker


def _adjacent_pairs(F):
    """Ordered index pairs (x, x') at most the mesh apart."""
    return np.nonzero(F.domain.pair_d <= F.domain.mesh * (1 + 1e-9))


def _probe_defects(F, probes):
    """The probe surrogate of the check: per ordered adjacent pair (x, x'),
    the max over the probes v of d(v, F(x')) - d(v, F(x)) - (L d(x, x') +
    1e-9), with L = F.slope_hint."""
    dist = _project_all(F, np.asarray(probes, dtype=np.float64))[1]
    x, x_prime = _adjacent_pairs(F)
    budget = F.slope_hint * F.domain.pair_d[x, x_prime] + 1e-9
    return (dist[:, x_prime] - dist[:, x]).max(axis=0) - budget


def _probe_grid(dim):
    """201 points of [0, 1], or the 41 x 41 grid of the unit square."""
    if dim == 1:
        return np.linspace(0.0, 1.0, 201)[:, None]
    axis = np.linspace(0.0, 1.0, 41)
    return np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)


def test_constant_map_is_continuous():
    dom = grid_domain_1d(31)
    F = _interval_map(dom, lambda x: 0.2, lambda x: 0.8)
    report = check_lower_continuity(F)
    assert report["ok"]
    assert report["worst"]["defect"] <= 0.0
    assert report["least_slope"] == 0.0


def test_sliding_interval_is_one_lipschitz():
    dom = grid_domain_1d(101)
    F = _interval_map(dom, lambda x: x, lambda x: 1.0)
    report = check_lower_continuity(F)
    assert report["ok"]
    assert report["least_slope"] == pytest.approx(1.0, abs=1e-12)


def test_jump_map_is_rejected():
    F = jump_map(101)
    report = check_lower_continuity(F)
    assert not report["ok"]
    assert report["worst"]["defect"] > 0.9
    assert {report["worst"]["x"], report["worst"]["x_prime"]} == {49, 50}
    assert report["least_slope"] == pytest.approx(100.0)


@pytest.mark.parametrize("name", [*BUNDLED_MAPS, "jump"])
def test_dense_probe_grid_never_exceeds_the_closed_form(name):
    F = jump_map() if name == "jump" else BUNDLED_MAPS[name]()
    report = check_lower_continuity(F)
    worst = report["worst"]
    probes = _probe_grid(F.target.dim)
    defects = _probe_defects(F, probes)
    assert defects.max() <= worst["defect"] + 1e-12
    x, x_prime = _adjacent_pairs(F)
    slopes = (defects + 1e-9) / F.domain.pair_d[x, x_prime] + F.slope_hint
    assert slopes.max() <= report["least_slope"] + 1e-12
    # the witness attains the worst defect, as a probe
    (at,) = np.flatnonzero((x == worst["x"]) & (x_prime == worst["x_prime"]))
    witness = np.array([worst["witness"]])
    assert np.isclose(_probe_defects(F, witness)[at], worst["defect"], rtol=0, atol=1e-12)
    # d(v, F(x')) - d(v, F(x)) is 2-Lipschitz in v and peaks inside the
    # target, so the grid comes within twice its covering radius of the peak
    cover = np.sqrt(F.target.dim) / (len(np.unique(probes[:, 0])) - 1)
    assert defects.max() >= worst["defect"] - cover - 1e-12


def test_closed_form_rejects_a_jump_that_every_target_probe_misses():
    # F(x) loses the apex (0.5, 0.55) of a flat triangle at x = 1/2.  The
    # probes of the old check, the target's corners and centre, see at
    # most 0.0026 of that 0.05 jump, inside the budget 0.1 * 0.1
    base = np.array([[0.0, 0.5], [1.0, 0.5]])
    dom = grid_domain_1d(11)
    values = [np.vstack([base, [[0.5, 0.55]]]) if x < 0.5 else base for x in dom.points[:, 0]]
    F = SetValuedMap(dom, values, HullTarget(UNIT_SQUARE), name="apex", slope_hint=0.1)
    corners_and_centre = np.vstack([UNIT_SQUARE, [[0.5, 0.5]]])
    assert _probe_defects(F, corners_and_centre).max() <= 0
    report = check_lower_continuity(F)
    assert not report["ok"]
    assert (report["worst"]["x"], report["worst"]["x_prime"]) == (4, 5)
    assert report["worst"]["witness"] == [0.5, 0.55]
    assert report["worst"]["defect"] == pytest.approx(0.05 - 0.01 - 1e-9, abs=1e-12)
    assert report["least_slope"] == pytest.approx(0.5)


def test_closed_form_refuses_a_value_with_a_ball():
    with pytest.raises(UnsupportedNorm, match="row 3 is restricted to a ball"):
        check_lower_continuity(_square_map(6, np.ones(2), [np.inf] * 3 + [0.3] * 3))
    # a restricted segment holds its ball too
    F = _interval_map(grid_domain_1d(11), lambda x: 0.0, lambda x: 1.0)
    G = F.restrict(np.full((11, 1), 0.5), np.where(np.arange(11) < 5, 0.25, np.inf))
    with pytest.raises(UnsupportedNorm, match="row 0 is restricted to a ball"):
        check_lower_continuity(G)


# ---------------------------------------------------------------------------
# value restriction


def _segment_clip_reference(a, b, center, radius):
    """Endpoints of [a, b] intersected with B(center, radius) from the roots
    of |a + t (b - a) - center|^2 = radius^2, or None when they miss [0, 1]."""
    u, w = b - a, a - center
    qa, qb, qc = u @ u, 2.0 * (u @ w), w @ w - radius * radius
    disc = qb * qb - 4.0 * qa * qc
    if disc < 0:
        return None
    root = np.sqrt(disc)
    lo, hi = max((-qb - root) / (2.0 * qa), 0.0), min((-qb + root) / (2.0 * qa), 1.0)
    return None if lo > hi else np.stack([a + lo * u, a + hi * u])


def _same_projections(restricted, expected, queries, tol):
    """Largest gap, at most tol, between the projections and distances of
    queries onto restricted and onto the hull of the points expected."""
    got, want = restricted.project(queries), HullProjector(expected).project(queries)
    gap = max(np.abs(got[0] - want[0]).max(), np.abs(got[1] - want[1]).max())
    assert gap <= tol
    return gap


def test_segment_restriction_is_exact():
    # a segment restricted to a ball projects as the segment between its
    # end points clipped to the ball, in closed form: within 1.7e-14 over
    # 2,100 random balls in dims 1-3, gated at 1e-13
    value = HullProjector(np.array([[0.0], [1.0]]))
    clipped = restrict_value(value, np.array([0.0]), 0.25)
    assert isinstance(clipped, BallRestrictedValue) and clipped.hull is value
    _same_projections(clipped, np.array([[0.0], [0.25]]), np.linspace(-1.0, 2.0, 31)[:, None],
                      1e-13)

    rng = np.random.default_rng(5)
    worst = 0.0
    for dim in (1, 2, 3):
        for _ in range(60):
            a, b = rng.uniform(-1.0, 1.0, (2, dim))
            u = b - a
            queries = rng.uniform(-2.0, 2.0, (20, dim))
            # a ball meeting the segment around a random point of it
            foot = a + rng.uniform(0.0, 1.0) * u
            center = foot + rng.normal(0.0, 0.3, dim)
            radius = np.linalg.norm(foot - center) + rng.uniform(0.01, 1.0)
            clipped = restrict_value(HullProjector(np.stack([a, b])), center, radius)
            worst = max(worst, _same_projections(
                clipped, _segment_clip_reference(a, b, center, radius), queries, 1e-13))
            # a ball holding the whole segment leaves it unchanged
            center = rng.uniform(-1.0, 1.0, dim)
            radius = max(np.linalg.norm(a - center), np.linalg.norm(b - center)) + 0.01
            inside = restrict_value(HullProjector(np.stack([a, b])), center, radius)
            worst = max(worst, _same_projections(inside, np.stack([a, b]), queries, 1e-13))
            _same_projections(inside, _segment_clip_reference(a, b, center, radius), queries,
                              1e-13)
            # a ball on the segment's line touching it only at a; the roots
            # often miss [0, 1] by rounding here, so compare with a itself.
            # In dim 1 the face weights' rounding grows as 1/|b - a| on a
            # short segment, and the tangent ball reads it: at most
            # 2.3e-14 / |b - a| over 700 such balls, against 2.3e-14 in
            # dims 2 and 3
            radius = rng.uniform(0.1, 1.0)
            center = a - radius * u / np.linalg.norm(u)
            touch = restrict_value(HullProjector(np.stack([a, b])), center, radius)
            tol = 1e-13 / np.linalg.norm(u) if dim == 1 else 1e-13
            _same_projections(touch, a[None, :], queries, tol)
            reference = _segment_clip_reference(a, b, center, radius)
            if reference is not None:
                _same_projections(touch, reference, queries, tol)
    print(f"segment restriction: worst gap {worst:.3g} against the clipped segment")


def test_square_restriction_projects_into_intersection():
    square = HullProjector(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    center = np.array([0.0, 0.0])
    restricted = restrict_value(square, center, 0.5)
    assert isinstance(restricted, BallRestrictedValue)
    rng = np.random.default_rng(1)
    pts = rng.standard_normal((20, 2)) * 1.5
    proj, _ = restricted.project(pts)
    assert square.project(proj)[1].max() <= 1e-9
    assert np.linalg.norm(proj - center, axis=1).max() <= 0.5 + 1e-9


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


@pytest.mark.parametrize("gens, center, radius", [
    (np.array([[0.3]]), np.array([1.5]), 0.25),
    (np.array([[0.0], [1.0]]), np.array([1.5]), 0.25),
    (UNIT_SQUARE, np.array([2.0, 2.0]), 1.0),
])
def test_empty_restriction_raises(gens, center, radius):
    with pytest.raises(ValueError, match="misses the hull"):
        restrict_value(HullProjector(gens), center, radius)


def test_restricting_a_restricted_value_raises():
    # a BallRestrictedValue holds one ball, so a second one is refused
    restricted = restrict_value(HullProjector(UNIT_SQUARE), np.zeros(2), 0.3)
    with pytest.raises(ValueError, match="row 0 is already restricted"):
        restrict_value(restricted, np.array([0.25, 0.0]), 1.0)


def _square_map(count, center, radius):
    """count unit squares on the 1-D grid, restricted to B(center[i], radius[i])."""
    F = SetValuedMap(grid_domain_1d(count), [UNIT_SQUARE] * count, HullTarget(UNIT_SQUARE))
    return F.restrict(np.broadcast_to(center, (count, 2)), radius)


def test_family_refuses_to_pin_a_restricted_value():
    # F(x) = square ∩ B(0, 0.3): pinning the parent square would drop the
    # value's own ball, and the members would leave F(x) by 0.419
    F = _square_map(5, np.zeros(2), [np.inf] + [0.3] * 4)
    with pytest.raises(ValueError, match="row 1 is already restricted"):
        dense_selection_family(F, np.array([[0.25, 0.0]]), 1)
    with pytest.raises(ValueError, match="row 2 is already restricted"):
        F.restrict(np.zeros((5, 2)), [1.0, np.inf, 1.0, np.inf, np.inf])


def test_family_keeps_the_ball_of_an_unpinned_restricted_value():
    # the corner balls lie more than 1/2 from the net point, so only the
    # plain squares are pinned, and every member stays in each corner value
    F = _square_map(6, np.ones(2), [np.inf] * 3 + [0.3] * 3)
    members = dense_selection_family(F, np.array([[0.0, 0.0]]), 2, tol=1e-2)
    assert [mem.restricted_count for mem in members] == [3, 3]
    for mem in members:
        assert _nearest(F, mem.values)[1][3:].max() <= 1e-2


@pytest.mark.parametrize("center, radius, touch", [
    (np.array([1.3, 1.4]), 0.5, np.array([1.0, 1.0])),   # at a vertex
    (np.array([0.3, 1.7]), 0.7, np.array([0.3, 1.0])),   # at an edge
])
def test_tangent_restriction_is_the_touching_point(center, radius, touch):
    square = HullProjector(UNIT_SQUARE)
    restricted = restrict_value(square, center, radius)
    pts = np.random.default_rng(2).standard_normal((20, 2)) * 1.5
    proj, dist = restricted.project(pts)
    assert np.isfinite(dist).all()
    assert square.project(proj)[1].max() <= 1e-9
    assert np.linalg.norm(proj - center, axis=1).max() <= radius + 1e-9
    # a rounding error e in the section's squared radius moves its edge by sqrt(e)
    assert np.abs(proj - touch).max() <= 1e-6


def _slsqp_hull_ball_distance(gens, center, radius, query, rng, starts=3):
    """Reference: min |lam @ gens - query| over lam in the simplex with
    lam @ gens in the ball, best of several SLSQP starts."""
    k = len(gens)
    cons = [{"type": "eq", "fun": lambda lam: lam.sum() - 1.0,
             "jac": lambda lam: np.ones((1, k))},
            {"type": "ineq", "fun": lambda lam: radius ** 2 - ((lam @ gens - center) ** 2).sum(),
             "jac": lambda lam: -2.0 * gens @ (lam @ gens - center)}]
    best = np.inf
    for lam0 in [np.full(k, 1.0 / k)] + list(rng.dirichlet(np.ones(k), starts)) + list(np.eye(k)):
        res = minimize(lambda lam: ((lam @ gens - query) ** 2).sum(), lam0,
                       jac=lambda lam: 2.0 * gens @ (lam @ gens - query), method="SLSQP",
                       bounds=[(0.0, 1.0)] * k, constraints=cons,
                       options={"ftol": 1e-15, "maxiter": 200})
        lam = np.clip(res.x, 0.0, None)
        x = (lam / lam.sum()) @ gens
        if np.linalg.norm(x - center) <= radius + 1e-9:
            best = min(best, float(np.linalg.norm(x - query)))
    return best


def test_restricted_projection_matches_slsqp_reference():
    rng = np.random.default_rng(1)
    for _ in range(150):
        dim = int(rng.integers(1, 4))
        gens = rng.standard_normal((int(rng.integers(2, 6)), dim))
        hull = HullProjector(gens)
        center = rng.standard_normal(dim) * 1.2
        gap = float(hull.project(center[None, :])[1][0])
        radius = gap + float(rng.uniform(0.0, 0.8))  # nonempty, sometimes nearly tangent
        restricted = BallRestrictedValue(hull, center, radius)
        query = rng.standard_normal(dim) * 2.0
        proj, dist = restricted.project(query[None, :])
        ref = _slsqp_hull_ball_distance(hull.generators, center, radius, query, rng)
        assert abs(dist[0] - ref) <= 1e-6, (gens, center, radius, query)
        assert hull.project(proj)[1][0] <= 1e-9
        assert np.linalg.norm(proj[0] - center) <= radius + 1e-9


def _face_loop_projection(gens, points, center=None, radius=None):
    """Reference: projection onto conv(gens), or its intersection with
    B(center, radius), one face at a time with a strict < between faces."""
    pts = np.atleast_2d(points)
    best_d2 = np.full(len(pts), np.inf)
    best_proj = np.zeros_like(pts)
    for size in range(1, len(gens) + 1):
        for subset in itertools.combinations(range(len(gens)), size):
            gs = gens[list(subset)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * gs @ gs.T
            kkt[:size, size] = kkt[size, :size] = 1.0
            pinv = np.linalg.pinv(kkt)
            w, b = pinv[:size, :size] @ (2.0 * gs), pinv[:size, size]
            lam = pts @ w.T + b
            if center is not None:
                lam_c = w @ center + b
                c_s = lam_c @ gs
                rho2 = radius * radius - float((center - c_s) @ (center - c_s))
                if rho2 < -1e-12:
                    continue
                off = np.linalg.norm(lam @ gs - c_s, axis=1)
                scale = np.minimum(1.0, np.sqrt(max(rho2, 0.0)) / np.maximum(off, 1e-300))
                lam = lam_c + scale[:, None] * (lam - lam_c)
            proj = lam @ gs
            d2 = np.where((lam >= -1e-12).all(axis=1), ((proj - pts) ** 2).sum(axis=1), np.inf)
            better = d2 < best_d2
            best_d2[better], best_proj[better] = d2[better], proj[better]
    return best_proj, np.sqrt(best_d2)


def _map_rows(F):
    """Each row's generators, ball centre and ball radius (inf without a
    ball), in row order, read back from the map's groups."""
    rows = [None] * len(F)
    for g in F.groups:
        for j, i in enumerate(g.rows):
            center, radius = (None, np.inf) if g.balls is None else (
                g.balls.center[j], g.balls.radius[j])
            rows[i] = (g.stack.generators[j], center, radius)
    return rows


def _row_reference(row, points):
    gens, center, radius = row
    if np.isfinite(radius):
        return _face_loop_projection(gens, points, center, radius)
    return _face_loop_projection(gens, points)


def _assert_same_projections(stacked, reference):
    (p, d), (p_ref, d_ref) = stacked, reference
    assert np.array_equal(np.isinf(d), np.isinf(d_ref))
    finite = np.isfinite(d_ref)
    assert np.abs(d[finite] - d_ref[finite]).max(initial=0.0) <= 1e-12
    assert np.abs(p[finite] - p_ref[finite]).max(initial=0.0) <= 1e-12


def _family_sets(monkeypatch, F, net):
    """The ball sets, one per distinct member, and their names that
    dense_selection_family hands to the lockstep, which it runs on F."""
    calls = []

    def capture(G, tol, sets=None, names=None):
        calls.append((G, sets, names))
        return [MichaelResult(np.zeros((len(G), G.target.dim)), [], np.zeros(len(G)))
                for _ in names]

    monkeypatch.setattr("hyperselect.selection._michael_lockstep", capture)
    dense_selection_family(F, net, m_max=2)
    monkeypatch.undo()
    ((G, sets, names),) = calls
    assert G is F and len(sets) == len(F.groups)
    return sets, names


def _set_balls(F, sets, count):
    """Each set's ball centres (count, n, dim) and radii (count, n), radius
    inf on the rows it leaves, read back from its groups."""
    center = np.zeros((count, len(F), F.target.dim))
    radius = np.full((count, len(F)), np.inf)
    for g, balls in zip(F.groups, sets):
        if balls is not None:
            center[:, g.rows], radius[:, g.rows] = balls.center, balls.radius
    return center, radius


def _restricted_maps(monkeypatch, F, net):
    """The family's sets that pin some row of F, a map with no balls, each
    as the map F.restrict gives for it.  The lockstep of all the sets
    projects each set's rows to the bits of its map."""
    sets, names = _family_sets(monkeypatch, F, net)
    center, radius = _set_balls(F, sets, len(names))
    maps = [F.restrict(c, r, name) for c, r, name in zip(center, radius, names)]
    points = np.random.default_rng(0).uniform(-1.5, 1.5, center.shape)
    proj, dist = _Lockstep(F, sets, len(names)).nearest(points)
    for G, p, q, d in zip(maps, points, proj, dist):
        alone = _nearest(G, p)
        assert np.array_equal(alone[0], q) and np.array_equal(alone[1], d)
    return [G for G, r in zip(maps, radius) if np.isfinite(r).any()]


# one group mixing plain rows with balls tangent at a vertex and at an edge,
# and a small ball whose section by most faces' hulls is empty, next to a
# triangle row
MIXED_CENTERS = np.array([[1.3, 1.4], [0.0, 0.0], [0.3, 1.7], [0.1, 0.15], [0.0, 0.0]])
MIXED_RADII = np.array([0.5, np.inf, 0.7, 0.2, np.inf])


def _mixed_square_map():
    F = SetValuedMap(grid_domain_1d(5), [UNIT_SQUARE] * 4 + [UNIT_SQUARE[[0, 1, 3]]],
                     HullTarget(UNIT_SQUARE))
    return F.restrict(MIXED_CENTERS, MIXED_RADII)


def test_stacked_projection_matches_one_value_at_a_time(monkeypatch):
    rng = np.random.default_rng(4)
    maps = [build(21, 5) for build in BUNDLED_MAPS.values()]
    for F in [M for M in maps if M.name in ("sliding-left-end", "rising-triangle",
                                            "constant-square")]:
        net = np.concatenate([F.target.generators, F.target.generators.mean(axis=0)[None]])
        maps += _restricted_maps(monkeypatch, F, net)
    marechal, _ = rotated_ball_map(5, 0.785)
    corners = np.unique(np.concatenate(list(marechal.generators().values())), axis=0)
    pinned = _restricted_maps(monkeypatch, marechal, np.concatenate([np.zeros((1, 3)), corners]))
    # pinned rows keep F's hulls, so the modified maps keep F's face stacks,
    # and the rows left unpinned are not clipped: they project as in F
    assert pinned and all(G.groups[0].stack is marechal.groups[0].stack for G in pinned)
    points = rng.uniform(-1.5, 1.5, (len(marechal), 3))
    plain_p, plain_d = _nearest(marechal, points)
    mixed = 0
    for G in pinned:
        unpinned = np.isinf([radius for *_, radius in _map_rows(G)])
        mixed += bool(unpinned.any())
        p, d = _nearest(G, points)
        assert np.array_equal(p[unpinned], plain_p[unpinned])
        assert np.array_equal(d[unpinned], plain_d[unpinned])
    assert mixed
    maps += [marechal] + pinned
    maps.append(_mixed_square_map())
    assert sum(np.isfinite([radius for *_, radius in _map_rows(G)]).sum() for G in maps) > 100
    for F in maps:
        gens = np.concatenate([g.stack.generators.reshape(-1, F.target.dim) for g in F.groups])
        lo, hi = gens.min(axis=0) - 0.5, gens.max(axis=0) + 0.5
        points = rng.uniform(lo, hi, (len(F), F.target.dim))
        queries = rng.uniform(lo, hi, (6, F.target.dim))
        nearest, all_pairs = _nearest(F, points), _project_all(F, queries)
        for i, row in enumerate(_map_rows(F)):
            _assert_same_projections((nearest[0][i:i + 1], nearest[1][i:i + 1]),
                                     _row_reference(row, points[i]))
            _assert_same_projections((all_pairs[0][:, i], all_pairs[1][:, i]),
                                     _row_reference(row, queries))
    # an empty intersection, which no map can hold, gives inf in its row only
    stack = HullStack(np.stack([UNIT_SQUARE, UNIT_SQUARE + 0.5]))
    center, radius = np.array([[2.0, 2.0], [0.2, 0.3]]), np.array([1.0, 0.4])
    queries = rng.uniform(-0.5, 2.0, (6, 2))
    proj, dist = stack.project(queries[:, None, :], stack.balls(center, radius))
    assert np.isinf(dist[:, 0]).all() and np.isfinite(dist[:, 1]).all()
    for v in range(2):
        _assert_same_projections((proj[:, v], dist[:, v]), _face_loop_projection(
            stack.generators[v], queries, center[v], radius[v]))


class _PerSizeStack:
    """Reference: the stacked face loop with one batched solve and one
    projection per face size.  Its sums run term by term in the kernel's
    order, coordinates for the weights and squared norms, generators for the
    projections, so HullStack, which holds every face's generators in slots
    and adds slot after slot, must give the same bits.  Balls may carry one
    set per query row, center (m, V, dim) and radius (m, V)."""

    def __init__(self, generators):
        g = np.asarray(generators, dtype=np.float64)
        self._faces = []
        for s in range(1, g.shape[1] + 1):
            gs = g[:, list(itertools.combinations(range(g.shape[1]), s))]
            if s == 1:
                self._faces.append((gs, np.zeros_like(gs), np.ones(gs.shape[:-1])))
                continue
            kkt = np.zeros(gs.shape[:2] + (s + 1, s + 1))
            kkt[..., :s, :s] = 2.0 * gs @ gs.swapaxes(-1, -2)
            kkt[..., :s, s] = 1.0
            kkt[..., s, :s] = 1.0
            pinv = np.linalg.pinv(kkt)
            self._faces.append((gs, pinv[..., :s, :s] @ (2.0 * gs), pinv[..., :s, s]))

    def project(self, points, center=None, radius=None):
        def weights(x, w, b):
            return sum(x[..., None, None, d] * w[..., d] for d in range(x.shape[-1])) + b

        def combine(lam, gs):
            return sum(lam[..., s, None] * gs[:, :, s] for s in range(lam.shape[-1]))

        def square_sum(x):
            return sum(x[..., d] ** 2 for d in range(x.shape[-1]))

        if center is not None:
            clipped = np.isfinite(radius)[..., None, None]
        d2s, projs = [], []
        for gs, w, b in self._faces:
            lam = weights(points, w, b)
            proj = combine(lam, gs)
            section = True
            if center is not None:
                lam_c = weights(center, w, b)
                c_s = combine(lam_c, gs)
                rho2 = radius[..., None] ** 2 - square_sum(center[..., None, :] - c_s)
                section = rho2 >= -1e-12
                rho = np.sqrt(np.maximum(rho2, 0.0))
                off = np.sqrt(square_sum(proj - c_s))
                outside = off > rho
                scale = np.divide(rho, off, out=np.ones(off.shape), where=outside)
                lam = np.where(clipped, lam_c + scale[..., None] * (lam - lam_c), lam)
                proj = np.where(clipped, c_s + scale[..., None] * (proj - c_s), proj)
            d2 = square_sum(proj - points[:, :, None, :])
            d2[~((lam >= -1e-12).all(axis=-1) & section)] = np.inf
            d2s.append(d2)
            projs.append(proj)
        d2, proj = np.concatenate(d2s, axis=-1), np.concatenate(projs, axis=2)
        face = d2.argmin(axis=-1)
        best = np.take_along_axis(proj, face[:, :, None, None], axis=2)[:, :, 0]
        dist = np.sqrt(d2.min(axis=-1))
        best[np.isinf(dist)] = 0.0
        return best, dist


@pytest.mark.parametrize("k", range(1, 7))
def test_slot_kernel_matches_the_per_size_kernel(k):
    # the faces held in generator slots must give the per-size kernel's
    # bits, which is what keeps the scenario files byte-identical
    rng = np.random.default_rng(20 + k)
    for dim, n_hulls in itertools.product((1, 2, 3), (1, 5)):
        gens = rng.uniform(-1.0, 1.0, (n_hulls, k, dim))
        stack, reference = HullStack(gens), _PerSizeStack(gens)
        center = rng.uniform(-1.5, 1.5, (n_hulls, dim))
        radius = rng.uniform(0.2, 1.5, n_hulls)
        radius[1::3] = np.inf
        if n_hulls > 1:
            # a ball tangent to hull 2 at its farthest vertex along u, and
            # one past hull 3's farthest vertex, missing it
            u = rng.standard_normal((n_hulls, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            top = gens[np.arange(n_hulls), np.argmax(np.einsum("vkd,vd->vk", gens, u), axis=1)]
            center[2:4] = top[2:4] + radius[2:4, None] * u[2:4]
            center[3] += 0.5 * u[3]
        for layout in (n_hulls, 1):
            queries = rng.uniform(-2.0, 2.0, (5, layout, dim))
            for ball in ((), (center, radius)):
                got = stack.project(queries, stack.balls(*ball) if ball else None)
                want = reference.project(queries, *ball)
                if n_hulls > 1 and ball:
                    assert np.isinf(got[1][:, 3]).all() and np.isfinite(got[1][:, 2]).all()
                assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _benchmark_balls(stack, net, rng):
    """Ball sets (S, V, dim) centres and (S, V) radii on a stack's hulls: the
    dense family's pins, a net point and radius 1/m on the hulls within 1/m
    of it and inf elsewhere; balls tangent to each hull at its farthest
    vertex along a random direction; the same balls pushed off, missing
    their hulls; no balls at all; and a mix of the four."""
    gens = stack.generators
    n_hulls, _, dim = gens.shape
    dist = stack.project_runs(net[:, None, :])[1]
    centers, radii = [], []
    for n, m in itertools.product(range(len(net)), (1, 2)):
        centers.append(np.broadcast_to(net[n], (n_hulls, dim)))
        radii.append(np.where(dist[n] < 1.0 / m, 1.0 / m, np.inf))
    u = rng.standard_normal((n_hulls, dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    top = gens[np.arange(n_hulls), np.argmax(np.einsum("vkd,vd->vk", gens, u), axis=1)]
    radius = rng.uniform(0.2, 1.0, n_hulls)
    centers += [top + radius[:, None] * u, top + (radius[:, None] + 0.3) * u, np.zeros_like(top)]
    radii += [radius, radius, np.full(n_hulls, np.inf)]
    pick = rng.integers(0, len(radii), n_hulls)
    centers.append(np.stack(centers)[pick, np.arange(n_hulls)])
    radii.append(np.stack(radii)[pick, np.arange(n_hulls)])
    return np.stack(centers), np.stack(radii)


@pytest.mark.parametrize("name", ["marechal", "sliding-left-end"])
def test_slot_kernel_keeps_the_bits_on_the_benchmark_hulls(name):
    # the per-size kernel's bits, in every layout the selection code calls:
    # (m, V), (m, 1), one query row alone and gathered (query, hull) pairs.
    # marechal's values are squares in 3-space, so their four-generator
    # face's KKT system is singular and goes through pinv; sliding-left-end's
    # are segments, k = 2
    rng = np.random.default_rng(32)
    if name == "marechal":
        F, net = _marechal_case()
    else:
        F, net = BUNDLED_MAPS[name](), np.linspace(0.0, 1.0, 5)[:, None]
    (group,) = [g for g in F.groups if g.stack.generators.shape[1] > 1]
    stack = group.stack
    gens = stack.generators
    if name == "marechal":
        assert gens.shape[1:] == (4, 3)
        assert all(np.linalg.matrix_rank(g[1:] - g[0]) == 2 for g in gens)
    reference = _PerSizeStack(gens)
    center, radius = _benchmark_balls(stack, net, rng)
    balls = stack.balls(center, radius)
    lo, hi = gens.min(axis=(0, 1)) - 0.5, gens.max(axis=(0, 1)) + 0.5
    queries = np.concatenate([net, rng.uniform(lo, hi, (40, gens.shape[-1]))])
    owner = rng.integers(0, len(radius), len(queries))  # each query row's set of balls
    wide = np.repeat(queries[:, None, :], len(gens), axis=1)
    q, h = np.divmod(np.arange(wide.shape[0] * wide.shape[1]), wide.shape[1])
    for ball in (None, (center[owner], radius[owner])):
        rows = None if ball is None else balls
        want = reference.project(wide, *(ball or ()))
        for points in (wide, queries[:, None, :]):
            got = stack.project_runs(points, rows, owner)
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            for j in range(len(queries)):
                alone = stack.project(points[j:j + 1], None if ball is None
                                      else balls.take(owner[j:j + 1]))
                assert np.array_equal(alone[0], want[0][j:j + 1])
                assert np.array_equal(alone[1], want[1][j:j + 1])
        pairs = stack.project_pairs(wide[q, h], h, rows, owner[q])
        assert np.array_equal(pairs[0], want[0][q, h]) and np.array_equal(pairs[1], want[1][q, h])
    # the tangent balls meet every hull and the pushed-off ones miss it
    tangent = 2 * len(net)
    for at, meets in ((tangent, True), (tangent + 1, False)):
        assert np.isfinite(reference.project(wide, center[at], radius[at])[1]).all() == meets
        assert np.isinf(reference.project(wide, center[at], radius[at])[1]).all() != meets
    assert np.isin([tangent, tangent + 1], owner).all() and np.isfinite(radius[:tangent]).any()


def _einsum_projection(faces, points, center=None, radius=None):
    """Reference: the kernel as it was with einsum contractions, over the
    faces of a _PerSizeStack, one face size at a time; sections as in
    HullStack.balls."""
    d2s, projs = [], []
    for gs, w, b in faces._faces:
        lam = np.einsum("mvd,vfsd->mvfs", points, w) + b
        section = True
        if center is not None:
            lam_c = np.einsum("...vd,vfsd->...vfs", center, w) + b
            c_s = np.einsum("...vfs,vfsd->...vfd", lam_c, gs)
            rho2 = radius[..., None] ** 2 - ((center[..., None, :] - c_s) ** 2).sum(axis=-1)
            rho = np.sqrt(np.maximum(rho2, 0.0))
            off = np.sqrt(((np.einsum("mvfs,vfsd->mvfd", lam, gs) - c_s) ** 2).sum(axis=-1))
            scale = np.divide(rho, off, out=np.ones(off.shape), where=off > rho)
            lam = np.where(np.isfinite(radius)[..., None, None],
                           lam_c + scale[..., None] * (lam - lam_c), lam)
            section = rho2 >= -1e-12
        proj = np.einsum("mvfs,vfsd->mvfd", lam, gs)
        d2 = ((proj - points[:, :, None, :]) ** 2).sum(axis=-1)
        d2[~((lam >= -1e-12).all(axis=-1) & section)] = np.inf
        d2s.append(d2)
        projs.append(proj)
    d2, proj = np.concatenate(d2s, axis=-1), np.concatenate(projs, axis=2)
    best = np.take_along_axis(proj, d2.argmin(axis=-1)[:, :, None, None], axis=2)[:, :, 0]
    dist = np.sqrt(d2.min(axis=-1))
    best[np.isinf(dist)] = 0.0
    return best, dist


@pytest.mark.parametrize("k, dim, n_hulls", [(2, 1, 12), (3, 2, 5), (4, 3, 7), (6, 3, 2)])
def test_a_rows_bits_do_not_depend_on_its_call(k, dim, n_hulls):
    # every entry is rounded on its own, so a query row with its own balls
    # gets the same bits projected alone, inside a full capped run, in the
    # (m, 1) and (m, V) layouts, and as gathered (query, hull) pairs; a
    # reduction whose order follows the call's shape, such as a matrix
    # product, would break this
    rng = np.random.default_rng(27 + k)
    gens = rng.uniform(-1.0, 1.0, (n_hulls, k, dim))
    stack = HullStack(gens)
    step = capped_runs(KERNEL_ENTRIES, n_hulls * stack.entries)[0].stop
    queries = rng.uniform(-2.0, 2.0, (2 * step + 3, dim))
    center = rng.uniform(-1.5, 1.5, (4, n_hulls, dim))
    radius = rng.uniform(0.2, 1.5, (4, n_hulls))
    radius[rng.random(radius.shape) < 0.3] = np.inf
    balls = stack.balls(center, radius)
    owner = rng.integers(0, 4, len(queries))  # each query row's set of balls
    wide = np.repeat(queries[:, None, :], n_hulls, axis=1)
    for rows in (None, balls):
        layouts = [stack.project_runs(queries[:, None, :], rows, owner),
                   stack.project_runs(wide, rows, owner)]
        for j in range(len(queries)):
            alone = stack.project(queries[j:j + 1, None, :],
                                  None if rows is None else balls.take(owner[j:j + 1]))
            for proj, dist in layouts:
                assert np.array_equal(proj[j], alone[0][0])
                assert np.array_equal(dist[j], alone[1][0])
        q, h = np.divmod(np.arange(len(queries) * n_hulls), n_hulls)
        pairs = stack.project_pairs(queries[q], h, rows, owner[q])
        assert np.array_equal(pairs[0], layouts[0][0][q, h])
        assert np.array_equal(pairs[1], layouts[0][1][q, h])
        ball = () if rows is None else (center[owner], radius[owner])
        want = _einsum_projection(_PerSizeStack(gens), wide, *ball)
        proj, dist = layouts[1]
        assert np.array_equal(np.isinf(dist), np.isinf(want[1]))
        finite = np.isfinite(dist)
        # some balls miss their hull, so both kinds of row are compared
        assert finite.all() if rows is None else 0 < finite.sum() < finite.size
        assert np.abs(dist[finite] - want[1][finite]).max() <= 1e-13
        assert np.abs(proj - want[0]).max() <= 1e-13


def test_generator_cap_hull_matches_the_face_loop():
    # the stack is largest here: 4095 faces, with 12 * 2^11 generator slot
    # entries per hull
    rng = np.random.default_rng(12)
    gens = rng.uniform(-1.0, 1.0, (GENERATOR_CAP, 3))
    hull = HullProjector(gens)
    queries = rng.uniform(-1.5, 1.5, (4, 3))
    center, radius = gens[0] + 0.3, 0.6
    _assert_same_projections(hull.project(queries), _face_loop_projection(gens, queries))
    _assert_same_projections(hull.project(queries, center, radius),
                             _face_loop_projection(gens, queries, center, radius))
    more = np.concatenate([gens, [[2.0, 2.0, 2.0]]])
    with pytest.raises(TooManyGenerators):
        HullStack(more[None])
    with pytest.raises(TooManyGenerators):
        HullProjector(more).project(queries)


def test_value_groups_hold_the_sections_of_their_own_balls(monkeypatch):
    marechal, _ = rotated_ball_map(5, 0.785)
    corners = np.unique(np.concatenate(list(marechal.generators().values())), axis=0)
    net = np.concatenate([np.zeros((1, 3)), corners])
    # (map, centres, radii): the balls each map's rows should hold
    cases = [(marechal, np.zeros((len(marechal), 3)), np.full(len(marechal), np.inf))]
    dists = _project_all(marechal, net)[1]
    pins = [(n, dists[n] < 1.0 / m, 1.0 / m) for n in range(len(net)) for m in (1, 2)]
    restricted = _restricted_maps(monkeypatch, marechal, net)
    pins = [(n, pinned, r) for n, pinned, r in pins if pinned.any()]
    assert len(restricted) == len(pins)
    cases += [(G, np.broadcast_to(net[n], (len(G), 3)), np.where(pinned, r, np.inf))
              for G, (n, pinned, r) in zip(restricted, pins)]
    # the family's sets along their leading axis, each group's built by one
    # stack.balls call
    sets, names = _family_sets(monkeypatch, marechal, net)
    assert len(names) == len(pins) + (len(pins) < 2 * len(net))
    for g, balls in zip(marechal.groups, sets):
        rebuilt = g.stack.balls(balls.center, balls.radius)
        assert balls.radius.shape == (len(names), len(g.rows))
        for field in dataclasses.fields(BallSections):
            assert np.array_equal(getattr(balls, field.name), getattr(rebuilt, field.name))
    mixed = _mixed_square_map()
    cases.append((mixed, MIXED_CENTERS, MIXED_RADII))
    # pinning the plain rows of a map with balls keeps the other rows' balls
    # and the map's face stacks
    again = mixed.restrict(np.full((5, 2), 0.5), [np.inf, 0.6, np.inf, np.inf, 0.6])
    assert all(g.stack is h.stack for g, h in zip(again.groups, mixed.groups))
    cases.append((again, np.where(np.isinf(MIXED_RADII)[:, None], 0.5, MIXED_CENTERS),
                  np.where(np.isinf(MIXED_RADII), 0.6, MIXED_RADII)))
    held = 0
    for F, center, radius in cases:
        for g in F.groups:
            pinned = np.isfinite(radius[g.rows])
            if not pinned.any():
                assert g.balls is None
                continue
            held += 1
            assert np.array_equal(g.balls.center[pinned], center[g.rows][pinned])
            assert np.array_equal(g.balls.radius, radius[g.rows])
            rebuilt = g.stack.balls(g.balls.center, g.balls.radius)
            for field in dataclasses.fields(BallSections):
                assert np.array_equal(getattr(g.balls, field.name), getattr(rebuilt, field.name))
    assert held > 5


def test_map_restriction_is_the_one_value_restriction_row_by_row():
    # points, segments (one touched at an end) and a triangle: every group
    # keeps F's stack and rows, each pinned row of any size takes its ball,
    # and each row projects to the bits of its value restricted alone
    gens = [np.array([[0.5, 0.5]]), UNIT_SQUARE[[0, 1]], np.array([[0.2, 0.2]]),
            UNIT_SQUARE[[0, 3]], UNIT_SQUARE[[0, 1, 2]], UNIT_SQUARE[[1, 2]]]
    F = SetValuedMap(grid_domain_1d(len(gens)), gens, HullTarget(UNIT_SQUARE))
    center = np.array([[0.5, 0.55], [-0.5, 0.0], [9.0, 9.0], [0.5, 0.4], [0.0, 0.0], [0.0, 0.0]])
    radius = np.array([0.1, 0.5, np.inf, 0.3, 0.4, np.inf])
    G = F.restrict(center, radius)
    assert [g.rows.tolist() for g in G.groups] == [[0, 2], [1, 3, 5], [4]]
    assert all(g.stack is f.stack and g.balls is not None for g, f in zip(G.groups, F.groups))
    points = np.random.default_rng(12).uniform(-0.5, 1.5, (len(gens), 2))
    proj, dist = _nearest(G, points)
    for i, (row_gens, row_center, row_radius) in enumerate(_map_rows(G)):
        value = HullProjector(gens[i])
        assert np.array_equal(row_gens, value.generators)
        one = value
        if np.isfinite(radius[i]):
            one = restrict_value(value, center[i], radius[i])
            assert isinstance(one, BallRestrictedValue)
            assert np.array_equal(row_center, center[i]) and row_radius == radius[i]
        else:
            assert np.isinf(row_radius)
        p, d = one.project(points[i:i + 1])
        assert np.array_equal(proj[i], p[0]) and dist[i] == d[0]
    with pytest.raises(ValueError, match="misses the hull at row 3"):
        F.restrict(center, [np.inf, np.inf, np.inf, 0.05, np.inf, np.inf])


def test_ball_sets_are_one_restriction_at_a_time():
    # the pass over every restriction gives each restriction's balls bit for
    # bit along the set axis of each group, on the map's own stacks; a
    # failing pass raises the error of the first group that some
    # restriction fails in, as that restriction on its own raises it, led by
    # its name
    gens = [np.array([[0.5, 0.5]]), UNIT_SQUARE[[0, 1]], np.array([[0.2, 0.2]]),
            UNIT_SQUARE[[0, 3]], UNIT_SQUARE[[0, 1, 2]], UNIT_SQUARE[[1, 2]]]
    F = SetValuedMap(grid_domain_1d(len(gens)), gens, HullTarget(UNIT_SQUARE))
    rng = np.random.default_rng(11)
    # balls around a point of each value, so every ball meets its hull
    center = np.array([g.mean(axis=0) for g in gens]) + rng.uniform(-0.1, 0.1, (5, len(gens), 2))
    radius = rng.uniform(0.15, 0.6, (5, len(gens)))
    radius[rng.random(radius.shape) < 0.3] = np.inf
    radius[2, 0] = 0.0  # a point restricted to a ball through it: unchanged
    center[2, 0] = gens[0][0]
    center[3, 1], radius[3, 1] = [-0.5, 0.0], 0.5  # a segment touched at its end point
    names = [f"r{j}" for j in range(5)]
    sets = F.ball_sets(center, radius, names)
    assert all(balls.radius.shape == (5, len(g.rows)) for g, balls in zip(F.groups, sets))
    for j in range(5):
        one = F.restrict(center[j], radius[j], names[j])
        assert one.name == names[j]
        assert len(sets) == len(one.groups) == len(F.groups)
        for balls, h, f in zip(sets, one.groups, F.groups):
            assert h.stack is f.stack and h.rows is f.rows
            # a group that restriction j leaves holds no ball in its map
            assert (h.balls is None) == np.isinf(balls.radius[j]).all()
            if h.balls is not None:
                for field in dataclasses.fields(BallSections):
                    assert np.array_equal(getattr(balls, field.name)[j],
                                          getattr(h.balls, field.name))

    def raised(G, c, r, names):
        with pytest.raises(ValueError) as err:
            G.ball_sets(c, r, names)
        return str(err.value)

    def alone(G, c, r, name):
        with pytest.raises(ValueError) as err:
            G.restrict(c, r, name)
        return str(err.value)

    # restriction 4 misses at the segment row 3; restriction 1 also misses
    # at the point row 0, and the point group comes first
    for failing in ((4,), (1, 4)):
        c, r = center.copy(), radius.copy()
        for j in failing:
            c[j, 3], r[j, 3] = [5.0, 5.0], 0.1
        if 1 in failing:
            c[1, 0], r[1, 0] = [5.0, 5.0], 0.1
        message = raised(F, c, r, names)
        assert message == alone(F, c[failing[0]], r[failing[0]], names[failing[0]])
        assert message.startswith(f"{names[failing[0]]}: the ball B(")
    # on a map whose triangle row holds a ball, a miss in the earlier
    # segment group fails before a pin of that row, whichever restriction
    # comes first
    G = F.restrict(center[0], np.where(np.arange(len(gens)) == 4, 0.6, np.inf))
    c, r = np.repeat(center[:1], 3, axis=0), np.full((3, len(gens)), np.inf)
    r[:2, 4] = 0.5
    c[1, 1], r[1, 1] = [5.0, 5.0], 0.1
    r[2, 5] = 0.5
    assert "r1: the ball" in raised(G, c, r, names[:3]) == alone(G, c[1], r[1], names[1])
    assert "r0: the value at row 4 is already restricted" in raised(
        G, c[[0, 2]], r[[0, 2]], names[:2]) == alone(G, c[0], r[0], names[0])
    assert len(G.ball_sets(c[[2]], r[[2]], names[:1])) == len(G.groups)
    # within one group, a pin of a row with a ball fails before a miss
    H = SetValuedMap(grid_domain_1d(2), [UNIT_SQUARE[[0, 1, 2]]] * 2, HullTarget(UNIT_SQUARE))
    H = H.restrict(np.zeros((2, 2)), [0.5, np.inf])
    c, r = np.zeros((2, 2, 2)), np.array([[np.inf, 0.1], [0.5, np.inf]])
    c[0, 1] = [5.0, 5.0]
    assert "misses" in alone(H, c[0], r[0], "a")
    assert "already restricted" in raised(H, c, r, ["a", "b"]) == alone(H, c[1], r[1], "b")
    # a restriction with no name leads its message with nothing
    assert alone(H, c[1], r[1], "").startswith("the value at row 0 is already restricted")


def test_dedupe_points_keeps_first_seen_rows():
    def reference(points, tol):
        keep = []
        for i, p in enumerate(points):
            if all(np.linalg.norm(p - points[j]) > tol for j in keep):
                keep.append(i)
        return points[keep]

    # the third row lies within tol of the second only, which is dropped
    chain = np.array([[0.0, 0.0], [0.6, 0.0], [1.2, 0.0], [0.0, 0.5]])
    assert np.array_equal(dedupe_points(chain, tol=1.0), chain[[0, 2]])
    rng = np.random.default_rng(6)
    for _ in range(50):
        points = rng.integers(0, 4, (30, 2)) * 0.5 + rng.normal(0.0, 0.1, (30, 2))
        assert np.array_equal(dedupe_points(points, tol=0.2), reference(points, 0.2))
    # a stack is deduped hull by hull, each hull as on its own, with exact
    # repeats and chains like the one above in some of the hulls
    for k, dim in ((1, 1), (2, 1), (3, 2), (4, 3), (6, 2)):
        stack = rng.integers(0, 3, (40, k, dim)) * 0.5 + rng.normal(0.0, 0.1, (40, k, dim))
        stack[::3, -1] = stack[::3, 0]
        if k >= 3:
            stack[1::4, :3] = stack[1::4, :1] + np.arange(3)[:, None] * 0.15
        got = dedupe_points(stack, tol=0.2)
        assert len(got) == len(stack)
        for hull, deduped in zip(stack, got):
            assert np.array_equal(deduped, dedupe_points(hull, tol=0.2))
            assert np.array_equal(deduped, reference(hull, 0.2))


def test_domain_and_ball_distances_match_cdist():
    rng = np.random.default_rng(8)
    for dim in (1, 2, 3, 4):
        dom = DiscreteDomain(rng.random((40, dim)))
        reference = cdist(dom.points, dom.points)
        np.fill_diagonal(reference, np.inf)
        assert np.array_equal(dom.pair_d, reference)
        centers, radii = rng.random((7, dim)), rng.random(7)
        cover = OpenCover.from_balls(dom, centers, radii)
        assert np.array_equal(cover.bitmaps, cdist(centers, dom.points) < radii[:, None])


def test_domain_points_must_be_distinct():
    with pytest.raises(ValueError):
        DiscreteDomain(np.array([[0.0], [0.0]]))
