"""Partitions of unity and continuous selections on discrete domains.

Domains are finite metric grids standing in for a metric space X; set-valued
maps carry one convex value per grid point.  Values live in Euclidean
coordinates: a value is the hull of a few generators, intersected, on the
restricted maps of the dense family, with one closed ball.  A map holds its
values only as arrays grouped by generator count, each group a stack of
generators (V, k, dim) for the hull kernel (see `hulls`) with the sections
of its rows' balls, so each projection entry point (diagonal or all-pairs)
makes one kernel call per group.  One cover-and-average step serves the
approximate selection and each round of the iteration, which keeps two
logged invariants at every grid point: membership defect < 2^-(k+1) after
round k and sup-step <= 2^-k between consecutive rounds.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .hulls import BallSections, HullProjector, HullStack, dedupe_points, lattice_round
from .norms import InvariantViolation


class NotACover(InvariantViolation):
    """Some domain point lies in no cover element."""


class NetTooCoarse(InvariantViolation):
    """The net misses a value set at the requested approximation scale."""


class IterationStall(InvariantViolation):
    """A selection round left some domain point uncovered."""


def _pair_distances(a, b):
    """Euclidean distances between the rows of a and of b, with the squares
    summed coordinate by coordinate, in the order scipy's cdist sums them."""
    d2 = np.zeros((len(a), len(b)))
    for c in range(a.shape[1]):
        d2 += (a[:, None, c] - b[None, :, c]) ** 2
    return np.sqrt(d2)


class DiscreteDomain:
    """Finite point grid with the Euclidean metric; mesh is the max
    nearest-neighbor spacing."""

    def __init__(self, points):
        self.points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        d = _pair_distances(self.points, self.points)
        np.fill_diagonal(d, np.inf)
        self.pair_d = d
        if len(self.points) > 1:
            if float(d.min()) <= 0.0:
                raise ValueError("domain points must be pairwise distinct")
            self.mesh = float(d.min(axis=1).max())
        else:
            self.mesh = 0.0

    def __len__(self):
        return len(self.points)

    def adjacent_pairs(self):
        """Ordered index pairs at nearest-neighbor range (both directions)."""
        close = self.pair_d <= self.mesh * (1 + 1e-9)
        i, j = np.nonzero(close)
        return list(zip(i.tolist(), j.tolist()))


def grid_domain_1d(n=101):
    return DiscreteDomain(np.linspace(0.0, 1.0, n)[:, None])


def grid_domain_2d(nx=11, ny=11):
    xs = np.linspace(0.0, 1.0, nx)
    ys = np.linspace(0.0, 1.0, ny)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    return DiscreteDomain(np.stack([gx.ravel(), gy.ravel()], axis=1))


@dataclass
class OpenCover:
    """Cover elements as membership bitmaps over the domain points."""

    domain: DiscreteDomain
    bitmaps: np.ndarray  # (n_elements, n_points) bool

    def __post_init__(self):
        self.bitmaps = np.atleast_2d(np.asarray(self.bitmaps, dtype=bool))
        if self.bitmaps.shape[1] != len(self.domain):
            raise ValueError("bitmap length must match the domain size")

    @classmethod
    def from_balls(cls, domain, centers, radii):
        centers = np.atleast_2d(centers)
        radii = np.broadcast_to(np.asarray(radii, dtype=np.float64), (len(centers),))
        d = _pair_distances(centers, domain.points)
        return cls(domain=domain, bitmaps=d < radii[:, None])

    def __len__(self):
        return len(self.bitmaps)


@dataclass
class PartitionOfUnity:
    cover: OpenCover
    values: np.ndarray  # (n_elements, n_points), rows sum to 1 pointwise
    max_active: int     # recorded local finiteness bound

    def support(self, i):
        return np.nonzero(self.values[i] > 0)[0]


def build_partition_of_unity(domain, cover):
    """Subordinate partition of unity from distance-to-complement bumps.

    g_n(x) = 2^-n min(1, d(x, X \\ U_n)) with n starting at 1, g = max_n g_n,
    f_n = max(0, g_n - g/2), rho_n = f_n / sum_m f_m.  Raises NotACover when
    g vanishes somewhere.  Supports satisfy supp rho_n inside U_n exactly,
    because d(x, X \\ U_n) = 0 off U_n on the grid.
    """
    bitmaps = cover.bitmaps
    n_pts = len(domain)
    dist_comp = np.empty((len(bitmaps), n_pts))
    for i, inside in enumerate(bitmaps):
        if inside.all():
            dist_comp[i] = np.inf
            continue
        d_to_comp = domain.pair_d[:, ~inside]
        dist_comp[i] = d_to_comp.min(axis=1)
        dist_comp[i][~inside] = 0.0
    weights = 0.5 ** np.arange(1, len(bitmaps) + 1)
    g_n = weights[:, None] * np.minimum(1.0, dist_comp)
    g = g_n.max(axis=0)
    uncovered = np.nonzero(g <= 0.0)[0]
    if uncovered.size:
        raise NotACover(f"domain point index {int(uncovered[0])} lies in no cover element")
    f_n = np.maximum(0.0, g_n - g[None, :] / 2.0)
    total = f_n.sum(axis=0)
    rho = f_n / total[None, :]
    max_active = int((rho > 0).sum(axis=0).max())
    return PartitionOfUnity(cover=cover, values=rho, max_active=max_active)


# ---------------------------------------------------------------------------
# convex values


class BallRestrictedValue:
    """One hull intersected with a closed ball B(center, radius), nonempty,
    projected exactly inside the faces' ball sections (see `hulls`).  Maps
    hold their balls in their value groups instead."""

    def __init__(self, hull: HullProjector, center, radius):
        self.hull = hull
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.generators = None  # no finite generator description

    def project(self, points):
        return self.hull.project(points, self.center, self.radius)


def restrict_value(value: HullProjector, center, radius):
    """The value intersected with the closed ball B(center, radius): the
    one-row case of SetValuedMap.restrict, as a HullProjector for a point or
    segment and a BallRestrictedValue sharing the value's faces otherwise."""
    if value.generators is None:
        raise ValueError("the value at row 0 is already restricted to a ball;"
                         " a value holds one ball")
    (group,) = _restrict_group(_ValueGroup(np.zeros(1, dtype=np.intp), value.stack, None),
                               np.atleast_2d(center), np.array([radius], dtype=np.float64))
    if group.balls is not None:
        return BallRestrictedValue(value, center, radius)
    return HullProjector(group.stack.generators[0])


@dataclass
class _ValueGroup:
    """The rows of one generator count, stacked for the hull kernel."""

    rows: np.ndarray            # the map's rows in this group, ascending
    stack: HullStack            # their deduped generators, (V, k, dim)
    balls: BallSections | None  # the rows' balls, radius inf on rows without one;
                                # None when no row has a ball


def _by_count(arrays):
    """(positions, stacked arrays) for each array length, ascending."""
    counts = np.array([len(a) for a in arrays])
    return [(np.flatnonzero(counts == k), np.stack([a for a, c in zip(arrays, counts) if c == k]))
            for k in np.unique(counts)]


def _hull_groups(rows, generators):
    """Groups of the rows (ascending) from their deduped generator arrays."""
    return [_ValueGroup(rows[at], HullStack(stack), None) for at, stack in _by_count(generators)]


def _restrict_group(group, center, radius):
    """The groups that the group's rows fall into once intersected with the
    closed balls B(center, radius), radius inf on the rows left as they are.
    A point is its own restriction.  A segment's endpoints projected onto its
    intersection with the ball are the endpoints clipped to the ball, which
    replace them, deduped.  Larger hulls keep their stack and take the balls."""
    pinned = np.isfinite(radius)
    if not pinned.any():
        return [group]
    old_center, old_radius = (0.0, np.inf) if group.balls is None else (
        group.balls.center, group.balls.radius)
    held = pinned & np.isfinite(old_radius)
    if held.any():
        raise ValueError(f"the value at row {int(group.rows[held][0])} is already restricted"
                         " to a ball; a value holds one ball")
    stack = group.stack
    balls = stack.balls(np.where(pinned[:, None], center, old_center),
                        np.where(pinned, radius, old_radius))
    missed = ~np.isfinite(stack.project(balls.center[None], balls)[1][0])
    if missed.any():
        i = int(np.argmax(missed))
        raise ValueError(f"the ball B({balls.center[i].tolist()}, {balls.radius[i]}) misses"
                         f" the hull at row {int(group.rows[i])}")
    k = stack.generators.shape[1]
    if k == 1:
        return [group]
    if k == 2:
        ends = stack.project(stack.generators.swapaxes(0, 1), balls)[0].swapaxes(0, 1)
        generators = list(stack.generators)
        for j, clipped in zip(np.flatnonzero(pinned), dedupe_points(ends[pinned])):
            generators[j] = clipped
        return _hull_groups(group.rows, generators)
    return [_ValueGroup(group.rows, stack, balls)]


class SetValuedMap:
    """One convex value per domain point, inside a common convex target C:
    row i's value is the hull of generators[i], a (k_i, dim) array.  The
    values are held only as stacked arrays, grouped by deduped generator
    count, ascending (see `_ValueGroup`): the raw arrays are grouped by raw
    row count, each group deduped in one batched first-seen pass, and the
    rows regrouped by deduped count."""

    def __init__(self, domain, generators, target, name="", slope_hint=4.0):
        self.domain = domain
        if len(generators) != len(domain):
            raise ValueError("one value per domain point")
        deduped = [None] * len(domain)
        for rows, stack in _by_count([np.atleast_2d(np.asarray(g, dtype=np.float64))
                                      for g in generators]):
            for i, g in zip(rows, dedupe_points(stack)):
                deduped[i] = g
        if not bool(np.all(target.contains(np.concatenate(deduped)))):
            raise ValueError("value generators must lie in the target set C")
        self.groups = _hull_groups(np.arange(len(domain)), deduped)
        self.target = target
        self.name = name
        self.slope_hint = slope_hint

    def __len__(self):
        return len(self.domain)

    def generators(self):
        """{row: (k, dim) generators} of the rows without a ball, in row order."""
        out = {}
        for g in self.groups:
            plain = slice(None) if g.balls is None else np.isinf(g.balls.radius)
            out.update(zip(g.rows[plain].tolist(), g.stack.generators[plain]))
        return dict(sorted(out.items()))

    def restrict(self, center, radius, name=""):
        """The map with row i's value intersected with the closed ball
        B(center[i], radius[i]), radius inf on the rows left as they are,
        sharing this map's stacks where a group keeps its generators.  Raises
        ValueError when a ball misses its hull, or pins a row with a ball."""
        center = np.asarray(center, dtype=np.float64)
        radius = np.asarray(radius, dtype=np.float64)
        groups = [h for g in self.groups
                  for h in _restrict_group(g, center[g.rows], radius[g.rows])]
        # the groups keep ascending counts, so the point rows and the
        # segments clipped to a point lead
        points = [g for g in groups if g.stack.generators.shape[1] == 1]
        if len(points) > 1:
            rows = np.concatenate([g.rows for g in points])
            order = np.argsort(rows)
            generators = np.concatenate([g.stack.generators for g in points])[order]
            groups[:len(points)] = [_ValueGroup(rows[order], HullStack(generators), None)]
        restricted = copy.copy(self)
        restricted.groups, restricted.name = groups, name
        return restricted


class HullTarget:
    """The target convex set C given by finitely many generators."""

    def __init__(self, generators):
        self.generators = np.atleast_2d(np.asarray(generators, dtype=np.float64))
        self.dim = self.generators.shape[1]
        self._hull = HullProjector(self.generators)

    def project(self, points):
        return self._hull.project(points)[0]

    def contains(self, points):
        return self._hull.contains(points)


# ---------------------------------------------------------------------------
# approximate selection from an explicit net

_MAX_ELEMENTS = 900


@dataclass
class SelectionResult:
    values: np.ndarray          # (n_points, dim)
    pou: PartitionOfUnity
    net: np.ndarray             # net points used as cover labels, in order
    defects: np.ndarray         # d(f(x), F(x)) per domain point


def _nearest(F, points):
    """Projection of points[i] onto F(x_i) and its distance, per domain point."""
    proj = np.empty((len(F), F.target.dim))
    dist = np.empty(len(F))
    for g in F.groups:
        p, d = g.stack.project(points[g.rows][None], g.balls)
        proj[g.rows], dist[g.rows] = p[0], d[0]
    return proj, dist


def _project_all(F, queries):
    """Projections (n_queries, n_points, dim) and distances (n_queries,
    n_points) of every query onto every value."""
    proj = np.empty((len(queries), len(F), F.target.dim))
    dist = np.empty((len(queries), len(F)))
    for g in F.groups:
        proj[:, g.rows], dist[:, g.rows] = g.stack.project(queries[:, None, :], g.balls)
    return proj, dist


def _lex_sort(points):
    order = np.lexsort(tuple(points[:, c] for c in range(points.shape[1] - 1, -1, -1)))
    return order


def _cover_average(F, net, eps, anchors=None, r=None):
    """f(x) = sum_v rho_v(x) v over the cover labelled by the net points.

    The element of net point v is U_v = {x : d(v, F(x)) < eps}; given
    anchors, it keeps only the x whose projection of v onto F(x) lies within
    r of anchors[x].  Empty elements are dropped, and above _MAX_ELEMENTS a
    greedy pass keeps only elements that cover new points.  Returns the
    values, the partition of unity and the net points it keeps; raises
    NetTooCoarse naming the first domain index that no element covers.
    """
    proj, dist = _project_all(F, net)
    bitmaps = dist < eps
    if anchors is not None:
        bitmaps &= np.linalg.norm(proj - anchors[None, :, :], axis=2) < r
    missing = np.nonzero(~bitmaps.any(axis=0))[0]
    if missing.size:
        raise NetTooCoarse(f"no net point is eps-close to F at domain index {int(missing[0])}")
    keep = bitmaps.any(axis=1)
    bitmaps, net = bitmaps[keep], net[keep]
    if len(bitmaps) > _MAX_ELEMENTS:
        covered = np.zeros(len(F), dtype=bool)
        chosen = []
        for i, inside in enumerate(bitmaps):
            if (inside & ~covered).any():
                chosen.append(i)
                covered |= inside
        bitmaps, net = bitmaps[chosen], net[chosen]
    pou = build_partition_of_unity(F.domain, OpenCover(F.domain, bitmaps))
    return pou.values.T @ net, pou, net


def approx_selection(F, eps, net):
    """Continuous eps-approximate selection f(x) = sum_i rho_i(x) v_i.

    The cover element of net point v is U_v = {x : d(v, F(x)) < eps}; the
    partition of unity is subordinate to it, so every active v at x lies
    within eps of the convex value and the combination inherits the bound.
    """
    net = np.atleast_2d(np.asarray(net, dtype=np.float64))
    if not bool(np.all(F.target.contains(net))):
        raise ValueError("net points must lie in the target set C")
    values, pou, net = _cover_average(F, net[_lex_sort(net)], eps)
    return SelectionResult(values=values, pou=pou, net=net, defects=_nearest(F, values)[1])


# ---------------------------------------------------------------------------
# the selection iteration


@dataclass
class MichaelResult:
    values: np.ndarray
    rounds: list          # dicts: {"k", "max_defect", "max_step"}
    defects: np.ndarray


def _adaptive_net(F, projections, cell):
    """Net points: the value-hull projections, snapped to the cell lattice
    and pulled back into C.  Deduped and lex-sorted."""
    snapped = F.target.project(lattice_round(projections, cell))
    snapped = dedupe_points(snapped, tol=1e-12)
    return snapped[_lex_sort(snapped)]


def michael_selection(F, tol=1e-3):
    """Iterated selection with logged defect and step invariants.

    Round k covers X by {x : F(x) meets B(f_k(x), 2^-(k+1)) near a net point}
    and averages net points through a partition of unity at scale 2^-(k+2).
    Margins (3/4 of each scale, lattice cell an eighth of the ball radius)
    make the cover guaranteed, the defect < 2^-(k+1) after round k, and the
    step bound sup_x |f_{k+1}(x) - f_k(x)| <= 2^-k hold exactly.

    Every round covers, so no round is retried.  Each domain point x has its
    own net point: the projection p of f_k(x) onto F(x), snapped to the
    lattice of cell 2^-(k+4)/sqrt(dim) and pulled back into C (nonexpansive,
    and p lies in C), so within cell * sqrt(dim) / 2 = 2^-(k+5) of p.  That
    is inside eps = 3 * 2^-(k+4), and its projection onto F(x) lies within
    d(f_k(x), F(x)) + 2^-(k+5) < 3 * 2^-(k+3) + 2^-(k+5) < r = 2^-(k+1) of
    the anchor f_k(x).  The first round has the same margin (cell
    1/(32 sqrt(dim)) against eps 3/16), with the projections of each
    value's hull-generator mean onto the value as its net and no ball.  The
    projections that give round k's defects seed round k+1's net, so each
    is computed once.  IterationStall still guards a round that leaves a
    point uncovered.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    dim_sqrt = math.sqrt(F.target.dim)
    means = np.empty((len(F), F.target.dim))
    for g in F.groups:
        means[g.rows] = g.stack.generators.mean(axis=1)
    start, _ = _nearest(F, means)
    try:
        values = _cover_average(F, _adaptive_net(F, start, 0.25 / (8.0 * dim_sqrt)),
                                0.75 * 0.25)[0]
    except NetTooCoarse:
        raise IterationStall(
            "initial approximate selection failed to cover the domain (k=1)") from None
    nearest, defects = _nearest(F, values)
    rounds = [{"k": 0, "max_defect": float(defects.max()), "max_step": None}]
    k = 1
    while 0.5 ** k >= tol:
        r = 0.5 ** (k + 1)
        eps = 0.75 * 0.5 ** (k + 2)
        cell = 0.5 ** (k + 4) / dim_sqrt
        try:
            new_values = _cover_average(F, _adaptive_net(F, nearest, cell), eps, values, r)[0]
        except NetTooCoarse:
            worst = int(np.argmax(defects))
            raise IterationStall(f"round k={k} left domain index {worst} uncovered") from None
        step = float(np.linalg.norm(new_values - values, axis=1).max())
        values = new_values
        nearest, defects = _nearest(F, values)
        rounds.append({"k": k, "max_defect": float(defects.max()), "max_step": step})
        k += 1
    return MichaelResult(values=values, rounds=rounds, defects=defects)


# ---------------------------------------------------------------------------
# dense families of selections


@dataclass
class FamilyMember:
    net_index: int
    m: int
    values: np.ndarray
    rounds: list
    restricted_count: int


def dense_selection_family(F, net, m_max, tol=1e-3):
    """Selections pinned near each net point at scales 1/m, one per (n, m).

    For net point v_n and m, U_nm = {x : F(x) meets B(v_n, 1/m)} is open.
    The paper pins a selection on each set of its closed exhaustion
    C_nmp = {x : d(x, X \\ U_nm) >= 1/p}, replacing the value there by
    cl(F(x) intersect B(v_n, 1/m)).  On a finite domain d(x, X \\ U_nm)
    takes finitely many values, so C_nmp = U_nm for every p >= 1/delta,
    delta the smallest positive one, and every earlier C_nmp lies inside
    U_nm.  Density only needs, for each x in U_nm, one member pinned at x,
    and the member pinned on all of U_nm is that member for every such x at
    once.  So member (n, m) is the selection of F pinned exactly where
    d(v_n, F(x)) < 1/m; members pinning no point share one selection of F,
    computed on first use.  Members are enumerated in lexicographic (n, m)
    order.
    """
    net = np.atleast_2d(np.asarray(net, dtype=np.float64))
    if not bool(np.all(F.target.contains(net))):
        raise ValueError("net points must lie in the target set C")
    plain = None  # the selection of F itself
    members = []
    _, value_dists = _project_all(F, net)
    for n in range(len(net)):
        for m in range(1, m_max + 1):
            radius = 1.0 / m
            pinned = value_dists[n] < radius
            if pinned.any():
                modified = F.restrict(np.broadcast_to(net[n], (len(F), net.shape[1])),
                                      np.where(pinned, radius, np.inf),
                                      name=f"{F.name}|n={n},m={m}")
                sel = michael_selection(modified, tol=tol)
            else:
                if plain is None:
                    plain = michael_selection(F, tol=tol)
                sel = plain
            members.append(FamilyMember(n, m, sel.values, sel.rounds, int(pinned.sum())))
    return members


def density_audit(members, F, metric=None):
    """Worst distance from any value generator to the nearest family member.

    metric(points_a, points_b) -> pairwise row distances; defaults to L2.
    Returns the audit gap and one row (point index, generator index,
    generator, distance) per audited generator, in row order; rows with a
    ball have no generators to audit.
    """
    if metric is None:
        metric = lambda a, b: np.linalg.norm(a - b, axis=1)
    stacked = np.stack([mem.values for mem in members])  # (members, points, dim)
    worst = 0.0
    rows = []
    for i, gens in F.generators().items():
        at_i = stacked[:, i]
        for g, w in enumerate(gens):
            best = float(np.min(metric(at_i, np.broadcast_to(w, at_i.shape))))
            rows.append((i, g, w, best))
            worst = max(worst, best)
    return worst, rows


# ---------------------------------------------------------------------------
# lower-continuity surrogate


def check_lower_continuity(F, probes, slope=None):
    """Slope-bounded discrete surrogate of lower semicontinuity.

    ok iff d(v, F(x')) <= d(v, F(x)) + L d(x, x') + 1e-9 for every ordered
    adjacent pair (x, x') and probe v.  Reports the worst violation.
    """
    slope = F.slope_hint if slope is None else slope
    probes = np.atleast_2d(np.asarray(probes, dtype=np.float64))
    dist = _project_all(F, probes)[1].T
    worst = {"x": None, "x_prime": None, "probe": None, "defect": -np.inf}
    ok = True
    for i, j in F.domain.adjacent_pairs():
        budget = slope * F.domain.pair_d[i, j] + 1e-9
        excess = dist[j] - dist[i] - budget
        a = int(np.argmax(excess))
        if excess[a] > worst["defect"]:
            worst = {"x": int(i), "x_prime": int(j), "probe": a, "defect": float(excess[a])}
        if excess[a] > 0:
            ok = False
    return {"ok": ok, "slope": slope, "worst": worst}


# ---------------------------------------------------------------------------
# bundled test maps


def _interval_value(lo, hi):
    return np.array([[lo], [hi]])


_UNIT1 = np.array([[0.0], [1.0]])
_UNIT2 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])


def _bundled(name, dim, values, slope_hint):
    """The BUNDLED_MAPS entry of a map on the 1-D grid into [0, 1] (dim 1) or
    the 2-D grid into the unit square (dim 2), with value values(p) at p."""
    def build(n1d=101, n2d=11):
        dom = grid_domain_1d(n1d) if dim == 1 else grid_domain_2d(n2d, n2d)
        points = dom.points[:, 0] if dim == 1 else dom.points
        return SetValuedMap(dom, [values(p) for p in points],
                            HullTarget(_UNIT1 if dim == 1 else _UNIT2),
                            name=name, slope_hint=slope_hint)
    return name, build


def _rotating(p):
    theta = 0.5 * np.pi * p[0]
    c, s = 0.3 * np.cos(theta), 0.3 * np.sin(theta)
    return np.array([[0.5 - c, 0.5 - s], [0.5 + c, 0.5 + s]])


# Ten lower-continuous convex-valued maps used across tests and demos:
# BUNDLED_MAPS[name](n1d, n2d) builds one, on the n1d-point 1-D grid or the
# n2d x n2d 2-D grid.
BUNDLED_MAPS = dict([
    _bundled("constant-interval", 1, lambda x: _interval_value(0.0, 1.0), 1.0),
    _bundled("sliding-left-end", 1, lambda x: _interval_value(x, 1.0), 2.0),
    _bundled("growing-right-end", 1, lambda x: _interval_value(0.0, max(x, 0.2)), 2.0),
    _bundled("sine-singleton", 1, lambda x: np.array([[0.5 + 0.4 * np.sin(2 * np.pi * x)]]),
             4.0),
    _bundled("sine-band", 1, lambda x: _interval_value(
        max(0.0, 0.5 + 0.3 * np.sin(2 * np.pi * x) - 0.2),
        min(1.0, 0.5 + 0.3 * np.sin(2 * np.pi * x) + 0.2)), 4.0),
    _bundled("vee-band", 1, lambda x: _interval_value(abs(x - 0.5), 1.0 - 0.2 * abs(x - 0.5)),
             2.0),
    _bundled("vertical-segment", 2, lambda p: np.array([[p[0], 0.0], [p[0], 1.0]]), 2.0),
    _bundled("rotating-segment", 2, _rotating, 2.0),
    _bundled("rising-triangle", 2,
             lambda p: np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2 + 0.6 * max(p[0], 0.05)]]),
             2.0),
    _bundled("constant-square", 2, lambda p: _UNIT2, 1.0),
])


def jump_map(n1d=101):
    """The discontinuous witness: F(x) = {0} for x < 1/2, {1} afterwards."""
    dom1 = grid_domain_1d(n1d)
    vals = [np.array([[0.0]]) if x < 0.5 else np.array([[1.0]]) for x in dom1.points[:, 0]]
    return SetValuedMap(dom1, vals, HullTarget(_UNIT1), name="jump", slope_hint=4.0)
