"""Partitions of unity and continuous selections on discrete domains.

Domains are finite metric grids standing in for a metric space X; set-valued
maps carry one convex value per grid point.  Values live in Euclidean
coordinates: a value is either the hull of a few generators (`HullValue`,
which is `hulls.HullProjector`) or such a hull intersected with one closed
ball (`BallRestrictedValue`, the restricted maps of the dense family).
The selection iteration keeps two logged invariants at every grid point:
membership defect < 2^-(k+1) after round k and sup-step <= 2^-k between
consecutive rounds.

Value projections go through a diagonal and an all-pairs entry point, and
one cover-and-average step serves the approximate selection and each round.
A map stacks its values by generator count (see `hulls`), so each entry point
makes one kernel call per group, with each restricted row's ball riding along.
"""
from __future__ import annotations

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

    @property
    def dim(self):
        return self.points.shape[1]

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


HullValue = HullProjector  # a value that is the convex hull of a few generators


class BallRestrictedValue:
    """A hull intersected with a closed ball B(center, radius).

    Projections are exact: the parent hull enumerates its faces once, and
    each projection clips inside the faces' ball sections (see `hulls`).
    The intersection must be nonempty; `restrict_value` checks that before
    building one, and a tangent ball counts as meeting the hull.
    """

    def __init__(self, hull: HullValue, center, radius):
        self.hull = hull
        self.center = np.asarray(center, dtype=np.float64)
        self.radius = float(radius)
        self.generators = None  # no finite generator description

    def project(self, points):
        return self.hull.project(points, self.center, self.radius)


def restrict_value(value: HullValue, center, radius):
    """The value intersected with the closed ball B(center, radius).

    A point value is its own restriction.  A segment [a, b] stays a segment:
    the projection of an endpoint onto [a, b] intersected with the ball is
    that endpoint clipped to the ball, so both endpoints go once through the
    hull-and-ball kernel.  Larger hulls become a BallRestrictedValue sharing
    the value's faces.  Raises ValueError when the intersection is empty, and
    when the value already has a ball: a BallRestrictedValue holds one ball.
    """
    return _restrict([value], [0], np.array([True]), center, radius)[0]


def _restrict(values, rows, pinned, center, radius, stack=None):
    """restrict_value of each value (named by rows) where pinned is set, and
    the value itself elsewhere.  stack holds the values' faces (the one
    value's own when None), so the emptiness check and the segment clip are
    one kernel call each for all the values."""
    for i, v, pin in zip(rows, values, pinned):
        if pin and isinstance(v, BallRestrictedValue):
            raise ValueError(f"the value at row {i} is already restricted to a ball;"
                             " a value holds one ball")
    stack = values[0].stack if stack is None else stack
    center = np.asarray(center, dtype=np.float64)
    radius = float(radius)
    balls = stack.balls(np.broadcast_to(center, (len(values), len(center))),
                        np.where(pinned, radius, np.inf))
    if not np.isfinite(stack.project(center[None, None, :], balls)[1]).all():
        raise ValueError(f"the ball B({center.tolist()}, {radius}) misses the hull")
    k = stack.generators.shape[1]
    if k == 1:
        return list(values)
    if k == 2:
        ends = stack.project(stack.generators.swapaxes(0, 1), balls)[0]
        return [HullValue(ends[:, i]) if pin else v
                for i, (v, pin) in enumerate(zip(values, pinned))]
    return [BallRestrictedValue(v, center, radius) if pin else v
            for v, pin in zip(values, pinned)]


class SetValuedMap:
    """One convex value per domain point, inside a common convex target C."""

    def __init__(self, domain, values, target, name="", slope_hint=4.0):
        self.domain = domain
        if len(values) != len(domain):
            raise ValueError("one value per domain point")
        self.values = [v if isinstance(v, (HullValue, BallRestrictedValue)) else HullValue(v)
                       for v in values]
        gens = [v.generators for v in self.values if v.generators is not None]
        if gens and not bool(np.all(target.contains(np.concatenate(gens)))):
            raise ValueError("value generators must lie in the target set C")
        self.target = target
        self.name = name
        self.slope_hint = slope_hint
        self._groups = None

    def __len__(self):
        return len(self.values)

    @property
    def groups(self):
        """The values stacked by generator count, built on first use."""
        if self._groups is None:
            self._groups = _value_groups(self.values)
        return self._groups


@dataclass
class _ValueGroup:
    """The values of one generator count, stacked for the hull kernel."""

    rows: np.ndarray            # indices of the map's values in this group
    hulls: tuple                # each row's HullValue, the hull a ball restricts
    stack: HullStack
    balls: BallSections | None  # the rows' balls, radius inf on rows without one;
                                # None when no row has a ball


def _value_groups(values, reuse=()):
    """Stack the values by generator count, ascending.  A group holding the
    same hull objects as a group in reuse keeps that group's face stack and
    builds only the sections of its own balls."""
    hulls = [v.hull if isinstance(v, BallRestrictedValue) else v for v in values]
    counts = np.array([len(h.generators) for h in hulls])
    groups = []
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        members = tuple(hulls[i] for i in rows)
        stack = next((g.stack for g in reuse if len(g.hulls) == len(members)
                      and all(a is b for a, b in zip(g.hulls, members))), None)
        if stack is None:
            stack = HullStack(np.stack([h.generators for h in members]))
        balls = None
        row_values = [values[i] for i in rows]
        if any(isinstance(v, BallRestrictedValue) for v in row_values):
            plain = np.zeros(stack.generators.shape[2])
            balls = stack.balls(
                np.stack([v.center if isinstance(v, BallRestrictedValue) else plain
                          for v in row_values]),
                np.array([v.radius if isinstance(v, BallRestrictedValue) else np.inf
                          for v in row_values]))
        groups.append(_ValueGroup(rows, members, stack, balls))
    return groups


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
                restricted = list(F.values)
                for g in F.groups:
                    pin = pinned[g.rows]
                    if pin.any():
                        row_values = [F.values[i] for i in g.rows]
                        for i, w in zip(g.rows, _restrict(row_values, g.rows, pin, net[n], radius,
                                                          g.stack)):
                            restricted[i] = w
                modified = SetValuedMap(F.domain, restricted, F.target,
                                        name=f"{F.name}|n={n},m={m}", slope_hint=F.slope_hint)
                modified._groups = _value_groups(modified.values, reuse=F.groups)
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
    generator, distance) per audited generator.
    """
    if metric is None:
        metric = lambda a, b: np.linalg.norm(a - b, axis=1)
    stacked = np.stack([mem.values for mem in members])  # (members, points, dim)
    worst = 0.0
    rows = []
    for i in range(len(F)):
        gens = F.values[i].generators
        if gens is None:
            continue
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


def bundled_maps(n1d=101, n2d=11):
    """Ten lower-continuous convex-valued maps used across tests and demos."""
    dom1 = grid_domain_1d(n1d)
    dom2 = grid_domain_2d(n2d, n2d)
    unit1 = HullTarget(np.array([[0.0], [1.0]]))
    unit2 = HullTarget(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
    xs1 = dom1.points[:, 0]
    maps = []

    maps.append(SetValuedMap(dom1, [_interval_value(0.0, 1.0) for _ in xs1], unit1,
                             name="constant-interval", slope_hint=1.0))
    maps.append(SetValuedMap(dom1, [_interval_value(x, 1.0) for x in xs1], unit1,
                             name="sliding-left-end", slope_hint=2.0))
    maps.append(SetValuedMap(dom1, [_interval_value(0.0, max(x, 0.2)) for x in xs1], unit1,
                             name="growing-right-end", slope_hint=2.0))
    maps.append(SetValuedMap(dom1, [np.array([[0.5 + 0.4 * np.sin(2 * np.pi * x)]]) for x in xs1],
                             unit1, name="sine-singleton", slope_hint=4.0))
    maps.append(SetValuedMap(
        dom1,
        [_interval_value(max(0.0, 0.5 + 0.3 * np.sin(2 * np.pi * x) - 0.2),
                         min(1.0, 0.5 + 0.3 * np.sin(2 * np.pi * x) + 0.2)) for x in xs1],
        unit1, name="sine-band", slope_hint=4.0))
    maps.append(SetValuedMap(dom1, [_interval_value(abs(x - 0.5), 1.0 - 0.2 * abs(x - 0.5))
                                    for x in xs1], unit1, name="vee-band", slope_hint=2.0))

    pts2 = dom2.points
    maps.append(SetValuedMap(
        dom2, [np.array([[p[0], 0.0], [p[0], 1.0]]) for p in pts2], unit2,
        name="vertical-segment", slope_hint=2.0))

    def rotating(p):
        theta = 0.5 * np.pi * p[0]
        c, s = 0.3 * np.cos(theta), 0.3 * np.sin(theta)
        return np.array([[0.5 - c, 0.5 - s], [0.5 + c, 0.5 + s]])

    maps.append(SetValuedMap(dom2, [rotating(p) for p in pts2], unit2,
                             name="rotating-segment", slope_hint=2.0))
    maps.append(SetValuedMap(
        dom2,
        [np.array([[0.2, 0.2], [0.8, 0.2], [0.5, 0.2 + 0.6 * max(p[0], 0.05)]]) for p in pts2],
        unit2, name="rising-triangle", slope_hint=2.0))
    maps.append(SetValuedMap(dom2, [unit2.generators for _ in pts2], unit2,
                             name="constant-square", slope_hint=1.0))
    return maps


def jump_map(n1d=101):
    """The discontinuous witness: F(x) = {0} for x < 1/2, {1} afterwards."""
    dom1 = grid_domain_1d(n1d)
    unit1 = HullTarget(np.array([[0.0], [1.0]]))
    vals = [np.array([[0.0]]) if x < 0.5 else np.array([[1.0]]) for x in dom1.points[:, 0]]
    return SetValuedMap(dom1, vals, unit1, name="jump", slope_hint=4.0)
