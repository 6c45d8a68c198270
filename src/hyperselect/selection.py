"""Partitions of unity and continuous selections on discrete domains.

Domains are finite metric grids standing in for a metric space X; set-valued
maps carry one convex value per grid point.  Values live in Euclidean
coordinates: a value is the hull of a few generators, intersected, on the
restricted maps of the dense family, with one closed ball.  A map holds its
values only as arrays grouped by generator count, each group a stack of
generators (V, k, dim) for the hull kernel (see `hulls`) with the sections
of its rows' balls.  Maps on one domain run in lockstep (`_Lockstep`): the
maps that hold one stack share each projection pass (diagonal,
all-pairs or gathered pairs) over it, split into kernel calls whose
temporaries stay under `hulls.KERNEL_ENTRIES` entries.  One
cover-and-average step serves the approximate selection and each round of
the iteration, for every map at once, which keeps two logged invariants at
every grid point: membership defect < 2^-(k+1) after round k and sup-step
<= 2^-k between consecutive rounds.  Every round after the first has an
anchor f_k(x), and a net point v can enter the cover element at x only
when d(v, F(x)) < eps and its projection lies within r of f_k(x), so only
when |v - f_k(x)| < eps + r, by the triangle inequality; those rounds
project only the (net point, row) pairs that pass this test.  A single map
is the one-map lockstep, so there is one selection path.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hulls import (BallSections, HullProjector, HullStack, capped_runs, dedupe_points,
                    lattice_round)
from .norms import InvariantViolation, UnsupportedNorm


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

    @cached_property
    def neighbours(self):
        """Each point's other points, nearest first, and their distances
        (n, n); the point itself comes last, at distance inf."""
        order = np.argsort(self.pair_d, axis=1, kind="stable")
        return order, np.take_along_axis(self.pair_d, order, axis=1)


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
        if self.bitmaps.shape[-1] != len(self.domain):
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

    The bitmaps may be a stack (..., n_elements, n_points) of covers, each
    with its own partition; an empty element gets rho = 0 and changes no
    other element's rho, so covers of different sizes stack padded with
    empty elements.  d(x, X \\ U) is the distance to x's nearest neighbour
    outside U, found from the domain's neighbour order among x's first |U|
    neighbours, |U| - 1 of which at most lie in U, in runs reading at most
    hulls.KERNEL_ENTRIES neighbour flags at once.
    """
    bitmaps = cover.bitmaps
    flat = bitmaps.reshape(-1, bitmaps.shape[-1])
    size = flat.sum(axis=1)
    full = size == flat.shape[1]
    dist_comp = np.zeros(flat.shape)
    dist_comp[full] = np.inf
    element, point = np.nonzero(flat & ~full[:, None])
    if element.size:
        order, sorted_d = domain.neighbours
        for run in capped_runs(element.size, int(size[element].max())):
            e, x = element[run], point[run]
            outside = ~flat[e[:, None], order[x, :int(size[e].max())]]
            dist_comp[e, x] = sorted_d[x, outside.argmax(axis=1)]
    dist_comp = dist_comp.reshape(bitmaps.shape)
    weights = 0.5 ** np.arange(1, bitmaps.shape[-2] + 1)
    g_n = weights[:, None] * np.minimum(1.0, dist_comp)
    g = g_n.max(axis=-2)
    uncovered = np.argwhere(g <= 0.0)
    if uncovered.size:
        raise NotACover(f"domain point index {int(uncovered[0, -1])} lies in no cover element")
    f_n = np.maximum(0.0, g_n - g[..., None, :] / 2.0)
    total = f_n.sum(axis=-2)
    rho = f_n / total[..., None, :]
    max_active = int((rho > 0).sum(axis=-2).max())
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
    """The value intersected with the closed ball B(center, radius), as a
    BallRestrictedValue sharing the value's faces: the one-row case of
    SetValuedMap.restrict, whose checks it runs."""
    if value.generators is None:
        raise ValueError("the value at row 0 is already restricted to a ball;"
                         " a value holds one ball")
    _restrict_group(_ValueGroup(np.zeros(1, dtype=np.intp), value.stack, None),
                    np.asarray(center, dtype=np.float64).reshape(1, 1, -1),
                    np.array([[radius]], dtype=np.float64), [""])
    return BallRestrictedValue(value, center, radius)


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


def _restrict_group(group, center, radius, names):
    """The group with its rows intersected with the closed balls
    B(center[j], radius[j]), one group per restriction j, for center
    (count, V, dim) and radius (count, V), radius inf on the rows left as
    they are.  Every restriction keeps the group's stack, and one that pins
    some row takes its balls, whatever the generator count: the kernel
    projects exactly onto a hull intersected with a ball.  Raises the
    ValueError of the first restriction that pins a row with a ball, naming
    its first such row; failing that, of the first restriction whose ball
    misses a hull, naming its first such row; either message starts with
    the restriction's name from names, when it has one.  The restrictions
    that pin some row take each kernel pass together, one set of balls per
    query row."""
    def refuse(j, message):
        raise ValueError(f"{names[j]}: {message}" if names[j] else message)

    pinned = np.isfinite(radius)
    old_center, old_radius = (0.0, np.inf) if group.balls is None else (
        group.balls.center, group.balls.radius)
    held = pinned & np.isfinite(old_radius)
    if held.any():
        j = held.any(axis=1).argmax()
        refuse(j, f"the value at row {int(group.rows[held[j].argmax()])} is"
                  " already restricted to a ball; a value holds one ball")
    restricted = [group] * len(radius)
    active = np.flatnonzero(pinned.any(axis=1))
    if not active.size:
        return restricted
    pinned, center, radius = pinned[active], center[active], radius[active]
    stack = group.stack
    balls = stack.balls(np.where(pinned[..., None], center, old_center),
                        np.where(pinned, radius, old_radius))
    missed = ~np.isfinite(stack.project_runs(balls.center, balls)[1])
    if missed.any():
        at = missed.any(axis=1).argmax()
        i = missed[at].argmax()
        refuse(active[at], f"the ball B({balls.center[at, i].tolist()}, {balls.radius[at, i]})"
                           f" misses the hull at row {int(group.rows[i])}")
    for at, j in enumerate(active):
        restricted[j] = _ValueGroup(group.rows, stack, balls.take(at))
    return restricted


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
        self.groups = [_ValueGroup(rows, HullStack(stack), None)
                       for rows, stack in _by_count(deduped)]
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
        B(center[i], radius[i]), radius inf on the rows left as they are.
        It keeps every stack of this map, and a group with a pinned row
        takes the balls.  Raises ValueError, its message led by the name
        when there is one, when a ball misses its hull or pins a row with a
        ball."""
        (restricted,) = self.restrict_each(np.asarray(center, dtype=np.float64)[None],
                                           np.asarray(radius, dtype=np.float64)[None], [name])
        return restricted

    def restrict_each(self, center, radius, names):
        """self.restrict(center[j], radius[j], names[j]) for each j, in one
        pass per group over the rows of every restriction: restriction j
        keeps every stack and holds group g's restricted group j (see
        `_restrict_group`).  Raises the ValueError of the first group that
        some restriction fails in, led by that restriction's name."""
        center = np.asarray(center, dtype=np.float64)
        radius = np.asarray(radius, dtype=np.float64)
        split = [_restrict_group(g, center[:, g.rows], radius[:, g.rows], names)
                 for g in self.groups]
        restricted = []
        for j, name in enumerate(names):
            restricted.append(copy.copy(self))
            restricted[-1].groups, restricted[-1].name = [parts[j] for parts in split], name
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
# maps in lockstep: projections and the cover-and-average step

_MAX_ELEMENTS = 900
# slack on the triangle-inequality filter of the anchored cover passes,
# far above the ~1e-15 rounding of the distances it compares
_FILTER_MARGIN = 1e-9


@dataclass
class _Shared:
    """One stack and the maps that hold it.  A stack belongs to one set of
    rows, and a restriction keeps every stack, so a dense family's members
    share all of F's stacks."""

    rows: np.ndarray    # the domain rows of the stack's hulls
    stack: HullStack
    maps: np.ndarray    # the maps holding it, ascending
    balls: BallSections | None  # the maps' balls along a leading axis, one set per
                                # map, radius inf on rows without a ball; None
                                # when no map has one


class _Lockstep:
    """Maps on one domain and into one target, projected together.  The
    maps that hold one stack fold into the query axis of its kernel calls,
    each query row with its own map's balls, so a pass makes one call per
    stack, not one per map, split where a call's temporaries would pass
    hulls.KERNEL_ENTRIES entries.  The maps keep their own stacks and balls;
    each shared stack's balls are stacked once, and a call gathers its query
    rows' sets by map (HullStack.project_runs)."""

    def __init__(self, maps):
        self.domain, self.target, self.count = maps[0].domain, maps[0].target, len(maps)
        holders = {}
        for i, G in enumerate(maps):
            for g in G.groups:
                holders.setdefault(id(g.stack), []).append((i, g))
        self.shared = []
        for parts in holders.values():
            rows, stack = parts[0][1].rows, parts[0][1].stack
            balls = None
            if any(g.balls is not None for _, g in parts):
                # radius inf projects to the same bits as no ball
                plain = stack.balls(np.zeros(stack.generators[:, 0].shape),
                                    np.full(len(rows), np.inf))
                balls = BallSections.stacked([plain if g.balls is None else g.balls
                                              for _, g in parts])
            self.shared.append(_Shared(rows, stack, np.array([i for i, _ in parts]), balls))

    def means(self):
        """Each value's start point (M, n, dim): its ball's centre on a row
        with a finite ball, its hull-generator mean on every other row."""
        means = np.empty((self.count, len(self.domain), self.target.dim))
        for s in self.shared:
            mean = s.stack.generators.mean(axis=1)
            if s.balls is not None:
                mean = np.where(s.balls.clipped, s.balls.center, mean)
            means[s.maps[:, None], s.rows] = mean
        return means

    def nearest(self, points):
        """Projections (M, n, dim) of points[i, x] onto map i's value at x,
        and their distances (M, n): one diagonal pass per stack."""
        proj, dist = np.empty(points.shape), np.empty(points.shape[:-1])
        for s in self.shared:
            at = (s.maps[:, None], s.rows)
            proj[at], dist[at] = s.stack.project_runs(points[at], s.balls)
        return proj, dist

    def nets(self, projections, cell):
        """Per map, the net of its projections (M, n, dim): snapped to the
        cell lattice and pulled back into C, deduped and lex-sorted.  The
        dedupe takes the maps in batches whose (n, n, dim) distance
        temporaries stay under hulls.KERNEL_ENTRIES entries."""
        count, n, dim = projections.shape
        snapped = self.target.project(lattice_round(projections, cell).reshape(
            -1, dim)).reshape(projections.shape)
        return [net[_lex_sort(net)] for run in capped_runs(count, n * n * dim)
                for net in dedupe_points(snapped[run])]

    def cover_average(self, nets, eps, anchors=None, r=None):
        """f(x) = sum_v rho_v(x) v for each map i, over the cover labelled by
        the points of nets[i]: self.average(nets, self.cover(nets, eps,
        anchors, r))."""
        return self.average(nets, self.cover(nets, eps, anchors, r))

    def cover(self, nets, eps, anchors=None, r=None):
        """The cover elements (M, max net size, n) of each map i over the
        points of nets[i], False past a map's net.

        The element of net point v is U_v = {x : d(v, F(x)) < eps}; given
        anchors (M, n, dim), it keeps only the x whose projection Pv of v
        onto F(x) lies within r of a = anchors[map, x].  Each net point is
        projected onto its own map's values only.  With no anchors, one
        all-pairs pass per stack projects the nets of the maps holding it,
        with no padding.  With anchors, an x in U_v has |v - Pv| < eps and
        |Pv - a| < r, so |v - a| < eps + r by the triangle inequality: the
        (net point, row) distance table to the anchors is taken first, and
        only the pairs within eps + r + _FILTER_MARGIN are projected, in one
        gathered pass per stack (HullStack.project_pairs); every other pair
        is outside its element.  A row's bits do not depend on the call
        that projects it, so each projected pair's bits, and so the cover,
        are those of the all-pairs pass.
        """
        n = len(self.domain)
        inside = np.zeros((self.count, max(len(net) for net in nets), n), dtype=bool)
        for s in self.shared:
            queries = np.concatenate([nets[i] for i in s.maps])
            sizes = [len(nets[i]) for i in s.maps]
            owner = np.repeat(np.arange(len(s.maps)), sizes)  # each query row's map, among s.maps
            point = np.concatenate([np.arange(size) for size in sizes])
            if anchors is None:
                dist = s.stack.project_runs(queries[:, None, :], s.balls, owner)[1]
                inside[s.maps[owner, None], point[:, None], s.rows] = dist < eps
                continue
            anchor = anchors[s.maps[owner, None], s.rows]
            q, h = np.nonzero(np.linalg.norm(queries[:, None, :] - anchor, axis=2)
                              < eps + r + _FILTER_MARGIN)
            proj, dist = s.stack.project_pairs(queries[q], h, s.balls, owner[q])
            inside[s.maps[owner[q]], point[q], s.rows[h]] = (
                (dist < eps) & (np.linalg.norm(proj - anchor[q, h], axis=1) < r))
        return inside

    def average(self, nets, inside):
        """Each map's values over its cover elements inside (see cover).
        Empty elements are dropped, and above _MAX_ELEMENTS a greedy pass
        keeps only elements that cover new points.  The partitions of unity
        are built for many maps at once, their covers padded with empty
        elements; each map's values are its own rho.T @ net.

        Returns the values (M, n, dim), the first domain index that no
        element covers per map (-1 for a cover), the partitions of unity
        (one per batch of maps) and the kept net points; when some map has
        no cover, only that index, with None for the rest.
        """
        n, dim = len(self.domain), self.target.dim
        covered = inside.any(axis=1)
        missing = np.where(covered.all(axis=1), -1, covered.argmin(axis=1))
        if (missing >= 0).any():
            return None, missing, None, None
        keep = inside.any(axis=2)
        kept = keep.sum(axis=1)
        # the kept elements first, in net order; the rest are empty
        order = np.argsort(~keep, axis=1, kind="stable")[:, :kept.max()]
        inside = np.take_along_axis(inside, order[:, :, None], axis=1)
        nets = [net[o[:c]] for net, o, c in zip(nets, order, kept)]
        for j in np.flatnonzero(kept > _MAX_ELEMENTS):
            covers = np.zeros(n, dtype=bool)
            chosen = []
            for e, element in enumerate(inside[j, :kept[j]]):
                if (element & ~covers).any():
                    chosen.append(e)
                    covers |= element
            inside[j, :len(chosen)] = inside[j, chosen]
            inside[j, len(chosen):] = False
            nets[j] = nets[j][chosen]
        values = np.zeros((self.count, n, dim))
        pous = []
        for run in capped_runs(self.count, inside.shape[1] * n):
            elements = max(len(net) for net in nets[run])
            pous.append(build_partition_of_unity(
                self.domain, OpenCover(self.domain, inside[run, :elements])))
            values[run] = [rho[:len(net)].T @ net
                           for rho, net in zip(pous[-1].values, nets[run])]
        return values, missing, pous, nets


def _project_all(F, queries):
    """Projections (n_queries, n_points, dim) and distances (n_queries,
    n_points) of every query onto every value."""
    proj = np.empty((len(queries), len(F), F.target.dim))
    dist = np.empty((len(queries), len(F)))
    for g in F.groups:
        proj[:, g.rows], dist[:, g.rows] = g.stack.project_runs(queries[:, None, :], g.balls)
    return proj, dist


def _lex_sort(points):
    order = np.lexsort(tuple(points[:, c] for c in range(points.shape[1] - 1, -1, -1)))
    return order


# ---------------------------------------------------------------------------
# approximate selection from an explicit net


@dataclass
class SelectionResult:
    values: np.ndarray          # (n_points, dim)
    pou: PartitionOfUnity
    net: np.ndarray             # net points used as cover labels, in order
    defects: np.ndarray         # d(f(x), F(x)) per domain point


def approx_selection(F, eps, net):
    """Continuous eps-approximate selection f(x) = sum_i rho_i(x) v_i.

    The cover element of net point v is U_v = {x : d(v, F(x)) < eps}; the
    partition of unity is subordinate to it, so every active v at x lies
    within eps of the convex value and the combination inherits the bound.
    """
    net = np.atleast_2d(np.asarray(net, dtype=np.float64))
    if not bool(np.all(F.target.contains(net))):
        raise ValueError("net points must lie in the target set C")
    run = _Lockstep([F])
    values, missing, pous, kept = run.cover_average([net[_lex_sort(net)]], eps)
    if missing[0] >= 0:
        raise NetTooCoarse(f"no net point is eps-close to F at domain index {missing[0]}")
    (pou,) = pous
    pou = PartitionOfUnity(OpenCover(F.domain, pou.cover.bitmaps[0]), pou.values[0],
                           pou.max_active)
    return SelectionResult(values=values[0], pou=pou, net=kept[0],
                           defects=run.nearest(values)[1][0])


# ---------------------------------------------------------------------------
# the selection iteration


@dataclass
class MichaelResult:
    values: np.ndarray
    rounds: list          # dicts: {"k", "max_defect", "max_step"}
    defects: np.ndarray


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
    1/(32 sqrt(dim)) against eps 3/16) and no anchor; its net is the
    projection onto each value of its start point (`_Lockstep.means`): the
    hull-generator mean, or the centre of a value's ball, so a row pinned to
    B(v, r) starts at the point of the value nearest v.  The projections
    that give round k's defects seed round k+1's net, so each is computed
    once.  IterationStall still guards a round that leaves a
    point uncovered.

    This is the one-map case of the lockstep iteration that runs a dense
    family's members together (`_michael_lockstep`): one code path.
    """
    (result,) = _michael_lockstep([F], tol)
    return result


def _michael_lockstep(maps, tol):
    """michael_selection for maps on one domain and into one target, run in
    lockstep, round by round: each round makes, over every map at once, one
    target projection, one batched dedupe, one cover pass and one diagonal
    pass per stack (the maps that share a stack share its passes; see
    `_Lockstep`) and one partition-of-unity pass.  Round 0's cover pass is
    all-pairs.  Round k >= 1 is anchored at f_k: a pair (net point v, row
    x) is a hit only when d(v, F(x)) < eps and |Pv - f_k(x)| < r, so only
    when |v - f_k(x)| < eps + r, and its cover pass projects only the pairs
    within that distance, gathered (`_Lockstep.cover`).  Only the lex sort of
    each net and the final rho.T @ net run map by map.  Every map takes the
    same number of rounds, and its values and rounds are bit for bit those
    of its own run.  Returns each map's MichaelResult.  The first round in
    which some map leaves a point uncovered raises IterationStall, naming
    the first such map in list order, the round and the map's first
    uncovered domain index."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    if not maps:
        return []
    run = _Lockstep(maps)

    def covered(k, nets, eps, anchors=None, r=None):
        values, missing, _, _ = run.cover_average(nets, eps, anchors, r)
        if values is None:
            i = int(np.flatnonzero(missing >= 0)[0])
            raise IterationStall(f"round k={k} left domain index {int(missing[i])} uncovered"
                                 f" in map {maps[i].name!r}"
                                 + (": the initial approximate selection failed" if k == 0
                                    else ""))
        return values

    dim_sqrt = math.sqrt(run.target.dim)
    start, _ = run.nearest(run.means())
    values = covered(0, run.nets(start, 0.25 / (8.0 * dim_sqrt)), 0.75 * 0.25)
    nearest, defects = run.nearest(values)
    rounds = [[{"k": 0, "max_defect": float(d.max()), "max_step": None}] for d in defects]
    k = 1
    while 0.5 ** k >= tol:
        r = 0.5 ** (k + 1)
        eps = 0.75 * 0.5 ** (k + 2)
        cell = 0.5 ** (k + 4) / dim_sqrt
        new_values = covered(k, run.nets(nearest, cell), eps, values, r)
        steps = np.linalg.norm(new_values - values, axis=2).max(axis=1)
        values = new_values
        nearest, defects = run.nearest(values)
        for logged, d, step in zip(rounds, defects, steps):
            logged.append({"k": k, "max_defect": float(d.max()), "max_step": float(step)})
        k += 1
    return [MichaelResult(values=v, rounds=logged, defects=d)
            for v, logged, d in zip(values, rounds, defects)]


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
    d(v_n, F(x)) < 1/m; members pinning no point share one selection of F.
    Members are enumerated in lexicographic (n, m) order.

    The members run in lockstep, one code path with michael_selection:
    their maps are built in one restriction over the members' rows
    (F.restrict_each), and they, with F once when some member pins
    nothing, run through one selection iteration (`_michael_lockstep`).
    Every restriction keeps F's stacks, so the members share all of them
    and none builds a stack, and a pinned row starts the iteration at the
    point of F(x) nearest v_n.  A restriction that fails raises its
    ValueError before any selection runs, its message led by the member's
    name (see `SetValuedMap.restrict_each`); otherwise the first round in
    which some member stalls raises the IterationStall of the first such
    member in (n, m) order.  A member is named F.name|n=...,m=..., and F
    itself F.name.
    """
    net = np.atleast_2d(np.asarray(net, dtype=np.float64))
    if not bool(np.all(F.target.contains(net))):
        raise ValueError("net points must lie in the target set C")
    members = [(n, m) for n in range(len(net)) for m in range(1, m_max + 1)]
    radius = np.array([1.0 / m for _, m in members])
    pinned = _project_all(F, net)[1][[n for n, _ in members]] < radius[:, None]
    held = np.flatnonzero(pinned.any(axis=1))  # the members that pin some point
    restricted = F.restrict_each(
        np.repeat(net[[members[j][0] for j in held]][:, None], len(F), axis=1),
        np.where(pinned[held], radius[held, None], np.inf),
        [f"{F.name}|n={members[j][0]},m={members[j][1]}" for j in held]) if held.size else []
    # each member's map, F for a member that pins nothing
    chosen = [F] * len(members)
    for j, G in zip(held, restricted):
        chosen[j] = G
    maps = list({id(G): G for G in chosen}.values())
    selections = dict(zip(map(id, maps), _michael_lockstep(maps, tol)))
    return [FamilyMember(n, m, selections[id(G)].values, selections[id(G)].rounds, int(count))
            for (n, m), G, count in zip(members, chosen, pinned.sum(axis=1))]


def density_audit(members, F, metric=None):
    """Worst distance from any value generator to the nearest family member.

    metric(points_a, points_b) -> pairwise row distances; defaults to L2.
    It is called on runs of generators from hulls.capped_runs, each run
    against every member, so a call's arrays stay under hulls.KERNEL_ENTRIES
    entries and a small audit takes one call.  Returns the audit gap and one
    row (point index, generator index, generator, distance) per audited
    generator, in row order; rows with a ball have no generators to audit.
    """
    if metric is None:
        metric = lambda a, b: np.linalg.norm(a - b, axis=1)
    stacked = np.stack([mem.values for mem in members])  # (members, points, dim)
    audited = [(i, g, w) for i, gens in F.generators().items() for g, w in enumerate(gens)]
    if not audited:
        return 0.0, []
    at = np.array([i for i, _, _ in audited])
    gens = np.stack([w for _, _, w in audited])
    best = np.empty(len(audited))
    for run in capped_runs(len(audited), len(members) * gens.shape[1]):
        a = stacked[:, at[run]].swapaxes(0, 1).reshape(-1, gens.shape[1])
        dists = np.asarray(metric(a, np.repeat(gens[run], len(members), axis=0)),
                           dtype=np.float64)
        best[run] = dists.reshape(-1, len(members)).min(axis=1)
    rows = [(i, g, w, float(b)) for (i, g, w), b in zip(audited, best)]
    return max([0.0] + [row[3] for row in rows]), rows


# ---------------------------------------------------------------------------
# lower semicontinuity


def check_lower_continuity(F):
    """Slope-bounded discrete lower semicontinuity, checked at every v.

    ok iff d(v, F(x')) <= d(v, F(x)) + L d(x, x') + 1e-9, L = F.slope_hint,
    for every v in R^dim and ordered pair (x, x') at most the mesh apart.
    For convex A and B, sup_v [d(v, B) - d(v, A)] = e(A, B) = sup_{a in A}
    d(a, B) (d(v, B) <= d(v, a) + d(a, B) for a the projection of v onto A;
    v = a attains it), and the convex d(., B) peaks over a hull at a
    generator: each value group projects its rows' adjacent values'
    generators in one (m, V, dim) kernel pass.  Reports the worst pair, the
    generator of F(x) witnessing it and the least passing slope, max
    e(F(x), F(x')) / d(x, x'); all None with no adjacent pair.  A row with a
    ball raises UnsupportedNorm: d(., B) need not peak at a generator there.
    """
    k = max(g.stack.generators.shape[1] for g in F.groups)
    padded = np.empty((len(F), k, F.target.dim))  # each row's generators, padded with its last
    for g in F.groups:
        if g.balls is not None:
            row = int(g.rows[np.isfinite(g.balls.radius).argmax()])
            raise UnsupportedNorm(f"the value at row {row} is restricted to a ball; the closed"
                                  " form needs its generators")
        gens = g.stack.generators
        padded[g.rows] = gens[:, np.minimum(np.arange(k), gens.shape[1] - 1)]
    order, pair_d = F.domain.neighbours  # each row's adjacent points lead its order
    adjacent = pair_d <= F.domain.mesh * (1 + 1e-9)
    slots = adjacent.sum(axis=1).max()
    if not slots:
        return {"ok": True, "slope": F.slope_hint, "least_slope": None,
                "worst": dict.fromkeys(("x", "x_prime", "witness", "defect"))}
    dist = np.empty((len(F), slots, k))  # [x', s, t]: neighbour s's generator t to F(x')
    for g in F.groups:
        queries = padded[order[g.rows, :slots]].reshape(len(g.rows), -1, F.target.dim)
        dist[g.rows] = g.stack.project_runs(queries.swapaxes(0, 1))[1].T.reshape(-1, slots, k)
    e = np.where(adjacent[:, :slots], dist.max(axis=2), -np.inf)
    defect = e - (F.slope_hint * pair_d[:, :slots] + 1e-9)
    at = np.unravel_index(defect.argmax(), defect.shape)
    return {"ok": bool(defect[at] <= 0), "slope": F.slope_hint,
            "least_slope": float((e / pair_d[:, :slots]).max()),
            "worst": {"x": int(order[at]), "x_prime": int(at[0]), "defect": float(defect[at]),
                      "witness": padded[order[at], dist[at].argmax()].tolist()}}


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
