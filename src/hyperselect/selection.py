"""Partitions of unity and continuous selections on discrete domains.

Domains are finite metric grids standing in for a metric space X; set-valued
maps carry one convex value per grid point.  Values live in Euclidean
coordinates: a value is the hull of a few generators, intersected, where a
row is pinned, with one closed ball.  A map holds its values only as arrays
grouped by generator count, each group a stack of generators (V, k, dim)
for the hull kernel (see `hulls`) with the sections of its rows' balls.  A
dense family's member is its map F with one set of balls, so the family
runs as F with M ball sets, in lockstep (`_Lockstep`): each group's stack
serves every set, the sets stacked along a leading axis of its balls, and
each projection pass (diagonal, all-pairs or gathered pairs) over it is
split into kernel calls whose temporaries stay under
`hulls.KERNEL_ENTRIES` entries.  One cover-and-average step serves the
approximate selection and each round of the iteration, for every set at
once, which keeps two logged invariants at every grid point: membership
defect < 2^-(k+1) after round k and sup-step <= 2^-k between consecutive
rounds.  Every round after the first has an anchor f_k(x), and a net point
v enters the cover element at x only when d(v, F(x)) < eps and its
projection lies within r of f_k(x).  So it cannot when |v - f_k(x)| >=
eps + r, by the triangle inequality, and it does when s = |v - p| < eps and
s + d < r, p the projection of f_k(x) onto F(x) and d its distance, which
the round already holds; those rounds project only the (net point, row)
pairs that neither bound settles.  A single selection is the lockstep with
F's own balls as its one set, so there is one selection path.
"""
from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .hulls import (BallSections, HullProjector, HullStack, capped_runs, dedupe_points,
                    first_seen, lattice_round)
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
    balls: BallSections | None  # the rows' balls, radius inf on rows without one,
                                # in a lockstep M sets of them (M, V); None when
                                # no row has a ball


def _by_count(arrays):
    """(positions, stacked arrays) for each array length, ascending."""
    counts = np.array([len(a) for a in arrays])
    return [(np.flatnonzero(counts == k), np.stack([a for a, c in zip(arrays, counts) if c == k]))
            for k in np.unique(counts)]


def _restrict_group(group, center, radius, names):
    """The group's balls under M restrictions, restriction j intersecting
    its rows with the closed balls B(center[j], radius[j]), for center
    (M, V, dim) and radius (M, V), radius inf on the rows left as they are:
    the sections of every restriction's balls along a leading set axis
    (M, V), a row keeping its own ball where it is left, or None when no
    restriction pins a row and the group holds no ball.  Every restriction
    keeps the group's stack, whatever the generator count: the kernel
    projects exactly onto a hull intersected with a ball.  Raises the
    ValueError of the first restriction that pins a row with a ball, naming
    its first such row; failing that, of the first restriction whose ball
    misses a hull, naming its first such row; either message starts with
    the restriction's name from names, when it has one.  Only the pinned
    (restriction, row) pairs can miss, and they are projected in one
    gathered pass (HullStack.project_pairs)."""
    def refuse(j, message):
        raise ValueError(f"{names[j]}: {message}" if names[j] else message)

    pinned = np.isfinite(radius)
    if group.balls is None and not pinned.any():
        return None
    old_center, old_radius = (0.0, np.inf) if group.balls is None else (
        group.balls.center, group.balls.radius)
    held = pinned & np.isfinite(old_radius)
    if held.any():
        j = held.any(axis=1).argmax()
        refuse(j, f"the value at row {int(group.rows[held[j].argmax()])} is"
                  " already restricted to a ball; a value holds one ball")
    stack = group.stack
    balls = stack.balls(np.where(pinned[..., None], center, old_center),
                        np.where(pinned, radius, old_radius))
    j, i = np.nonzero(pinned)  # in (restriction, row) order
    missed = np.isinf(stack.project_pairs(balls.center[j, i], i, balls, j)[1])
    if missed.any():
        at = missed.argmax()
        j, i = j[at], i[at]
        refuse(j, f"the ball B({balls.center[j, i].tolist()}, {balls.radius[j, i]})"
                  f" misses the hull at row {int(group.rows[i])}")
    return balls


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
        takes the balls: the one-set case of ball_sets.  Raises ValueError,
        its message led by the name when there is one, when a ball misses
        its hull or pins a row with a ball."""
        sets = self.ball_sets(np.asarray(center, dtype=np.float64)[None],
                              np.asarray(radius, dtype=np.float64)[None], [name])
        restricted = copy.copy(self)
        restricted.groups = [_ValueGroup(g.rows, g.stack, None if balls is None else balls.take(0))
                             for g, balls in zip(self.groups, sets)]
        restricted.name = name
        return restricted

    def ball_sets(self, center, radius, names):
        """Each group's balls under the M restrictions self.restrict(
        center[j], radius[j], names[j]), for center (M, n, dim) and radius
        (M, n): one set per restriction along a leading axis (M, V), or
        None for a group that none clips (see `_restrict_group`).  Raises
        the ValueError of the first group that some restriction fails in,
        led by that restriction's name."""
        return [_restrict_group(g, center[:, g.rows], radius[:, g.rows], names)
                for g in self.groups]


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


class _Lockstep:
    """One map F with M sets of balls on its values, projected together:
    under set i, each row's value is F's hull intersected with set i's ball
    there, radius inf on the rows the set leaves, as F.restrict would give
    it.  The lockstep holds F's value groups, each with its sets along a
    leading axis (M, V), or None when no set clips the group; sets defaults
    to F's own balls, the one set.  Every set folds into the query axis of
    a group's kernel calls, each query row taking its own set's balls
    (HullStack.project_runs), so a pass makes one call per group, not one
    per set, split where a call's temporaries would pass
    hulls.KERNEL_ENTRIES entries."""

    def __init__(self, F, sets=None, count=1):
        if sets is None:
            sets = [None if g.balls is None else g.balls.take(np.newaxis) for g in F.groups]
        self.domain, self.target, self.count = F.domain, F.target, count
        self.groups = [_ValueGroup(g.rows, g.stack, balls) for g, balls in zip(F.groups, sets)]

    def means(self):
        """Each value's start point (M, n, dim): its ball's centre on a row
        with a finite ball, its hull-generator mean on every other row."""
        means = np.empty((self.count, len(self.domain), self.target.dim))
        for g in self.groups:
            mean = g.stack.generators.mean(axis=1)
            if g.balls is not None:
                mean = np.where(g.balls.clipped, g.balls.center, mean)
            means[:, g.rows] = mean
        return means

    def nearest(self, points):
        """Projections (M, n, dim) of points[i, x] onto set i's value at x,
        and their distances (M, n): one diagonal pass per group."""
        proj, dist = np.empty(points.shape), np.empty(points.shape[:-1])
        for g in self.groups:
            proj[:, g.rows], dist[:, g.rows] = g.stack.project_runs(points[:, g.rows], g.balls)
        return proj, dist

    def nets(self, projections, cell):
        """The flat net of every set's projections (M, n, dim): each snapped
        to the cell lattice and pulled back into C, deduped within its set
        by one batched first-seen mask (hulls.first_seen), taken over
        batches of sets whose (n, n, dim) distance temporaries stay under
        hulls.KERNEL_ENTRIES entries, and sorted by (set, coordinates) in
        one lexsort.  Returns the points (Q, dim) and each point's set (Q,),
        ascending.  A deduped net has no ties, so set i's slice is its own
        net, deduped and lex-sorted."""
        count, n, dim = projections.shape
        snapped = self.target.project(lattice_round(projections, cell).reshape(
            -1, dim)).reshape(projections.shape)
        keep = np.concatenate([first_seen(snapped[run])
                               for run in capped_runs(count, n * n * dim)])
        points, owner = snapped[keep], np.nonzero(keep)[0]
        order = np.lexsort((*points.T[::-1], owner))
        return points[order], owner[order]

    def cover_average(self, net, eps, anchors=None, r=None, nearest=None):
        """f(x) = sum_v rho_v(x) v for each set i, over the cover labelled by
        set i's points of the flat net: self.average(net, self.cover(net,
        eps, anchors, r, nearest))."""
        return self.average(net, self.cover(net, eps, anchors, r, nearest))

    def cover(self, net, eps, anchors=None, r=None, nearest=None):
        """The cover elements (M, max net size, n) of each set i over its
        points of the flat net (points, owner) (see nets), in net order,
        False past a set's points.

        The element of net point v is U_v = {x : d(v, F(x)) < eps}, F(x)
        the value clipped by its set's ball; given anchors (M, n, dim), it
        keeps only the x whose projection Pv of v onto F(x) lies within r of
        a = anchors[set, x].  Each net point is projected onto its own set's
        values only, clipped by that set's balls.  With no anchors, one
        all-pairs pass per group projects them, with no padding.  With
        anchors, the pairs are settled by two bounds first, each with a
        _FILTER_MARGIN of slack for rounding:
        - outside: an x in U_v has |v - Pv| < eps and |Pv - a| < r, so
          |v - a| < eps + r by the triangle inequality; the (net point,
          row) distance table to the anchors is taken, and every pair
          beyond eps + r is outside its element;
        - inside: nearest = (p, d) holds the projection p (M, n, dim) of
          each anchor onto its value and its distance d (M, n).  p lies in
          F(x), so d(v, F(x)) <= s = |v - p|, and the projection onto F(x)
          is 1-Lipschitz and fixes p, so |Pv - a| <= s + d; a pair with
          s < eps and s + d < r is a hit.
        Only the pairs that neither bound settles are projected, in one
        gathered pass per group (HullStack.project_pairs), none when no
        such pair is left.  A row's bits do not depend on the call that
        projects it, so each projected pair's bits, and so the cover, are
        those of the all-pairs pass.
        """
        points, owner = net
        place, sizes = _places(owner, self.count)
        inside = np.zeros((self.count, sizes.max(), len(self.domain)), dtype=bool)
        for g in self.groups:
            if anchors is None:
                dist = g.stack.project_runs(points[:, None, :], g.balls, owner)[1]
                inside[owner[:, None], place[:, None], g.rows] = dist < eps
                continue
            anchor = anchors[owner[:, None], g.rows]
            q, h = np.nonzero(np.linalg.norm(points[:, None, :] - anchor, axis=2)
                              < eps + r + _FILTER_MARGIN)
            near, defect = nearest
            at = owner[q], g.rows[h]
            s = np.linalg.norm(points[q] - near[at], axis=1)
            hit = (s < eps - _FILTER_MARGIN) & (s + defect[at] < r - _FILTER_MARGIN)
            inside[owner[q[hit]], place[q[hit]], g.rows[h[hit]]] = True
            q, h = q[~hit], h[~hit]
            if q.size:
                proj, dist = g.stack.project_pairs(points[q], h, g.balls, owner[q])
                inside[owner[q], place[q], g.rows[h]] = (
                    (dist < eps) & (np.linalg.norm(proj - anchor[q, h], axis=1) < r))
        return inside

    def average(self, net, inside):
        """Each set's values over its cover elements inside (see cover), for
        the flat net (points, owner).  Empty elements are dropped, and above
        _MAX_ELEMENTS a greedy pass keeps only elements that cover new
        points, both by one keep mask, which then picks the kept points of
        the flat net.  The partitions of unity are built for many sets at
        once, their covers padded with empty elements; each set's values are
        its own rho.T @ net, over its slice of the kept flat net.

        Returns the values (M, n, dim), the first domain index that no
        element covers per set (-1 for a cover), the partitions of unity
        (one per batch of sets) and the kept flat net; when some set has no
        cover, only that index, with None for the rest.
        """
        n, dim = len(self.domain), self.target.dim
        covered = inside.any(axis=1)
        missing = np.where(covered.all(axis=1), -1, covered.argmin(axis=1))
        if (missing >= 0).any():
            return None, missing, None, None
        points, owner = net
        keep = inside.any(axis=2)
        for j in np.flatnonzero(keep.sum(axis=1) > _MAX_ELEMENTS):
            covers = np.zeros(n, dtype=bool)
            for e in np.flatnonzero(keep[j]):
                keep[j, e] = (inside[j, e] & ~covers).any()
                covers |= inside[j, e]
        kept = keep.sum(axis=1)
        # net point j of set i labels element j; the kept ones move up, in
        # net order, and the rest are empty
        held = keep[owner, _places(owner, self.count)[0]]
        points, owner = points[held], owner[held]
        place = _places(owner, self.count)[0]
        packed = np.zeros((self.count, kept.max(), n), dtype=bool)
        packed[owner, place] = inside[keep]
        start = np.cumsum(kept) - kept
        values = np.empty((self.count, n, dim))
        pous = []
        for run in capped_runs(self.count, packed.shape[1] * n):
            pous.append(build_partition_of_unity(
                self.domain, OpenCover(self.domain, packed[run, :kept[run].max()])))
            values[run] = [rho[:c].T @ points[s:s + c]
                           for rho, s, c in zip(pous[-1].values, start[run], kept[run])]
        return values, missing, pous, (points, owner)


def _places(owner, count):
    """Each point's index among its set's points in a flat net whose sets
    owner are ascending, and the net size (count,) of each set."""
    sizes = np.bincount(owner, minlength=count)
    return np.arange(len(owner)) - (np.cumsum(sizes) - sizes)[owner], sizes


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
    run = _Lockstep(F)
    values, missing, pous, kept = run.cover_average(
        (net[_lex_sort(net)], np.zeros(len(net), dtype=np.intp)), eps)
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
    that give round k's defects seed round k+1's net and, with their
    distances d, settle most of its cover without projecting (a net point
    v with |v - p| < eps and |v - p| + d < r lies in the element at x; see
    `_Lockstep.cover`), so each is computed once.  IterationStall still
    guards a round that leaves a point uncovered.

    This is the one-set case, F's own balls, of the lockstep iteration that
    runs a dense family's members together (`_michael_lockstep`): one code
    path.
    """
    (result,) = _michael_lockstep(F, tol)
    return result


def _michael_lockstep(F, tol, sets=None, names=None):
    """michael_selection for F under each of M sets of balls (see
    `_Lockstep`; sets defaults to F's own balls), run in lockstep, round by
    round: each round makes, over every set at once, one target
    projection, one batched dedupe, one cover pass and one diagonal pass
    per value group and one partition-of-unity pass.  Round 0's cover pass
    is all-pairs.  Round k >= 1 is anchored at f_k: a pair (net point v,
    row x) is a hit only when d(v, F(x)) < eps and |Pv - f_k(x)| < r, so
    only when |v - f_k(x)| < eps + r.  The previous round's diagonal pass
    gives the projection p of f_k(x) onto F(x) and its distance d, and the
    pair is a hit when s = |v - p| < eps and s + d < r.  The cover pass
    projects only the pairs that neither bound settles, gathered, and
    makes no call when none is left (`_Lockstep.cover`).  A round's
    nets are one flat array over every set, sorted in one lexsort
    (`_Lockstep.nets`), its kept elements one mask over it
    (`_Lockstep.average`), and its log the sets' largest defects and steps,
    read out in one list each.  Every set takes the same number of rounds,
    and its values and rounds are bit for bit those of michael_selection
    on F.restrict to that set.  Returns each set's MichaelResult.  The
    first round in which some set leaves a point uncovered raises
    IterationStall, naming from names (default [F.name]) the first such
    set, the round and the set's first uncovered domain index."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    names = [F.name] if names is None else names
    if not names:
        return []
    run = _Lockstep(F, sets, len(names))

    def covered(k, net, eps, anchors=None, r=None, nearest=None):
        values, missing, _, _ = run.cover_average(net, eps, anchors, r, nearest)
        if values is None:
            i = int(np.flatnonzero(missing >= 0)[0])
            raise IterationStall(f"round k={k} left domain index {int(missing[i])} uncovered"
                                 f" in map {names[i]!r}"
                                 + (": the initial approximate selection failed" if k == 0
                                    else ""))
        return values

    dim_sqrt = math.sqrt(run.target.dim)
    start, _ = run.nearest(run.means())
    values = covered(0, run.nets(start, 0.25 / (8.0 * dim_sqrt)), 0.75 * 0.25)
    nearest, defects = run.nearest(values)
    rounds = [[{"k": 0, "max_defect": d, "max_step": None}]
              for d in defects.max(axis=1).tolist()]
    k = 1
    while 0.5 ** k >= tol:
        r = 0.5 ** (k + 1)
        eps = 0.75 * 0.5 ** (k + 2)
        cell = 0.5 ** (k + 4) / dim_sqrt
        new_values = covered(k, run.nets(nearest, cell), eps, values, r, (nearest, defects))
        steps = np.linalg.norm(new_values - values, axis=2).max(axis=1)
        values = new_values
        nearest, defects = run.nearest(values)
        for logged, d, step in zip(rounds, defects.max(axis=1).tolist(), steps.tolist()):
            logged.append({"k": k, "max_defect": d, "max_step": step})
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

    The members run in lockstep, one code path with michael_selection: F
    runs once with one set of balls per member that pins some point, and
    one more, F's own balls, shared by every member that pins none
    (`_michael_lockstep`).  One index array sends each member to its set:
    a pinning member to its own, every other member to that of the first
    member pinning none.  The sets are built in one restriction pass over
    F's groups (SetValuedMap.ball_sets); every set keeps F's stacks, so no
    member builds a stack, and a pinned row starts the iteration at the
    point of F(x) nearest v_n.  A restriction that fails raises its
    ValueError before any selection runs, its message led by the member's
    name; otherwise the first round in which some member stalls raises the
    IterationStall of the first such member in (n, m) order.  A member is
    named F.name|n=...,m=..., and F's own set F.name.
    """
    net = np.atleast_2d(np.asarray(net, dtype=np.float64))
    if not bool(np.all(F.target.contains(net))):
        raise ValueError("net points must lie in the target set C")
    members = [(n, m) for n in range(len(net)) for m in range(1, m_max + 1)]
    radius = np.array([1.0 / m for _, m in members])
    pinned = _project_all(F, net)[1][[n for n, _ in members]] < radius[:, None]
    pins = pinned.any(axis=1)
    own = np.arange(len(members))
    own[~pins] = own[~pins][:1]
    chosen, index = np.unique(own, return_inverse=True)
    names = [f"{F.name}|n={members[j][0]},m={members[j][1]}" if pins[j] else F.name
             for j in chosen]
    sets = F.ball_sets(np.repeat(net[[members[j][0] for j in chosen]][:, None], len(F), axis=1),
                       np.where(pinned[chosen], radius[chosen, None], np.inf), names)
    selections = _michael_lockstep(F, tol, sets, names)
    return [FamilyMember(n, m, selections[i].values, selections[i].rounds, int(count))
            for (n, m), i, count in zip(members, index, pinned.sum(axis=1))]


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
