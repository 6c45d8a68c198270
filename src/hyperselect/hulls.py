"""Exact Euclidean geometry of small convex hulls.

A point's projection onto conv(G) lies in the relative interior of exactly
one face, so enumerating vertex subsets and solving each equality-constrained
least-squares problem gives the exact projection for small generator counts.
The per-subset solves are linear in the query, so a face's weights are one
affine map of the query.

The same enumeration projects onto conv(G) intersected with a closed ball
B(c, r).  The projection p of q lies in the relative interior of some face
conv(S), so small moves inside aff(S) stay in the face and p is also the
projection of q onto aff(S) intersected with B.  That section is a ball in
aff(S), centred at the affine projection c_S of c, with squared radius
r^2 - |c - c_S|^2; projecting onto it is the affine projection followed by a
radial clip towards c_S.  Keeping the nearest feasible candidate over all
subsets gives the exact projection, with no iteration.

The kernel runs over a stack of V hulls that share a generator count k,
held as generators (V, k, dim).  The faces of every size are solved once,
one batched pseudo-inverse per size, and all 2^k - 1 faces are held in k
generator slots: slot j holds generator j of every face that has one.  So
a hull's faces take k 2^(k-1) entries, one per (face, generator), and no
face carries zero columns.  The faces run by size, ascending, so the faces
in slot j are a suffix of the face axis.  A projection is one pass over
every face of every hull, slot by slot, with no loop over face sizes.
Queries carry the value axis too: (m, V, dim) projects query row j of
each hull v onto hull v, and (m, 1, dim) projects every query onto every
hull.  Each hull may have its own ball, and each query row its own set of
balls on the same faces; an infinite radius leaves that hull unclipped.
The balls' sections by the faces depend only on the stack and the balls,
so `HullStack.balls` builds them once and every projection against those
balls reuses them.  A single hull is the V = 1 stack.
`HullStack.project_runs` splits a projection along the query rows into
calls whose temporaries stay under `KERNEL_ENTRIES` entries.
`HullStack.project_pairs` projects a list of (point, hull) pairs, each
onto its own hull only, over the pairs' faces and ball sections gathered
in runs under the same cap (`HullStack.take` copies solved faces; it
solves nothing).

There is one contraction path, and it does not depend on the call's shape.
Per face, the weights lam = W p + b and the affine projection G^T lam are
each formed once, by broadcast multiply-adds taken coordinate by
coordinate and slot by slot, that is, generator by generator; squared
norms add the coordinates in turn, and each face's least weight takes the
slots in turn.  A ball clips in place: the clipped projection is
c_S + scale (proj - c_S), with the clipped weights kept only for the
feasibility test.  Elementwise operations round each entry alone, so a
query row's projection and distance are the same bits whatever else
shares its call: alone, in a full run, in the (m, 1) or the (m, V)
layout.  A library reduction, a matrix product or a sum along an axis,
may change its order with the operands' shapes, which would break that
rule.
"""
from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

GENERATOR_CAP = 12
_FEAS_TOL = 1e-12
CONTAINS_TOL = 1e-9  # distance at which a point counts as inside a convex set
# cap on the entries of one kernel call's temporaries: per (query, hull)
# pair, k 2^(k-1) face weights or 2^k - 1 face points of dim coordinates
KERNEL_ENTRIES = 2 ** 14


class TooManyGenerators(ValueError):
    """Subset enumeration is exact but only affordable for small hulls."""


def capped_runs(total, entries_each):
    """Slices splitting range(total) into runs of at most KERNEL_ENTRIES //
    entries_each items, at least one item each."""
    step = max(1, KERNEL_ENTRIES // max(1, entries_each))
    return [slice(start, start + step) for start in range(0, total, step)]


def _square_sum(x):
    """|x|^2 along the coordinate axis, the last but one, adding the
    coordinates in turn."""
    total = x[..., 0, :] ** 2
    for d in range(1, x.shape[-2]):
        total += x[..., d, :] ** 2
    return total


def first_seen(points, tol=1e-12):
    """The rows that dedupe_points keeps, as a mask (..., k) over points
    (..., k, dim): a row is dropped iff it lies within tol of an earlier row
    that is kept.  Leading axes are deduped apart, in one batched pass."""
    dist = np.linalg.norm(points[..., :, None, :] - points[..., None, :, :], axis=-1)
    close = np.tril(dist <= tol, k=-1)  # close[.., j, i]: row i < j lies within tol
    keep = ~close.any(axis=-1)
    # keep[j] depends only on keep[:j], so each sweep settles at least one
    # more row, and the fixed point is the first-seen rule
    while True:
        settled = ~(close & keep[..., None, :]).any(axis=-1)
        if np.array_equal(settled, keep):
            return keep
        keep = settled


def dedupe_points(points, tol=1e-12):
    """Drop duplicate rows (within tol), preserving first-seen order (see
    first_seen).  A stack (V, k, dim) is deduped hull by hull in one pass,
    into a list of V arrays."""
    points = np.atleast_2d(points)
    keep = first_seen(points, tol)
    return points[keep] if points.ndim == 2 else [p[k] for p, k in zip(points, keep)]


@dataclass(frozen=True)
class BallSections:
    """One closed ball B(center, radius) per hull of a stack, with its
    section by the affine hull of every face, as HullStack.project uses it.
    The sections depend only on the faces and the balls, so a caller that
    projects against the same balls many times builds them once."""

    # each field may carry leading axes, one set of balls per index
    center: np.ndarray    # (V, dim)
    radius: np.ndarray    # (V,), inf on hulls without a ball
    lam_c: np.ndarray     # (V, E) weights of each centre's affine projection c_S,
                          # in the stack's generator slots
    c_s: np.ndarray       # (V, dim, F) the section centres c_S
    rho: np.ndarray       # (V, F) section radii, 0 where a section is empty
    section: np.ndarray   # (V, F) the section is nonempty; a tangent touch counts
    clipped: np.ndarray   # (V, 1) the hull has a finite ball

    def take(self, index):
        """The sections of the sets of balls at index, along the leading axis."""
        return BallSections(*(getattr(self, f.name)[index] for f in dataclasses.fields(self)))


class HullStack:
    """Faces of V hulls with k generators each, for exact projection.

    The F = 2^k - 1 faces run by size, ascending, and in combinations order
    within a size, so the faces with more than j generators form a suffix
    [start_j:].  Slot j holds generator j of each of those faces, and the
    slots lie one after another along one axis of E = k 2^(k-1) entries per
    hull: `_slots` lists each slot's (start_j, entries) pair, the entries a
    slice of that axis.  The face generators and weight rows are held
    coordinates first, (V, dim, E), and the faces' points come out as
    (..., V, dim, F), so a coordinate's entries lie together."""

    def __init__(self, generators):
        g = np.asarray(generators, dtype=np.float64)  # (V, k, dim), rows deduped
        n_hulls, k, dim = g.shape
        if k > GENERATOR_CAP:
            raise TooManyGenerators(f"{k} generators exceeds cap {GENERATOR_CAP}")
        self.generators = g
        # all 2^k - 1 faces, sizes ascending and combinations order within a
        # size, each solved once and stored in its generators' slots
        self._slots = _slots(k)
        n_entries = self._slots[-1][1].stop
        self._g = np.empty((n_hulls, dim, n_entries))  # the face generators
        self._w = np.zeros((n_hulls, dim, n_entries))  # lam = w @ p + b, linear in p
        self._b = np.zeros((n_hulls, n_entries))
        first = 0  # the first face of size s
        for s in range(1, k + 1):
            gs = g[:, list(itertools.combinations(range(k), s))]
            # slot j's entries of these faces
            at = [slice(e.start + first - start, e.start + first - start + gs.shape[1])
                  for start, e in self._slots[:s]]
            first += gs.shape[1]
            for j in range(s):
                self._g[..., at[j]] = gs[:, :, j].swapaxes(1, 2)
            if s == 1:  # a vertex: lam = 1 exactly, where a solve leaves roundoff
                self._b[:, at[0]] = 1.0
                continue
            kkt = np.zeros(gs.shape[:2] + (s + 1, s + 1))
            kkt[..., :s, :s] = 2.0 * gs @ gs.swapaxes(-1, -2)
            kkt[..., :s, s] = 1.0
            kkt[..., s, :s] = 1.0
            pinv = np.linalg.pinv(kkt)
            w, b = pinv[..., :s, :s] @ (2.0 * gs), pinv[..., :s, s]
            for j in range(s):
                self._w[..., at[j]], self._b[:, at[j]] = w[:, :, j].swapaxes(1, 2), b[:, :, j]

    def take(self, index):
        """The stack of the hulls at index, with their solved faces copied
        in their generator slots, k 2^(k-1) entries per hull, not solved
        again."""
        taken = object.__new__(HullStack)
        taken.generators, taken._g, taken._w, taken._b = (
            self.generators[index], self._g[index], self._w[index], self._b[index])
        taken._slots = self._slots
        return taken

    @property
    def entries(self):
        """Entries of project's largest temporaries per (query, hull) pair:
        the k 2^(k-1) slot weights or the 2^k - 1 faces' dim coordinates,
        whichever are more."""
        _, k, dim = self.generators.shape
        return max(self._b.shape[1], (2 ** k - 1) * dim)

    def balls(self, center, radius):
        """The sections of the closed balls B(center (V, dim), radius (V,))
        by every face's affine hull.  A section is the ball in aff(S) centred
        at the affine projection c_S of the centre, with squared radius
        r^2 - |c - c_S|^2; one just below zero is a tangent touch after
        rounding.  Leading axes stack several sets of balls: center
        (m, V, dim) and radius (m, V) give one set per query row of
        project."""
        center = np.asarray(center, dtype=np.float64)
        radius = np.asarray(radius, dtype=np.float64)
        lam_c = self._weights(center)
        c_s = self._combine(lam_c)
        rho2 = radius[..., None] ** 2 - _square_sum(center[..., None] - c_s)
        return BallSections(center, radius, lam_c, c_s, np.sqrt(np.maximum(rho2, 0.0)),
                            rho2 >= -_FEAS_TOL, np.isfinite(radius)[..., None])

    def _weights(self, points):
        """Each face's weights lam = W p + b (..., V, E), in the generator
        slots, of points (..., V or 1, dim), summed coordinate by
        coordinate."""
        x = points[..., None]
        lam = x[..., 0, :] * self._w[:, 0]
        for d in range(1, points.shape[-1]):
            lam += x[..., d, :] * self._w[:, d]
        lam += self._b
        return lam

    def _combine(self, lam):
        """Each face's point G^T lam (..., V, dim, F), summed generator by
        generator: slot j adds into the faces [start_j:] that have a
        generator j."""
        (_, at), *rest = self._slots
        proj = lam[..., None, at] * self._g[..., at]
        for start, at in rest:
            faces = proj[..., start:]
            faces += lam[..., None, at] * self._g[..., at]
        return proj

    def project(self, points, balls=None):
        """Projections (m, V, dim) and distances (m, V) of points (m, V, dim)
        or (m, 1, dim) onto each hull or, given balls = self.balls(center,
        radius), onto each hull's intersection with its closed ball.  Balls
        built from (m, V) centres and radii give each query row its own.

        Distances are inf when no candidate is feasible, that is, when the
        intersection is empty.  A ball tangent to the hull meets it.  Among
        equally near candidates the first face in enumeration order wins.
        Each row's bits are those it gets projected alone.
        """
        lam = self._weights(points)
        proj = self._combine(lam)
        if balls is not None:
            # radial clip towards c_S inside each face's section, into this
            # call's own arrays: proj = c_S + scale (proj - c_S), and the
            # weights alike, each slot taking its faces' scale
            moved = proj - balls.c_s
            off = np.sqrt(_square_sum(moved))
            scale = np.divide(balls.rho, off, out=np.ones(off.shape), where=off > balls.rho)
            moved *= scale[..., None, :]
            moved += balls.c_s
            np.copyto(proj, moved, where=balls.clipped[..., None])
            moved = lam - balls.lam_c
            moved *= np.concatenate([scale[..., start:] for start, _ in self._slots], axis=-1)
            moved += balls.lam_c
            np.copyto(lam, moved, where=balls.clipped)
        d2 = _square_sum(proj - points[..., None])
        # each face's least weight, taken slot by slot into slot 0's entries
        (_, at), *rest = self._slots
        low = lam[..., at]
        for start, at in rest:
            faces = low[..., start:]
            np.minimum(faces, lam[..., at], out=faces)
        feasible = low >= -_FEAS_TOL
        if balls is not None:
            feasible &= balls.section
        d2[~feasible] = np.inf
        # the first nearest face in enumeration order, per (query, hull)
        at = (np.arange(len(d2))[:, None], np.arange(d2.shape[1]), d2.argmin(axis=-1))
        best, dist = proj[at[0], at[1], :, at[2]], np.sqrt(d2[at])
        best[np.isinf(dist)] = 0.0
        return best, dist

    def project_runs(self, points, balls=None, owner=None):
        """self.project(points, balls) in calls of at most KERNEL_ENTRIES
        temporaries, split along the query rows.  Balls hold one set per
        hull, or several sets along their leading axis, query row j taking
        set owner[j] (set j when owner is None); a call gathers its rows'
        sets with one index."""
        proj = np.empty((len(points), len(self.generators), points.shape[-1]))
        dist = np.empty(proj.shape[:-1])
        for run in capped_runs(len(points), len(self.generators) * self.entries):
            rows = balls
            if balls is not None and balls.radius.ndim > 1:
                rows = balls.take(run if owner is None else owner[run])
            proj[run], dist[run] = self.project(points[run], rows)
        return proj, dist

    def project_pairs(self, points, hulls, balls=None, owner=None):
        """Projections (P, dim) and distances (P,) of points[j] (P, dim) onto
        hull hulls[j] alone, taking ball set owner[j] of the sets that balls
        holds along its leading axis.  Each run projects its points in the
        (1, P) layout onto its pairs' gathered faces (self.take) and
        sections, so a pair gets the bits of its query row in any other
        layout.  A gathered hull's faces hold k 2^(k-1) dim slot entries, at
        least a pair's slot weights or face points in a kernel temporary or
        a gathered section, so runs are capped on them and all stay under
        KERNEL_ENTRIES entries."""
        proj, dist = np.empty(points.shape), np.empty(len(points))
        for run in capped_runs(len(points), self._w[0].size):
            rows = None if balls is None else balls.take((owner[run], hulls[run]))
            got = self.take(hulls[run]).project(points[None, run], rows)
            proj[run], dist[run] = got[0][0], got[1][0]
        return proj, dist


def _slots(k):
    """(start_j, entries) of each generator slot j of a k-generator stack:
    the faces [start_j:] that have a generator j, and the slice of the entry
    axis that holds it."""
    slots, stop = [], 0
    for j in range(k):
        start = sum(math.comb(k, s) for s in range(1, j + 1))
        slots.append((start, slice(stop, stop + 2 ** k - 1 - start)))
        stop = slots[-1][1].stop
    return tuple(slots)


class HullProjector:
    """Exact L2 projection onto the convex hull of a few generator points,
    deduped once; the faces are enumerated on the first projection."""

    def __init__(self, generators):
        self.generators = dedupe_points(np.atleast_2d(np.asarray(generators, dtype=np.float64)))

    @cached_property
    def stack(self):
        return HullStack(self.generators[None])

    def project(self, points, center=None, radius=None):
        """Projections and distances for a batch of query points, onto the
        hull or, given center and radius, onto its intersection with the
        closed ball B(center, radius).

        Returns (projections (m, dim), distances (m,)), as the V = 1 case of
        HullStack.project_runs.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        balls = None
        if center is not None:
            balls = self.stack.balls(np.asarray(center)[None, :], [float(radius)])
        proj, dist = self.stack.project_runs(pts[:, None, :], balls)
        return proj[:, 0], dist[:, 0]

    def contains(self, points):
        return self.project(points)[1] <= CONTAINS_TOL


def lattice_round(points, cell):
    """Snap points to the grid cell * Z^dim (deterministic net construction)."""
    return np.round(np.asarray(points) / cell) * cell
