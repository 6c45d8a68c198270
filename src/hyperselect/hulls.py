"""Exact Euclidean geometry of small convex hulls.

A point's projection onto conv(G) lies in the relative interior of exactly
one face, so enumerating vertex subsets and solving each equality-constrained
least-squares problem gives the exact projection for small generator counts.
The per-subset solves are linear in the query, so batches are matmuls.

The same enumeration projects onto conv(G) intersected with a closed ball
B(c, r).  The projection p of q lies in the relative interior of some face
conv(S), so small moves inside aff(S) stay in the face and p is also the
projection of q onto aff(S) intersected with B.  That section is a ball in
aff(S), centred at the affine projection c_S of c, with squared radius
r^2 - |c - c_S|^2; projecting onto it is the affine projection followed by a
radial clip towards c_S.  Keeping the nearest feasible candidate over all
subsets gives the exact projection, with no iteration.

The face loop runs over a stack of V hulls that share a generator count k,
held as generators (V, k, dim).  For each face size the faces of every hull
are solved with one batched pseudo-inverse, and each projection handles all
faces of one size at once.  Queries carry the value axis too: (m, V, dim)
projects query row j of each hull v onto hull v, and (m, 1, dim) projects
every query onto every hull.  Each hull may have its own ball; an infinite
radius leaves that hull unclipped.  A single hull is the V = 1 stack.
"""
from __future__ import annotations

import itertools
from functools import cached_property

import numpy as np

GENERATOR_CAP = 12
_FEAS_TOL = 1e-12
CONTAINS_TOL = 1e-9  # distance at which a point counts as inside a convex set


class TooManyGenerators(ValueError):
    """Subset enumeration is exact but only affordable for small hulls."""


def dedupe_points(points, tol=1e-12):
    """Drop duplicate rows (within tol), preserving first-seen order: a row is
    dropped iff it lies within tol of an earlier row that is kept."""
    points = np.atleast_2d(points)
    dist = np.linalg.norm(points[:, None, :] - points[None, :, :], axis=-1)
    close = np.tril(dist <= tol, k=-1)  # close[j, i]: row i < j lies within tol
    keep = ~close.any(axis=1)
    # keep[j] depends only on keep[:j], so each sweep settles at least one
    # more row, and the fixed point is the first-seen rule
    while True:
        settled = ~(close & keep[None, :]).any(axis=1)
        if np.array_equal(settled, keep):
            return points[keep]
        keep = settled


class HullStack:
    """Faces of V hulls with k generators each, for exact projection."""

    def __init__(self, generators):
        g = np.asarray(generators, dtype=np.float64)  # (V, k, dim), rows deduped
        if g.shape[1] > GENERATOR_CAP:
            raise TooManyGenerators(f"{g.shape[1]} generators exceeds cap {GENERATOR_CAP}")
        self.generators = g
        self._faces = []  # per face size, each with a leading (V, faces) shape
        for s in range(1, g.shape[1] + 1):
            gs = g[:, list(itertools.combinations(range(g.shape[1]), s))]
            if s == 1:  # a vertex: lam = 1 exactly, where a solve leaves roundoff
                self._faces.append((gs, np.zeros_like(gs), np.ones(gs.shape[:-1])))
                continue
            kkt = np.zeros(gs.shape[:2] + (s + 1, s + 1))
            kkt[..., :s, :s] = 2.0 * gs @ gs.swapaxes(-1, -2)
            kkt[..., :s, s] = 1.0
            kkt[..., s, :s] = 1.0
            pinv = np.linalg.pinv(kkt)
            # lam = w @ p + b, linear in the query point p
            self._faces.append((gs, pinv[..., :s, :s] @ (2.0 * gs), pinv[..., :s, s]))

    def project(self, points, center=None, radius=None):
        """Projections (m, V, dim) and distances (m, V) of points (m, V, dim)
        or (m, 1, dim) onto each hull or, given center (V, dim) and radius
        (V,), onto its intersection with the closed ball B(center, radius).

        Distances are inf when no candidate is feasible, that is, when the
        intersection is empty.  A ball tangent to the hull meets it.  Among
        equally near candidates the first face in enumeration order wins.
        """
        if center is not None:
            clipped = np.isfinite(radius)[None, :, None, None]
        d2s, projs = [], []
        for gs, w, b in self._faces:
            lam = np.einsum("mvd,vfsd->mvfs", points, w) + b
            section = True
            if center is not None:
                # radial clip inside each ball's section by aff(gs); a squared
                # radius just below zero is a tangent touch after rounding
                lam_c = np.einsum("vd,vfsd->vfs", center, w) + b
                c_s = np.einsum("vfs,vfsd->vfd", lam_c, gs)
                rho2 = radius[:, None] ** 2 - ((center[:, None, :] - c_s) ** 2).sum(axis=-1)
                section = rho2 >= -_FEAS_TOL
                rho = np.sqrt(np.maximum(rho2, 0.0))
                off = np.sqrt(((np.einsum("mvfs,vfsd->mvfd", lam, gs) - c_s) ** 2).sum(axis=-1))
                outside = off > rho
                scale = np.divide(rho, off, out=np.ones(off.shape), where=outside)
                lam = np.where(clipped, lam_c + scale[..., None] * (lam - lam_c), lam)
            proj = np.einsum("mvfs,vfsd->mvfd", lam, gs)
            d2 = ((proj - points[:, :, None, :]) ** 2).sum(axis=-1)
            d2[~((lam >= -_FEAS_TOL).all(axis=-1) & section)] = np.inf
            d2s.append(d2)
            projs.append(proj)
        d2, proj = np.concatenate(d2s, axis=-1), np.concatenate(projs, axis=2)
        face = d2.argmin(axis=-1)  # the first nearest face in enumeration order
        best = np.take_along_axis(proj, face[:, :, None, None], axis=2)[:, :, 0]
        dist = np.sqrt(d2.min(axis=-1))
        best[np.isinf(dist)] = 0.0
        return best, dist


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
        HullStack.project.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        if center is not None:
            center = np.asarray(center, dtype=np.float64)[None, :]
            radius = np.array([float(radius)])
        proj, dist = self.stack.project(pts[:, None, :], center, radius)
        return proj[:, 0], dist[:, 0]

    def contains(self, points):
        return self.project(points)[1] <= CONTAINS_TOL


def lattice_round(points, cell):
    """Snap points to the grid cell * Z^dim (deterministic net construction)."""
    return np.round(np.asarray(points) / cell) * cell
