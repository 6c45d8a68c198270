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
"""
from __future__ import annotations

import itertools

import numpy as np

GENERATOR_CAP = 12
_FEAS_TOL = 1e-12


class TooManyGenerators(ValueError):
    """Subset enumeration is exact but only affordable for small hulls."""


def dedupe_points(points, tol=1e-12):
    """Drop duplicate rows (within tol), preserving first-seen order."""
    points = np.atleast_2d(points)
    keep = []
    for i, p in enumerate(points):
        if all(np.linalg.norm(p - points[j]) > tol for j in keep):
            keep.append(i)
    return points[keep]


class HullProjector:
    """Exact L2 projection onto the convex hull of a few generator points."""

    def __init__(self, generators):
        g = dedupe_points(np.atleast_2d(np.asarray(generators, dtype=np.float64)))
        if len(g) > GENERATOR_CAP:
            raise TooManyGenerators(f"{len(g)} generators exceeds cap {GENERATOR_CAP}")
        self.generators = g
        self._faces = []
        for size in range(1, len(g) + 1):
            for subset in itertools.combinations(range(len(g)), size):
                gs = g[list(subset)]
                s = len(subset)
                kkt = np.zeros((s + 1, s + 1))
                kkt[:s, :s] = 2.0 * gs @ gs.T
                kkt[:s, s] = 1.0
                kkt[s, :s] = 1.0
                pinv = np.linalg.pinv(kkt)
                # lam = w @ p + b, linear in the query point p
                w = pinv[:s, :s] @ (2.0 * gs)
                b = pinv[:s, s]
                self._faces.append((gs, w, b))

    def project(self, points, center=None, radius=None):
        """Projections and distances for a batch of query points, onto the
        hull or, given center and radius, onto its intersection with the
        closed ball B(center, radius).

        Returns (projections (m, dim), distances (m,)).  Distances are inf
        when no candidate is feasible, that is, when the intersection is
        empty.  A ball tangent to the hull meets it.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
        m = len(pts)
        best_d2 = np.full(m, np.inf)
        best_proj = np.zeros_like(pts)
        for gs, w, b in self._faces:
            lam = pts @ w.T + b[None, :]
            if center is not None:
                # radial clip inside the ball's section by aff(gs); a squared
                # radius just below zero is a tangent touch after rounding
                lam_c = w @ center + b
                c_s = lam_c @ gs
                rho2 = radius * radius - float((center - c_s) @ (center - c_s))
                if rho2 < -_FEAS_TOL:
                    continue
                rho = np.sqrt(max(rho2, 0.0))
                off = np.linalg.norm(lam @ gs - c_s[None, :], axis=1)
                scale = np.ones(m)
                outside = off > rho
                scale[outside] = rho / off[outside]
                lam = lam_c[None, :] + scale[:, None] * (lam - lam_c[None, :])
            feasible = (lam >= -_FEAS_TOL).all(axis=1)
            if not feasible.any():
                continue
            proj = lam @ gs
            d2 = ((proj - pts) ** 2).sum(axis=1)
            d2[~feasible] = np.inf
            better = d2 < best_d2
            best_d2[better] = d2[better]
            best_proj[better] = proj[better]
        return best_proj, np.sqrt(best_d2)

    def distances(self, points):
        return self.project(points)[1]

    def contains(self, points, tol=1e-9):
        return self.distances(points) <= tol


def lattice_round(points, cell):
    """Snap points to the grid cell * Z^dim (deterministic net construction)."""
    return np.round(np.asarray(points) / cell) * cell
