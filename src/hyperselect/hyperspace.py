"""Operations on sampled closed sets: Hausdorff and Wijsman-style gaps,
open-ball hit tests, pushforwards, fattened intersections, shape reports.

Sets are norms.SampledSet values; all sup/inf over a set are taken over its
samples, lowered to the exact distance to an exact descriptor where
min_distance_oracle has one.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .norms import (
    SampledSet,
    DimensionMismatch,
    distances_to_points,
    dyadic_weights,
    eval_norm,
    l2,
    min_distance_oracle,
)

DEFAULT_MESH = 1e-3  # sampling mesh default in dimension <= 3
HIT_MARGIN = 1e-12

_CDIST_METRIC = {"l1": "cityblock", "l2": "euclidean", "linf": "chebyshev"}


class EmptyIntersection(RuntimeError):
    """Fattened intersection has no sample: the hit-test precondition failed."""


@dataclass(frozen=True)
class WijsmanProbe:
    """Probe points with positive weights summing to 1."""

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points))
        w = np.asarray(self.weights, dtype=np.float64)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)
        if len(w) != len(pts):
            raise DimensionMismatch("one weight per probe point")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")


def make_wijsman_probe(dim, count, seed=0, box=1.0, dyadic=False):
    """Deterministic probe family; dyadic=True gives weights 2^-m with the
    geometric tail collapsed onto the last probe so the sum is exactly 1."""
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-box, box, size=(count, dim))
    if dyadic:
        w = dyadic_weights(count)
        w[-1] *= 2.0  # collapse the tail: sum_{m>=count} 2^-m = 2^-(count-1)
    else:
        w = np.full(count, 1.0 / count)
    w = w / w.sum()
    return WijsmanProbe(points=pts, weights=w)


def pairwise_distances(p, q, spec):
    """(len(p), len(q)) matrix of spec-distances between point rows."""
    p, q = np.atleast_2d(p), np.atleast_2d(q)
    if spec.kind in _CDIST_METRIC and not (np.iscomplexobj(p) or np.iscomplexobj(q)):
        return cdist(p, q, metric=_CDIST_METRIC[spec.kind])
    if spec.kind == "l2":
        pr = np.concatenate([p.real, p.imag], axis=1)
        qr = np.concatenate([q.real, q.imag], axis=1)
        return cdist(pr, qr, metric="euclidean")
    out = np.empty((len(p), len(q)))
    for j, row in enumerate(q):
        out[:, j] = distances_to_points(row, p, spec)
    return out


def hausdorff_distance(a, b, spec):
    """Sampled Hausdorff distance: max of the two directed sup-min values."""
    d = pairwise_distances(a.points, b.points, spec)
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def wijsman_gap(a, b, probe, spec):
    """Probe-weighted gap sum_i w_i |d(p_i, A) - d(p_i, B)|."""
    gaps = [
        abs(min_distance_oracle(p, a, spec) - min_distance_oracle(p, b, spec))
        for p in probe.points
    ]
    return float(np.dot(probe.weights, gaps))


def hits_open_ball(f, x, r, spec):
    """True iff the set meets the open ball B(x, r): distance < r - 1e-12."""
    return min_distance_oracle(np.asarray(x), f, spec) < r - HIT_MARGIN


def pushforward(func, f):
    """Image set {func(p) : p in samples}; shape flags are recomputed because
    convexity and balancedness are not preserved in general."""
    images = np.array([np.asarray(func(p)) for p in f.points])
    report = shape_report(SampledSet(points=images), tol=1e-9)
    return SampledSet(points=images, convex=report["convex"], balanced=report["balanced"])


def fatten_intersect(x, f, r, spec):
    """Samples of F strictly inside B(x, r); raises EmptyIntersection if the
    hit test fails.  The strict radius filter mirrors the open-ball test."""
    x = np.asarray(x)
    dists = distances_to_points(x, f.points, spec)
    keep = dists < r - HIT_MARGIN
    if not keep.any():
        raise EmptyIntersection(f"no sample of the set lies in the open ball of radius {r}")
    if keep.all():
        return f
    pts = f.points[keep]
    balanced = bool(f.balanced and eval_norm(x, spec) <= HIT_MARGIN)
    return SampledSet(points=pts, convex=f.convex, balanced=balanced, exact=None)


_REAL_LAMBDAS = np.linspace(-1.0, 1.0, 9)


def _complex_lambdas():
    # 64-point polar grid on |lam| <= 1 plus the origin
    radii = np.array([0.25, 0.5, 0.75, 1.0])
    angles = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    lams = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    return np.concatenate([lams, [0.0 + 0.0j]])


_PAIR_CAP = 2000


def shape_report(f, tol):
    """Sampled balancedness and convexity flags.

    balanced: every lam * p with |lam| <= 1 on the scalar grid stays within
    tol of the samples; convex: midpoints of sample pairs stay within tol.
    Pair checks cap at 2000 deterministic pairs for large sample counts.
    """
    pts = f.points
    spec_l2 = l2()
    lams = _complex_lambdas() if np.iscomplexobj(pts) else _REAL_LAMBDAS
    balanced = True
    for lam in lams:
        scaled = lam * pts
        d = pairwise_distances(scaled, pts, spec_l2)
        if d.min(axis=1).max() > tol:
            balanced = False
            break
    n = len(pts)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if len(pairs) > _PAIR_CAP:
        stride = len(pairs) // _PAIR_CAP + 1
        pairs = pairs[::stride]
    convex = True
    if pairs:
        idx = np.array(pairs)
        mids = (pts[idx[:, 0]] + pts[idx[:, 1]]) / 2.0
        d = pairwise_distances(mids, pts, spec_l2)
        convex = bool(d.min(axis=1).max() <= tol)
    return {"balanced": balanced, "convex": convex}


def sample_segment(a, b, mesh=DEFAULT_MESH):
    """Evenly sampled closed segment [a, b] at spacing <= mesh."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    n = max(2, int(np.ceil(np.linalg.norm(b - a) / mesh)) + 1)
    t = np.linspace(0.0, 1.0, n)
    return SampledSet(points=a[None, :] + t[:, None] * (b - a)[None, :], convex=True)


def sample_axis_disc(radius, dim, axis=0, mesh=DEFAULT_MESH):
    """The disc {t e_axis : |t| <= radius} sampled at spacing <= mesh."""
    n = max(2, int(np.ceil(2 * radius / mesh)) + 1)
    t = np.linspace(-radius, radius, n)
    pts = np.zeros((n, dim))
    pts[:, axis] = t
    return SampledSet(points=pts, convex=True, balanced=True)
