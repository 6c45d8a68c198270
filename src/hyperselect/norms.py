"""Finite-dimensional normed spaces, dual norms, probe metrics, sampled sets.

Vectors and matrices are plain numpy arrays (float64 or complex128); a vector
is its coordinate array, dim = len(coords).  JSON output writes complex
scalars as [re, im] pairs so files stay language-neutral.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog


class DimensionMismatch(ValueError):
    """Input shapes do not match the space they are used in."""


class UnsupportedNorm(ValueError):
    """Norm spec does not apply to this input kind or operation."""


class OutsideUnitBall(ValueError):
    """Probe metrics only accept arguments from the operator-norm unit ball."""


class EmptySet(ValueError):
    """Sampled sets stand for nonempty closed sets and must carry points."""


UNIT_TOL = 1e-12
BALL_SLACK = 1e-9

VECTOR_KINDS = ("l1", "l2", "linf")
PROBE_KINDS = ("probe_weak", "probe_strong", "probe_strong_star")
MATRIX_KINDS = ("operator", "trace") + PROBE_KINDS


def dyadic_weights(length):
    """Weights 2^-n for n = 1..length (indexing starts at 1, not 0)."""
    return 0.5 ** np.arange(1, length + 1)


def _diagonal_pairs(length):
    # fixed surjection m -> (k_m, l_m): walk the anti-diagonals of N x N
    pairs = []
    for total in itertools.count(0):
        for k in range(total + 1):
            pairs.append((k, total - k))
            if len(pairs) == length:
                return np.array(pairs, dtype=np.int64)


def _integer_sphere(dim, total):
    # Integer vectors with 1-norm exactly `total` and a positive first nonzero
    # coordinate, each coordinate scanned from +total down to -total; the
    # scan is a budget-pruned recursion so high dimensions stay tractable.
    vec = [0] * dim

    def rec(pos, budget, signed):
        # signed: an earlier coordinate is nonzero, so this one may be negative
        if pos == dim - 1:
            for c in (budget, -budget) if signed and budget else (budget,):
                vec[pos] = c
                yield tuple(vec)
            vec[pos] = 0
            return
        for c in range(budget, -budget - 1 if signed else -1, -1):
            vec[pos] = c
            yield from rec(pos + 1, budget - abs(c), signed or c != 0)
        vec[pos] = 0

    yield from rec(0, total, False)


@dataclass(frozen=True)
class ProbeSequence:
    """Ordered finite list of unit probe vectors plus the weak-form pairing."""

    vectors: np.ndarray  # (length, dim), rows of norm 1 within 1e-12
    pairing: np.ndarray  # (length, 2), index pairs (k_m, l_m) into vectors

    def __post_init__(self):
        norms = np.linalg.norm(self.vectors, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_TOL):
            raise ValueError("probe vectors must be unit vectors within 1e-12")
        if self.pairing.shape != (len(self.vectors), 2):
            raise DimensionMismatch("pairing must assign one (k,l) per probe index")
        if self.pairing.min() < 0 or self.pairing.max() >= len(self.vectors):
            raise ValueError("pairing indices out of range")

    @property
    def dim(self):
        return self.vectors.shape[1]

    def __len__(self):
        return len(self.vectors)


def make_probe_sequence(dim, length):
    """Deterministic probe sequence: unit vectors along the primitive integer
    vectors (gcd 1, first nonzero coordinate positive) by increasing 1-norm,
    each coordinate scanned from +t down to -t, truncated at `length`.

    The standard basis comes first, and each direction appears once up to
    sign, which a probe norm ||x xi|| cannot tell apart.  Dimension 1 has the
    one direction +1, so asking it for more raises ValueError.
    """
    if length < 1:
        raise ValueError(f"probe sequence length must be at least 1, got {length}")
    rows = []
    for total in itertools.count(1):
        if dim == 1 and total > 1:
            raise ValueError("dimension 1 has no probe direction beyond +1")
        for z in _integer_sphere(dim, total):
            if math.gcd(*z) == 1:
                rows.append(np.array(z, dtype=np.float64) / np.linalg.norm(z))
                if len(rows) == length:
                    return ProbeSequence(vectors=np.array(rows),
                                         pairing=_diagonal_pairs(length))


@dataclass(frozen=True)
class NormSpec:
    """Tagged norm choice; probe kinds carry their probe sequence and weights."""

    kind: str
    probes: ProbeSequence | None = None
    weights: np.ndarray | None = None

    def __post_init__(self):
        if self.kind not in VECTOR_KINDS + MATRIX_KINDS:
            raise UnsupportedNorm(f"unknown norm kind {self.kind!r}")
        if self.kind in PROBE_KINDS:
            if self.probes is None:
                raise UnsupportedNorm(f"{self.kind} needs a probe sequence")
            w = self.weights if self.weights is not None else dyadic_weights(len(self.probes))
            if len(w) != len(self.probes):
                raise DimensionMismatch("one weight per probe")
            if np.any(w <= 0) or w.sum() > 2.0 + UNIT_TOL:
                raise ValueError("weights must be positive and sum to at most 2")
            object.__setattr__(self, "weights", np.asarray(w, dtype=np.float64))
        elif self.probes is not None or self.weights is not None:
            raise UnsupportedNorm(f"{self.kind} takes no probes or weights")


def l1():
    return NormSpec("l1")


def l2():
    return NormSpec("l2")


def linf():
    return NormSpec("linf")


def operator_norm():
    return NormSpec("operator")


def trace_norm():
    return NormSpec("trace")


def probe_weak(probes, weights=None):
    return NormSpec("probe_weak", probes=probes, weights=weights)


def probe_strong(probes, weights=None):
    return NormSpec("probe_strong", probes=probes, weights=weights)


def probe_strong_star(probes, weights=None):
    return NormSpec("probe_strong_star", probes=probes, weights=weights)


def eval_norm(x, spec):
    """Norm of a vector or matrix under `spec`, or of each one in a stack.

    l1/l2/linf reduce the last axis of x (..., dim).  The matrix kinds reduce
    the last two of x (..., d, d): operator and trace norms are the largest
    and the summed singular value; the probe kinds are the weighted probe
    sums (strong-* uses (||x xi|| + ||x* xi||)/2 per probe so every probe
    kind is dominated by the operator norm times the weight sum).  One
    vector or matrix gives a float, a stack an array of its leading shape.
    """
    x = np.asarray(x)
    if spec.kind in VECTOR_KINDS:
        a = np.abs(x)
        if spec.kind == "l1":
            out = a.sum(axis=-1)
        elif spec.kind == "l2":
            out = np.sqrt((a * a).sum(axis=-1))
        else:
            out = a.max(axis=-1, initial=0.0)
    else:
        out = _matrix_norm(x, spec)
    return float(out) if out.ndim == 0 else out


def _matrix_norm(x, spec):
    if x.ndim < 2 or x.shape[-1] != x.shape[-2]:
        raise DimensionMismatch(f"{spec.kind} norm needs square matrices, got shape {x.shape}")
    if spec.kind in ("operator", "trace"):
        s = np.linalg.svd(x, compute_uv=False)  # descending
        return s[..., 0] if spec.kind == "operator" else s.sum(axis=-1)
    probes = spec.probes
    if probes.dim != x.shape[-1]:
        raise DimensionMismatch("probe dimension does not match the matrix")
    w = spec.weights
    if spec.kind == "probe_weak":
        k, l = probes.pairing[:, 0], probes.pairing[:, 1]
        images = x @ probes.vectors[k].T  # column m = x xi_{k_m}
        vals = np.abs(np.einsum("md,...dm->...m", probes.vectors[l].conj(), images))
        return (vals * w).sum(axis=-1)
    vectors = probes.vectors.T.astype(x.dtype)
    strong = np.linalg.norm(x @ vectors, axis=-2)
    if spec.kind == "probe_strong":
        return (strong * w).sum(axis=-1)
    adj = np.linalg.norm(x.conj().swapaxes(-1, -2) @ vectors, axis=-2)
    return ((strong + adj) / 2.0 * w).sum(axis=-1)


_DUAL_OF = {"l1": "linf", "linf": "l1", "l2": "l2"}


def dual_kind(kind):
    if kind not in _DUAL_OF:
        raise UnsupportedNorm(f"dual norm only defined for l1/l2/linf, got {kind!r}")
    return _DUAL_OF[kind]


def require_probe_domain(spec, *mats):
    """Raise unless spec is a probe norm and every matrix lies in the
    operator-norm unit ball, where probe metrics are calibrated.  Each
    argument is a matrix or a stack of them."""
    if spec.kind not in PROBE_KINDS:
        raise UnsupportedNorm("probe_metric needs a probe norm spec")
    if any(np.max(eval_norm(m, operator_norm())) > 1.0 + BALL_SLACK for m in mats):
        raise OutsideUnitBall("probe metrics are calibrated on the unit ball only")


def probe_metric(a, b, spec):
    """Probe pseudometric d(a, b) = rho(a - b) on the operator-norm unit ball."""
    a, b = np.asarray(a), np.asarray(b)
    require_probe_domain(spec, a, b)
    return eval_norm(a - b, spec)


@dataclass(frozen=True)
class SubspaceBall:
    """Exact descriptor: unit ball of span(basis rows) under `ball_spec`."""

    basis: np.ndarray  # (k, dim) rows, linearly independent
    ball_spec: NormSpec

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis))
        object.__setattr__(self, "basis", b)
        if np.linalg.matrix_rank(b) < b.shape[0]:
            raise ValueError("subspace basis rows must be independent")


@dataclass(frozen=True)
class DiscFamily:
    """Exact descriptor: the disc {lam * direction : |lam| <= radius}."""

    direction: np.ndarray
    radius: float
    complex_scalars: bool = True

    def __post_init__(self):
        object.__setattr__(self, "direction", np.asarray(self.direction))
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")


@dataclass(frozen=True)
class SampledSet:
    """Finite stand-in for a nonempty closed set: samples plus an optional
    exact descriptor."""

    points: np.ndarray  # (count, dim)
    exact: SubspaceBall | DiscFamily | None = None

    def __post_init__(self):
        pts = np.atleast_2d(np.asarray(self.points))
        if pts.size == 0:
            raise EmptySet("a sampled set must contain at least one point")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self):
        return self.points.shape[1]

    def __len__(self):
        return len(self.points)


def distances_to_points(x, points, spec):
    """Vector of spec-distances from x to each row of points."""
    x = np.asarray(x)
    points = np.atleast_2d(points)
    if points.shape[1] != x.shape[0]:
        raise DimensionMismatch("point dimension mismatch")
    if spec.kind not in VECTOR_KINDS:
        raise DimensionMismatch(f"{spec.kind} norm needs matrices, not points")
    return eval_norm(points - x[None, :], spec)


def _disc_distance(x, disc, spec):
    # On the disc's own line x = mu * d, every norm gives
    # ||mu d - lam d|| = |mu - lam| ||d||, least at lam = mu clipped to radius.
    d = disc.direction
    dd = np.vdot(d, d).real
    if dd == 0.0:
        return eval_norm(x, spec)  # the disc is {0}
    mu = np.vdot(d, x) / dd
    if not disc.complex_scalars:
        mu = mu.real
    if np.linalg.norm(x - mu * d) > 1e-12 * max(1.0, np.linalg.norm(x)):
        raise UnsupportedNorm("no exact disc distance for a query off the disc's line")
    return max(0.0, abs(mu) - disc.radius) * eval_norm(d, spec)


def distance_lp(x, basis, kind, ball_kind=None):
    """`linprog` arguments for the real l1/linf distance from x to span(basis
    rows) or, given ball_kind, to its l1/linf unit-ball section.

    One LP in z = (c, t, u): minimize sum(t) subject to |x - c @ basis| <= t
    entrywise (one shared t for linf) and, with a ball only, |c @ basis| <= u,
    where u <= 1 for a linf ball and sum(u) <= 1 for an l1 ball.
    """
    if kind not in ("l1", "linf"):
        raise UnsupportedNorm(f"quotient distance not defined for kind {kind!r}")
    k, n = basis.shape
    gap = np.eye(n) if kind == "l1" else np.ones((n, 1))
    m = gap.shape[1]
    w = 0 if ball_kind is None else n  # the u columns
    point = np.hstack([basis.T, np.zeros((n, m + w))])
    t = np.hstack([np.zeros((n, k)), gap, np.zeros((n, w))])
    a_ub = np.vstack([point - t, -point - t])
    b_ub = np.concatenate([x, -x, np.zeros(2 * w)])
    if w:
        u = np.hstack([np.zeros((n, k + m)), np.eye(n)])
        a_ub = np.vstack([a_ub, point - u, -point - u])
    if ball_kind == "l1":
        a_ub = np.vstack([a_ub, np.concatenate([np.zeros(k + m), np.ones(n)])])
        b_ub = np.append(b_ub, 1.0)
    cost = np.concatenate([np.zeros(k), np.ones(m), np.zeros(w)])
    u_max = 1.0 if ball_kind == "linf" else None
    bounds = [(None, None)] * k + [(0, None)] * m + [(0, u_max)] * w
    return {"c": cost, "A_ub": a_ub, "b_ub": b_ub, "bounds": bounds, "method": "highs"}


def _subspace_ball_distance(x, ball, spec):
    ball_kind, kind = ball.ball_spec.kind, spec.kind
    if ball_kind == kind == "l2":
        # x - Px is orthogonal to the span, so clip Px radially into the ball
        _, _, vh = np.linalg.svd(ball.basis, full_matrices=False)
        coeff = vh.conj() @ x
        along = float(np.linalg.norm(coeff))
        return float(np.hypot(np.linalg.norm(x - coeff @ vh), max(0.0, along - 1.0)))
    complex_data = np.iscomplexobj(ball.basis) or np.iscomplexobj(x)
    polyhedral = ("l1", "linf")
    if ball_kind in polyhedral and kind in polyhedral and not complex_data:
        res = linprog(**distance_lp(x, ball.basis, kind, ball_kind))
        if not res.success:
            raise RuntimeError(f"section distance LP failed: {res.message}")
        return float(res.fun)
    raise UnsupportedNorm(f"no exact distance to a {ball_kind} section in the {kind} metric"
                          f" on {'complex' if complex_data else 'real'} data")


def min_distance_oracle(x, sset, spec):
    """Distance from x to a sampled set: the minimum over its samples, or the
    exact distance to its descriptor when it carries one.

    Exact routes: a query on a disc's own line, in any norm (closed form); an
    l2 subspace-ball section in the l2 metric (orthogonal projection, then a
    radial clip); a real l1/linf section in the l1/linf metric (one LP).  Any
    other descriptor, norm and query combination raises UnsupportedNorm.
    """
    x = np.asarray(x)
    # The sample scan stays even with a descriptor: a rescaled polar-grid
    # sample can sit one ulp outside the disc, where the closed form reads
    # 2.2e-16 and only the sample minimum returns the exact 0.0.
    base = float(distances_to_points(x, sset.points, spec).min())
    if sset.exact is None:
        return base
    if isinstance(sset.exact, SubspaceBall):
        exact = _subspace_ball_distance(x, sset.exact, spec)
    else:
        exact = _disc_distance(x, sset.exact, spec)
    return min(base, exact)


# ---------------------------------------------------------------------------
# JSON output: complex scalars as [re, im] pairs

def array_to_json(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        stacked = np.stack([a.real, a.imag], axis=-1)
        return stacked.tolist()
    return a.tolist()
