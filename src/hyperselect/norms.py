"""Finite-dimensional normed spaces, dual norms, probe metrics, sampled sets.

Vectors and matrices are plain numpy arrays (float64 or complex128); a vector
is its coordinate array, dim = len(coords).  JSON output writes complex
scalars as [re, im] pairs so files stay language-neutral.
"""
from __future__ import annotations

import itertools
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
    # Integer vectors with 1-norm exactly `total`, emitted in the same
    # lexicographic order as scanning [-total, total]^dim, but the scan is a
    # budget-pruned recursion so high dimensions stay tractable.
    vec = [0] * dim

    def rec(pos, budget):
        remaining = dim - pos - 1
        if remaining == 0:
            for c in (-budget, budget) if budget else (0,):
                vec[pos] = c
                yield tuple(vec)
            vec[pos] = 0
            return
        for c in range(-min(total, budget), min(total, budget) + 1):
            rest = budget - abs(c)
            if rest > remaining * total:
                continue
            vec[pos] = c
            yield from rec(pos + 1, rest)
        vec[pos] = 0

    yield from rec(0, total)


def _rational_directions(dim, count):
    """Unit vectors with rational coordinates, in a fixed enumeration order.

    Integer vectors are walked by increasing 1-norm then lexicographically;
    positive multiples of an already-emitted direction are skipped (-v is
    still emitted).  Dimension 1 has only the directions -1 and +1, so asking
    it for more raises ValueError.
    """
    out, seen = [], set()
    for total in itertools.count(1):
        if dim == 1 and total > 1:
            raise ValueError("dimension 1 has no rational direction beyond -1 and +1")
        for z in _integer_sphere(dim, total):
            v = np.array(z, dtype=np.float64)
            v /= np.linalg.norm(v)
            key = tuple(np.round(v, 12))
            if key in seen:
                continue
            seen.add(key)
            out.append(v)
            if len(out) == count:
                return out


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


def make_probe_sequence(dim, length, seed=0):
    """Deterministic probe sequence: standard basis first, then a fixed
    enumeration of rational-direction unit vectors, truncated at `length`.

    A nonzero seed swaps the rational tail for seeded random unit vectors;
    either way the output is a pure function of (dim, length, seed).
    """
    if length < 1:
        raise ValueError(f"probe sequence length must be at least 1, got {length}")
    rows = [np.eye(dim)[i] for i in range(min(dim, length))]
    extra = length - len(rows)
    if extra > 0:
        if seed == 0:
            rows.extend(_rational_directions(dim, extra))
        else:
            rng = np.random.default_rng(seed)
            g = rng.standard_normal((extra, dim))
            rows.extend(g / np.linalg.norm(g, axis=1, keepdims=True))
    vectors = np.array(rows[:length], dtype=np.float64)
    return ProbeSequence(vectors=vectors, pairing=_diagonal_pairs(length))


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


def _check_square(x, kind):
    x = np.asarray(x)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise DimensionMismatch(f"{kind} norm needs a square matrix, got shape {x.shape}")
    return x


def eval_norm(x, spec):
    """Norm of a vector or matrix under `spec`.

    l1/l2/linf read the flattened coordinates; operator and trace norms are
    the largest and the summed singular value; the probe kinds are the
    weighted probe sums (strong-* uses (||x xi|| + ||x* xi||)/2 per probe so
    every probe kind is dominated by the operator norm times the weight sum).
    """
    x = np.asarray(x)
    if spec.kind in VECTOR_KINDS:
        flat = np.abs(x.ravel())
        if spec.kind == "l1":
            return float(flat.sum())
        if spec.kind == "l2":
            return float(np.sqrt((flat * flat).sum()))
        return float(flat.max()) if flat.size else 0.0
    x = _check_square(x, spec.kind)
    if spec.kind == "operator":
        return float(np.linalg.norm(x, 2))
    if spec.kind == "trace":
        return float(np.linalg.svd(x, compute_uv=False).sum())
    probes = spec.probes
    if probes.dim != x.shape[0]:
        raise DimensionMismatch("probe dimension does not match the matrix")
    w = spec.weights
    if spec.kind == "probe_weak":
        k, l = probes.pairing[:, 0], probes.pairing[:, 1]
        images = x @ probes.vectors[k].T  # column m = x xi_{k_m}
        vals = np.abs(np.einsum("md,dm->m", probes.vectors[l].conj(), images))
        return float(np.dot(w, vals))
    images = x @ probes.vectors.T.astype(x.dtype)
    strong = np.linalg.norm(images, axis=0)
    if spec.kind == "probe_strong":
        return float(np.dot(w, strong))
    adj_images = x.conj().T @ probes.vectors.T.astype(x.dtype)
    adj = np.linalg.norm(adj_images, axis=0)
    return float(np.dot(w, (strong + adj) / 2.0))


_DUAL_OF = {"l1": "linf", "linf": "l1", "l2": "l2"}


def dual_kind(kind):
    if kind not in _DUAL_OF:
        raise UnsupportedNorm(f"dual norm only defined for l1/l2/linf, got {kind!r}")
    return _DUAL_OF[kind]


def require_probe_domain(spec, *mats):
    """Raise unless spec is a probe norm and every matrix lies in the
    operator-norm unit ball, where probe metrics are calibrated."""
    if spec.kind not in PROBE_KINDS:
        raise UnsupportedNorm("probe_metric needs a probe norm spec")
    for m in mats:
        if np.linalg.norm(m, 2) > 1.0 + BALL_SLACK:
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


def _pairwise_norms(diffs, spec):
    # diffs: (..., dim) batch of difference vectors, vector norms only
    if spec.kind == "l1":
        return np.abs(diffs).sum(axis=-1)
    if spec.kind == "l2":
        return np.sqrt((np.abs(diffs) ** 2).sum(axis=-1))
    if spec.kind == "linf":
        return np.abs(diffs).max(axis=-1)
    return np.array([eval_norm(d, spec) for d in diffs.reshape(-1, diffs.shape[-1])]).reshape(diffs.shape[:-1])


def distances_to_points(x, points, spec):
    """Vector of spec-distances from x to each row of points."""
    x = np.asarray(x)
    points = np.atleast_2d(points)
    if points.shape[1] != x.shape[0]:
        raise DimensionMismatch("point dimension mismatch")
    return _pairwise_norms(points - x[None, :], spec)


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
