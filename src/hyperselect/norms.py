"""Finite-dimensional normed spaces, dual norms, probe metrics, and the exact
descriptors of sets: subspaces and discs.

Vectors and matrices are plain numpy arrays (float64 or complex128); a vector
is its coordinate array, dim = len(coords).  JSON output writes complex
scalars as [re, im] pairs so files stay language-neutral.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np


class DimensionMismatch(ValueError):
    """Input shapes do not match the space they are used in."""


class UnsupportedNorm(ValueError):
    """Norm spec does not apply to this input kind or operation."""


class OutsideUnitBall(ValueError):
    """Probe metrics only accept arguments from the operator-norm unit ball."""


class InvariantViolation(RuntimeError):
    """A check that holds on correct code failed inside a pipeline: a bug,
    not bad input.  The base of every such failure in the package."""


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
    if any(np.max(eval_norm(m, NormSpec("operator"))) > 1.0 + BALL_SLACK for m in mats):
        raise OutsideUnitBall("probe metrics are calibrated on the unit ball only")


def probe_metric(a, b, spec):
    """Probe pseudometric d(a, b) = rho(a - b) on the operator-norm unit ball."""
    a, b = np.asarray(a), np.asarray(b)
    require_probe_domain(spec, a, b)
    return eval_norm(a - b, spec)


ORTHO_TOL = 1e-10
SIDES = ("primal", "dual")


def orthonormal_rows(bases):
    """A basis (m, n), or a stack (..., m, n) of them, as Subspace stores
    it: real data as float64.  Raises ValueError unless the rows of every
    basis are orthonormal within ORTHO_TOL (Hermitian inner product)."""
    b = np.asarray(bases)
    if not np.iscomplexobj(b):
        b = b.astype(np.float64)
    if b.shape[-2]:
        gram = b @ np.swapaxes(b, -1, -2).conj()
        if np.abs(gram - np.eye(b.shape[-2])).max() > ORTHO_TOL:
            raise ValueError("basis rows must be orthonormal within 1e-10")
    return b


@dataclass(frozen=True)
class Subspace:
    """Exact descriptor: a finite-dimensional subspace with an orthonormal row
    basis, and with it the unit ball it cuts from its space's ball.

    side records which space it lives in: vectors ("primal") or
    functionals ("dual").  ambient is the norm of that space itself.
    """

    basis: np.ndarray
    ambient: NormSpec
    side: str

    def __post_init__(self):
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        object.__setattr__(self, "basis", orthonormal_rows(np.atleast_2d(self.basis)))

    @property
    def dim(self):
        return self.basis.shape[0]

    @property
    def ambient_dim(self):
        return self.basis.shape[1]

    def projector(self):
        """Euclidean orthogonal projector onto the span."""
        if self.dim == 0:
            n = self.ambient_dim
            return np.zeros((n, n), dtype=self.basis.dtype)
        return self.basis.T @ self.basis.conj()

    def project(self, x):
        return self.projector() @ np.asarray(x)


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


def _section_distance(x, V, spec):
    if V.ambient.kind == spec.kind == "l2":
        # x - Px is orthogonal to the span, so clip Px radially into the ball
        px = V.project(x)
        return float(np.hypot(np.linalg.norm(x - px), max(0.0, np.linalg.norm(px) - 1.0)))
    raise UnsupportedNorm(f"no exact distance to a {V.ambient.kind} section in the"
                          f" {spec.kind} metric")


# perfbench/tracer.py looks up `min_distance_oracle` here and `duality.linprog` by
# name, so both stay until the benchmark reads counters instead (ROADMAP item 2).
def linprog(*args, **kwargs):
    """`scipy.optimize.linprog`, imported only if called; no library path
    calls it.  `duality.linprog` is this same object."""
    from scipy.optimize import linprog as solve

    return solve(*args, **kwargs)


def min_distance_oracle(x, descriptor, spec):
    """Distance in the spec metric from x to the set a DiscFamily or a
    Subspace's unit ball describes.

    Exact routes: a query on a disc's own line, in any norm (closed form); an
    l2 Subspace's unit ball in the l2 metric (orthogonal projection, then a
    radial clip).  Any other descriptor, norm and query combination raises
    UnsupportedNorm.
    """
    x = np.asarray(x)
    if isinstance(descriptor, Subspace):
        return _section_distance(x, descriptor, spec)
    if isinstance(descriptor, DiscFamily):
        return _disc_distance(x, descriptor, spec)
    raise TypeError(f"unknown exact descriptor {type(descriptor).__name__}")


# ---------------------------------------------------------------------------
# JSON output: complex scalars as [re, im] pairs

def array_to_json(a):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        stacked = np.stack([a.real, a.imag], axis=-1)
        return stacked.tolist()
    return a.tolist()
