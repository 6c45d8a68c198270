"""Polar duality between subspaces and dual-unit-ball geometry.

Functionals pair with vectors bilinearly, omega(x) = sum_j omega_j x_j, with
no conjugation; Hermitian inner products appear only in orthonormality checks
and Euclidean projections.  Distances to a subspace are always computed twice,
from the primal side (projection or linear program) and from the dual side
(support over the annihilator's unit ball), and reconciled: the identity
d(x, V) = sup {|omega(x)| : omega in the annihilator, dual norm <= 1} is the
point of the module, so it doubles as a built-in consistency check.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from .norms import (
    DiscFamily,
    NormSpec,
    SampledSet,
    SubspaceBall,
    UnsupportedNorm,
    distance_lp,
    distances_to_points,
    dual_kind,
    eval_norm,
    l2,
    linf,
    min_distance_oracle,
)

ORTHO_TOL = 1e-10
SIDES = ("primal", "dual")

class DualityMismatch(RuntimeError):
    """Primal and dual distance computations disagree; signals a bug."""


@dataclass(frozen=True)
class Subspace:
    """A finite-dimensional subspace with an orthonormal row basis.

    side records which space it lives in: vectors ("primal") or
    functionals ("dual").  ambient is the norm of that space itself.
    """

    basis: np.ndarray
    ambient: NormSpec
    side: str

    def __post_init__(self):
        b = np.atleast_2d(np.asarray(self.basis))
        if not np.iscomplexobj(b):
            b = b.astype(np.float64)
        object.__setattr__(self, "basis", b)
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}")
        if b.shape[0]:
            gram = b @ b.conj().T
            if np.abs(gram - np.eye(b.shape[0])).max() > ORTHO_TOL:
                raise ValueError("basis rows must be orthonormal within 1e-10")

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


def subspace_from_spanning(vectors, ambient=None, side="primal"):
    """Orthonormalize a spanning list (SVD, deterministic) into a Subspace."""
    v = np.atleast_2d(np.asarray(vectors))
    ambient = ambient if ambient is not None else l2()
    _, s, vh = np.linalg.svd(v, full_matrices=False)
    rank = int((s > 1e-12 * max(1.0, s[0] if len(s) else 1.0)).sum())
    return Subspace(basis=vh[:rank], ambient=ambient, side=side)


def annihilator(V: Subspace) -> Subspace:
    """The functionals vanishing on V (or, from the dual side, the vectors
    killed by every functional in V).  Bilinear pairing: null space of the
    basis matrix, not of its conjugate."""
    b = V.basis
    n = V.ambient_dim
    if V.dim == 0:
        out = np.eye(n, dtype=b.dtype)
    else:
        _, s, vh = np.linalg.svd(b, full_matrices=True)
        rank = int((s > 1e-12).sum())
        out = vh[rank:].conj()  # bilinear null space; no-op for real bases
    side = "dual" if V.side == "primal" else "primal"
    return Subspace(basis=out, ambient=V.ambient, side=side)


# ---------------------------------------------------------------------------
# support functions


def exact_support(descriptor, x):
    """sup |omega(x)| over an exactly described balanced convex family."""
    x = np.asarray(x)
    if isinstance(descriptor, DiscFamily):
        return float(descriptor.radius * np.abs(descriptor.direction @ x))
    if isinstance(descriptor, SubspaceBall):
        basis = descriptor.basis
        kind = descriptor.ball_spec.kind
        if kind == "l2":
            # the l2 section depends only on the span; orthonormalize first,
            # then coefficient phases align every term of the bilinear pairing
            _, s, vh = np.linalg.svd(basis, full_matrices=False)
            rank = int((s > 1e-12 * s[0]).sum())
            return float(np.linalg.norm(vh[:rank] @ x, 2))
        if len(basis) == 1:
            scale = eval_norm(basis[0], descriptor.ball_spec)
            return float(np.abs(basis[0] @ x) / scale)
        return float(np.abs(ball_section_points(basis, kind) @ x).max())
    raise TypeError(f"unknown exact descriptor {type(descriptor).__name__}")


# ---------------------------------------------------------------------------
# polytope sections of polyhedral unit balls

_SECTION_DIM_CAP = 9


def ball_section_points(basis, kind):
    """Points of {omega in span(basis): ||omega||_kind <= 1}, the zero row
    first, including every vertex of the section, for kind l1 or linf and
    real, linearly independent basis rows.

    With omega = c @ basis, a vertex is the one c solving the equations of
    the ball's minimal face through it (a larger solution set would hold a
    segment through the vertex), and m independent ones among them fix it.
    For linf, m coordinates pinned to +-1.  For l1, m - 1 independent zero
    coordinates, which leave a line through the vertex, plus the signed-sum
    row over the other n - m + 1 coordinates, which meets that line once
    whatever the signs where the vertex is zero.  So the solutions of all
    C(n, m) 2^m (linf) or C(n, m - 1) 2^(n - m + 1) (l1) square systems that
    lie in the ball include every vertex; the others are in the section
    too, harmless for suprema, as are repeats.  A system is dropped before
    the one batched solve when its rows, scaled to unit length, span a
    volume |det A| / prod ||a_i|| <= 1e-12.  That volume is at most 1
    (Hadamard), 0 for a singular system, and bounds a kept one's smallest
    singular value below by volume / sqrt(m)^(m - 1), so its condition
    number is at most m^(m/2) 1e12.
    """
    if kind not in ("l1", "linf"):
        raise UnsupportedNorm(f"section vertices need kind l1 or linf, got {kind!r}")
    if np.iscomplexobj(basis):
        raise UnsupportedNorm("section vertices need a real basis")
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    m, n = basis.shape
    if m == 0:
        return np.zeros((1, n))
    if n > _SECTION_DIM_CAP:
        raise UnsupportedNorm(f"vertex enumeration capped at ambient dim {_SECTION_DIM_CAP}")
    cols = basis.T  # row j: coordinate j as a functional of the coefficients
    q = m if kind == "linf" else n - m + 1  # coordinates that carry a sign
    signs = 1.0 - 2.0 * (np.arange(2 ** q)[:, None] >> np.arange(q) & 1)  # (2^q, q)
    signed = np.array(list(itertools.combinations(range(n), q)))  # (C, q)
    shape = (len(signed), len(signs))
    if kind == "linf":
        mats = np.broadcast_to(cols[signed][:, None], (*shape, m, m))
        rhs = np.broadcast_to(signs, (*shape, m))
    else:
        free = np.ones((len(signed), n), dtype=bool)
        np.put_along_axis(free, signed, False, axis=1)
        zeros = cols[np.nonzero(free)[1].reshape(len(signed), m - 1)]  # (C, m - 1, m)
        mats = np.concatenate([np.broadcast_to(zeros[:, None], (*shape, m - 1, m)),
                               (signs @ cols[signed])[:, :, None]], axis=2)
        rhs = np.broadcast_to(np.eye(m)[-1], (*shape, m))
    mats, rhs = mats.reshape(-1, m, m), rhs.reshape(-1, m)
    ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.linalg.norm(mats, axis=2).prod(axis=1)
    omegas = np.linalg.solve(mats[ok], rhs[ok, :, None])[..., 0] @ basis
    size = np.linalg.norm(omegas, ord=np.inf if kind == "linf" else 1, axis=1)
    return np.concatenate([np.zeros((1, n)), omegas[size <= 1 + 1e-9]])


# ---------------------------------------------------------------------------
# quotient distance, two routes


def _primal_distance(x, V, spec):
    if V.dim == 0:
        return float(eval_norm(x, spec))
    if spec.kind == "l2":
        return float(np.linalg.norm(x - V.project(x), 2))
    if np.iscomplexobj(V.basis) or np.iscomplexobj(x):
        raise UnsupportedNorm("polyhedral primal distance requires real data")
    res = linprog(**distance_lp(x, V.basis, spec.kind))
    if not res.success:
        raise RuntimeError(f"primal distance LP failed: {res.message}")
    return float(res.fun)


def _dual_distance(x, V, spec):
    W = annihilator(V)
    if W.dim == 0:
        return 0.0
    if spec.kind == "l2":
        return float(np.linalg.norm(W.project(x), 2))
    ball = dual_kind(spec.kind)  # functionals carry the dual norm
    vertices = ball_section_points(W.basis, ball)
    return float(np.abs(vertices @ x).max())


def quotient_routes(x, V: Subspace, spec=None):
    """Distance from x to the subspace V along two independent routes,
    returned unreconciled as (primal, dual).

    Primal: exact Euclidean projection (l2) or a linear program (l1, linf).
    Dual: support of x over the unit ball of the annihilator in the dual
    norm, via exact vertex enumeration of the polytope section (polyhedral
    kinds) or projection (l2).  Callers compare the pair; a disagreement
    beyond rounding indicates a bug rather than bad input.
    """
    if V.side != "primal":
        raise ValueError("quotient distance expects a primal-side subspace")
    spec = spec if spec is not None else V.ambient
    x = np.asarray(x)
    return _primal_distance(x, V, spec), _dual_distance(x, V, spec)


# ---------------------------------------------------------------------------
# the subspace-ball criterion


def is_subspace_ball(B: SampledSet, scales, tol=1e-3, spec=None):
    """Rescaling criterion: for every s in scales, each sample with dual
    norm <= s must land back within tol of B after division by s.

    Unit balls of weak-* closed subspaces pass for every s in (0, 1); the
    witness on failure is (s, rescaled point) with the worst defect.
    """
    spec = spec if spec is not None else l2()
    mspec = NormSpec(dual_kind(spec.kind))  # functionals carry the dual norm
    point_norms = distances_to_points(np.zeros(B.dim), B.points, mspec)
    worst_defect = 0.0
    worst = None
    for s in scales:
        if not 0 < s < 1:
            raise ValueError("scales must lie in (0, 1)")
        for idx in np.nonzero(point_norms <= s + 1e-12)[0]:
            rescaled = B.points[idx] / s
            defect = min_distance_oracle(rescaled, B, mspec)
            if defect > worst_defect:
                worst_defect = defect
                worst = (float(s), rescaled)
    ok = worst_defect <= tol
    return {"ok": ok, "witness": None if ok else worst, "defect": float(worst_defect)}


# ---------------------------------------------------------------------------
# convergence of subspace unit balls


def convergence_gap(V_list, V: Subspace, probes):
    """Per-term sup over probes of the support-value gap between the unit
    balls of V_i and of V, all computed through exact descriptors."""
    if V.side != "dual" or any(w.side != "dual" for w in V_list):
        raise ValueError("convergence gaps compare dual-side subspaces")
    probes = np.atleast_2d(np.asarray(probes))
    ref = SubspaceBall(basis=V.basis, ball_spec=V.ambient)
    ref_vals = np.array([exact_support(ref, x) for x in probes])
    gaps = []
    for W in V_list:
        ball = SubspaceBall(basis=W.basis, ball_spec=W.ambient)
        vals = np.array([exact_support(ball, x) for x in probes])
        gaps.append(float(np.abs(vals - ref_vals).max()))
    return gaps


# ---------------------------------------------------------------------------
# the counterexample family: discs that converge to a non-ball


def polar_grid(radii=(1.0, 0.5, 0.25, 0.125), angles=64):
    """Complex scalars on circles of dyadic radii, plus 0.  Dyadic radii make
    the rescaling criterion land on grid points exactly."""
    thetas = 2 * np.pi * np.arange(angles) / angles
    ring = np.exp(1j * thetas)
    lams = np.concatenate([[0.0 + 0.0j]] + [r * ring for r in radii])
    return lams


def _counterexample_disc(n, trunc_dim, radii=(1.0, 0.5, 0.25, 0.125), angles=64):
    # complex multiples of (1/2) delta_0 + delta_n, or of (1/2) delta_0 alone
    # for n = 0, sampled on a polar grid
    direction = np.zeros(trunc_dim, dtype=np.complex128)
    direction[0] = 0.5
    if n:
        direction[n] = 1.0
    points = polar_grid(radii, angles)[:, None] * direction[None, :]
    exact = DiscFamily(direction=direction, radius=1.0, complex_scalars=True)
    return SampledSet(points=points, exact=exact)


def counterexample_ball(n, trunc_dim, radii=(1.0, 0.5, 0.25, 0.125), angles=64):
    """The disc of complex multiples of (1/2) delta_0 + delta_n, sampled on a
    polar grid, inside a finite truncation of the sequence dual."""
    if not 1 <= n < trunc_dim:
        raise ValueError("need 1 <= n < trunc_dim")
    return _counterexample_disc(n, trunc_dim, radii, angles)


def counterexample_limit_disc(trunc_dim, radii=(1.0, 0.5, 0.25, 0.125), angles=64):
    """The limit family: complex multiples of (1/2) delta_0 alone.  Balanced
    and convex, but not the unit ball of any subspace: rescaling its norm-s
    points by 1/s escapes the disc."""
    return _counterexample_disc(0, trunc_dim, radii, angles)


def counterexample_subspace(n, trunc_dim):
    """Span of (1/2) delta_0 + delta_n as a dual-side subspace (sup-norm ambient)."""
    direction = _counterexample_disc(n, trunc_dim).exact.direction
    basis = (direction / np.linalg.norm(direction))[None, :]
    return Subspace(basis=basis, ambient=linf(), side="dual")
