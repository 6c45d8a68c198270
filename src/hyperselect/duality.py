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
        if kind in ("l1", "linf") and not np.iscomplexobj(basis):
            vertices = ball_section_points(basis, kind)
            pairings = np.abs(vertices @ x)
            return float(pairings.max()) if len(pairings) else 0.0
        raise UnsupportedNorm(f"no exact support route for kind {kind!r} on this basis")
    raise TypeError(f"unknown exact descriptor {type(descriptor).__name__}")


# ---------------------------------------------------------------------------
# polytope sections of polyhedral unit balls

_SECTION_DIM_CAP = 9


def _sign_matrix(q):
    return np.array(list(itertools.product((-1.0, 1.0), repeat=q)))


def ball_section_points(basis, kind):
    """Points of {omega in span(basis): ||omega||_kind <= 1} including every
    vertex of the section polytope, for kind in {l1, linf}.

    Enumerates faces of the ball by sign pattern sigma in {-1,0,+1}^n.  For
    linf, coordinates in the support are pinned to sigma_j; for l1,
    coordinates off the support are pinned to 0 and the signed sum over the
    support to 1.  A vertex is the unique solution of the system of its
    minimal face (were the solution set larger, a segment through the vertex
    would stay inside the section, contradicting extremality), so solving
    each face system and filtering by membership finds all vertices; extra
    consistent solutions still lie in the section and are harmless for
    computing suprema.  Systems are batched over signs per support set.
    """
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    m, n = basis.shape
    if m == 0:
        return np.zeros((1, n))
    if n > _SECTION_DIM_CAP:
        raise UnsupportedNorm(f"vertex enumeration capped at ambient dim {_SECTION_DIM_CAP}")
    cols = basis.T  # row j: coordinate j as a functional of the coefficients
    found = [np.zeros((1, n))]
    for bits in range(1, 2 ** n):
        support = np.array([j for j in range(n) if bits >> j & 1])
        signs = _sign_matrix(len(support))
        if kind == "linf":
            face = cols[support]
            coeffs = signs @ np.linalg.pinv(face).T
            ok = np.abs(coeffs @ face.T - signs).max(axis=1) <= 1e-9
            omegas = coeffs @ basis
            ok &= np.abs(omegas).max(axis=1) <= 1 + 1e-9
        else:
            off = np.array([j for j in range(n) if not bits >> j & 1], dtype=int)
            if len(off):
                _, svals, vh = np.linalg.svd(cols[off], full_matrices=True)
                rank = int((svals > 1e-12).sum())
                null = vh[rank:]
            else:
                null = np.eye(m)
            if not len(null):
                continue
            rows = (signs @ cols[support]) @ null.T
            sq = (rows * rows).sum(axis=1)
            ok = sq > 1e-18
            d = np.zeros_like(rows)
            d[ok] = rows[ok] / sq[ok, None]  # min-norm solution of <row, d> = 1
            omegas = (d @ null) @ basis
            ok &= (signs * omegas[:, support]).min(axis=1) >= -1e-12
            ok &= np.abs(omegas).sum(axis=1) <= 1 + 1e-9
        found.append(omegas[ok])
    points = np.concatenate(found, axis=0)
    # dedupe on a tolerance grid; exact duplicates dominate
    _, keep = np.unique(np.round(points / 1e-9) * 1e-9, axis=0, return_index=True)
    return points[np.sort(keep)]


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
