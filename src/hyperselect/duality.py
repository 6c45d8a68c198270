"""Polar duality between subspaces and dual-unit-ball geometry.

Functionals pair with vectors bilinearly, omega(x) = sum_j omega_j x_j, with
no conjugation; Hermitian inner products appear only in orthonormality checks
and Euclidean projections.  Distances to a subspace are always computed twice,
from the primal side (projection, or enumeration of the distance LP's basic
solutions) and from the dual side (support over the annihilator's unit
ball), and reconciled: the identity
d(x, V) = sup {|omega(x)| : omega in the annihilator, dual norm <= 1} is the
point of the module, so it doubles as a built-in consistency check.
"""
from __future__ import annotations

import itertools

import numpy as np

from .norms import (
    DiscFamily,
    NormSpec,
    Subspace,
    UnsupportedNorm,
    dual_kind,
    eval_norm,
    l2,
    linf,
    linprog,  # unused here; see the comment on norms.linprog
)


class DualityMismatch(RuntimeError):
    """Primal and dual distance computations disagree; signals a bug."""


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
    """sup |omega(x)| over an exactly described balanced convex family: a
    DiscFamily, or the unit ball of a Subspace in its ambient norm."""
    x = np.asarray(x)
    if isinstance(descriptor, DiscFamily):
        return float(descriptor.radius * np.abs(descriptor.direction @ x))
    if isinstance(descriptor, Subspace):
        basis = descriptor.basis
        kind = descriptor.ambient.kind
        if not len(basis):  # the zero subspace: the supremum over {0}
            return 0.0
        if kind == "l2":
            # omega = c @ basis has ||omega|| = ||c|| on orthonormal rows, and
            # omega(x) = c @ (basis @ x), largest at the phases of basis @ x
            return float(np.linalg.norm(basis @ x, 2))
        if len(basis) == 1:
            scale = eval_norm(basis[0], descriptor.ambient)
            return float(np.abs(basis[0] @ x) / scale)
        return float(np.abs(ball_section_points(basis, kind) @ x).max())
    raise TypeError(f"unknown exact descriptor {type(descriptor).__name__}")


# ---------------------------------------------------------------------------
# polytope sections of polyhedral unit balls

SECTION_DIM_CAP = 9


def _solve_well_posed(mats, rhs):
    """Solutions c of the stacked square systems mats @ c = rhs, (N, m, m)
    and (N, m), in one batched solve, skipping every system whose rows,
    scaled to unit length, span a volume |det A| / prod ||a_i|| <= 1e-12.

    That volume is at most 1 (Hadamard), 0 for a singular system, and bounds
    a kept one's smallest singular value below by volume / sqrt(m)^(m - 1),
    so its condition number is at most m^(m/2) 1e12.  Returns (kept, m).
    """
    ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.linalg.norm(mats, axis=2).prod(axis=1)
    return np.linalg.solve(mats[ok], rhs[ok, :, None])[..., 0]


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
    too, harmless for suprema, as are repeats.  All systems go through one
    batched `_solve_well_posed`, which drops the near-singular ones.
    """
    if kind not in ("l1", "linf"):
        raise UnsupportedNorm(f"section vertices need kind l1 or linf, got {kind!r}")
    if np.iscomplexobj(basis):
        raise UnsupportedNorm("section vertices need a real basis")
    basis = np.atleast_2d(np.asarray(basis, dtype=np.float64))
    m, n = basis.shape
    if m == 0:
        return np.zeros((1, n))
    if n > SECTION_DIM_CAP:
        raise UnsupportedNorm(f"vertex enumeration capped at ambient dim {SECTION_DIM_CAP}")
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
    omegas = _solve_well_posed(mats.reshape(-1, m, m), rhs.reshape(-1, m)) @ basis
    size = np.linalg.norm(omegas, ord=np.inf if kind == "linf" else 1, axis=1)
    return np.concatenate([np.zeros((1, n)), omegas[size <= 1 + 1e-9]])


# ---------------------------------------------------------------------------
# quotient distance, two routes


def _basic_solution_distance(x, basis, kind):
    """min ||x - c @ basis|| over the basic solutions of the distance LP, for
    kind l1 or linf and a real orthonormal k x n basis with 0 < k < n.

    The LP minimizes sum(t) (l1, one t_j per coordinate) or t (linf, one
    shared t) subject to |x - c @ basis| <= t entrywise.  With basis rows
    independent its feasible set has no line, and its objective is bounded
    below by 0, so a minimum is attained at a vertex: a point where active
    constraints of full rank pin every variable.  Write cols = basis.T, so
    the residual at coordinate j is r_j = x_j - cols_j @ c.
      l1: at an optimal vertex each t_j = |r_j|, and only a coordinate with
    r_j = 0 has both of its constraints active, which then pin t_j and
    leave cols_j @ c = x_j.  Pinning c takes k independent such rows, so c
    solves cols_S @ c = x_S for some k coordinates S: C(n, k) systems.
      linf: an optimum with t > 0 has k + 1 independent active rows
    cols_j @ c + s_j t = x_j, s_j = +-1, at k + 1 distinct coordinates
    (one sign each, since t > 0).  Flipping every sign solves to (c, -t),
    the same c, so the last sign is fixed to +1: C(n, k + 1) 2^k systems.
    An optimum with t = 0 has every r_j = 0 and is the solution of any
    nonsingular one of these systems.
    Every solution c gives the point c @ basis of the span, so the minimum
    of the actual norm over them bounds the distance above and, holding
    the optimal vertex, equals it.

    `_solve_well_posed` drops near-singular systems, yet always keeps one.
    By Cauchy-Binet the squared k x k minors of cols sum to
    det(basis @ basis.T) = 1, so some minor has |det| >= 1/sqrt(C(n, k));
    its rows, columns of an orthonormal basis, have length <= 1, so its
    volume is at least that.  For linf, ||basis @ s||^2 averages k over all
    sign vectors s, so some s has det([cols, s]^T [cols, s]) =
    n - ||basis @ s||^2 >= 1, and some (k + 1)-minor of [cols, s] has
    |det| >= 1/sqrt(C(n, k + 1)), with rows of length <= sqrt(2).  Up to the
    dim-9 cap both volumes exceed 1e-12 by far, so an empty kept set means
    a corrupted basis and raises RuntimeError.
    """
    k, n = basis.shape
    cols = basis.T
    if kind == "l1":
        subsets = np.array(list(itertools.combinations(range(n), k)))  # (C, k)
        mats, rhs = cols[subsets], x[subsets]
    else:
        subsets = np.array(list(itertools.combinations(range(n), k + 1)))  # (C, k + 1)
        # bit k of every pattern number below 2^k is 0: the last sign stays +1
        signs = 1.0 - 2.0 * (np.arange(2 ** k)[:, None] >> np.arange(k + 1) & 1)
        shape = (len(subsets), len(signs), k + 1)
        mats = np.concatenate([np.broadcast_to(cols[subsets][:, None], (*shape, k)),
                               np.broadcast_to(signs[:, :, None], (*shape, 1))], axis=3)
        rhs = np.broadcast_to(x[subsets][:, None], shape)
        mats, rhs = mats.reshape(-1, k + 1, k + 1), rhs.reshape(-1, k + 1)
    coeffs = _solve_well_posed(mats, rhs)[:, :k]
    if not len(coeffs):
        raise RuntimeError(f"no well-posed basic system for the {kind} distance"
                           f" with k={k}, n={n}")
    return float(eval_norm(x - coeffs @ basis, NormSpec(kind)).min())


def _primal_distance(x, V, spec):
    if V.dim == 0:
        return float(eval_norm(x, spec))
    if spec.kind == "l2":
        return float(np.linalg.norm(x - V.project(x), 2))
    if np.iscomplexobj(V.basis) or np.iscomplexobj(x):
        raise UnsupportedNorm("polyhedral primal distance requires real data")
    if spec.kind not in ("l1", "linf"):
        raise UnsupportedNorm(f"quotient distance not defined for kind {spec.kind!r}")
    if V.dim == V.ambient_dim:
        return 0.0  # V is the whole space
    if V.ambient_dim > SECTION_DIM_CAP:
        raise UnsupportedNorm(f"basic-solution enumeration capped at ambient dim"
                              f" {SECTION_DIM_CAP}")
    return _basic_solution_distance(x, V.basis, spec.kind)


def _dual_distance(x, V, spec):
    W = annihilator(V)
    if W.dim == 0:
        return 0.0
    if spec.kind == "l2":
        return float(np.linalg.norm(W.project(x), 2))
    ball = dual_kind(spec.kind)  # functionals carry the dual norm
    vertices = ball_section_points(W.basis, ball)
    return float(np.abs(vertices @ x).max())


def quotient_routes(x, V: Subspace):
    """Distance from x to the subspace V in its ambient norm along two
    independent routes, returned unreconciled as (primal, dual).

    Primal: exact Euclidean projection (l2), or the least residual norm
    over every basic solution of the distance LP (l1, linf; see
    `_basic_solution_distance`), with no LP solved.  Dual: support of x over
    the unit ball of the annihilator in the dual norm, via exact vertex
    enumeration of the polytope section (polyhedral kinds) or projection
    (l2).  Callers compare the pair; a disagreement beyond rounding
    indicates a bug rather than bad input.
    """
    if V.side != "primal":
        raise ValueError("quotient distance expects a primal-side subspace")
    x = np.asarray(x)
    return _primal_distance(x, V, V.ambient), _dual_distance(x, V, V.ambient)


# ---------------------------------------------------------------------------
# the subspace-ball criterion


def is_subspace_ball(disc, scales, tol=1e-3, spec=None):
    """Rescaling criterion: for every s in scales, each point of the disc with
    dual norm <= s must land back within tol of the disc after division by s.

    Unit balls of weak-* closed subspaces pass for every s in (0, 1); the
    witness on failure is (s, rescaled point) with the worst defect, the
    first such scale on ties.

    Decided in closed form over the whole DiscFamily {lam d : |lam| <= r},
    not over samples of it.  Let ||d|| be the dual norm of d and
    rho = r ||d||.  A member lam d has norm |lam| ||d|| <= s exactly
    when |lam| <= lam* = min(r, s / ||d||), and its rescaling (lam / s) d
    stays on the disc's line, where every norm gives the distance
    max(0, |lam| / s - r) ||d|| to the disc.  That grows with |lam|, so the
    worst defect at scale s is attained at the real lam*, where
    (lam* / s) ||d|| = min(rho / s, 1):

        defect(s) = max(0, min(1, rho / s) - rho).

    A zero direction or radius gives rho = 0 and defect 0.  Any other set
    raises UnsupportedNorm.
    """
    if not isinstance(disc, DiscFamily):
        raise UnsupportedNorm("the subspace-ball criterion is decided only on a"
                              " DiscFamily descriptor")
    spec = spec if spec is not None else l2()
    mspec = NormSpec(dual_kind(spec.kind))  # functionals carry the dual norm
    size = eval_norm(disc.direction, mspec)
    rho = disc.radius * size
    worst_defect = 0.0
    worst = None
    for s in scales:
        if not 0 < s < 1:
            raise ValueError("scales must lie in (0, 1)")
        defect = max(0.0, min(1.0, rho / s) - rho)
        if defect > worst_defect:  # so rho > 0 and size > 0
            worst_defect = defect
            worst = (float(s), (min(disc.radius, s / size) / s) * disc.direction)
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
    ref_vals = np.array([exact_support(V, x) for x in probes])
    gaps = []
    for W in V_list:
        vals = np.array([exact_support(W, x) for x in probes])
        gaps.append(float(np.abs(vals - ref_vals).max()))
    return gaps


# ---------------------------------------------------------------------------
# the counterexample family: discs that converge to a non-ball


def _counterexample_disc(n, trunc_dim):
    # complex multiples of (1/2) delta_0 + delta_n, or of (1/2) delta_0 alone
    # for n = 0
    direction = np.zeros(trunc_dim, dtype=np.complex128)
    direction[0] = 0.5
    if n:
        direction[n] = 1.0
    return DiscFamily(direction=direction, radius=1.0, complex_scalars=True)


def counterexample_ball(n, trunc_dim):
    """The disc of complex multiples of (1/2) delta_0 + delta_n, inside a
    finite truncation of the sequence dual."""
    if not 1 <= n < trunc_dim:
        raise ValueError("need 1 <= n < trunc_dim")
    return _counterexample_disc(n, trunc_dim)


def counterexample_limit_disc(trunc_dim):
    """The limit family: complex multiples of (1/2) delta_0 alone.  Balanced
    and convex, but not the unit ball of any subspace: rescaling its norm-s
    points by 1/s escapes the disc."""
    return _counterexample_disc(0, trunc_dim)


def counterexample_subspace(n, trunc_dim):
    """Span of (1/2) delta_0 + delta_n as a dual-side subspace (sup-norm ambient)."""
    direction = _counterexample_disc(n, trunc_dim).direction
    basis = (direction / np.linalg.norm(direction))[None, :]
    return Subspace(basis=basis, ambient=linf(), side="dual")
