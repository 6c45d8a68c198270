"""Polar duality between subspaces and dual-unit-ball geometry.

Functionals pair with vectors bilinearly, omega(x) = sum_j omega_j x_j, with
no conjugation; Hermitian inner products appear only in orthonormality checks
and Euclidean projections.  Distances to a subspace are always computed twice,
from the primal side (projection, or enumeration of the distance LP's basic
solutions) and from the dual side (support over the annihilator's unit
ball), and reconciled: the identity
d(x, V) = sup {|omega(x)| : omega in the annihilator, dual norm <= 1} is the
point of the module, so it doubles as a built-in consistency check.

The route kernels work on stacks: T pairs whose subspaces share one
dimension go through each batched SVD, determinant and solve together, and
`quotient_routes` is the stack of one pair.  `quotient_routes_by_dimension`
groups a sweep's pairs by subspace dimension into such stacks.  The
polyhedral enumerations take each coordinate subset's shared matrix or
shared rows once, with two kinds of solve: one determinant and one solve
with all of its right-hand sides, or the last-row cofactors of its shared
rows, which give every sign pattern's determinant as one dot product.  The
dot products they add are summed term by term, so a pair's bits do not
depend on its stack.  Only the final contractions run pair by pair, where
padding or batching would change how BLAS rounds them.

The support functions work on probe stacks: `exact_support` takes P probes
(P, n) and contracts each descriptor with all of them at once, and
`convergence_gap` takes each subspace's support once over its whole probe
set.  Those contractions are elementwise products summed along the last
axis, not matrix products, so a probe's support has the same bits alone
and in any stack.
"""
from __future__ import annotations

import itertools

import numpy as np

from .norms import (
    DimensionMismatch,
    DiscFamily,
    InvariantViolation,
    NormSpec,
    Subspace,
    UnsupportedNorm,
    dual_kind,
    eval_norm,
    l2,
    linf,
    linprog,  # unused here; see the comment on norms.linprog
    orthonormal_rows,
)


class DualityMismatch(InvariantViolation):
    """Primal and dual distance computations disagree; signals a bug."""


def _span_bases(vectors):
    """Orthonormal bases for a stack (T, k, n) of spanning sets by one
    batched SVD: the (T,) numerical ranks and the (T, min(k, n), n) right
    singular vectors, whose first ranks[t] rows span set t."""
    _, s, vh = np.linalg.svd(vectors, full_matrices=False)
    rank = (s > 1e-12 * np.maximum(1.0, s[:, :1])).sum(axis=1)
    return rank, vh


def subspace_from_spanning(vectors, ambient=None, side="primal"):
    """Orthonormalize a spanning list (SVD, deterministic) into a Subspace:
    the one-set stack of `_span_bases`."""
    v = np.atleast_2d(np.asarray(vectors))
    ambient = ambient if ambient is not None else l2()
    rank, vh = _span_bases(v[None])
    return Subspace(basis=vh[0, :rank[0]], ambient=ambient, side=side)


def _null_bases(bases):
    """Orthonormal bases (T, n - m, n) of the null spaces of a stack
    (T, m, n) of orthonormal bases, m >= 1, by one batched full SVD.
    Bilinear pairing: the null space of each basis matrix, not of its
    conjugate.  Rows orthonormal within ORTHO_TOL have every singular value
    within m 1e-10 of 1, so each rank is m."""
    m = bases.shape[1]
    _, _, vh = np.linalg.svd(bases, full_matrices=True)
    return vh[:, m:].conj()  # no-op conj for real bases


def annihilator(V: Subspace) -> Subspace:
    """The functionals vanishing on V (or, from the dual side, the vectors
    killed by every functional in V).  Its ambient norm is the dual of V's,
    the norm of the space it lives in."""
    b = V.basis
    out = np.eye(V.ambient_dim, dtype=b.dtype) if V.dim == 0 else _null_bases(b[None])[0]
    side = "dual" if V.side == "primal" else "primal"
    return Subspace(basis=out, ambient=NormSpec(dual_kind(V.ambient.kind)), side=side)


# ---------------------------------------------------------------------------
# support functions


def exact_support(descriptor, x):
    """sup |omega(x)| over an exactly described balanced convex family: a
    DiscFamily, or the unit ball of a Subspace in its ambient norm.

    x is one probe (n,), which gives a float, or a stack (P, n) of them,
    which gives a (P,) array; n must be the descriptor's ambient dimension.
    Each descriptor takes one contraction for the whole stack, formed as an
    elementwise product summed along the last axis, so every row carries the
    bits the one-row call gives.  A BLAS matrix product would round a row
    differently from a vector product, and differently by stack size.

    - DiscFamily {lam d : |lam| <= r}: r |sum_j x_j d_j|.
    - zero Subspace: 0, the supremum over {0}.
    - l2 Subspace: omega = c @ basis has ||omega|| = ||c|| on orthonormal
      rows, and omega(x) = c @ (basis @ x) is largest at the phases of
      basis @ x, so the support is the norm of those coefficients.
    - one-row l1/linf Subspace with row b: |x . b| / ||b||.
    - several rows, l1/linf: the largest |omega(x)| over the section points
      of `ball_section_points`, which include every vertex.
    """
    xs = np.asarray(x)
    if isinstance(descriptor, DiscFamily):
        d = descriptor.direction
        values = descriptor.radius * np.abs((_probe_stack(xs, d.shape[-1]) * d).sum(-1))
    elif isinstance(descriptor, Subspace):
        values = _subspace_support(descriptor, _probe_stack(xs, descriptor.ambient_dim))
    else:
        raise TypeError(f"unknown exact descriptor {type(descriptor).__name__}")
    return float(values[0]) if xs.ndim == 1 else values


def _probe_stack(xs, n):
    """xs as a (P, n) probe stack.  Raises DimensionMismatch unless its rows
    have the descriptor's ambient dimension n: a length-1 probe would
    otherwise broadcast against every coordinate."""
    if xs.ndim not in (1, 2):
        raise DimensionMismatch(f"probes must be one vector (n,) or a stack (P, n),"
                                f" got shape {xs.shape}")
    if xs.shape[-1] != n:
        raise DimensionMismatch(f"probe length {xs.shape[-1]} does not match the"
                                f" descriptor's ambient dimension {n}")
    return np.atleast_2d(xs)


def _subspace_support(V, xs):
    """`exact_support` of V's unit ball at each row of the stack xs (P, n)."""
    basis, kind = V.basis, V.ambient.kind
    if not len(basis):
        return np.zeros(len(xs))
    if kind == "l2":
        return np.linalg.norm((xs[:, None, :] * basis).sum(-1), axis=-1)
    if len(basis) == 1:
        return np.abs((xs * basis[0]).sum(-1)) / eval_norm(basis[0], V.ambient)
    points = ball_section_points(basis, kind)
    # split the probes so no (p, K, n) product holds more than STACK_ENTRIES
    parts = max(1, -(-len(xs) * points.size // STACK_ENTRIES))
    return np.concatenate([np.abs((part[:, None, :] * points).sum(-1)).max(axis=-1)
                           for part in np.array_split(xs, parts)])


# ---------------------------------------------------------------------------
# polytope sections of polyhedral unit balls

SECTION_DIM_CAP = 9


def _is_well_posed(volume, row_norms):
    """The near-singular filter: a square system is kept when its rows, scaled
    to unit length, span a volume |det A| / prod ||a_i|| > 1e-12.

    That volume is at most 1 (Hadamard), 0 for a singular system, and bounds
    a kept one's smallest singular value below by volume / sqrt(m)^(m - 1),
    so its condition number is at most m^(m/2) 1e12.  Compared as a
    product, not a quotient, so a zero volume is rejected without a
    division, and a rejected system is never divided by or solved."""
    return np.abs(volume) > 1e-12 * row_norms


def _per_trial(values, kept):
    """Split values, one row per True entry of the (T, ...) mask `kept` in C
    order, into T arrays, one per trial."""
    return np.split(values, np.cumsum(kept.reshape(len(kept), -1).sum(axis=1))[:-1])


def _dot(a, b):
    """a @ b over the last axis, summed term by term in index order: the
    bits of each entry do not depend on the shape or layout of its stack."""
    total = a[..., 0] * b[..., 0]
    for j in range(1, a.shape[-1]):
        total = total + a[..., j] * b[..., j]
    return total


def _dropping_one(m):
    """The (m, m - 1) indices whose row j is range(m) without j."""
    return np.array([[i for i in range(m) if i != j] for j in range(m)], dtype=int)


def _last_row_cofactors(rows):
    """The cofactors g (..., m) of the last row of [rows; r] for a stack
    (..., m - 1, m): det([rows; r]) = r @ g for every row r, and rows @ g = 0.
    One (m - 1) x (m - 1) determinant per entry; g = 1 when m = 1."""
    m = rows.shape[-1]
    minors = np.moveaxis(rows[..., _dropping_one(m)], -2, -3)  # (..., m, m - 1, m - 1)
    return (-1.0) ** (m - 1 + np.arange(m)) * np.linalg.det(minors)


def _kept_solutions(mats, rhs):
    """Solutions c of mats @ c = b for every kept matrix of the stack mats
    (T, C, m, m) and each of its P right-hand sides b, the columns of rhs
    (..., m, P) broadcast per subset.  The P systems of one coordinate subset
    share its matrix, so each matrix takes one volume and, when kept, one
    solve with P right-hand sides.  Returns T arrays (K_t, m) in (subset,
    right-hand side) order."""
    ok = _is_well_posed(np.linalg.det(mats), np.linalg.norm(mats, axis=3).prod(axis=2))
    rhs = np.broadcast_to(rhs, (*mats.shape[:3], rhs.shape[-1]))
    coeffs = np.linalg.solve(mats[ok], rhs[ok])  # (K, m, P)
    return _per_trial(np.swapaxes(coeffs, 1, 2).reshape(-1, mats.shape[-1]),
                      np.repeat(ok[:, :, None], rhs.shape[-1], axis=2))


def _l1_section_coefficients(zeros, rows):
    """Coefficients c with zeros @ c = 0 and r @ c = 1, for the shared zero
    rows of each coordinate subset, zeros (T, C, m - 1, m), and each of its
    signed-sum rows r, rows (T, C, P, m).  With g the last-row cofactors of
    [zeros; r], det([zeros; r]) = r @ g and c = g / (r @ g): one cofactor
    evaluation per subset, and the volume of each pattern read off r @ g.
    Returns T arrays (K_t, m) in (subset, sign) order."""
    g = _last_row_cofactors(zeros)  # (T, C, m)
    dets = _dot(rows, g[:, :, None])  # (T, C, P)
    shared = np.linalg.norm(zeros, axis=3).prod(axis=2)  # (T, C)
    ok = _is_well_posed(dets, shared[:, :, None] * np.linalg.norm(rows, axis=3))
    trial, subset, _ = np.nonzero(ok)
    return _per_trial(g[trial, subset] / dets[ok][:, None], ok)


def ball_section_points(basis, kind):
    """Points of {omega in span(basis): ||omega||_kind <= 1}, the zero row
    first, including every vertex of the section, for kind l1 or linf and
    real, linearly independent basis rows.  One basis (m, n) gives one
    (P, n) array; a stack (T, m, n) gives a list of T such arrays.

    With omega = c @ basis, a vertex is the one c solving the equations of
    the ball's minimal face through it (a larger solution set would hold a
    segment through the vertex), and m independent ones among them fix it.
    For linf, m coordinates pinned to +-1.  For l1, m - 1 independent zero
    coordinates, which leave a line through the vertex, plus the signed-sum
    row over the other n - m + 1 coordinates, which meets that line once
    whatever the signs where the vertex is zero.  So the solutions of all
    C(n, m) 2^m (linf) or C(n, m - 1) 2^(n - m + 1) (l1) square systems that
    lie in the ball include every vertex; the others are in the section
    too, harmless for suprema, as are repeats.

    The systems of one coordinate subset differ only in their signs, so each
    subset is factored once for all of them.  linf: the 2^m systems share
    the matrix cols[S], which takes one determinant and one solve with 2^m
    right-hand sides.  l1: the 2^(n - m + 1) systems share their m - 1 zero
    rows, whose last-row cofactors g give every pattern's determinant r @ g
    and solution g / (r @ g).  Every system keeps the near-singular filter
    of `_is_well_posed` on its own volume, and a dropped one is never
    divided by or solved.  Each trial keeps its own length P: zero rows
    would not move a support, but padding to one length changes how BLAS
    rounds `points @ x`.
    """
    if kind not in ("l1", "linf"):
        raise UnsupportedNorm(f"section vertices need kind l1 or linf, got {kind!r}")
    if np.iscomplexobj(basis):
        raise UnsupportedNorm("section vertices need a real basis")
    bases = np.asarray(basis, dtype=np.float64)
    single = bases.ndim < 3
    if single:
        bases = np.atleast_2d(bases)[None]
    trials, m, n = bases.shape
    if m == 0:
        points = [np.zeros((1, n)) for _ in range(trials)]
        return points[0] if single else points
    if n > SECTION_DIM_CAP:
        raise UnsupportedNorm(f"vertex enumeration capped at ambient dim {SECTION_DIM_CAP}")
    cols = np.swapaxes(bases, 1, 2)  # row j: coordinate j as a functional of the coefficients
    q = m if kind == "linf" else n - m + 1  # coordinates that carry a sign
    signs = 1.0 - 2.0 * (np.arange(2 ** q)[:, None] >> np.arange(q) & 1)  # (2^q, q)
    signed = np.array(list(itertools.combinations(range(n), q)))  # (C, q)
    if kind == "linf":
        coeffs = _kept_solutions(cols[:, signed], signs.T)
    else:
        free = np.ones((len(signed), n), dtype=bool)
        np.put_along_axis(free, signed, False, axis=1)
        zeros = cols[:, np.nonzero(free)[1].reshape(len(signed), m - 1)]  # (T, C, m - 1, m)
        coeffs = _l1_section_coefficients(zeros, signs @ cols[:, signed])
    order = np.inf if kind == "linf" else 1
    points = []
    for c, b in zip(coeffs, bases):
        omegas = c @ b
        size = np.linalg.norm(omegas, ord=order, axis=1)
        points.append(np.concatenate([np.zeros((1, n)), omegas[size <= 1 + 1e-9]]))
    return points[0] if single else points


# ---------------------------------------------------------------------------
# quotient distance, two routes


def _linf_basic_coefficients(mats, rhs, signs):
    """The c of every kept system [mats, s] @ (c, t) = rhs of the linf
    distance LP, for mats (T, C, k + 1, k), rhs (T, C, k + 1) and each sign
    vector s of signs (P, k + 1).  Returns T arrays (K_t, k) in (subset,
    sign) order.

    The P systems of one coordinate subset share the columns mats, so the
    last-row cofactors h of mats^T give det [mats, s] = s @ h for every s,
    and Cramer's rule gives t = (rhs @ h) / (s @ h); the rows [a_i, +-1]
    have the same lengths for every s.  A subset that keeps a pattern takes
    one solve of the k x k block of mats that drops the row j of largest
    |h_j|, with the P right-hand sides rhs - t s on its rows.  That block has
    |det| = max |h_j| >= |s @ h| / (k + 1) > 0 for any kept s, so no
    singular block is solved; a dropped pattern's t is 0, never a quotient,
    and its c is discarded.
    """
    k = mats.shape[-1]
    h = _last_row_cofactors(np.swapaxes(mats, 2, 3))  # (T, C, k + 1)
    dets = _dot(signs, h[:, :, None])  # (T, C, P)
    rows = np.hypot(np.linalg.norm(mats, axis=3), 1.0).prod(axis=2)  # (T, C)
    ok = _is_well_posed(dets, rows[:, :, None])
    solved = ok.any(axis=2)
    h, kept = h[solved], ok[solved]
    t = np.divide(_dot(rhs[solved], h)[:, None], dets[solved], out=np.zeros(kept.shape),
                  where=kept)  # (K, P)
    keep = _dropping_one(k + 1)[np.abs(h).argmax(axis=1)]  # (K, k)
    block = np.take_along_axis(mats[solved], keep[:, :, None], axis=1)
    c = np.linalg.solve(block, np.take_along_axis(rhs[solved], keep, axis=1)[:, :, None]
                        - t[:, None] * signs.T[keep])  # (K, k, P)
    return _per_trial(np.swapaxes(c, 1, 2)[kept], ok)


def _basic_solution_distance(x, bases, kind):
    """min ||x[t] - c @ bases[t]|| over the basic solutions c of trial t's
    distance LP, for x (T, n), kind l1 or linf and a stack (T, k, n) of real
    orthonormal bases with 0 < k < n.  Returns the (T,) minima.

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

    The l1 systems have one right-hand side each and take one det and one
    solve in `_kept_solutions`, the kernel of the linf sections.  The 2^k
    linf systems of one coordinate subset share its k columns A = cols_S,
    and the last-row cofactors h of A^T give every pattern's determinant
    det [A, s] = s @ h and its t = (x_S @ h) / (s @ h); its c takes one
    solve, with all 2^k right-hand sides, of the k x k block of A that drops
    the row of largest |h_j| (`_linf_basic_coefficients`).  Each trial's
    minimum runs over its own kept systems only.

    Both drop near-singular systems by the volume |det A| / prod ||a_i||
    of `_is_well_posed`, the linf one read as |s @ h| over the lengths of
    the rows [a_i, +-1], yet both always keep one.  By Cauchy-Binet the
    squared k x k minors of cols sum to det(basis @ basis.T) = 1, so some
    minor has |det| >= 1/sqrt(C(n, k)); its rows, columns of an orthonormal
    basis, have length <= 1, so its volume is at least that.  For linf, ||basis @ s||^2 averages k over all
    sign vectors s, so some s has det([cols, s]^T [cols, s]) =
    n - ||basis @ s||^2 >= 1, and some (k + 1)-minor of [cols, s] has
    |det| >= 1/sqrt(C(n, k + 1)), with rows of length <= sqrt(2); flipping
    every sign keeps |det|, so that system is among those with the last
    sign +1.  Up to the dim-9 cap both volumes exceed 1e-12 by orders of
    magnitude more than any rounding in evaluating them, so an empty kept
    set means a corrupted basis and raises InvariantViolation.  A kept linf
    system's block has |det| = max |h_j| >= |s @ h| / (k + 1) > 0, so no
    singular block is solved.
    """
    _, k, n = bases.shape
    cols = np.swapaxes(bases, 1, 2)
    if kind == "l1":
        subsets = np.array(list(itertools.combinations(range(n), k)))  # (C, k)
        coeffs = _kept_solutions(cols[:, subsets], x[:, subsets, None])
    else:
        subsets = np.array(list(itertools.combinations(range(n), k + 1)))  # (C, k + 1)
        # bit k of every pattern number below 2^k is 0: the last sign stays +1
        signs = 1.0 - 2.0 * (np.arange(2 ** k)[:, None] >> np.arange(k + 1) & 1)
        coeffs = _linf_basic_coefficients(cols[:, subsets], x[:, subsets], signs)
    if not all(len(c) for c in coeffs):
        raise InvariantViolation(f"no well-posed basic system for the {kind} distance"
                                 f" with k={k}, n={n}")
    spec = NormSpec(kind)
    return np.array([eval_norm(xt - c @ b, spec).min() for xt, c, b in zip(x, coeffs, bases)])


def _projections(x, bases):
    """Each x[t] projected onto span(bases[t]) as Subspace.project does it,
    through its Euclidean projector bases[t].T @ bases[t].conj()."""
    projectors = np.swapaxes(bases, 1, 2) @ bases.conj()
    return [p @ xt for p, xt in zip(projectors, x)]


def _primal_distances(x, bases, spec):
    trials, k, n = bases.shape
    if k == 0:
        return np.array([eval_norm(xt, spec) for xt in x])
    if spec.kind == "l2":
        return np.array([np.linalg.norm(xt - p, 2) for xt, p in zip(x, _projections(x, bases))])
    if np.iscomplexobj(bases) or np.iscomplexobj(x):
        raise UnsupportedNorm("polyhedral primal distance requires real data")
    if spec.kind not in ("l1", "linf"):
        raise UnsupportedNorm(f"quotient distance not defined for kind {spec.kind!r}")
    if k == n:
        return np.zeros(trials)  # V is the whole space
    if n > SECTION_DIM_CAP:
        raise UnsupportedNorm(f"basic-solution enumeration capped at ambient dim"
                              f" {SECTION_DIM_CAP}")
    return _basic_solution_distance(x, bases, spec.kind)


def _dual_distances(x, bases, spec):
    trials, k, n = bases.shape
    if k == n:
        return np.zeros(trials)  # the annihilator is {0}
    # the annihilator: functionals, normed by the dual of V's norm
    null = np.eye(n, dtype=bases.dtype)[None].repeat(trials, 0) if k == 0 else _null_bases(bases)
    null, kind = orthonormal_rows(null), dual_kind(spec.kind)
    if kind == "l2":
        # the support over {c W : ||c|| <= 1} under the bilinear pairing is
        # ||W x||, the norm of x projected onto the rows of conj(W)
        return np.array([np.linalg.norm(p, 2) for p in _projections(x, null.conj())])
    return np.array([np.abs(p @ xt).max() for p, xt in zip(ball_section_points(null, kind), x)])


def _routes(x, bases, spec):
    """Both routes for a stack of pairs: x (T, n) and orthonormal bases
    (T, k, n) of primal-side subspaces in the norm `spec`, one k for all.
    Returns (primal, dual), each (T,)."""
    return _primal_distances(x, bases, spec), _dual_distances(x, bases, spec)


def quotient_routes(x, V: Subspace):
    """Distance from x to the subspace V in its ambient norm along two
    independent routes, returned unreconciled as (primal, dual).

    Primal: exact Euclidean projection (l2), or the least residual norm
    over every basic solution of the distance LP (l1, linf; see
    `_basic_solution_distance`), with no LP solved.  Dual: support of x over
    the unit ball of the annihilator in the dual norm, via exact vertex
    enumeration of the polytope section (polyhedral kinds) or projection
    (l2).  Callers compare the pair; a disagreement beyond rounding
    indicates a bug rather than bad input.  This is the one-pair stack of
    `quotient_routes_by_dimension`'s kernels.
    """
    if V.side != "primal":
        raise ValueError("quotient distance expects a primal-side subspace")
    primal, dual = _routes(np.asarray(x)[None], V.basis[None], V.ambient)
    return float(primal[0]), float(dual[0])


# Numbers in one stack's largest temporary, at most.  No system's matrix is
# copied per sign pattern, so for one pair in ambient dim n the largest
# arrays hold one vector of at most n numbers per (subset, sign) system:
# the solutions, the right-hand sides, the signed-sum rows and the section
# points.  The systems number at most 3^n (C(n, m) 2^m summed over m is
# 3^n), and up to the dim-9 cap the per-subset matrices and cofactor minors
# are smaller still, so a stack of STACK_ENTRIES // (3^n n) pairs stays
# under this however many trials a sweep draws: one stack per group at the
# sample dims, 19 pairs at dim 8 and five at dim 9.
STACK_ENTRIES = 2 ** 20


def quotient_routes_by_dimension(x, spanning, ambient):
    """`quotient_routes` for every pair (x[t], span(spanning[t])), with x
    (T, n), spanning a sequence of T arrays (k_t, n) and V_t in the norm
    `ambient`.  Returns (primal, dual), each (T,), in input order.

    The pairs are stacked by subspace dimension: by k_t for one batched SVD
    of the spanning sets, then by the numerical rank it finds, so a
    rank-deficient set joins the stack of its actual dimension.  Each stack
    (split when it would pass STACK_ENTRIES) then takes one batched
    orthonormality check, one batched SVD for the annihilators and, for l1
    and linf, one batched enumeration per route, which factors each
    coordinate subset once.  Every final contraction runs pair by pair, as
    in `quotient_routes`, so both figures are bit for bit the ones it
    returns.
    """
    x = np.asarray(x)
    primal, dual = np.empty(len(x)), np.empty(len(x))
    dims = np.array([len(v) for v in spanning])
    step = max(1, STACK_ENTRIES // (3 ** x.shape[-1] * x.shape[-1]))
    for k in np.unique(dims):
        group = np.flatnonzero(dims == k)
        rank, vh = _span_bases(np.stack([spanning[t] for t in group]))
        for r in np.unique(rank):
            same = np.flatnonzero(rank == r)
            for part in np.array_split(same, -(-len(same) // step)):
                bases = orthonormal_rows(vh[part, :r])
                primal[group[part]], dual[group[part]] = _routes(x[group[part]], bases, ambient)
    return primal, dual


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
    balls of V_i and of V, all computed through exact descriptors.

    probes is one probe (n,) or a nonempty stack (P, n).  V's support is
    taken once and each V_i's once, over the whole stack, by
    `exact_support`, whose rows carry the bits of one-probe calls; so a
    gap does not depend on which other probes share its stack."""
    if V.side != "dual" or any(w.side != "dual" for w in V_list):
        raise ValueError("convergence gaps compare dual-side subspaces")
    probes = np.atleast_2d(np.asarray(probes))
    if not len(probes):
        raise ValueError(f"convergence gaps need at least one probe; the probe set"
                         f" of shape {probes.shape} is empty")
    ref_vals = exact_support(V, probes)
    return [float(np.abs(exact_support(W, probes) - ref_vals).max()) for W in V_list]


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
