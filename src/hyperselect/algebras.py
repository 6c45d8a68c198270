"""Finite matrix *-algebras and support-function pseudometrics.

Subalgebras of M_n are stored through Hilbert-Schmidt-orthonormal bases, so
the HS projection onto an algebra is a single contraction.  The support value
sup {|Tr(a x)| : a in the algebra, operator norm <= 1} then has a closed
form: writing P for the HS projection, Tr(a x) = <a*, x>_HS = <a*, P(x)>_HS
for a in the algebra, and the supremum of |Tr(a y)| over the algebra's unit
ball for y inside the algebra is the trace norm of y.  The supremum is
attained: the projection of the polar unitary of P(x) is a member of the
unit ball whose pairing with x is that trace norm (`polar_witness`), so each
closed-form value comes with an exact certificate.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .norms import (NormSpec, dyadic_weights, eval_norm, make_probe_sequence, probe_strong,
                    require_probe_domain)

ALGEBRA_TOL = 1e-9
AMBIENT_CAP = 12
FS_CAP = 64


class CapExceeded(ValueError):
    """Ambient dimension beyond the configured brute-force budget."""


def operator_norm(x):
    """Largest singular value of a matrix, or of each matrix in a stack."""
    return eval_norm(x, NormSpec("operator"))


def trace_norm(x):
    """Sum of the singular values of a matrix, or of each matrix in a stack."""
    return eval_norm(x, NormSpec("trace"))


def _orthonormalize(mats, n):
    """HS-orthonormal basis of the span, via SVD on flattened matrices."""
    if not len(mats):
        return np.zeros((0, n, n), dtype=np.complex128)
    flat = np.asarray(mats, dtype=np.complex128).reshape(len(mats), n * n)
    _, s, vh = np.linalg.svd(flat, full_matrices=False)
    rank = int((s > 1e-10 * max(1.0, s[0])).sum())
    return vh[:rank].reshape(rank, n, n)  # right-singular rows span the row space


@dataclass
class MatrixAlgebra:
    """A unital *-subalgebra of M_n with an HS-orthonormal basis."""

    n: int
    hs_basis: np.ndarray  # (dim, n, n)
    # False only for bases closed by construction (build_fS); the tests run
    # the check on those bases instead
    check: bool = True

    def __post_init__(self):
        self.hs_basis = np.asarray(self.hs_basis, dtype=np.complex128)
        if self.hs_basis.shape[1:] != (self.n, self.n):
            raise ValueError("basis matrices must be n x n")
        flat = self.hs_basis.reshape(len(self.hs_basis), -1)
        gram = flat.conj() @ flat.T
        if np.abs(gram - np.eye(len(flat))).max() > 1e-8:
            raise ValueError("basis must be HS-orthonormal")
        self._flat = flat
        if not self.check:
            return
        for name, residual in (
            ("adjoint", self._closure_residual(self.hs_basis.conj().transpose(0, 2, 1))),
            ("unit", self._closure_residual(np.eye(self.n)[None])),
            ("product", max(self._closure_residual(a @ self.hs_basis) for a in self.hs_basis)),
        ):
            if residual > ALGEBRA_TOL:
                raise ValueError(f"{name} closure residual {residual:.3g} exceeds {ALGEBRA_TOL:g}")

    @property
    def dim(self):
        return len(self.hs_basis)

    @cached_property
    def units(self):
        """The basis elements, each scaled to operator norm 1; an
        HS-orthonormal element has operator norm at least 1/sqrt(n)."""
        return self.hs_basis / operator_norm(self.hs_basis)[:, None, None]

    def project(self, x):
        """HS-orthogonal projection onto the algebra, of one matrix or of each
        matrix in a (..., n, n) stack, as one (k, n^2) @ (n^2, dim) product."""
        x = np.asarray(x, dtype=np.complex128)
        rows = x.reshape(-1, self.n * self.n)
        return ((rows @ self._flat.conj().T) @ self._flat).reshape(x.shape)

    def _closure_residual(self, mats):
        """Largest HS distance from a matrix of the (k, n, n) stack to the
        algebra."""
        residual = (mats - self.project(mats)).reshape(len(mats), -1)
        return float(np.linalg.norm(residual, axis=1).max())


def generate_algebra(generators, n):
    """Smallest unital *-closed subalgebra of M_n containing the generators.

    Span-closure iteration: adjoin adjoints and all pairwise products,
    re-orthonormalize, repeat until the dimension stabilizes.
    """
    if n > AMBIENT_CAP:
        raise CapExceeded(f"ambient size {n} exceeds cap {AMBIENT_CAP}")
    mats = [np.eye(n, dtype=np.complex128)]
    for g in generators:
        g = np.asarray(g, dtype=np.complex128)
        mats.append(g)
        mats.append(g.conj().T)
    basis = _orthonormalize(mats, n)
    while True:
        products = np.einsum("aij,bjk->abik", basis, basis).reshape(-1, n, n)
        adjoints = basis.conj().transpose(0, 2, 1)
        enlarged = _orthonormalize(np.concatenate([basis, adjoints, products]), n)
        if len(enlarged) == len(basis):
            return MatrixAlgebra(n=n, hs_basis=enlarged)
        basis = enlarged


def _signed_permutations(n):
    for perm in itertools.permutations(range(n)):
        for signs in itertools.product((1.0, -1.0), repeat=n):
            m = np.zeros((n, n))
            for row, (col, s) in enumerate(zip(perm, signs)):
                m[row, col] = s
            yield m


def cayley_unitary(h):
    """Unitary (1 + i h)(1 - i h)^{-1} of a Hermitian h, or of each matrix in
    a stack of them; stays inside any unital algebra containing h, since the
    inverse is a polynomial in h."""
    eye = np.eye(h.shape[-1])
    return (eye + 1j * h) @ np.linalg.inv(eye - 1j * h)


_CAYLEY_SCALES = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0)


def unit_ball_sample(A: MatrixAlgebra, count, seed=0):
    """Deterministic elements of the algebra's operator-norm unit ball, the
    draw behind adjoint_modulus's sampled pairs.

    Mixes the fixed structure (zero, identity, rescaled basis elements, the
    signed permutations that happen to lie in the algebra) with Cayley
    unitaries of random Hermitian elements at several magnitudes and
    rescaled random elements.
    """
    if count < 1:
        raise ValueError("count must be positive")
    rng = np.random.default_rng(seed)
    n = A.n
    fixed = [np.eye(n, dtype=np.complex128), np.zeros((n, n), dtype=np.complex128)]
    fixed.extend(A.units)
    if n <= 4:
        perms = np.array(list(_signed_permutations(n)), dtype=np.complex128)
        fixed.extend(perms[np.linalg.norm(perms - A.project(perms), axis=(1, 2)) <= ALGEBRA_TOL])
    blocks = [np.array(fixed[:count])]
    need = count - len(blocks[0])
    if need > 0:
        n_cay = int(np.ceil(0.6 * need))
        coeffs = rng.standard_normal((need, A.dim)) + 1j * rng.standard_normal((need, A.dim))
        g = ((coeffs / np.sqrt(2 * A.dim)) @ A._flat).reshape(need, n, n)
        h = (g[:n_cay] + g[:n_cay].conj().transpose(0, 2, 1)) / 2
        h *= np.asarray(_CAYLEY_SCALES)[np.arange(n_cay) % len(_CAYLEY_SCALES)][:, None, None]
        blocks.append(A.project(cayley_unitary(h)))  # a no-op up to roundoff
        if need > n_cay:
            gr = g[n_cay:]
            norms = np.maximum(operator_norm(gr), 1e-12)
            targets = np.where(rng.random(need - n_cay) < 0.5, rng.random(need - n_cay), 1.0)
            blocks.append(gr * (targets / norms)[:, None, None])
    out = np.concatenate(blocks)[:count]
    norms = operator_norm(out)
    return out * np.where(norms > 1.0, 1.0 / np.maximum(norms, 1e-12), 1.0)[:, None, None]


def marechal_support(A: MatrixAlgebra, x):
    """sup {|Tr(a x)| : a in A, operator norm <= 1}, in closed form as the
    trace norm of the HS projection of x onto A; for a (..., n, n) stack, one
    value per matrix."""
    return trace_norm(A.project(x))


def polar_witness(A: MatrixAlgebra, x):
    """A member w of A's unit ball with |Tr(w x)| = marechal_support(A, x).

    w is the projection of U*, for U the unitary polar factor of P_A(x) from
    its SVD: Tr(w x) = <P_A(U), x>_HS = <U, P_A(x)>_HS, the trace norm.  The
    projection onto a unital *-subalgebra is the trace-preserving conditional
    expectation, a contraction, so w lies in the ball up to roundoff; w is
    rescaled when its operator norm exceeds 1, so it is always a member and
    |Tr(w x)| an exact lower certificate.
    """
    u, _, vt = np.linalg.svd(A.project(x))
    w = A.project((u @ vt).conj().T)
    nb = operator_norm(w)
    return w / nb if nb > 1.0 else w


def marechal_pseudometric(A: MatrixAlgebra, B: MatrixAlgebra, probes, weights=None):
    """Weighted sum of support-value gaps over the probe matrices."""
    if A.n != B.n:
        raise ValueError("algebras must share the ambient size")
    probes = np.array(list(probes), dtype=np.complex128)
    weights = dyadic_weights(len(probes)) if weights is None else np.asarray(weights)
    gaps = np.abs(marechal_support(A, probes) - marechal_support(B, probes))
    return float(np.dot(weights, gaps))


# ---------------------------------------------------------------------------
# the finiteness modulus


def default_strong_spec(n, length=None):
    """One-sided strong probe metric on M_n: sum of weighted ||x xi_k||."""
    length = 2 * n if length is None else length
    return probe_strong(make_probe_sequence(n, length))


def adjoint_modulus(A: MatrixAlgebra, eps_list, sample_count=400, seed=0, spec=None):
    """Empirical continuity modulus of x -> x* on the unit ball.

    For each eps, the largest delta such that every sampled pair at strong
    distance < delta has adjoint distance <= eps; pairs include the basis
    units against 0 and each other, the worst witnesses for block algebras.
    The samples are checked against the unit ball once (x* has the operator
    norm of x); the units have norm 1 by construction and are not checked.
    The pairs' probe distances are norms of differences.
    """
    spec = default_strong_spec(A.n) if spec is None else spec
    samples = unit_ball_sample(A, sample_count, seed)
    units = A.units
    require_probe_domain(spec, samples)
    rng = np.random.default_rng(seed + 1)
    left, right = np.triu_indices(min(len(units), 24), k=1)  # combinations order
    idx = rng.integers(0, len(samples), size=(2 * sample_count, 2))
    # rows: each unit against 0, the unit pairs, then the sampled pairs
    diffs = np.empty((len(units) + len(left) + len(idx), A.n, A.n), dtype=np.complex128)
    cut = len(units) + len(left)
    diffs[:len(units)] = units
    diffs[len(units):cut] = units[left]
    diffs[len(units):cut] -= units[right]
    diffs[cut:] = samples[idx[:, 0]]
    diffs[cut:] -= samples[idx[:, 1]]
    fwd = eval_norm(diffs, spec)
    np.conj(diffs, out=diffs)  # x* - y* = (x - y)*
    bwd = eval_norm(diffs.swapaxes(-1, -2), spec)
    out = []
    for eps in eps_list:
        violating = fwd[bwd > eps]
        delta = float(violating.min()) if len(violating) else 2.0
        out.append((float(eps), delta))
    return out


# ---------------------------------------------------------------------------
# the block-diagonal reduction algebra f(S)


@dataclass(frozen=True)
class SubsetSeq:
    """m subsets of {0, ..., m-1}, the finite truncation of a set sequence."""

    m: int
    subsets: tuple

    def __post_init__(self):
        if len(self.subsets) != self.m:
            raise ValueError("need exactly m subsets")
        object.__setattr__(self, "subsets", tuple(frozenset(s) for s in self.subsets))
        for s in self.subsets:
            if any(not 0 <= k < self.m for k in s):
                raise ValueError("subset entries must lie in range(m)")


def _tensor_unit(m, n, k, l):
    """Matrix unit e_{nn} (x) e_{kl} on C^m (x) C^m, index (a, b) -> a m + b."""
    out = np.zeros((m * m, m * m), dtype=np.complex128)
    out[n * m + k, n * m + l] = 1.0
    return out


def build_fS(S: SubsetSeq):
    """The block algebra of S: full matrix blocks on each {n} x S_n plus the
    scalar complement, with the projection pi_S onto the blocks.

    Returns (algebra, pi_S).  Dimension is sum |S_n|^2, plus one when
    pi_S != identity.  The basis is a *-algebra by construction, so the
    constructor's numerical closure check is skipped at every size:
    - products: (e_nn (x) e_kl)(e_n'n' (x) e_k'l') is e_nn (x) e_kl' when
      n = n' and l = k', a basis unit since k, l' lie in S_n, and 0
      otherwise; each unit u satisfies u = pi_S u pi_S, so u (1 - pi_S) and
      (1 - pi_S) u vanish, and 1 - pi_S is a projection;
    - adjoints: (e_nn (x) e_kl)* = e_nn (x) e_lk, and 1 - pi_S is Hermitian;
    - unit: 1 = pi_S + (1 - pi_S), and pi_S is the sum of the diagonal units.
    tests/test_algebras.py runs the check on these bases.
    """
    m = S.m
    if m * m > FS_CAP:
        raise CapExceeded(f"ambient size {m * m} exceeds cap {FS_CAP}")
    basis = []
    pi = np.zeros((m * m, m * m), dtype=np.complex128)
    for n, subset in enumerate(S.subsets):
        idx = sorted(subset)
        for k in idx:
            pi[n * m + k, n * m + k] = 1.0
        for k in idx:
            for l in idx:
                basis.append(_tensor_unit(m, n, k, l))
    complement = np.eye(m * m, dtype=np.complex128) - pi
    if np.abs(complement).max() > 0.5:
        basis.append(complement / np.linalg.norm(complement))
    algebra = MatrixAlgebra(n=m * m, hs_basis=np.array(basis), check=False)
    return algebra, pi


@dataclass(frozen=True)
class FunctionalSpec:
    """A functional on M_{m^2} as a sum of vector-pair terms.

    Term (i, j, xi, eta) contributes <x (e_i (x) xi), e_j (x) eta>; on the
    block algebras only diagonal terms (i = j) survive.
    """

    m: int
    terms: tuple

    def __post_init__(self):
        cleaned = []
        for i, j, xi, eta in self.terms:
            xi = np.asarray(xi, dtype=np.complex128)
            eta = np.asarray(eta, dtype=np.complex128)
            if not (0 <= i < self.m and 0 <= j < self.m):
                raise ValueError("term indices must lie in range(m)")
            if xi.shape != (self.m,) or eta.shape != (self.m,):
                raise ValueError("term vectors must live in C^m")
            cleaned.append((int(i), int(j), xi, eta))
        object.__setattr__(self, "terms", tuple(cleaned))

    def vector_pairs(self):
        m = self.m
        for i, j, xi, eta in self.terms:
            u = np.zeros(m * m, dtype=np.complex128)
            v = np.zeros(m * m, dtype=np.complex128)
            u[i * m:(i + 1) * m] = xi
            v[j * m:(j + 1) * m] = eta
            yield u, v

    def matrix(self):
        """rho_omega = sum of u v* over the vector pairs: omega(x) = Tr(x rho_omega)."""
        n = self.m * self.m
        return sum((np.outer(u, v.conj()) for u, v in self.vector_pairs()),
                   np.zeros((n, n), dtype=np.complex128))


def apply_functional(omega: FunctionalSpec, x):
    x = np.asarray(x, dtype=np.complex128)
    total = 0.0 + 0.0j
    for u, v in omega.vector_pairs():
        total += np.vdot(v, x @ u)  # <x u, v>
    return complex(total)


@dataclass(frozen=True)
class FunctionalNormResult:
    value: float | None  # the block formula; None off the proof's normal form
    route: float  # the trace norm of E_{f(S)}(rho_omega)


def functional_norm_on_fS(omega: FunctionalSpec, S: SubsetSeq):
    """Norm of the functional restricted to the block algebra f(S).

    route: omega(x) = Tr(x rho_omega), so the norm is the support value of
    f(S) at rho_omega, exact for every functional.  value: the proof's
    block formula sum_i ||p_{S_i} xi_i|| ||p_{S_i} eta_i|| + |omega(1 - pi_S)|
    over the diagonal terms; cross terms vanish on the block-diagonal
    algebra and are dropped.  A repeated diagonal index leaves the proof's
    normal form, and value is None.
    """
    algebra, pi = build_fS(S)
    route = marechal_support(algebra, omega.matrix())
    diag = [(i, xi, eta) for i, j, xi, eta in omega.terms if i == j]
    if len({i for i, _, _ in diag}) != len(diag):
        return FunctionalNormResult(value=None, route=route)
    total = abs(apply_functional(omega, np.eye(S.m * S.m) - pi))
    for i, xi, eta in diag:
        p = np.zeros(S.m)
        p[sorted(S.subsets[i])] = 1.0
        total += float(np.linalg.norm(p * xi) * np.linalg.norm(p * eta))
    return FunctionalNormResult(value=float(total), route=route)


# ---------------------------------------------------------------------------
# isometry inequalities and fixed example algebras


def isometry_defect(x, u, xi):
    """||(x - u) xi||^2 - 2 Re <(u - x) xi, u xi>; <= 0 for contractions x
    and isometries u."""
    lhs = float(np.linalg.norm((x - u) @ xi) ** 2)
    rhs = 2.0 * float(np.real(np.vdot(u @ xi, (u - x) @ xi)))
    return lhs - rhs


def adjoint_isometry_defect(x, u, xi):
    """Adjoint-side variant: ||(x* - u*) xi||^2 - 2 Re <(u - x) u* xi, xi>."""
    lhs = float(np.linalg.norm((x.conj().T - u.conj().T) @ xi) ** 2)
    rhs = 2.0 * float(np.real(np.vdot(xi, (u - x) @ (u.conj().T @ xi))))
    return lhs - rhs


def diagonal_algebra(n):
    basis = np.zeros((n, n, n), dtype=np.complex128)
    for k in range(n):
        basis[k, k, k] = 1.0
    return MatrixAlgebra(n=n, hs_basis=basis)


def full_algebra(n):
    basis = np.zeros((n * n, n, n), dtype=np.complex128)
    for k in range(n):
        for l in range(n):
            basis[k * n + l, k, l] = 1.0
    return MatrixAlgebra(n=n, hs_basis=basis)


def scalar_algebra(n):
    return MatrixAlgebra(n=n, hs_basis=(np.eye(n, dtype=np.complex128) / np.sqrt(n))[None, :, :])


def rotated_diagonal_algebra(theta, n=2):
    """u_theta D u_theta* for the planar rotation in the first two coordinates."""
    u = np.eye(n, dtype=np.complex128)
    c, s = np.cos(theta), np.sin(theta)
    u[0, 0], u[0, 1], u[1, 0], u[1, 1] = c, -s, s, c
    basis = np.zeros((n, n, n), dtype=np.complex128)
    for k in range(n):
        e = np.zeros((n, n), dtype=np.complex128)
        e[k, k] = 1.0
        basis[k] = u @ e @ u.conj().T
    return MatrixAlgebra(n=n, hs_basis=basis)
