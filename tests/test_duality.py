"""Support functions, section vertices, annihilators, the two-route
distance, the rescaling ball criterion, and the disc family."""
import itertools
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import linprog

from hyperselect import duality, norms
from hyperselect.duality import (
    SECTION_DIM_CAP,
    DualityMismatch,
    _basic_solution_distance,
    annihilator,
    ball_section_points,
    convergence_gap,
    counterexample_ball,
    counterexample_limit_disc,
    counterexample_subspace,
    exact_support,
    is_subspace_ball,
    quotient_routes,
    quotient_routes_by_dimension,
    subspace_from_spanning,
)
from hyperselect.norms import (
    DiscFamily,
    InvariantViolation,
    NormSpec,
    Subspace,
    UnsupportedNorm,
    dual_kind,
    eval_norm,
    l1,
    l2,
    linf,
    min_distance_oracle,
)
from hyperselect.scenarios import run_duality


def _span_gap(V, W):
    # operator-norm distance of the Euclidean span projectors, 0 iff equal spans
    return float(np.linalg.norm(V.projector() - W.projector(), 2))


# ---------------------------------------------------------------------------
# support function


def test_support_of_full_dual_ball_is_the_norm():
    # the whole dual ball under each norm supports x at the predual norm
    x = np.array([3.0, -4.0])
    for ball_spec, expected in ((l2(), 5.0), (linf(), 7.0), (l1(), 4.0)):
        ball = Subspace(basis=np.eye(2), ambient=ball_spec, side="dual")
        assert exact_support(ball, x) == pytest.approx(expected, abs=1e-12)


def test_support_of_zero_family():
    x = np.array([1.0, 2.0])
    assert exact_support(DiscFamily(direction=np.array([1.0, 1.0]), radius=0.0), x) == 0.0
    assert exact_support(DiscFamily(direction=np.zeros(2), radius=1.0), x) == 0.0


def test_support_of_the_zero_subspace_ball():
    # the supremum over {0} is 0 whatever the ball's norm, and a sequence of
    # zero subspaces converges to the zero subspace with zero gaps
    x = np.array([1.0, -2.0, 3.0])
    for spec in (l1(), l2(), linf()):
        zero = Subspace(basis=np.zeros((0, 3)), ambient=spec, side="dual")
        assert exact_support(zero, x) == 0.0
        assert convergence_gap([zero, zero], zero, np.eye(3)) == [0.0, 0.0]


def test_support_of_weighted_disc_family():
    # ball spanned by the coefficient vector (1/2, 0, ..., 1): the sup of
    # |lam * <d, x>| over |lam| <= 1 reads off the coefficient of x
    n, dim = 3, 6
    d = np.zeros(dim, dtype=np.complex128)
    d[0], d[n] = 0.5, 1.0
    disc = DiscFamily(direction=d, radius=1.0)
    delta0 = np.eye(dim)[0]
    deltan = np.eye(dim)[n]
    assert exact_support(disc, delta0) == pytest.approx(0.5, abs=1e-12)
    assert exact_support(disc, deltan) == pytest.approx(1.0, abs=1e-12)


def test_support_homogeneity():
    rng = np.random.default_rng(1)
    for ball_spec in (l2(), l1(), linf()):
        ball = subspace_from_spanning(rng.standard_normal((2, 3)), ambient=ball_spec,
                                      side="dual")
        for _ in range(50):
            x = rng.standard_normal(3)
            lam = rng.standard_normal() * 2.0
            lhs = exact_support(ball, lam * x)
            rhs = abs(lam) * exact_support(ball, x)
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_support_monotone_in_the_family():
    # the section of a subspace sits inside the section of any larger one
    rng = np.random.default_rng(2)
    for ball_spec in (l2(), l1(), linf()):
        basis = rng.standard_normal((2, 3))
        small = subspace_from_spanning(basis[:1], ambient=ball_spec, side="dual")
        big = subspace_from_spanning(basis, ambient=ball_spec, side="dual")
        for _ in range(50):
            x = rng.standard_normal(3)
            assert exact_support(small, x) <= exact_support(big, x) + 1e-12


def _matmul_support(descriptor, x):
    """Reference: the support at one probe by per-vector `@` products."""
    if isinstance(descriptor, DiscFamily):
        return float(descriptor.radius * np.abs(descriptor.direction @ x))
    basis, kind = descriptor.basis, descriptor.ambient.kind
    if not len(basis):
        return 0.0
    if kind == "l2":
        return float(np.linalg.norm(basis @ x, 2))
    if len(basis) == 1:
        return float(np.abs(basis[0] @ x) / eval_norm(basis[0], descriptor.ambient))
    return float(np.abs(ball_section_points(basis, kind) @ x).max())


def _support_cases():
    """(name, descriptor, complex probes) for every contraction of
    exact_support, in ambient dims on both sides of numpy's 8-term unroll."""
    rng = np.random.default_rng(31)

    def dual(vectors, spec):
        return subspace_from_spanning(vectors, ambient=spec, side="dual")

    complex_direction = rng.standard_normal(18) + 1j * rng.standard_normal(18)
    yield "disc-real", DiscFamily(direction=rng.standard_normal(18), radius=1.7), False
    yield "disc-complex", DiscFamily(direction=complex_direction, radius=0.6), True
    yield "zero", Subspace(basis=np.zeros((0, 5)), ambient=linf(), side="dual"), False
    yield "l2-real", dual(rng.standard_normal((3, 11)), l2()), False
    yield "l2-complex", dual(rng.standard_normal((2, 6)) + 1j * rng.standard_normal((2, 6)),
                             l2()), True
    yield "l1-one-row", dual(rng.standard_normal((1, 9)), l1()), False
    yield "linf-one-row-complex", counterexample_subspace(4, 18), True
    yield "l1-rows", dual(rng.standard_normal((3, 7)), l1()), False
    yield "linf-rows", dual(rng.standard_normal((2, 8)), linf()), False


@pytest.mark.parametrize("P", [1, 2, 17])
@pytest.mark.parametrize("name,descriptor,complex_probes",
                         [pytest.param(*case, id=case[0]) for case in _support_cases()])
def test_a_probes_support_does_not_depend_on_its_stack(name, descriptor, complex_probes, P):
    # each row of a stacked call is the one-probe call bit for bit, and
    # within a few ulps of the per-vector matmul formula it replaced
    disc = isinstance(descriptor, DiscFamily)
    n = descriptor.direction.shape[-1] if disc else descriptor.ambient_dim
    rng = np.random.default_rng(P)
    X = rng.standard_normal((P, n)) * 3.0
    if complex_probes:
        X = X + 1j * rng.standard_normal((P, n))
    values = exact_support(descriptor, X)
    assert values.shape == (P,)
    for i in range(P):
        assert values[i] == exact_support(descriptor, X[i]), (name, i)
        reference = _matmul_support(descriptor, X[i])
        assert abs(values[i] - reference) <= 1e-14 * max(1.0, abs(reference)), (name, i)


@pytest.mark.parametrize("spec", [l1(), linf()], ids=lambda s: s.kind)
def test_section_supports_split_a_large_probe_stack(spec, monkeypatch):
    # a stack whose (P, K, n) product would pass STACK_ENTRIES runs in parts,
    # with the bits of the one-part call
    V = subspace_from_spanning(np.random.default_rng(32).standard_normal((3, 6)),
                               ambient=spec, side="dual")
    X = np.random.default_rng(33).standard_normal((17, 6))
    whole = exact_support(V, X)
    monkeypatch.setattr(duality, "STACK_ENTRIES", 3 * ball_section_points(V.basis, spec.kind).size)
    assert np.array_equal(exact_support(V, X), whole)


@pytest.mark.parametrize("length", [1, 7])
def test_support_rejects_probes_of_another_dimension(length):
    # against 8-dim descriptors a length-1 probe would broadcast and a
    # length-7 one would not pair; both name the two sizes
    descriptors = (DiscFamily(direction=np.ones(8), radius=1.0),
                   Subspace(basis=np.zeros((0, 8)), ambient=l2(), side="dual"),
                   Subspace(basis=np.eye(8)[:2], ambient=l2(), side="dual"),
                   counterexample_subspace(3, 8),
                   Subspace(basis=np.eye(8)[:2], ambient=l1(), side="dual"))
    for descriptor in descriptors:
        for probes in (np.ones(length), np.ones((3, length))):
            with pytest.raises(norms.DimensionMismatch, match=f"length {length} .* dimension 8"):
                exact_support(descriptor, probes)
        with pytest.raises(norms.DimensionMismatch, match=r"\(P, n\), got shape"):
            exact_support(descriptor, np.ones((2, 3, 8)))


# ---------------------------------------------------------------------------
# section vertices against two references


def _sign_scan_section_points(basis, kind):
    """Reference: every face of the ball by support and sign pattern, one
    pseudo-inverse solve per support, deduped on a 1e-9 grid."""
    m, n = basis.shape
    cols = basis.T
    found = [np.zeros((1, n))]
    for bits in range(1, 2 ** n):
        support = np.array([j for j in range(n) if bits >> j & 1])
        signs = np.array(list(itertools.product((-1.0, 1.0), repeat=len(support))))
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
                null = vh[int((svals > 1e-12).sum()):]
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
    _, keep = np.unique(np.round(points / 1e-9) * 1e-9, axis=0, return_index=True)
    return points[np.sort(keep)]


def _lp_section_max(basis, kind, x):
    """Reference: max of omega(x) over the section by HiGHS, in the
    coefficients c of omega = c @ basis (plus bounds t >= |omega| for l1)."""
    m, n = basis.shape
    if kind == "linf":
        a_ub, b_ub, pad = np.vstack([basis.T, -basis.T]), np.ones(2 * n), 0
    else:
        eye = np.eye(n)
        a_ub = np.block([[basis.T, -eye], [-basis.T, -eye],
                         [np.zeros((1, m)), np.ones((1, n))]])
        b_ub, pad = np.concatenate([np.zeros(2 * n), [1.0]]), n
    res = linprog(np.concatenate([-(basis @ x), np.zeros(pad)]), A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * m + [(0, None)] * pad, method="highs")
    assert res.success, res.message
    return -res.fun


def _section_cases():
    rng = np.random.default_rng(11)
    for n in range(2, 9):
        for m in sorted({1, int(rng.integers(1, n + 1)), n}):
            yield f"random-{m}x{n}", rng.standard_normal((m, n))
        m = int(rng.integers(1, n + 1))
        yield f"coordinates-{m}x{n}", np.eye(n)[np.sort(rng.permutation(n)[:m])]
        if n >= 3:
            m = int(rng.integers(1, n))
            repeats = np.concatenate([np.arange(n - 1), [int(rng.integers(n - 1))]])
            yield f"repeated-{m}x{n}", rng.standard_normal((m, n - 1))[:, repeats]


def test_ball_section_points_matches_reference_and_lp():
    rng = np.random.default_rng(12)
    for name, basis in _section_cases():
        _, svals, vh = np.linalg.svd(basis, full_matrices=False)
        span = vh[:int((svals > 1e-12 * svals[0]).sum())]
        for kind in ("l1", "linf"):
            points = ball_section_points(basis, kind)
            reference = _sign_scan_section_points(basis, kind)
            assert np.all(points[0] == 0.0), (name, kind)
            size = np.abs(points).max(axis=1) if kind == "linf" else np.abs(points).sum(axis=1)
            assert size.max() <= 1 + 1e-9, (name, kind)
            assert np.abs(points - (points @ span.T) @ span).max() <= 1e-12, (name, kind)
            # signed maxima in both directions: the section is symmetric, so a
            # lost sign pattern shows only on one side
            for x in rng.standard_normal((3, basis.shape[1])) * 2.0:
                for probe in (x, -x):
                    value = (points @ probe).max()
                    gate = 1e-12 * max(1.0, value)
                    assert abs(value - (reference @ probe).max()) <= gate, (name, kind)
                    assert abs(value - _lp_section_max(basis, kind, probe)) <= gate, (name, kind)


@pytest.mark.parametrize("kind", ["l2", "bogus"])
def test_ball_section_points_rejects_other_kinds(kind):
    with pytest.raises(UnsupportedNorm, match="l1 or linf"):
        ball_section_points(np.eye(3)[:2], kind)


def test_ball_section_points_rejects_a_complex_basis():
    basis = np.array([[1.0, 1j, 0.0], [0.0, 0.0, 1.0]])
    for kind in ("l1", "linf"):
        with pytest.raises(UnsupportedNorm, match="real basis"):
            ball_section_points(basis, kind)


# ---------------------------------------------------------------------------
# annihilators


def test_annihilator_of_coordinate_plane():
    V = subspace_from_spanning(np.eye(3)[:2], ambient=l2(), side="primal")
    W = annihilator(V)
    assert W.side == "dual"
    expected = subspace_from_spanning(np.eye(3)[2:], ambient=l2(), side="dual")
    assert _span_gap(W, expected) <= 1e-10


def test_annihilator_of_whole_space_is_zero():
    V = subspace_from_spanning(np.eye(3), ambient=l2(), side="primal")
    assert len(annihilator(V).basis) == 0


def test_double_annihilator_returns_the_subspace():
    rng = np.random.default_rng(3)
    for _ in range(100):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        V = subspace_from_spanning(rng.standard_normal((k, dim)),
                                   ambient=l2(), side="primal")
        VV = annihilator(annihilator(V))
        assert _span_gap(VV, V) <= 1e-8


@pytest.mark.parametrize("spec,dual,distance", [
    (l1(), "linf", 3.0), (l2(), "l2", np.sqrt(4.5)), (linf(), "l1", 2.0)])
def test_annihilator_support_is_the_quotient_distance(spec, dual, distance):
    # the annihilator lives in the dual space, so its unit ball is cut from
    # the dual norm's ball and its support at x is d(x, V); with V's own norm
    # the l1 and linf supports read 2 and 3, swapped
    V = subspace_from_spanning(np.array([[1.0, 1.0, 0.0]]), ambient=spec, side="primal")
    x = np.array([1.0, 0.0, 2.0])
    W = annihilator(V)
    assert W.ambient.kind == dual
    assert annihilator(W).ambient.kind == spec.kind
    for route in (*quotient_routes(x, V), exact_support(W, x)):
        assert route == pytest.approx(distance, abs=1e-12)


# ---------------------------------------------------------------------------
# quotient distance, both routes


def test_quotient_distance_orthogonal_projection():
    V = subspace_from_spanning(np.eye(3)[:2], ambient=l2(), side="primal")
    for route in quotient_routes(np.array([3.0, 4.0, 5.0]), V):
        assert route == pytest.approx(5.0, abs=1e-9)


def test_quotient_distance_sup_norm_diagonal():
    # min over t of max(|1 - t|, |t|) = 1/2; dual route: the annihilator
    # span{(1,-1)} meets the l1 unit ball at (1/2, -1/2), pairing 1/2
    V = subspace_from_spanning(np.array([[1.0, 1.0]]), ambient=linf(), side="primal")
    for route in quotient_routes(np.array([1.0, 0.0]), V):
        assert route == pytest.approx(0.5, abs=1e-9)


def test_quotient_distance_vanishes_on_members():
    rng = np.random.default_rng(5)
    V = subspace_from_spanning(rng.standard_normal((2, 4)), ambient=l2(), side="primal")
    member = V.basis.T @ rng.standard_normal(2)
    for route in quotient_routes(member, V):
        assert route <= 1e-9


@pytest.mark.parametrize("spec,tol", [(l2(), 1e-12), (l1(), 1e-9), (linf(), 1e-9)])
def test_two_routes_agree_on_random_instances(spec, tol):
    # the polyhedral kinds are gated tighter, at every dim up to the cap, in
    # test_basic_solutions_match_the_distance_lp
    rng = np.random.default_rng(6)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        V = subspace_from_spanning(rng.standard_normal((k, dim)),
                                   ambient=spec, side="primal")
        x = rng.standard_normal(dim) * 2.0
        primal, dual = quotient_routes(x, V)
        assert abs(primal - dual) <= tol


def distance_lp(x, basis, kind):
    """`linprog` arguments for the real l1/linf distance from x to span(basis
    rows): one LP in z = (c, t), minimizing sum(t) subject to
    |x - c @ basis| <= t entrywise, with one shared t for linf."""
    k, n = basis.shape
    gap = np.eye(n) if kind == "l1" else np.ones((n, 1))
    m = gap.shape[1]
    point = np.hstack([basis.T, np.zeros((n, m))])
    t = np.hstack([np.zeros((n, k)), gap])
    return {"c": np.concatenate([np.zeros(k), np.ones(m)]),
            "A_ub": np.vstack([point - t, -point - t]), "b_ub": np.concatenate([x, -x]),
            "bounds": [(None, None)] * k + [(0, None)] * m, "method": "highs"}


def _lp_distance(x, V):
    res = linprog(**distance_lp(x, V.basis, V.ambient.kind))
    assert res.success, res.message
    return res.fun


@pytest.mark.parametrize("spec", [l1(), linf()])
def test_basic_solutions_match_the_distance_lp(spec):
    # every ambient dim up to the cap and every subspace dim, the whole space
    # included; the primal route must also stay an upper bound of the dual
    # and agree with it
    rng = np.random.default_rng(7)
    for n in range(2, 10):
        for k in range(1, n + 1):
            for _ in range(3):
                V = subspace_from_spanning(rng.standard_normal((k, n)),
                                           ambient=spec, side="primal")
                x = rng.standard_normal(n) * 2.0
                primal, dual = quotient_routes(x, V)
                case = (spec.kind, n, k)
                assert abs(primal - _lp_distance(x, V)) <= 1e-12 * max(1.0, primal), case
                assert primal >= dual - 1e-12, case
                assert abs(primal - dual) <= 1e-12 * max(1.0, primal), case


@pytest.mark.parametrize("spec", [l1(), linf()])
def test_basic_solutions_on_a_near_degenerate_basis(spec):
    # repeated coordinates make the orthonormal basis carry equal columns up
    # to rounding, so every system holding both of a pair is near-singular
    # and dropped; the rest still reach the LP's optimum
    rng = np.random.default_rng(8)
    repeats = np.array([0, 1, 2, 3, 0, 1, 4, 4, 2])
    for k in (1, 2, 4):
        V = subspace_from_spanning(rng.standard_normal((k, 5))[:, repeats],
                                   ambient=spec, side="primal")
        for x in rng.standard_normal((5, 9)) * 2.0:
            primal, dual = quotient_routes(x, V)
            assert abs(primal - _lp_distance(x, V)) <= 1e-12 * max(1.0, primal), (spec, k)
            assert abs(primal - dual) <= 1e-12 * max(1.0, primal), (spec, k)


def test_polyhedral_routes_solve_no_lp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("linprog called")

    # one solver object behind both names, the one the tracer counts
    assert duality.linprog is norms.linprog
    monkeypatch.setattr(duality, "linprog", refuse)
    monkeypatch.setattr(norms, "linprog", refuse)
    rng = np.random.default_rng(9)
    for spec in (l1(), linf()):
        V = subspace_from_spanning(rng.standard_normal((3, 7)), ambient=spec, side="primal")
        primal, dual = quotient_routes(rng.standard_normal(7), V)
        assert abs(primal - dual) <= 1e-12


def test_basic_solutions_raise_when_no_system_is_kept():
    # a zero basis makes every system singular: a typed failure, never inf,
    # even when the other trials of the stack keep systems
    good = subspace_from_spanning(np.eye(5)[:2], ambient=l1(), side="primal").basis
    for kind in ("l1", "linf"):
        for bases in (np.zeros((1, 2, 5)), np.stack([good, np.zeros((2, 5))])):
            with pytest.raises(InvariantViolation, match=f"{kind} distance with k=2, n=5"):
                _basic_solution_distance(np.ones((len(bases), 5)), bases, kind)


def test_primal_route_rejects_other_kinds_and_dims_past_the_cap():
    V = subspace_from_spanning(np.eye(3)[:1], ambient=NormSpec("operator"), side="primal")
    with pytest.raises(UnsupportedNorm, match="not defined for kind 'operator'"):
        quotient_routes(np.ones(3), V)
    n = SECTION_DIM_CAP + 1
    V = subspace_from_spanning(np.eye(n)[:4], ambient=linf(), side="primal")
    with pytest.raises(UnsupportedNorm, match="capped at ambient dim"):
        quotient_routes(np.ones(n), V)


# ---------------------------------------------------------------------------
# the stacked sweep against the one-pair-at-a-time routes


def _pair_subspace(vectors, spec):
    """Reference: the orthonormal basis of one spanning set, by its own SVD."""
    _, s, vh = np.linalg.svd(vectors, full_matrices=False)
    rank = int((s > 1e-12 * max(1.0, s[0] if len(s) else 1.0)).sum())
    return Subspace(basis=vh[:rank], ambient=spec, side="primal")


def _pair_well_posed(mats, rhs):
    ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.linalg.norm(mats, axis=2).prod(axis=1)
    return np.linalg.solve(mats[ok], rhs[ok, :, None])[..., 0]


def _sign_patterns(q):
    return 1.0 - 2.0 * (np.arange(2 ** q)[:, None] >> np.arange(q) & 1)


def _det_solve_section_points(basis, kind):
    """Reference: the section points with one det and one solve for every
    (subset, sign) system."""
    m, n = basis.shape
    if m == 0:
        return np.zeros((1, n))
    cols = basis.T
    q = m if kind == "linf" else n - m + 1
    signs = _sign_patterns(q)
    signed = np.array(list(itertools.combinations(range(n), q)))
    shape = (len(signed), len(signs))
    if kind == "linf":
        mats = np.broadcast_to(cols[signed][:, None], (*shape, m, m))
        rhs = np.broadcast_to(signs, (*shape, m))
    else:
        free = np.ones((len(signed), n), dtype=bool)
        np.put_along_axis(free, signed, False, axis=1)
        zeros = cols[np.nonzero(free)[1].reshape(len(signed), m - 1)]
        mats = np.concatenate([np.broadcast_to(zeros[:, None], (*shape, m - 1, m)),
                               (signs @ cols[signed])[:, :, None]], axis=2)
        rhs = np.broadcast_to(np.eye(m)[-1], (*shape, m))
    omegas = _pair_well_posed(mats.reshape(-1, m, m), rhs.reshape(-1, m)) @ basis
    size = np.linalg.norm(omegas, ord=np.inf if kind == "linf" else 1, axis=1)
    return np.concatenate([np.zeros((1, n)), omegas[size <= 1 + 1e-9]])


def _det_solve_basic_distance(x, basis, kind):
    """Reference: the primal route with one det and one solve for every
    basic system."""
    k, n = basis.shape
    cols = basis.T
    if kind == "l1":
        subsets = np.array(list(itertools.combinations(range(n), k)))
        mats, rhs = cols[subsets], x[subsets]
    else:
        subsets = np.array(list(itertools.combinations(range(n), k + 1)))
        signs = _sign_patterns(k + 1)[:2 ** k]
        shape = (len(subsets), len(signs), k + 1)
        mats = np.concatenate([np.broadcast_to(cols[subsets][:, None], (*shape, k)),
                               np.broadcast_to(signs[:, :, None], (*shape, 1))], axis=3)
        rhs = np.broadcast_to(x[subsets][:, None], shape)
        mats, rhs = mats.reshape(-1, k + 1, k + 1), rhs.reshape(-1, k + 1)
    coeffs = _pair_well_posed(mats, rhs)[:, :k]
    return float(eval_norm(x - coeffs @ basis, NormSpec(kind)).min())


def _term_sum(terms):
    # the kernels' dot products: summed term by term in index order
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


def _pair_section_points(basis, kind):
    """Reference: the section points of one basis, one factorization per
    coordinate subset: a det and a solve with every sign vector as a
    right-hand side (linf), or the last-row cofactors of the shared zero
    rows (l1)."""
    m, n = basis.shape
    if m == 0:
        return np.zeros((1, n))
    cols = basis.T
    q = m if kind == "linf" else n - m + 1
    signs = _sign_patterns(q)
    signed = np.array(list(itertools.combinations(range(n), q)))
    if kind == "linf":
        mats = cols[signed]
        ok = np.abs(np.linalg.det(mats)) > 1e-12 * np.linalg.norm(mats, axis=2).prod(axis=1)
        solved = np.linalg.solve(mats[ok], np.broadcast_to(signs.T, (ok.sum(), m, len(signs))))
        coeffs = np.swapaxes(solved, 1, 2).reshape(-1, m)
    else:
        free = np.ones((len(signed), n), dtype=bool)
        np.put_along_axis(free, signed, False, axis=1)
        zeros = cols[np.nonzero(free)[1].reshape(len(signed), m - 1)]
        rows = signs @ cols[signed]
        g = np.stack([(-1.0) ** (m - 1 + j) * np.linalg.det(np.delete(zeros, j, axis=2))
                      for j in range(m)], axis=1)
        dets = _term_sum([rows[:, :, j] * g[:, None, j] for j in range(m)])
        ok = np.abs(dets) > 1e-12 * (np.linalg.norm(zeros, axis=2).prod(axis=1)[:, None]
                                     * np.linalg.norm(rows, axis=2))
        subset, _ = np.nonzero(ok)
        coeffs = g[subset] / dets[ok][:, None]
    omegas = coeffs @ basis
    size = np.linalg.norm(omegas, ord=np.inf if kind == "linf" else 1, axis=1)
    return np.concatenate([np.zeros((1, n)), omegas[size <= 1 + 1e-9]])


def _pair_basic_distance(x, basis, kind):
    """Reference: the primal route for one pair, l1 by one det and one solve
    per system, linf by the last-row cofactors h of each coordinate subset's
    transposed columns and one solve of the block that drops the row of
    largest |h_j|."""
    k, n = basis.shape
    if kind == "l1":
        return _det_solve_basic_distance(x, basis, kind)
    cols = basis.T
    subsets = np.array(list(itertools.combinations(range(n), k + 1)))
    signs = _sign_patterns(k + 1)[:2 ** k]
    mats, rhs = cols[subsets], x[subsets]
    transposed = np.swapaxes(mats, 1, 2)
    h = np.stack([(-1.0) ** (k + j) * np.linalg.det(np.delete(transposed, j, axis=2))
                  for j in range(k + 1)], axis=1)
    dets = _term_sum([signs[:, j] * h[:, None, j] for j in range(k + 1)])
    rows = np.hypot(np.linalg.norm(mats, axis=2), 1.0).prod(axis=1)
    ok = np.abs(dets) > 1e-12 * rows[:, None]
    t = np.zeros(ok.shape)  # 0 for a dropped pattern, whose c is discarded
    subset, _ = np.nonzero(ok)
    t[ok] = _term_sum([rhs[:, j] * h[:, j] for j in range(k + 1)])[subset] / dets[ok]
    coeffs = []
    for s in np.flatnonzero(ok.any(axis=1)):
        block = np.delete(np.arange(k + 1), np.abs(h[s]).argmax())
        c = np.linalg.solve(mats[s, block], rhs[s, block, None] - signs[:, block].T * t[s])
        coeffs.append(c.T[ok[s]])
    return float(eval_norm(x - np.concatenate(coeffs) @ basis, NormSpec(kind)).min())


def _pair_routes(x, V):
    """Reference: both routes for one pair, each SVD, determinant, solve and
    contraction taken on that pair alone."""
    kind, n = V.ambient.kind, V.ambient_dim
    if V.dim == 0:
        primal = float(eval_norm(x, V.ambient))
    elif kind == "l2":
        primal = float(np.linalg.norm(x - V.project(x), 2))
    else:
        primal = 0.0 if V.dim == n else _pair_basic_distance(x, V.basis, kind)
    if V.dim == 0:
        null = np.eye(n)
    else:
        _, s, vh = np.linalg.svd(V.basis, full_matrices=True)
        null = vh[int((s > 1e-12).sum()):].conj()
    W = Subspace(basis=null, ambient=NormSpec(dual_kind(kind)), side="dual")
    if W.dim == 0:
        dual = 0.0
    elif W.ambient.kind == "l2":
        # the bilinear support ||W x||, as the projection onto conj(W)'s rows
        dual = float(np.linalg.norm(Subspace(basis=W.basis.conj(), ambient=W.ambient,
                                             side="dual").project(x), 2))
    else:
        dual = float(np.abs(_pair_section_points(W.basis, W.ambient.kind) @ x).max())
    return primal, dual


def _deficient(rng, k, n):
    # rank k - 1: the last vector repeats a combination of the others, or
    # rank 0 when k = 1
    if k == 1:
        return np.zeros((1, n))
    head = rng.standard_normal((k - 1, n))
    return np.vstack([head, rng.standard_normal(k - 1) @ head])


@pytest.mark.parametrize("spec", [l2(), l1(), linf()], ids=lambda s: s.kind)
def test_stacked_routes_match_the_pair_routes_bit_for_bit(spec):
    rng = np.random.default_rng(13)
    for n in (2, 3, 4, 5, 6, 8):
        # n = 8 takes one k, in more pairs than one stack holds at that dim
        ks, repeats = (range(1, n), 4) if n < 8 else ((1,), 25)
        spanning = [rng.standard_normal((k, n)) for k in ks for _ in range(repeats)]
        spanning += [_deficient(rng, k, n) for k in ks]
        spanning = [spanning[i] for i in rng.permutation(len(spanning))]
        x = rng.standard_normal((len(spanning), n)) * 2.0
        primal, dual = quotient_routes_by_dimension(x, spanning, spec)
        assert primal.shape == dual.shape == (len(spanning),)
        for t, vectors in enumerate(spanning):
            V = _pair_subspace(vectors, spec)
            expected = _pair_routes(x[t], V)
            case = (spec.kind, n, len(vectors), V.dim)
            assert (primal[t], dual[t]) == expected, case
            assert quotient_routes(x[t], subspace_from_spanning(vectors, ambient=spec)) \
                == expected, case


def test_stacked_routes_keep_their_refusals():
    rng = np.random.default_rng(14)
    spanning = [rng.standard_normal((2, 4)) for _ in range(3)]
    for kind in ("l1", "linf"):
        x = rng.standard_normal((3, 4))
        with pytest.raises(UnsupportedNorm, match="requires real data"):
            quotient_routes_by_dimension(x + 1j, spanning, NormSpec(kind))
        with pytest.raises(UnsupportedNorm, match="requires real data"):
            quotient_routes_by_dimension(x, [v + 1j for v in spanning], NormSpec(kind))
        n = SECTION_DIM_CAP + 1
        with pytest.raises(UnsupportedNorm, match="capped at ambient dim"):
            quotient_routes_by_dimension(np.ones((2, n)), [np.eye(n)[:4]] * 2, NormSpec(kind))
    # l2 takes complex data, pair for pair as before
    x, spanning = rng.standard_normal((3, 4)) + 1j, [v + 1j for v in spanning]
    primal, dual = quotient_routes_by_dimension(x, spanning, l2())
    for t, vectors in enumerate(spanning):
        assert (primal[t], dual[t]) == _pair_routes(x[t], _pair_subspace(vectors, l2()))


def test_complex_l2_routes_agree_with_the_bilinear_support():
    # the dual route is the support of x over the annihilator's unit ball
    # under the bilinear pairing, ||W x||, not ||conj(W) x||
    rng = np.random.default_rng(15)
    for _ in range(40):
        vectors = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        V = subspace_from_spanning(vectors, ambient=l2(), side="primal")
        primal, dual = quotient_routes(x, V)
        support = exact_support(annihilator(V), x)
        assert abs(primal - dual) <= 1e-12 and abs(dual - support) <= 1e-12


def _pair_sweep_failure(params, seed):
    """Reference: run_duality's draws and gate, one pair at a time; returns
    the message of the first DualityMismatch, or None."""
    rng = np.random.default_rng(seed)
    dim, trials = int(params.get("dim", 4)), int(params["trials"])
    for kind in params["norms"].split(","):
        tol = float(params.get("tol_l2" if kind == "l2" else "tol_polyhedral", 1e-12))
        for trial in range(trials):
            k = int(rng.integers(1, dim))
            V = _pair_subspace(rng.standard_normal((k, dim)), NormSpec(kind))
            primal, dual = _pair_routes(rng.standard_normal(dim), V)
            if abs(primal - dual) > tol:
                return (f"{kind} trial {trial}: primal {primal:.9g} vs dual {dual:.9g}"
                        f" exceeds tol {tol:g}")
    return None


@pytest.mark.parametrize("params", [
    {"norms": "l2,l1,linf", "trials": "40", "dim": "6", "tol_polyhedral": "0"},
    {"norms": "linf,l1", "trials": "40", "dim": "5", "tol_polyhedral": "0"},
    {"norms": "l1,l2", "trials": "40", "dim": "6", "tol_l2": "0"},
])
def test_stacked_sweep_fails_at_the_pair_sweeps_first_trial(params, tmp_path):
    expected = _pair_sweep_failure(params, 3)
    assert expected is not None
    with pytest.raises(DualityMismatch) as err:
        run_duality(params, 3, tmp_path)
    assert str(err.value) == expected


def test_route_mismatch_raises_at_zero_tolerance(tmp_path):
    # both routes carry independent rounding, so demanding exact agreement
    # must surface the reconciliation error on a generic polyhedral instance
    with pytest.raises(DualityMismatch, match="linf trial"):
        run_duality({"norms": "linf", "trials": "20", "tol_polyhedral": "0"}, 0, tmp_path)


# ---------------------------------------------------------------------------
# one factorization per coordinate subset against one per system


def test_per_subset_routes_match_the_det_solve_reference():
    # the closed forms round differently from a det and a solve per system,
    # so both routes are bounded against that reference, not matched bit for
    # bit.  The routes take orthonormal bases; on a raw basis both sides'
    # errors grow with its condition number (up to 6e-13 apart at 4.7e3)
    rng = np.random.default_rng(16)
    for name, spanning in _section_cases():
        basis = subspace_from_spanning(spanning).basis
        for kind in ("l1", "linf"):
            points = ball_section_points(basis, kind)
            reference = _det_solve_section_points(basis, kind)
            for x in rng.standard_normal((3, basis.shape[1])) * 2.0:
                value = np.abs(points @ x).max()
                gap = abs(value - np.abs(reference @ x).max())
                assert gap <= 1e-13 * max(1.0, value), (name, kind)
    repeats = np.array([0, 1, 2, 3, 0, 1, 4, 4, 2])
    for n in range(2, SECTION_DIM_CAP + 1):
        for k in range(1, n):
            vectors = rng.standard_normal((k, n))
            if n == 9 and k <= 5:  # near-degenerate: equal columns up to rounding
                vectors = rng.standard_normal((k, 5))[:, repeats]
            basis = subspace_from_spanning(vectors).basis
            for x in rng.standard_normal((2, n)) * 2.0:
                for kind in ("l1", "linf"):
                    value = _basic_solution_distance(x[None], basis[None], kind)[0]
                    gap = abs(value - _det_solve_basic_distance(x, basis, kind))
                    assert gap <= 1e-13 * max(1.0, value), (kind, n, k)


@pytest.mark.parametrize("kind,gate", [("l1", 2e-14), ("linf", 1e-14)])
def test_polyhedral_routes_agree_to_a_few_ulps(kind, gate):
    # a seeded sweep of the two exact routes, whose gap is rounding only.
    # Over 40 seeds of this sweep the largest gap read 1.1e-14 for l1
    # (distances up to about 20 at dim 8) and 7.1e-15 for linf, so each
    # gate holds for any seed; an SVD pseudo-inverse for the linf basic
    # systems read 1.6e-14 to 3.7e-14 and fails its gate
    rng = np.random.default_rng(17)
    for n in range(3, 9):
        spanning = [rng.standard_normal((k, n)) for k in rng.integers(1, n, 200)]
        x = rng.standard_normal((200, n)) * 2.0
        primal, dual = quotient_routes_by_dimension(x, spanning, NormSpec(kind))
        assert np.abs(primal - dual).max() <= gate, n


def _exact_solution(rows):
    """Reference: the solution c of the square system whose augmented rows
    [A | b] are lists of Fractions, by exact Gaussian elimination, or None
    when A is singular."""
    m = len(rows)
    a = [list(row) for row in rows]
    for col in range(m):
        pivot = next((r for r in range(col, m) if a[r][col]), None)
        if pivot is None:
            return None
        a[col], a[pivot] = a[pivot], a[col]
        for r in range(col + 1, m):
            factor = a[r][col] / a[col][col]
            if factor:
                a[r][col:] = [u - factor * v for u, v in zip(a[r][col:], a[col][col:])]
    c = [Fraction(0)] * m
    for r in reversed(range(m)):
        c[r] = (a[r][m] - sum(a[r][j] * c[j] for j in range(r + 1, m))) / a[r][r]
    return c


def _exact_basic_distance(x, basis, kind):
    """Reference: the primal l1/linf route in exact rational arithmetic.  The
    float inputs are read as the rationals they are, every nonsingular basic
    system of the distance LP (see `_basic_solution_distance`) is solved by
    exact elimination, and the least residual norm is returned as a
    Fraction: the exact distance from x to the span of the basis rows."""
    k, n = basis.shape
    xs = [Fraction(v) for v in x]
    cols = [[Fraction(v) for v in basis[:, j]] for j in range(n)]
    if kind == "l1":
        systems = ([cols[j] + [xs[j]] for j in subset]
                   for subset in itertools.combinations(range(n), k))
    else:
        systems = ([cols[j] + [s, xs[j]] for j, s in zip(subset, signs + (1,))]
                   for subset in itertools.combinations(range(n), k + 1)
                   for signs in itertools.product((1, -1), repeat=k))
    best = None
    for rows in systems:
        c = _exact_solution(rows)
        if c is None:
            continue
        residuals = [abs(xs[j] - sum(a * b for a, b in zip(cols[j], c))) for j in range(n)]
        norm = sum(residuals) if kind == "l1" else max(residuals)
        best = norm if best is None else min(best, norm)
    return best


@pytest.mark.parametrize("kind,mean_gate,max_gate",
                         [("l1", 8e-16, 4e-15), ("linf", 4e-16, 3e-15)], ids=["l1", "linf"])
def test_primal_routes_match_the_exact_rational_distance(kind, mean_gate, max_gate):
    # two seeded cases for every k at dims 3-6.  The errors read l1 mean
    # 4.6e-16, worst 1.8e-15, and linf mean 2.8e-16, worst 1.0e-15; over ten
    # other seeds of this sweep the means stayed within 3.6e-16-5.7e-16
    # (l1) and 2.1e-16-3.3e-16 (linf) and the worst errors within 2.9e-15
    # and 2.3e-15.  A complete QR per linf subset read mean 5.3e-16, worst
    # 1.8e-15 here, and fails the linf mean gate
    rng = np.random.default_rng(18)
    errors = []
    for n in range(3, 7):
        for k in range(1, n):
            for _ in range(2):
                basis = subspace_from_spanning(rng.standard_normal((k, n))).basis
                x = rng.standard_normal(n) * 2.0
                value = _basic_solution_distance(x[None], basis[None], kind)[0]
                exact = _exact_basic_distance(x, basis, kind)
                errors.append((float(abs(Fraction(value) - exact)), n, k))
    mean = sum(error for error, _, _ in errors) / len(errors)
    worst = max(errors)
    print(f"{kind}: {len(errors)} cases, error mean {mean:.2e},"
          f" worst {worst[0]:.2e} at n={worst[1]}, k={worst[2]}")
    assert mean <= mean_gate and worst[0] <= max_gate


def test_singular_patterns_are_dropped_before_any_division():
    # floating-point errors raise, so a singular pattern that reached a
    # division or a solve would fail here rather than return inf or nan
    tilted = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0] / np.sqrt(2.0)])
    cases = [*_section_cases(), ("tilted-2x3", tilted)]
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        for name, basis in cases:
            for kind in ("l1", "linf"):
                assert np.isfinite(ball_section_points(basis, kind)).all(), (name, kind)
        # on the tilted basis the singular systems are those holding both
        # equal coordinates: 2 of 12 l1 systems (signed sum 0) and 4 of 12
        # linf ones; every kept solution is a vertex, so a point
        assert len(ball_section_points(tilted, "l1")) == 1 + 10
        assert len(ball_section_points(tilted, "linf")) == 1 + 8
        # the primal systems on the tilted span: the linf subset's normal is
        # (0, 1, -1) / sqrt(2), so its patterns with equal last two signs
        # are singular, and so is the l1 system on those two coordinates.
        # On the span of (1, 1, 1, 0) and e_3 the linf subset {0, 1, 2} has
        # parallel rows, so all its cofactors vanish and it is never solved.
        # On the span of (1, 1, 0, 0) and (0, 0, 1, 1) each linf subset's
        # largest minor drops a row other than the last, and on {0, 1, 2}
        # and {0, 1, 3} the block without the last row is singular
        third, half = 1.0 / np.sqrt(3.0), 1.0 / np.sqrt(2.0)
        parallel = np.array([[third, third, third, 0.0], [0.0, 0.0, 0.0, 1.0]])
        paired = np.array([[half, half, 0.0, 0.0], [0.0, 0.0, half, half]])
        for basis, x, distances in ((tilted, [1.0, 2.0, 0.0], (2.0, 1.0)),
                                    (parallel, [1.0, 2.0, 0.0, 3.0], (2.0, 1.0)),
                                    (paired, [1.0, 2.0, 0.0, 3.0], (4.0, 1.5))):
            for kind, distance in zip(("l1", "linf"), distances):
                value = _basic_solution_distance(np.array([x]), basis[None], kind)[0]
                assert value == pytest.approx(distance, abs=1e-15), (kind, basis)
        for kind in ("l1", "linf"):
            with pytest.raises(InvariantViolation, match=f"{kind} distance"):
                _basic_solution_distance(np.ones((1, 5)), np.zeros((1, 2, 5)), kind)


# ---------------------------------------------------------------------------
# the rescaling ball criterion


def _sampled_subspace_ball(points, B, scales, tol=1e-3, spec=None):
    """Reference: the rescaling criterion over the given samples of the set
    B only, each sample of dual norm <= s rescaled by 1/s and measured by the
    distance oracle to B."""
    spec = spec if spec is not None else l2()
    mspec = NormSpec(dual_kind(spec.kind))
    point_norms = eval_norm(points, mspec)
    worst_defect = 0.0
    worst = None
    for s in scales:
        if not 0 < s < 1:
            raise ValueError("scales must lie in (0, 1)")
        for idx in np.nonzero(point_norms <= s + 1e-12)[0]:
            rescaled = points[idx] / s
            defect = min_distance_oracle(rescaled, B, mspec)
            if defect > worst_defect:
                worst_defect = defect
                worst = (float(s), rescaled)
    ok = worst_defect <= tol
    return {"ok": ok, "witness": None if ok else worst, "defect": float(worst_defect)}


def test_subspace_ball_passes_criterion():
    # this test and the next check the sampled reference itself
    t = np.linspace(-1.0, 1.0, 81)
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ball = subspace_from_spanning(d[None, :], ambient=l2(), side="dual")
    res = _sampled_subspace_ball(t[:, None] * d[None, :], ball, (0.5, 0.75), tol=1e-3,
                                 spec=l2())
    assert res["ok"]


def test_scaled_ball_fails_criterion():
    # radius-3/4 disc: the norm-1/2 sample rescales to norm 1, which sits
    # 1/4 outside the set
    ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    circle = np.exp(1j * ang)[:, None]
    pts = np.concatenate([r * circle for r in (0.75, 0.5, 0.25)])
    ball = DiscFamily(direction=np.array([1.0 + 0j]), radius=0.75)
    res = _sampled_subspace_ball(pts, ball, (0.5,), tol=1e-3, spec=l2())
    assert not res["ok"]
    assert res["defect"] == pytest.approx(0.25, abs=5e-3)


def _disc_samples(disc, radii, angles):
    """The disc sampled at 0 and on circles of the given radii: at angles
    angles (complex scalars) or at +-radius (real scalars)."""
    thetas = 2 * np.pi * np.arange(angles) / angles if disc.complex_scalars else (
        np.array([0.0, np.pi]))
    lams = np.concatenate([[0.0]] + [r * np.exp(1j * thetas) for r in radii])
    if not disc.complex_scalars:
        lams = lams.real
    return lams[:, None] * disc.direction[None, :]


def _disc_cases():
    rng = np.random.default_rng(21)
    for trial in range(240):
        dim = 1 + trial % 8
        direction = rng.standard_normal(dim)
        if rng.random() < 0.5:
            direction = direction + 1j * rng.standard_normal(dim)
        direction *= rng.uniform(0.2, 1.0) / np.linalg.norm(direction)
        if trial % 40 == 7:
            direction = np.zeros(dim)
        radius = 0.0 if trial % 10 == 3 else float(rng.uniform(0.05, 1.5))
        disc = DiscFamily(direction=direction, radius=radius,
                          complex_scalars=bool(trial // 3 % 2))
        spec = (l1(), l2(), linf())[trial % 3]
        scales = tuple(float(s) for s in rng.uniform(0.0, 1.0, int(rng.integers(1, 4))))
        yield rng, disc, spec, scales
    # the counterexample scenario's discs, in its space and at its scales
    for disc in (counterexample_limit_disc(10), counterexample_ball(3, 10)):
        yield rng, disc, l1(), (0.5, 0.75)


def test_closed_form_criterion_matches_the_sampled_reference():
    for rng, disc, spec, scales in _disc_cases():
        case = (disc, spec.kind, scales)
        mspec = NormSpec(dual_kind(spec.kind))
        size = eval_norm(disc.direction, mspec)
        # a grid holding every lam* = min(r, s / ||d||) at angle 0, plus
        # smaller radii, attains the closed form at each scale
        stars = [min(disc.radius, s / size) if size else disc.radius for s in scales]
        radii = stars + list(rng.uniform(0.0, 1.0, 3) * min(stars))
        sampled = _disc_samples(disc, radii, 16)
        res = is_subspace_ball(disc, scales, tol=0.0, spec=spec)
        ref = _sampled_subspace_ball(sampled, disc, scales, tol=0.0, spec=spec)
        assert abs(ref["defect"] - res["defect"]) <= 1e-12, case
        per_scale = [is_subspace_ball(disc, (s,), tol=0.0, spec=spec)["defect"]
                     for s in scales]
        assert res["defect"] == max(per_scale), case
        if res["witness"] is None:
            assert res["defect"] == 0.0, case
        else:
            s, point = res["witness"]
            assert s == scales[per_scale.index(res["defect"])], case
            # scales whose defects tie within rounding may swap in the reference
            tied = [t for t, v in zip(scales, per_scale) if v >= res["defect"] - 1e-12]
            assert ref["witness"] is None or ref["witness"][0] in tied, case
            if len(tied) == 1 and ref["witness"] is not None:
                assert ref["witness"][0] == s, case
            # the witness rescales a disc member of norm <= s and sits at the
            # defect's distance from the disc
            assert eval_norm(s * point, mspec) <= s * (1 + 1e-12), case
            assert min_distance_oracle(s * point, disc, mspec) <= 1e-12, case
            assert abs(min_distance_oracle(point, disc, mspec) - res["defect"]) <= 1e-12, case
        # no grid of the disc finds a larger defect
        loose = _disc_samples(disc, rng.uniform(0.0, disc.radius, 5), 8)
        assert _sampled_subspace_ball(loose, disc, scales, tol=0.0, spec=spec)["defect"] <= (
            res["defect"] + 1e-12), case


def test_criterion_needs_a_disc_descriptor():
    d = np.array([1.0, 0.0])
    for B in (None, Subspace(basis=d[None, :], ambient=l2(), side="dual")):
        with pytest.raises(UnsupportedNorm, match="DiscFamily"):
            is_subspace_ball(B, (0.5,), spec=l2())


def test_limit_disc_fails_with_half_defect():
    lim = counterexample_limit_disc(18)
    res = is_subspace_ball(lim, (0.5, 0.75), tol=1e-3, spec=l1())
    assert not res["ok"]
    assert res["defect"] == 0.5
    s, point = res["witness"]
    assert s == 0.5
    # the witness is the first coordinate functional delta_0
    assert point.dtype == np.complex128
    assert np.array_equal(point, np.eye(18, dtype=np.complex128)[0])


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_finite_stage_balls_pass(n):
    ball = counterexample_ball(n, 12)
    res = is_subspace_ball(ball, (0.5, 0.75), tol=1e-3, spec=l1())
    assert res["ok"], res
    assert res["defect"] == 0.0


def test_criterion_rejects_bad_scales():
    ball = counterexample_ball(1, 8)
    with pytest.raises(ValueError):
        is_subspace_ball(ball, (1.5,), spec=l1())


# ---------------------------------------------------------------------------
# convergence gaps


def test_constant_sequence_has_zero_gaps():
    V = counterexample_subspace(2, 8)
    gaps = convergence_gap([V, V, V], V, np.eye(8)[:3])
    assert gaps == [0.0, 0.0, 0.0]


def test_convergence_gap_rejects_an_empty_probe_set():
    V = counterexample_subspace(2, 8)
    with pytest.raises(ValueError, match="probe set"):
        convergence_gap([V], V, np.zeros((0, 8)))
    assert convergence_gap([], V, np.eye(8)[:3]) == []


def test_rotating_lines_converge_monotonically():
    def line(theta):
        return subspace_from_spanning(np.array([[np.cos(theta), np.sin(theta)]]),
                                      ambient=l2(), side="dual")

    thetas = [0.4, 0.2, 0.1, 0.05, 0.025]
    gaps = convergence_gap([line(t) for t in thetas], line(0.0), np.eye(2))
    assert all(gaps[i + 1] < gaps[i] for i in range(len(gaps) - 1))
    assert gaps[-1] < 0.05


def test_escaping_probes_defeat_fixed_probe_stabilization():
    trunc = 12
    V_list = [counterexample_subspace(n, trunc) for n in range(1, 9)]
    limit = subspace_from_spanning(np.eye(trunc)[:1].astype(np.complex128),
                                   ambient=linf(), side="dual")
    fixed = convergence_gap(V_list, limit, np.eye(trunc)[:1])
    # on the fixed probe the gap settles at the 1/2 coefficient discrepancy
    assert all(abs(g - 0.5) <= 1e-9 for g in fixed)
    escaping = [convergence_gap([V_list[i]], limit, np.eye(trunc)[i + 1])[0]
                for i in range(len(V_list))]
    assert all(g >= 1.0 - 1e-9 for g in escaping)
