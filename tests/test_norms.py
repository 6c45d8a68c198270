"""Norm evaluation, dual norms, probe metrics, and the distance oracle.

Expected values are frozen from independent hand computations noted inline;
random sweeps use fixed seeds so failures are reproducible.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from hyperselect.norms import (
    DiscFamily,
    DimensionMismatch,
    EmptySet,
    NormSpec,
    OutsideUnitBall,
    ProbeSequence,
    SampledSet,
    SubspaceBall,
    UnsupportedNorm,
    distances_to_points,
    dual_kind,
    dyadic_weights,
    eval_norm,
    l1,
    l2,
    linf,
    make_probe_sequence,
    min_distance_oracle,
    operator_norm,
    probe_metric,
    probe_strong,
    probe_strong_star,
    probe_weak,
    require_probe_domain,
    trace_norm,
)


def _basis_probes(dim, length):
    vectors = np.array([np.eye(dim)[i % dim] for i in range(length)])
    pairing = np.zeros((length, 2), dtype=np.int64)
    # anti-diagonal walk of N x N, same surjection the default sequence uses
    m = 0
    for total in range(length):
        for k in range(total + 1):
            if m < length:
                pairing[m] = (k % length, (total - k) % length)
                m += 1
    return ProbeSequence(vectors=vectors, pairing=pairing[:length])


# ---------------------------------------------------------------------------
# frozen single values


def test_sup_norm_coordinate_maximum():
    assert eval_norm(np.array([1.0, -2.0, 3.0]), linf()) == 3.0


def test_trace_norm_of_identity():
    # singular values 1, 1
    assert eval_norm(np.eye(2), trace_norm()) == pytest.approx(2.0, abs=1e-12)


def test_strong_star_single_matrix_unit():
    # x = e11 in M4, probes = standard basis: only xi_1 contributes,
    # (||x xi_1|| + ||x* xi_1||)/2 = 1 at weight 1/2 -> 0.5
    probes = make_probe_sequence(4, 4)
    x = np.zeros((4, 4))
    x[0, 0] = 1.0
    assert eval_norm(x, probe_strong_star(probes)) == pytest.approx(0.5, abs=1e-12)


def test_weak_metric_single_cross_term():
    # pairing walks (0,0),(0,1),(1,0),(1,1); only <e1, e12 e2> = 1 is nonzero,
    # it sits at m = 3 (weights start at 1/2), so the value is 2^-3
    probes = make_probe_sequence(2, 4)
    e12 = np.array([[0.0, 1.0], [0.0, 0.0]])
    val = probe_metric(e12, np.zeros((2, 2)), probe_weak(probes))
    assert val == pytest.approx(0.125, abs=1e-12)


def test_dual_norm_frozen_values():
    assert eval_norm(np.array([1.0, -2.0, 3.0]), NormSpec(dual_kind("l1"))) == 3.0
    assert eval_norm(np.array([3.0, 4.0]), NormSpec(dual_kind("l2"))) == pytest.approx(5.0, abs=1e-12)
    assert eval_norm(np.array([1.0, 1.0, -1.0]), NormSpec(dual_kind("linf"))) == 3.0


def test_dual_kind_pairing():
    assert dual_kind("l1") == "linf"
    assert dual_kind("linf") == "l1"
    assert dual_kind("l2") == "l2"
    with pytest.raises(UnsupportedNorm):
        dual_kind("operator")


def test_probe_metric_identity_of_indiscernibles():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((3, 3))
    a /= max(1.0, np.linalg.norm(a, 2))
    spec = probe_strong_star(make_probe_sequence(3, 6))
    assert probe_metric(a, a, spec) == 0.0


@pytest.mark.parametrize("spec_name", ["l1", "l2", "linf", "operator", "trace",
                                       "probe_weak", "probe_strong", "probe_strong_star"])
def test_stack_matches_one_at_a_time(spec_name):
    # one evaluator for every shape: a (2, 3) stack gives each member's own
    # value bit for bit, a single vector or matrix gives a float, and a
    # stack of transposed views (the adjoint side of adjoint_modulus) agrees
    rng = np.random.default_rng(4)
    x = rng.standard_normal((2, 3, 4, 4)) + 1j * rng.standard_normal((2, 3, 4, 4))
    if spec_name in ("l1", "l2", "linf"):
        spec, views = NormSpec(spec_name), [x[..., 0, :]]
    else:
        probes = make_probe_sequence(4, 6) if spec_name.startswith("probe") else None
        spec, views = NormSpec(spec_name, probes=probes), [x, x.swapaxes(-1, -2)]
    for v in views:
        singles = [[eval_norm(np.array(m), spec) for m in row] for row in v]
        assert all(type(s) is float for row in singles for s in row)
        stacked = eval_norm(v, spec)
        assert stacked.shape == (2, 3)
        assert np.array_equal(stacked, singles)
    assert eval_norm(views[0][0, :1], spec).shape == (1,)


# ---------------------------------------------------------------------------
# spec-level invariants


@pytest.mark.parametrize("spec_name", ["l1", "l2", "linf", "operator", "trace",
                                       "probe_weak", "probe_strong", "probe_strong_star"])
def test_homogeneity_random_sweep(spec_name):
    rng = np.random.default_rng(11)
    dim = 4
    if spec_name in ("l1", "l2", "linf"):
        spec = NormSpec(spec_name)
        draw = lambda: rng.standard_normal(dim)
    else:
        probes = make_probe_sequence(dim, 6)
        if spec_name in ("operator", "trace"):
            spec = NormSpec(spec_name)
        else:
            spec = NormSpec(spec_name, probes=probes)
        draw = lambda: rng.standard_normal((dim, dim))
    for _ in range(200):
        v = draw()
        lam = rng.standard_normal() * 3.0
        lhs = eval_norm(lam * v, spec)
        rhs = abs(lam) * eval_norm(v, spec)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(-8, 8, allow_nan=False),
       coords=st.lists(st.floats(-5, 5, allow_nan=False, allow_infinity=False),
                       min_size=1, max_size=6))
def test_homogeneity_property(lam, coords):
    v = np.array(coords)
    for spec in (l1(), l2(), linf()):
        lhs = eval_norm(lam * v, spec)
        rhs = abs(lam) * eval_norm(v, spec)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def _dual_maximiser(omega, kind):
    """The closed-form maximiser of <omega, x> over the unit ball of `kind`."""
    if kind == "l1":
        j = int(np.argmax(np.abs(omega)))
        return np.sign(omega[j]) * np.eye(len(omega))[j]
    if kind == "l2":
        return omega / np.linalg.norm(omega)
    return np.sign(omega)


def test_dual_norm_is_attained_and_dominates_draws():
    rng = np.random.default_rng(5)
    for spec in (l1(), l2(), linf()):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            omega = rng.standard_normal(dim) * 2.0
            exact = eval_norm(omega, NormSpec(dual_kind(spec.kind)))
            w = _dual_maximiser(omega, spec.kind)
            assert eval_norm(w, spec) <= 1.0 + 1e-12
            assert abs(float(w @ omega) - exact) <= 1e-12
            g = rng.standard_normal((3, dim))
            boundary = g / np.array([eval_norm(row, spec) for row in g])[:, None]
            assert float(np.abs(boundary @ omega).max()) <= exact + 1e-12


def test_probe_metric_dominated_by_operator_distance():
    rng = np.random.default_rng(7)
    probes = make_probe_sequence(3, 8)
    specs = [probe_weak(probes), probe_strong(probes), probe_strong_star(probes)]
    for _ in range(100):
        a, b = rng.standard_normal((2, 3, 3))
        a /= max(1.0, np.linalg.norm(a, 2))
        b /= max(1.0, np.linalg.norm(b, 2))
        for spec in specs:
            assert probe_metric(a, b, spec) <= 2.0 * np.linalg.norm(a - b, 2) + 1e-12


def test_probe_metric_triangle_inequality():
    rng = np.random.default_rng(13)
    spec = probe_strong_star(make_probe_sequence(3, 6))
    for _ in range(100):
        a, b, c = rng.standard_normal((3, 3, 3))
        for m in (a, b, c):
            m /= max(1.0, np.linalg.norm(m, 2))
        dac = probe_metric(a, c, spec)
        assert dac <= probe_metric(a, b, spec) + probe_metric(b, c, spec) + 1e-12


def test_probe_metric_rejects_points_outside_ball():
    spec = probe_strong_star(make_probe_sequence(2, 4))
    with pytest.raises(OutsideUnitBall):
        probe_metric(3.0 * np.eye(2), np.zeros((2, 2)), spec)
    with pytest.raises(OutsideUnitBall):
        require_probe_domain(spec, np.stack([np.zeros((2, 2)), 3.0 * np.eye(2)]))


# ---------------------------------------------------------------------------
# probe sequences


def test_probe_sequence_rows_are_unit_and_deterministic():
    p1 = make_probe_sequence(3, 12)
    p2 = make_probe_sequence(3, 12)
    assert np.array_equal(p1.vectors, p2.vectors)
    assert np.all(np.abs(np.linalg.norm(p1.vectors, axis=1) - 1.0) <= 1e-12)


def test_probe_sequence_lists_primitive_directions_in_order():
    # e0, e1, then (1, +-1), (2, +-1), (1, +-2): 1-norm first, each
    # coordinate from +t down to -t
    v = make_probe_sequence(2, 8).vectors
    scaled = v * np.sqrt([1, 1, 2, 2, 5, 5, 5, 5])[:, None]
    expected = [[1, 0], [0, 1], [1, 1], [1, -1], [2, 1], [2, -1], [1, 2], [1, -2]]
    assert np.allclose(scaled, expected, rtol=0, atol=1e-15)
    assert make_probe_sequence(1, 1).vectors.tolist() == [[1.0]]
    with pytest.raises(ValueError, match="dimension 1"):
        make_probe_sequence(1, 2)


@pytest.mark.parametrize("dim", [2, 3, 4])
def test_probe_sequence_rows_are_pairwise_non_parallel(dim):
    # a probe norm ||x xi|| cannot tell xi from -xi, so a row parallel to an
    # earlier one, of either sign, would only repeat a probe
    v = make_probe_sequence(dim, 40).vectors
    cos = np.abs(v @ v.T)
    np.fill_diagonal(cos, 0.0)
    assert cos.max() < 1.0 - 1e-9


def test_probe_sequence_prefix_stability():
    short = make_probe_sequence(3, 8)
    long = make_probe_sequence(3, 16)
    assert np.array_equal(long.vectors[:8], short.vectors)


def test_probe_sequence_rejects_empty_length():
    # the anti-diagonal pairing walk only stops on reaching the length, so a
    # length below 1 must be refused before it starts
    for length in (0, -3):
        with pytest.raises(ValueError, match="at least 1"):
            make_probe_sequence(2, length)


def test_probe_sequence_rejects_non_unit_rows():
    with pytest.raises(ValueError):
        ProbeSequence(vectors=np.array([[2.0, 0.0]]), pairing=np.array([[0, 0]]))


def test_weights_must_be_positive_and_bounded():
    probes = make_probe_sequence(2, 3)
    with pytest.raises(ValueError):
        NormSpec("probe_strong", probes=probes, weights=np.array([1.0, 1.0, 0.5]))
    with pytest.raises(DimensionMismatch):
        NormSpec("probe_strong", probes=probes, weights=np.array([0.5, 0.25]))


def test_dyadic_weights_start_at_one_half():
    w = dyadic_weights(4)
    assert np.allclose(w, [0.5, 0.25, 0.125, 0.0625])


# ---------------------------------------------------------------------------
# sampled sets and the distance oracle


def test_sampled_set_must_be_nonempty():
    with pytest.raises(EmptySet):
        SampledSet(points=np.zeros((0, 2)))


def test_distance_to_own_sample_is_zero():
    pts = np.array([[0.0, 1.0], [2.0, 3.0]])
    sset = SampledSet(points=pts)
    assert min_distance_oracle(np.array([2.0, 3.0]), sset, l2()) == 0.0


def test_distance_to_origin_singleton():
    sset = SampledSet(points=np.array([[0.0, 0.0]]))
    assert min_distance_oracle(np.array([3.0, 4.0]), sset, l2()) == 5.0


def _diagonal_ball_samples():
    ts = np.linspace(-1.0, 1.0, 41)
    pts = np.stack([ts, ts], axis=1)
    exact = SubspaceBall(basis=np.array([[1.0, 1.0]]) / 2.0, ball_spec=linf())
    return SampledSet(points=pts, exact=exact)


def test_refined_distance_to_diagonal_segment():
    # min over t of max(|1 - t|, |t|) = 1/2, attained at t = 1/2
    sset = _diagonal_ball_samples()
    val = min_distance_oracle(np.array([1.0, 0.0]), sset, linf())
    assert val == pytest.approx(0.5, abs=1e-12)


def test_refined_distance_interior_disc_point_is_zero():
    # a point strictly inside the disc must come back at exactly 0, even
    # though the coarse samples sit on a polar grid away from it
    d = np.zeros(6, dtype=np.complex128)
    d[0] = 1.0
    disc = DiscFamily(direction=d, radius=1.0, complex_scalars=True)
    angles = np.exp(2j * np.pi * np.arange(16) / 16)
    pts = np.concatenate([r * angles[:, None] * d[None, :] for r in (1.0, 0.5)])
    sset = SampledSet(points=pts, exact=disc)
    x = (1.0 / 6.0) * np.exp(1j * 0.37) * d
    assert min_distance_oracle(x, sset, l1()) == 0.0


# ---------------------------------------------------------------------------
# exact oracle routes against an independent SLSQP reference


def _origin_only(dim, exact):
    # the origin lies in every disc and section, so the sample minimum is
    # ||x|| and the oracle returns the exact route's value
    return SampledSet(points=np.zeros((1, dim)), exact=exact)


def _slsqp_l2_section_distance(basis, x):
    """Reference: min |c @ basis - x| over |c @ basis| <= 1, with complex
    coefficients a + ib written as real (a, b) on stacked [re, im] parts."""
    basis = np.asarray(basis, dtype=np.complex128)
    r = np.block([[basis.real, basis.imag], [-basis.imag, basis.real]])
    xr = np.concatenate([x.real, x.imag])
    cons = [{"type": "ineq", "fun": lambda c: 1.0 - ((c @ r) ** 2).sum(),
             "jac": lambda c: -2.0 * r @ (c @ r)}]
    res = minimize(lambda c: ((c @ r - xr) ** 2).sum(), np.zeros(len(r)),
                   jac=lambda c: 2.0 * r @ (c @ r - xr), method="SLSQP",
                   constraints=cons, options={"ftol": 1e-24, "maxiter": 500})
    point = res.x @ r
    point /= max(1.0, np.linalg.norm(point))  # undo constraint slack
    return float(np.linalg.norm(point - xr))


def _slsqp_polyhedral_section_distance(basis, x, ball_kind, kind):
    """Reference: SLSQP on the epigraph form in z = (c, t, u), minimizing
    sum(t) with t >= |x - c @ basis| and u >= |c @ basis| bounded by the ball."""
    k, n = basis.shape
    m = n if kind == "l1" else 1

    def cons(z):
        c, t, u = z[:k], z[k:k + m], z[k + m:]
        p = c @ basis
        ball = [1.0 - u.sum()] if ball_kind == "l1" else 1.0 - u
        return np.concatenate([t - (x - p), t + (x - p), u - p, u + p, ball])

    size = k + m + n
    jac = np.array([cons(e) - cons(np.zeros(size)) for e in np.eye(size)]).T  # cons is affine
    z0 = np.concatenate([np.zeros(k), np.full(m, np.abs(x).sum()), np.zeros(n)])
    res = minimize(lambda z: z[k:k + m].sum(), z0, method="SLSQP",
                   jac=lambda z: np.concatenate([np.zeros(k), np.ones(m), np.zeros(n)]),
                   bounds=[(None, None)] * k + [(0.0, None)] * (m + n),
                   constraints=[{"type": "ineq", "fun": cons, "jac": lambda z: jac}],
                   options={"ftol": 1e-15, "maxiter": 500})
    point = res.x[:k] @ basis
    point /= max(1.0, eval_norm(point, NormSpec(ball_kind)))  # undo constraint slack
    return eval_norm(x - point, NormSpec(kind))


def _slsqp_disc_distance(disc, x, spec):
    """Reference: min ||lam d - x|| over |lam| <= radius, lam = a + ib."""
    d = disc.direction
    free = 2 if disc.complex_scalars else 1

    def lam(v):
        return v[0] + 1j * v[1] if free == 2 else v[0]

    res = minimize(lambda v: eval_norm(lam(v) * d - x, spec) ** 2, np.zeros(free),
                   jac="3-point", method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda v: disc.radius ** 2 - v @ v}],
                   options={"ftol": 1e-24, "maxiter": 500})
    best = lam(res.x)
    best *= min(1.0, disc.radius / max(abs(best), 1e-300))  # undo constraint slack
    return eval_norm(best * d - x, spec)


def _crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_l2_section_distance_matches_slsqp_reference():
    rng = np.random.default_rng(3)
    for _ in range(150):
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(1, dim + 1))
        if rng.random() < 0.5:
            basis, x = _crandn(rng, k, dim), _crandn(rng, dim)
        else:
            basis, x = rng.standard_normal((k, dim)), rng.standard_normal(dim)
        sset = _origin_only(dim, SubspaceBall(basis=basis, ball_spec=l2()))
        ref = _slsqp_l2_section_distance(basis, x)
        assert abs(min_distance_oracle(x, sset, l2()) - ref) <= 1e-8, (basis, x)


def test_polyhedral_section_distance_matches_slsqp_reference():
    rng = np.random.default_rng(4)
    for _ in range(150):
        dim = int(rng.integers(1, 6))
        k = int(rng.integers(1, dim + 1))
        ball_kind, kind = rng.choice(["l1", "linf"], 2)
        basis = rng.standard_normal((k, dim))
        x = rng.standard_normal(dim) * 1.5
        sset = _origin_only(dim, SubspaceBall(basis=basis, ball_spec=NormSpec(ball_kind)))
        ref = _slsqp_polyhedral_section_distance(basis, x, ball_kind, kind)
        val = min_distance_oracle(x, sset, NormSpec(kind))
        assert abs(val - ref) <= 1e-8, (basis, x, ball_kind, kind)


def test_on_line_disc_distance_matches_slsqp_reference():
    rng = np.random.default_rng(5)
    for _ in range(150):
        dim = int(rng.integers(1, 6))
        complex_scalars = bool(rng.random() < 0.5)
        d = _crandn(rng, dim) if rng.random() < 0.5 else rng.standard_normal(dim)
        disc = DiscFamily(direction=d, radius=float(rng.uniform(0.2, 2.0)),
                          complex_scalars=complex_scalars)
        mu = disc.radius * rng.uniform(0.0, 2.5)
        if complex_scalars:
            mu *= np.exp(2j * np.pi * rng.random())
        elif rng.random() < 0.5:
            mu = -mu
        x = mu * d
        spec = NormSpec(str(rng.choice(["l1", "l2", "linf"])))
        ref = _slsqp_disc_distance(disc, x, spec)
        assert abs(min_distance_oracle(x, _origin_only(dim, disc), spec) - ref) <= 1e-8


@pytest.mark.parametrize("exact,spec", [
    (DiscFamily(direction=np.array([1.0, 2.0, 0.0]), radius=1.0), l2()),
    (SubspaceBall(basis=np.array([[1.0, 2.0, 0.0]]), ball_spec=l2()), linf()),
    (SubspaceBall(basis=np.array([[1.0, 2j, 0.0]]), ball_spec=linf()), linf()),
], ids=["off-line-disc-query", "l2-section-in-linf", "complex-linf-section"])
def test_oracle_raises_without_an_exact_route(exact, spec):
    with pytest.raises(UnsupportedNorm):
        min_distance_oracle(np.array([1.0, 0.0, 0.0]), _origin_only(3, exact), spec)


def test_zero_direction_disc_is_the_origin():
    disc = DiscFamily(direction=np.zeros(3, dtype=np.complex128), radius=2.0)
    x = np.array([3.0, -4.0, 0.0])
    assert min_distance_oracle(x, _origin_only(3, disc), l1()) == 7.0


def test_operator_norm_requires_square_input():
    with pytest.raises(DimensionMismatch):
        eval_norm(np.ones((2, 3)), operator_norm())
    with pytest.raises(DimensionMismatch):
        # three points in dimension 3 are rows, not one 3 x 3 matrix
        distances_to_points(np.zeros(3), np.eye(3), operator_norm())


def test_probe_kind_requires_probes():
    with pytest.raises(UnsupportedNorm):
        NormSpec("probe_strong_star")
    with pytest.raises(UnsupportedNorm):
        NormSpec("l2", weights=np.array([1.0]))
