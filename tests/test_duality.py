"""Support functions, annihilators, the two-route distance, ball
reconstruction, the rescaling ball criterion, and the disc family."""
import numpy as np
import pytest

from hyperselect.duality import (
    DualityMismatch,
    Subspace,
    annihilator,
    convergence_gap,
    counterexample_ball,
    counterexample_limit_disc,
    counterexample_subspace,
    exact_support,
    is_subspace_ball,
    profile_from_set,
    quotient_distance,
    quotient_routes,
    reconstruct_ball,
    span_gap,
    subspace_from_json,
    subspace_from_spanning,
    subspace_to_json,
    support_function,
)
from hyperselect.hyperspace import hausdorff_distance
from hyperselect.norms import (
    DiscFamily,
    SampledSet,
    SubspaceBall,
    UnsupportedNorm,
    eval_norm,
    l1,
    l2,
    linf,
)


def _ball_samples(dim, count, spec, rng, radius=1.0, exact=None):
    g = rng.standard_normal((count, dim))
    norms = np.array([eval_norm(row, spec) for row in g])
    scales = radius * rng.random(count) ** (1.0 / dim)
    return SampledSet(points=g * (scales / norms)[:, None], convex=True,
                      balanced=True, exact=exact)


# ---------------------------------------------------------------------------
# support function


def test_support_of_full_dual_ball_is_the_norm():
    rng = np.random.default_rng(0)
    ball = _ball_samples(2, 500, l2(), rng,
                         exact=SubspaceBall(basis=np.eye(2), ball_spec=l2()))
    assert support_function(ball, np.array([3.0, 4.0])) == pytest.approx(5.0, abs=1e-9)


def test_support_of_zero_family():
    assert support_function(None, np.array([1.0, 2.0])) == 0.0
    zero = SampledSet(points=np.zeros((1, 2)))
    assert support_function(zero, np.array([1.0, 2.0])) == 0.0


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
    ball = _ball_samples(3, 200, l2(), rng)
    for _ in range(50):
        x = rng.standard_normal(3)
        lam = rng.standard_normal() * 2.0
        lhs = support_function(ball, lam * x)
        rhs = abs(lam) * support_function(ball, x)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)


def test_support_monotone_in_the_family():
    rng = np.random.default_rng(2)
    small = _ball_samples(3, 150, l2(), rng, radius=0.7)
    big = SampledSet(points=np.concatenate([small.points,
                                            rng.standard_normal((150, 3))]))
    for _ in range(50):
        x = rng.standard_normal(3)
        assert support_function(small, x) <= support_function(big, x) + 1e-12


# ---------------------------------------------------------------------------
# annihilators


def test_annihilator_of_coordinate_plane():
    V = subspace_from_spanning(np.eye(3)[:2], ambient=l2(), side="primal")
    W = annihilator(V)
    assert W.side == "dual"
    expected = subspace_from_spanning(np.eye(3)[2:], ambient=l2(), side="dual")
    assert span_gap(W, expected) <= 1e-10


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
        assert span_gap(VV, V) <= 1e-8


def test_subspace_json_roundtrip():
    rng = np.random.default_rng(4)
    V = subspace_from_spanning(rng.standard_normal((2, 4)), ambient=linf(), side="primal")
    W = subspace_from_json(subspace_to_json(V))
    assert W.side == V.side and W.ambient.kind == V.ambient.kind
    assert span_gap(V, W) <= 1e-12


def test_subspace_json_rejects_a_non_vector_norm():
    doc = subspace_to_json(subspace_from_spanning(np.eye(3)[:1], ambient=l2()))
    doc["norm"] = "operator"
    with pytest.raises(UnsupportedNorm, match="operator"):
        subspace_from_json(doc)


# ---------------------------------------------------------------------------
# quotient distance, both routes


def test_quotient_distance_orthogonal_projection():
    V = subspace_from_spanning(np.eye(3)[:2], ambient=l2(), side="primal")
    assert quotient_distance(np.array([3.0, 4.0, 5.0]), V) == pytest.approx(5.0, abs=1e-9)


def test_quotient_distance_sup_norm_diagonal():
    # min over t of max(|1 - t|, |t|) = 1/2; dual route: the annihilator
    # span{(1,-1)} meets the l1 unit ball at (1/2, -1/2), pairing 1/2
    V = subspace_from_spanning(np.array([[1.0, 1.0]]), ambient=linf(), side="primal")
    assert quotient_distance(np.array([1.0, 0.0]), V) == pytest.approx(0.5, abs=1e-9)


def test_quotient_distance_vanishes_on_members():
    rng = np.random.default_rng(5)
    V = subspace_from_spanning(rng.standard_normal((2, 4)), ambient=l2(), side="primal")
    member = V.basis.T @ rng.standard_normal(2)
    assert quotient_distance(member, V) <= 1e-9


@pytest.mark.parametrize("spec,tol", [(l2(), 1e-6), (l1(), 1e-9), (linf(), 1e-9)])
def test_two_routes_agree_on_random_instances(spec, tol):
    rng = np.random.default_rng(6)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        V = subspace_from_spanning(rng.standard_normal((k, dim)),
                                   ambient=spec, side="primal")
        x = rng.standard_normal(dim) * 2.0
        primal, dual = quotient_routes(x, V)
        assert abs(primal - dual) <= tol


def test_route_mismatch_raises_at_zero_tolerance():
    # both routes carry independent rounding, so demanding exact agreement
    # must surface the reconciliation error on a generic instance
    rng = np.random.default_rng(0)
    raised = 0
    for _ in range(20):
        dim = int(rng.integers(3, 7))
        V = subspace_from_spanning(rng.standard_normal((2, dim)),
                                   ambient=linf(), side="primal")
        x = rng.standard_normal(dim) * 2.0
        try:
            quotient_distance(x, V, tol=0.0)
        except DualityMismatch:
            raised += 1
    assert raised > 0


# ---------------------------------------------------------------------------
# ball reconstruction from support profiles


def _circle_probes(count):
    ang = np.linspace(0.0, np.pi, count, endpoint=False)
    return np.stack([np.cos(ang), np.sin(ang)], axis=1)


def test_reconstruct_full_ball():
    rng = np.random.default_rng(7)
    ball = _ball_samples(2, 800, l2(), rng,
                         exact=SubspaceBall(basis=np.eye(2), ball_spec=l2()))
    profile = profile_from_set(ball, _circle_probes(16))
    mesh = 0.05
    recon = reconstruct_ball(profile, mesh=mesh)
    # the profile is identically 1, so the cut reduces to the norm filter
    # and the reconstruction is exactly the grid sampling of the unit ball
    axis = np.arange(-1.0, 1.0 + mesh / 2, mesh)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    grid = np.stack([gx.ravel(), gy.ravel()], axis=1)
    disc = grid[np.linalg.norm(grid, axis=1) <= 1 + 1e-12]
    assert hausdorff_distance(recon, SampledSet(points=disc), l2()) <= 1e-12


def test_reconstruct_collapses_unseen_coordinate():
    # support 0 at the second coordinate probe forces that coordinate to 0
    seg = SampledSet(points=np.stack([np.linspace(-1, 1, 81), np.zeros(81)], axis=1),
                     convex=True, balanced=True,
                     exact=SubspaceBall(basis=np.array([[1.0, 0.0]]), ball_spec=l2()))
    profile = profile_from_set(seg, np.eye(2))
    recon = reconstruct_ball(profile, mesh=0.05)
    assert np.abs(recon.points[:, 1]).max() <= 1e-9
    assert np.abs(recon.points[:, 0]).max() >= 1.0 - 1e-9


def test_more_probes_tighten_the_reconstruction():
    rng = np.random.default_rng(8)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0].T
    exact = SubspaceBall(basis=basis, ball_spec=l2())
    coeff = rng.standard_normal((4000, 2))
    coeff /= np.maximum(1.0, np.linalg.norm(coeff, axis=1))[:, None]
    ball = SampledSet(points=coeff @ basis, convex=True, balanced=True, exact=exact)

    def recon_error(n_probes):
        probes = rng.standard_normal((n_probes, 4))
        probes /= np.linalg.norm(probes, axis=1, keepdims=True)
        profile = profile_from_set(ball, probes)
        recon = reconstruct_ball(profile, mesh=0.2)
        return hausdorff_distance(recon, ball, l2())

    rng = np.random.default_rng(9)
    err16 = recon_error(16)
    rng = np.random.default_rng(9)
    err64 = recon_error(64)
    assert err64 < err16


def test_reconstruction_is_idempotent_within_mesh():
    rng = np.random.default_rng(10)
    ball = _ball_samples(2, 600, l2(), rng,
                         exact=SubspaceBall(basis=np.eye(2), ball_spec=l2()))
    probes = _circle_probes(12)
    mesh = 0.05
    r1 = reconstruct_ball(profile_from_set(ball, probes), mesh=mesh)
    r2 = reconstruct_ball(profile_from_set(r1, probes), mesh=mesh)
    assert hausdorff_distance(r1, r2, l2()) < mesh


# ---------------------------------------------------------------------------
# the rescaling ball criterion


def test_subspace_ball_passes_criterion():
    t = np.linspace(-1.0, 1.0, 81)
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ball = SampledSet(points=t[:, None] * d[None, :], convex=True, balanced=True,
                      exact=SubspaceBall(basis=d[None, :], ball_spec=l2()))
    res = is_subspace_ball(ball, (0.5, 0.75), tol=1e-3, spec=l2())
    assert res["ok"]


def test_scaled_ball_fails_criterion():
    # radius-3/4 disc: the norm-1/2 sample rescales to norm 1, which sits
    # 1/4 outside the set
    ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = np.concatenate([r * circle for r in (0.75, 0.5, 0.25)])
    ball = SampledSet(points=pts, convex=True, balanced=True)
    res = is_subspace_ball(ball, (0.5,), tol=1e-3, spec=l2())
    assert not res["ok"]
    assert res["defect"] == pytest.approx(0.25, abs=5e-3)


def test_limit_disc_fails_with_half_defect():
    lim = counterexample_limit_disc(18)
    res = is_subspace_ball(lim, (0.5, 0.75), tol=1e-3, spec=l1())
    assert not res["ok"]
    s, point = res["witness"]
    assert s == 0.5
    assert res["defect"] == pytest.approx(0.5, abs=1e-12)
    # the witness is a phase times the first coordinate functional
    assert abs(point[0]) == pytest.approx(1.0, abs=1e-9)
    assert np.abs(point[1:]).max() <= 1e-12


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
