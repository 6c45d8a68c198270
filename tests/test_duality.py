"""Support functions, annihilators, the two-route distance, the rescaling
ball criterion, and the disc family."""
import numpy as np
import pytest

from hyperselect.duality import (
    DualityMismatch,
    annihilator,
    convergence_gap,
    counterexample_ball,
    counterexample_limit_disc,
    counterexample_subspace,
    exact_support,
    is_subspace_ball,
    quotient_routes,
    subspace_from_spanning,
)
from hyperselect.norms import (
    DiscFamily,
    SampledSet,
    SubspaceBall,
    l1,
    l2,
    linf,
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
        ball = SubspaceBall(basis=np.eye(2), ball_spec=ball_spec)
        assert exact_support(ball, x) == pytest.approx(expected, abs=1e-12)


def test_support_of_zero_family():
    x = np.array([1.0, 2.0])
    assert exact_support(DiscFamily(direction=np.array([1.0, 1.0]), radius=0.0), x) == 0.0
    assert exact_support(DiscFamily(direction=np.zeros(2), radius=1.0), x) == 0.0


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
        ball = SubspaceBall(basis=rng.standard_normal((2, 3)), ball_spec=ball_spec)
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
        small = SubspaceBall(basis=basis[:1], ball_spec=ball_spec)
        big = SubspaceBall(basis=basis, ball_spec=ball_spec)
        for _ in range(50):
            x = rng.standard_normal(3)
            assert exact_support(small, x) <= exact_support(big, x) + 1e-12


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
    rng = np.random.default_rng(6)
    for _ in range(30):
        dim = int(rng.integers(2, 7))
        k = int(rng.integers(1, dim))
        V = subspace_from_spanning(rng.standard_normal((k, dim)),
                                   ambient=spec, side="primal")
        x = rng.standard_normal(dim) * 2.0
        primal, dual = quotient_routes(x, V)
        assert abs(primal - dual) <= tol


def test_route_mismatch_raises_at_zero_tolerance(tmp_path):
    # both routes carry independent rounding, so demanding exact agreement
    # must surface the reconciliation error on a generic polyhedral instance
    with pytest.raises(DualityMismatch, match="linf trial"):
        run_duality({"norms": "linf", "trials": "20", "tol_polyhedral": "0"}, 0, tmp_path)


# ---------------------------------------------------------------------------
# the rescaling ball criterion


def test_subspace_ball_passes_criterion():
    t = np.linspace(-1.0, 1.0, 81)
    d = np.array([1.0, 1.0]) / np.sqrt(2.0)
    ball = SampledSet(points=t[:, None] * d[None, :],
                      exact=SubspaceBall(basis=d[None, :], ball_spec=l2()))
    res = is_subspace_ball(ball, (0.5, 0.75), tol=1e-3, spec=l2())
    assert res["ok"]


def test_scaled_ball_fails_criterion():
    # radius-3/4 disc: the norm-1/2 sample rescales to norm 1, which sits
    # 1/4 outside the set
    ang = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    circle = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    pts = np.concatenate([r * circle for r in (0.75, 0.5, 0.25)])
    ball = SampledSet(points=pts)
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
