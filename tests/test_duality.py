"""Support functions, section vertices, annihilators, the two-route
distance, the rescaling ball criterion, and the disc family."""
import itertools

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
    subspace_from_spanning,
)
from hyperselect.norms import (
    DiscFamily,
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
    # a zero basis makes every system singular: a typed failure, never inf
    for kind in ("l1", "linf"):
        with pytest.raises(RuntimeError, match=f"{kind} distance with k=2, n=5"):
            _basic_solution_distance(np.ones(5), np.zeros((2, 5)), kind)


def test_primal_route_rejects_other_kinds_and_dims_past_the_cap():
    V = subspace_from_spanning(np.eye(3)[:1], ambient=NormSpec("operator"), side="primal")
    with pytest.raises(UnsupportedNorm, match="not defined for kind 'operator'"):
        quotient_routes(np.ones(3), V)
    n = SECTION_DIM_CAP + 1
    V = subspace_from_spanning(np.eye(n)[:4], ambient=linf(), side="primal")
    with pytest.raises(UnsupportedNorm, match="capped at ambient dim"):
        quotient_routes(np.ones(n), V)


def test_route_mismatch_raises_at_zero_tolerance(tmp_path):
    # both routes carry independent rounding, so demanding exact agreement
    # must surface the reconciliation error on a generic polyhedral instance
    with pytest.raises(DualityMismatch, match="linf trial"):
        run_duality({"norms": "linf", "trials": "20", "tol_polyhedral": "0"}, 0, tmp_path)


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
