"""Set-level distances: open-ball hit tests, probe gaps and Hausdorff
distances, computed through the distance and support oracles."""
import numpy as np
import pytest

from hyperselect.duality import convergence_gap, exact_support, subspace_from_spanning
from hyperselect.norms import (
    DiscFamily,
    eval_norm,
    l1,
    l2,
    linf,
    make_probe_sequence,
    min_distance_oracle,
)


def _hausdorff(a_points, a, b_points, b, spec):
    # sup over each set's samples of the distance to the other set
    ab = max(min_distance_oracle(p, b, spec) for p in a_points)
    ba = max(min_distance_oracle(q, a, spec) for q in b_points)
    return max(ab, ba)


def _random_unit_rows(rng, count, dim):
    g = rng.standard_normal((count, dim))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def _line(theta):
    return subspace_from_spanning(np.array([[np.cos(theta), np.sin(theta)]]),
                                  ambient=l2(), side="dual")


# ---------------------------------------------------------------------------
# Hausdorff distance


def test_hausdorff_nested_discs():
    # sup over the big disc of the distance to the small one = 1 - 1/2, and
    # the support gap sup_{|x| <= 1} |h_big(x) - h_small(x)| agrees with it
    d = np.zeros(3, dtype=np.complex128)
    d[0] = 1.0
    ring = np.exp(2j * np.pi * np.arange(8) / 8)
    big_disc = DiscFamily(direction=d, radius=1.0)
    small_disc = DiscFamily(direction=d, radius=0.5)
    big = ring[:, None] * d[None, :]
    assert _hausdorff(big, big_disc, 0.5 * big, small_disc, l2()) == pytest.approx(
        0.5, abs=1e-12)
    gap = exact_support(big_disc, d) - exact_support(small_disc, d)
    assert gap == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------------------
# probe gaps


def test_probe_gap_identical_sets_is_zero():
    rng = np.random.default_rng(2)
    probes = _random_unit_rows(np.random.default_rng(3), 16, 5)
    for spec in (l1(), l2(), linf()):
        V = subspace_from_spanning(rng.standard_normal((2, 5)), ambient=spec, side="dual")
        assert convergence_gap([V], V, probes) == [0.0]


def test_probe_gap_point_and_segment():
    # A = {0} and B = [-1, 1] lie at Hausdorff distance 1, and
    # |d(p,A) - d(p,B)| = min(|p|, 1) <= 1, with equality once |p| >= 1
    a = DiscFamily(direction=np.array([1.0]), radius=0.0)
    b = DiscFamily(direction=np.array([1.0]), radius=1.0, complex_scalars=False)
    gaps = [abs(min_distance_oracle(p, a, l2()) - min_distance_oracle(p, b, l2()))
            for p in np.array([[0.0], [1.0], [0.25], [-3.0], [4.0]])]
    assert gaps == [0.0, 1.0, 0.25, 1.0, 1.0]
    # each at weight 1/2, the two probes at |p| = 1 and 3 give a gap of exactly 1
    assert 0.5 * gaps[1] + 0.5 * gaps[3] == 1.0


def test_probe_gap_orders_nearby_lines():
    probes = make_probe_sequence(2, 16).vectors
    near, far = convergence_gap([_line(0.1), _line(0.5)], _line(0.0), probes)
    assert near < far
    # ||cos t x1 + sin t x2| - |x1|| <= |(cos t - 1, sin t)| = 2 sin(t/2)
    assert far <= 2.0 * np.sin(0.25) + 1e-12


def test_probe_gap_below_hausdorff():
    # support functions are 1-Lipschitz in the Hausdorff distance on unit
    # probes (Hormander), so the dual gap stays below the primal distance;
    # the distance to a segment is convex, so its endpoints attain the sup
    rng = np.random.default_rng(5)
    probes = _random_unit_rows(np.random.default_rng(6), 32, 3)
    for _ in range(100):
        u, v = rng.standard_normal((2, 3))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        U = subspace_from_spanning(u[None, :], ambient=l2(), side="dual")
        W = subspace_from_spanning(v[None, :], ambient=l2(), side="dual")
        [gap] = convergence_gap([W], U, probes)
        assert gap <= _hausdorff(np.stack([u, -u]), U, np.stack([v, -v]), W, l2()) + 1e-12


# ---------------------------------------------------------------------------
# hit tests: x hits the open ball B(F, r) iff d(x, F) < r


def test_hit_test_accepts_member_point():
    rng = np.random.default_rng(7)
    d = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    disc = DiscFamily(direction=d, radius=1.5)
    lams = 1.5 * rng.random(12) * np.exp(2j * np.pi * rng.random(12))
    for spec in (l1(), l2(), linf()):
        assert all(min_distance_oracle(lam * d, disc, spec) < 1e-6 for lam in lams)
    V = subspace_from_spanning(rng.standard_normal((2, 4)), ambient=l2())
    members = rng.uniform(-0.7, 0.7, (12, 2)) @ V.basis
    assert all(min_distance_oracle(x, V, l2()) < 1e-6 for x in members)


def test_hit_test_open_ball_excludes_boundary():
    origin = DiscFamily(direction=np.zeros(2), radius=1.0)
    x = np.array([3.0, 4.0])
    for spec, radius in ((l1(), 7.0), (l2(), 5.0), (linf(), 4.0)):
        d = min_distance_oracle(x, origin, spec)
        assert not d < radius
        assert d < radius + 1e-6


def test_hit_test_uses_exact_descriptor():
    # the segment's endpoints +-(1, 1)/sqrt(2) sit at l2 distance 0.765 and
    # 1.85 from (1, 0), while the segment itself comes within 1/sqrt(2) at
    # (1/2, 1/2)
    ends = np.array([[1.0, 1.0], [-1.0, -1.0]]) / np.sqrt(2.0)
    x = np.array([1.0, 0.0])
    segment = subspace_from_spanning(ends[:1], ambient=l2())
    assert eval_norm(ends - x, l2()).min() > 0.75
    assert min_distance_oracle(x, segment, l2()) < 0.75
    assert not min_distance_oracle(x, segment, l2()) < 0.7
