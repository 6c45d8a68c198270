"""Set-level distances: open-ball hit tests, probe gaps and Hausdorff
distances, computed through the distance and support oracles."""
import numpy as np
import pytest

from hyperselect.duality import convergence_gap, exact_support, subspace_from_spanning
from hyperselect.norms import (
    DiscFamily,
    SampledSet,
    SubspaceBall,
    l1,
    l2,
    linf,
    make_probe_sequence,
    min_distance_oracle,
)


def _cloud(rng, n=12, dim=2):
    return SampledSet(points=rng.standard_normal((n, dim)))


def _hausdorff(a, b, spec):
    # sup over each set's samples of the distance to the other set
    ab = max(min_distance_oracle(p, b, spec) for p in a.points)
    ba = max(min_distance_oracle(q, a, spec) for q in b.points)
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
    big = SampledSet(points=ring[:, None] * d[None, :], exact=big_disc)
    small = SampledSet(points=0.5 * ring[:, None] * d[None, :], exact=small_disc)
    assert _hausdorff(big, small, l2()) == pytest.approx(0.5, abs=1e-12)
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


def test_probe_gap_two_singletons():
    # |d(p,A) - d(p,B)| <= |a - b| for every probe p, with equality at p = a, b
    a = SampledSet(points=np.array([[0.0]]))
    b = SampledSet(points=np.array([[1.0]]))
    gaps = [abs(min_distance_oracle(p, a, l2()) - min_distance_oracle(p, b, l2()))
            for p in np.array([[0.0], [1.0], [0.25], [-3.0], [4.0]])]
    assert gaps == [1.0, 1.0, 0.5, 1.0, 1.0]
    # each at weight 1/2, the two endpoint probes give a gap of exactly 1
    assert 0.5 * gaps[0] + 0.5 * gaps[1] == 1.0


def test_probe_gap_orders_nearby_lines():
    probes = make_probe_sequence(2, 16).vectors
    near, far = convergence_gap([_line(0.1), _line(0.5)], _line(0.0), probes)
    assert near < far
    # ||cos t x1 + sin t x2| - |x1|| <= |(cos t - 1, sin t)| = 2 sin(t/2)
    assert far <= 2.0 * np.sin(0.25) + 1e-12


def test_probe_gap_below_hausdorff():
    # support functions are 1-Lipschitz in the Hausdorff distance on unit
    # probes (Hormander), so the dual gap stays below the primal distance
    rng = np.random.default_rng(5)
    probes = _random_unit_rows(np.random.default_rng(6), 32, 3)
    for _ in range(100):
        u, v = rng.standard_normal((2, 3))
        u, v = u / np.linalg.norm(u), v / np.linalg.norm(v)
        seg_u = SampledSet(points=np.stack([u, -u]),
                           exact=SubspaceBall(basis=u[None, :], ball_spec=l2()))
        seg_v = SampledSet(points=np.stack([v, -v]),
                           exact=SubspaceBall(basis=v[None, :], ball_spec=l2()))
        U = subspace_from_spanning(u[None, :], ambient=l2(), side="dual")
        W = subspace_from_spanning(v[None, :], ambient=l2(), side="dual")
        [gap] = convergence_gap([W], U, probes)
        assert gap <= _hausdorff(seg_u, seg_v, l2()) + 1e-12


# ---------------------------------------------------------------------------
# hit tests: x hits the open ball B(F, r) iff d(x, F) < r


def test_hit_test_accepts_member_point():
    rng = np.random.default_rng(7)
    f = _cloud(rng)
    for spec in (l1(), l2(), linf()):
        assert all(min_distance_oracle(x, f, spec) < 1e-6 for x in f.points)


def test_hit_test_open_ball_excludes_boundary():
    f = SampledSet(points=np.array([[0.0, 0.0]]))
    x = np.array([3.0, 4.0])
    for spec, radius in ((l1(), 7.0), (l2(), 5.0), (linf(), 4.0)):
        d = min_distance_oracle(x, f, spec)
        assert not d < radius
        assert d < radius + 1e-6


def test_hit_test_uses_exact_descriptor():
    # only the segment's endpoints are sampled; they sit at sup distance 1
    # and 2 from (1, 0), while the segment itself comes within 1/2 at (1/2, 1/2)
    ends = np.array([[1.0, 1.0], [-1.0, -1.0]])
    x = np.array([1.0, 0.0])
    samples = SampledSet(points=ends)
    ball = SampledSet(points=ends,
                      exact=SubspaceBall(basis=np.array([[0.5, 0.5]]), ball_spec=linf()))
    assert min_distance_oracle(x, samples, linf()) == 1.0
    assert min_distance_oracle(x, ball, linf()) < 0.6
    assert not min_distance_oracle(x, ball, linf()) < 0.4
