"""Matrix *-algebras: generation, support pseudometrics, unit-ball laws,
the adjoint modulus, the block algebras f(S), and the isometry bounds."""
import itertools

import numpy as np
import pytest

from hyperselect.algebras import (
    CapExceeded,
    FunctionalSpec,
    MatrixAlgebra,
    SubsetSeq,
    adjoint_modulus,
    apply_functional,
    adjoint_isometry_defect,
    build_fS,
    cayley_unitary,
    default_strong_spec,
    diagonal_algebra,
    full_algebra,
    functional_norm_on_fS,
    generate_algebra,
    isometry_defect,
    marechal_pseudometric,
    marechal_support,
    operator_norm,
    polar_witness,
    rotated_diagonal_algebra,
    scalar_algebra,
    trace_norm,
    unit_ball_sample,
)
from hyperselect.norms import OutsideUnitBall, eval_norm
from hyperselect.scenarios import block_subsets

E12 = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)


def _random_subalgebra(rng, n):
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return generate_algebra([g], n)


# ---------------------------------------------------------------------------
# generation


def test_generate_empty_gives_scalars():
    A = generate_algebra([], 2)
    assert A.dim == 1
    assert np.linalg.norm(A.project(np.eye(2)) - np.eye(2)) < 1e-12


def test_generate_from_nilpotent_unit_fills_m2():
    # e12 plus its adjoint generate every matrix unit
    assert generate_algebra([E12], 2).dim == 4


def test_generate_from_generic_diagonal():
    assert generate_algebra([np.diag([1.0, 2.0])], 2).dim == 2


def test_generate_respects_cap():
    with pytest.raises(CapExceeded):
        generate_algebra([], 13)


def test_basis_must_be_orthonormal():
    bad = np.array([np.eye(2, dtype=np.complex128)])  # HS norm sqrt(2)
    with pytest.raises(ValueError):
        MatrixAlgebra(n=2, hs_basis=bad)


# ---------------------------------------------------------------------------
# unit ball samples


def test_ball_sample_contains_identity_and_stays_inside():
    A = _random_subalgebra(np.random.default_rng(1), 3)
    s = unit_ball_sample(A, 500, seed=2)
    assert any(np.linalg.norm(m - np.eye(3)) < 1e-12 for m in s)
    for m in s:
        assert operator_norm(m) <= 1.0 + 1e-9
        assert np.linalg.norm(m - A.project(m)) <= 1e-9


def test_ball_sample_coverage_of_trace_pairing():
    # sampled sup over the ball recovers the trace norm of random probes
    A = full_algebra(2)
    rng = np.random.default_rng(7)
    s = unit_ball_sample(A, 10_000, seed=0)
    worst = 0.0
    for _ in range(10):
        x = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        raw = float(np.abs(np.einsum("bij,ji->b", s, x)).max())
        worst = max(worst, trace_norm(x) - raw)
    assert worst <= 5e-2  # measured 0.0102 at this seed


def test_ball_sample_count_validation():
    with pytest.raises(ValueError):
        unit_ball_sample(full_algebra(2), 0)


# ---------------------------------------------------------------------------
# support values


def test_support_full_m2_identity():
    assert marechal_support(full_algebra(2), np.eye(2)) == pytest.approx(2.0, abs=1e-12)


def test_support_diagonal_of_hadamard_like_probe():
    x = np.array([[1.0, 1.0], [1.0, -1.0]])
    A = diagonal_algebra(2)
    assert marechal_support(A, x) == pytest.approx(2.0, abs=1e-12)
    assert abs(np.trace(polar_witness(A, x) @ x)) == pytest.approx(2.0, abs=1e-12)


def test_support_scalars_kill_offdiagonal():
    assert marechal_support(scalar_algebra(2), E12) == pytest.approx(0.0, abs=1e-12)


def test_polar_witness_attains_closed_form():
    # the witness is a member of the unit ball whose pairing is the support
    rng = np.random.default_rng(3)
    for trial in range(20):
        n = int(rng.integers(2, 5))
        A = _random_subalgebra(rng, n)
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        w = polar_witness(A, x)
        assert np.linalg.norm(w - A.project(w)) <= 1e-12
        assert operator_norm(w) <= 1.0 + 1e-12
        assert abs(np.trace(w @ x)) == pytest.approx(marechal_support(A, x), abs=1e-12)


def test_cayley_unitary_of_a_stack_matches_single_calls():
    # stack size 4 differs from matrix size 3, so a length read off the stack
    # axis would build the wrong identity
    rng = np.random.default_rng(11)
    g = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    h = (g + g.conj().transpose(0, 2, 1)) / 2
    stacked = cayley_unitary(h)
    assert stacked.shape == (4, 3, 3)
    for hk, uk in zip(h, stacked):
        assert np.allclose(uk, cayley_unitary(hk), rtol=0, atol=1e-13)
        assert np.allclose(uk @ uk.conj().T, np.eye(3), rtol=0, atol=1e-12)


def test_stacked_projection_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(12)
    algebras = [diagonal_algebra(3), full_algebra(2), scalar_algebra(4),
                rotated_diagonal_algebra(0.3, 3), _random_subalgebra(rng, 4),
                build_fS(SubsetSeq(3, ({0, 1}, {1}, {0, 2})))[0]]
    for A in algebras:
        x = rng.standard_normal((2, 5, A.n, A.n)) + 1j * rng.standard_normal((2, 5, A.n, A.n))
        # one product for the stack sums in another order than one per matrix,
        # so entries of size about 1 agree to rounding, not bit for bit
        stacked = A.project(x)
        assert stacked.shape == x.shape
        single = np.array([[A.project(m) for m in row] for row in x])
        assert np.abs(stacked - single).max() <= 1e-13
        support = np.array([marechal_support(A, m) for m in x[0]])
        assert np.abs(marechal_support(A, x[0]) - support).max() <= 1e-13


def test_support_conjugation_consistency():
    rng = np.random.default_rng(7)
    h = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    u = cayley_unitary((h + h.conj().T) / 2)
    A = _random_subalgebra(rng, 3)
    uAu = generate_algebra([u @ b @ u.conj().T for b in A.hs_basis], 3)
    for _ in range(20):
        x = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        assert marechal_support(uAu, x) == pytest.approx(
            marechal_support(A, u.conj().T @ x @ u), abs=1e-9)


# ---------------------------------------------------------------------------
# pseudometric


def test_pseudometric_vanishes_on_equal_algebras():
    A = full_algebra(2)
    probes = list(A.hs_basis)
    assert marechal_pseudometric(A, A, probes) == 0.0


def test_pseudometric_rotation_curve_monotone_to_zero():
    probes = list(full_algebra(2).hs_basis)
    A0 = rotated_diagonal_algebra(0.0)
    thetas = np.linspace(0.0, np.pi / 8, 16)
    vals = [marechal_pseudometric(rotated_diagonal_algebra(t), A0, probes)
            for t in thetas]
    assert vals[0] == 0.0
    assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(len(vals) - 1))
    assert vals[-1] > 0.1


def test_pseudometric_separates_diagonal_from_full():
    # witness probe e12: supports 0 vs 1
    d = marechal_pseudometric(diagonal_algebra(2), full_algebra(2), [E12], [1.0])
    assert d == pytest.approx(1.0, abs=1e-12)


def test_pseudometric_axioms():
    rng = np.random.default_rng(5)
    algs = [_random_subalgebra(rng, 3) for _ in range(4)]
    probes = [rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
              for _ in range(6)]
    for A in algs:
        assert marechal_pseudometric(A, A, probes) == 0.0
    for A in algs:
        for B in algs:
            dab = marechal_pseudometric(A, B, probes)
            assert dab == pytest.approx(marechal_pseudometric(B, A, probes), abs=1e-12)
            for C in algs:
                assert dab <= (marechal_pseudometric(A, C, probes)
                               + marechal_pseudometric(C, B, probes) + 1e-9)


def test_pseudometric_needs_matching_ambient():
    with pytest.raises(ValueError):
        marechal_pseudometric(full_algebra(2), full_algebra(3), [np.eye(2)])


# ---------------------------------------------------------------------------
# unit-ball laws


def _outside(A, mats):
    # largest HS distance from a matrix in the stack to the algebra
    return max(float(np.linalg.norm(m - A.project(m))) for m in mats)


def test_laws_hold_on_a_dense_algebra_ball_sample():
    # ball samples of an algebra satisfy the three laws exactly: their
    # adjoints and pairwise products stay in the algebra, and 1 is a sample
    A = diagonal_algebra(2)
    s = unit_ball_sample(A, 2000, seed=3)
    assert any(np.abs(m - np.eye(2)).max() == 0.0 for m in s)
    assert _outside(A, s.conj().transpose(0, 2, 1)) <= 1e-12
    assert _outside(A, np.einsum("aij,bjk->abik", s[:60], s[:60]).reshape(-1, 2, 2)) <= 1e-12


def test_laws_on_nilpotent_span_ball():
    # span{e12}: closed under products (squares vanish), but it lacks the
    # unit and the adjoint, and the constructor's exact check rejects it
    A = MatrixAlgebra(n=2, hs_basis=np.array([E12]), check=False)
    assert _outside(A, [E12 @ E12]) == 0.0
    assert _outside(A, [np.eye(2)]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert _outside(A, [E12.conj().T]) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError, match="adjoint closure"):
        MatrixAlgebra(n=2, hs_basis=np.array([E12]))


def test_laws_on_selfadjoint_non_algebra():
    # span{e12 + e21} is adjoint-closed, but its square is the identity
    g = E12 + E12.conj().T
    h = g / np.sqrt(2.0)
    A = MatrixAlgebra(n=2, hs_basis=np.array([h]), check=False)
    assert _outside(A, [g.conj().T]) <= 1e-15
    assert _outside(A, [g @ g]) == pytest.approx(np.sqrt(2.0), abs=1e-12)
    # with the unit and e11 adjoined, e11 (e12 + e21) = e12 still escapes
    e11 = np.diag([1.0, 0.0]).astype(np.complex128)
    basis = np.array([e11, np.diag([0.0, 1.0]).astype(np.complex128), h])
    with pytest.raises(ValueError, match="product closure"):
        MatrixAlgebra(n=2, hs_basis=basis)


@pytest.mark.parametrize("subsets", [
    ({0}, {0, 1}),
    (set(), set()),
])
def test_laws_exact_on_block_core(subsets):
    # 0, 1, pi_S, 1 - pi_S and the block matrix units lie in the unit ball
    # of f(S), and their adjoints and pairwise products stay in f(S) exactly
    S = SubsetSeq(m=len(subsets), subsets=subsets)
    A, pi = build_fS(S)
    m = S.m
    eye = np.eye(m * m, dtype=np.complex128)
    core = [np.zeros_like(eye), eye, pi, eye - pi]
    for n, subset in enumerate(S.subsets):
        for k in subset:
            for l in subset:
                unit = np.zeros_like(eye)
                unit[n * m + k, n * m + l] = 1.0
                core.append(unit)
    core = np.array(core)
    assert max(operator_norm(c) for c in core) <= 1.0
    assert _outside(A, core) == 0.0
    assert _outside(A, core.conj().transpose(0, 2, 1)) == 0.0
    assert _outside(A, np.einsum("aij,bjk->abik", core, core).reshape(-1, m * m, m * m)) == 0.0


# ---------------------------------------------------------------------------
# adjoint modulus


def test_modulus_is_identity_like_on_scalars():
    sc = scalar_algebra(2)
    for eps in (0.05, 0.1, 0.2):
        delta = dict(adjoint_modulus(sc, [eps], sample_count=400, seed=0))[eps]
        assert eps <= delta <= 1.2 * eps  # conjugation of scalars is isometric


def test_modulus_shrinks_with_matrix_size():
    d2 = dict(adjoint_modulus(full_algebra(2), [0.1], sample_count=400, seed=0))[0.1]
    d6 = dict(adjoint_modulus(full_algebra(6), [0.1], sample_count=400, seed=0))[0.1]
    assert d2 > d6  # measured 0.116 vs 0.0159
    assert d6 < 0.05


def test_modulus_rejects_a_sample_outside_the_unit_ball(monkeypatch):
    A = full_algebra(2)
    monkeypatch.setattr("hyperselect.algebras.unit_ball_sample",
                        lambda A, count, seed: 2.0 * np.eye(2, dtype=np.complex128)[None])
    with pytest.raises(OutsideUnitBall):
        adjoint_modulus(A, [0.1], sample_count=10, seed=0)


def _per_pair_modulus(A, eps_list, sample_count, seed, spec):
    # the reference: one eval_norm call per pair and side, on the pairs
    # adjoint_modulus draws
    samples = unit_ball_sample(A, sample_count, seed)
    units = [b / operator_norm(b) for b in A.hs_basis]
    rng = np.random.default_rng(seed + 1)
    pairs = [(u, np.zeros_like(u)) for u in units]
    pairs += [(units[i], units[j])
              for i, j in itertools.combinations(range(min(len(units), 24)), 2)]
    pairs += [(samples[i], samples[j])
              for i, j in rng.integers(0, len(samples), size=(2 * sample_count, 2))]
    fwd = np.array([eval_norm(x - y, spec) for x, y in pairs])
    bwd = np.array([eval_norm(x.conj().T - y.conj().T, spec) for x, y in pairs])
    return [(eps, float(fwd[bwd > eps].min()) if (bwd > eps).any() else 2.0)
            for eps in eps_list]


def test_modulus_matches_per_pair_reference():
    # the full block algebra on C^3 (x) C^3 has 27 basis units, past the cap
    # of 24 on the unit pairs
    full_blocks, _ = build_fS(SubsetSeq(m=3, subsets=({0, 1, 2},) * 3))
    eps_list = [0.05, 0.1, 0.2, 0.4]
    for A in (full_algebra(2), diagonal_algebra(3), full_blocks):
        spec = default_strong_spec(A.n, 5)
        got = adjoint_modulus(A, eps_list, sample_count=40, seed=2, spec=spec)
        assert got == _per_pair_modulus(A, eps_list, 40, 2, spec)


def test_modulus_separates_block_sizes():
    S1 = SubsetSeq(m=8, subsets=tuple({i} for i in range(8)))
    S8 = SubsetSeq(m=8, subsets=tuple(set(range(8)) for _ in range(8)))
    A1, _ = build_fS(S1)
    A8, _ = build_fS(S8)
    assert (A1.dim, A8.dim) == (9, 512)
    d1 = dict(adjoint_modulus(A1, [0.1], sample_count=100, seed=5))[0.1]
    d8 = dict(adjoint_modulus(A8, [0.1], sample_count=100, seed=5))[0.1]
    assert d1 > d8 + 0.05  # measured 0.105 vs 0.004


# ---------------------------------------------------------------------------
# block algebras f(S)


def test_fS_of_empty_subsets_is_scalars():
    S = SubsetSeq(m=2, subsets=(set(), set()))
    A, pi = build_fS(S)
    assert A.dim == 1
    assert np.abs(pi).max() == 0.0


def test_fS_frozen_dimension_and_projection():
    S = SubsetSeq(m=2, subsets=({0}, {0, 1}))
    A, pi = build_fS(S)
    assert A.dim == 6  # 1 + 4 block units plus the scalar complement
    expected = np.zeros((4, 4))
    expected[0, 0] = 1.0  # e00 x e00
    expected[2, 2] = expected[3, 3] = 1.0  # e11 x (e00 + e11)
    assert np.abs(pi - expected).max() == 0.0


def test_fS_dimension_grows_with_subsets():
    small = SubsetSeq(m=3, subsets=({0}, set(), {1, 2}))
    large = SubsetSeq(m=3, subsets=({0, 1}, set(), {1, 2}))
    assert build_fS(large)[0].dim > build_fS(small)[0].dim


def _closure_checked(A):
    # the constructor's adjoint, unit and product checks, which build_fS
    # skips because its basis is closed by construction; raises if not closed
    MatrixAlgebra(n=A.n, hs_basis=A.hs_basis)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fS_is_closed_for_every_subset_sequence(m):
    subsets = [frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)]
    for seq in itertools.product(subsets, repeat=m):
        _closure_checked(build_fS(SubsetSeq(m, seq))[0])


@pytest.mark.parametrize("m", range(1, 9))
def test_fS_is_closed_for_the_scenario_block_subsets(m):
    # every block algebra the finiteness scenario can build up to dimension 80;
    # the check's dim^2 products make the larger ones too slow for this suite
    for size in range(1, m + 1):
        A, _ = build_fS(block_subsets(m, size))
        if A.dim <= 80:
            _closure_checked(A)


def test_fS_units_have_operator_norm_one():
    # one algebra below dimension 80 and one above
    for S, dim in ((block_subsets(4, 4), 64), (block_subsets(5, 5), 125)):
        A, _ = build_fS(S)
        assert A.dim == dim
        assert np.abs(operator_norm(A.units) - 1.0).max() <= 1e-12
        assert A.units is A.units  # computed once per algebra


def test_fS_respects_cap():
    with pytest.raises(CapExceeded):
        build_fS(SubsetSeq(m=9, subsets=tuple(set() for _ in range(9))))


def test_subset_seq_validation():
    with pytest.raises(ValueError):
        SubsetSeq(m=2, subsets=({0},))
    with pytest.raises(ValueError):
        SubsetSeq(m=2, subsets=({0}, {2}))
    S = SubsetSeq(m=2, subsets=({0}, [1, 0]))
    assert S.subsets == (frozenset({0}), frozenset({0, 1}))


# ---------------------------------------------------------------------------
# functional norms on f(S)


def _fs_example():
    return SubsetSeq(m=2, subsets=({0}, {0, 1}))


def test_functional_norm_term_inside_projection():
    e0 = np.array([1.0, 0.0])
    om = FunctionalSpec(m=2, terms=((0, 0, e0, e0),))
    r = functional_norm_on_fS(om, _fs_example())
    assert r.value == pytest.approx(1.0, abs=1e-12)
    assert r.route == pytest.approx(r.value, abs=1e-12)


def test_functional_norm_term_outside_projection():
    # xi = eta = e1 misses S_0 = {0}, the complement term carries the norm
    e1 = np.array([0.0, 1.0])
    om = FunctionalSpec(m=2, terms=((0, 0, e1, e1),))
    r = functional_norm_on_fS(om, _fs_example())
    assert r.value == pytest.approx(1.0, abs=1e-12)
    assert r.route == pytest.approx(r.value, abs=1e-12)


def test_functional_norm_cross_term_vanishes():
    e0, e1 = np.eye(2)
    om = FunctionalSpec(m=2, terms=((0, 1, e0, e1),))
    r = functional_norm_on_fS(om, _fs_example())
    assert r.value == pytest.approx(0.0, abs=1e-12)
    assert r.route == pytest.approx(0.0, abs=1e-12)


def test_functional_norm_repeated_diagonal_index_has_only_the_route():
    # e0 e0* + e1 e1* on block 0: e00 lies in the block, e11 in the scalar
    # complement, so the conditional expectation is a rank-two projection
    e0, e1 = np.eye(2)
    om = FunctionalSpec(m=2, terms=((0, 0, e0, e0), (0, 0, e1, e1)))
    r = functional_norm_on_fS(om, _fs_example())
    assert r.value is None
    assert r.route == pytest.approx(2.0, abs=1e-12)


def test_functional_norm_depends_only_on_low_indices():
    rng = np.random.default_rng(11)
    xi, eta = rng.standard_normal(4), rng.standard_normal(4)
    om = FunctionalSpec(m=4, terms=((0, 0, xi, eta), (1, 1, eta, xi)))
    base = SubsetSeq(m=4, subsets=({0, 1}, {2}, set(), {0}))
    tail_changed = SubsetSeq(m=4, subsets=({0, 1}, {2}, {1, 3}, {0, 1, 2, 3}))
    ra = functional_norm_on_fS(om, base)
    rb = functional_norm_on_fS(om, tail_changed)
    assert ra.value == rb.value  # terms only touch indices < 2
    assert ra.route == pytest.approx(rb.route, abs=1e-12)


def test_functional_spec_validation():
    e0 = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        FunctionalSpec(m=2, terms=((0, 2, e0, e0),))
    with pytest.raises(ValueError):
        FunctionalSpec(m=2, terms=((0, 0, np.ones(3), e0),))


def test_apply_functional_matches_trace_pairing():
    e0, e1 = np.eye(2)
    om = FunctionalSpec(m=2, terms=((0, 1, e0, e1),))
    x = np.arange(16.0).reshape(4, 4)
    u = np.zeros(4)
    u[0] = 1.0  # e_0 x e_0
    v = np.zeros(4)
    v[3] = 1.0  # e_1 x e_1
    assert apply_functional(om, x) == pytest.approx(v @ x @ u, abs=1e-12)
    assert apply_functional(om, x) == pytest.approx(np.trace(x @ om.matrix()), abs=1e-12)


# ---------------------------------------------------------------------------
# isometry bounds


def test_contraction_isometry_inequality():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(2, 7))
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        x = g * (rng.random() / max(operator_norm(g), 1e-12))
        h = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        u = cayley_unitary((h + h.conj().T) / 2)
        for _ in range(20):
            xi = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            xi /= np.linalg.norm(xi)
            assert isometry_defect(x, u, xi) <= 1e-9
            assert adjoint_isometry_defect(x, u, xi) <= 1e-9
