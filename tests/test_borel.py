"""Cantor-space truncations: cylinder complements, indicator reductions,
and the two-depth finiteness census."""
import numpy as np
import pytest

from hyperselect.borel import (
    CylinderUnion,
    DepthInsufficient,
    PrunedTree,
    TruncPoint,
    bundled_borel_instances,
    closed_complement_cylinders,
    increasing_hulls,
    pfin_census,
    pi3_reduce,
    sigma2_reduce,
)


def _half(d):
    # the clopen set {x : x_0 = 1}
    return PrunedTree.from_prefixes(d, ["1"])


def _point(prefix, d):
    return TruncPoint.from_string(prefix + "0" * (d - len(prefix)))


# ---------------------------------------------------------------------------
# points and trees


def test_point_validation_and_leaf_index():
    with pytest.raises(ValueError):
        TruncPoint((0, 2, 1))
    x = TruncPoint.from_string("101")
    assert x.depth == 3
    assert x.leaf_index() == 5
    assert str(x) == "101"


def test_tree_constructors_agree():
    d = 5
    by_pred = PrunedTree.from_predicate(d, lambda b: b[0] == 1)
    by_prefix = PrunedTree.from_prefixes(d, ["1"])
    assert np.array_equal(by_pred.leaves, by_prefix.leaves)
    with pytest.raises(ValueError):
        PrunedTree(3, np.ones(7, dtype=bool))


def test_settled_membership_three_outcomes():
    d = 6
    tree = _half(d)
    assert tree.settled_member(_point("1", d)) is True
    assert tree.settled_member(_point("0", d)) is False
    # the all-ones singleton branch stays on the pruning frontier forever
    singleton = PrunedTree.from_predicate(d, lambda b: all(b))
    with pytest.raises(DepthInsufficient):
        singleton.settled_member(TruncPoint.from_string("1" * d))


def test_cylinder_union_rejects_overlap():
    with pytest.raises(ValueError):
        CylinderUnion(prefixes=("0", "01"))


# ---------------------------------------------------------------------------
# complements


def test_complement_of_full_tree_is_empty():
    assert len(closed_complement_cylinders(PrunedTree.full(4))) == 0


def test_complement_of_half_space():
    assert closed_complement_cylinders(_half(4)).prefixes == ("0",)


def test_complement_of_quarter_space():
    A = PrunedTree.from_predicate(6, lambda b: b[0] == 1 and b[1] == 1)
    assert closed_complement_cylinders(A).prefixes == ("0", "10")


def test_complement_covers_exactly_once():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(3, 8))
        A = PrunedTree(d, rng.random(2 ** d) < 0.6)
        cyls = closed_complement_cylinders(A)
        for idx in range(2 ** d):
            bits = tuple((idx >> (d - 1 - k)) & 1 for k in range(d))
            hits = [p for p in cyls.prefixes
                    if "".join(map(str, bits)).startswith(p)]
            assert len(hits) == (0 if A.leaves[idx] else 1)


# ---------------------------------------------------------------------------
# the indicator reduction


def test_reduce_point_inside_gives_zero_matrix():
    d = 8
    fam = [_half(d)] * 5
    mat = sigma2_reduce(fam, _point("1", d))
    assert mat.sum() == 0


def test_reduce_point_outside_marks_every_row():
    d = 8
    fam = [_half(d)] * 5
    mat = sigma2_reduce(fam, _point("0", d))
    assert mat.shape[0] == 5
    assert np.array_equal(mat.sum(axis=1), np.ones(5))
    assert np.array_equal(mat[:, 0], np.ones(5, dtype=np.int8))


def test_reduce_full_space_always_zero():
    d = 6
    fam = [PrunedTree.full(d)] * 4
    for prefix in ("0", "1", "01"):
        assert sigma2_reduce(fam, _point(prefix, d)).sum() == 0


def test_reduce_rows_vanish_after_entry():
    # x enters at stage 2 of an enumerated-cylinder family
    d = 8
    fam = [PrunedTree.from_prefixes(d, [format(j, "03b") for j in range(n + 1)])
           for n in range(6)]
    mat = sigma2_reduce(fam, _point("010", d))
    assert np.array_equal(mat.sum(axis=1), [1, 1, 0, 0, 0, 0])


def test_reduce_disjointness_is_exact():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(3, 7))
        fam = [PrunedTree(d, rng.random(2 ** d) < 0.5) for _ in range(5)]
        bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=d))
        try:
            mat = sigma2_reduce(fam, TruncPoint.from_string(bits))
        except DepthInsufficient:
            continue
        assert mat.sum(axis=1).max() <= 1


def test_reduce_propagates_depth_insufficiency():
    d = 6
    singleton = PrunedTree.from_predicate(d, lambda b: all(b))
    with pytest.raises(DepthInsufficient):
        sigma2_reduce([singleton], TruncPoint.from_string("1" * d))


def test_increasing_hulls_idempotent():
    rng = np.random.default_rng(2)
    d = 5
    fam = [PrunedTree(d, rng.random(2 ** d) < 0.4) for _ in range(6)]
    once = increasing_hulls(fam)
    twice = increasing_hulls(once)
    for a, b in zip(once, twice):
        assert np.array_equal(a.leaves, b.leaves)
    for earlier, later in zip(once, once[1:]):
        assert np.all(later.leaves >= earlier.leaves)


def test_pi3_composes_componentwise():
    d = 8
    fam0 = [_half(d)] * 4
    fam1 = [PrunedTree.full(d)] * 4
    x = _point("0", d)
    mats = pi3_reduce([fam0, fam1], x)
    assert len(mats) == 2
    assert np.array_equal(mats[0], sigma2_reduce(fam0, x))
    assert mats[1].sum() == 0


def test_pi3_labels_failing_family():
    d = 5
    singleton = PrunedTree.from_predicate(d, lambda b: all(b))
    with pytest.raises(DepthInsufficient, match="family 1"):
        pi3_reduce([[PrunedTree.full(d)], [singleton]],
                   TruncPoint.from_string("1" * d))


# ---------------------------------------------------------------------------
# the finiteness census


def test_census_all_zero_certified():
    out = pfin_census(np.zeros((4, 3), dtype=np.int8))
    assert out == {"support_count": 0, "verdict": "CertifiedFinite", "bound": 0}


def test_census_growth_across_depths():
    def run(d):
        return sigma2_reduce([_half(d)] * d, _point("0", d))

    out = pfin_census(run(8), deeper=run(16))
    assert out["verdict"] == "GrowingWithDepth"
    assert (out["support_count"], out["deeper_count"]) == (8, 16)


def test_census_stable_support_certified():
    def run(d):
        fam = [PrunedTree.from_prefixes(d, [format(j, "04b") for j in range(n + 1)])
               for n in range(6)]
        return sigma2_reduce(fam, _point("0011", d))

    out = pfin_census(run(8), deeper=run(16))
    assert out["verdict"] == "CertifiedFinite"
    assert out["bound"] == 3


def test_census_single_depth_uses_row_vanishing():
    hanging = np.zeros((4, 2), dtype=np.int8)
    hanging[3, 0] = 1  # support touches the last row: not certifiable
    assert pfin_census(hanging)["verdict"] == "GrowingWithDepth"
    settled = np.zeros((4, 2), dtype=np.int8)
    settled[1, 0] = 1
    assert pfin_census(settled)["verdict"] == "CertifiedFinite"


# ---------------------------------------------------------------------------
# bundled instances


def test_bundle_agrees_with_known_membership():
    certified = 0
    for rec in bundled_borel_instances(d=10, count=10, prefix_len=4):
        if rec["expected"] == "depth_insufficient":
            with pytest.raises(DepthInsufficient):
                sigma2_reduce(rec["trees"], rec["x"])
            continue
        verdict = pfin_census(sigma2_reduce(rec["trees"], rec["x"]))["verdict"]
        assert (verdict == "CertifiedFinite") == (rec["expected"] == "in"), rec["name"]
        certified += 1
    assert certified == 20


def test_bundle_required_depth_is_sharp():
    # each in/out instance reaches its expected verdict at some depth <= d,
    # and a frontier instance settles at no depth from 2 on (at depth 1 the
    # branch 1^1 is a whole cylinder, which frontier-mixed's tree contains)
    d = 10
    for rec in bundled_borel_instances(d=d, count=10, prefix_len=4):
        verdicts = []
        for depth in range(1, d + 1):
            trees, x = rec["build"](depth)
            try:
                verdicts.append(pfin_census(sigma2_reduce(trees, x))["verdict"])
            except DepthInsufficient:
                verdicts.append(None)
        if rec["expected"] == "depth_insufficient":
            assert verdicts[1:] == [None] * (d - 1), (rec["name"], verdicts)
            continue
        want = "CertifiedFinite" if rec["expected"] == "in" else "GrowingWithDepth"
        assert want in verdicts, (rec["name"], verdicts)


def test_bundle_validates_prefix_budget():
    with pytest.raises(ValueError):
        bundled_borel_instances(d=8, count=16, prefix_len=4)
    # with no family members every point would be certified finite,
    # contradicting the nonmember instances
    for count in (0, -1):
        with pytest.raises(ValueError, match="at least one family member"):
            bundled_borel_instances(d=8, count=count, prefix_len=4)
