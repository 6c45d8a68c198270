"""Cantor-space truncations: cylinder complements, indicator reductions,
and the two-depth finiteness census."""
import numpy as np
import pytest

from hyperselect.borel import (
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
from hyperselect.norms import InvariantViolation


def _half(d):
    # the clopen set {x : x_0 = 1}
    return PrunedTree(d, ["1"])


def _point(prefix, d):
    return TruncPoint(prefix + "0" * (d - len(prefix)))


def _from_mask(d, mask):
    # the accepted leaves of a dense mask, written as full-length prefixes
    return PrunedTree(d, [format(i, f"0{d}b") for i in np.flatnonzero(mask)])


# ---------------------------------------------------------------------------
# dense reference: a tree as a boolean mask over its 2^d leaves


def _leaf_range(prefix, d):
    prefix = prefix[:d]
    span = 2 ** (d - len(prefix))
    lo = int(prefix, 2) if prefix else 0
    return lo * span, (lo + 1) * span


def _dense_mask(d, prefixes):
    mask = np.zeros(2 ** d, dtype=bool)
    for p in prefixes:
        lo, hi = _leaf_range(p, d)
        mask[lo:hi] = True
    return mask


def _dense_settled(mask, d, bits):
    """True/False, or None where the truncation cannot decide."""
    if not mask[int(bits, 2)]:
        return False
    for length in range(d):
        lo, hi = _leaf_range(bits[:length], d)
        if mask[lo:hi].all():
            return True
    return None


def _dense_cylinders(mask, d, prefix=""):
    """The maximal cylinders inside the mask, '0' branch first."""
    lo, hi = _leaf_range(prefix, d)
    window = mask[lo:hi]
    if not window.any():
        return []
    if window.all():
        return [prefix]
    return _dense_cylinders(mask, d, prefix + "0") + _dense_cylinders(mask, d, prefix + "1")


def _random_prefixes(rng, d):
    # some prefixes run past d, to exercise the cut
    return ["".join(map(str, rng.integers(0, 2, size=int(rng.integers(0, d + 3)))))
            for _ in range(int(rng.integers(0, 7)))]


# ---------------------------------------------------------------------------
# points and trees


def test_point_validation():
    with pytest.raises(ValueError):
        TruncPoint((0, 2, 1))
    x = TruncPoint("101")
    assert x.depth == 3
    assert str(x) == "101"


def test_sigma2_reduce_reports_a_point_outside_every_cylinder(monkeypatch):
    # complement cylinders that miss a pruned point break the reduction's
    # cover invariant: a typed report, not a bare assertion
    import hyperselect.borel as borel
    monkeypatch.setattr(borel, "closed_complement_cylinders", lambda t: PrunedTree.empty(t.d))
    with pytest.raises(InvariantViolation, match="A_0: point 010 neither settled inside"):
        sigma2_reduce([PrunedTree.empty(3)], TruncPoint("010"))


def test_tree_constructors_agree():
    d = 5
    assert PrunedTree(d, ["0", "1"]).prefixes == PrunedTree.full(d).prefixes == ("",)
    assert PrunedTree(d, []).prefixes == PrunedTree.empty(d).prefixes == ()
    # covered prefixes drop out, sibling pairs fold, and deep prefixes are cut at d
    by_parts = PrunedTree(d, ["11", "10", "101", "0111", "011011111", "01100"])
    assert by_parts.prefixes == ("011", "1")


def test_prefixes_must_be_binary_strings():
    # "2" once gave an empty tree and "02" the cylinder "10"
    for bad in (["2"], ["02"], [(1, 0)]):
        with pytest.raises(ValueError, match="0/1 string"):
            PrunedTree(3, bad)


def test_tree_matches_dense_reference():
    rng = np.random.default_rng(3)
    for _ in range(40):
        d = int(rng.integers(1, 13))
        ps, qs = _random_prefixes(rng, d), _random_prefixes(rng, d)
        A, B = PrunedTree(d, ps), PrunedTree(d, qs)
        mask = _dense_mask(d, ps)
        assert list(A.prefixes) == _dense_cylinders(mask, d)
        union = _dense_mask(d, ps + qs)
        assert list(A.union(B).prefixes) == _dense_cylinders(union, d)
        assert list(closed_complement_cylinders(A).prefixes) == _dense_cylinders(~mask, d)
        for idx in range(2 ** d):
            bits = format(idx, f"0{d}b")
            x = TruncPoint(bits)
            assert A.leaf_member(x) == mask[idx]
            want = _dense_settled(mask, d, bits)
            if want is None:
                with pytest.raises(DepthInsufficient):
                    A.settled_member(x)
            else:
                assert A.settled_member(x) is want


def test_settled_membership_three_outcomes():
    d = 6
    tree = _half(d)
    assert tree.settled_member(_point("1", d)) is True
    assert tree.settled_member(_point("0", d)) is False
    # the all-ones singleton branch stays on the pruning frontier forever
    singleton = PrunedTree(d, ["1" * d])
    with pytest.raises(DepthInsufficient):
        singleton.settled_member(TruncPoint("1" * d))


# ---------------------------------------------------------------------------
# complements


def test_complement_of_full_tree_is_empty():
    assert len(closed_complement_cylinders(PrunedTree.full(4))) == 0


def test_complement_of_half_space():
    assert closed_complement_cylinders(_half(4)).prefixes == ("0",)


def test_complement_of_quarter_space():
    A = PrunedTree(6, ["11"])
    assert closed_complement_cylinders(A).prefixes == ("0", "10")


def test_complement_of_a_deep_branch_needs_no_recursion():
    d = 5000
    cyls = closed_complement_cylinders(PrunedTree(d, ["1" * d]))
    assert cyls.prefixes == tuple("1" * k + "0" for k in range(d))


def test_complement_covers_exactly_once():
    rng = np.random.default_rng(0)
    for _ in range(20):
        d = int(rng.integers(3, 8))
        mask = rng.random(2 ** d) < 0.6
        cyls = closed_complement_cylinders(_from_mask(d, mask))
        for idx in range(2 ** d):
            bits = tuple((idx >> (d - 1 - k)) & 1 for k in range(d))
            hits = [p for p in cyls.prefixes
                    if "".join(map(str, bits)).startswith(p)]
            assert len(hits) == (0 if mask[idx] else 1)


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
    fam = [PrunedTree(d, [format(j, "03b") for j in range(n + 1)])
           for n in range(6)]
    mat = sigma2_reduce(fam, _point("010", d))
    assert np.array_equal(mat.sum(axis=1), [1, 1, 0, 0, 0, 0])


def test_reduce_disjointness_is_exact():
    rng = np.random.default_rng(1)
    for _ in range(30):
        d = int(rng.integers(3, 7))
        fam = [_from_mask(d, rng.random(2 ** d) < 0.5) for _ in range(5)]
        bits = "".join(str(int(b)) for b in rng.integers(0, 2, size=d))
        try:
            mat = sigma2_reduce(fam, TruncPoint(bits))
        except DepthInsufficient:
            continue
        assert mat.sum(axis=1).max() <= 1


def test_reduce_propagates_depth_insufficiency():
    d = 6
    singleton = PrunedTree(d, ["1" * d])
    with pytest.raises(DepthInsufficient):
        sigma2_reduce([singleton], TruncPoint("1" * d))


def test_increasing_hulls_idempotent():
    rng = np.random.default_rng(2)
    d = 5
    fam = [_from_mask(d, rng.random(2 ** d) < 0.4) for _ in range(6)]
    once = increasing_hulls(fam)
    twice = increasing_hulls(once)
    for a, b in zip(once, twice):
        assert a.prefixes == b.prefixes
    for earlier, later in zip(once, once[1:]):
        assert later.union(earlier).prefixes == later.prefixes


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
    singleton = PrunedTree(d, ["1" * d])
    with pytest.raises(DepthInsufficient, match="family 1"):
        pi3_reduce([[PrunedTree.full(d)], [singleton]],
                   TruncPoint("1" * d))


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
        fam = [PrunedTree(d, [format(j, "04b") for j in range(n + 1)])
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
