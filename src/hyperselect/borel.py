"""Depth-truncated Cantor-space reductions.

A clopen set is a finite union of prefix cylinders, and a depth-d pruned
tree is stored exactly as its canonical prefix code: the sorted maximal
cylinders it contains, each of length at most d.  Membership of a truncated
point in a closed set is only certified when it is decidable from the
truncation: definitely out when no cylinder holds the point, definitely in
when its cylinder is shorter than d (some proper prefix has a full subtree,
so the tree places no constraint below it).  A cylinder of length d raises
DepthInsufficient rather than guessing.  Clopen complements are again
prefix codes, exactly decidable at depth d, which is what makes the
indicator reductions computable.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .norms import InvariantViolation


class DepthInsufficient(RuntimeError):
    """Membership not decidable from the depth-d truncation."""


@dataclass(frozen=True)
class TruncPoint:
    """The first d bits of a point of Cantor space, kept as one 0/1 string;
    built from that string or from a sequence of 0/1 integers."""

    bits: str

    def __post_init__(self):
        bits = self.bits if isinstance(self.bits, str) else "".join(str(int(b)) for b in self.bits)
        if bits.strip("01"):
            raise ValueError("bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    @property
    def depth(self):
        return len(self.bits)

    def __str__(self):
        return self.bits


class PrunedTree:
    """A depth-d pruned binary tree, stored as its canonical prefix code.

    prefixes is the sorted tuple of the maximal cylinders the tree accepts;
    for an antichain, sorted order is the '0'-first depth-first order.
    """

    def __init__(self, d, prefixes):
        cut = set()
        for p in prefixes:
            if not isinstance(p, str) or p.strip("01"):
                raise ValueError(f"prefix {p!r} is not a 0/1 string")
            # a prefix deeper than d denotes a cylinder below the leaves;
            # its depth-d truncation is the hull leaf
            cut.add(p[:d])
        code = []
        for p in sorted(cut):
            # in sorted order a prefix's extensions follow it directly
            if code and p.startswith(code[-1]):
                continue
            code.append(p)
            while len(code) > 1 and code[-1].endswith("1") and code[-2] == code[-1][:-1] + "0":
                code.pop()
                code[-1] = code[-1][:-1]
        self.d = d
        self.prefixes = tuple(code)

    @classmethod
    def full(cls, d):
        return cls(d, [""])

    @classmethod
    def empty(cls, d):
        return cls(d, [])

    def __len__(self):
        return len(self.prefixes)

    def union(self, other):
        if other.d != self.d:
            raise ValueError("depth mismatch")
        return PrunedTree(self.d, self.prefixes + other.prefixes)

    def member_index(self, x: TruncPoint):
        """Index of the cylinder containing x, or None (at most one, since
        the code is an antichain)."""
        if x.depth != self.d:
            raise ValueError("point depth must match the tree depth")
        s = x.bits
        # a code prefix of s is the greatest code entry <= s: every entry
        # between it and s would extend it
        m = bisect_right(self.prefixes, s) - 1
        return m if m >= 0 and s.startswith(self.prefixes[m]) else None

    def leaf_member(self, x: TruncPoint):
        """Clopen-approximation membership: is the point's leaf accepted?"""
        return self.member_index(x) is not None

    def settled_member(self, x: TruncPoint):
        """Certified membership, or DepthInsufficient when the truncation
        cannot decide (accepted leaf, but every proper prefix is pruned
        somewhere below)."""
        m = self.member_index(x)
        if m is None:
            return False
        # the cylinder is maximal, so a proper prefix of x has a full
        # subtree exactly when x's cylinder is shorter than d
        if len(self.prefixes[m]) < self.d:
            return True
        raise DepthInsufficient(f"point {x} sits on the pruning frontier at depth {self.d}")


def closed_complement_cylinders(A: PrunedTree) -> PrunedTree:
    """The complement of the accepted region, whose code lists its disjoint
    cylinders in depth-first order."""
    code = A.prefixes
    out = []
    # explicit stack of (node, [lo, hi) slice of the code entries below it),
    # so a deep code costs no recursion
    todo = [("", 0, len(code))]
    while todo:
        node, lo, hi = todo.pop()
        if lo == hi:
            out.append(node)
        elif code[lo] != node:
            mid = bisect_left(code, node + "1", lo, hi)
            todo += [(node + "1", mid, hi), (node + "0", lo, mid)]
    return PrunedTree(A.d, out)


def increasing_hulls(A_list):
    """Replace A_n by the union of A_0..A_n; idempotent."""
    out = []
    acc = None
    for tree in A_list:
        acc = tree if acc is None else acc.union(tree)
        out.append(acc)
    return out


def sigma2_reduce(A_list, x: TruncPoint):
    """Indicator matrix (n, m) of the disjoint clopen complements U_{n,m}.

    Row n has at most one set entry; once x certifiably enters A_n the rows
    vanish from there on, so a finite point maps to a finite-support matrix.
    Raises DepthInsufficient when some membership is undecidable at depth d.
    """
    trees = increasing_hulls(A_list)
    complements = [closed_complement_cylinders(t) for t in trees]
    width = max((len(c) for c in complements), default=0)
    matrix = np.zeros((len(trees), max(width, 1)), dtype=np.int8)
    for n, (tree, complement) in enumerate(zip(trees, complements)):
        try:
            inside = tree.settled_member(x)
        except DepthInsufficient as err:
            raise DepthInsufficient(f"A_{n}: {err}") from None
        if inside:
            continue
        m = complement.member_index(x)
        if m is None:  # complement cylinders cover exactly the pruned leaves
            raise InvariantViolation(f"A_{n}: point {x} neither settled inside nor in a"
                                     f" complement cylinder")
        matrix[n, m] = 1
    return matrix


def pi3_reduce(A_families, x: TruncPoint):
    """One sigma2 indicator matrix per family; the point lies in the
    intersection of the unions iff every matrix has certified finite
    support."""
    out = []
    for k, family in enumerate(A_families):
        try:
            out.append(sigma2_reduce(family, x))
        except DepthInsufficient as err:
            raise DepthInsufficient(f"family {k}: {err}") from None
    return out


def pfin_census(matrix, deeper=None):
    """Support census with the two-depth finiteness dichotomy.

    A single matrix is certified finite when the indicator rows vanish from
    some n0 on (the row-vanishing structure of sigma2_reduce); with a second
    matrix from a deeper truncation, the dichotomy reads: support that grows
    between the truncations, or still touches the deeper truncation's last
    row, refutes finiteness; a stable support that terminates strictly
    inside the deeper window is certified.
    """
    matrix = np.asarray(matrix)
    support = int(matrix.sum())
    if deeper is not None:
        deeper = np.asarray(deeper)
        deep_support = int(deeper.sum())
        deep_rows = deeper.sum(axis=1) > 0
        terminated = not (deep_rows.any() and deep_rows[-1])
        if deep_support > support or not terminated:
            return {"support_count": support, "verdict": "GrowingWithDepth",
                    "deeper_count": deep_support}
        return {"support_count": support, "verdict": "CertifiedFinite",
                "bound": deep_support}
    row_has = matrix.sum(axis=1) > 0
    if not row_has.any():
        return {"support_count": 0, "verdict": "CertifiedFinite", "bound": 0}
    if not row_has[-1]:
        return {"support_count": support, "verdict": "CertifiedFinite", "bound": support}
    return {"support_count": support, "verdict": "GrowingWithDepth"}


# ---------------------------------------------------------------------------
# bundled instances with analytically known membership


def bundled_borel_instances(d=10, count=10, prefix_len=4):
    """Certified (A_list, x, expected) instances plus frontier demos.

    expected is "in"/"out" for certified membership in the union of the
    family, or "depth_insufficient" for points on the pruning frontier.
    Each record carries build(d') to rebuild the instance at another depth.
    """
    if count < 1:
        raise ValueError(f"need at least one family member, got count={count}")
    if 2 ** prefix_len <= count:
        raise ValueError("need more prefixes than family members")

    def prefix(j):
        return format(j, f"0{prefix_len}b")

    def point(p, depth):
        return TruncPoint((p + "0" * depth)[:depth])

    def enumerated(p):
        def build(depth):
            trees = [PrunedTree(depth, [prefix(j) for j in range(n + 1)])
                     for n in range(count)]
            return trees, point(p, depth)
        return build

    def constant(tree_prefixes, p):
        def build(depth):
            return [PrunedTree(depth, tree_prefixes)] * count, point(p, depth)
        return build

    def late_arrival(p):
        def build(depth):
            trees = [PrunedTree.empty(depth)] * (count - 1) + [PrunedTree.full(depth)]
            return trees, point(p, depth)
        return build

    def singleton_branch(extra_prefixes):
        def build(depth):
            tree = PrunedTree(depth, ["1" * depth] + extra_prefixes)
            return [tree] * count, TruncPoint("1" * depth)
        return build

    specs = []
    for j in range(count):
        specs.append((f"member-cylinder-{j}", enumerated(prefix(j)), "in"))
    for j in range(count, 2 ** prefix_len):
        specs.append((f"nonmember-cylinder-{j}", enumerated(prefix(j)), "out"))
    specs.append(("constant-half-in", constant(["1"], "1"), "in"))
    specs.append(("constant-half-out", constant(["1"], "0"), "out"))
    specs.append(("full-space", constant([""], "0"), "in"))
    specs.append(("late-arrival", late_arrival("01"), "in"))
    # frontier: the singleton branch 1^infinity is never certified at any depth
    specs.append(("frontier-singleton", singleton_branch([]), "depth_insufficient"))
    specs.append(("frontier-mixed", singleton_branch(["0"]), "depth_insufficient"))

    instances = []
    for name, build, expected in specs:
        trees, x = build(d)
        instances.append({"name": name, "trees": trees, "x": x,
                          "expected": expected, "build": build})
    return instances
