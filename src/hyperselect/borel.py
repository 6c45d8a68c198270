"""Depth-truncated Cantor-space reductions.

Closed sets are pruned binary trees recorded by their depth-d leaf sets
(boolean arrays over the 2^d leaves).  Membership of a truncated point in a
closed set is only certified when it is decidable from the truncation:
definitely out when the leaf is pruned, definitely in when some proper
prefix has a full subtree (the tree places no constraint below it).  The
remaining case raises DepthInsufficient rather than guessing.  Clopen
cylinder decompositions, by contrast, are exactly decidable at depth d,
which is what makes the indicator reductions computable.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DepthInsufficient(RuntimeError):
    """Membership not decidable from the depth-d truncation."""


@dataclass(frozen=True)
class TruncPoint:
    bits: tuple

    def __post_init__(self):
        bits = tuple(int(b) for b in self.bits)
        if any(b not in (0, 1) for b in bits):
            raise ValueError("bits must be 0/1")
        object.__setattr__(self, "bits", bits)

    @classmethod
    def from_string(cls, s):
        return cls(tuple(int(c) for c in s))

    @property
    def depth(self):
        return len(self.bits)

    def leaf_index(self):
        idx = 0
        for b in self.bits:
            idx = idx * 2 + b
        return idx

    def __str__(self):
        return "".join(map(str, self.bits))


def _prefix_range(prefix, d):
    """Leaf index range [lo, hi) of the cylinder below a 0/1 prefix.

    A prefix deeper than d denotes a cylinder below the leaves; its depth-d
    truncation is the hull leaf, so the prefix is cut at d."""
    prefix = prefix[:d]
    lo = 0
    for b in prefix:
        lo = lo * 2 + int(b)
    span = 2 ** (d - len(prefix))
    return lo * span, (lo + 1) * span


MAX_DEPTH = 20  # 2**20 leaves: a dense leaf array doubles with each level


class PrunedTree:
    """A depth-d pruned binary tree, stored as its accepted-leaf set."""

    def __init__(self, d, leaves):
        self.d = d
        leaves = np.asarray(leaves, dtype=bool)
        if leaves.shape != (2 ** d,):
            raise ValueError("leaf array must have length 2^d")
        self.leaves = leaves

    @classmethod
    def full(cls, d):
        return cls(d, np.ones(2 ** d, dtype=bool))

    @classmethod
    def empty(cls, d):
        return cls(d, np.zeros(2 ** d, dtype=bool))

    @classmethod
    def from_predicate(cls, d, pred):
        """pred receives the leaf's bit tuple."""
        leaves = np.zeros(2 ** d, dtype=bool)
        for idx in range(2 ** d):
            bits = tuple((idx >> (d - 1 - k)) & 1 for k in range(d))
            leaves[idx] = bool(pred(bits))
        return cls(d, leaves)

    @classmethod
    def from_prefixes(cls, d, prefixes):
        leaves = np.zeros(2 ** d, dtype=bool)
        for p in prefixes:
            lo, hi = _prefix_range(p, d)
            leaves[lo:hi] = True
        return cls(d, leaves)

    def union(self, other):
        if other.d != self.d:
            raise ValueError("depth mismatch")
        return PrunedTree(self.d, self.leaves | other.leaves)

    def leaf_member(self, x: TruncPoint):
        """Clopen-approximation membership: is the point's leaf accepted?"""
        if x.depth != self.d:
            raise ValueError("point depth must match the tree depth")
        return bool(self.leaves[x.leaf_index()])

    def settled_member(self, x: TruncPoint):
        """Certified membership, or DepthInsufficient when the truncation
        cannot decide (accepted leaf, but every proper prefix is pruned
        somewhere below)."""
        if not self.leaf_member(x):
            return False
        for length in range(x.depth):
            lo, hi = _prefix_range(x.bits[:length], self.d)
            if self.leaves[lo:hi].all():
                return True
        raise DepthInsufficient(f"point {x} sits on the pruning frontier at depth {self.d}")


@dataclass(frozen=True)
class CylinderUnion:
    """Pairwise non-comparable prefixes, a disjoint clopen union."""

    prefixes: tuple

    def __post_init__(self):
        ps = tuple(str(p) for p in self.prefixes)
        object.__setattr__(self, "prefixes", ps)
        for i, a in enumerate(ps):
            for b in ps[i + 1:]:
                if a.startswith(b) or b.startswith(a):
                    raise ValueError(f"prefixes {a!r} and {b!r} overlap")

    def __len__(self):
        return len(self.prefixes)

    def member_index(self, x: TruncPoint):
        """Index of the cylinder containing x, or None (at most one by
        disjointness)."""
        s = str(x)
        for m, p in enumerate(self.prefixes):
            if s.startswith(p):
                return m
        return None


def _range_prefixes(mask, d, prefix=""):
    """DFS disjointification: emit a prefix when its whole subtree is set,
    otherwise split, '0' branch first."""
    lo, hi = _prefix_range(prefix, d)
    window = mask[lo:hi]
    if not window.any():
        return []
    if window.all():
        return [prefix]
    return _range_prefixes(mask, d, prefix + "0") + _range_prefixes(mask, d, prefix + "1")


def closed_complement_cylinders(A: PrunedTree) -> CylinderUnion:
    """The complement of the accepted region as disjoint prefix cylinders,
    in depth-first order."""
    return CylinderUnion(prefixes=tuple(_range_prefixes(~A.leaves, A.d)))


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
    unions = [closed_complement_cylinders(t) for t in trees]
    width = max((len(u) for u in unions), default=0)
    matrix = np.zeros((len(trees), max(width, 1)), dtype=np.int8)
    for n, (tree, cyls) in enumerate(zip(trees, unions)):
        try:
            inside = tree.settled_member(x)
        except DepthInsufficient as err:
            raise DepthInsufficient(f"A_{n}: {err}") from None
        if inside:
            continue
        m = cyls.member_index(x)
        if m is None:  # complement cylinders cover exactly the pruned leaves
            raise AssertionError("point neither settled inside nor in a complement cylinder")
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
        return TruncPoint.from_string((p + "0" * depth)[:depth])

    def enumerated(p):
        def build(depth):
            trees = [PrunedTree.from_prefixes(depth, [prefix(j) for j in range(n + 1)])
                     for n in range(count)]
            return trees, point(p, depth)
        return build

    def constant(tree_prefixes, p):
        def build(depth):
            return [PrunedTree.from_prefixes(depth, tree_prefixes)] * count, point(p, depth)
        return build

    def late_arrival(p):
        def build(depth):
            trees = [PrunedTree.empty(depth)] * (count - 1) + [PrunedTree.full(depth)]
            return trees, point(p, depth)
        return build

    def singleton_branch(extra_prefixes):
        def build(depth):
            tree = PrunedTree.from_prefixes(depth, ["1" * depth] + extra_prefixes)
            return [tree] * count, TruncPoint.from_string("1" * depth)
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
