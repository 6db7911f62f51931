"""Decision-tree strategies and exact complexity dynamic programs.

Trees are immutable: ``Leaf(label)`` with an optional label (``None`` for the
unlabelled trees used by the product-distribution game) and ``Query(var,
child0, child1)`` with 1-indexed variables. No variable repeats on any
root-to-leaf path; this is validated when a ``Query`` is built, and a
``DecisionTree`` only checks that its variables are within its arity.

The DPs (deterministic depth, distributional error at a depth budget,
zero-error expected cost) share one engine: the whole lattice of 3^m
subcubes as a numpy array of sums of mu's point masses, relaxed one query at
a time: exact with rational marginals, float with float ones, and limited to
arity <= 14 (13 with rational marginals, whose lattices hold Python ints).
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .boolfunc import (
    BooleanFunction,
    Point,
    ProductDistribution,
    _arithmetic,
    _at_most,
    _check_int,
    _exact,
    _mass_vector,
    _masses,
)

DP_MAX_ARITY = 14
# Exact-mode lattices hold Python ints in object arrays: with Fraction /64 marginals
# at m = 13 the error DP took 8.4 s and 295 MiB, and the zero-error cost 25.7 s and 424 MiB.
DP_MAX_EXACT_ARITY = 13
CURVE_TOL = 1e-12  # float errors within it of eps stop the error curve

__all__ = [
    "DP_MAX_ARITY",
    "Leaf",
    "Query",
    "DecisionTree",
    "RandomizedTree",
    "RunResult",
    "run",
    "tree_depth",
    "tree_leaves",
    "exact_D",
    "optimal_dist_error",
    "exact_Dmu_eps",
    "zero_error_expected_cost",
    "dist_error_curve_fast",
    "avg_leaf_bias",
    "label_leaves",
    "tree_error",
    "tree_to_json",
    "tree_from_json",
    "random_tree",
    "random_randomized_tree",
    "singleton",
]


# ---------------------------------------------------------------------------
# Tree structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Leaf:
    label: Optional[int] = None

    def __post_init__(self):
        if self.label not in (None, 0, 1):
            raise ValueError(f"leaf label must be None, 0 or 1, got {self.label!r}")


@dataclass(frozen=True)
class Query:
    """Query ``var`` and go on to ``child0`` or ``child1`` by its value.

    ``mask`` is the bit set (bit j for variable j) of every variable queried
    in the subtree. A path repeats a variable exactly when some node's
    variable appears below it, because every descendant of a node lies on a
    path through it; so a node whose variable is in a child's mask is
    refused here, once per node however many trees share it.
    """

    var: int
    child0: object
    child1: object
    mask: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        var = self.var
        if isinstance(var, bool) or not isinstance(var, int) or var < 1:
            raise ValueError(f"query variable must be an int >= 1, got {var!r}")
        below = _mask(self.child0) | _mask(self.child1)
        if below >> var & 1:
            raise ValueError(f"variable {var} repeats on a path")
        object.__setattr__(self, "mask", below | 1 << var)


Node = object  # Leaf | Query


def _mask(node: Node) -> int:
    if isinstance(node, Query):
        return node.mask
    if isinstance(node, Leaf):
        return 0
    raise ValueError(f"invalid node {node!r}")


@dataclass(frozen=True)
class DecisionTree:
    """A decision tree over ``arity`` variables with repeat-free paths."""

    arity: int
    root: Node

    def __post_init__(self):
        mask = _mask(self.root)
        if mask >> (self.arity + 1):
            raise ValueError(f"query variable {mask.bit_length() - 1} out of range "
                             f"[1, {self.arity}]")

    @property
    def depth(self) -> int:
        return tree_depth(self.root)


def tree_depth(node: Node) -> int:
    if isinstance(node, Leaf):
        return 0
    return 1 + max(tree_depth(node.child0), tree_depth(node.child1))


def tree_leaves(tree: DecisionTree):
    """Yield (leaf_id, fixed, label, depth); leaf_id is the 0/1 path string
    and ``fixed`` the leaf's (var, bit) pairs, sorted by variable."""
    out = []

    def walk(node, path, fixed):
        if isinstance(node, Leaf):
            out.append((path, tuple(sorted(fixed)), node.label, len(fixed)))
            return
        walk(node.child0, path + "0", fixed + [(node.var, 0)])
        walk(node.child1, path + "1", fixed + [(node.var, 1)])

    walk(tree.root, "", [])
    del walk  # a self-referring closure: unbound, it does not hold on to out
    return out


class RunResult(NamedTuple):
    leaf_id: str
    queried: tuple
    output: Optional[int]


def run(tree: DecisionTree, x: Point) -> RunResult:
    if len(x) != tree.arity:
        raise ValueError("arity mismatch between tree and input")
    node = tree.root
    path = []
    queried = []
    while isinstance(node, Query):
        b = x[node.var - 1]
        queried.append(node.var)
        path.append(str(b))
        node = node.child1 if b else node.child0
    return RunResult("".join(path), tuple(queried), node.label)


@dataclass(frozen=True)
class RandomizedTree:
    """A finitely supported distribution over decision trees of one arity."""

    entries: tuple  # of (weight, DecisionTree)

    def __post_init__(self):
        if not self.entries:
            raise ValueError("randomized tree needs at least one entry")
        arities = {t.arity for _, t in self.entries}
        if len(arities) != 1:
            raise ValueError("all support trees must share one arity")
        if any(w <= 0 for w, _ in self.entries):
            raise ValueError("weights must be positive")
        total = sum(w for w, _ in self.entries)
        if not _at_most(abs(total - 1), 0):
            raise ValueError(f"weights must sum to 1, got {total}")

    @property
    def arity(self) -> int:
        return self.entries[0][1].arity

    @property
    def complexity(self) -> int:
        return max(t.depth for _, t in self.entries)


def singleton(tree: DecisionTree) -> RandomizedTree:
    return RandomizedTree(((1, tree),))


# ---------------------------------------------------------------------------
# Subcube-lattice engine
# ---------------------------------------------------------------------------


def _fix(arr: np.ndarray, ax: int, v: int) -> np.ndarray:
    """View of ``arr`` with axis ``ax`` at entry ``v`` (0, 1, or 2 for free)."""
    return arr[(slice(None),) * ax + (v, ...)]


class _Lattice:
    """Every subcube of {0,1}^m as one array of shape (3,)*m.

    Variable j+1 is axis m-1-j, and entries 0, 1 and 2 along an axis mean
    x_j = 0, x_j = 1 and free, so a C-order reshape of the truth table is the
    fully fixed corner and the whole cube is the last entry. Values over
    subcubes are stacked on the corner one axis at a time (entry 2 combines
    entries 0 and 1), so a subcube is split on its lowest free variable.
    Every DP runs ``rounds`` from its base array; round k holds the best tree
    with at most k queries, where a leaf on a non-constant subcube costs more
    than any tree (m + 1 queries). Rounds are computed only as they are read,
    and the non-constant mask only by the two DPs whose base needs it
    (``depths`` and ``costs``).

    Error and cost values are unnormalised sums of ``boolfunc._masses`` over
    a subcube, in its units (Python ints or float64), so a subcube's value is
    the sum of its halves' and the lattice has no arithmetic of its own;
    ``value`` turns the whole cube's entry into a probability.
    """

    def __init__(self, f: BooleanFunction, marginals: Sequence = ()):
        m = f.arity
        if m > DP_MAX_ARITY:
            raise ValueError(f"arity {m} above DP cap {DP_MAX_ARITY}")
        if marginals and _exact(marginals) and m > DP_MAX_EXACT_ARITY:
            raise ValueError(f"arity {m} above the exact-arithmetic DP cap {DP_MAX_EXACT_ARITY}; "
                             "pass float marginals")
        self.m = m
        self.corner = f.table_array().reshape((2,) * m)
        w, ar = _masses(marginals)
        self.mass, self.value = w.reshape((2,) * len(marginals)), ar.value

    def stack(self, corner: np.ndarray, combine) -> np.ndarray:
        """``corner`` over every subcube, in place; trailing axes ride along."""
        arr = np.empty((3,) * self.m + corner.shape[self.m:], corner.dtype)
        arr[(slice(2),) * self.m] = corner
        for ax in range(self.m):
            pre, post = (slice(None),) * ax, (slice(2),) * (self.m - 1 - ax)
            arr[pre + (2,) + post] = combine(arr[pre + (0,) + post], arr[pre + (1,) + post])
        return arr

    def rounds(self, base: np.ndarray, step):
        """Yield rounds 0, 1, 2, ...: the minimum of ``base`` and, on every
        axis, ``step`` over the previous round's two halves."""
        cur = base
        while True:
            yield cur
            prev, cur = cur, base.copy()
            for ax in range(self.m):
                free = _fix(cur, ax, 2)
                np.minimum(free, step(ax, _fix(prev, ax, 0), _fix(prev, ax, 1)), out=free)

    def nonconst(self) -> np.ndarray:
        """True on the subcubes where f is not constant."""
        return self.stack(self.corner, lambda a, b: np.where(a == b, a, 2)) == 2

    def depths(self):
        base = np.where(self.nonconst(), np.int8(self.m + 1), np.int8(0))
        return self.rounds(base, lambda ax, a, b: 1 + np.maximum(a, b))

    def errors(self):
        # the masses of f = 0 and f = 1 as two channels on a trailing axis
        split = self.mass[..., None] * np.stack([1 - self.corner, self.corner], axis=-1)
        both = self.stack(split, np.add)
        return self.rounds(np.minimum(both[..., 0], both[..., 1]), lambda ax, a, b: a + b)

    def costs(self):
        mass = self.stack(self.mass, np.add)  # M(C), which each query on C adds
        base = np.where(self.nonconst(), (self.m + 1) * mass, 0)  # no tree yet
        return self.rounds(base, lambda ax, a, b: _fix(mass, ax, 2) + a + b)


def _nth(rounds, k: int) -> np.ndarray:
    return next(itertools.islice(rounds, k, None))


def exact_D(f: BooleanFunction) -> int:
    """Deterministic query complexity: the first round whose root is below
    the m + 1 of a missing tree."""
    m = f.arity
    return next(int(cur.flat[-1]) for cur in _Lattice(f).depths() if cur.flat[-1] <= m)


def optimal_dist_error(f: BooleanFunction, mu: ProductDistribution, k: int):
    """Best achievable error over mu of any depth<=k deterministic tree."""
    if f.arity != mu.arity:
        raise ValueError("arity mismatch")
    if k < 0:
        raise ValueError("depth budget must be >= 0")
    lat = _Lattice(f, mu.marginals)
    return lat.value(_nth(lat.errors(), min(k, f.arity)).flat[-1])


def _check_eps(eps) -> None:
    """Refuse an eps that no error meets, so no least depth exists."""
    if not eps >= 0:  # also NaN
        raise ValueError(f"eps must be >= 0, got {eps!r}")


def _root_errors(f: BooleanFunction, marginals: Sequence, eps=None):
    """Yield err(0), err(1), ... at the whole cube: all m + 1 rounds, or with
    ``eps`` up to the first error within it, so no round past the least depth
    is computed. err(m) = 0 meets every eps >= 0, so the stop comes by m."""
    if eps is not None:
        _check_eps(eps)
    lat = _Lattice(f, marginals)
    for cur in itertools.islice(lat.errors(), f.arity + 1):
        err = lat.value(cur.flat[-1])
        yield err
        if eps is not None and _at_most(err, eps, CURVE_TOL):
            return


def exact_Dmu_eps(f: BooleanFunction, mu: ProductDistribution, eps) -> int:
    """Least depth k with optimal_dist_error(f, mu, k) <= eps.

    Compared by ``boolfunc._at_most`` with ``CURVE_TOL``: exactly when both
    are rational. A negative or NaN eps raises ``ValueError``.
    """
    if f.arity != mu.arity:
        raise ValueError("arity mismatch")
    return sum(1 for _ in _root_errors(f, mu.marginals, eps)) - 1


def zero_error_expected_cost(f: BooleanFunction, mu: ProductDistribution):
    """Least expected number of queries of any tree computing f exactly."""
    if f.arity != mu.arity:
        raise ValueError("arity mismatch")
    if f.is_constant():
        return 0  # no query, in any arithmetic
    lat = _Lattice(f, mu.marginals)
    return lat.value(_nth(lat.costs(), f.arity).flat[-1])


def dist_error_curve_fast(f: BooleanFunction, marginals: Sequence[float], eps=None) -> np.ndarray:
    """err(k) for k = 0..m in float arithmetic, from one lattice.

    Equal to ``optimal_dist_error`` for each k with float marginals. With
    ``eps`` the curve ends at the least depth k* whose error is within eps,
    by the rule of ``exact_Dmu_eps``: it is err(0..k*), so ``len - 1`` is
    D_mu,eps; a search calls it so to score many distributions.
    """
    if f.arity != len(marginals):
        raise ValueError("arity mismatch")
    mu = ProductDistribution(tuple(float(q) for q in marginals))  # refuses NaN, < 0 and > 1
    return np.array(list(_root_errors(f, mu.marginals, eps)))


# ---------------------------------------------------------------------------
# Leaf statistics, labeling, error
# ---------------------------------------------------------------------------


def _point_masses(mu: ProductDistribution) -> tuple:
    """``(w, prob)``: ``w`` maps mu's positive-mass points, by ascending
    index, to their masses in the units of ``boolfunc._arithmetic`` (decided
    on all marginals), and ``prob`` turns a sum of masses into a probability
    (a sum of no point stays the int 0; any other is positive). A 0/1 marginal
    fixes its bit, and its weight, exactly 1, is left out, so a two-point mu
    builds two masses, not 2^m."""
    ar = _arithmetic(mu.marginals)
    interior = [j for j, (w0, w1) in enumerate(ar.weights) if w0 and w1]
    base = sum(1 << j for j, (w0, _) in enumerate(ar.weights) if not w0)
    masses = _mass_vector(ar, [ar.weights[j] for j in interior]).tolist()
    points = [base]
    for j in interior:  # the vector's index order: interior[0] least significant
        points += [idx | 1 << j for idx in points]
    return {idx: x for idx, x in zip(points, masses) if x}, lambda s: s and ar.value(s)


def _leaf_masses(tree: DecisionTree, table: np.ndarray, w: dict) -> dict:
    """{leaf_id: (s0, s1)} for every leaf that holds one of the points of
    ``w``, in leaf order: s_b sums the masses ``w`` of the leaf's points with
    f = b (``table`` is f's ``table_array``), by ascending index (the int 0
    if there is none).

    The points are split down the tree by each queried bit, so a subtree
    that no point reaches is never entered, and a two-point mu follows at
    most two paths.
    """
    masses = {}
    stack = [(tree.root, "", list(w))]
    while stack:
        node, path, points = stack.pop()
        if isinstance(node, Query):
            bit = 1 << (node.var - 1)
            ones = [idx for idx in points if idx & bit]
            zeros = [idx for idx in points if not idx & bit]
            if ones:  # pushed first, so child0's leaves come out first
                stack.append((node.child1, path + "1", ones))
            if zeros:
                stack.append((node.child0, path + "0", zeros))
            continue
        s0 = s1 = 0
        for idx in points:
            if table[idx]:
                s1 = s1 + w[idx]
            else:
                s0 = s0 + w[idx]
        masses[path] = (s0, s1)
    return masses


def _check_arities(tree: DecisionTree, f: BooleanFunction, mu: ProductDistribution):
    if tree.arity != f.arity or f.arity != mu.arity:
        raise ValueError("arity mismatch")


def avg_leaf_bias(r: RandomizedTree, f: BooleanFunction, mu: ProductDistribution):
    """E_{T~R} sum over leaves of min{Pr[leaf, f=0], Pr[leaf, f=1]}: the
    reach-weighted leaf bias, the unlabelled-tree error proxy."""
    mass, prob = _point_masses(mu)
    table = f.table_array()
    total = 0
    for w, tree in r.entries:
        _check_arities(tree, f, mu)
        bias = 0
        for s0, s1 in _leaf_masses(tree, table, mass).values():
            bias = bias + min(s0, s1)
        total = total + w * prob(bias)
    return total


def label_leaves(tree: DecisionTree, f: BooleanFunction, mu: ProductDistribution) -> DecisionTree:
    """Label every leaf with the conditional majority value of f under mu.

    Zero-mass leaves are labeled 0.
    """
    _check_arities(tree, f, mu)
    w, _ = _point_masses(mu)
    masses = _leaf_masses(tree, f.table_array(), w)
    return DecisionTree(tree.arity, _majority_labels(tree.root, "", masses))


def _majority_labels(node: Node, path: str, masses: dict) -> Node:
    """The subtree at ``path`` with every leaf labeled by its majority mass."""
    if isinstance(node, Leaf):
        s0, s1 = masses.get(path, (0, 0))
        return Leaf(1 if s1 and s1 >= s0 else 0)
    return Query(node.var, _majority_labels(node.child0, path + "0", masses),
                 _majority_labels(node.child1, path + "1", masses))


def tree_error(tree: DecisionTree, f: BooleanFunction, mu: ProductDistribution):
    """Pr_{x~mu}[f(x) != T(x)], exact by summation over leaves."""
    _check_arities(tree, f, mu)
    w, prob = _point_masses(mu)
    masses = _leaf_masses(tree, f.table_array(), w)
    err = 0
    for leaf_id, _, label, _ in tree_leaves(tree):
        if leaf_id not in masses:
            continue
        if label is None:
            raise ValueError(f"reachable leaf {leaf_id!r} has no label")
        s0, s1 = masses[leaf_id]
        err = err + (s1 if label == 0 else s0)
    return prob(err)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def _node_to_obj(node: Node):
    if isinstance(node, Leaf):
        return {"leaf": node.label}
    return {
        "query": node.var,
        "child0": _node_to_obj(node.child0),
        "child1": _node_to_obj(node.child1),
    }


def _node_from_obj(obj) -> Node:
    if "leaf" in obj:
        return Leaf(obj["leaf"])
    return Query(obj["query"], _node_from_obj(obj["child0"]), _node_from_obj(obj["child1"]))


def tree_to_json(tree: DecisionTree) -> str:
    """Deterministic nested text form, child0 before child1."""
    return json.dumps({"arity": tree.arity, "root": _node_to_obj(tree.root)}, sort_keys=True)


def tree_from_json(text: str) -> DecisionTree:
    obj = json.loads(text)
    return DecisionTree(obj["arity"], _node_from_obj(obj["root"]))


# ---------------------------------------------------------------------------
# Random trees (test and search fodder)
# ---------------------------------------------------------------------------


def random_tree(m: int, rng, max_depth: Optional[int] = None, labeled: bool = False,
                leaf_prob: float = 0.3) -> DecisionTree:
    """A random repeat-free tree; rng is ``random.Random``."""
    if max_depth is None:
        max_depth = m
    _check_int("max_depth", max_depth, 0)
    return DecisionTree(m, _grow(list(range(1, m + 1)), max_depth, rng, labeled, leaf_prob))


def _grow(available: list, depth: int, rng, labeled: bool, leaf_prob: float) -> Node:
    """A random subtree over the ``available`` variables, child 0 drawn first."""
    if not available or depth == 0 or rng.random() < leaf_prob:
        return Leaf(rng.randint(0, 1) if labeled else None)
    var = rng.choice(available)
    rest = [v for v in available if v != var]
    return Query(var, _grow(rest, depth - 1, rng, labeled, leaf_prob),
                 _grow(rest, depth - 1, rng, labeled, leaf_prob))


def random_randomized_tree(m: int, rng, support: int = 3,
                           max_depth: Optional[int] = None) -> RandomizedTree:
    """Random mixture of unlabelled trees with exact dyadic-rational weights
    (for exact checks)."""
    _check_int("support", support, 1)
    if max_depth is not None:
        _check_int("max_depth", max_depth, 0)
    k = rng.randint(1, support)
    trees = [random_tree(m, rng, max_depth) for _ in range(k)]
    raw = [rng.randint(1, 8) for _ in range(k)]
    total = sum(raw)
    return RandomizedTree(tuple((Fraction(w, total), t) for w, t in zip(raw, trees)))
