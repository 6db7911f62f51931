"""Finite zero-sum games over decision-tree strategy catalogs.

The randomized and sabotage complexities at tiny arity are exact LP values:
rows are adversary choices (inputs, or 0/1-input pairs), columns are
deterministic trees, and the solver is a dense simplex with Bland's rule.
Matrices with at most 10^4 entries are solved in rational arithmetic, larger
ones in floats with a 1e-9 tolerance.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boolfunc import (
    BooleanFunction,
    Point,
    ProductDistribution,
    point_from_index,
    restriction_value,
    sensitivity,
)
from .dtree import (
    DP_MAX_ARITY,
    DecisionTree,
    Leaf,
    Query,
    RandomizedTree,
    avg_leaf_bias,
    dist_error_curve_fast,
    run,
    tree_leaves,
)

RATIONAL_ENTRY_LIMIT = 10_000
LP_TOL = 1e-9

__all__ = [
    "StrategyCatalog",
    "SabotagePair",
    "GameValue",
    "LPError",
    "enumerate_trees",
    "catalog_size_formula",
    "solve_zero_sum",
    "dump_game",
    "all_sabotage_pairs",
    "zero_error_trees",
    "r_game",
    "rs_game",
    "rse_game",
    "r_game_value",
    "rs_game_value",
    "exact_R_eps",
    "exact_RS_eps",
    "exact_RSE",
    "mixture_from_columns",
    "sens_miss_profile",
    "pair_miss_profile",
    "miss_probability",
    "amplify",
    "AmplifiedBiasReport",
    "TwoPointBoundReport",
    "check_amplified_bias",
    "check_two_point_bound",
    "DprodSearchResult",
    "dprod_search",
]


# ---------------------------------------------------------------------------
# Strategy catalogs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategyCatalog:
    arity: int
    depth_cap: int
    labeled: bool
    trees: tuple  # of DecisionTree


def _check_catalog_caps(m: int, depth_cap: int):
    if m > 4:
        raise ValueError(f"catalog arity {m} above cap 4")
    if m == 4 and depth_cap > 2:
        raise ValueError("arity-4 catalogs are capped at depth 2")


def enumerate_trees(m: int, depth_cap: Optional[int] = None, labeled: bool = True) -> StrategyCatalog:
    """Exhaustive duplicate-free catalog of decision trees on m variables.

    Full depth needs m <= 3; depth_cap <= 2 allows m = 4.
    """
    cap = m if depth_cap is None else min(depth_cap, m)
    _check_catalog_caps(m, cap)
    leaf_pool = (Leaf(0), Leaf(1)) if labeled else (Leaf(None),)
    memo = {}

    def build(available: tuple, depth: int):
        key = (available, depth)
        try:
            return memo[key]
        except KeyError:
            pass
        nodes = list(leaf_pool)
        if depth > 0:
            for var in available:
                rest = tuple(v for v in available if v != var)
                children = build(rest, depth - 1)
                for c0 in children:
                    for c1 in children:
                        nodes.append(Query(var, c0, c1))
        memo[key] = tuple(nodes)
        return memo[key]

    roots = build(tuple(range(1, m + 1)), cap)
    return StrategyCatalog(m, cap, labeled, tuple(DecisionTree(m, r) for r in roots))


def catalog_size_formula(m: int, depth: int, labeled: bool) -> int:
    """Tree count by the recursion t(S,k) = base + sum_i t(S-i, k-1)^2."""
    base = 2 if labeled else 1
    memo = {}

    def count(nvars: int, k: int) -> int:
        if k == 0 or nvars == 0:
            return base
        key = (nvars, k)
        if key not in memo:
            memo[key] = base + nvars * count(nvars - 1, k - 1) ** 2
        return memo[key]

    return count(m, depth)


# ---------------------------------------------------------------------------
# Zero-sum LP
# ---------------------------------------------------------------------------


class LPError(RuntimeError):
    pass


@dataclass(frozen=True)
class GameValue:
    value: object
    row_strategy: tuple
    col_strategy: tuple


def _simplex_exact(a_rows, n_cols):
    """max sum(w) s.t. A w <= 1, w >= 0 in Fractions. Returns (w, duals)."""
    n_rows = len(a_rows)
    width = n_cols + n_rows + 1
    tab = []
    for i, row in enumerate(a_rows):
        line = [Fraction(v) for v in row] + [Fraction(0)] * n_rows + [Fraction(1)]
        line[n_cols + i] = Fraction(1)
        tab.append(line)
    # objective row: reduced costs c_j - z_j start at +1 for structurals
    obj = [Fraction(1)] * n_cols + [Fraction(0)] * (n_rows + 1)
    basis = [n_cols + i for i in range(n_rows)]

    for _ in range(200000):
        enter = next((j for j in range(n_cols + n_rows) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(n_rows):
            coef = tab[i][enter]
            if coef > 0:
                ratio = tab[i][-1] / coef
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave is None:
            raise LPError("LP unbounded; payoff shift failed")
        piv = tab[leave][enter]
        tab[leave] = [v / piv for v in tab[leave]]
        for i in range(n_rows):
            if i != leave and tab[i][enter] != 0:
                c = tab[i][enter]
                tab[i] = [v - c * pv for v, pv in zip(tab[i], tab[leave])]
        c = obj[enter]
        obj = [v - c * pv for v, pv in zip(obj, tab[leave])]
        basis[leave] = enter
    else:
        raise LPError("simplex failed to terminate (cycling guard hit)")

    w = [Fraction(0)] * n_cols
    for i, b in enumerate(basis):
        if b < n_cols:
            w[b] = tab[i][-1]
    duals = [-obj[n_cols + i] for i in range(n_rows)]
    return w, duals


def _simplex_float(a_rows, n_cols):
    n_rows = len(a_rows)
    tab = np.zeros((n_rows, n_cols + n_rows + 1))
    tab[:, :n_cols] = np.asarray(a_rows, dtype=float)
    tab[:, n_cols:-1] = np.eye(n_rows)
    tab[:, -1] = 1.0
    obj = np.zeros(n_cols + n_rows + 1)
    obj[:n_cols] = 1.0
    basis = [n_cols + i for i in range(n_rows)]

    for _ in range(200000):
        pos = np.nonzero(obj[:-1] > LP_TOL)[0]
        if len(pos) == 0:
            break
        enter = int(pos[0])  # Bland
        col = tab[:, enter]
        mask = col > LP_TOL
        if not mask.any():
            raise LPError("LP unbounded; payoff shift failed")
        ratios = np.full(n_rows, np.inf)
        ratios[mask] = tab[mask, -1] / col[mask]
        best = ratios.min()
        cands = [i for i in range(n_rows) if ratios[i] <= best + LP_TOL]
        leave = min(cands, key=lambda i: basis[i])
        piv = tab[leave, enter]
        tab[leave] /= piv
        for i in range(n_rows):
            if i != leave and abs(tab[i, enter]) > 0:
                tab[i] -= tab[i, enter] * tab[leave]
        obj = obj - obj[enter] * tab[leave]
        basis[leave] = enter
    else:
        raise LPError("simplex failed to terminate (cycling guard hit)")

    w = np.zeros(n_cols)
    for i, b in enumerate(basis):
        if b < n_cols:
            w[b] = tab[i, -1]
    duals = [-obj[n_cols + i] for i in range(n_rows)]
    return list(w), duals


def solve_zero_sum(matrix: Sequence[Sequence], sense: str = "row_max",
                   exact: Optional[bool] = None) -> GameValue:
    """Value and optimal mixed strategies of a finite zero-sum game.

    ``sense='row_max'``: the row player maximizes the payoff, the column
    player minimizes; ``'row_min'`` swaps the objective. Solutions are
    verified against both best-response conditions before being returned;
    failures raise LPError.
    """
    rows = [list(r) for r in matrix]
    if not rows or not rows[0]:
        raise ValueError("payoff matrix must be non-empty")
    if sense not in ("row_max", "row_min"):
        raise ValueError(f"unknown sense {sense!r}")
    if sense == "row_min":
        inner = solve_zero_sum([[-v for v in r] for r in rows], "row_max", exact)
        return GameValue(-inner.value, inner.row_strategy, inner.col_strategy)

    n_rows, n_cols = len(rows), len(rows[0])
    if exact is None:
        exact = n_rows * n_cols <= RATIONAL_ENTRY_LIMIT and all(
            isinstance(v, (int, Fraction)) for r in rows for v in r
        )

    if exact:
        rows = [[Fraction(v) for v in r] for r in rows]
        low = min(min(r) for r in rows)
        shift = Fraction(1) - low if low < 1 else Fraction(0)
        shifted = [[v + shift for v in r] for r in rows]
        w, duals = _simplex_exact(shifted, n_cols)
        total = sum(w)
        if total <= 0:
            raise LPError("degenerate LP: zero strategy mass")
        vs = 1 / total
        q = tuple(wi * vs for wi in w)
        p = tuple(di * vs for di in duals)
        value = vs - shift
        _verify_solution(rows, value, p, q, 0)
        return GameValue(value, p, q)

    rows_f = [[float(v) for v in r] for r in rows]
    low = min(min(r) for r in rows_f)
    shift = (1.0 - low) if low < 1 else 0.0
    shifted = [[v + shift for v in r] for r in rows_f]
    w, duals = _simplex_float(shifted, n_cols)
    total = sum(w)
    if total <= 0:
        raise LPError("degenerate LP: zero strategy mass")
    vs = 1.0 / total
    q = [max(0.0, wi) * vs for wi in w]
    p = [max(0.0, di) * vs for di in duals]
    q_total, p_total = sum(q), sum(p)
    if q_total <= 0 or p_total <= 0:
        raise LPError("degenerate LP: empty optimal strategy")
    q = tuple(v / q_total for v in q)
    p = tuple(v / p_total for v in p)
    value = vs - shift
    _verify_solution(rows_f, value, p, q, 1e-7)
    return GameValue(value, p, q)


def _verify_solution(rows, value, p, q, tol):
    n_rows, n_cols = len(rows), len(rows[0])
    for i in range(n_rows):
        resp = sum(rows[i][j] * q[j] for j in range(n_cols))
        if resp > value + tol + LP_TOL:
            raise LPError(f"row {i} best response {resp} exceeds value {value}")
    for j in range(n_cols):
        resp = sum(p[i] * rows[i][j] for i in range(n_rows))
        if resp < value - tol - LP_TOL:
            raise LPError(f"column {j} best response {resp} undercuts value {value}")


def dump_game(matrix, row_labels, col_labels) -> str:
    """Audit dump: payoff matrix with row/column descriptors."""
    return json.dumps(
        {
            "rows": [str(r) for r in row_labels],
            "cols": [str(c) for c in col_labels],
            "payoff": [[str(v) for v in row] for row in matrix],
        },
        indent=1,
    )


# ---------------------------------------------------------------------------
# Game constructions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SabotagePair:
    """(x, y) with g(x) = 0 and g(y) = 1 for the ambient function."""

    x: tuple
    y: tuple

    def differing(self) -> frozenset:
        return frozenset(i + 1 for i, (a, b) in enumerate(zip(self.x, self.y)) if a != b)


def all_sabotage_pairs(f: BooleanFunction) -> tuple:
    zeros = [point_from_index(i, f.arity) for i in range(f.size) if not f.value_at(i)]
    ones = [point_from_index(i, f.arity) for i in range(f.size) if f.value_at(i)]
    return tuple(SabotagePair(x, y) for x in zeros for y in ones)


def zero_error_trees(f: BooleanFunction) -> tuple:
    """Unlabelled trees where f is constant on every leaf subcube."""
    catalog = enumerate_trees(f.arity, None, labeled=False)
    out = []
    for tree in catalog.trees:
        if all(restriction_value(f, cube) is not None for _, cube, _, _ in tree_leaves(tree)):
            out.append(tree)
    return tuple(out)


def r_game(f: BooleanFunction, catalog: StrategyCatalog):
    """Rows: inputs; columns: labeled trees; payoff [T(x) != f(x)]."""
    points = [point_from_index(i, f.arity) for i in range(f.size)]
    matrix = []
    for idx, x in enumerate(points):
        fx = f.value_at(idx)
        matrix.append([int(run(t, x).output != fx) for t in catalog.trees])
    return matrix, points


def rs_game(f: BooleanFunction, catalog: StrategyCatalog):
    """Rows: sabotage pairs; payoff 1 when the run on x misses every
    differing index."""
    pairs = all_sabotage_pairs(f)
    matrix = []
    for pair in pairs:
        diff = pair.differing()
        matrix.append([int(not (set(run(t, pair.x).queried) & diff)) for t in catalog.trees])
    return matrix, pairs


def _separation_cost_on_tree(tree: DecisionTree, pair: SabotagePair) -> Optional[int]:
    diff = pair.differing()
    queried = run(tree, pair.x).queried
    for pos, var in enumerate(queried, start=1):
        if var in diff:
            return pos
    return None


def rse_game(f: BooleanFunction, trees: Sequence[DecisionTree]):
    """Rows: pairs; columns: zero-error trees; payoff = queries on x up to
    and including the first differing index."""
    pairs = all_sabotage_pairs(f)
    matrix = []
    for pair in pairs:
        row = []
        for t in trees:
            cost = _separation_cost_on_tree(t, pair)
            if cost is None:
                raise LPError("zero-error tree failed to separate a pair")
            row.append(cost)
        matrix.append(row)
    return matrix, pairs


def r_game_value(f: BooleanFunction, depth: int) -> tuple:
    catalog = enumerate_trees(f.arity, depth, labeled=True)
    matrix, _ = r_game(f, catalog)
    return solve_zero_sum(matrix), catalog


def rs_game_value(f: BooleanFunction, depth: int) -> tuple:
    catalog = enumerate_trees(f.arity, depth, labeled=False)
    matrix, pairs = rs_game(f, catalog)
    if not pairs:
        return GameValue(0, (), tuple()), catalog
    return solve_zero_sum(matrix), catalog


def _within_eps(value, eps) -> bool:
    """value <= eps: exact when both are rational, within LP_TOL otherwise."""
    if isinstance(value, numbers.Rational) and isinstance(eps, numbers.Rational):
        return value <= eps
    return value <= eps + LP_TOL


def exact_R_eps(f: BooleanFunction, eps) -> int:
    """Least k such that the depth-k labeled-tree game has value <= eps."""
    if f.arity > 3:
        raise ValueError("exact_R_eps capped at arity 3")
    for k in range(f.arity + 1):
        gv, _ = r_game_value(f, k)
        if _within_eps(gv.value, eps):
            return k
    raise AssertionError("unreachable: full-depth trees are exact")


def exact_RS_eps(f: BooleanFunction, eps) -> int:
    """Least k such that the depth-k sabotage game has value <= eps."""
    if f.arity > 3:
        raise ValueError("exact_RS_eps capped at arity 3")
    if not all_sabotage_pairs(f):
        return 0
    for k in range(f.arity + 1):
        gv, _ = rs_game_value(f, k)
        if _within_eps(gv.value, eps):
            return k
    raise AssertionError("unreachable: full-depth trees separate everything")


def exact_RSE(f: BooleanFunction):
    """Expected sabotage complexity: LP over zero-error trees vs all pairs."""
    if f.arity > 3:
        raise ValueError("exact_RSE capped at arity 3")
    pairs = all_sabotage_pairs(f)
    if not pairs:
        return 0
    trees = zero_error_trees(f)
    matrix, _ = rse_game(f, trees)
    return solve_zero_sum(matrix).value


def mixture_from_columns(catalog_trees: Sequence[DecisionTree], gv: GameValue,
                         drop_tol: float = 1e-12) -> RandomizedTree:
    """The column player's optimal mixture as a RandomizedTree."""
    entries = [(w, t) for w, t in zip(gv.col_strategy, catalog_trees) if w > drop_tol]
    total = sum(w for w, _ in entries)
    return RandomizedTree(tuple((w / total, t) for w, t in entries))


# ---------------------------------------------------------------------------
# Miss profiles (Lemma on sensitive bits vs pairs)
# ---------------------------------------------------------------------------


def miss_probability(r: RandomizedTree, x: Point, i: int):
    """Pr_{T~R}[T run on x does not query x_i]."""
    total = 0
    for w, t in r.entries:
        if i not in run(t, x).queried:
            total = total + w
    return total


def sens_miss_profile(r: RandomizedTree, f: BooleanFunction):
    """max over (x, i sensitive for x) of the probability that x_i is not
    queried on the run on x."""
    if f.arity > 12:
        raise ValueError("sens_miss_profile capped at arity 12")
    if r.arity != f.arity:
        raise ValueError("arity mismatch")
    worst = 0
    for idx in range(f.size):
        x = point_from_index(idx, f.arity)
        v = f.value_at(idx)
        queried = [set(run(t, x).queried) for _, t in r.entries]
        for i in range(1, f.arity + 1):
            if f.value_at(idx ^ (1 << (i - 1))) == v:
                continue
            miss = 0
            for (w, _), qs in zip(r.entries, queried):
                if i not in qs:
                    miss = miss + w
            if miss > worst:
                worst = miss
    return worst


def pair_miss_profile(r: RandomizedTree, f: BooleanFunction):
    """max over sabotage pairs of the probability that the run on x queries
    no differing index."""
    if f.arity > 10:
        raise ValueError("pair_miss_profile capped at arity 10")
    if r.arity != f.arity:
        raise ValueError("arity mismatch")
    worst = 0
    for pair in all_sabotage_pairs(f):
        diff = pair.differing()
        miss = 0
        for w, t in r.entries:
            if not (set(run(t, pair.x).queried) & diff):
                miss = miss + w
        if miss > worst:
            worst = miss
    return worst


# ---------------------------------------------------------------------------
# Amplification (independent repetitions flattened to single trees)
# ---------------------------------------------------------------------------


def _prune(node, assign: dict):
    """Drop queries to already-assigned variables, following the known bit."""
    if isinstance(node, Leaf):
        return node
    if node.var in assign:
        child = node.child1 if assign[node.var] else node.child0
        return _prune(child, assign)
    return Query(
        node.var,
        _prune(node.child0, {**assign, node.var: 0}),
        _prune(node.child1, {**assign, node.var: 1}),
    )


def _graft(node, assign: dict, follow_root):
    if isinstance(node, Leaf):
        return _prune(follow_root, assign)
    return Query(
        node.var,
        _graft(node.child0, {**assign, node.var: 0}, follow_root),
        _graft(node.child1, {**assign, node.var: 1}, follow_root),
    )


def compose_trees(first: DecisionTree, second: DecisionTree) -> DecisionTree:
    """Run ``first`` then ``second``, skipping re-queries along each path."""
    if first.arity != second.arity:
        raise ValueError("arity mismatch")
    return DecisionTree(first.arity, _graft(first.root, {}, second.root))


def amplify(r: RandomizedTree, reps: int, support_limit: int = 500_000) -> RandomizedTree:
    """Independent repetitions of R, each tuple flattened into one tree that
    queries the union of the tuple's queries along every consistent path.

    Identical flattened trees are merged, so the support stays canonical.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if len(r.entries) ** reps > support_limit:
        raise ValueError(
            f"amplified support {len(r.entries)}^{reps} exceeds limit {support_limit}"
        )
    merged = {}
    for combo in itertools.product(r.entries, repeat=reps):
        weight = 1
        tree = combo[0][1]
        weight = combo[0][0]
        for w, t in combo[1:]:
            weight = weight * w
            tree = compose_trees(tree, t)
        key = (tree.arity, tree.root)
        if key in merged:
            merged[key] = (merged[key][0] + weight, tree)
        else:
            merged[key] = (weight, tree)
    return RandomizedTree(tuple((w, t) for w, t in merged.values()))


# ---------------------------------------------------------------------------
# Executable forms of the two reduction directions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AmplifiedBiasReport:
    reps: int
    miss_before: object
    miss_after: object
    max_bias: object
    threshold: float
    ok: bool


def check_amplified_bias(r: RandomizedTree, f: BooleanFunction,
                        mus: Sequence[ProductDistribution], eps,
                        tol: float = LP_TOL) -> AmplifiedBiasReport:
    """Amplify an R with miss <= 1-eps and check the average leaf bias stays
    below 1/8 on every supplied product distribution."""
    miss = sens_miss_profile(r, f)
    if miss > 1 - eps + tol:
        raise ValueError(f"precondition failed: miss {miss} > 1 - eps = {1 - eps}")
    s = sensitivity(f)
    reps = max(1, math.ceil((2 / eps) * math.log(s))) if s >= 2 else 1
    amplified = amplify(r, reps)
    miss_after = sens_miss_profile(amplified, f)
    max_bias = 0
    for mu in mus:
        bias = avg_leaf_bias(amplified, f, mu)
        if bias > max_bias:
            max_bias = bias
    return AmplifiedBiasReport(
        reps=reps,
        miss_before=miss,
        miss_after=miss_after,
        max_bias=max_bias,
        threshold=0.125,
        ok=bool(max_bias <= 0.125 + tol),
    )


@dataclass(frozen=True)
class TwoPointBoundReport:
    pairs_checked: int
    max_violation: object
    ok: bool


def check_two_point_bound(r: RandomizedTree, f: BooleanFunction, tol=0) -> TwoPointBoundReport:
    """For every (x, sensitive i): on the two-point product distribution
    mu(x) = mu(x^{+i}) = 1/2, the miss probability satisfies
    miss(x, i) * 1/2 <= avg leaf bias of R under mu."""
    exact = all(isinstance(w, (int, Fraction)) for w, _ in r.entries)
    half = Fraction(1, 2) if exact else 0.5
    checked = 0
    worst = None
    for idx in range(f.size):
        x = point_from_index(idx, f.arity)
        v = f.value_at(idx)
        for i in range(1, f.arity + 1):
            if f.value_at(idx ^ (1 << (i - 1))) == v:
                continue
            marg = [half if j == i else (x[j - 1] + 0 if not exact else Fraction(x[j - 1]))
                    for j in range(1, f.arity + 1)]
            mu = ProductDistribution(tuple(marg))
            bias = avg_leaf_bias(r, f, mu)
            miss = miss_probability(r, x, i)
            violation = miss * half - bias
            checked += 1
            if worst is None or violation > worst:
                worst = violation
    if worst is None:
        worst = 0
    return TwoPointBoundReport(checked, worst, bool(worst <= tol))


# ---------------------------------------------------------------------------
# Adversarial product-distribution search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DprodSearchResult:
    mu: ProductDistribution
    depth: int
    evaluations: int


def dprod_search(f: BooleanFunction, eps: float, restarts: int = 6,
                 sweeps: int = 40, seed: int = 0) -> DprodSearchResult:
    """Multi-start coordinate ascent maximizing the distributional depth over
    product distributions. Heuristic: the returned depth is a certified lower
    bound on the product-distribution complexity, not a certified maximum.

    Ascent is lexicographic on (depth, residual error at that depth) so the
    walk can creep along constant-depth plateaus; ``sweeps`` caps the number
    of passes per step size.
    """
    m = f.arity
    if m > DP_MAX_ARITY:
        raise ValueError(f"dprod_search capped at arity {DP_MAX_ARITY}")
    rng = np.random.default_rng(seed)
    evals = 0

    def score(p):
        nonlocal evals
        evals += 1
        curve = dist_error_curve_fast(f, p)
        k = next(k for k in range(m + 1) if curve[k] <= eps + 1e-12)
        return (k, float(curve[k]))

    # Latin-hypercube start points on the coarse grid 0.1 .. 0.9
    grid = np.linspace(0.1, 0.9, restarts)
    starts = np.stack([rng.permutation(grid) for _ in range(m)], axis=1)

    best_p, best_score = None, None
    steps = [0.1, 0.01, 0.001]
    for r in range(restarts):
        p = [float(v) for v in starts[r]]
        cur = score(p)
        for step in steps:
            for _ in range(sweeps):
                improved = False
                for j in range(m):
                    for cand in (p[j] + step, p[j] - step):
                        cand = min(0.999, max(0.001, cand))
                        if cand == p[j]:
                            continue
                        trial = list(p)
                        trial[j] = cand
                        sc = score(trial)
                        if sc > cur:
                            p, cur = trial, sc
                            improved = True
                if not improved:
                    break
        if best_score is None or cur > best_score:
            best_p, best_score = p, cur
    return DprodSearchResult(
        ProductDistribution(tuple(best_p)), best_score[0], evals
    )
