"""Finite zero-sum games over decision-tree strategy catalogs.

The randomized and sabotage complexities at tiny arity are exact LP values:
rows are adversary choices (inputs, or 0/1-input pairs), columns are
deterministic trees, and the solver is one dense simplex with Bland's rule in
two arithmetic modes: matrices with at most 10^4 rational entries are solved
on a fraction-free tableau over one common denominator, in int64 while every
entry is at most 2^30 and in Python ints after, with zero tolerance and a
best-response check in Python ints, larger ones on a float64 tableau with a
1e-9 tolerance. Every payoff matrix, miss profile and the zero-error filter
is read off ``run_arrays``: each tree's output and query steps on every
input, filled bottom-up as two int8 arrays;
``dtree.run`` stays the per-point primitive and the tests' oracle. Payoffs
stay int64 arrays; only ``solve_zero_sum`` makes Python ints of them.

A strategy catalog depends on no function, only on (arity, depth cap,
labeled), so ``enumerate_trees`` builds each of the at most 26 catalogs once
per process, on its first request, and every game (RS_E and the exact Q
base cases too) reads the catalog's run table, filled on its first read,
instead of running the trees again. Only trees and their runs are shared:
no game matrix or value is cached.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .boolfunc import (
    BooleanFunction,
    ProductDistribution,
    _at_most,
    _exact,
    _is_int,
    point_from_index,
    sensitivity,
)
from .dtree import (
    DP_MAX_ARITY,
    DecisionTree,
    Leaf,
    Query,
    RandomizedTree,
    _check_eps,
    avg_leaf_bias,
    dist_error_curve_fast,
)

RATIONAL_ENTRY_LIMIT = 10_000
LP_TOL = 1e-9
SIMPLEX_MAX_PIVOTS = 200_000  # a simplex run that needs more stops as cycling
# the exact tableau runs in int64 while no entry's magnitude passes this
# (docs/decisions.md, entry 23): products stay <= 2^60, update numerators <= 2^61
_INT64_ENTRY_BOUND = 1 << 30
RUN_TABLE_ELEMENTS = 1 << 26  # int8 entries per run-table array, as nandtree._BATCH_ELEMENTS
MIXTURE_DROP_TOL = 1e-12  # float column weights at or below it leave an LP mixture (exact: 0)
AMPLIFY_SUPPORT_LIMIT = 500_000  # tuples that amplify may enumerate
DPROD_SWEEPS = 40  # coordinate-ascent passes per step size in dprod_search

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
    "run_arrays",
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
    """Every duplicate-free decision tree on ``arity`` variables of depth at
    most ``depth_cap``, with leaves labelled 0/1 or all unlabelled.

    ``runs`` is the catalog's run table, ``run_arrays(trees, arity)``,
    computed on its first read and then kept read-only with the catalog.
    """

    arity: int
    depth_cap: int
    labeled: bool
    trees: tuple  # of DecisionTree

    @functools.cached_property
    def runs(self) -> tuple:
        outputs, positions = run_arrays(self.trees, self.arity)
        outputs.flags.writeable = False
        positions.flags.writeable = False
        return outputs, positions


def enumerate_trees(m: int, depth_cap: Optional[int] = None, labeled: bool = True) -> StrategyCatalog:
    """Exhaustive duplicate-free catalog of decision trees on m variables.

    Full depth needs m <= 3; depth_cap <= 2 allows m = 4, and a cap above m
    is m. A catalog depends only on (m, cap, labeled), so each is built on
    its first request and the same object is returned for the rest of the
    process (docs/decisions.md, entry 18).
    """
    for name, v in (("arity", m), ("depth cap", m if depth_cap is None else depth_cap)):
        if not _is_int(v) or v < 0:
            raise ValueError(f"catalog {name} must be a non-negative int, got {v!r}")
    m = int(m)
    cap = m if depth_cap is None else min(int(depth_cap), m)
    if m > 4:
        raise ValueError(f"catalog arity {m} above cap 4")
    if m == 4 and cap > 2:
        raise ValueError("arity-4 catalogs are capped at depth 2")
    return _catalog(m, cap, bool(labeled))


@functools.cache
def _catalog(m: int, cap: int, labeled: bool) -> StrategyCatalog:
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
    # build refers to itself through its closure: unbind it, or the memo, and
    # so every node, outlives the catalog until a cycle collection
    del build
    return StrategyCatalog(m, cap, labeled, tuple(DecisionTree(m, r) for r in roots))


def catalog_size_formula(m: int, depth: int, labeled: bool) -> int:
    """Tree count by the recursion t(S,k) = base + sum_i t(S-i, k-1)^2."""
    base = 2 if labeled else 1
    if depth == 0 or m == 0:
        return base
    return base + m * catalog_size_formula(m - 1, depth - 1, labeled) ** 2


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


def _simplex(a: np.ndarray, tol) -> tuple:
    """max sum(w) s.t. a w <= 1, w >= 0 by a dense tableau with Bland's rule.

    ``a`` is an object array of Python ints with ``tol = 0`` (exact) or a
    float64 array with ``tol = LP_TOL``. The exact tableau is fraction-free
    (Edmonds, Bareiss): ints ``T`` over one positive common denominator ``d``,
    the last pivot, so that the true tableau is ``T / d``. A pivot on (r, e)
    maps every other row i to ``(T[i] T[r, e] - T[i, e] T[r]) // d`` and then
    sets ``d = T[r, e]``; the division is exact, as every entry of ``T`` is a
    minor of the initial tableau. ``T`` is int64 while every entry's magnitude
    is at most ``_INT64_ENTRY_BOUND`` = 2^30, checked at the top of each pass,
    so no product or update numerator can wrap; past it, ``T`` turns into
    Python ints for the rest of the run (docs/decisions.md, entry 23). The
    float tableau divides the pivot row instead, and its ``d`` stays 1.
    Bland's rules read only signs and ratio orders, which a positive ``d``
    leaves unchanged, so the exact mode pivots as a Fraction tableau would.
    The last tableau row holds the reduced costs. Returns (w, duals, d), in
    ``a``'s arithmetic: the optimum is ``w / d`` and its duals ``duals / d``.
    """
    n_rows, n_cols = a.shape
    zero = 0 * a[0, 0]  # 0 or 0.0: the tableau's arithmetic
    one = zero + 1
    fits = not tol and max(a.max(), -a.min()) <= _INT64_ENTRY_BOUND
    tab = np.full((n_rows + 1, n_cols + n_rows + 1), zero, dtype=np.int64 if fits else a.dtype)
    tab[:n_rows, :n_cols] = a
    tab[np.arange(n_rows), n_cols + np.arange(n_rows)] = one  # slacks
    tab[:n_rows, -1] = one
    tab[-1, :n_cols] = one
    basis = np.arange(n_cols, n_cols + n_rows)
    d = one

    for _ in range(SIMPLEX_MAX_PIVOTS + 1):  # a pass tests for the optimum, then pivots
        # an int64 entry past the bound could wrap a product below: Python
        # ints from here on
        if tab.dtype == np.int64 and max(tab.max(), -tab.min()) > _INT64_ENTRY_BOUND:
            tab = tab.astype(object)
        pos = np.flatnonzero(tab[-1, :-1] > tol)
        if not len(pos):
            break
        enter = pos[0]  # Bland: lowest improving column
        col = tab[:-1, enter]
        rows = np.flatnonzero(col > tol)
        if not len(rows):
            raise LPError("LP unbounded; payoff shift failed")
        ties = rows[_min_ratio(tab[rows, -1], col[rows], tol)]
        leave = ties[np.argmin(basis[ties])]  # Bland: lowest basis index
        if tol:
            tab[leave] /= tab[leave, enter]
            hit = np.flatnonzero(tab[:, enter])
            hit = hit[hit != leave]
            # x - c * 0 is x, up to the sign of a float zero, which no pivot
            # rule and no clamped output can see: skip the pivot row's zero
            # columns
            nz = np.flatnonzero(tab[leave])
            tab[np.ix_(hit, nz)] -= np.outer(tab[hit, enter], tab[leave, nz])
        else:
            # every other row, those with a zero in the pivot column too, moves
            # to the new common denominator
            p = tab[leave, enter]
            rest = np.arange(n_rows + 1) != leave
            tab[rest] = (tab[rest] * p - np.outer(tab[rest, enter], tab[leave])) // d
            d = int(p)
        basis[leave] = enter
    else:
        raise LPError("simplex failed to terminate (cycling guard hit)")

    tab = tab.astype(a.dtype, copy=False)  # an int64 tableau returns Python ints
    w = np.full(n_cols, zero, dtype=a.dtype)
    structural = basis < n_cols
    w[basis[structural]] = tab[:-1, -1][structural]
    return w, -tab[-1, n_cols:-1], d


def _min_ratio(rhs: np.ndarray, col: np.ndarray, tol) -> np.ndarray:
    """Mask of the entries of ``rhs / col`` (col > 0) within tol of the least;
    with tol 0 the ratios are compared exactly, by cross-multiplication."""
    if tol:
        ratios = rhs / col
        return ratios <= ratios.min() + tol
    best = 0
    r, c = rhs.tolist(), col.tolist()  # Python ints, from int64 or object entries
    for i in range(1, len(r)):
        if r[i] * c[best] < r[best] * c[i]:
            best = i
    return rhs * col[best] == rhs[best] * col


def solve_zero_sum(matrix: np.ndarray | Sequence[Sequence]) -> GameValue:
    """Value and optimal mixed strategies of a finite zero-sum game.

    ``matrix`` is a non-empty 2-D payoff of finite entries, as nested
    sequences or an ndarray. The row player maximizes the payoff, the column
    player minimizes. At most ``RATIONAL_ENTRY_LIMIT`` rational entries are
    solved exactly, any other matrix in floats. Solutions are verified
    against both best-response conditions; failures raise LPError.
    """
    # a list goes in as objects: np.asarray would make [[2**63, 1]] float64
    a = matrix if isinstance(matrix, np.ndarray) else np.array(matrix, dtype=object)
    if a.ndim != 2 or not a.size:
        raise ValueError(f"payoff matrix must be a non-empty 2-D array, got shape {a.shape}")
    # np.bool_ is no numbers.Rational: numpy bools play as the ints 0 and 1,
    # as Python bools do
    if a.dtype == bool:
        a = a.astype(np.int64)
    elif a.dtype == object and np.bool_ in set(map(type, a.flat)):
        a = np.frompyfunc(lambda v: int(v) if type(v) is np.bool_ else v, 1, 1)(a)
    # the entries of a numeric array share one type, which its first one shows
    if a.size <= RATIONAL_ENTRY_LIMIT and _exact(a.flat if a.dtype == object else a.flat[:1]):
        return _solve_exact(a)

    a = a.astype(float)
    if not np.isfinite(a).all():
        raise ValueError("payoff matrix has a non-finite entry")
    shift = max(0, 1 - a.min())  # payoffs >= 1 keep the LP bounded
    w, duals, _ = _simplex(a + shift, LP_TOL)
    total = sum(w)
    if total <= 0:
        raise LPError("degenerate LP: zero strategy mass")
    vs = 1 / total
    # float round-off only: exact solutions are nonnegative and sum to one
    q = [max(0, wi) * vs for wi in w]
    p = [max(0, di) * vs for di in duals]
    q_total, p_total = sum(q), sum(p)
    if q_total <= 0 or p_total <= 0:
        raise LPError("degenerate LP: empty optimal strategy")
    q = tuple(v / q_total for v in q)
    p = tuple(v / p_total for v in p)
    value = vs - shift
    _verify_solution(a, value, p, q)
    return GameValue(value, p, q)


def _solve_exact(a: np.ndarray) -> GameValue:
    """The rational game ``a`` solved and verified in Python ints.

    The payoffs are scaled by their least common denominator s to an int
    matrix ``a`` and shifted to ``a + shift >= s``; the LP optimum is then
    ``t / d`` with duals ``u / d``, so the strategies are ``q = t / sum(t)``
    and ``p = u / sum(u)``, and ``a``'s value is ``(d - shift sum(t)) /
    sum(t)``. Both best responses are checked with zero slack before any
    Fraction is built.
    """
    if a.dtype == object:
        s = math.lcm(*[v.denominator for v in a.flat])
        a = np.frompyfunc(lambda v: int(v.numerator) * (s // v.denominator), 1, 1)(a)
    else:
        a, s = a.astype(object), 1  # Python ints by one cast, with no per-entry loop
    shift = max(0, s - a.min())
    t, u, d = _simplex(a + shift, 0)
    t_sum, u_sum = sum(t), sum(u)
    if t_sum <= 0 or u_sum <= 0 or min(t) < 0 or min(u) < 0:
        raise LPError("degenerate LP: optimal strategy not a distribution")
    top = d - shift * t_sum  # the value of a is top / t_sum
    value = Fraction(top, t_sum * s)
    bad = np.flatnonzero(a @ t > top)
    if len(bad):
        raise LPError(f"row {bad[0]} best response exceeds value {value}")
    bad = np.flatnonzero((u @ a) * t_sum < top * u_sum)
    if len(bad):
        raise LPError(f"column {bad[0]} best response undercuts value {value}")
    return GameValue(value, tuple(Fraction(v, u_sum) for v in u),
                     tuple(Fraction(v, t_sum) for v in t))


def _verify_solution(a: np.ndarray, value, p, q):
    """Both best responses of a float solution, within 1e-7 + LP_TOL."""
    resp = a @ np.array(q, dtype=a.dtype)
    bad = np.flatnonzero(resp > value + 1e-7 + LP_TOL)
    if len(bad):
        raise LPError(f"row {bad[0]} best response {resp[bad[0]]} exceeds value {value}")
    resp = np.array(p, dtype=a.dtype) @ a
    bad = np.flatnonzero(resp < value - 1e-7 - LP_TOL)
    if len(bad):
        raise LPError(f"column {bad[0]} best response {resp[bad[0]]} undercuts value {value}")


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
    """Every (x, y) with f(x) = 0 and f(y) = 1, in ``_pair_arrays`` order."""
    xs, diff = _pair_arrays(f)
    points = [point_from_index(i, f.arity) for i in range(f.size)]
    return tuple(SabotagePair(points[x], points[x ^ d]) for x, d in zip(xs.tolist(), diff.tolist()))


def zero_error_trees(f: BooleanFunction) -> tuple:
    """Unlabelled trees where f is constant on every leaf subcube.

    That holds iff every run on every point y queries each variable at which
    f is sensitive at y: a leaf subcube is connected by flips of its free
    variables, and all its points share one run.
    """
    trees = enumerate_trees(f.arity, None, labeled=False).trees
    return tuple(itertools.compress(trees, _zero_error_mask(f).tolist()))


def _zero_error_mask(f: BooleanFunction) -> np.ndarray:
    """The zero-error rule as bools over the unlabelled full-depth catalog."""
    queried = _queried_masks(enumerate_trees(f.arity, None, labeled=False).runs[1])
    sens = _sensitive(f) @ _var_bits(f.arity)
    return ((queried & sens) == sens).all(axis=1)


def _separations(f: BooleanFunction, xs: np.ndarray, diff: np.ndarray) -> tuple:
    """``(at_x, steps)`` of the runs of ``zero_error_trees(f)`` on point
    indices xs: ``at_x[t, c]`` are the query positions of tree t on xs[c], and
    ``steps[t, c]`` the step at which it first queries a variable in diff[c]."""
    positions = enumerate_trees(f.arity, None, labeled=False).runs[1][_zero_error_mask(f)]
    m = f.arity
    differs = ((diff[:, None] >> np.arange(m)) & 1).astype(bool)  # (cases, m)
    at_x = positions[:, xs, :]  # (trees, cases, m)
    steps = np.where(differs & (at_x > 0), at_x, m + 1).min(axis=2)
    if (steps > m).any():
        raise LPError("zero-error tree failed to separate a pair")
    return at_x, steps


def run_arrays(trees: Sequence[DecisionTree], m: int) -> tuple:
    """Every tree run on every point of {0,1}^m, as two int8 arrays.

    ``outputs[t, x]`` is tree t's output on the point with index x (indexed
    like ``point_from_index``), -1 at an unlabelled leaf, and
    ``positions[t, x, j]`` the 1-based step at which the run queries
    variable j + 1, or 0 if it never does. Distinct nodes are numbered by
    ``id`` (catalogs share subtrees) and leaves by label; a node's run on
    every point is filled from its children's, one height at a time, by one
    gather: follow x's bit of the node's variable, shift the child's nonzero
    positions by one and put the node's variable at step 1. A request whose
    arrays (one row per tree, and one per distinct node while filling) would
    hold more than ``RUN_TABLE_ELEMENTS`` int8 entries each is refused before
    they are allocated.
    """
    n = 1 << m
    row_of = {}
    var, child0, child1, height = [0, 0, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0]
    leaf_row = {None: 0, 0: 1, 1: 2}

    def number(node) -> int:
        if isinstance(node, Leaf):
            return leaf_row[node.label]
        row = row_of.get(id(node))
        if row is None:
            r0, r1 = number(node.child0), number(node.child1)
            row = row_of[id(node)] = len(var)
            var.append(node.var)
            child0.append(r0)
            child1.append(r1)
            height.append(1 + max(height[r0], height[r1]))
        return row

    if any(t.arity != m for t in trees):
        raise ValueError(f"run table of arity {m} given a tree of another arity")
    roots = [number(t.root) for t in trees]
    del number  # a self-referring closure: unbound, refcounting frees row_of
    if max(len(roots), len(var)) * n * m > RUN_TABLE_ELEMENTS:
        raise ValueError(
            f"run table of {max(len(roots), len(var))} trees or nodes on 2^{m} points exceeds "
            f"{RUN_TABLE_ELEMENTS} entries per array"
        )
    out = np.empty((len(var), n), dtype=np.int8)
    out[:3] = np.array([-1, 0, 1], dtype=np.int8)[:, None]
    pos = np.zeros((len(var), n, m), dtype=np.int8)
    var, child0, child1, height = map(np.array, (var, child0, child1, height))
    point_bits = (np.arange(n) >> np.arange(m)[:, None]) & 1  # (m, n)
    cols = np.arange(n)
    for h in range(1, int(height.max()) + 1):
        rows = np.flatnonzero(height == h)
        child = np.where(point_bits[var[rows] - 1], child1[rows, None], child0[rows, None])
        out[rows] = out[child, cols]
        p = pos[child, cols]
        p += p > 0
        p[np.arange(len(rows)), :, var[rows] - 1] = 1
        pos[rows] = p
    return out[roots], pos[roots]


def _var_bits(m: int) -> np.ndarray:
    """Bit j - 1 for variable j, as int64."""
    return np.int64(1) << np.arange(m, dtype=np.int64)


def _queried_masks(positions: np.ndarray) -> np.ndarray:
    """(trees, points) bit masks of the variables each run of a run table's
    ``positions`` queries."""
    return (positions > 0).astype(np.int64) @ _var_bits(positions.shape[2])


def _sensitive(f: BooleanFunction) -> np.ndarray:
    """(points, variables) bools: does flipping variable j + 1 at point
    index x change f?"""
    tbl = f.table_array()
    return tbl[:, None] != tbl[np.arange(f.size)[:, None] ^ _var_bits(f.arity)]


def _hit_mask(positions: np.ndarray, xs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """(trees, cases) bools: does the tree's run on point index xs[c] query a
    variable in the bit mask targets[c] (bit j - 1 for variable j)?"""
    return (_queried_masks(positions)[:, xs] & targets) != 0


def _catalog_runs(f: BooleanFunction, catalog: StrategyCatalog) -> tuple:
    """The catalog's run table, for a game on f."""
    if catalog.arity != f.arity:
        raise ValueError(f"catalog of arity {catalog.arity} given a function of arity {f.arity}")
    return catalog.runs


def _pair_arrays(f: BooleanFunction) -> tuple:
    """Point index of x and the bit mask of the differing variables for every
    sabotage pair (x, y), x-major and each by ascending point index."""
    tbl = f.table_array()
    zeros, ones = np.flatnonzero(tbl == 0), np.flatnonzero(tbl == 1)
    return np.repeat(zeros, len(ones)), (zeros[:, None] ^ ones).ravel()


def r_game(f: BooleanFunction, catalog: StrategyCatalog):
    """Rows: inputs; columns: labeled trees; payoff [T(x) != f(x)]."""
    points = [point_from_index(i, f.arity) for i in range(f.size)]
    return (_catalog_runs(f, catalog)[0] != f.table_array()).T.astype(np.int64), points


def rs_game(f: BooleanFunction, catalog: StrategyCatalog):
    """Rows: sabotage pairs; payoff 1 when the run on x misses every
    differing index."""
    pairs = all_sabotage_pairs(f)
    missed = ~_hit_mask(_catalog_runs(f, catalog)[1], *_pair_arrays(f))
    return missed.T.astype(np.int64), pairs


def rse_game(f: BooleanFunction):
    """Rows: pairs; columns: ``zero_error_trees(f)``; payoff = queries on x
    up to and including the first differing index."""
    return _separations(f, *_pair_arrays(f))[1].T.astype(np.int64), all_sabotage_pairs(f)


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


def _least_depth(f: BooleanFunction, eps, game_value, name: str) -> tuple:
    """``(k, GameValue)`` of the least k such that the depth-k game
    ``game_value(f, k)`` has value <= eps; full-depth trees are exact, so the
    search ends by k = m."""
    if f.arity > 3:
        raise ValueError(f"{name} capped at arity 3")
    _check_eps(eps)
    for k in range(f.arity + 1):
        gv, _ = game_value(f, k)
        if _at_most(gv.value, eps, LP_TOL):
            return k, gv
    raise AssertionError("unreachable: full-depth trees are exact")


def exact_R_eps(f: BooleanFunction, eps) -> int:
    """Least k such that the depth-k labeled-tree game has value <= eps."""
    return _least_depth(f, eps, r_game_value, "exact_R_eps")[0]


def exact_RS_eps(f: BooleanFunction, eps) -> int:
    """Least k such that the depth-k sabotage game has value <= eps (0 for a
    function with no pairs, whose game has value 0)."""
    return _least_depth(f, eps, rs_game_value, "exact_RS_eps")[0]


def _rse_solution(f: BooleanFunction) -> tuple:
    """The RS_E game solved once: ``(GameValue, zero-error trees, matrix,
    pairs)``, with value 0 and empty strategies when f has no pairs."""
    if f.arity > 3:
        raise ValueError("exact_RSE capped at arity 3")
    matrix, pairs = rse_game(f)
    gv = solve_zero_sum(matrix) if pairs else GameValue(0, (), ())
    return gv, zero_error_trees(f), matrix, pairs


def exact_RSE(f: BooleanFunction):
    """Expected sabotage complexity: LP over zero-error trees vs all pairs."""
    return _rse_solution(f)[0].value


def mixture_from_columns(catalog_trees: Sequence[DecisionTree], gv: GameValue) -> RandomizedTree:
    """The column player's optimal mixture as a RandomizedTree."""
    entries = [(w, t) for w, t in zip(gv.col_strategy, catalog_trees)
               if not _at_most(w, 0, MIXTURE_DROP_TOL)]
    total = sum(w for w, _ in entries)
    return RandomizedTree(tuple((w / total, t) for w, t in entries))


# ---------------------------------------------------------------------------
# Miss profiles (Lemma on sensitive bits vs pairs)
# ---------------------------------------------------------------------------


def _entry_hits(r: RandomizedTree, xs: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """``_hit_mask`` of one run table of all of r's entries: (entries, cases)."""
    return _hit_mask(run_arrays([t for _, t in r.entries], r.arity)[1], xs, targets)


def _miss(r: RandomizedTree, hits) -> object:
    """The weight of the entries e with ``hits[e]`` false, in entry order from 0."""
    miss = 0
    for (w, _), h in zip(r.entries, hits):
        if not h:
            miss = miss + w
    return miss


def _worst_miss(r: RandomizedTree, xs: np.ndarray, targets: np.ndarray):
    """max over cases c of the ``_miss`` of ``_entry_hits`` column c: each
    distinct miss pattern is summed once, scanned in the order of the case
    that first shows it, so the result is a case-by-case loop's
    ``if miss > worst``, bit for bit (the int 0 when no case misses)."""
    if not len(xs):
        return 0
    patterns, first = np.unique(_entry_hits(r, xs, targets).T, axis=0, return_index=True)
    return max([0, *(_miss(r, p) for p in patterns[np.argsort(first)].tolist())])


def sens_miss_profile(r: RandomizedTree, f: BooleanFunction):
    """max over (x, i sensitive for x) of the probability that x_i is not
    queried on the run on x."""
    if f.arity > 12:
        raise ValueError("sens_miss_profile capped at arity 12")
    if r.arity != f.arity:
        raise ValueError("arity mismatch")
    xs, var = np.nonzero(_sensitive(f))  # x-major
    return _worst_miss(r, xs, _var_bits(f.arity)[var])


def pair_miss_profile(r: RandomizedTree, f: BooleanFunction):
    """max over sabotage pairs of the probability that the run on x queries
    no differing index."""
    if f.arity > 10:
        raise ValueError("pair_miss_profile capped at arity 10")
    if r.arity != f.arity:
        raise ValueError("arity mismatch")
    return _worst_miss(r, *_pair_arrays(f))


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


def amplify(r: RandomizedTree, reps: int) -> RandomizedTree:
    """Independent repetitions of R, each tuple flattened into one tree that
    queries the union of the tuple's queries along every consistent path.

    Identical flattened trees are merged, so the support stays canonical.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if len(r.entries) ** reps > AMPLIFY_SUPPORT_LIMIT:
        raise ValueError(
            f"amplified support {len(r.entries)}^{reps} exceeds limit {AMPLIFY_SUPPORT_LIMIT}"
        )
    merged = {}
    for combo in itertools.product(r.entries, repeat=reps):
        weight, tree = combo[0]
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
                         mus: Sequence[ProductDistribution], eps) -> AmplifiedBiasReport:
    """Amplify an R with miss <= 1-eps and check the average leaf bias stays
    below 1/8 on every supplied product distribution, both by ``_at_most``."""
    miss = sens_miss_profile(r, f)
    if not _at_most(miss, 1 - eps):
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
        ok=_at_most(max_bias, Fraction(1, 8)),
    )


@dataclass(frozen=True)
class TwoPointBoundReport:
    pairs_checked: int
    max_violation: object
    tight: int  # cases with miss/2 == bias
    ok: bool


def check_two_point_bound(r: RandomizedTree, f: BooleanFunction) -> TwoPointBoundReport:
    """For every (x, sensitive i): on the two-point product distribution
    mu(x) = mu(x^{+i}) = 1/2, the miss probability satisfies
    miss(x, i) * 1/2 <= avg leaf bias of R under mu, with zero slack. It is
    an equality (docs/decisions.md, entry 17); ``tight`` counts those cases."""
    if r.arity != f.arity:
        raise ValueError("arity mismatch")
    half = Fraction(1, 2) if _exact(w for w, _ in r.entries) else 0.5
    violations = []
    xs, var = np.nonzero(_sensitive(f))  # x-major
    hits = _entry_hits(r, xs, _var_bits(f.arity)[var]).T.tolist()
    for idx, i, case_hits in zip(xs.tolist(), (var + 1).tolist(), hits):
        x = point_from_index(idx, f.arity)
        mu = ProductDistribution(x[:i - 1] + (half,) + x[i:])
        violations.append(_miss(r, case_hits) * half - avg_leaf_bias(r, f, mu))
    worst = max(violations, default=0)
    return TwoPointBoundReport(len(violations), worst, violations.count(0), bool(worst <= 0))


# ---------------------------------------------------------------------------
# Adversarial product-distribution search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DprodSearchResult:
    mu: ProductDistribution
    depth: int
    evaluations: int


def dprod_search(f: BooleanFunction, eps: float, restarts: int = 6,
                 seed: int = 0) -> DprodSearchResult:
    """Multi-start coordinate ascent maximizing the distributional depth over
    product distributions. Heuristic: the returned depth is a certified lower
    bound on the product-distribution complexity, not a certified maximum.

    Ascent is lexicographic on (depth, residual error at that depth) so the
    walk can creep along constant-depth plateaus; ``DPROD_SWEEPS`` caps the
    number of passes per step size.
    """
    m = f.arity
    if m > DP_MAX_ARITY:
        raise ValueError(f"dprod_search capped at arity {DP_MAX_ARITY}")
    _check_eps(eps)
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    rng = np.random.default_rng(seed)
    evals = 0

    def score(p):
        nonlocal evals
        evals += 1
        curve = dist_error_curve_fast(f, p, eps)  # err(0..D_mu,eps)
        return (len(curve) - 1, float(curve[-1]))

    # Latin-hypercube start points on the coarse grid 0.1 .. 0.9
    grid = np.linspace(0.1, 0.9, restarts)
    starts = np.stack([rng.permutation(grid) for _ in range(m)], axis=1)

    best_p, best_score = None, None
    steps = [0.1, 0.01, 0.001]
    for r in range(restarts):
        p = [float(v) for v in starts[r]]
        cur = score(p)
        for step in steps:
            for _ in range(DPROD_SWEEPS):
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
