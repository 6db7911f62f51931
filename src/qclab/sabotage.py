"""The hard pair distribution for NAND trees and the separation-cost
recursion that yields the exponential lower bound.

A level-d pair (x, y) has g_d(x) = 0 and g_d(y) = 1 and is built by lifting
the point pair (0, 1) d times: each level-t coordinate i becomes a fresh
two-bit block via a uniform bit b_i, with the old value embedded (as its
complement) in slot b_i and slot 1-b_i padded with 1. Pairs always differ at
exactly one index. Leaf positions are 0-indexed, as in ``nandtree``. The
pairs behind the folds are drawn in the fold layout (``nandtree._bitrev``);
``sample_hard_pair`` and ``enumerate_hard_pairs`` give natural order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .boolfunc import BooleanFunction, _at_most, _check_int, _is_int, _point_index, nand2
from .games import _separations, _zero_error_mask
from .nandtree import (
    SeparationError,
    Transcript,
    _bitrev,
    _check_mc_depth,
    _check_samples,
    _coins,
    _fold,
    _summary,
)

__all__ = [
    "HardPair",
    "SeparationError",
    "sample_hard_pair",
    "enumerate_hard_pairs",
    "check_embedding",
    "sep_value_counts",
    "estimate_sep_counts",
    "mc_sep_cost",
    "q_counts_sw",
    "expected_sep_cost_sw",
    "block_case_bounds",
    "BlockCaseBounds",
    "exact_base_cases",
    "RecursionReport",
    "check_recursions",
    "BOUND_MATRIX",
    "spectral_alpha",
]


# ---------------------------------------------------------------------------
# The hard distribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class HardPair:
    depth: int
    x: tuple
    y: tuple

    def differing_index(self) -> int:
        for i, (a, b) in enumerate(zip(self.x, self.y)):
            if a != b:
                return i
        raise AssertionError("hard pair without a differing index")


def _lift_step(x: np.ndarray, at: np.ndarray, b: np.ndarray) -> tuple:
    """Lift (n, w) bool x arrays in the fold layout one level with uniform
    bool bits b: coordinate c becomes the block with slot 0 at position c
    and slot 1 at w + c (the left and right children of c), holding
    (b_c, 1 - b_c) where its bit is 1 and (1, 1) where it is 0, so slot b_c
    holds the complement and slot 1 - b_c the padding. The pair's y differs
    from x only at position ``at``, where the blocks differ only in slot
    b_at, so the lifted pair differs at at + w b_at."""
    n, w = x.shape
    free = ~x
    out = np.empty((n, 2 * w), dtype=np.bool_)
    np.bitwise_or(free, b, out=out[:, :w])
    np.bitwise_or(free, ~b, out=out[:, w:])
    return out, at + w * b[np.arange(n), at]


def _lift_one(x: tuple, at: int, b: Sequence[int]) -> tuple:
    """One lift of a single pair in natural order, given by x, its differing
    index and the bits b: the lifted x and differing index, by ``_lift_step``
    in the fold layout."""
    rev, rev2 = _bitrev(len(x)), _bitrev(2 * len(x))
    x2, at2 = _lift_step(np.array([x], dtype=np.bool_)[:, rev], rev[[at]],
                         np.array([b], dtype=np.bool_)[:, rev])
    return tuple(x2[0, rev2].view(np.uint8).tolist()), int(rev2[at2[0]])


def _y_of(x: tuple, at: int) -> tuple:
    return x[:at] + (1 - x[at],) + x[at + 1:]


def sample_hard_pair(d: int, rng) -> HardPair:
    """Sample a pair from the level-d hard distribution. Depths outside
    [0, ``nandtree.MC_MAX_DEPTH``] are refused before any draw."""
    _check_mc_depth(d)
    x, at = (0,), 0
    for _ in range(d):
        x, at = _lift_one(x, at, rng.integers(0, 2, size=len(x)))
    return HardPair(d, x, _y_of(x, at))


def _sample_pairs(d: int, n: int, rng) -> tuple:
    """(x, at): the (n, 2^d) bool x of n level-d hard pairs in the fold
    layout and the (n,) position where each y differs from it. Each lift
    draws its bits with ``nandtree._coins``."""
    x = np.zeros((n, 1), dtype=np.bool_)
    at = np.zeros(n, dtype=np.intp)
    for _ in range(d):
        x, at = _lift_step(x, at, _coins(rng, *x.shape))
    return x, at


def enumerate_hard_pairs(d: int):
    """Exhaustive support of the level-d distribution with probabilities.

    Returns a list of (prob, x, y); depths outside [0, 4] are refused: level
    4 takes 16 384 single-pair lifts, and level 5 about 2.7e8.
    """
    _check_int("depth", d)
    if not 0 <= d <= 4:
        raise ValueError(f"enumeration depth must be in [0, 4], got {d}")
    out = {((0,), 0): Fraction(1)}
    for _ in range(d):
        nxt = {}
        for (x, at), prob in out.items():
            n = len(x)
            for bits in range(1 << n):
                key = _lift_one(x, at, tuple((bits >> i) & 1 for i in range(n)))
                nxt[key] = nxt.get(key, Fraction(0)) + prob / (1 << n)
        out = nxt
    return [(p, x, _y_of(x, at)) for (x, at), p in out.items()]


def check_embedding(pair: HardPair) -> bool:
    """Whether (x, y) is in the support of the level-d hard distribution,
    read off the pair's own bits. A lift writes a 0 as the block (1, 1) and
    a 1 as (b, 1 - b), never (0, 0), so unlifting is one NAND level: the
    pair is in the support exactly when, at every level, x and y differ at
    one index and no block of either reads (0, 0), and the unlifted pair
    ends at x = (0,), y = (1,). Strings that are not 2^depth entries of 0/1
    are not in the support."""
    x, y = tuple(pair.x), tuple(pair.y)
    if not (_is_int(pair.depth) and pair.depth >= 0 and len(x) == len(y)
            and all(v in (0, 1) for v in x + y)):
        return False
    for _ in range(pair.depth):  # each level halves the strings, so a short one stops this
        if len(x) % 2 or sum(a != b for a, b in zip(x, y)) != 1:
            return False
        bx, by = (tuple(zip(z[0::2], z[1::2])) for z in (x, y))
        if (0, 0) in bx + by:
            return False
        x, y = (tuple(1 - a * b for a, b in blocks) for blocks in (bx, by))
    return x == (0,) and y == (1,)


# ---------------------------------------------------------------------------
# Separation accounting
# ---------------------------------------------------------------------------


def _sep_counts(order: Sequence[int], x: Sequence[int], y: Sequence[int]) -> tuple:
    """(queries of value 0, queries of value 1) of x among the indices in
    ``order``, up to and including the first index where x and y differ."""
    q0 = q1 = 0
    for idx in order:
        if x[idx]:
            q1 += 1
        else:
            q0 += 1
        if x[idx] != y[idx]:
            return q0, q1
    raise SeparationError("run ended without querying a differing index")


def sep_value_counts(algorithm, t: int, x: Sequence[int], y: Sequence[int], rng) -> tuple:
    """(queries of value 0, queries of value 1) on the x-run, up to and
    including the separating query; their sum is the separation cost."""
    if algorithm.depth != t or len(x) != 1 << t:
        raise ValueError("level mismatch")
    access = Transcript(x)
    algorithm.run(access, rng)
    return _sep_counts(access.order, x, y)


def estimate_sep_counts(base, d: int, t: int, samples: int, seed: int,
               run_on: str = "x") -> tuple:
    """Monte-Carlo estimates of Q(t, 0) and Q(t, 1) for the chain lifted from
    ``base='saks_wigderson'`` at depth d, as a pair of ``nandtree.CostEstimate``;
    ``q_counts_sw`` is their exact value.

    The chain from any d is distributed as Saks-Wigderson at level t
    (docs/decisions.md, entry 3), so this folds level-t pairs and its output
    does not depend on d. The two runs of a pair share one transcript until
    separation, so only the attribution of the final query differs between
    ``run_on='x'`` and ``'y'``.
    """
    if base != "saks_wigderson":
        raise ValueError(f"unknown base algorithm {base!r}")
    _check_int("depth", d)
    _check_int("t", t)
    if not 0 <= t <= d:
        raise ValueError(f"need 0 <= t <= d, got t = {t} and d = {d}")
    if run_on not in ("x", "y"):
        raise ValueError("run_on must be 'x' or 'y'")
    _check_samples(samples)
    _check_mc_depth(d)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return tuple(_pair_fold(t, samples, rng, lambda x: [~x, x], swap=run_on == "y"))


# ---------------------------------------------------------------------------
# Vectorized engines
# ---------------------------------------------------------------------------


def mc_sep_cost(algorithm: str, d: int, samples: int, seed: int):
    """Monte-Carlo mean separation cost of ``algorithm='saks_wigderson'`` on
    level-d hard pairs, as a ``nandtree.CostEstimate``, whose exact value is
    ``expected_sep_cost_sw``; every static child order has that same
    expectation (docs/decisions.md, entry 17)."""
    _check_samples(samples)
    if algorithm != "saks_wigderson":
        raise ValueError(f"unknown algorithm {algorithm!r}")
    _check_mc_depth(d)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return _pair_fold(d, samples, rng, lambda x: [None])[0]


def _pair_fold(level: int, samples: int, rng, counters, swap: bool = False) -> list:
    """Fold the randomized evaluator over ``samples`` hard pairs at
    ``level``, on x (on y with ``swap``), and summarize each per-leaf counter
    of ``counters(x)`` (see ``nandtree._fold``) summed up to and including
    the separating query."""
    def roots(n):
        x, at = _sample_pairs(level, n, rng)
        if swap:
            x[np.arange(n), at] ^= True
        return _fold(x, counters(x), rng, at=at)

    return _summary(roots, samples, 1 << level)


# ---------------------------------------------------------------------------
# Exact references
# ---------------------------------------------------------------------------


def q_counts_sw(t: int, run_on: str = "x") -> tuple:
    """Exact (Q(t, 0), Q(t, 1)) of Saks-Wigderson on level-t hard pairs, on
    the x-run or the y-run: the counts up to separation from a D0 leaf (x = 0,
    y = 1), by the lift rules of the four leaf types (docs/decisions.md,
    entry 12). The O child of a node runs first, in full, with probability 1/2.
    """
    _check_int("t", t, 0)
    if run_on not in ("x", "y"):
        raise ValueError("run_on must be 'x' or 'y'")
    read0, read1 = np.array([Fraction(1), Fraction(0)]), np.array([Fraction(0), Fraction(1)])
    e_z, e_o = read0, read1  # full evaluations from a Z (0 on both runs) and an O leaf
    s_d0, s_d1 = (read0, read1) if run_on == "x" else (read1, read0)
    for _ in range(t):  # Z -> (O, O), O -> (Z, O), D0 -> (D1, O), D1 -> (D0, O)
        s_d0, s_d1 = s_d1 + e_o / 2, s_d0 + e_o / 2
        e_z, e_o = 2 * e_o, e_z + e_o / 2
    return tuple(s_d0)


def expected_sep_cost_sw(d: int) -> Fraction:
    """Exact E[separation cost] of the randomized evaluator on level-d hard
    pairs: Q(d, 0) + Q(d, 1), the same on both runs."""
    return sum(q_counts_sw(d))


# ---------------------------------------------------------------------------
# Table 1: the two-variable restricted-tree case analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockCaseBounds:
    bounds: dict  # (b, b') -> Fraction, the minimum F over restricted trees
    witnesses: dict  # (b, b') -> tree name attaining the minimum
    per_tree: dict  # (tree name, b, b') -> Optional[Fraction]


def _restricted_tree_runs(shape: str, u: tuple):
    """Queried (slot, value) list for a two-variable restricted tree.

    Shapes: 'stop0'/'stop1' query one slot and stop; 'both0'/'both1' query
    that slot first and the other only when the first reads 1.
    """
    first = 0 if shape.endswith("0") else 1
    second = 1 - first
    queries = [(first, u[first])]
    if shape.startswith("both") and u[first] == 1:
        queries.append((second, u[second]))
    return queries


def block_case_bounds() -> BlockCaseBounds:
    """Exact minima of F over the structurally distinct two-variable trees.

    F(b, b') is the expected number of b'-valued block queries per unit
    probability of consuming the real query, with the block built from a
    level-t value b and a uniform bit; the pruning rule (a 0 answer settles
    the block) leaves two shapes per starting slot.
    """
    shapes = ("stop0", "both0", "stop1", "both1")
    half = Fraction(1, 2)
    per_tree, bounds, witnesses = {}, {}, {}
    for b in (0, 1):
        for bp in (0, 1):
            for shape in shapes:
                denom = numer = Fraction(0)
                for bi in (0, 1):
                    runs = _restricted_tree_runs(shape, (1, 1) if b == 0 else (bi, 1 - bi))
                    if any(slot == bi for slot, _ in runs):
                        denom += half
                    numer += half * sum(1 for _, value in runs if value == bp)
                per_tree[(shape, b, bp)] = None if denom == 0 else numer / denom
            f = {shape: per_tree[(shape, b, bp)] for shape in shapes}
            witnesses[(b, bp)] = min((sh for sh in shapes if f[sh] is not None), key=f.get)
            bounds[(b, bp)] = f[witnesses[(b, bp)]]
    return BlockCaseBounds(bounds, witnesses, per_tree)


# ---------------------------------------------------------------------------
# Base cases and the recursion check
# ---------------------------------------------------------------------------


def exact_base_cases() -> dict:
    """Exact minima of Q(t, b) over all deterministic zero-error trees for
    t in {0, 1}, by their runs in the catalog's table on the hard-pair support.

    Note the x-run pins two cells to zero: the level-0 x is the single bit 0
    and the level-1 x is (1, 1), so Q(0, 1) = Q(1, 0) = 0 for every
    algorithm. The recursion bootstrap only needs Q(0, 0) and Q(1, 1).
    """
    out = {}
    for t, f in ((0, BooleanFunction(1, 0b10)), (1, nand2())):
        probs, x, y = zip(*enumerate_hard_pairs(t))
        x, y = np.array(x), np.array(y)  # (pairs, 2^t) bits
        at_x, steps = _separations(f, _zero_error_mask(f), _point_index(x), _point_index(x ^ y))
        read = (at_x > 0) & (at_x <= steps[:, :, None])  # queried up to separation
        for b in (0, 1):
            totals = (read & (x == b)).sum(axis=2).astype(object) @ np.array(probs, dtype=object)
            out[(t, b)] = min(totals)
    return out


# Row b' of M in Q(t+1, .) >= M Q(t, .) holds the case-table bounds F(., b').
_CASE_BOUNDS = block_case_bounds().bounds
BOUND_MATRIX = tuple(tuple(_CASE_BOUNDS[(b, bp)] for b in (0, 1)) for bp in (0, 1))


@dataclass(frozen=True)
class RecursionReport:
    rows: tuple  # of dicts per inequality
    base_cases: dict
    base_ok: bool
    ok: bool  # the literal level-to-level inequalities
    corrected_ok: bool  # with the differing-block allowance on the 1-counts


def _term(c: Fraction, q: str) -> str:
    """The term c q of a recursion row's name, as the paper writes it."""
    return q if c == 1 else f"{c} {q}" if c.denominator == 1 else f"{q}/{c.denominator}"


def check_recursions(q: dict) -> RecursionReport:
    """Check the rows of Q(t+1, .) >= BOUND_MATRIX Q(t, .), Q(t+1,0) >= Q(t,1)
    and Q(t+1,1) >= 2 Q(t,0) + Q(t,1)/2, across consecutive levels of the
    rows ``q = {t: q_counts_sw(t)}``, by ``boolfunc._at_most`` (zero slack on
    Fractions), and verify the enumerated base cases.

    Each level has exactly one differing index, and the case analysis behind
    the factor-2 step does not cover the block holding it: that block's run
    is cut by the separation itself, so its true per-query factor is only 1
    (value 0 at the differing index) or 0 (value 1). The second inequality
    therefore admits an additive deficit of at most 1, and on the exact rows
    fails by exactly 1/2 at t = 0, 2, 4, 6; every row also carries an
    ``ok_corrected`` verdict with that allowance (0 on the first), and
    ``corrected_ok`` aggregates it. The geometric growth is unaffected: a
    bounded additive perturbation of the supercritical two-term recursion
    still grows at its spectral rate.

    Rows with no two consecutive levels check no inequality, so they raise
    ``ValueError`` rather than report a vacuous pass.
    """
    levels = sorted(q)
    pairs = [(lo, hi) for lo, hi in zip(levels, levels[1:]) if hi == lo + 1]
    if not pairs:
        raise ValueError(f"recursion checks need two consecutive levels, got {levels}")
    rows = []
    for lo, hi in pairs:
        for bp, allowance in enumerate((0, 1)):
            terms = [(c, b) for b, c in enumerate(BOUND_MATRIX[bp]) if c]
            lhs = q[hi][bp]
            rhs = sum(c * q[lo][b] for c, b in terms)
            rows.append({
                "t": lo,
                "name": f"Q({hi},{bp}) >= " + " + ".join(_term(c, f"Q({lo},{b})") for c, b in terms),
                "lhs": lhs,
                "rhs": rhs,
                "allowance": allowance,
                "ok": _at_most(rhs, lhs),
                "ok_corrected": _at_most(rhs - allowance, lhs),
            })
    base = exact_base_cases()
    base_ok = base[(0, 0)] >= 1 and base[(1, 1)] >= Fraction(3, 2)
    return RecursionReport(
        tuple(rows),
        base,
        base_ok,
        base_ok and all(r["ok"] for r in rows),
        base_ok and all(r["ok_corrected"] for r in rows),
    )


def spectral_alpha() -> float:
    """The growth rate of the Q recursion: the larger eigenvalue of
    BOUND_MATRIX, the larger root of x^2 - tr x + det."""
    (a, b), (c, d) = BOUND_MATRIX
    tr, det = a + d, a * d - b * c
    return (tr + math.sqrt(tr * tr - 4 * det)) / 2
