"""NAND-tree evaluation: the distribution-aware zero-error evaluator, the
randomized-child evaluator, exact expected-cost recursions, and Monte-Carlo
cost estimation with exponent fitting.

Trees are complete binary formulas of depth d over 2^d leaves. Leaves are
0-indexed here (this module never goes through truth tables); node (k, j) is
the j-th node at depth k, with children (k+1, 2j) and (k+1, 2j+1). The
Monte-Carlo fold alone keeps each depth in bit-reversed order (``_bitrev``),
so that every node's children are the two contiguous halves of the depth
below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .boolfunc import _at_most, _check_int, _exact, _nand_formula

__all__ = [
    "ZeroProbTree",
    "CostEstimate",
    "SeparationError",
    "MC_MAX_DEPTH",
    "MC_Z",
    "eval_formula",
    "zero_probs",
    "greedy_zero",
    "Transcript",
    "GreedyZeroEvaluator",
    "SaksWigderson",
    "saks_wigderson",
    "expected_cost_greedy_zero",
    "expected_cost_sw",
    "mc_cost",
    "max_two_level_factor",
    "two_level_traced_bound",
    "fit_exponent",
    "golden_marginals",
    "tile_marginals",
]


def eval_formula(x: Sequence[int]) -> int:
    """Bottom-up NAND evaluation; g_0(b) = b."""
    n = len(x)
    if n & (n - 1):
        raise ValueError(f"input length {n} is not a power of two")
    return int(_nand_formula(np.array([x]))[0])


# ---------------------------------------------------------------------------
# Subtree zero-probabilities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroProbTree:
    """q(node) = Pr[subtree evaluates to 0] under a product distribution.

    levels[k] is one array over the 2^k nodes at depth k; levels[d] are the
    leaves with q = 1 - p_i, and q(internal) = (1 - q_left)(1 - q_right).
    Values are in ``boolfunc._exact``'s arithmetic: an object array of
    Python ints and Fractions that does one Python operation per entry, in
    the order a scalar loop would, when the marginals are exact, and a
    float64 array otherwise. Readers take scalars by ``tolist``.
    """

    depth: int
    levels: tuple

    @property
    def root(self):
        return self.levels[0].tolist()[0]


def _check_marginals(p: np.ndarray) -> None:
    if not np.all((p >= 0) & (p <= 1)):  # NaN fails both
        raise ValueError("marginals must lie in [0, 1]")


def zero_probs(d: int, marginals: Sequence) -> ZeroProbTree:
    _check_int("depth", d, 0)
    if len(marginals) != 1 << d:
        raise ValueError(f"need 2^{d} marginals, got {len(marginals)}")
    exact = _exact(marginals)
    p = np.asarray(marginals, dtype=object if exact else None)
    _check_marginals(p)  # in the marginals' own arithmetic, before any float conversion
    levels = [1 - (p if exact else p.astype(np.float64))]
    for _ in range(d):
        levels.append((1 - levels[-1][0::2]) * (1 - levels[-1][1::2]))
    return ZeroProbTree(d, tuple(levels[::-1]))


# ---------------------------------------------------------------------------
# Evaluators
# ---------------------------------------------------------------------------


class Transcript:
    """Query access to an input that records the query order (0-indexed)."""

    def __init__(self, x: Sequence[int]):
        self.x = x
        self.order = []

    def query(self, i: int) -> int:
        self.order.append(i)
        return self.x[i]

    @property
    def count(self) -> int:
        return len(self.order)


def _greedy_order(zp: ZeroProbTree) -> list:
    """The child order of the distribution-aware evaluator, and the one place
    its rule lives: node (k, j) descends into its left child first iff
    q_left >= q_right (ties go left), compared in the marginals' own
    arithmetic. order[k] is the bool array over the 2^k nodes at depth k."""
    return [zp.levels[k + 1][0::2] >= zp.levels[k + 1][1::2] for k in range(zp.depth)]


def _eval(access, d: int, order, rng, k: int = 0, j: int = 0) -> int:
    """Value of node (k, j): its first child runs, the other only when the
    first reads 1. ``order`` (see ``_greedy_order``) names the first child;
    without one, an ``rng.integers(0, 2)`` coin per visited node does."""
    if k == d:
        return access.query(j)
    left_first = order[k][j] if order is not None else not rng.integers(0, 2)
    first, other = (2 * j, 2 * j + 1) if left_first else (2 * j + 1, 2 * j)
    if _eval(access, d, order, rng, k + 1, first) == 0:
        return 1
    return 1 - _eval(access, d, order, rng, k + 1, other)


class GreedyZeroEvaluator:
    """Deterministic zero-error evaluator that always descends first into the
    child whose subtree is more likely to evaluate to 0 (ties go left).

    Needs the product distribution; the child order is computed once and
    shared by all runs.
    """

    def __init__(self, d: int, marginals: Sequence):
        self.depth = d
        self.order = _greedy_order(zero_probs(d, marginals))

    def run(self, access: Transcript, rng=None) -> int:
        return _eval(access, self.depth, self.order, rng)


class SaksWigderson:
    """Zero-error evaluator that recurses into a uniformly random child first
    and prunes the sibling when the first child evaluates to 0."""

    def __init__(self, d: int):
        self.depth = d

    def run(self, access: Transcript, rng) -> int:
        return _eval(access, self.depth, None, rng)


def greedy_zero(d: int, marginals: Sequence, x: Sequence[int]) -> tuple:
    """(value, queries) of the distribution-aware evaluator on x."""
    access = Transcript(x)
    value = GreedyZeroEvaluator(d, marginals).run(access)
    return value, access.count


def saks_wigderson(d: int, x: Sequence[int], rng) -> tuple:
    """(value, queries) of the randomized evaluator on x."""
    access = Transcript(x)
    value = SaksWigderson(d).run(access, rng)
    return value, access.count


# ---------------------------------------------------------------------------
# Exact expected costs
# ---------------------------------------------------------------------------


def _expected_costs(zp: ZeroProbTree, order, depths=(0,)) -> list:
    """Exact E[queries] of the zero-error evaluator at each node of the given
    depths, under the node's own subtree marginals, as lists of scalars:
    cost(leaf) = 1 and cost(node) = cost(first) + (1 - q_first) cost(other),
    with the first child from ``order`` (see ``_greedy_order``) or, for order
    None, the mean over both orders (the randomized evaluator)."""
    costs = np.ones(1 << zp.depth, dtype=np.int64 if zp.levels[0].dtype == np.float64 else object)
    half = Fraction(1, 2) if costs.dtype == object else 0.5  # ints stay exact; x * 0.5 is x / 2
    kept = {}
    for k in range(zp.depth, -1, -1):
        if k < zp.depth:
            q = zp.levels[k + 1]
            lr = costs[0::2] + (1 - q[0::2]) * costs[1::2]  # left child first
            rl = costs[1::2] + (1 - q[1::2]) * costs[0::2]  # right child first
            costs = (lr + rl) * half if order is None else np.where(order[k], lr, rl)
        if k in depths:
            kept[k] = costs.tolist()
    return [kept[k] for k in depths]


def expected_cost_greedy_zero(d: int, marginals: Sequence):
    """Exact E[queries] of the distribution-aware evaluator under its own
    distribution."""
    zp = zero_probs(d, marginals)
    return _expected_costs(zp, _greedy_order(zp))[0][0]


def expected_cost_sw(d: int, marginals: Sequence):
    """Exact E[queries] of the randomized evaluator under a product
    distribution (expectation over inputs and coin flips); on a 0/1 input
    given as its marginals, the expected queries on that one input."""
    return _expected_costs(zero_probs(d, marginals), None)[0][0]


# ---------------------------------------------------------------------------
# Monte-Carlo cost estimation: the one bottom-up fold
# ---------------------------------------------------------------------------


MC_Z = 4.0  # a Monte-Carlo mean must sit within this many sigma of its exact value


@dataclass(frozen=True)
class CostEstimate:
    mean: float
    half_width_95: float
    samples: int

    @property
    def sigma(self) -> float:
        return self.half_width_95 / 1.96

    def z(self, exact) -> float:
        """|mean - exact| / sigma; a zero spread demands equality (0, else inf)."""
        gap = abs(self.mean - float(exact))
        return gap / self.sigma if self.sigma else 0.0 if gap == 0 else math.inf


class SeparationError(RuntimeError):
    """A run ended without querying a differing index (the algorithm is not
    zero-error)."""


# A batch keeps its transient arrays near 2^26 elements but never goes below
# 16 rows, so deeper trees would overrun that budget at the row floor.
_BATCH_ELEMENTS = 1 << 26
_MIN_BATCH_ROWS = 16
MC_MAX_DEPTH = (_BATCH_ELEMENTS // _MIN_BATCH_ROWS).bit_length() - 1
# The fold runs a batch in row blocks of 2^19 leaves, whose bool values,
# run masks and uint8 counters fit a 2 MiB L2 cache.
_BLOCK_ELEMENTS = 1 << 19


def _check_mc_depth(d: int) -> None:
    _check_int("depth", d, 0)
    if d > MC_MAX_DEPTH:
        raise ValueError(
            f"depth {d} above the Monte-Carlo cap {MC_MAX_DEPTH}: {_MIN_BATCH_ROWS} rows "
            f"of 2^{d} leaves exceed the 2^26-element batch budget"
        )


def _check_samples(samples: int) -> None:
    _check_int("samples", samples)
    if samples < 100:
        raise ValueError("need at least 100 samples")


def _batches(samples: int, n_leaves: int) -> list:
    """Row counts of the batches covering ``samples`` runs: up to 4096 rows
    within the element budget, never fewer than the row floor."""
    batch = max(_MIN_BATCH_ROWS, min(4096, _BATCH_ELEMENTS // n_leaves))
    return [min(batch, samples - done) for done in range(0, samples, batch)]


def _summary(roots, samples: int, n_leaves: int) -> list:
    """Mean and 95% half-width of each counter's per-run counts over
    ``samples`` runs on ``n_leaves`` leaves: ``roots(rows)`` runs each of the
    ``_batches`` and gives one array of root counts per counter."""
    sums, n = {}, samples
    for rows in _batches(samples, n_leaves):
        for i, root in enumerate(roots(rows)):
            root = root.astype(np.float64)
            total, total_sq = sums.get(i, (0.0, 0.0))
            sums[i] = (total + float(root.sum()), total_sq + float((root * root).sum()))
    out = []
    for total, total_sq in sums.values():
        mean = total / n
        var = max(0.0, (total_sq - n * mean * mean) / (n - 1)) if n > 1 else 0.0
        out.append(CostEstimate(mean, 1.96 * math.sqrt(var / n), n))
    return out


def _stream_seed(master: int, index: int) -> int:
    """Seed of the index-th independent stream spawned from ``master``."""
    return int(np.random.SeedSequence(master, spawn_key=(index,)).generate_state(1)[0])


def _bitrev(width: int) -> np.ndarray:
    """The fold layout of ``width`` = 2^L nodes of one depth: position c holds
    natural node rev_L(c), the L-bit reversal of c. The node at position c
    of the depth above then has its left child at c and its right child at
    c + width/2, so each depth is [left children | right children] of the
    one above. The permutation is its own inverse."""
    rev = np.zeros(1, dtype=np.intp)
    while len(rev) < width:
        rev = np.concatenate((2 * rev, 2 * rev + 1))
    return rev


def _fold_order(order: list) -> list:
    """A child order (see ``_greedy_order``) in the fold layout."""
    return [o[_bitrev(len(o))] for o in order]


def _coins(rng, n: int, w: int) -> np.ndarray:
    """(n, w) fair bools, one bit each of ceil(n w / 64) raw 64-bit words
    from ``rng``'s bit generator."""
    raw = rng.bit_generator.random_raw(-(-n * w // 64))
    return np.unpackbits(raw.view(np.uint8), count=n * w).view(np.bool_).reshape(n, w)


def _fold(val, counts, rng, order=None, at=None) -> list:
    """Run the zero-error evaluator bottom-up on a batch of inputs.

    Every array argument is in the fold layout (see ``_bitrev``). ``val``
    holds the (n, 2^d) C-contiguous bool leaf values and ``counts`` the
    per-leaf query counters: each is a bool leaf mask, or None for the
    all-ones counter, which is never built. Each node takes its first child
    from ``order`` (see ``_fold_order``): one array per depth k, either
    (2^k,) and shared by every row, or (n, 2^k) per row. Without an order,
    the fold draws one (n, 2^k) ``_coins`` array per level from ``rng``,
    from k = d-1 down to 0, all before it folds; these draws are part of
    every fixed-seed output. A node's value is the NAND of its children
    whatever their order; the order only decides which children run: the
    first always, the other when the first reads 1. A node's count sums the
    counts of its children that run, in uint8 while its subtree is at most
    7 levels high (2^7 queries) and above that in uint16 up to d = 15 and
    uint32 beyond, wide enough for the 2^d queries of a full evaluation.

    Returns each counter's root column, summed over the whole run. Given
    ``at``, the (n,) position of the one differing leaf per row, returns the
    sums up to and including the separating query instead: the leaf's own
    count plus the full count of every sibling on its root path that runs
    first, gathered one level at a time; a first-run sibling that reads 0
    stops the run short of the leaf and raises ``SeparationError``. The
    gather reads the first child per row: with ``at``, each ``order[k]``
    must be (n, 2^k), as the coins are.

    Rows are independent, so the batch is folded in blocks of
    ``_BLOCK_ELEMENTS // 2^d`` rows (at least one), whose arrays stay in a
    core's cache through all d levels, and the blocks' roots are joined
    (docs/decisions.md, entry 22).
    """
    n, width = val.shape
    d = width.bit_length() - 1
    if order is None:
        order = [_coins(rng, n, 1 << k) for k in range(d - 1, -1, -1)][::-1]
    step = max(1, _BLOCK_ELEMENTS // width)
    blocks = []
    for s in range(0, n, step):
        rows = slice(s, s + step)
        blocks.append(_fold_block(
            val[rows], [None if c is None else c[rows] for c in counts],
            [o if o.ndim == 1 else o[rows] for o in order], None if at is None else at[rows]))
    return [np.concatenate(roots) for roots in zip(*blocks)]


def _fold_block(val, counts, order, at) -> list:
    """``_fold`` on one block of rows, with its order given."""
    n, width = val.shape
    d = width.bit_length() - 1
    rtype = np.uint16 if d <= 15 else np.uint32
    rows = np.arange(n)
    if at is not None:
        until = [np.ones(n, rtype) if c is None else c[rows, at].astype(rtype) for c in counts]
    for k in range(d - 1, -1, -1):
        h = 1 << k
        first = order[k]
        left, right = val[:, :h], val[:, h:]
        if at is not None:
            # the ancestor of leaf position c at width 2^L sits at c mod 2^L
            child = at & (2 * h - 1)
            sib = child ^ h
            node_first = first[rows, child & (h - 1)]
            # the sibling runs first when it is the left child and left goes
            # first, or the right child and right goes first
            behind = node_first == (sib < h)
            if (behind & ~val[rows, sib]).any():
                raise SeparationError("a run ended without querying a differing index")
            for u, c in zip(until, counts):
                np.add(u, 1 if c is None else c[rows, sib], out=u, where=behind)
        # a child runs when it goes first, or after a sibling that goes first
        # and reads 1
        runs = (first | right, ~first | left)
        ctype = np.uint8 if d - k <= 7 else rtype
        counts = [_combine(c, runs, ctype) for c in counts]
        val = ~(left & right)
    if at is not None:
        return until
    return [np.ones(n, rtype) if c is None else c[:, 0] for c in counts]


def _combine(c, runs, ctype) -> np.ndarray:
    """A node's count: the sum of its children's counts over the children
    that run. None is the all-ones leaf counter, which is never built."""
    if c is None:
        return np.add(*runs, dtype=ctype)
    h = c.shape[1] // 2
    return np.add(c[:, :h] * runs[0], c[:, h:] * runs[1], dtype=ctype)


_UNIFORM_CHUNK = 1 << 16


def _bernoulli_leaves(rng, n: int, p: np.ndarray) -> np.ndarray:
    """(n, len(p)) bool leaves with Pr[leaf j] = p[j]: the same uniforms as
    one ``rng.random((n, len(p)))`` call, drawn about 2^16 at a time into one
    buffer and compared straight into the result."""
    w = len(p)
    x = np.empty((n, w), dtype=np.bool_)
    flat = x.reshape(-1)
    buf = np.empty(min(_UNIFORM_CHUNK, flat.size))
    # w and the chunk are powers of two, so a chunk is whole rows when
    # w <= 2^16 and a piece of one row above
    cols = min(w, _UNIFORM_CHUNK)
    for s in range(0, flat.size, len(buf)):
        r = min(len(buf), flat.size - s)
        u = rng.random(out=buf[:r])
        o = s % w
        np.less(u.reshape(-1, cols), p[o:o + cols], out=flat[s:s + r].reshape(-1, cols))
    return x


def mc_cost(algorithm: str, d: int, marginals: Sequence, samples: int, seed: int) -> CostEstimate:
    """Monte-Carlo estimate of the expected query count on x ~ mu.

    ``algorithm`` is 'greedy_zero' or 'saks_wigderson'. Inputs are sampled
    lazily in batches and the evaluator runs as a vectorized bottom-up fold,
    so each depth costs O(samples * 2^d) array work.
    """
    _check_samples(samples)
    if algorithm not in ("greedy_zero", "saks_wigderson"):
        raise ValueError(f"unknown algorithm {algorithm!r}")
    _check_mc_depth(d)
    p = np.asarray(marginals)
    n_leaves = 1 << d
    if len(p) != n_leaves:
        raise ValueError("marginal count does not match depth")
    _check_marginals(p)  # in the marginals' own arithmetic, before the float cast
    p = p.astype(np.float64)[_bitrev(n_leaves)]
    order = None
    if algorithm == "greedy_zero":
        order = _fold_order(_greedy_order(zero_probs(d, marginals)))
    rng = np.random.default_rng(np.random.SeedSequence(seed))

    def root_costs(n):
        return _fold(_bernoulli_leaves(rng, n, p), [None], rng, order)

    return _summary(root_costs, samples, n_leaves)[0]


# ---------------------------------------------------------------------------
# The two-level growth bound
# ---------------------------------------------------------------------------


def max_two_level_factor() -> float:
    """max over [0,1] of (2 - x)(1 + 2x - x^2)."""
    return (2.0 / 27.0) * (17.0 + 7.0 * math.sqrt(7.0))


def two_level_traced_bound(d: int, marginals: Sequence) -> dict:
    """Instrumented two-level check: the exact expected cost at depth d is at
    most (2 - g)(1 + 2g - g^2) times the worst grandchild cost, where g is
    the smaller of the two root children's larger child-zero-probabilities.
    ``ok`` is ``boolfunc._at_most``: zero slack on exact (int or Fraction)
    marginals, and ``TOL`` on floats.
    """
    if d < 2:
        raise ValueError("need depth >= 2")
    zp = zero_probs(d, marginals)
    (lhs,), grandchild_costs = _expected_costs(zp, _greedy_order(zp), depths=(0, 2))
    t_star = max(grandchild_costs)
    q = zp.levels[2].tolist()
    g = min(max(q[0], q[1]), max(q[2], q[3]))
    rhs = (2 - g) * (1 + 2 * g - g * g) * t_star
    return {
        "lhs": lhs,
        "rhs": rhs,
        "gamma": g,
        "t_star": t_star,
        "ok": _at_most(lhs, rhs),
    }


# ---------------------------------------------------------------------------
# Exponent fitting and marginal helpers
# ---------------------------------------------------------------------------


def fit_exponent(points: Sequence) -> tuple:
    """Least-squares slope of log(mean) against depth: (base, rms residual)."""
    if len(points) < 4:
        raise ValueError("need at least 4 depths to fit")
    ds = np.asarray([float(d) for d, _ in points])
    means = np.asarray([float(m) for _, m in points])
    if (means <= 0).any():
        raise ValueError("means must be positive")
    logs = np.log(means)
    slope, intercept = np.polyfit(ds, logs, 1)
    resid = logs - (slope * ds + intercept)
    return float(math.exp(slope)), float(np.sqrt(np.mean(resid**2)))


def golden_marginals(d: int) -> np.ndarray:
    """The stationary marginals: every subtree has zero-probability
    (3 - sqrt 5)/2, the fixed point of q = (1-q)^2."""
    p = (math.sqrt(5.0) - 1.0) / 2.0
    return np.full(1 << d, p)


def tile_marginals(block: Sequence[float], d: int) -> np.ndarray:
    """Tile a block of leaf marginals periodically across 2^d leaves."""
    block = np.asarray([float(p) for p in block])
    n = 1 << d
    reps = -(-n // len(block))
    return np.tile(block, reps)[:n]
