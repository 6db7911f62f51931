"""The one NAND fold behind mc_cost, mc_sep_cost and the lift-chain counts:
per-sample oracles, counter widths, the fold layout, the leaf and coin
streams, the memory budget, pinned fixed-seed outputs, and the depth
guard."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from qclab.nandtree import (
    _BLOCK_ELEMENTS,
    MC_MAX_DEPTH,
    CostEstimate,
    GreedyZeroEvaluator,
    SeparationError,
    _batches,
    _bernoulli_leaves,
    _bitrev,
    _coins,
    _fold,
    _fold_order,
    _greedy_order,
    expected_cost_greedy_zero,
    expected_cost_sw,
    golden_marginals,
    greedy_zero,
    mc_cost,
    tile_marginals,
    zero_probs,
)
from qclab.sabotage import (
    _sample_pairs,
    enumerate_hard_pairs,
    estimate_sep_counts,
    mc_sep_cost,
    sample_hard_pair,
    sep_value_counts,
)


def _margs(d):
    return list(tile_marginals([0.3, 0.8, 0.55, 0.61], d))


# -- per-sample oracles -------------------------------------------------------------


def _fold_natural(x, counts, order=None, at=None):
    """``_fold`` on natural-layout leaves, leaf counters, child order and
    differing indices, each permuted into the fold layout; with ``at`` the
    order is given to every row, as the separation gather reads it."""
    rev = _bitrev(x.shape[1])
    counts = [None if c is None else c[:, rev] for c in counts]
    if order is not None:
        order = _fold_order(order)
        if at is not None:
            order = [np.broadcast_to(o, (len(x), len(o))) for o in order]
    return _fold(x[:, rev], counts, None, order, None if at is None else rev[at])


def _pairs(support):
    """Bool x rows and differing indices of (x, y) pairs."""
    x = np.array([p[1] for p in support], dtype=bool)
    y = np.array([p[2] for p in support], dtype=bool)
    return x, (x != y).argmax(axis=1)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_fold_cost_matches_greedy_on_every_input(d):
    n = 1 << d
    xs = np.array([[(idx >> j) & 1 for j in range(n)] for idx in range(1 << n)], dtype=bool)
    (cost,) = _fold_natural(xs, [None], _greedy_order(zero_probs(d, _margs(d))))
    assert cost.tolist() == [greedy_zero(d, _margs(d), x)[1] for x in xs.astype(int).tolist()]


def _check_sep_counts(d, margs, support):
    # the fold's per-row counts up to separation, on both runs of each pair,
    # against the scalar evaluator
    order = _greedy_order(zero_probs(d, margs))
    algo = GreedyZeroEvaluator(d, margs)
    rng = np.random.default_rng(0)  # unused by the deterministic evaluator
    x, at = _pairs(support)
    for run, a, b in ((x, 1, 2), (x ^ (np.arange(1 << d) == at[:, None]), 2, 1)):
        counts = [sep_value_counts(algo, d, p[a], p[b], rng) for p in support]
        (sep,) = _fold_natural(run, [None], order, at)
        assert sep.tolist() == [sum(c) for c in counts]
        q0, q1 = _fold_natural(run, [~run, run], order, at)
        assert list(zip(q0.tolist(), q1.tolist())) == counts


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_fold_separation_counts_match_scalar_runs_on_every_pair(d):
    _check_sep_counts(d, _margs(d), enumerate_hard_pairs(d))


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
def test_fold_separation_path_gather_matches_scalar_runs_beyond_enumeration(d):
    rng = np.random.default_rng(d)
    support = [(None, p.x, p.y) for p in (sample_hard_pair(d, rng) for _ in range(150))]
    _check_sep_counts(d, list(tile_marginals([0.2, 0.9, 0.7], d)), support)


def test_fold_raises_when_the_run_never_reads_the_marked_leaf():
    # NAND(0, 1): the left child reads 0 and settles the root, so leaf 1 is
    # never queried
    x = np.array([[False, True]])
    order = [np.array([True])]
    assert _fold_natural(x, [None], order, np.array([0]))[0].tolist() == [1]
    with pytest.raises(SeparationError):
        _fold_natural(x, [None], order, np.array([1]))


def _full_evaluation(d, value=0):
    """Leaves on which the left-first evaluator reads every leaf: each left
    child reads 1, so each sibling runs too."""
    if d == 0:
        return [value]
    return _full_evaluation(d - 1, 1) + _full_evaluation(d - 1, 1 - value)


@pytest.mark.parametrize("d", [7, 8, 9, 15, 16])
def test_fold_counts_a_full_evaluation_without_wrapping(d):
    # a node counts in uint8 up to 2^7 queries, then in uint16, and 2^16
    # queries do not fit a uint16 counter; the last leaf read is the
    # rightmost, reached after every left sibling on its path ran in full
    x = np.array([_full_evaluation(d)] * 2, dtype=bool)
    order = [np.ones(1 << k, dtype=bool) for k in range(d)]
    ones = np.ones(x.shape, dtype=bool)
    cost, count = _fold_natural(x, [None, ones], order)
    assert cost.tolist() == count.tolist() == [1 << d] * 2
    last = np.full(2, (1 << d) - 1)
    cost, count = _fold_natural(x, [None, ones], order, last)
    assert cost.tolist() == count.tolist() == [1 << d] * 2


def _twin_coins(rng, n, d):
    """The fold's random-order draws, made by hand: one ``_coins`` array per
    level from k = d-1 down to 0, indexed by k."""
    return [_coins(rng, n, 1 << k) for k in range(d - 1, -1, -1)][::-1]


@pytest.mark.parametrize("n, d", [(2000, 12), (3, 20)])
def test_fold_draws_its_coins_up_front_and_folds_rows_independently(n, d):
    # 2000 rows of 2^12 leaves are several blocks and a partial one; a row of
    # 2^20 leaves is more than a block, so each row is its own block
    step = max(1, _BLOCK_ELEMENTS >> d)
    assert (n > step and n % step) if d == 12 else step == 1
    cuts = [0, 1, 2, n] if n < 10 else [0, 1, step - 1, step + 5, 3 * step, n]
    rng = np.random.default_rng(d)
    margs = tile_marginals([0.05, 0.9, 0.35, 0.97, 0.6], d)
    x = _bernoulli_leaves(rng, n, margs[_bitrev(1 << d)])
    static = _fold_order(_greedy_order(zero_probs(d, margs)))
    pairs, at = _sample_pairs(d, n, rng)
    cases = (  # a static order, per-row coins with at, the two-mask chain counters
        (x, lambda v: [None, v], static, None),
        (pairs, lambda v: [None], None, at),
        (pairs, lambda v: [~v, v], None, at),
    )
    for seed, (val, counters, static_order, sep) in enumerate(cases):
        drawn, twin = np.random.default_rng(seed), np.random.default_rng(seed)
        order = _twin_coins(twin, n, d) if static_order is None else static_order
        roots = _fold(val, counters(val), drawn, static_order, sep)
        assert drawn.bit_generator.state == twin.bit_generator.state
        assert all(np.array_equal(a, b) for a, b in
                   zip(roots, _fold(val, counters(val), None, order, sep), strict=True))
        pieces = []
        for lo, hi in zip(cuts, cuts[1:]):
            rows = slice(lo, hi)
            pieces.append(_fold(val[rows], counters(val[rows]), None,
                                [o if o.ndim == 1 else o[rows] for o in order],
                                None if sep is None else sep[rows]))
        assert all(np.array_equal(a, np.concatenate(b)) for a, b in
                   zip(roots, zip(*pieces), strict=True))


@pytest.mark.parametrize("n, w", [(3, 8), (1, 1), (5000, 16), (17, 1 << 12), (2, 1 << 16),
                                  (3, 1 << 17)])
def test_chunked_leaf_draw_is_one_uniform_stream(n, w):
    p = np.random.default_rng(w).random(w)
    chunked, whole = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(_bernoulli_leaves(chunked, n, p), whole.random((n, w)) < p)
    assert chunked.bit_generator.state == whole.bit_generator.state


@pytest.mark.parametrize("n, w", [(1, 1), (3, 8), (65, 1), (7, 64), (2000, 1024)])
def test_coins_take_one_raw_word_per_64_coins(n, w):
    rng, raw = np.random.default_rng(n * w), np.random.default_rng(n * w)
    coins = _coins(rng, n, w)
    raw.bit_generator.random_raw(-(-n * w // 64))
    assert coins.shape == (n, w) and coins.dtype == np.bool_
    assert rng.bit_generator.state == raw.bit_generator.state
    if n * w >= 1 << 20:  # fair within 4 sigma
        assert abs(coins.mean() - 0.5) <= 4 * 0.5 / np.sqrt(n * w)


@pytest.mark.parametrize("d", [6, 7, 8, 9, 10])
def test_mc_cost_matches_exact_on_asymmetric_marginals(d):
    # a period-5 block is not invariant under reversing the leaf index bits,
    # so p or the greedy order read in the wrong layout moves the mean; the
    # golden marginals are constant and cannot show that
    margs = tile_marginals([0.05, 0.9, 0.35, 0.97, 0.6], d)
    for algo, exact in (("greedy_zero", expected_cost_greedy_zero),
                        ("saks_wigderson", expected_cost_sw)):
        est = mc_cost(algo, d, margs, 20_000, seed=30 + d)
        assert abs(est.mean - exact(d, margs)) <= 4 * est.half_width_95 / 1.96, (algo, est)


def test_folds_stay_within_their_memory_budget():
    # with (n, 2^d) float64 uniforms and int64 counters these two calls
    # peaked at 102 and 332 MiB traced, and folding the whole batch level by
    # level in uint16 at 27 and 37 MiB
    budget = 32 << 20
    for run in (lambda: mc_cost("greedy_zero", 12, golden_marginals(12), 2000, seed=7),
                lambda: mc_sep_cost("saks_wigderson", 12, 2000, seed=8)):
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= budget


# -- pinned fixed-seed outputs ------------------------------------------------------
# Recorded when the fold moved to the bit-reversed layout with packed coins
# (docs/decisions.md, entry 2). The fold's draws are part of every fixed-seed
# output: in each batch the leaf uniforms (in the fold layout) or the pair
# lifts (one _coins array per level, bottom up), then for the random order
# one _coins array per node level from the bottom up.


def test_fixed_seed_outputs_are_pinned():
    assert mc_cost("greedy_zero", 7, tile_marginals([0.3, 0.8, 0.55, 0.61], 7), 2001,
                   seed=101) == CostEstimate(21.57471264367816, 0.42232681669947436, 2001)
    assert mc_cost("saks_wigderson", 7, golden_marginals(7), 2001, seed=102) == CostEstimate(
        29.290354822588707, 0.46568193821738585, 2001)
    # re-recorded at the default batches (docs/decisions.md, entry 17); z = 0.08
    # against the exact 26.7890625
    assert mc_sep_cost("saks_wigderson", 7, 2001, seed=103) == CostEstimate(
        26.814592703648177, 0.6634166291335957, 2001)
    assert estimate_sep_counts("saks_wigderson", 6, 3, 1501, seed=105, run_on="x") == (
        CostEstimate(0.754163890739507, 0.03361576809366934, 1501),
        CostEstimate(2.816788807461692, 0.06589178932463345, 1501),
    )
    assert estimate_sep_counts("saks_wigderson", 6, 3, 1501, seed=106, run_on="y") == (
        CostEstimate(1.736842105263158, 0.032761485633539, 1501),
        CostEstimate(1.8620919387075283, 0.06614811463001055, 1501),
    )


def test_multi_block_outputs_are_pinned():
    # recorded before the fold ran in row blocks (docs/decisions.md, entry
    # 22); each batch here spans several blocks
    assert mc_cost("greedy_zero", 12, tile_marginals([0.3, 0.8, 0.55, 0.61], 12), 2000,
                   seed=121) == CostEstimate(215.3895, 2.7934666106478176, 2000)
    assert mc_cost("saks_wigderson", 11, golden_marginals(11), 2000, seed=122) == CostEstimate(
        201.8585, 3.252561187187784, 2000)
    assert mc_sep_cost("saks_wigderson", 11, 2000, seed=123) == CostEstimate(
        214.6845, 5.3566773539223735, 2000)
    assert estimate_sep_counts("saks_wigderson", 11, 11, 1000, seed=124, run_on="y") == (
        CostEstimate(80.875, 2.8301873573807583, 1000),
        CostEstimate(136.34, 4.789266761577763, 1000),
    )


def test_batches_cover_the_samples_within_the_element_budget():
    # 4096 rows while the budget allows, a partial last batch, and the
    # 16-row floor at the depth cap
    assert _batches(10_000, 1 << 7) == [4096, 4096, 1808]
    assert _batches(100, 1) == [100]
    assert _batches(5000, 1 << 16) == [1024] * 4 + [904]
    assert _batches(40, 1 << MC_MAX_DEPTH) == [16, 16, 8]


def test_the_z_rule_demands_equality_at_zero_spread():
    est = CostEstimate(10.5, 1.96, 1000)  # sigma 1
    assert est.sigma == 1.0 and est.z(12) == 1.5 and est.z(9) == 1.5
    assert CostEstimate(1.0, 0.0, 100).z(1) == 0.0
    assert CostEstimate(1.0, 0.0, 100).z(Fraction(1, 2)) == float("inf")


# -- the depth guard ----------------------------------------------------------------


class _Untouchable:
    """Marginals that fail if anything reads them."""

    def __iter__(self, *args):
        raise AssertionError("marginals read before the depth check")

    __len__ = __getitem__ = __iter__


def test_depth_guard_rejects_before_any_allocation():
    # 16 rows are the batch floor; 2^26 elements the batch budget
    assert 16 << MC_MAX_DEPTH == 1 << 26
    too_deep, too_few = "Monte-Carlo cap", "need at least 100 samples"
    for d, samples, match in ((MC_MAX_DEPTH + 1, 1000, too_deep), (40, 1000, too_deep),
                              (4, 0, too_few), (4, 99, too_few), (40, 0, too_few)):
        with pytest.raises(ValueError, match=match):
            mc_cost("greedy_zero", d, _Untouchable(), samples, seed=0)
        with pytest.raises(ValueError, match=match):
            mc_sep_cost("saks_wigderson", d, samples, seed=0)
        with pytest.raises(ValueError, match=match):
            estimate_sep_counts("saks_wigderson", d, 0, samples, seed=0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        mc_cost("greedy_zero", -1, _Untouchable(), 1000, seed=0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        mc_sep_cost("saks_wigderson", -1, 1000, seed=0)
