"""The one NAND fold behind mc_cost, mc_sep_cost and the lift-chain counts:
per-sample oracles, counter widths, the leaf stream, the memory budget,
pinned fixed-seed outputs, and the depth guard."""

import tracemalloc

import numpy as np
import pytest

from qclab.nandtree import (
    MC_MAX_DEPTH,
    CostEstimate,
    GreedyZeroEvaluator,
    SeparationError,
    _bernoulli_leaves,
    _fold,
    _greedy_order,
    golden_marginals,
    greedy_zero,
    mc_cost,
    tile_marginals,
    zero_probs,
)
from qclab.sabotage import (
    SepCountEstimate,
    enumerate_hard_pairs,
    estimate_sep_counts,
    mc_sep_cost,
    sample_pairs_batch,
    sep_cost,
    sep_value_counts,
)


def _margs(d):
    return list(tile_marginals([0.3, 0.8, 0.55, 0.61], d))


# -- per-sample oracles -------------------------------------------------------------


def _pairs(support):
    """Bool x rows and differing indices of (x, y) pairs."""
    x = np.array([p[1] for p in support], dtype=bool)
    y = np.array([p[2] for p in support], dtype=bool)
    return x, (x != y).argmax(axis=1)


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_fold_cost_matches_greedy_on_every_input(d):
    n = 1 << d
    xs = np.array([[(idx >> j) & 1 for j in range(n)] for idx in range(1 << n)], dtype=bool)
    (cost,) = _fold(xs, [None], None, _greedy_order(zero_probs(d, _margs(d))))
    assert cost.tolist() == [greedy_zero(d, _margs(d), x)[1] for x in xs.astype(int).tolist()]


def _check_sep_counts(d, margs, support):
    # the fold's per-row counts up to separation, on both runs of each pair,
    # against the scalar evaluator
    order = _greedy_order(zero_probs(d, margs))
    algo = GreedyZeroEvaluator(d, margs)
    rng = np.random.default_rng(0)  # unused by the deterministic evaluator
    x, at = _pairs(support)
    for run, a, b in ((x, 1, 2), (x ^ (np.arange(1 << d) == at[:, None]), 2, 1)):
        (sep,) = _fold(run, [None], None, order, at=at)
        assert sep.tolist() == [sep_cost(algo, p[a], p[b], rng) for p in support]
        q0, q1 = _fold(run, [~run, run], None, order, at=at)
        assert list(zip(q0.tolist(), q1.tolist())) == [
            sep_value_counts(algo, d, p[a], p[b], rng) for p in support
        ]


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_fold_separation_counts_match_scalar_runs_on_every_pair(d):
    _check_sep_counts(d, _margs(d), enumerate_hard_pairs(d))


@pytest.mark.parametrize("d", [4, 5, 6, 7, 8])
def test_fold_separation_path_gather_matches_scalar_runs_beyond_enumeration(d):
    x, y = sample_pairs_batch(d, 150, np.random.default_rng(d))
    support = [(None, tuple(a), tuple(b)) for a, b in zip(x.tolist(), y.tolist())]
    _check_sep_counts(d, list(tile_marginals([0.2, 0.9, 0.7], d)), support)


def test_fold_raises_when_the_run_never_reads_the_marked_leaf():
    # NAND(0, 1): the left child reads 0 and settles the root, so leaf 1 is
    # never queried
    x = np.array([[False, True]])
    order = [np.array([True])]
    assert _fold(x, [None], None, order, at=np.array([0]))[0].tolist() == [1]
    with pytest.raises(SeparationError):
        _fold(x, [None], None, order, at=np.array([1]))


def _full_evaluation(d, value=0):
    """Leaves on which the left-first evaluator reads every leaf: each left
    child reads 1, so each sibling runs too."""
    if d == 0:
        return [value]
    return _full_evaluation(d - 1, 1) + _full_evaluation(d - 1, 1 - value)


@pytest.mark.parametrize("d", [15, 16])
def test_fold_counts_a_full_evaluation_without_wrapping(d):
    # 2^16 queries do not fit a uint16 counter
    x = np.array([_full_evaluation(d)] * 2, dtype=bool)
    order = [np.ones(1 << k, dtype=bool) for k in range(d)]
    ones = np.ones(x.shape, dtype=bool)
    cost, count = _fold(x, [None, ones], None, order)
    assert cost.tolist() == count.tolist() == [1 << d] * 2


@pytest.mark.parametrize("n, w", [(3, 8), (1, 1), (5000, 16), (17, 1 << 12), (2, 1 << 16),
                                  (3, 1 << 17)])
def test_chunked_leaf_draw_is_one_uniform_stream(n, w):
    p = np.random.default_rng(w).random(w)
    chunked, whole = np.random.default_rng(n), np.random.default_rng(n)
    assert np.array_equal(_bernoulli_leaves(chunked, n, p), whole.random((n, w)) < p)
    assert chunked.bit_generator.state == whole.bit_generator.state


def test_folds_stay_within_their_memory_budget():
    # with (n, 2^d) float64 uniforms and int64 counters these two calls
    # peaked at 102 and 332 MiB traced
    budget = 48 << 20
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
# The mc_cost and mc_sep_cost outputs were recorded before the three folds were
# merged into one, the chain outputs when the chain began to fold at level t
# (docs/decisions.md, entry 2); the fold's draw order (leaves or pair lifts
# first, then one coin array per level from the bottom up) is part of every
# fixed-seed output.


def test_fixed_seed_outputs_are_pinned():
    assert mc_cost("greedy_zero", 7, tile_marginals([0.3, 0.8, 0.55, 0.61], 7), 2001,
                   seed=101, batch=333) == CostEstimate(
        21.794602698650674, 0.42724128255203164, 2001)
    assert mc_cost("saks_wigderson", 7, golden_marginals(7), 2001, seed=102) == CostEstimate(
        28.94102948525737, 0.4680205485016356, 2001)
    assert mc_sep_cost("saks_wigderson", 7, 2001, seed=103, batch=333) == CostEstimate(
        26.667666166916543, 0.6690529358463929, 2001)
    assert mc_sep_cost("greedy_zero", 7, 2001, seed=104,
                       marginals=tile_marginals([0.2, 0.9, 0.7], 7)) == CostEstimate(
        26.52623688155922, 0.6672073710415741, 2001)
    assert estimate_sep_counts("saks_wigderson", 6, 3, 1501, seed=105, run_on="x") == (
        SepCountEstimate(3, 0, 0.7501665556295802, 0.03338724359184695, 1501),
        SepCountEstimate(3, 1, 2.872751499000666, 0.06790764316427604, 1501),
    )
    assert estimate_sep_counts("saks_wigderson", 6, 3, 1501, seed=106, run_on="y") == (
        SepCountEstimate(3, 0, 1.7728181212524983, 0.034250446035566866, 1501),
        SepCountEstimate(3, 1, 1.8680879413724183, 0.06837321142014693, 1501),
    )


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
            mc_sep_cost("greedy_zero", d, samples, seed=0, marginals=_Untouchable())
        with pytest.raises(ValueError, match=match):
            mc_sep_cost("saks_wigderson", d, samples, seed=0)
        with pytest.raises(ValueError, match=match):
            estimate_sep_counts("saks_wigderson", d, 0, samples, seed=0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        mc_cost("greedy_zero", -1, _Untouchable(), 1000, seed=0)
    with pytest.raises(ValueError, match="depth must be >= 0"):
        mc_sep_cost("saks_wigderson", -1, 1000, seed=0)
