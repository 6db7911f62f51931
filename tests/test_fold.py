"""The one NAND fold behind mc_cost, mc_sep_cost and the lift-chain counts:
per-sample oracles, pinned fixed-seed outputs, and the depth guard."""

import numpy as np
import pytest

from qclab.nandtree import (
    MC_MAX_DEPTH,
    CostEstimate,
    GreedyZeroEvaluator,
    SeparationError,
    _fold,
    _greedy_order,
    golden_marginals,
    greedy_zero,
    mc_cost,
    tile_marginals,
)
from qclab.sabotage import (
    SepCountEstimate,
    enumerate_hard_pairs,
    estimate_sep_counts,
    mc_sep_cost,
    sep_cost,
    sep_value_counts,
)


def _margs(d):
    return list(tile_marginals([0.3, 0.8, 0.55, 0.61], d))


# -- per-sample oracles -------------------------------------------------------------


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_fold_cost_matches_greedy_on_every_input(d):
    n = 1 << d
    xs = np.array([[(idx >> j) & 1 for j in range(n)] for idx in range(1 << n)], dtype=np.int8)
    ones = np.ones(xs.shape, dtype=np.int32)
    (cost,) = _fold(xs, [ones], None, _greedy_order(d, _margs(d)))
    assert cost.tolist() == [greedy_zero(d, _margs(d), list(x))[1] for x in xs.tolist()]


@pytest.mark.parametrize("d", [0, 1, 2, 3])
def test_fold_separation_counts_match_scalar_runs_on_every_pair(d):
    support = enumerate_hard_pairs(d)
    x = np.array([p[1] for p in support], dtype=np.uint8)
    y = np.array([p[2] for p in support], dtype=np.uint8)
    order = _greedy_order(d, _margs(d))
    algo = GreedyZeroEvaluator(d, _margs(d))
    rng = np.random.default_rng(0)  # unused by the deterministic evaluator
    (sep,) = _fold(x.astype(np.int8), [np.ones(x.shape, dtype=np.int64)], None, order,
                   sep=x != y)
    assert sep.tolist() == [sep_cost(algo, xx, yy, rng) for _, xx, yy in support]
    q0, q1 = _fold(x.astype(np.int8), [(x == 0).astype(np.int64), (x == 1).astype(np.int64)],
                   None, order, sep=x != y)
    assert list(zip(q0.tolist(), q1.tolist())) == [
        sep_value_counts(algo, d, xx, yy, rng) for _, xx, yy in support
    ]


def test_fold_raises_when_the_run_never_reads_the_marked_leaf():
    # NAND(0, 1): the left child reads 0 and settles the root, so leaf 1 is
    # never queried
    x = np.array([[0, 1]], dtype=np.int8)
    ones = np.ones(x.shape, dtype=np.int64)
    order = [np.array([True])]
    assert _fold(x, [ones], None, order, sep=np.array([[True, False]]))[0].tolist() == [1]
    with pytest.raises(SeparationError):
        _fold(x, [ones], None, order, sep=np.array([[False, True]]))


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
