import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import qclab.nandtree as nandtree
from qclab.nandtree import (
    GreedyZeroEvaluator,
    _fold,
    _greedy_order,
    Transcript,
    greedy_zero,
    eval_formula,
    expected_cost_greedy_zero,
    expected_cost_sw,
    fit_exponent,
    golden_marginals,
    max_two_level_factor,
    mc_cost,
    saks_wigderson,
    tile_marginals,
    two_level_traced_bound,
    zero_probs,
)


def all_inputs(d):
    n = 1 << d
    for idx in range(1 << n):
        yield [(idx >> j) & 1 for j in range(n)]


def mu_weight(x, marginals):
    w = 1
    for b, p in zip(x, marginals):
        w *= p if b else 1 - p
    return w


def sw_walk(x, d, k=0, j=0):
    """(expected queries, value) of node (k, j) of the randomized evaluator
    on the one input x, by recursion over the two child orders."""
    if k == d:
        return 1, x[j]
    cl, vl = sw_walk(x, d, k + 1, 2 * j)
    cr, vr = sw_walk(x, d, k + 1, 2 * j + 1)
    cost_lr = cl + (0 if vl == 0 else cr)
    cost_rl = cr + (0 if vr == 0 else cl)
    return Fraction(cost_lr + cost_rl, 2), 1 - (vl & vr)


def root_zero_prob_exhaustive(d, marginals):
    """Pr[g_d(x) = 0] by brute-force summation."""
    return sum(mu_weight(x, marginals) for x in all_inputs(d) if eval_formula(x) == 0)


# -- evaluation --------------------------------------------------------------


def test_eval_examples():
    assert eval_formula([0]) == 0 and eval_formula([1]) == 1
    assert eval_formula([1, 1]) == 0 and eval_formula([0, 1]) == 1
    assert eval_formula([1, 1, 1, 1]) == 1
    with pytest.raises(ValueError):
        eval_formula([0, 1, 1])


# -- zero probabilities ---------------------------------------------------------


def test_zero_probs_examples():
    assert zero_probs(1, [1, 1]).root == 0 + 1 - 0  # point mass on 11: NAND = 0
    assert zero_probs(1, [0.5, 0.5]).root == pytest.approx(0.25)
    zp = zero_probs(2, [0.5] * 4)
    assert all(0 <= q <= 1 for level in zp.levels for q in level)
    with pytest.raises(ValueError):
        zero_probs(2, [0.5] * 3)


@pytest.mark.parametrize("bad", [2.0, float("nan"), -0.5, -1e-300, np.float64(1 + 2**-52),
                                 Fraction(-1, 10**30), Fraction(1 + 10**30, 10**30)])
def test_marginals_outside_the_unit_interval_are_refused(bad):
    margs = [0.5, bad, 0.25, 1.0]
    for entry in (zero_probs, expected_cost_greedy_zero, expected_cost_sw,
                  lambda d, m: GreedyZeroEvaluator(d, m)):
        with pytest.raises(ValueError, match=r"marginals must lie in \[0, 1\]"):
            entry(2, margs)
    for algo in ("greedy_zero", "saks_wigderson"):
        with pytest.raises(ValueError, match=r"marginals must lie in \[0, 1\]"):
            mc_cost(algo, 2, margs, 1000, seed=0)


@pytest.mark.parametrize("bad", [Fraction(1) + Fraction(1, 10**30), Fraction(-1, 10**30)])
def test_mc_cost_checks_sub_ulp_marginals_exactly_before_any_draw(bad, monkeypatch):
    # both round into [0, 1] as floats: the check reads the Fractions
    def drew(*args, **kwargs):
        raise AssertionError("mc_cost drew before it checked its marginals")

    monkeypatch.setattr(nandtree, "_summary", drew)
    for algo in ("greedy_zero", "saks_wigderson"):
        with pytest.raises(ValueError, match=r"marginals must lie in \[0, 1\]"):
            mc_cost(algo, 1, [bad, Fraction(1, 2)], 100, seed=0)


def test_mc_cost_checks_a_float_array_of_marginals_without_a_python_loop():
    class NoIteration(np.ndarray):
        def __iter__(self):
            raise AssertionError("a Python loop over the marginals")

    p = golden_marginals(4)
    got = mc_cost("saks_wigderson", 4, p.view(NoIteration), 200, seed=1)
    assert got == mc_cost("saks_wigderson", 4, p, 200, seed=1)


@pytest.mark.parametrize("d", [True, False, 1.0, 1.5, -1])
def test_zero_probs_refuse_a_depth_that_is_no_non_negative_integer(d):
    for entry in (zero_probs, expected_cost_sw, expected_cost_greedy_zero):
        with pytest.raises(ValueError, match=r"depth must be (an integer|>= 0)"):
            entry(d, [0.5, 0.5])


@given(st.integers(0, 3), st.data())
@settings(max_examples=25, deadline=None)
def test_zero_probs_against_exhaustive(d, data):
    margs = [
        data.draw(st.floats(min_value=0.05, max_value=0.95)) for _ in range(1 << d)
    ]
    assert zero_probs(d, margs).root == pytest.approx(
        root_zero_prob_exhaustive(d, margs), abs=1e-11
    )


# -- evaluators --------------------------------------------------------------------


def test_greedy_zero_trace_example():
    # left child has zero-prob 0.1, right 0.9: right goes first, then left
    value, queries = greedy_zero(1, [0.9, 0.1], [0, 1])
    assert (value, queries) == (1, 2)
    assert greedy_zero(0, [0.5], [1]) == (1, 1)
    assert greedy_zero(0, [0.5], [0]) == (0, 1)


def test_greedy_zero_zero_error_exhaustive():
    rng = random.Random(1)
    for d in range(4):
        margs = [rng.uniform(0.1, 0.9) for _ in range(1 << d)]
        algo = GreedyZeroEvaluator(d, margs)
        for x in all_inputs(d):
            t = Transcript(x)
            assert algo.run(t) == eval_formula(x)
            assert t.count <= 1 << d


@given(st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_greedy_order_is_its_rule_node_by_node(d, data):
    # small denominators make exact ties between sibling subtrees common
    margs = data.draw(st.lists(st.fractions(0, 1, max_denominator=4), min_size=1 << d,
                               max_size=1 << d))
    order = _greedy_order(zero_probs(d, margs))
    for k in range(d):
        width = 1 << (d - k - 1)  # leaves under each child of a depth-k node
        q = [root_zero_prob_exhaustive(d - k - 1, margs[i * width:(i + 1) * width])
             for i in range(1 << (k + 1))]
        assert order[k].tolist() == [q[2 * j] >= q[2 * j + 1] for j in range(1 << k)]


def test_fold_and_evaluator_share_the_order_below_one_ulp():
    # q_left = 2/3 - 10^-30 < q_right = 2/3, yet both round to the same
    # float, where a tie would send the run left first
    margs = [Fraction(1, 3) + Fraction(1, 10**30), Fraction(1, 3)]
    xs = np.array([[0, 0], [1, 0], [0, 1], [1, 1]], dtype=bool)  # d = 1: fold layout = natural
    (cost,) = _fold(xs, [None], None, _greedy_order(zero_probs(1, margs)))
    assert cost.tolist() == [greedy_zero(1, margs, x)[1] for x in xs.astype(int).tolist()]
    assert greedy_zero(1, margs, [1, 0]) == (1, 1)


def test_saks_wigderson_zero_error_and_examples():
    rng = np.random.default_rng(7)
    for d in range(5):
        for _ in range(40):
            x = list(rng.integers(0, 2, 1 << d))
            value, queries = saks_wigderson(d, x, rng)
            assert value == eval_formula(x)
            assert 1 <= queries <= 1 << d
    assert expected_cost_sw(1, [0, 1]) == Fraction(3, 2)
    assert expected_cost_sw(1, [1, 1]) == 2


def test_expected_cost_sw_on_one_input_is_the_exact_walk():
    # a 0/1 input, as int marginals or as Fractions beside ints, is a point
    # mass: the recursion gives the walk's Fraction (the int 1 at depth 0)
    for d in range(4):
        for x in all_inputs(d):
            cost, value = sw_walk(x, d)
            assert value == eval_formula(x)
            mixed = [Fraction(b) for b in x[:len(x) // 2]] + x[len(x) // 2:]
            for margs in (x, mixed):
                got = expected_cost_sw(d, margs)
                assert got == cost and type(got) is type(cost), (x, margs)
    assert expected_cost_sw(2, [Fraction(1, 2), Fraction(1, 2), 0, 1]) == Fraction(45, 16)


def test_expected_cost_recursions_match_exhaustive():
    rng = random.Random(5)
    for d in range(4):
        margs = [rng.uniform(0.2, 0.8) for _ in range(1 << d)]
        direct = sum(
            mu_weight(x, margs) * greedy_zero(d, margs, x)[1] for x in all_inputs(d)
        )
        assert expected_cost_greedy_zero(d, margs) == pytest.approx(direct, abs=1e-10)
        direct_sw = sum(
            mu_weight(x, margs) * float(sw_walk(x, d)[0])
            for x in all_inputs(d)
        )
        assert expected_cost_sw(d, margs) == pytest.approx(direct_sw, abs=1e-10)


def test_expected_costs_keep_the_marginals_arithmetic():
    # Fraction marginals give the exhaustive sums exactly, not just closely
    rng = random.Random(6)
    for d in range(4):
        margs = [Fraction(rng.randint(0, 8), 8) for _ in range(1 << d)]
        assert expected_cost_greedy_zero(d, margs) == sum(
            mu_weight(x, margs) * greedy_zero(d, margs, x)[1] for x in all_inputs(d))
        assert expected_cost_sw(d, margs) == sum(
            mu_weight(x, margs) * sw_walk(x, d)[0] for x in all_inputs(d))
    # any float marginal makes the recursion float64, read back as Python
    # floats, and depth 0 costs the int 1
    assert type(expected_cost_greedy_zero(3, [0.5] * 8)) is float
    assert type(expected_cost_sw(3, golden_marginals(3))) is float
    assert type(expected_cost_sw(2, [Fraction(1, 2), 0.5, 1, 0])) is float
    p32 = np.float32(0.3)  # float32 marginals run in float64, not float32
    assert repr(expected_cost_greedy_zero(4, [p32] * 16)) == repr(
        expected_cost_greedy_zero(4, [float(p32)] * 16))
    assert type(zero_probs(2, [1, 0, 1, 1]).root) is int
    assert repr(expected_cost_greedy_zero(0, golden_marginals(0))) == "1"


# -- Monte Carlo --------------------------------------------------------------------


def test_mc_cost_matches_exact():
    margs = list(golden_marginals(5))
    est = mc_cost("greedy_zero", 5, margs, 20_000, seed=3)
    assert est.mean == pytest.approx(expected_cost_greedy_zero(5, margs), abs=4 * est.half_width_95 + 1e-9)
    est = mc_cost("saks_wigderson", 5, margs, 20_000, seed=4)
    assert est.mean == pytest.approx(expected_cost_sw(5, margs), abs=4 * est.half_width_95 + 1e-9)


def test_mc_cost_point_mass_is_deterministic():
    est = mc_cost("greedy_zero", 2, [1.0, 1.0, 1.0, 1.0], 500, seed=1)
    assert est.half_width_95 == 0
    assert est.mean == greedy_zero(2, [1.0 - 1e-9] * 4, [1, 1, 1, 1])[1]


def test_mc_cost_ci_scaling_and_reproducibility():
    margs = list(golden_marginals(4))
    small = mc_cost("saks_wigderson", 4, margs, 2_000, seed=9)
    big = mc_cost("saks_wigderson", 4, margs, 8_000, seed=9)
    assert big.half_width_95 < small.half_width_95
    again = mc_cost("saks_wigderson", 4, margs, 2_000, seed=9)
    assert again == small
    with pytest.raises(ValueError):
        mc_cost("greedy_zero", 2, [0.5] * 4, 50, seed=0)
    with pytest.raises(ValueError):
        mc_cost("mystery", 2, [0.5] * 4, 500, seed=0)


# -- the polynomial bound and exponent fits -----------------------------------------


def test_max_two_level_factor_against_grid():
    xs = np.linspace(0.0, 1.0, 1_000_001)
    grid = ((2 - xs) * (1 + 2 * xs - xs * xs)).max()
    assert max_two_level_factor() == pytest.approx(grid, abs=1e-9)
    assert math.sqrt(max_two_level_factor()) < (1 + math.sqrt(33)) / 4  # strictly below alpha


def test_two_level_bound_random_and_golden():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(2, 4)
        margs = [rng.uniform(0.05, 0.95) for _ in range(1 << d)]
        rep = two_level_traced_bound(d, margs)
        assert rep["ok"], rep
    rep = two_level_traced_bound(6, list(golden_marginals(6)))
    assert rep["ok"]
    assert rep["rhs"] / rep["t_star"] <= max_two_level_factor() + 1e-9


def test_two_level_bound_is_decided_exactly_on_exact_marginals():
    # all-ones leaves meet the bound with equality: lhs = rhs = 2 at d = 2
    rep = two_level_traced_bound(2, [1, 1, 1, 1])
    assert rep["lhs"] == rep["rhs"] == 2 and rep["ok"]
    rng = random.Random(12)
    for d in (2, 3, 4):
        for _ in range(10):
            rep = two_level_traced_bound(d, [Fraction(rng.randint(0, 6), 6) for _ in range(1 << d)])
            assert all(isinstance(rep[k], (int, Fraction)) for k in ("lhs", "rhs", "gamma", "t_star"))
            assert rep["ok"] and rep["lhs"] <= rep["rhs"], rep


def test_fit_exponent():
    base, resid = fit_exponent([(d, 3.0 * 1.6**d) for d in range(4, 10)])
    assert base == pytest.approx(1.6, abs=1e-9) and resid < 1e-12
    base, _ = fit_exponent([(d, 2.5) for d in range(4, 8)])
    assert base == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        fit_exponent([(4, 1.0), (5, 2.0), (6, 4.0)])
    with pytest.raises(ValueError):
        fit_exponent([(4, 1.0), (5, 0.0), (6, 4.0), (7, 8.0)])


def test_golden_marginals_are_stationary():
    zp = zero_probs(6, list(golden_marginals(6)))
    q = zp.levels[0][0]
    for level in zp.levels:
        for v in level:
            assert v == pytest.approx(q, abs=1e-12)
    costs = [(d, expected_cost_greedy_zero(d, list(golden_marginals(d)))) for d in range(4, 11)]
    base, _ = fit_exponent(costs)
    assert base == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-6)


def test_tile_marginals():
    block = [0.2, 0.4, 0.6]
    tiled = tile_marginals(block, 3)
    assert len(tiled) == 8
    assert list(tiled[:3]) == block and tiled[3] == 0.2
