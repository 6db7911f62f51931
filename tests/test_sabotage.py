import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

import qclab.sabotage as sabotage
from qclab.boolfunc import BooleanFunction, nand2
from qclab.dtree import run
from qclab.games import zero_error_trees
from qclab.nandtree import (
    MC_MAX_DEPTH,
    MC_Z,
    SaksWigderson,
    Transcript,
    _bitrev,
    _eval,
    eval_formula,
    fit_exponent,
    mc_cost,
)
from qclab.sabotage import (
    BOUND_MATRIX,
    _lift_step,
    _sample_pairs,
    _sep_counts,
    HardPair,
    SeparationError,
    check_embedding,
    check_recursions,
    sep_value_counts,
    enumerate_hard_pairs,
    estimate_sep_counts,
    exact_base_cases,
    expected_sep_cost_sw,
    mc_sep_cost,
    q_counts_sw,
    sample_hard_pair,
    spectral_alpha,
    block_case_bounds,
)


# -- the hard distribution -------------------------------------------------------


def test_sample_p0_is_the_point_pair():
    rng = np.random.default_rng(0)
    pair = sample_hard_pair(0, rng)
    assert pair.x == (0,) and pair.y == (1,)


def test_p1_support():
    sup = sorted(enumerate_hard_pairs(1))
    assert sup == [
        (Fraction(1, 2), (1, 1), (0, 1)),
        (Fraction(1, 2), (1, 1), (1, 0)),
    ]


def test_enumeration_refuses_a_depth_outside_0_to_4():
    # level 5 would take about 2.7e8 single-pair lifts
    for d in (-1, 5, 40):
        with pytest.raises(ValueError, match=r"enumeration depth must be in \[0, 4\]"):
            enumerate_hard_pairs(d)


def test_sampling_refuses_a_depth_outside_the_monte_carlo_cap_before_any_draw():
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="depth must be >= 0"):
        sample_hard_pair(-1, rng)
    with pytest.raises(ValueError, match=f"Monte-Carlo cap {MC_MAX_DEPTH}"):
        sample_hard_pair(MC_MAX_DEPTH + 1, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("d", [True, False, 2.0, 1.5, "2", None])
def test_every_sampler_refuses_a_depth_that_is_no_integer_before_any_draw(d):
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="depth must be an integer"):
        sample_hard_pair(d, rng)
    with pytest.raises(ValueError, match="depth must be an integer"):
        enumerate_hard_pairs(d)
    with pytest.raises(ValueError, match="depth must be an integer"):
        mc_sep_cost("saks_wigderson", d, 200, 0)
    with pytest.raises(ValueError, match="depth must be an integer"):
        estimate_sep_counts("saks_wigderson", d, 1, 200, 0)
    with pytest.raises(ValueError, match="depth must be an integer"):
        mc_cost("greedy_zero", d, [0.5, 0.5], 200, 0)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("samples", [True, 150.5, 200.0, "200", None])
def test_the_folds_refuse_a_sample_count_that_is_no_integer(samples):
    with pytest.raises(ValueError, match="samples must be an integer"):
        mc_sep_cost("saks_wigderson", 2, samples, 0)
    with pytest.raises(ValueError, match="samples must be an integer"):
        estimate_sep_counts("saks_wigderson", 2, 1, samples, 0)
    with pytest.raises(ValueError, match="samples must be an integer"):
        mc_cost("greedy_zero", 1, [0.5, 0.5], samples, 0)


@pytest.mark.parametrize("t", [True, 1.0, 0.5, "1", None])
def test_sep_count_estimates_refuse_a_level_that_is_no_integer(t):
    with pytest.raises(ValueError, match="t must be an integer"):
        estimate_sep_counts("saks_wigderson", 2, t, 200, 0)


def test_support_invariant_and_embedding_audit():
    rng = np.random.default_rng(1)
    for d in range(5):
        for _ in range(300):
            pair = sample_hard_pair(d, rng)
            assert eval_formula(pair.x) == 0
            assert eval_formula(pair.y) == 1
            assert check_embedding(pair)
            assert sum(a != b for a, b in zip(pair.x, pair.y)) == 1


def test_case_a_blocks_are_all_ones():
    # a level-t coordinate that reads 0 on both strings (the value of its
    # subtree) lies off the differing leaf's path, and its block, the values
    # of its two children, reads (1, 1) in both strings
    rng = np.random.default_rng(2)
    seen = False
    for _ in range(200):
        pair = sample_hard_pair(3, rng)
        at = pair.differing_index()
        for t in range(3):
            w = 8 >> t  # leaves under a level-t coordinate
            for i in range(1 << t):
                xs, ys = pair.x[i * w:(i + 1) * w], pair.y[i * w:(i + 1) * w]
                if eval_formula(xs) == eval_formula(ys) == 0:
                    seen = True
                    assert at // w != i
                    for z in (xs, ys):
                        assert (eval_formula(z[:w // 2]), eval_formula(z[w // 2:])) == (1, 1)
    assert seen


def test_corrupted_block_detected():
    # clearing the padded 1 beside a block's 0 in both strings keeps g(x) = 0,
    # g(y) = 1 and one differing index, but writes a (0, 0) block, which no
    # lift writes
    rng = np.random.default_rng(3)
    for _ in range(20):
        pair = sample_hard_pair(2, rng)
        block = pair.differing_index() // 2
        (pad,) = [j for j, v in enumerate(pair.x) if v > pair.x[j ^ 1] and j // 2 != block]
        x, y = (z[:pad] + (0,) + z[pad + 1:] for z in (pair.x, pair.y))
        assert eval_formula(x) == 0 and eval_formula(y) == 1
        assert sum(a != b for a, b in zip(x, y)) == 1
        assert check_embedding(pair) and not check_embedding(HardPair(2, x, y))


@pytest.mark.parametrize("d", range(4))
def test_audit_accepts_exactly_the_enumerated_support(d):
    # among every (x, y) that differs at one index
    n = 1 << d
    accepted = set()
    for x in itertools.product((0, 1), repeat=n):
        for i in range(n):
            y = x[:i] + (1 - x[i],) + x[i + 1:]
            if check_embedding(HardPair(d, x, y)):
                accepted.add((x, y))
    assert accepted == {(x, y) for _, x, y in enumerate_hard_pairs(d)}
    assert len(accepted) == (1, 2, 8, 64)[d]


def test_audit_refuses_malformed_pairs():
    pair = sample_hard_pair(3, np.random.default_rng(4))
    x, y = pair.x, pair.y
    assert check_embedding(pair)
    assert not check_embedding(HardPair(3, x, x))  # g(y) = 0
    assert not check_embedding(HardPair(3, x[:4], y[:4]))
    assert not check_embedding(HardPair(3, x + (1,), y + (1,)))
    assert not check_embedding(HardPair(2, x, y))
    assert not check_embedding(HardPair(4, x, y))
    # the padded 1 beside a block's 0 unlifts to the same value as any number
    block = pair.differing_index() // 2
    pad = next(j for j, v in enumerate(x) if v > x[j ^ 1] and j // 2 != block)
    for bad in (2, -1, 0.5, "1", None):
        assert not check_embedding(HardPair(3, *(z[:pad] + (bad,) + z[pad + 1:] for z in (x, y))))
    assert not check_embedding(HardPair(-1, (0,), (1,)))
    assert not check_embedding(HardPair(True, (1, 1), (0, 1)))


def sample_pairs_batch(d, n, rng):
    """The batch sampler's pairs in natural order, as uint8 (x, y) rows."""
    x, at = _sample_pairs(d, n, rng)
    rev = _bitrev(1 << d)
    x = x[:, rev].view(np.uint8)
    y = x.copy()
    y[np.arange(n), rev[at]] ^= 1
    return x, y


def test_batch_sampler_matches_support():
    rng = np.random.default_rng(4)
    n = 30_000
    x, y = sample_pairs_batch(3, n, rng)
    assert all(eval_formula(row) == 0 for row in np.unique(x, axis=0).tolist())
    assert all(eval_formula(row) == 1 for row in np.unique(y, axis=0).tolist())
    assert ((x != y).sum(axis=1) == 1).all()
    support = {(xx, yy): p for p, xx, yy in enumerate_hard_pairs(2)}
    x2, y2 = sample_pairs_batch(2, n, rng)
    seen = {}
    for row_x, row_y in zip(map(tuple, x2.tolist()), map(tuple, y2.tolist())):
        seen[(row_x, row_y)] = seen.get((row_x, row_y), 0) + 1
    assert set(seen) == set(support)
    for key, count in seen.items():
        assert count / n == pytest.approx(float(support[key]), abs=0.015)


# -- the lift ---------------------------------------------------------------------


def _natural_lift(x, at, b):
    """The lift in natural order: coordinate i becomes the block at 2i
    (slot 0) and 2i + 1 (slot 1), and the differing index moves to
    2 at + b_at."""
    out = np.stack([~x | b, ~x | ~b], axis=-1).reshape(len(x), -1)
    return out, 2 * at + b[np.arange(len(x)), at]


@pytest.mark.parametrize("w", [1, 2, 4, 8])
def test_halves_lift_is_the_natural_lift_permuted(w):
    # every (x, at, b) at width w, one per row
    strings = (np.arange(1 << w)[:, None] >> np.arange(w)) & 1 == 1
    xi, at, bi = (a.ravel() for a in np.meshgrid(np.arange(1 << w), np.arange(w),
                                                 np.arange(1 << w), indexing="ij"))
    x, b = strings[xi], strings[bi]
    rev, rev2 = _bitrev(w), _bitrev(2 * w)
    got, got_at = _lift_step(x[:, rev], rev[at], b[:, rev])
    want, want_at = _natural_lift(x, at, b)
    assert np.array_equal(got[:, rev2], want)
    assert np.array_equal(rev2[got_at], want_at)


# -- the lift chain: the oracle of the lift lemma ------------------------------------


class _LiftView:
    """Query access seen by the inner algorithm: slot 1-b_i answers 1 for
    free, slot b_i consumes a real query and answers the complement."""

    def __init__(self, outer, b):
        self.outer = outer
        self.b = b

    def query(self, j: int) -> int:
        i, slot = divmod(j, 2)
        if slot != self.b[i]:
            return 1
        return 1 - self.outer.query(i)


class LiftedAlgorithm:
    """A zero-error algorithm for g_t built from one for g_{t+1} by sampling
    the lift bits internally and intercepting padded queries."""

    def __init__(self, base):
        if base.depth < 1:
            raise ValueError("cannot lift below depth 0")
        self.base = base
        self.depth = base.depth - 1

    def run(self, access, rng) -> int:
        b = [int(v) for v in rng.integers(0, 2, size=1 << self.depth)]
        return self.base.run(_LiftView(access, b), rng)


def lift_chain(base, t: int):
    """Repeatedly lift an algorithm for g_d down to one for g_t."""
    if t > base.depth:
        raise ValueError("target level above the base algorithm's depth")
    algo = base
    while algo.depth > t:
        algo = LiftedAlgorithm(algo)
    return algo


def test_lift_chain_zero_error():
    rng = np.random.default_rng(5)
    base = SaksWigderson(3)
    for t in range(4):
        algo = lift_chain(base, t)
        assert algo.depth == t
        for _ in range(40):
            x = [int(v) for v in rng.integers(0, 2, 1 << t)]
            assert algo.run(Transcript(x), rng) == eval_formula(x)
    with pytest.raises(ValueError):
        lift_chain(base, 4)
    with pytest.raises(ValueError):
        LiftedAlgorithm(lift_chain(base, 0))


def test_lift_separation_coupling():
    # the lifted algorithm consumes its real queries exactly where the inner
    # run hits the embedded slots, so separation happens at the same step
    rng = np.random.default_rng(6)
    for _ in range(200):
        pair = sample_hard_pair(1, rng)
        b = [int(v) for v in rng.integers(0, 2, len(pair.x))]
        outer = Transcript(pair.x)
        inner_view = _LiftView(outer, b)
        inner_log = Transcript([0] * (2 * len(pair.x)))  # storage for the order
        orig_query = inner_view.query

        def probe(j):
            inner_log.order.append(j)
            return orig_query(j)

        inner_view.query = probe
        SaksWigderson(2).run(inner_view, rng)
        # inner differing index is the b-slot of the outer differing block
        outer_diff = pair.differing_index()
        inner_diff = 2 * outer_diff + b[outer_diff]
        outer_pos = outer.order.index(outer_diff)
        real_steps = [j for j in inner_log.order if j % 2 == b[j // 2]]
        assert real_steps.index(inner_diff) == outer_pos


# -- separation accounting ----------------------------------------------------------


def _sep_cost(d, x, y, rng):
    """Queries of the randomized evaluator on x up to separation from y."""
    return sum(sep_value_counts(SaksWigderson(d), d, x, y, rng))


def test_sep_cost_examples():
    rng = np.random.default_rng(7)
    # differing everywhere: first query separates
    assert _sep_cost(1, (1, 1), (0, 0), rng) == 1
    costs = [_sep_cost(1, (1, 1), (0, 1), rng) for _ in range(4000)]
    assert np.mean(costs) == pytest.approx(1.5, abs=0.05)
    assert expected_sep_cost_sw(1) == Fraction(3, 2)


def test_sep_cost_requires_separation():
    class Lazy:
        depth = 1

        def run(self, access, rng):
            return None  # queries nothing

    with pytest.raises(SeparationError):
        sep_value_counts(Lazy(), 1, (1, 1), (0, 1), np.random.default_rng(0))


def test_count_q_trace_example():
    class RightThenLeft:
        depth = 1

        def run(self, access, rng):
            access.query(1)
            access.query(0)
            return None

    q0, q1 = sep_value_counts(RightThenLeft(), 1, (1, 1), (0, 1), np.random.default_rng(0))
    assert (q0, q1) == (0, 2)
    with pytest.raises(ValueError):
        sep_value_counts(RightThenLeft(), 2, (1, 1, 1, 1), (0, 1, 1, 1), np.random.default_rng(0))


def test_accounting_identity_q0_plus_q1_is_sep_cost():
    # q0 + q1 is the separating query's position in the run's transcript, plus one
    rng = np.random.default_rng(8)
    for _ in range(150):
        d = int(rng.integers(0, 4))
        pair = sample_hard_pair(d, rng)
        seed = int(rng.integers(0, 2**32))
        access = Transcript(pair.x)
        SaksWigderson(d).run(access, np.random.default_rng(seed))
        q0, q1 = sep_value_counts(SaksWigderson(d), d, pair.x, pair.y, np.random.default_rng(seed))
        assert q0 + q1 == access.order.index(pair.differing_index()) + 1


def test_sep_cost_same_on_both_runs():
    # the two runs share one transcript until the separating query
    rng = np.random.default_rng(9)
    for _ in range(100):
        d = int(rng.integers(1, 4))
        pair = sample_hard_pair(d, rng)
        seed = int(rng.integers(0, 2**32))
        on_x = _sep_cost(d, pair.x, pair.y, np.random.default_rng(seed))
        on_y = _sep_cost(d, pair.y, pair.x, np.random.default_rng(seed))
        assert on_x == on_y


def test_mc_sep_cost_matches_exact_recursion():
    for d in (1, 2, 3, 4, 5):
        est = mc_sep_cost("saks_wigderson", d, 30_000, seed=20 + d)
        assert est.mean == pytest.approx(
            float(expected_sep_cost_sw(d)), abs=4 * est.half_width_95 + 1e-9
        )
    with pytest.raises(ValueError, match="unknown algorithm 'greedy_zero'"):
        mc_sep_cost("greedy_zero", 3, 1000, seed=0)


def test_every_static_child_order_separates_as_saks_wigderson():
    # swapping a node's two children leaves the hard-pair distribution
    # unchanged, so each of the 2^(2^t - 1) fixed child orders has exactly
    # the Saks-Wigderson counts, on both runs
    for t in range(4):
        pairs = enumerate_hard_pairs(t)
        for bits in itertools.product((False, True), repeat=(1 << t) - 1):
            order = [bits[(1 << k) - 1:(2 << k) - 1] for k in range(t)]
            for run_on in ("x", "y"):
                q = [Fraction(0), Fraction(0)]
                for prob, x, y in pairs:
                    a, b = (x, y) if run_on == "x" else (y, x)
                    access = Transcript(a)
                    _eval(access, t, order, None)
                    for i, count in enumerate(_sep_counts(access.order, a, b)):
                        q[i] += prob * count
                assert tuple(q) == q_counts_sw(t, run_on), (t, bits, run_on)


# -- Q estimation ---------------------------------------------------------------------


def test_estimate_q_level_zero_exact():
    e0, e1 = estimate_sep_counts("saks_wigderson", 3, 0, 2000, seed=1)
    assert (e0.mean, e1.mean) == (1.0, 0.0)
    assert e0.half_width_95 == 0


def test_estimate_q_level_one_anchors():
    # x-run: x = (1,1) so Q(1,0) = 0 and Q(1,1) = 3/2 for any chain
    e0, e1 = estimate_sep_counts("saks_wigderson", 4, 1, 20_000, seed=3)
    assert e0.mean == 0.0
    assert e1.mean == pytest.approx(1.5, abs=4 * e1.sigma + 1e-9)
    # y-run anchors: Q(1,0) = 1 and Q(1,1) = 1/2
    e0y, e1y = estimate_sep_counts("saks_wigderson", 4, 1, 20_000, seed=4, run_on="y")
    assert e0y.mean == pytest.approx(1.0, abs=1e-12)
    assert e1y.mean == pytest.approx(0.5, abs=4 * e1y.sigma + 1e-9)


def test_estimate_q_engines_agree():
    # the fold against the exact recursion, within MC_Z sigma per cell; a cell
    # with no spread (Q(0, .), and Q(1, 0) on either run) must be exact
    for run_on in ("x", "y"):
        for t in range(9):
            est = estimate_sep_counts("saks_wigderson", 8, t, 20_000, seed=5 + t, run_on=run_on)
            for b, (e, q) in enumerate(zip(est, q_counts_sw(t, run_on))):
                assert e.z(q) <= MC_Z, (run_on, t, b, e.mean, q)


class _Bits:
    """A generator that serves fair bits from a fixed tuple, in order."""

    def __init__(self, bits):
        self.bits = iter(bits)

    def integers(self, low, high, size=None):
        assert (low, high) == (0, 2)
        if size is None:
            return next(self.bits)
        return np.array([next(self.bits) for _ in range(size)])


def _enumerated_q(d, t, run_on):
    """Exact (Q(t,0), Q(t,1)) of the chain lifted from Saks-Wigderson at
    depth d down to level t: every level-t hard pair, weighted by its
    probability, against every string of its lift bits (levels t..d-1) and
    coins (at most one per internal node of the depth-d tree)."""
    algo = lift_chain(SaksWigderson(d), t)
    n_bits = (1 << d) - (1 << t) + (1 << d) - 1
    q = [Fraction(0), Fraction(0)]
    for prob, x, y in enumerate_hard_pairs(t):
        a, b = (x, y) if run_on == "x" else (y, x)
        totals = np.zeros(2, dtype=np.int64)
        for bits in itertools.product((0, 1), repeat=n_bits):
            totals += sep_value_counts(algo, t, a, b, _Bits(bits))
        q = [qb + prob * int(tb) for qb, tb in zip(q, totals)]
    return tuple(qb / (1 << n_bits) for qb in q)


def test_lift_chain_lemma_is_exact():
    # the chain lifted from depth d has the Q distribution of plain
    # Saks-Wigderson at level t (docs/decisions.md, entry 3), and brute force
    # pins the leaf-type recursion there (entry 12); d = 4 would need 2^30
    # strings per level
    for run_on in ("x", "y"):
        for t in range(4):
            plain = _enumerated_q(t, t, run_on)
            assert plain == q_counts_sw(t, run_on), (t, run_on)
            for d in range(t + 1, 4):
                assert _enumerated_q(d, t, run_on) == plain, (d, t, run_on)


def _two_state_sep_cost(d):
    """E[separation cost] from the two-state block recursion: the full
    evaluation costs w0, w1 of the two no-difference block types, and the
    cost s of the block holding the differing index."""
    w0 = w1 = Fraction(1)
    s = Fraction(1)
    for _ in range(d):
        s = s + w1 / 2
        w0, w1 = 2 * w1, w0 + w1 / 2
    return s


def test_q_counts_sum_to_the_two_state_sep_cost():
    assert q_counts_sw(1, "x") == (0, Fraction(3, 2))
    assert q_counts_sw(1, "y") == (1, Fraction(1, 2))
    for d in range(61):
        cost = expected_sep_cost_sw(d)
        assert isinstance(cost, Fraction) and cost == _two_state_sep_cost(d), d
        assert sum(q_counts_sw(d, "y")) == cost, d
    for t, run_on in ((-1, "x"), (2, "z")):
        with pytest.raises(ValueError):
            q_counts_sw(t, run_on)


def test_estimate_q_does_not_depend_on_d():
    for t in (0, 2, 3):
        for run_on in ("x", "y"):
            at_t = estimate_sep_counts("saks_wigderson", t, t, 1000, seed=11, run_on=run_on)
            for d in (t + 1, 8):
                assert estimate_sep_counts("saks_wigderson", d, t, 1000, seed=11,
                                           run_on=run_on) == at_t


def test_estimate_q_ci_shrinks():
    small = estimate_sep_counts("saks_wigderson", 4, 3, 2_000, seed=7)[1]
    big = estimate_sep_counts("saks_wigderson", 4, 3, 16_000, seed=7)[1]
    assert big.half_width_95 < small.half_width_95


def test_estimate_q_validation():
    with pytest.raises(ValueError, match="t = 3"):
        estimate_sep_counts("saks_wigderson", 2, 3, 1000, seed=0)
    with pytest.raises(ValueError, match="t = -1"):
        estimate_sep_counts("saks_wigderson", 3, -1, 1000, seed=0)
    with pytest.raises(ValueError, match="unknown base algorithm"):
        estimate_sep_counts(SaksWigderson(3), 3, 1, 100, seed=0)
    with pytest.raises(ValueError):
        estimate_sep_counts("saks_wigderson", 3, 1, 100, seed=0, run_on="z")


# -- Table 1 and the recursion --------------------------------------------------------


def test_case_table_exact_values():
    rep = block_case_bounds()
    assert rep.bounds == {
        (0, 0): Fraction(0),
        (0, 1): Fraction(2),
        (1, 0): Fraction(1),
        (1, 1): Fraction(1, 2),
    }
    assert BOUND_MATRIX == ((0, 1), (2, Fraction(1, 2)))  # row b' holds F(., b')
    # the pruned one-query tree realizes the (1,0) bound with value 1
    assert rep.per_tree[("stop0", 1, 0)] == 1
    assert rep.per_tree[("both0", 1, 1)] == Fraction(1, 2)


def test_exact_base_cases():
    base = exact_base_cases()
    assert base == {
        (0, 0): Fraction(1),
        (0, 1): Fraction(0),
        (1, 0): Fraction(0),
        (1, 1): Fraction(3, 2),
    }


def test_exact_base_cases_match_the_runs_tree_by_tree():
    # every zero-error tree run on the x of every hard pair by dtree.run, its
    # queries counted up to separation by _sep_counts, the minima over trees
    want = {}
    for t, f in ((0, BooleanFunction(1, 0b10)), (1, nand2())):
        totals = []
        for tree in zero_error_trees(f):
            total = [Fraction(0), Fraction(0)]
            for prob, x, y in enumerate_hard_pairs(t):
                counts = _sep_counts([var - 1 for var in run(tree, x).queried], x, y)
                total = [q + prob * c for q, c in zip(total, counts)]
            totals.append(total)
        for b in (0, 1):
            want[(t, b)] = min(total[b] for total in totals)
    assert repr(exact_base_cases()) == repr(want)


def synthetic_rows(levels, start=(Fraction(1), Fraction(0))):
    """Exact iterates of the bound matrix as Q rows."""
    out = {0: start}
    for t in range(levels):
        out[t + 1] = tuple(sum(c * v for c, v in zip(row, out[t])) for row in BOUND_MATRIX)
    return out


def test_check_recursions_synthetic_equality():
    rep = check_recursions(synthetic_rows(6))
    assert rep.ok and rep.corrected_ok and rep.base_ok
    assert [(r["name"], r["allowance"]) for r in rep.rows[:2]] == [
        ("Q(1,0) >= Q(0,1)", 0), ("Q(1,1) >= 2 Q(0,0) + Q(0,1)/2", 1)]
    for row in rep.rows:
        assert row["lhs"] == row["rhs"]


def test_check_recursions_refuse_estimates_without_consecutive_levels():
    rows = synthetic_rows(4)
    for levels in ((), (0,), (3,), (0, 2), (1, 3)):
        with pytest.raises(ValueError, match="two consecutive levels"):
            check_recursions({t: rows[t] for t in levels})
    assert len(check_recursions({t: rows[t] for t in (0, 2, 3)}).rows) == 2


def test_check_recursions_on_the_chain():
    rep = check_recursions({t: q_counts_sw(t) for t in range(9)})
    # on the exact rows every literal row that holds holds with equality, and
    # the factor-2 rows at even t miss by exactly 1/2 (differing-block defect),
    # within the corrected form's allowance of 1
    assert rep.corrected_ok and rep.base_ok and not rep.ok
    assert sum(r["ok"] and r["lhs"] == r["rhs"] for r in rep.rows) == 12
    assert [(r["t"], r["rhs"] - r["lhs"]) for r in rep.rows if not r["ok"]] == [
        (t, Fraction(1, 2)) for t in (0, 2, 4, 6)]
    assert all("2 Q" in r["name"] for r in rep.rows if not r["ok"])


def test_check_recursions_detects_swapped_columns():
    q = {t: q_counts_sw(t) for t in range(6)}
    rep = check_recursions({t: (q1, q0) for t, (q0, q1) in q.items()})
    assert not rep.ok and not rep.corrected_ok


def test_spectral_alpha():
    a = spectral_alpha()
    assert a == pytest.approx((1 + math.sqrt(33)) / 4, abs=1e-15)
    assert a * a - a / 2 - 2 == pytest.approx(0, abs=1e-12)
    m = np.array([[0.0, 1.0], [2.0, 0.5]])
    v = np.ones(2)
    for _ in range(200):
        v = m @ v
        v /= np.linalg.norm(v)
    assert (m @ v)[0] / v[0] == pytest.approx(a, abs=1e-12)
    v = np.ones(2)
    prev = None
    for _ in range(60):
        v = m @ v
    assert (m @ v)[1] / v[1] == pytest.approx(a, abs=1e-9)


def test_spectral_alpha_is_read_off_the_bound_matrix(monkeypatch):
    assert repr(spectral_alpha()) == repr((1 + math.sqrt(33)) / 4)
    # x^2 - x/2 - 3 has the root 2
    monkeypatch.setattr(sabotage, "BOUND_MATRIX", ((0, 1), (3, Fraction(1, 2))))
    assert spectral_alpha() == 2.0


def test_separation_cost_growth_rate():
    # any zero-error evaluator pays alpha^d on the hard pairs; the fitted
    # exponent of the exact recursion sits within the acceptance window
    pts = [(d, float(expected_sep_cost_sw(d))) for d in range(4, 13)]
    base, _ = fit_exponent(pts)
    assert abs(base - spectral_alpha()) < 0.05


@pytest.mark.parametrize("t", [True, False, 1.5, 2.0, -1])
def test_exact_sep_counts_refuse_a_level_that_is_no_non_negative_integer(t):
    with pytest.raises(ValueError, match=r"t must be (an integer|>= 0)"):
        q_counts_sw(t)
    with pytest.raises(ValueError, match=r"t must be (an integer|>= 0)"):
        expected_sep_cost_sw(t)
    with pytest.raises(ValueError, match="run_on must be 'x' or 'y'"):
        q_counts_sw(2, "z")
