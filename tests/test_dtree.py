import functools
import itertools
import math
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qclab.boolfunc import (
    MASS_MAX_EXACT_ARITY,
    BooleanFunction,
    ProductDistribution,
    and_f,
    avg_sensitivity,
    constant,
    influence,
    nand2,
    nand_tree,
    point_from_index,
    prob_one,
    random_dyadic_distribution,
    random_function,
    uniform_distribution,
    xor,
)
import qclab.dtree as dtree
from qclab.dtree import (
    DecisionTree,
    Leaf,
    Query,
    RandomizedTree,
    avg_leaf_bias,
    dist_error_curve_fast,
    exact_D,
    exact_Dmu_eps,
    label_leaves,
    optimal_dist_error,
    random_randomized_tree,
    random_tree,
    run,
    singleton,
    tree_error,
    tree_from_json,
    tree_leaves,
    tree_to_json,
    zero_error_expected_cost,
)


def complete_tree(m, f=None):
    """The full-depth tree querying 1..m in order, labeled by f if given."""

    def grow(fixed, var):
        if var > m:
            if f is None:
                return Leaf(None)
            idx = 0
            for i, b in fixed:
                idx |= b << (i - 1)
            return Leaf(f.value_at(idx))
        return Query(var, grow(fixed + [(var, 0)], var + 1), grow(fixed + [(var, 1)], var + 1))

    return DecisionTree(m, grow([], 1))


# -- structure ----------------------------------------------------------------


def test_repeated_variable_rejected():
    with pytest.raises(ValueError):
        DecisionTree(2, Query(1, Leaf(0), Query(1, Leaf(0), Leaf(1))))
    with pytest.raises(ValueError):
        DecisionTree(1, Query(2, Leaf(0), Leaf(1)))


def test_query_variables_must_be_ints_of_at_least_one():
    for var in (1.5, 2.0, True, False, "1", None, 0, -1):
        with pytest.raises(ValueError):
            Query(var, Leaf(0), Leaf(1))
    with pytest.raises(ValueError):
        DecisionTree(2, Query(1.5, Leaf(0), Leaf(1)))
    with pytest.raises(ValueError):
        DecisionTree(2, Query(True, Leaf(0), Leaf(1)))


def test_children_and_roots_must_be_nodes():
    for bad in (None, 0, "leaf", (Leaf(0),)):
        with pytest.raises(ValueError):
            Query(1, bad, Leaf(1))
        with pytest.raises(ValueError):
            Query(1, Leaf(0), bad)
        with pytest.raises(ValueError):
            DecisionTree(1, bad)


def test_mask_is_not_shown_compared_or_hashed():
    a = Query(2, Leaf(0), Query(1, Leaf(0), Leaf(1)))
    b = Query(2, Leaf(0), Query(1, Leaf(0), Leaf(1)))
    assert a.mask == 0b110 and Leaf(0) != a
    assert repr(a) == ("Query(var=2, child0=Leaf(label=0), "
                       "child1=Query(var=1, child0=Leaf(label=0), child1=Leaf(label=1)))")
    object.__setattr__(b, "mask", 0)
    assert a == b and hash(a) == hash(b)


@st.composite
def _raw_trees(draw, m):
    """Nested (var, child0, child1) tuples over 0..m + 1, None for a leaf:
    repeats and out-of-range variables included."""
    def grow(depth):
        if depth == 0 or draw(st.booleans()):
            return None
        return (draw(st.integers(0, m + 1)), grow(depth - 1), grow(depth - 1))

    return grow(draw(st.integers(0, m + 2)))


def _path_rule(raw, m, seen=frozenset()) -> bool:
    """The rule checked node by node, stated on paths: every variable in
    [1, m] and none repeated on a root-to-leaf path."""
    if raw is None:
        return True
    var, c0, c1 = raw
    return (1 <= var <= m and var not in seen
            and _path_rule(c0, m, seen | {var}) and _path_rule(c1, m, seen | {var}))


def _variables_below(node) -> set:
    if isinstance(node, Leaf):
        return set()
    return {node.var} | _variables_below(node.child0) | _variables_below(node.child1)


@given(st.integers(0, 5).flatmap(lambda m: st.tuples(st.just(m), _raw_trees(m))))
@settings(max_examples=300, deadline=None)
def test_node_checks_accept_exactly_the_repeat_free_trees(case):
    m, raw = case

    def build(raw):
        if raw is None:
            return Leaf(None)
        var, c0, c1 = raw
        return Query(var, build(c0), build(c1))

    try:
        tree = DecisionTree(m, build(raw))
    except ValueError:
        assert not _path_rule(raw, m)
        return
    assert _path_rule(raw, m)
    nodes = [tree.root]
    while nodes:
        node = nodes.pop()
        if isinstance(node, Query):
            assert node.mask == sum(1 << v for v in _variables_below(node))
            nodes += [node.child0, node.child1]


def test_a_repeat_in_a_shared_subtree_is_refused_at_every_root():
    # a chain of 60 shared nodes stands for 2^60 paths: checking a node reads
    # only its children's masks, never the paths below it
    shared = Leaf(None)
    for var in range(60, 1, -1):
        shared = Query(var, shared, shared)
    assert shared.mask == ((1 << 61) - 1) & ~0b11
    assert DecisionTree(60, Query(1, shared, Leaf(None))).root.mask == (1 << 61) - 2
    for var in range(2, 61):
        with pytest.raises(ValueError, match=f"variable {var} repeats"):
            Query(var, Leaf(None), shared)
    with pytest.raises(ValueError, match=r"query variable 60 out of range \[1, 59\]"):
        DecisionTree(59, shared)
    # a catalog's roots share their subtrees: the repeat sits at the bottom of
    # one node object under every root that holds it
    from qclab.games import enumerate_trees
    holders = {}
    for t in enumerate_trees(3, None, labeled=False).trees:
        nodes = [t.root]
        while nodes:
            node = nodes.pop()
            if isinstance(node, Query):
                if isinstance(node.child0, Leaf) and isinstance(node.child1, Leaf):
                    holders.setdefault(id(node), (node, {}))[1][id(t.root)] = t.root
                nodes += [node.child0, node.child1]
    bottom, roots = max(holders.values(), key=lambda item: len(item[1]))
    assert len(roots) > 20
    for root in roots.values():
        with pytest.raises(ValueError, match=f"variable {bottom.var} repeats"):
            Query(bottom.var, root, Leaf(None))


def test_run_examples():
    t = DecisionTree(2, Query(1, Leaf(0), Leaf(1)))
    res = run(t, (1, 0))
    assert res.queried == (1,) and res.output == 1 and res.leaf_id == "1"
    single = DecisionTree(3, Leaf(0))
    assert run(single, (1, 1, 1)).queried == ()

    f = xor(2)
    t = complete_tree(2, f)
    for idx in range(4):
        x = ((idx >> 0) & 1, (idx >> 1) & 1)
        assert run(t, x).output == f.value_at(idx)


def test_randomized_tree_validation():
    t = DecisionTree(1, Leaf(0))
    with pytest.raises(ValueError):
        RandomizedTree(())
    with pytest.raises(ValueError):
        RandomizedTree(((0.5, t), (0.4, t)))
    with pytest.raises(ValueError):
        RandomizedTree(((1.0, t), (0.0, t)))
    with pytest.raises(ValueError):
        RandomizedTree(((0.5, t), (0.5, DecisionTree(2, Leaf(0)))))
    r = RandomizedTree(((Fraction(1, 3), t), (Fraction(2, 3), t)))
    assert r.arity == 1 and r.complexity == 0


# -- exact_D -------------------------------------------------------------------


def test_exact_D_examples():
    for m in (1, 2, 3, 4):
        assert exact_D(xor(m)) == m
    assert exact_D(constant(3, 0)) == 0
    assert exact_D(nand_tree(2)) == 4  # depth-2 NAND tree needs every leaf


def test_exact_D_matches_brute_force_m2():
    from qclab.games import enumerate_trees

    catalog = enumerate_trees(2, None, labeled=True)
    for table in range(16):
        f = BooleanFunction(2, table)
        best = min(
            t.depth
            for t in catalog.trees
            if all(run(t, ((i >> 0) & 1, (i >> 1) & 1)).output == f.value_at(i) for i in range(4))
        )
        assert exact_D(f) == best


def test_exact_D_cap():
    with pytest.raises(ValueError):
        exact_D(constant(15, 0) if False else BooleanFunction(15, 0))


# -- distributional error DP ----------------------------------------------------


def test_optimal_dist_error_examples():
    u = uniform_distribution(2)
    assert optimal_dist_error(xor(2), u, 1) == pytest.approx(0.5)
    assert optimal_dist_error(and_f(2), u, 1) == pytest.approx(0.25)
    f = nand2()
    assert optimal_dist_error(f, u, exact_D(f)) == 0


def test_exact_Dmu_eps_examples():
    u = uniform_distribution(2)
    assert exact_Dmu_eps(xor(2), u, 1 / 3) == 2
    assert exact_Dmu_eps(nand2(), u, 0.30) == 0  # majority answer errs 1/4
    rng = random.Random(9)
    for _ in range(25):
        m = rng.randint(1, 5)
        f = random_function(m, rng)
        mu = random_dyadic_distribution(m, rng)
        assert exact_Dmu_eps(f, mu, Fraction(0)) <= exact_D(f)


def test_exact_Dmu_eps_decides_rational_eps_exactly():
    # err(0) = Pr[AND_7 = 1] = 64^-7 ~ 2.3e-13 sits inside a 1e-12 slack, so
    # only an exact comparison sees that eps = 0 needs all seven queries
    f, mu = and_f(7), ProductDistribution((Fraction(1, 64),) * 7)
    assert optimal_dist_error(f, mu, 0) == Fraction(1, 64**7)
    assert exact_Dmu_eps(f, mu, 0) == exact_Dmu_eps(f, mu, Fraction(0)) == 7
    assert exact_Dmu_eps(f, mu, Fraction(1, 64**7)) == 0
    # a float eps keeps the slack, as do float marginals
    assert exact_Dmu_eps(f, mu, 0.0) == 0
    assert exact_Dmu_eps(f, ProductDistribution((1 / 64,) * 7), 0) == 0


def test_numpy_float32_marginals_give_the_float64_values():
    f = random_function(3, random.Random(8))
    mu32 = ProductDistribution(tuple(np.float32(p) for p in (0.3, 0.6, 0.1)))
    mu64 = ProductDistribution(tuple(float(p) for p in mu32.marginals))
    for k in range(4):
        got = optimal_dist_error(f, mu32, k)
        assert type(got) is float and got == optimal_dist_error(f, mu64, k)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_dist_error_monotone_in_depth(data):
    rng = random.Random(data.draw(st.integers(0, 10**6)))
    m = rng.randint(1, 5)
    f = random_function(m, rng)
    mu = ProductDistribution(tuple(rng.uniform(0.05, 0.95) for _ in range(m)))
    prev = None
    for k in range(m + 1):
        err = optimal_dist_error(f, mu, k)
        assert 0 <= err <= 0.5 + 1e-12
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err
    assert prev == pytest.approx(0.0, abs=1e-12)


@functools.lru_cache(maxsize=None)
def _catalog_runs(m):
    """Outputs and query counts of every labeled tree on m variables, by point."""
    from qclab.games import enumerate_trees

    trees = enumerate_trees(m, None, labeled=True).trees
    points = [tuple((i >> j) & 1 for j in range(m)) for i in range(1 << m)]
    runs = [[run(t, x) for x in points] for t in trees]
    outputs = np.array([[r.output for r in row] for row in runs])
    queries = np.array([[len(r.queried) for r in row] for row in runs])
    return points, outputs, queries, np.array([t.depth for t in trees])


def _brute_force(f, mu):
    """(D, [err(k) for k = 0..m], zero-error cost) by scanning every tree."""
    points, outputs, queries, depths = _catalog_runs(f.arity)
    weights = [mu.point_prob(x) for x in points]
    if isinstance(weights[0], Fraction):  # integer sums over a common denominator
        den = math.lcm(*(w.denominator for w in weights))
        weights = np.array([int(w * den) for w in weights])
        value = lambda v: Fraction(int(v), den)
    else:
        weights, value = np.array(weights), float
    wrong = outputs != np.array(f.bits())
    correct = ~wrong.any(axis=1)
    err = wrong @ weights
    curve = [value(err[depths <= k].min()) for k in range(f.arity + 1)]
    cost = value((queries @ weights)[correct].min())
    return int(depths[correct].min()), curve, cost


def _random_cases(rng, draw_marginal, n):
    for _ in range(n):
        m = rng.randint(1, 3)
        table = rng.choice([0, (1 << (1 << m)) - 1, rng.getrandbits(1 << m)])
        yield BooleanFunction(m, table), ProductDistribution(
            tuple(draw_marginal(rng) for _ in range(m)))


def test_lattice_engine_matches_brute_force():
    # interior marginals, then 0.0 and 1.0 too, which make zero-mass subcubes
    rng = random.Random(17)
    cases = itertools.chain(
        _random_cases(rng, lambda r: r.uniform(0.05, 0.95), 30),
        _random_cases(rng, lambda r: r.choice([0.0, 1.0, r.uniform(0.05, 0.95)]), 30))
    for f, mu in cases:
        d, curve, cost = _brute_force(f, mu)
        assert exact_D(f) == d
        fast = dist_error_curve_fast(f, mu.marginals)
        assert fast.dtype == np.float64 and len(fast) == f.arity + 1
        for k in range(f.arity + 1):
            err = optimal_dist_error(f, mu, k)
            assert type(err) is float and fast[k] == err
            assert err == pytest.approx(curve[k], abs=1e-12)
        zcost = zero_error_expected_cost(f, mu)
        assert type(zcost) is (int if f.is_constant() else float)
        assert zcost == pytest.approx(cost, abs=1e-12)


def test_exact_mode_matches_brute_force():
    """Non-dyadic and 0/1 marginals: the lattice sums the exact point masses."""

    def draw(r):
        d = r.choice([3, 5, 7])
        return Fraction(r.choice([0, d, r.randint(1, d - 1)]), d)

    rng = random.Random(29)
    for f, mu in _random_cases(rng, draw, 40):
        d, curve, cost = _brute_force(f, mu)
        assert exact_D(f) == d
        for k in range(f.arity + 1):
            err = optimal_dist_error(f, mu, k)
            assert type(err) is Fraction and err == curve[k]
        for eps in (Fraction(0), Fraction(1, 7), Fraction(1, 3)):
            assert exact_Dmu_eps(f, mu, eps) == next(k for k, e in enumerate(curve) if e <= eps)
        zcost = zero_error_expected_cost(f, mu)
        assert type(zcost) is (int if f.is_constant() else Fraction) and zcost == cost


def test_exact_mode_is_capped_below_the_float_cap_before_allocating():
    # at m = 14 these object-array lattices took about a minute and 970 MiB
    f = random_function(14, random.Random(4))
    mu = ProductDistribution(tuple(Fraction(k + 1, 64) for k in range(14)))
    start = time.perf_counter()
    for call in (lambda: optimal_dist_error(f, mu, 3), lambda: zero_error_expected_cost(f, mu),
                 lambda: exact_Dmu_eps(f, mu, Fraction(1, 3))):
        with pytest.raises(ValueError, match="exact-arithmetic DP cap 13"):
            call()
    assert time.perf_counter() - start < 0.5


def test_exact_mass_vector_is_refused_above_its_cap_before_allocating():
    # an exact mass vector holds 2^m Python ints: at m = 24 that took 1.5 GiB
    m = MASS_MAX_EXACT_ARITY + 1
    f = BooleanFunction(m, 0)
    mu = ProductDistribution((Fraction(1, 3),) * m)
    tree = DecisionTree(m, Leaf(None))
    calls = (lambda: prob_one(f, mu), lambda: influence(f, mu), lambda: avg_sensitivity(f, mu),
             lambda: avg_leaf_bias(singleton(tree), f, mu), lambda: label_leaves(tree, f, mu),
             lambda: tree_error(DecisionTree(m, Leaf(0)), f, mu))
    tracemalloc.start()
    try:
        for call in calls:
            with pytest.raises(ValueError, match=f"exact point masses capped at arity {m - 1}"):
                call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_dist_error_curve_large_arity_and_cap():
    f = random_function(13, random.Random(3))
    mu = uniform_distribution(13)
    curve = dist_error_curve_fast(f, mu.marginals)
    q = prob_one(f, mu)
    assert curve[0] == pytest.approx(min(q, 1 - q)) and curve[-1] == 0
    assert all(b <= a for a, b in zip(curve, curve[1:]))
    with pytest.raises(ValueError):
        dist_error_curve_fast(BooleanFunction(15, 0), [0.5] * 15)


# Zero-mass marginals per arity: each has a 0 or a 1, and the last is a point mass.
_ZERO_MASS = {
    1: [(0,), (1,)],
    2: [(0, Fraction(1, 3)), (Fraction(2, 5), 1), (1, 0)],
    3: [(0, Fraction(1, 3), 1), (Fraction(3, 7), 1, Fraction(1, 2)), (1, 0, 1)],
}


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zero_mass_marginals_match_brute_force(m):
    """Marginals of exactly 0 and 1, as Fractions and as floats, on every
    function of arity m: every DP against the catalog brute force."""
    for table in range(1 << (1 << m)):
        f = BooleanFunction(m, table)
        for marginals in _ZERO_MASS[m]:
            for mu, eps_list in (
                    (ProductDistribution(tuple(Fraction(p) for p in marginals)),
                     (Fraction(0), Fraction(1, 4), Fraction(1, 3))),
                    (ProductDistribution(tuple(float(p) for p in marginals)), (0.0, 0.25, 1 / 3))):
                exact = isinstance(mu.marginals[0], Fraction)
                equal = (lambda a, b: a == b) if exact else (
                    lambda a, b: a == pytest.approx(b, abs=1e-12))
                d, curve, cost = _brute_force(f, mu)
                assert exact_D(f) == d
                for k in range(m + 2):
                    err = optimal_dist_error(f, mu, k)
                    assert type(err) is (Fraction if exact else float)
                    assert equal(err, curve[min(k, m)])
                zcost = zero_error_expected_cost(f, mu)
                assert type(zcost) is (int if f.is_constant() else type(err))
                assert equal(zcost, cost)
                fast = dist_error_curve_fast(f, mu.marginals)
                assert fast == pytest.approx([float(e) for e in curve], abs=1e-12)
                for eps in eps_list:
                    slack = 0 if exact else 1e-12
                    least = next(k for k, e in enumerate(curve) if e <= eps + slack)
                    assert exact_Dmu_eps(f, mu, eps) == least
                    stop = next(k for k, e in enumerate(fast) if e <= eps + 1e-12)
                    stopped = dist_error_curve_fast(f, mu.marginals, eps)
                    assert stopped.tobytes() == fast[:stop + 1].tobytes()


def test_a_negative_or_nan_eps_is_refused_before_any_lattice_work(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("a lattice was built before eps was checked")

    monkeypatch.setattr(dtree, "_Lattice", no_lattice)
    u = uniform_distribution(2)
    for eps in (-0.1, float("nan"), -math.inf, Fraction(-1, 3), -1):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            exact_Dmu_eps(xor(2), u, eps)
        with pytest.raises(ValueError, match="eps must be >= 0"):
            dist_error_curve_fast(xor(2), u.marginals, eps)


def test_marginals_outside_the_unit_interval_are_refused_before_any_lattice_work(monkeypatch):
    def no_lattice(*args, **kwargs):
        raise AssertionError("a lattice was built before the marginals were checked")

    monkeypatch.setattr(dtree, "_Lattice", no_lattice)
    # [1.5, 0.5] gave the curve [0.5, -0.5, -0.5], and -0.5 with eps 0.1 a D_mu,eps of 0
    for marginals in ([1.5, 0.5], [float("nan"), 0.5], [-0.5, 0.5], [0.5, math.inf]):
        for eps in (None, 0.1):
            with pytest.raises(ValueError, match="outside \\[0, 1\\]"):
                dist_error_curve_fast(xor(2), marginals, eps)


# Curves of the point-mass lattice, as float64 bytes in hex (ledger entry 16).
_CURVE_PINS = [
    (nand_tree(2), [0.3, 0.6, 0.7, 0.2],
     "5a17b7d100ded23f6029cb10c7bac83f2675029a081bae3f94cb7f48bf7d7d3f0000000000000000"),
    (random_function(6, random.Random(5)), [0.1 * k + 0.15 for k in range(6)],
     "dd9387855a63df3f039a081b9e46da3fe2fc4d284420d63f72d712f241bfca3f"
     "6891ed7c3f95b43f1ea2d11dc4ce763f0000000000000000"),
    (and_f(3), [0.0, 1.0, 0.5], "00" * 32),
]


def test_dist_error_curves_are_pinned():
    for f, marginals, pin in _CURVE_PINS:
        curve = dist_error_curve_fast(f, marginals)
        assert curve.dtype == np.float64 and curve.tobytes().hex() == pin


def test_a_stopped_curve_is_the_full_curve_up_to_the_least_depth():
    for f, marginals, _ in _CURVE_PINS:
        full = dist_error_curve_fast(f, marginals)
        mu = ProductDistribution(tuple(marginals))
        for eps in (0.0, 0.01, 0.1, 0.25, 1 / 3, 0.5, math.inf):
            least = exact_Dmu_eps(f, mu, eps)
            assert dist_error_curve_fast(f, marginals, eps).tobytes() == full[:least + 1].tobytes()


def _count_lattice_work(monkeypatch):
    """Per lattice, in order of construction: its marginals, how many rounds
    its DPs computed and how many arrays it stacked over the subcubes (the
    [Pr[f = 0], Pr[f = 1]] channels for an error base, the non-constant mask
    for the others, and the subcube masses for the zero-error cost)."""
    work = {}
    init, rounds, stack = dtree._Lattice.__init__, dtree._Lattice.rounds, dtree._Lattice.stack

    def counted_init(self, f, marginals=()):
        work[self] = {"marginals": tuple(marginals), "rounds": 0, "stacks": 0}
        init(self, f, marginals)

    def counted_rounds(self, base, step):
        for cur in rounds(self, base, step):
            work[self]["rounds"] += 1
            yield cur

    def counted_stack(self, corner, combine):
        work[self]["stacks"] += 1
        return stack(self, corner, combine)

    monkeypatch.setattr(dtree._Lattice, "__init__", counted_init)
    monkeypatch.setattr(dtree._Lattice, "rounds", counted_rounds)
    monkeypatch.setattr(dtree._Lattice, "stack", counted_stack)
    return work


def test_the_dps_compute_no_round_past_the_one_they_read(monkeypatch):
    from qclab.games import dprod_search

    f = nand_tree(2)
    mu = ProductDistribution((0.3, 0.6, 0.7, 0.2))
    full = dist_error_curve_fast(f, mu.marginals)
    d = exact_D(f)
    least = {eps: exact_Dmu_eps(f, mu, eps) for eps in (0.01, 0.1, 0.25, 1 / 3)}
    assert sorted(least.values()) == [0, 1, 2, 3]
    work = _count_lattice_work(monkeypatch)

    def one_lattice(call):
        work.clear()
        call()
        (counts,) = work.values()
        return counts["rounds"], counts["stacks"]

    # the error DPs stack only their two mass channels: no non-constant mask
    for eps, k in least.items():
        assert one_lattice(lambda: exact_Dmu_eps(f, mu, eps)) == (k + 1, 1)
        assert one_lattice(lambda: dist_error_curve_fast(f, mu.marginals, eps)) == (k + 1, 1)
    for k in range(6):
        assert one_lattice(lambda: optimal_dist_error(f, mu, k)) == (min(k, 4) + 1, 1)
    assert one_lattice(lambda: dist_error_curve_fast(f, mu.marginals)) == (5, 1)
    # depth stacks only the mask, and D reads only up to D; zero-error cost
    # stacks the mask and the masses M(C) that each query adds
    assert one_lattice(lambda: exact_D(f)) == (d + 1, 1)
    assert one_lattice(lambda: zero_error_expected_cost(f, mu)) == (5, 2)

    work.clear()
    res = dprod_search(f, 1 / 3, restarts=1, seed=3)
    assert len(work) == res.evaluations
    monkeypatch.undo()
    for counts in work.values():
        curve = dist_error_curve_fast(f, counts["marginals"])
        stop = next(k for k, e in enumerate(curve) if e <= 1 / 3 + 1e-12)
        assert (counts["rounds"], counts["stacks"]) == (stop + 1, 1)
    assert max(c["rounds"] for c in work.values()) < len(full)


# -- zero-error expected cost ----------------------------------------------------


def test_zero_error_cost_examples():
    u = uniform_distribution(2)
    assert zero_error_expected_cost(nand2(), u) == pytest.approx(1.5)
    assert zero_error_expected_cost(constant(3, 1), uniform_distribution(3)) == 0
    assert zero_error_expected_cost(xor(2), ProductDistribution((0.3, 0.7))) == pytest.approx(2.0)


def test_markov_direction():
    # a 1/3-error tree exists within triple the zero-error expected cost
    rng = random.Random(23)
    for _ in range(40):
        m = rng.randint(1, 6)
        f = random_function(m, rng)
        mu = ProductDistribution(tuple(rng.uniform(0.1, 0.9) for _ in range(m)))
        cost = zero_error_expected_cost(f, mu)
        assert exact_Dmu_eps(f, mu, 1 / 3) <= math.ceil(3 * cost)


# -- leaf statistics -------------------------------------------------------------


def test_zero_reach_leaf_bias_is_zero():
    # leaf x1 = 0 has no mass: it adds nothing, and no 0/0 is taken
    mu = ProductDistribution((1.0, 0.5))
    f = xor(2)
    split = DecisionTree(2, Query(1, Leaf(None), Leaf(None)))
    assert avg_leaf_bias(singleton(split), f, mu) == 0.5  # leaf x1 = 1 alone
    full = DecisionTree(2, Query(1, Leaf(None), Query(2, Leaf(None), Leaf(None))))
    assert avg_leaf_bias(singleton(full), f, mu) == 0


def test_label_leaves_and_error():
    u = uniform_distribution(2)
    f = nand2()
    full = label_leaves(complete_tree(2), f, u)
    assert tree_error(full, f, u) == 0
    for _, fixed, label, _ in tree_leaves(full):
        idx = 0
        for i, b in fixed:
            idx |= b << (i - 1)
        assert label == f.value_at(idx)

    empty = label_leaves(DecisionTree(2, Leaf(None)), f, u)
    assert empty.root.label == 1  # Pr[f=1] = 3/4
    assert tree_error(empty, f, u) == pytest.approx(0.25)


def test_tree_error_requires_labels():
    u = uniform_distribution(2)
    with pytest.raises(ValueError):
        tree_error(DecisionTree(2, Leaf(None)), nand2(), u)


def test_majority_label_error_equals_total_bias():
    # with every leaf strictly majority-labeled, the error is the avg bias
    rng = random.Random(31)
    for _ in range(30):
        m = rng.randint(1, 6)
        f = random_function(m, rng)
        mu = random_dyadic_distribution(m, rng)
        t = random_tree(m, rng, max_depth=3)
        labeled = label_leaves(t, f, mu)
        bias = avg_leaf_bias(singleton(t), f, mu)
        err = tree_error(labeled, f, mu)
        assert err <= bias  # equality unless some leaf is exactly balanced
        assert bias <= err + Fraction(1, 2)


def _brute_leaf_masses(tree, f, mu):
    """{leaf_id: [Pr[leaf, f=0], Pr[leaf, f=1]]} for every leaf, in leaf
    order, by running the tree on every point."""
    masses = {leaf_id: [0, 0] for leaf_id, _, _, _ in tree_leaves(tree)}
    for idx in range(f.size):
        x = point_from_index(idx, f.arity)
        masses[run(tree, x).leaf_id][f.value_at(idx)] += mu.point_prob(x)
    return masses


def _brute_error(tree, f, mu):
    err = 0
    for idx in range(f.size):
        x = point_from_index(idx, f.arity)
        if run(tree, x).output != f.value_at(idx):
            err += mu.point_prob(x)
    return err


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=150, deadline=None)
def test_leaf_statistics_match_a_brute_force_over_every_point(seed, two_point):
    # Fraction marginals in {0, 1, k/8}, or criterion 7's two-point mu: 1/2
    # on x and on x with variable i flipped
    rng = random.Random(seed)
    m = rng.randint(1, 5)
    f = random_function(m, rng)
    if two_point:
        x, i = point_from_index(rng.randrange(1 << m), m), rng.randint(1, m)
        marg = [Fraction(1, 2) if j == i else Fraction(x[j - 1]) for j in range(1, m + 1)]
    else:
        marg = [Fraction(rng.choice((0, 8, rng.randint(1, 7))), 8) for _ in range(m)]
    mu = ProductDistribution(tuple(marg))
    r = random_randomized_tree(m, rng, support=3)
    want_bias = 0
    for w, t in r.entries:
        masses = _brute_leaf_masses(t, f, mu)
        for m0, m1 in masses.values():
            want_bias += w * min(m0, m1)
        labeled = label_leaves(t, f, mu)
        for (_, _, label, _), (m0, m1) in zip(tree_leaves(labeled), masses.values()):
            assert label == (int(2 * m1 >= m0 + m1) if m0 + m1 else 0)
        assert tree_error(labeled, f, mu) == _brute_error(labeled, f, mu)
        guess = random_tree(m, rng, labeled=True)
        assert tree_error(guess, f, mu) == _brute_error(guess, f, mu)
    assert avg_leaf_bias(r, f, mu) == want_bias


def test_leaf_statistics_build_masses_over_the_interior_variables_only(monkeypatch):
    # criterion 7's two-point mu at m = 6: two masses, not a 2^6 vector
    sizes, build = [], dtree._mass_vector
    monkeypatch.setattr(dtree, "_mass_vector",
                        lambda ar, weights: sizes.append(len(weights)) or build(ar, weights))
    rng = random.Random(6)
    f, r = random_function(6, rng), random_randomized_tree(6, rng, support=3)
    for marg in ((1, 0, Fraction(1, 2), 1, 0, 0), (1.0, 0.0, 0.5, 1.0, 0.0, 0.0)):
        mu = ProductDistribution(marg)
        want = sum(w * min(m0, m1) for w, t in r.entries
                   for m0, m1 in _brute_leaf_masses(t, f, mu).values())
        assert avg_leaf_bias(r, f, mu) == want
    assert sizes == [1, 1]


def test_leaf_statistics_refuse_mismatched_arities():
    mu, t = uniform_distribution(2), DecisionTree(2, Leaf(1))
    for tree, f in ((t, xor(3)), (DecisionTree(3, Leaf(1)), xor(2))):
        for stat in (label_leaves, tree_error):
            with pytest.raises(ValueError, match="arity mismatch"):
                stat(tree, f, mu)
        with pytest.raises(ValueError, match="arity mismatch"):
            avg_leaf_bias(singleton(tree), f, mu)


def test_avg_leaf_bias_linearity():
    u = uniform_distribution(2)
    f = nand2()
    t1 = complete_tree(2)
    t2 = DecisionTree(2, Leaf(None))
    mix = RandomizedTree(((0.5, t1), (0.5, t2)))
    b1 = avg_leaf_bias(singleton(t1), f, u)
    b2 = avg_leaf_bias(singleton(t2), f, u)
    assert avg_leaf_bias(mix, f, u) == pytest.approx((b1 + b2) / 2)
    assert b1 == 0 and b2 == pytest.approx(0.25)
    balanced = xor(2)
    assert avg_leaf_bias(singleton(t2), balanced, u) == pytest.approx(0.5)


# -- serialization ----------------------------------------------------------------


def test_tree_json_roundtrip():
    rng = random.Random(41)
    for _ in range(20):
        t = random_tree(rng.randint(1, 5), rng, labeled=bool(rng.randint(0, 1)))
        assert tree_from_json(tree_to_json(t)) == t
    text = tree_to_json(DecisionTree(2, Query(1, Leaf(0), Leaf(None))))
    assert text.index("child0") < text.index("child1")


@pytest.mark.parametrize("m", [1, 2, 3])
def test_tree_json_roundtrip_on_every_catalog_tree(m):
    from qclab.games import enumerate_trees
    for labeled in (True, False):
        for t in enumerate_trees(m, None, labeled).trees:
            back = tree_from_json(tree_to_json(t))
            assert back == t and repr(back) == repr(t)
            assert getattr(back.root, "mask", 0) == getattr(t.root, "mask", 0)


def test_random_trees_refuse_a_negative_depth_before_any_draw():
    rng = random.Random(44)
    state = rng.getstate()
    for build in (random_tree, random_randomized_tree):
        with pytest.raises(ValueError, match="max_depth must be >= 0"):
            build(3, rng, max_depth=-1)
    assert rng.getstate() == state
    assert random_tree(3, rng, max_depth=0).root == Leaf(None)


def test_random_randomized_tree_weights_exact():
    rng = random.Random(43)
    for _ in range(20):
        r = random_randomized_tree(4, rng)
        assert sum(w for w, _ in r.entries) == 1
        assert all(isinstance(w, Fraction) for w, _ in r.entries)
