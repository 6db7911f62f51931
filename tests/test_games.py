import contextlib
import gc
import hashlib
import math
import random
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis.extra.numpy import arrays
import hypothesis.strategies as st

from qclab.boolfunc import (
    BooleanFunction,
    ProductDistribution,
    and_f,
    constant,
    dictator,
    nand2,
    nand_tree,
    point_from_index,
    random_distribution,
    random_function,
    uniform_distribution,
    xor,
)
from qclab.dtree import (
    DecisionTree,
    Leaf,
    Query,
    RandomizedTree,
    avg_leaf_bias,
    exact_Dmu_eps,
    label_leaves,
    random_randomized_tree,
    random_tree,
    run,
    singleton,
    tree_leaves,
)
import qclab.games as games
from qclab.games import (
    GameValue,
    LPError,
    SabotagePair,
    all_sabotage_pairs,
    amplify,
    catalog_size_formula,
    compose_trees,
    dprod_search,
    dump_game,
    enumerate_trees,
    exact_R_eps,
    exact_RS_eps,
    exact_RSE,
    mixture_from_columns,
    pair_miss_profile,
    r_game,
    r_game_value,
    rs_game,
    rs_game_value,
    rse_game,
    RUN_TABLE_ELEMENTS,
    run_arrays,
    sens_miss_profile,
    solve_zero_sum,
    check_amplified_bias,
    check_two_point_bound,
    zero_error_trees,
)
from qclab.nandtree import expected_cost_sw


# -- catalogs -------------------------------------------------------------------


def test_catalog_counts_match_recursion():
    for m, labeled_count in ((1, 6), (2, 74), (3, 16430)):
        cat = enumerate_trees(m, None, labeled=True)
        assert len(cat.trees) == labeled_count
        assert catalog_size_formula(m, m, True) == labeled_count
        assert len(set(cat.trees)) == labeled_count  # duplicate-free
    for m, unlabeled_count in ((1, 2), (2, 9), (3, 244)):
        cat = enumerate_trees(m, None, labeled=False)
        assert len(cat.trees) == unlabeled_count == catalog_size_formula(m, m, False)


def test_catalogs_are_pinned():
    # the sha256 of the reprs of every catalog at the caps, recorded while
    # trees were still checked path by path
    digest = hashlib.sha256()
    for m, k in [(m, k) for m in (1, 2, 3) for k in range(m + 1)] + [(4, 2)]:
        for labeled in (True, False):
            digest.update(repr(enumerate_trees(m, k, labeled).trees).encode())
    assert digest.hexdigest() == (
        "dbbc4c6e3cf368112c74d32eeb19ea9926782c517e09fb28240fc39d81d1633c")


def test_catalog_depth_caps():
    assert len(enumerate_trees(3, 2, True).trees) == catalog_size_formula(3, 2, True) == 302
    assert len(enumerate_trees(4, 2, False).trees) == catalog_size_formula(4, 2, False)
    with pytest.raises(ValueError):
        enumerate_trees(4, 3, True)
    with pytest.raises(ValueError):
        enumerate_trees(5, 1, True)


@pytest.mark.parametrize("m, cap", [(3, 1.5), (3, -1), (2, True), (3, "2"), (-1, None),
                                    (2.0, None), (False, None)])
def test_catalog_refuses_a_cap_or_arity_that_is_not_a_non_negative_int(m, cap):
    with pytest.raises(ValueError, match="non-negative int"):
        enumerate_trees(m, cap)


def test_each_catalog_is_one_shared_object():
    assert enumerate_trees(3) is enumerate_trees(3, None) is enumerate_trees(3, 9)
    assert enumerate_trees(3, 2, False) is not enumerate_trees(3, 2, True)
    assert enumerate_trees(3, np.int64(2), 1) is enumerate_trees(3, 2, True)
    assert enumerate_trees(3, 2, True).depth_cap == 2


def test_the_cached_run_table_is_the_fresh_one_and_read_only():
    for m, k in [(m, k) for m in (1, 2, 3) for k in range(m + 1)] + [(4, 2)]:
        for labeled in (True, False):
            catalog = enumerate_trees(m, k, labeled)
            for cached, fresh in zip(catalog.runs, run_arrays(catalog.trees, m)):
                assert cached.dtype == fresh.dtype and np.array_equal(cached, fresh)
                with pytest.raises(ValueError, match="read-only"):
                    cached[0] = 0
            assert catalog.runs is catalog.runs


def test_games_on_the_shared_catalog_do_not_leak_between_functions():
    # the multiplexer, then its negation, then the multiplexer again
    f, not_f = BooleanFunction(3, 0xCA), BooleanFunction(3, 0xFF ^ 0xCA)
    first = r_game_value(f, 2)[0]
    assert r_game_value(not_f, 2)[0].value == first.value  # relabelling the leaves
    assert r_game_value(f, 2)[0] == first


# -- the run table ------------------------------------------------------------------


def _assert_runs_match(trees, m):
    # dtree.run is the per-point oracle: output (None as -1) and the step of
    # every queried variable
    outputs, positions = run_arrays(trees, m)
    assert outputs.shape == (len(trees), 1 << m) and outputs.dtype == np.int8
    assert positions.shape == (len(trees), 1 << m, m) and positions.dtype == np.int8
    for t, tree in enumerate(trees):
        for i in range(1 << m):
            r = run(tree, tuple((i >> j) & 1 for j in range(m)))
            assert outputs[t, i] == (-1 if r.output is None else r.output)
            want = [0] * m
            for step, var in enumerate(r.queried, start=1):
                want[var - 1] = step
            assert positions[t, i].tolist() == want


@pytest.mark.parametrize("m, depth, labeled", [(m, None, lab) for m in (1, 2, 3)
                                               for lab in (True, False)]
                         + [(4, 2, True), (4, 2, False)])
def test_run_arrays_match_run_on_every_catalog_tree(m, depth, labeled):
    _assert_runs_match(enumerate_trees(m, depth, labeled).trees, m)


@given(st.integers(1, 6), st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 5))
@settings(max_examples=60, deadline=None)
def test_run_arrays_match_run_on_random_trees(m, seed, labeled, count):
    rng = random.Random(seed)
    # leaf_prob 1 gives single-leaf trees; unlabelled leaves carry None
    trees = [random_tree(m, rng, labeled=labeled, leaf_prob=rng.choice((0.0, 0.3, 1.0)))
             for _ in range(count)]
    _assert_runs_match(trees, m)


def test_run_arrays_refuses_an_oversized_table_before_allocating():
    m = 12
    per_tree = (1 << m) * m
    fits = [DecisionTree(m, Leaf(0))] * (RUN_TABLE_ELEMENTS // per_tree)
    assert run_arrays(fits[:1], m)[0].shape == (1, 1 << m)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="run table"):
            run_arrays(fits + fits[:1], m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="arity"):
        run_arrays([DecisionTree(2, Leaf(0))], 3)
    for game in (r_game, rs_game):  # a catalog's own run table, on a function of another arity
        with pytest.raises(ValueError, match="arity"):
            game(BooleanFunction(2, 0b0110), enumerate_trees(3, 1))


def test_catalogs_and_games_leave_no_cyclic_garbage():
    # the catalog builder's memo, the run table's node index and the leaf lists are freed
    # by refcounting when a call returns, not at some later cycle collection;
    # so are the recursive helpers of the tree builders and the exact counts,
    # which are module functions rather than closures that refer to themselves
    f = BooleanFunction(3, 0xE8)
    games._catalog.cache_clear()
    gc.collect()
    gc.disable()
    try:
        for _ in range(2):  # the first pass builds the shared catalogs, the second reads them
            r_game_value(f, 2)
            rs_game_value(f, 1)
            exact_RSE(f)
            label_leaves(random_tree(3, random.Random(0)), f, uniform_distribution(3))
            catalog_size_formula(3, 3, labeled=True)
            expected_cost_sw(2, [0, 1, 1, 0])
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the LP solver ----------------------------------------------------------------


def test_solve_zero_sum_basics():
    gv = solve_zero_sum([[1, 0], [0, 1]])
    assert gv.value == Fraction(1, 2)
    assert gv.row_strategy == (Fraction(1, 2), Fraction(1, 2))
    assert solve_zero_sum([[7, 7, 7]]).value == 7
    with pytest.raises(ValueError):
        solve_zero_sum([])


def _scipy_game_value(matrix):
    from scipy.optimize import linprog

    m = np.asarray(matrix, dtype=float)
    rows, cols = m.shape
    # row player maximizes v subject to p^T M >= v per column
    c = np.zeros(rows + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-m.T, np.ones((cols, 1))])
    b_ub = np.zeros(cols)
    a_eq = np.ones((1, rows + 1))
    a_eq[0, -1] = 0.0
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * rows + [(None, None)], method="highs")
    assert res.success
    return res.x[-1]


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_lp_matches_scipy(data):
    rows = data.draw(st.integers(1, 5))
    cols = data.draw(st.integers(1, 5))
    matrix = [
        [data.draw(st.integers(-5, 5)) for _ in range(cols)] for _ in range(rows)
    ]
    want = _scipy_game_value(matrix)
    for exact in (True, False):  # int entries: the rational tableau; floats: the float one
        gv = solve_zero_sum(matrix if exact else [[float(v) for v in r] for r in matrix])
        assert isinstance(gv.value, Fraction if exact else float)
        assert float(gv.value) == pytest.approx(want, abs=1e-7)
        # strategies are distributions and certify the value against pure replies
        one = 1 if exact else pytest.approx(1, abs=1e-12)
        assert sum(gv.row_strategy) == one and min(gv.row_strategy) >= 0
        assert sum(gv.col_strategy) == one and min(gv.col_strategy) >= 0
        for j in range(cols):
            reply = sum(gv.row_strategy[i] * matrix[i][j] for i in range(rows))
            assert reply >= gv.value - Fraction(1, 10**9)


@st.composite
def _exact_games(draw):
    # signed Fractions with denominators 1..7, tie-heavy 0/1 matrices (where the
    # cross-multiplied ratio test and the lowest-basis tie rule pick the
    # pivots), and dyadic Fractions n / 2^e
    kind = draw(st.sampled_from(("fraction", "zero_one", "dyadic")))
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if kind == "fraction":
        entry = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
    elif kind == "zero_one":
        entry = st.integers(0, 1)
    else:
        entry = st.builds(lambda n, e: Fraction(n, 2**e), st.integers(-40, 40), st.integers(0, 5))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@given(_exact_games())
@settings(max_examples=150, deadline=None)
def test_exact_lp_on_rational_and_degenerate_games(matrix):
    gv = solve_zero_sum(matrix)
    assert all(type(v) is Fraction for v in (gv.value, *gv.row_strategy, *gv.col_strategy))
    assert float(gv.value) == pytest.approx(_scipy_game_value(matrix), abs=1e-7)
    assert sum(gv.row_strategy) == 1 and min(gv.row_strategy) >= 0
    assert sum(gv.col_strategy) == 1 and min(gv.col_strategy) >= 0
    # both strategies certify the value exactly against pure replies
    a = [[Fraction(v) for v in row] for row in matrix]
    rows, cols = range(len(a)), range(len(a[0]))
    assert min(sum(gv.row_strategy[i] * a[i][j] for i in rows) for j in cols) == gv.value
    assert max(sum(a[i][j] * gv.col_strategy[j] for j in cols) for i in rows) == gv.value


def test_exact_verification_has_zero_slack(monkeypatch):
    # the optimum of a game one payoff of which is off by 10^-12 is no optimum
    # of the game itself, and an exact check has no float slack to let it pass:
    # raising the payoff breaks a column's best response, lowering it a row's
    n = 10**12
    solve = games._simplex
    assert solve_zero_sum([[1, 0], [0, 1]]).value == Fraction(1, 2)
    for bump, broken in ((1, "column"), (-1, "row")):
        def off_by_one_in_n(b, tol, bump=bump):
            off = np.zeros(b.shape, dtype=object)
            off[0, 0] = bump
            w, duals, *rest = solve(b * n + off, tol)
            return (np.asarray(w) * n, np.asarray(duals) * n, *rest)

        monkeypatch.setattr(games, "_simplex", off_by_one_in_n)
        with pytest.raises(LPError, match=f"{broken} 0 best response"):
            solve_zero_sum([[1, 0], [0, 1]])


@pytest.mark.parametrize("exact", [True, False])
def test_the_cycling_guard_stops_a_simplex_past_its_pivot_bound(exact, monkeypatch):
    # the 3 x 3 identity game's optimum takes all three columns into the
    # basis: three pivots, one each; int entries take the exact tableau,
    # float ones the float tableau
    identity = np.eye(3, dtype=int if exact else float).tolist()
    monkeypatch.setattr(games, "SIMPLEX_MAX_PIVOTS", 3)
    assert solve_zero_sum(identity).value == pytest.approx(1 / 3)
    monkeypatch.setattr(games, "SIMPLEX_MAX_PIVOTS", 2)
    with pytest.raises(LPError, match=r"cycling guard hit"):
        solve_zero_sum(identity)


def test_lp_float_path_on_large_matrix():
    rng = np.random.default_rng(2)
    matrix = rng.integers(0, 4, size=(4, 3000)).tolist()
    gv = solve_zero_sum(matrix)  # above the rational entry limit: float path
    assert isinstance(gv.value, float)
    assert float(gv.value) == pytest.approx(_scipy_game_value(matrix), abs=1e-6)


def test_simplex_outputs_are_pinned():
    # recorded before the two simplex routines were merged: the float game's
    # round-off residues and types, and an exact game's optimal strategies
    rng = np.random.default_rng(2)
    gv = solve_zero_sum(rng.integers(0, 4, size=(4, 3000)).tolist())
    assert all(type(v) is np.float64 for v in (gv.value, *gv.row_strategy, *gv.col_strategy))
    assert [repr(float(v)) for v in gv.row_strategy] == [
        "0.9999999999999991", "1.3877787807814454e-17", "8.881784197001242e-16", "0.0"]
    assert gv.value == 0.0 and {j: v for j, v in enumerate(gv.col_strategy) if v} == {177: 1.0}

    gv = solve_zero_sum(np.random.default_rng(7).random((4, 3000)).tolist())
    assert repr(float(gv.value)) == "0.07109327478569427"
    assert [repr(float(v)) for v in gv.row_strategy] == [
        "0.09772943089672914", "0.11800629505250872", "0.7497518962017172", "0.034512377849045"]
    assert {j: repr(float(v)) for j, v in enumerate(gv.col_strategy) if v} == {
        1096: "0.5909294384300815", 1899: "0.07147148601621227",
        2263: "0.014159017250126521", 2283: "0.32344005830357975"}

    # a float basis ends with w = -9.6e-17 here; the clamp keeps it at 0.0
    quarters = [[0, -2, -1, -3, -3, -3], [-2, 2, 1, 3, 0, 1], [3, 2, 1, 0, 0, 3],
                [-2, 2, 1, -3, -1, 3], [0, -3, 2, 2, 2, -2], [-3, 3, -3, 0, -3, -1]]
    gv = solve_zero_sum([[v / 4 for v in row] for row in quarters])
    assert repr(float(gv.value)) == "0.14285714285714324"
    assert [repr(float(v)) for v in gv.row_strategy] == [
        "0.0", "1.576120186744642e-16", "0.7142857142857142", "0.0", "0.28571428571428575", "0.0"]
    assert [repr(float(v)) for v in gv.col_strategy] == [
        "0.0", "0.2857142857142858", "0.0", "0.0", "0.7142857142857143", "0.0"]

    gv, catalog = r_game_value(BooleanFunction(3, 0xE8), 2)  # majority
    assert repr(gv.value) == "Fraction(1, 3)"
    assert repr(gv.row_strategy) == repr((Fraction(0),) + (Fraction(1, 6),) * 6 + (Fraction(0),))
    assert len(gv.col_strategy) == len(catalog.trees) == 302
    assert all(type(v) is Fraction for v in gv.col_strategy)
    assert {j: v for j, v in enumerate(gv.col_strategy) if v} == {
        9: Fraction(1, 3), 35: Fraction(1, 3), 73: Fraction(1, 3)}


def test_exact_games_are_pinned():
    # every exact game of arity 3 (R and RS for k <= 2, and RSE), by the sha256
    # of their reprs in table order; recorded on the Fraction tableau
    digest = hashlib.sha256()
    for table in range(256):
        f = BooleanFunction(3, table)
        for k in range(3):
            digest.update(repr(r_game_value(f, k)[0]).encode())
            digest.update(repr(rs_game_value(f, k)[0]).encode())
        digest.update(repr(exact_RSE(f)).encode())
    assert digest.hexdigest() == (
        "70d95507acbbe492f3db5289b9469eb342796e2567c51e5b80f5fbfdafd55a95")


def test_game_rows_labels_and_zero_error_masks_are_pinned():
    # recorded at the parent of boolfunc._point_bits: every R and RS game at
    # each depth cap and every RS_E game, matrix and labels, and every
    # zero-error mask, over all functions of arity <= 3
    rows, masks = hashlib.sha256(), hashlib.sha256()
    for m in (1, 2, 3):
        catalogs = [(enumerate_trees(m, k, labeled=True), enumerate_trees(m, k, labeled=False))
                    for k in range(m + 1)]
        for table in range(1 << (1 << m)):
            f = BooleanFunction(m, table)
            played = [game(f, c) for lab, unl in catalogs
                      for game, c in ((r_game, lab), (rs_game, unl))]
            for matrix, labels in played + [rse_game(f)]:
                rows.update(repr((matrix.dtype.str, matrix.shape, labels)).encode()
                            + matrix.tobytes())
            masks.update(games._zero_error_mask(f).tobytes())
    assert rows.hexdigest() == "c67f6b5389e7c006559f81cda6a81f8bb191a8eaecc9bffb1f2704874af40214"
    assert masks.hexdigest() == "4465b5205c1072009d2900910e98e86408706974bed27c6b7e2a2db5b049c6a2"


def test_each_game_builds_its_rows_and_zero_error_mask_once(monkeypatch):
    calls = {"pairs": 0, "mask": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(games, "_pair_arrays", counted("pairs", games._pair_arrays))
    monkeypatch.setattr(games, "_zero_error_mask", counted("mask", games._zero_error_mask))
    f = BooleanFunction(3, 0b01101001)
    for play in (lambda: rs_game(f, enumerate_trees(3, 2, labeled=False)),
                 lambda: rse_game(f), lambda: games._rse_solution(f)):
        calls.update(pairs=0, mask=0)
        play()
        assert calls["pairs"] == 1 and calls["mask"] <= 1


# -- complexity games ---------------------------------------------------------------


@pytest.mark.parametrize("m", [1, 2, 3])
def test_game_matrices_match_direct_runs(m):
    # every payoff from dtree.run of each tree on the input it is played on
    rng = random.Random(m)
    labeled = enumerate_trees(m, min(m, 2), labeled=True)
    unlabeled = enumerate_trees(m, None, labeled=False)
    for table in range(1 << (1 << m)) if m < 3 else rng.sample(range(256), 12):
        f = BooleanFunction(m, table)
        matrix, points = r_game(f, labeled)
        assert matrix.dtype == np.int64
        assert matrix.tolist() == [[int(run(t, x).output != f.value_at(i)) for t in labeled.trees]
                                   for i, x in enumerate(points)]
        matrix, pairs = rs_game(f, unlabeled)
        assert matrix.dtype == np.int64 and matrix.shape == (len(pairs), len(unlabeled.trees))
        assert matrix.tolist() == [[int(not pair.differing() & set(run(t, pair.x).queried))
                                    for t in unlabeled.trees] for pair in pairs]
        matrix, pairs = rse_game(f)
        trees = zero_error_trees(f)
        assert matrix.dtype == np.int64 and matrix.shape == (len(pairs), len(trees))
        assert matrix.tolist() == [[next(pos for pos, v in enumerate(run(t, pair.x).queried, 1)
                                         if v in pair.differing()) for t in trees]
                                   for pair in pairs]


# wrapping int64 arithmetic pivots this game's tableau to 22745364809/56174141
GAME_4X5 = [[1316, -21, -2141, 3258, 569], [-3758, 3438, -1893, -3687, -1594],
            [1737, -751, 1453, -3115, 1018], [3349, 1058, -2692, -1504, 2744]]


def test_the_exact_solver_makes_python_ints_of_every_rational_payoff(monkeypatch):
    # numpy integers wrap, so the exact tableau takes only Python ints: each
    # input gives the GameValue of its Python-int list, and every tableau the
    # simplex sees, the game builders' int64 matrices too, holds Python ints
    tableaus = []
    simplex = games._simplex

    def recording(a, tol):
        tableaus.append({type(v) for v in a.flat})
        return simplex(a, tol)

    monkeypatch.setattr(games, "_simplex", recording)
    game, big = np.array(GAME_4X5), [[2**64 - 1, 0], [0, 2**63]]
    assert game.dtype == np.int64
    for given, python in ((game, GAME_4X5), (list(game), GAME_4X5),
                          ([list(row) for row in game], GAME_4X5),
                          (np.array(big, dtype=np.uint64), big),
                          ([[np.int64(2**62), Fraction(1, 3)], [0, 1]],
                           [[2**62, Fraction(1, 3)], [0, 1]])):
        assert repr(solve_zero_sum(given)) == repr(solve_zero_sum(python))
    assert solve_zero_sum(game).value == Fraction(-5816680465, 21035523)
    assert float(solve_zero_sum(game).value) == pytest.approx(_scipy_game_value(GAME_4X5))
    f = nand2()
    for matrix in (r_game(f, enumerate_trees(2, None, True))[0],
                   rs_game(f, enumerate_trees(2, None, False))[0], rse_game(f)[0]):
        solve_zero_sum(matrix)
    assert len(tableaus) == 15 and all(types == {int} for types in tableaus)


@contextlib.contextmanager
def _tableau_dtypes():
    """The dtype of the tableau at each ratio test of the exact simplex runs
    in the block: int64 while its entries fit the bound, object after."""
    seen = []
    min_ratio = games._min_ratio

    def recording(rhs, col, tol):
        seen.append(rhs.dtype.name)
        return min_ratio(rhs, col, tol)

    with mock.patch.object(games, "_min_ratio", recording):
        yield seen


def test_the_exact_tableau_turns_to_python_ints_past_the_int64_bound():
    # GAME_4X5's entries pass 2^30 after two pivots, so the run finishes in
    # Python ints; 2^62 payoffs never enter an int64 tableau
    with _tableau_dtypes() as seen:
        assert solve_zero_sum(np.array(GAME_4X5)).value == Fraction(-5816680465, 21035523)
    turn = seen.index("object")
    assert turn > 0 and set(seen[:turn]) == {"int64"} and set(seen[turn:]) == {"object"}
    with _tableau_dtypes() as seen:
        gv = solve_zero_sum(np.array([[2**62, -2**62]]))
    assert repr(gv) == repr(GameValue(Fraction(-2**62), (Fraction(1),), (Fraction(0), Fraction(1))))
    assert seen and set(seen) == {"object"}


@given(st.tuples(st.integers(1, 8), st.integers(1, 12)).flatmap(
    lambda shape: arrays(np.int64, shape, elements=st.integers(1, 2**13))))
@settings(max_examples=200, deadline=None)
def test_the_int64_tableau_pivots_as_the_python_int_tableau(a):
    # entries >= 1 need no shift, so a and a * 2^40 pivot alike: the first
    # starts in int64, the second in Python ints, as its entries pass 2^30
    scale = 2**40
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with _tableau_dtypes() as small:
            gv = solve_zero_sum(a)
        with _tableau_dtypes() as big:
            gv_big = solve_zero_sum(a.astype(object) * scale)
    assert small[0] == "int64" and set(big) == {"object"}
    assert gv_big.value == gv.value * scale
    assert repr(gv_big.row_strategy) == repr(gv.row_strategy)
    assert repr(gv_big.col_strategy) == repr(gv.col_strategy)


def test_numpy_bools_are_solved_exactly_as_the_ints_0_and_1():
    # np.bool_ is no numbers.Rational: a bool array went to the float tableau
    # and returned np.float64(0.4999999999999998)
    bools, ints = [[True, False], [False, True]], [[1, 0], [0, 1]]
    assert solve_zero_sum(ints).value == Fraction(1, 2)
    for given, python in ((bools, ints), (np.array(bools), ints), (list(np.array(bools)), ints),
                          ([[np.True_, np.False_], [np.False_, np.True_]], ints),
                          ([[np.True_, Fraction(1, 3)], [0, True]], [[1, Fraction(1, 3)], [0, 1]])):
        assert repr(solve_zero_sum(given)) == repr(solve_zero_sum(python))
    # a bool among floats is still a float game
    assert repr(solve_zero_sum([[np.True_, 0.5], [0, 1]])) == repr(
        solve_zero_sum([[1.0, 0.5], [0, 1]]))


@pytest.mark.parametrize("matrix", [[[1, math.nan], [0, 1]], [[math.inf, 0], [0, 1]],
                                    [[1], [2, 3]], [[]], np.ones((2, 2, 2)),
                                    np.array([[-math.inf, 0.5]])])
def test_the_solver_refuses_a_malformed_payoff_before_the_simplex(matrix, monkeypatch):
    # NaN comparisons passed both best-response checks: [[1, nan], [0, 1]]
    # was solved with value 1.0, and [[inf, 0], [0, 1]] with a NaN value
    monkeypatch.setattr(games, "_simplex", None)
    with pytest.raises(ValueError, match="non-finite|non-empty 2-D"):
        solve_zero_sum(matrix)


def test_exact_R_eps_examples():
    assert exact_R_eps(dictator(1), 1 / 3) == 1
    assert exact_R_eps(xor(2), 1 / 3) == 2
    assert exact_R_eps(xor(2), 0.5) == 0
    assert exact_R_eps(nand2(), 1 / 3) == 1  # mix leaf(1) with both query trees
    with pytest.raises(ValueError):
        exact_R_eps(xor(4), 1 / 3)


def test_minimax_sanity_distributional_lower_bounds():
    rng = random.Random(71)
    for _ in range(15):
        m = rng.randint(1, 3)
        f = random_function(m, rng)
        r = exact_R_eps(f, 1 / 3)
        for _ in range(5):
            mu = ProductDistribution(tuple(rng.uniform(0.05, 0.95) for _ in range(m)))
            assert exact_Dmu_eps(f, mu, 1 / 3) <= r


def test_eps_decisions_are_exact_for_rational_eps():
    # the depth-1 values are exactly 1/3 (R) and 1/2 (RS) for and:2, so an eps
    # just below them needs depth 2; a float tolerance would wrongly accept 1
    below = Fraction(1, 10**10)
    assert r_game_value(and_f(2), 1)[0].value == Fraction(1, 3)
    assert exact_R_eps(and_f(2), Fraction(1, 3) - below) == 2
    assert exact_R_eps(and_f(2), Fraction(1, 3)) == 1
    assert exact_RS_eps(and_f(2), Fraction(1, 2) - below) == 2
    assert exact_RS_eps(and_f(2), Fraction(1, 2)) == 1
    # float eps keeps the LP tolerance
    assert exact_R_eps(and_f(2), 1 / 3) == 1


def test_exact_RS_eps_examples():
    assert exact_RS_eps(dictator(1), 0.99) == 1
    assert exact_RS_eps(nand2(), 1 / 3) == 2
    gv, _ = rs_game_value(nand2(), 1)
    assert gv.value == Fraction(1, 2)
    assert exact_RS_eps(BooleanFunction(2, 0), 1 / 3) == 0  # constant: no pairs


def test_rs_star_adversary_lower_bound():
    # depth budgets below two thirds of the sensitivity leave value > 1/3
    for m in (1, 2, 3):
        f = xor(m)
        for k in range(math.ceil(2 * m / 3)):
            gv, _ = rs_game_value(f, k)
            assert gv.value > Fraction(1, 3)


def test_exact_RSE_values():
    assert exact_RSE(nand2()) == Fraction(3, 2)
    assert exact_RSE(xor(2)) == Fraction(3, 2)  # both query orders, hand check
    assert exact_RSE(dictator(1)) == 1


def test_functions_with_no_pairs_have_value_0():
    # a constant has no sabotage pair: each game is empty and worth 0
    for m in (1, 2, 3):
        for value in (0, 1):
            f = constant(m, value)
            for k in range(m + 1):
                assert rs_game_value(f, k)[0] == GameValue(0, (), ())
            assert exact_RSE(f) == 0
            assert exact_RS_eps(f, 0) == 0


def restriction_value(f, fixed):
    """Constant value of f on the subcube that fixes the (var, bit) pairs
    ``fixed``, or None if f is not constant there."""
    free = [i for i in range(1, f.arity + 1) if i not in dict(fixed)]
    base = 0
    for i, b in fixed:
        base |= b << (i - 1)
    first = f.value_at(base)
    for new_idx in range(1, 1 << len(free)):
        full = base
        for j, var in enumerate(free):
            full |= ((new_idx >> j) & 1) << (var - 1)
        if f.value_at(full) != first:
            return None
    return first


def test_restriction_value_examples():
    f = nand2()
    assert restriction_value(f, ((1, 0),)) == 1
    assert restriction_value(f, ((1, 1),)) is None
    assert restriction_value(f, ((1, 1), (2, 1))) == 0
    assert restriction_value(and_f(3), ()) is None


@pytest.mark.parametrize("m", [1, 2, 3])
def test_zero_error_trees_match_the_leaf_walk(m):
    # every function of arity m: the same trees in catalog order as keeping
    # the trees with f constant on every leaf subcube
    catalog = enumerate_trees(m, None, labeled=False).trees
    for table in range(1 << (1 << m)):
        f = BooleanFunction(m, table)
        want = tuple(t for t in catalog if all(
            restriction_value(f, fixed) is not None for _, fixed, _, _ in tree_leaves(t)))
        assert zero_error_trees(f) == want


def test_zero_error_tree_filter():
    trees = zero_error_trees(nand2())
    assert len(trees) == 4
    f = xor(2)
    assert all(t.depth == 2 for t in zero_error_trees(f))


# -- miss profiles -------------------------------------------------------------------


def complete_tree(m):
    def grow(var):
        if var > m:
            return Leaf(None)
        sub = grow(var + 1)
        return Query(var, sub, sub)

    return DecisionTree(m, grow(1))


def test_miss_profile_examples():
    f = nand2()
    assert sens_miss_profile(singleton(complete_tree(2)), f) == 0
    empty = singleton(DecisionTree(2, Leaf(None)))
    assert sens_miss_profile(empty, f) == 1
    assert pair_miss_profile(empty, f) == 1
    mix = RandomizedTree(((Fraction(1, 4), DecisionTree(2, Leaf(None))),
                          (Fraction(3, 4), complete_tree(2))))
    assert sens_miss_profile(mix, f) == Fraction(1, 4)


def _miss_probability(r, x, i):
    # Pr_{T~R}[the run on x does not query x_i], one dtree.run per tree
    total = 0
    for w, t in r.entries:
        if i not in run(t, x).queried:
            total = total + w
    return total


def test_star_pairs_reduce_to_miss_probability():
    # the pair (x, x^{+i}) is missed exactly when x_i is unqueried: the run
    # table's misses of the star cases are the per-point oracle's, bit for bit
    rng = random.Random(3)
    for k in range(40):
        m = rng.randint(1, 5)
        f = random_function(m, rng)
        r = random_randomized_tree(m, rng)
        if k % 2:
            r = RandomizedTree(tuple((float(w), t) for w, t in r.entries))
        xs, var = np.nonzero(games._sensitive(f))
        hits = games._entry_hits(r, xs, np.int64(1) << var).T.tolist()
        got = [games._miss(r, case_hits) for case_hits in hits]
        want = [_miss_probability(r, point_from_index(x, m), i + 1)
                for x, i in zip(xs.tolist(), var.tolist())]
        assert repr(got) == repr(want)


@given(st.integers(1, 8).flatmap(
    lambda m: st.integers(0, (1 << (1 << m)) - 1).map(lambda t: BooleanFunction(m, t))))
@settings(max_examples=60, deadline=None)
def test_sabotage_pairs_are_every_zero_one_pair_in_index_order(f):
    # the value_at oracle is quadratic in 2^m, so arity stops at 8 here
    want = [SabotagePair(point_from_index(x, f.arity), point_from_index(y, f.arity))
            for x in range(f.size) if not f.value_at(x) for y in range(f.size) if f.value_at(y)]
    assert list(all_sabotage_pairs(f)) == want


@given(st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_miss_profiles_agree(seed):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    f = random_function(m, rng)
    from qclab.dtree import random_randomized_tree

    r = random_randomized_tree(m, rng, support=4)
    assert pair_miss_profile(r, f) == sens_miss_profile(r, f)


def _loop_miss_profiles(r, f):
    # the case-by-case loops over dtree.run that the run table replaced
    def miss(x, targets):
        total = 0
        for w, t in r.entries:
            if targets.isdisjoint(run(t, x).queried):
                total = total + w
        return total

    sens = pair = 0
    for idx in range(f.size):
        x = tuple((idx >> j) & 1 for j in range(f.arity))
        for i in range(1, f.arity + 1):
            if f.value_at(idx) != f.value_at(idx ^ (1 << (i - 1))):
                v = miss(x, {i})
                sens = v if v > sens else sens
    for p in all_sabotage_pairs(f):
        v = miss(p.x, p.differing())
        pair = v if v > pair else pair
    return sens, pair


@given(st.integers(0, 10**6), st.booleans())
@settings(max_examples=60, deadline=None)
def test_miss_profiles_equal_the_run_loops_bit_for_bit(seed, floats):
    rng = random.Random(seed)
    m = rng.randint(1, 6)
    f = random_function(m, rng)
    from qclab.dtree import random_randomized_tree

    r = random_randomized_tree(m, rng, support=6)
    if floats:
        r = RandomizedTree(tuple((float(w), t) for w, t in r.entries))
    got = (sens_miss_profile(r, f), pair_miss_profile(r, f))
    assert repr(got) == repr(_loop_miss_profiles(r, f))


# -- amplification ---------------------------------------------------------------------


def q_tree(m, var):
    return DecisionTree(m, Query(var, Leaf(None), Leaf(None)))


def test_amplify_identity_and_products():
    r = RandomizedTree(((Fraction(1, 2), q_tree(2, 1)), (Fraction(1, 2), q_tree(2, 2))))
    one = amplify(r, 1)
    assert set(one.entries) == set(r.entries)
    f = nand2()
    base_miss = sens_miss_profile(r, f)
    for reps in (2, 3, 4):
        amped = amplify(r, reps)
        assert sens_miss_profile(amped, f) == base_miss**reps
        assert sum(w for w, _ in amped.entries) == 1
    with pytest.raises(ValueError):
        amplify(r, 40)  # 2^40 tuples exceeds the support limit
    with pytest.raises(ValueError):
        amplify(r, 0)


@pytest.mark.parametrize("reps", [1.5, True, 0])
def test_amplify_refuses_repetitions_that_are_no_positive_integer(reps, monkeypatch):
    # 1.5 reached itertools.product's TypeError, True ran as 1 repetition
    def composed(*args):
        raise AssertionError("a tree was composed before reps was checked")

    monkeypatch.setattr(games, "compose_trees", composed)
    r = RandomizedTree(((Fraction(1, 2), q_tree(2, 1)), (Fraction(1, 2), q_tree(2, 2))))
    with pytest.raises(ValueError, match=r"reps must be (an integer|>= 1)"):
        amplify(r, reps)


def test_amplify_epsilon_repetition_bound():
    # (1 - eps)^ceil((2/eps) ln s) <= 1/s^2 at the construction's repetitions
    for eps, s in ((1 / 3, 2), (0.2, 3), (0.5, 4)):
        reps = math.ceil((2 / eps) * math.log(s))
        assert (1 - eps) ** reps <= 1 / s**2 + 1e-12


def test_compose_skips_repeat_queries():
    t1 = q_tree(3, 1)
    t2 = DecisionTree(3, Query(1, Query(2, Leaf(None), Leaf(None)), Leaf(None)))
    merged = compose_trees(t1, t2)
    for idx in range(8):
        x = tuple((idx >> j) & 1 for j in range(3))
        want = set(run(t1, x).queried) | set(run(t2, x).queried)
        assert set(run(merged, x).queried) == want


def test_check_amplified_bias_dictator_and_nand():
    f = dictator(1)
    r = singleton(DecisionTree(1, Query(1, Leaf(None), Leaf(None))))
    rng = np.random.default_rng(5)
    mus = [random_distribution(1, rng) for _ in range(10)]
    rep = check_amplified_bias(r, f, mus, eps=1.0)
    assert rep.ok and rep.max_bias == 0

    f = nand2()
    gv, cat = rs_game_value(f, 1)
    r = mixture_from_columns(cat.trees, gv)
    mus = [random_distribution(2, rng) for _ in range(25)]
    rep = check_amplified_bias(r, f, mus, eps=Fraction(1, 3))
    assert rep.ok
    assert rep.miss_after <= rep.miss_before ** rep.reps + Fraction(1, 10**9)

    with pytest.raises(ValueError):
        bad = singleton(DecisionTree(2, Leaf(None)))  # misses everything
        check_amplified_bias(bad, f, mus, eps=Fraction(1, 2))


def test_amplified_bias_precondition_is_exact_on_exact_miss():
    # a dictator's one sensitive bit is missed exactly by the leaf's weight
    f = dictator(2, 1)
    mus = [ProductDistribution((Fraction(1, 2), Fraction(1, 3)))]

    def mixture(miss):
        return RandomizedTree(((miss, DecisionTree(2, Leaf(None))),
                               (1 - miss, DecisionTree(2, Query(1, Leaf(None), Leaf(None))))))

    rep = check_amplified_bias(mixture(Fraction(2, 3)), f, mus, eps=Fraction(1, 3))
    assert rep.miss_before == Fraction(2, 3)
    with pytest.raises(ValueError, match="precondition failed"):
        check_amplified_bias(mixture(Fraction(2, 3) + Fraction(1, 10**10)), f, mus,
                             eps=Fraction(1, 3))


def test_mixture_from_columns_drops_exact_weights_only_at_zero():
    trees = [DecisionTree(1, Leaf(0)), DecisionTree(1, Leaf(1)), DecisionTree(1, Leaf(None))]
    tiny = Fraction(1, 10**13)
    r = mixture_from_columns(trees, GameValue(0, (), (tiny, 1 - tiny, Fraction(0))))
    assert r.entries == ((tiny, trees[0]), (1 - tiny, trees[1]))
    r = mixture_from_columns(trees, GameValue(0.0, (), (1e-13, 1 - 1e-13, 0.0)))
    assert r.entries == ((1.0, trees[1]),)  # a float weight within MIXTURE_DROP_TOL goes


def test_check_two_point_bound_cases():
    f = nand2()
    assert check_two_point_bound(singleton(complete_tree(2)), f).ok
    rep = check_two_point_bound(singleton(DecisionTree(2, Leaf(None))), f)
    assert rep.ok and rep.max_violation == 0  # equality at the empty tree


def test_the_two_point_bound_holds_with_equality():
    # x and x^{+i} share a leaf of T exactly when T's run on x misses i, and
    # that leaf holds mass 1/2 with f = 0 and 1/2 with f = 1: bias = miss/2
    rng = random.Random(17)
    half = Fraction(1, 2)
    for _ in range(60):
        m = rng.randint(1, 5)
        f = random_function(m, rng)
        r = random_randomized_tree(m, rng, support=3)
        cases = 0
        for idx in range(f.size):
            x = point_from_index(idx, m)
            for i in range(1, m + 1):
                if f.value_at(idx ^ (1 << (i - 1))) != f.value_at(idx):
                    mu = ProductDistribution(tuple(half if j == i else x[j - 1]
                                                   for j in range(1, m + 1)))
                    assert _miss_probability(r, x, i) / 2 == avg_leaf_bias(r, f, mu)
                    cases += 1
        rep = check_two_point_bound(r, f)
        assert rep.pairs_checked == rep.tight == cases and rep.max_violation == 0


# -- the adversarial-distribution search ------------------------------------------------


def test_dprod_search_parity_and_dictator():
    res = dprod_search(xor(3), 1 / 3, restarts=3, seed=1)
    assert res.depth == 3
    assert dprod_search(dictator(2), 1 / 3, restarts=2, seed=1).depth == 1


def test_dprod_search_nand_tree_sandwich():
    from qclab.dtree import exact_D

    g2 = nand_tree(2)
    res = dprod_search(g2, 1 / 3, restarts=4, seed=3)
    uniform_value = exact_Dmu_eps(g2, uniform_distribution(4), 1 / 3)
    assert uniform_value <= res.depth <= exact_D(g2)


# Results recorded before the search's curves stopped at the least depth:
# (f, restarts, seed, repr of the result).
_DPROD_PINS = [
    (nand_tree(3), 1, 20240818,
     "DprodSearchResult(mu=ProductDistribution(marginals=(0.6, 0.6, 0.6, 0.6, 0.6, 0.6, 0.6, "
     "0.6)), depth=2, evaluations=129)"),
    (nand_tree(3), 4, 20240818,
     "DprodSearchResult(mu=ProductDistribution(marginals=(0.7213333333333333, 0.61, 0.62, "
     "0.6766666666666666, 0.608, 0.7223333333333333, 0.7413333333333333, "
     "0.5666666666666667)), depth=2, evaluations=881)"),
    (nand_tree(3), 4, 3,
     "DprodSearchResult(mu=ProductDistribution(marginals=(0.799, 0.8, 0.6080000000000001, "
     "0.2566666666666667, 0.7000000000000001, 0.5333333333333333, 0.6233333333333333, "
     "0.6333333333333333)), depth=2, evaluations=826)"),
    (xor(3), 3, 1,
     "DprodSearchResult(mu=ProductDistribution(marginals=(0.4, 0.6000000000000001, 0.5)), "
     "depth=3, evaluations=105)"),
    (nand_tree(2), 4, 3,
     "DprodSearchResult(mu=ProductDistribution(marginals=(0.5563333333333333, "
     "0.5556666666666666, 0.5646666666666667, 0.522)), depth=1, evaluations=335)"),
]


@pytest.mark.parametrize("f, restarts, seed, pin", _DPROD_PINS)
def test_dprod_search_is_pinned(f, restarts, seed, pin):
    assert repr(dprod_search(f, 1 / 3, restarts=restarts, seed=seed)) == pin


def test_dprod_search_refuses_bad_arguments_before_any_lattice_work(monkeypatch):
    def no_curve(*args, **kwargs):
        raise AssertionError("a curve was computed before the arguments were checked")

    monkeypatch.setattr(games, "dist_error_curve_fast", no_curve)
    for eps in (-0.1, float("nan"), Fraction(-1, 3)):
        with pytest.raises(ValueError, match="eps must be >= 0"):
            dprod_search(xor(2), eps)
    for restarts in (0, -1):
        with pytest.raises(ValueError, match="restarts must be >= 1"):
            dprod_search(xor(2), 1 / 3, restarts=restarts)
    for restarts in (2.5, True):  # 2.5 reached linspace, True ran as 1 restart
        with pytest.raises(ValueError, match="restarts must be an integer"):
            dprod_search(xor(2), 1 / 3, restarts=restarts)


def test_eps_games_refuse_a_negative_or_nan_eps_before_any_lp(monkeypatch):
    def no_game(*args, **kwargs):
        raise AssertionError("a game was solved before eps was checked")

    monkeypatch.setattr(games, "r_game_value", no_game)
    monkeypatch.setattr(games, "rs_game_value", no_game)
    for eps in (-0.1, float("nan"), Fraction(-1, 3)):
        for exact_eps in (exact_R_eps, exact_RS_eps):
            with pytest.raises(ValueError, match="eps must be >= 0"):
                exact_eps(xor(2), eps)


def test_dump_game_renders():
    text = dump_game([[1, 2], [3, 4]], ["a", "b"], ["c", "d"])
    assert '"payoff"' in text and '"rows"' in text
