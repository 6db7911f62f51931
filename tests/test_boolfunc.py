import hashlib
import random
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

import qclab.boolfunc as boolfunc
from qclab.boolfunc import (
    MAX_ARITY,
    TOL,
    _at_most,
    _provenance,
    BooleanFunction,
    ProductDistribution,
    and_f,
    avg_sensitivity,
    builtin_function,
    check_poincare,
    constant,
    dictator,
    influence,
    load_distribution,
    load_function,
    nand2,
    nand_tree,
    or_f,
    parse_truth_table,
    format_truth_table,
    point_from_index,
    prob_one,
    random_distribution,
    random_function,
    save_distribution,
    save_function,
    sensitivity,
    uniform_distribution,
    variance,
    xor,
)
from qclab.boolfunc import _masses

# -- strategies --------------------------------------------------------------


@st.composite
def functions(draw, max_arity=6):
    m = draw(st.integers(min_value=1, max_value=max_arity))
    table = draw(st.integers(min_value=0, max_value=(1 << (1 << m)) - 1))
    return BooleanFunction(m, table)


@st.composite
def functions_with_mu(draw, max_arity=6):
    f = draw(functions(max_arity))
    ps = draw(
        st.lists(
            st.floats(min_value=0.01, max_value=0.99),
            min_size=f.arity,
            max_size=f.arity,
        )
    )
    return f, ProductDistribution(tuple(ps))


# -- construction ------------------------------------------------------------


def test_table_invariants():
    with pytest.raises(ValueError):
        BooleanFunction(0, 0)
    with pytest.raises(ValueError):
        BooleanFunction(25, 0)
    with pytest.raises(ValueError):
        BooleanFunction(1, 16)  # does not fit 2 bits


# -- sensitivity and influence -------------------------------------------------


def test_sensitivity_examples():
    for m in (1, 2, 3, 5):
        f = xor(m)
        assert sensitivity(f) == m
    assert sensitivity(or_f(2)) == 2
    assert sensitivity(nand_tree(2)) == 2  # exhaustive scan over 16 inputs


def test_influence_examples():
    u = uniform_distribution(2)
    assert influence(xor(2), u) == pytest.approx(2.0)
    # a 0 marginal's term is 0: the dictator on it has no influence
    assert influence(dictator(2, 1), ProductDistribution((0.0, 0.7))) == 0
    c = constant(3, 1)
    u3 = uniform_distribution(3)
    assert variance(c, u3) == 0
    assert influence(c, u3) == 0


def _loop_measures(f, mu):
    """Pr[f = 1], Inf(f) and the average sensitivity by summing point masses."""
    q = inf = avg = 0
    for idx in range(f.size):
        w = mu.point_prob(point_from_index(idx, f.arity))
        q = q + f.value_at(idx) * w
        for j in range(f.arity):
            if f.value_at(idx) != f.value_at(idx ^ (1 << j)):
                p = mu.marginals[j]
                inf = inf + 4 * p * (1 - p) * w
                avg = avg + w
    return q, inf, avg


def test_rational_mu_stays_exact_above_arity_6():
    # the exact path used to be picked from the first marginal alone, so an
    # int first marginal sent this rational mu down the float path
    f = random_function(7, random.Random(7))
    mu = ProductDistribution((1,) + (Fraction(1, 3),) * 6)
    got = (prob_one(f, mu), influence(f, mu), avg_sensitivity(f, mu))
    assert all(type(v) is Fraction for v in got)
    assert got == _loop_measures(f, mu)


def test_exact_measures_sum_over_the_positive_mass_support():
    # 0 and 1 marginals (Fraction or int) give zero masses; every mass of the
    # vector, read by value, equals point_prob
    rng = random.Random(11)
    for _ in range(200):
        m = rng.randint(1, 7)
        f = random_function(m, rng)
        mu = ProductDistribution(tuple(
            rng.choice((0, 1, Fraction(0), Fraction(1), Fraction(rng.randint(1, 7), 8)))
            for _ in range(m)))
        masses = [mu.point_prob(point_from_index(idx, m)) for idx in range(f.size)]
        w, ar = _masses(mu.marginals)
        assert [ar.value(v) for v in w] == masses
        assert (prob_one(f, mu), influence(f, mu), avg_sensitivity(f, mu)) == _loop_measures(f, mu)


def test_float_masses_are_the_kron_product_bit_for_bit():
    rng = random.Random(9)
    for m in range(1, 15):
        for marginals in ([rng.random() for _ in range(m)],
                          [Fraction(rng.randint(0, 8), 8) for _ in range(m)]):
            want = np.array([1.0])
            for p in marginals:
                want = np.kron(np.array([1.0 - float(p), float(p)]), want)
            got, _ = _masses([float(p) for p in marginals])
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@given(functions_with_mu())
@settings(max_examples=60, deadline=None)
def test_float_mu_numpy_paths_match_the_loop(fm):
    f, mu = fm
    got = (prob_one(f, mu), influence(f, mu), avg_sensitivity(f, mu))
    assert all(type(v) is float for v in got)
    assert got == pytest.approx(_loop_measures(f, mu), rel=0, abs=1e-12)


@given(functions_with_mu())
@settings(max_examples=60, deadline=None)
def test_poincare_and_average_sensitivity(fm):
    f, mu = fm
    rep = check_poincare(f, mu)
    assert rep.holds
    assert rep.rhs <= avg_sensitivity(f, mu) + 1e-9


def test_poincare_equality_cases():
    u = uniform_distribution(2)
    rep = check_poincare(xor(2), u)
    assert rep.lhs == pytest.approx(1.0) and rep.rhs == pytest.approx(2.0)
    rep = check_poincare(dictator(2, 1), u)
    assert rep.lhs == pytest.approx(rep.rhs)  # dictator is tight
    rep = check_poincare(constant(2, 0), u)
    assert rep.lhs == 0 and rep.rhs == 0 and rep.holds


@pytest.mark.parametrize("a, b, want", [
    (Fraction(1, 3) + Fraction(1, 10**12), Fraction(1, 3), False),  # exact: no slack at all
    (Fraction(1, 3), Fraction(1, 3), True),
    (Fraction(1, 3) - Fraction(1, 10**12), Fraction(1, 3), True),
    (2, 1, False),
    (np.int64(1), Fraction(1), True),  # numpy ints are rational too
    (0.5 + TOL / 2, 0.5, True),  # floats: within TOL
    (0.5 + 2 * TOL, 0.5, False),
    (Fraction(1, 2) + Fraction(1, 10**10), 0.5, True),  # mixed pairs take the float rule
    (0.5 + 2 * TOL, Fraction(1, 2), False),
    (np.float32(0.5), Fraction(1, 2), True),
    (float("nan"), 1, False),
    (0, float("nan"), False),
    (float("nan"), float("nan"), False),
])
def test_at_most_is_exact_on_rationals_and_within_tol_otherwise(a, b, want):
    assert _at_most(a, b) is want


def test_at_most_reads_its_tolerance_only_for_floats():
    assert _at_most(1.0, 0.5, tol=1) and not _at_most(1, Fraction(1, 2), tol=1)


def test_provenance_names_the_arithmetic_and_the_tolerance():
    assert _provenance([1, Fraction(1, 3)]) == _provenance([0], 1e-12) == "exact"
    assert _provenance([Fraction(1, 3), 0.5]) == "float"
    assert _provenance((0.5,), 1e-9) == "float(tol=1e-9)"
    assert _provenance((np.float64(0.5),), 1e-12) == "float(tol=1e-12)"


def test_exact_poincare_is_decided_with_zero_slack(monkeypatch):
    f, mu = dictator(2, 1), ProductDistribution((Fraction(1, 3), Fraction(1, 2)))
    rep = check_poincare(f, mu)
    assert rep.lhs == rep.rhs == Fraction(8, 9) and rep.holds  # a dictator is tight
    variance = boolfunc.variance
    monkeypatch.setattr(boolfunc, "variance",
                        lambda f, mu: variance(f, mu) + Fraction(1, 4 * 10**10))
    rep = check_poincare(f, mu)
    assert rep.lhs - rep.rhs == Fraction(1, 10**10) and not rep.holds
    # the same 1e-10 on a float mu is within TOL
    rep = check_poincare(f, ProductDistribution((1 / 3, 0.5)))
    assert rep.lhs > rep.rhs and rep.holds


def test_numpy_float32_marginals_take_the_float_path():
    f = random_function(3, random.Random(8))
    mu32 = ProductDistribution(tuple(np.float32(p) for p in (0.3, 0.6, 0.1)))
    mu64 = ProductDistribution(tuple(float(p) for p in mu32.marginals))
    got = prob_one(f, mu32)
    assert type(got) is float and got == prob_one(f, mu64)


# -- distributions ---------------------------------------------------------------


def test_distribution_refuses_marginals_that_are_not_real_numbers():
    for bad in (True, False, None, "0.5", 0.5j, (0.5,), np.bool_(True)):
        with pytest.raises(ValueError, match="is not a real number"):
            ProductDistribution((bad, 0.5))
    for bad in (-1, Fraction(3, 2), 1.5, float("nan")):
        with pytest.raises(ValueError, match=r"outside \[0, 1\]"):
            ProductDistribution((0.5, bad))
    for good in (0, 1, Fraction(1, 3), 0.25, np.float64(0.5), np.float32(0.5), np.int64(1)):
        assert ProductDistribution((good,)).marginals == (good,)


def test_point_prob_fraction_arithmetic_survives():
    mu = ProductDistribution((Fraction(1, 3), Fraction(1, 2)))
    assert mu.point_prob((1, 0)) == Fraction(1, 6)
    assert prob_one(and_f(2), mu) == Fraction(1, 6)


# -- builtins and file formats ----------------------------------------------------


def test_builtin_names():
    assert builtin_function("nand2") == nand2()
    assert builtin_function("xor:3") == xor(3)
    assert builtin_function("nandtree:2") == nand_tree(2)
    assert builtin_function("const1:2") == constant(2, 1)
    with pytest.raises(ValueError):
        builtin_function("mystery:2")
    with pytest.raises(ValueError):
        builtin_function("xor")


def test_builtin_arity_is_capped_before_the_table_is_built():
    assert builtin_function("nandtree:3", max_arity=8) == nand_tree(3)
    assert builtin_function("dictator:4", max_arity=4) == dictator(4)
    # 3_0 parses as 30, and nandtree:40 has 2^40 variables: refused at once
    for spec, cap in (("xor:5", 4), ("nandtree:3", 7), ("nand2", 1), ("xor:3_0", MAX_ARITY),
                      ("nandtree:40", MAX_ARITY), ("and:0", 3), ("or:-2", 3),
                      ("nandtree:-1", 3), (f"const1:{10**15}", MAX_ARITY)):
        with pytest.raises(ValueError, match="arity outside"):
            builtin_function(spec, max_arity=cap)


def test_nand_tree_agrees_with_direct_evaluation():
    from qclab.nandtree import eval_formula

    # the root's children read the low and the high half of the leaves, so
    # g_d at index (hi << 2^(d-1)) | lo is 1 - g_{d-1}(hi) g_{d-1}(lo)
    table = np.array([0, 1])
    for d in range(5):
        if d:
            table = 1 - np.outer(table, table).ravel()
        f = nand_tree(d)
        assert f.table_array().tolist() == table.tolist()
        for idx in range(f.size):
            x = point_from_index(idx, f.arity)
            assert f.value_at(idx) == eval_formula(list(x)) == table[idx]


def test_dictator_refuses_a_variable_outside_its_arity():
    assert dictator(3, 3).table == sum(1 << idx for idx in range(8) if idx & 4)
    for i in (0, 4, 5, -1):
        with pytest.raises(ValueError, match="outside"):
            dictator(3, i)


def test_truth_table_roundtrip(tmp_path):
    f = random_function(4, random.Random(3))
    text = format_truth_table(f)
    assert parse_truth_table(text) == f
    path = tmp_path / "f.tt"
    save_function(f, str(path))
    assert load_function(str(path)) == f
    with pytest.raises(ValueError):
        parse_truth_table("m=2\n011\n")
    with pytest.raises(ValueError):
        parse_truth_table("nope")


def test_truth_table_arity_is_checked_before_its_bit_count_is_built():
    # m = 10^9 reached 158 MiB building 1 << m for the length check
    tracemalloc.start()
    try:
        for m in (10**9, 10**18, MAX_ARITY + 1, 0, -3):
            with pytest.raises(ValueError, match=rf"arity must be in \[1, {MAX_ARITY}\], got {m}"):
                parse_truth_table(f"m={m}\n0101\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_distribution_roundtrip(tmp_path):
    mu = random_distribution(5, np.random.default_rng(0))
    path = tmp_path / "mu.json"
    save_distribution(mu, str(path))
    back = load_distribution(str(path))
    assert back.marginals == pytest.approx(mu.marginals)


# -- the table's one writer and one reader -------------------------------------


def _sha(items):
    h = hashlib.sha256()
    for item in items:
        h.update((hex(item) if isinstance(item, int) else item).encode() + b"\n")
    return h.hexdigest()


def test_builders_keep_the_tables_pinned_before_the_linear_rewrite():
    # recorded at the parent of the linear builders, from its per-bit loops
    assert _sha(xor(m).table for m in range(1, 13)) == (
        "7faa28a39c39e8694998fa6df9130374e0b1d13b13eef26d8aed4832f8fb1c70")
    assert _sha(dictator(m, i).table for m in range(1, 13) for i in range(1, m + 1)) == (
        "ca6c6959a0d56dca6720b644e2347556822e12ff5c9731c845a281dc6b977e18")
    assert _sha(nand_tree(d).table for d in range(5)) == (
        "721083bbc2f7effea0d0a8c5355e487e859b18aadae9d0bda41f1ec94529316a")
    seeded = [random_function(m, np.random.default_rng(s)) for m in range(1, 11) for s in range(5)]
    assert _sha(f.table for f in seeded) == (
        "e36ff5003b30b24dcb074487b3a75e1e5c7913e42e15d7e5dc986eaa3f96c077")
    assert _sha(format_truth_table(f) for f in seeded) == (
        "9c21d4b89e0af44617e700b53ae53301d071f18ca174a7e2db26173e6697b90d")


@given(functions(max_arity=10))
@settings(max_examples=60, deadline=None)
def test_table_text_and_bits_round_trip(f):
    assert parse_truth_table(format_truth_table(f)) == f
    assert f.bits() == tuple(f.table_array().tolist())
    assert f.bits() == tuple(f.value_at(i) for i in range(f.size))


def test_tables_are_built_and_read_in_linear_time():
    # the per-bit loops took 15.4 s (parse), 4.5 s (xor) and 3.9 s (dictator)
    # at m = 20, and format and bits about 4 s
    m = 20

    def timed(fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        assert time.perf_counter() - start < 1.0, fn.__name__
        return out

    f = timed(xor, m)
    text = timed(format_truth_table, f)
    assert timed(parse_truth_table, text) == f
    assert timed(dictator, m, 3).value_at(1 << 2) == 1
    assert sum(timed(f.bits)) == 1 << (m - 1)


@pytest.mark.parametrize("build", [
    lambda: BooleanFunction(True, 2), lambda: BooleanFunction(2.0, 2),
    lambda: dictator(2, True), lambda: dictator(2, 1.0), lambda: xor(2.0),
    lambda: nand_tree(True), lambda: nand_tree(2.0), lambda: nand_tree(-1)])
def test_integer_arguments_refuse_bools_and_non_integers(build):
    with pytest.raises(ValueError, match=r"must be an integer|must be >= 0"):
        build()


def test_a_numpy_int_arity_builds_a_python_int_arity():
    f = BooleanFunction(np.int64(3), 5)
    assert f == BooleanFunction(3, 5) and type(f.arity) is int
    assert BooleanFunction(np.int64(7), 1).size == 128


# -- the point's one format and f's one flip route ------------------------------


def test_measures_are_pinned_before_the_one_flip_route():
    # recorded at the parent of boolfunc._flips, from _sensitivity_vector and
    # influence's own flip loop: exact, float and 0/1-int marginals
    rng = random.Random(31)
    h = hashlib.sha256()
    for m in range(1, 11):
        for _ in range(4):
            f = random_function(m, rng)
            mus = [boolfunc.random_dyadic_distribution(m, rng), random_distribution(m, rng),
                   ProductDistribution(tuple(rng.choice((0, 1, Fraction(1, 3))) for _ in range(m)))]
            h.update(repr((sensitivity(f), [(influence(f, mu), avg_sensitivity(f, mu))
                                            for mu in mus])).encode())
    assert h.hexdigest() == "97c26e75cec94febe65097478d59f7666fbc963c94824d499b7b389c01a8aff7"


@given(st.integers(1, 12).flatmap(
    lambda m: st.tuples(st.just(m), st.lists(st.integers(0, (1 << m) - 1), min_size=1))))
@settings(max_examples=80, deadline=None)
def test_point_bits_and_point_index_are_inverse(case):
    m, indices = case
    bits = boolfunc._point_bits(indices, m)
    assert bits.shape == (len(indices), m)
    assert [tuple(row) for row in bits.tolist()] == [point_from_index(i, m) for i in indices]
    assert boolfunc._point_index(bits).tolist() == indices
    assert boolfunc._point_index(bits.astype(bool)).tolist() == indices


@given(functions(max_arity=8))
@settings(max_examples=60, deadline=None)
def test_flips_match_a_value_at_oracle(f):
    flips = list(boolfunc._flips(f))
    assert len(flips) == f.arity
    for j, got in enumerate(flips):
        assert got.dtype == bool
        assert got.tolist() == [f.value_at(x) != f.value_at(x ^ (1 << j)) for x in range(f.size)]
