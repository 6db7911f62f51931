"""The acceptance suite: one test per criterion, each printing its pass/fail
line with the measured values.

Criterion 11 is implemented literally and is expected to be red: its
level-to-level factor-2 inequality is contradicted by exact enumeration of
all zero-error trees at the first level (the minimum of Q(1,1) over the hard
pairs is 3/2, below the required 2). The corrected form with the
differing-block allowance, reported alongside, holds. The analysis lives in
the decisions ledger, docs/decisions.md; nothing here is loosened to force a
pass.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest

from qclab import dtree, nandtree, sabotage, verify


def _run(index):
    res = verify.run_criterion(index)
    print(res.line())
    return res


def test_criterion_01_oracle_equivalence():
    res = _run(1)
    assert res.passed, res.details
    assert res.seconds < 120


@pytest.mark.parametrize("name, message", [
    ("optimal_dist_error", "dist-error mismatch at k=0"),
    ("zero_error_expected_cost", "zero-error cost mismatch"),
])
def test_criterion_01_catches_a_dp_off_by_one_weight_unit(monkeypatch, name, message):
    # negative control: the indexed brute force must see a DP value moved by
    # 1/64^m, the smallest step of its dyadic weights, on a single function
    dp = getattr(dtree, name)

    def perturbed(f, *args):
        value = dp(f, *args)
        return value + Fraction(1, 64**f.arity) if (f.arity, f.table) == (2, 6) else value

    monkeypatch.setattr(verify.dt, name, perturbed)
    res = verify.criterion_1()
    assert not res.passed
    assert "1 mismatches; first: m=2 table=6: " + message in res.details


def test_the_runner_times_every_criterion_against_its_budget(monkeypatch):
    clock = iter([10.0, 12.5, 20.0, 20.0])
    monkeypatch.setattr(verify, "time", SimpleNamespace(time=lambda: next(clock)))
    res = _run(12)
    assert res.passed and res.seconds == 2.5
    monkeypatch.setitem(verify.BUDGETS, 12, (0, "2 min"))
    res = _run(12)
    assert not res.passed and res.details.endswith(" = 1.6861406616345072; exceeded 2 min budget")


def test_criterion_02_rse_nand2():
    res = _run(2)
    assert res.passed, res.details


def test_criterion_03_case_table():
    res = _run(3)
    assert res.passed, res.details


def test_criterion_04_poincare():
    res = _run(4)
    assert res.passed, res.details


def test_criterion_05_claim1_labeling():
    res = _run(5)
    assert res.passed, res.details


def test_criterion_06_miss_profile_equivalence():
    res = _run(6)
    assert res.passed, res.details


def test_criterion_07_two_point_bound():
    res = _run(7)
    assert res.passed, res.details


def test_criterion_08_amplification():
    res = _run(8)
    assert res.passed, res.details


@pytest.fixture(scope="module")
def upper_exponent():
    res = _run(9)
    return res


def test_criterion_09_nand_upper_exponent(upper_exponent):
    assert upper_exponent.passed, upper_exponent.details
    assert upper_exponent.seconds < 600


def test_criterion_10_sabotage_lower_exponent(upper_exponent):
    res = verify.run_criterion(10, upper_base=upper_exponent.values.get("base"))
    print(res.line())
    assert res.passed, res.details


def test_criterion_11_q_recursions_literal():
    res = _run(11)
    # the corrected form and the enumerated base cases must hold regardless
    assert res.values["corrected_ok"], res.details
    # the 18 Monte-Carlo cells (t = 0..8) sit within MC_Z sigma of the exact rows
    assert len(res.values["mc_z"]) == 18 and res.values["mc_ok"], res.details
    assert max(res.values["mc_z"].values()) <= nandtree.MC_Z
    # the literal criterion: see the module docstring and docs/decisions.md
    assert res.passed, res.details


def test_criterion_12_spectral_alpha():
    res = _run(12)
    assert res.passed, res.details


def test_criterion_13_negative_controls():
    res = _run(13)
    assert res.passed, res.details


def test_criterion_13_runs_no_monte_carlo(monkeypatch):
    # its swapped-column control reads the exact Q rows
    def no_mc(*args, **kwargs):
        raise AssertionError("criterion 13 ran a Monte-Carlo estimate")

    monkeypatch.setattr(sabotage, "estimate_sep_counts", no_mc)
    res = verify.criterion_13()
    assert res.passed and res.provenance == "exact", res.details
