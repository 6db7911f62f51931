import contextlib
import csv
import io
import json
import math
import os
import re
import time

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from qclab import dtree, games, nandtree, sabotage, verify
from qclab.boolfunc import (and_f, nand2, save_function, save_distribution,
                             uniform_distribution, xor)
from qclab.cli import main, normalize_for_compare
from qclab.dtree import DP_MAX_ARITY


def run_cli(capsys, *argv):
    try:
        status = main(list(argv))
    except SystemExit as exc:  # argparse refusals
        status = exc.code
    out = capsys.readouterr()
    return status, out.out, out.err


def test_measure_builtin(capsys):
    status, out, _ = run_cli(capsys, "measure", "--fn", "nand2")
    assert status == 0
    assert out.startswith("# qclab-v1")
    # the uniform mu is float: rows over it say so, and D_mu,eps was taken
    # within dtree.CURVE_TOL
    assert "zero_error_expected_cost,1.5,float" in out
    assert "Inf,1.0,float" in out and ",0,float(tol=1e-12)" in out
    assert "D,2,exact" in out


def test_measure_from_files(tmp_path, capsys):
    fpath = tmp_path / "f.tt"
    mpath = tmp_path / "mu.json"
    save_function(nand2(), str(fpath))
    save_distribution(uniform_distribution(2), str(mpath))
    status, out, _ = run_cli(capsys, "measure", "--fn", str(fpath), "--mu", str(mpath))
    assert status == 0 and "s,2,exact" in out


def test_measure_bad_input_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.tt"
    bad.write_text("nonsense\n")
    status, _, err = run_cli(capsys, "measure", "--fn", str(bad))
    assert status == 2 and "error" in err


@pytest.mark.parametrize("entries", [[None, 0.5], [[0.5], 0.5], [True, 0.5], [False, 0.5],
                                     ["0.5", 0.5], [10**400, 0.5], [-0.5, 0.5]])
def test_measure_refuses_a_distribution_file_entry_that_is_no_marginal(entries, tmp_path, capsys):
    path = tmp_path / "mu.json"
    path.write_text(json.dumps(entries))
    status, out, err = run_cli(capsys, "measure", "--fn", "xor:2", "--mu", str(path))
    assert status == 2 and out == ""
    assert "marginals must be JSON numbers in [0, 1]" in err


def test_game_command(capsys):
    status, out, _ = run_cli(capsys, "game", "--fn", "nand2")
    assert status == 0
    assert "RS_E,3/2,lp(exact)" in out
    status, _, err = run_cli(capsys, "game", "--fn", "xor:4")
    assert status == 2


def test_game_rows_name_the_simplex_mode_that_decided_them(capsys):
    # XOR_3's deciding depth-3 game has 8 x 16430 entries, above the
    # rational entry limit, so the float tableau solves it
    status, out, _ = run_cli(capsys, "game", "--fn", "xor:3")
    assert status == 0
    assert "R_eps(eps=0.3333333333333333),3,lp(float)" in out
    assert "RS_eps(eps=0.3333333333333333),2,lp(exact)" in out and "RS_E,2,lp(exact)" in out


def test_game_command_on_a_function_with_no_pairs(tmp_path, capsys):
    path = tmp_path / "game.json"
    status, out, _ = run_cli(capsys, "game", "--fn", "const1:3", "--strategies",
                             "--dump-game", str(path))
    assert status == 0
    assert "RS_E,0,lp(exact)" in out and "RS_E_strategy" not in out
    dump = json.loads(path.read_text())
    assert dump["rows"] == [] and dump["payoff"] == [] and dump["cols"]


_BUILTIN_BASES = ("xor", "and", "or", "dictator", "const0", "const1", "nandtree")


def _not_an_int(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


def _bad_fn_specs(cap: int):
    """--fn specs that a command with arity cap ``cap`` must refuse."""
    return st.one_of(
        # unknown names, with or without an arity, that are not paths either
        st.tuples(st.text(st.characters(codec="ascii"), max_size=10).filter(
            lambda b: b.strip().lower() not in _BUILTIN_BASES + ("nand2",)
            and ":" not in b and not os.path.exists(b)),
            st.sampled_from(["", ":2", ":3"])).map("".join),
        # a builtin with no arity, or one that is not an integer
        st.sampled_from(_BUILTIN_BASES),
        st.tuples(st.sampled_from(_BUILTIN_BASES),
                  st.text(max_size=8).filter(_not_an_int)).map(":".join),
        # arity below 1
        st.builds("{}:{}".format, st.sampled_from(_BUILTIN_BASES[:-1]), st.integers(-10**6, 0)),
        st.builds("nandtree:{}".format, st.integers(-10**6, -1)),
        # arity above the cap, up to far above what fits in memory; nandtree:k
        # has 2^k variables
        st.builds("{}:{}".format, st.sampled_from(_BUILTIN_BASES[:-1]),
                  st.integers(cap + 1, 10**12)),
        st.builds("nandtree:{}".format, st.integers(cap.bit_length(), 10**12)),
    )


_BAD_GAME_SPECS = _bad_fn_specs(3)


@given(_BAD_GAME_SPECS)
@settings(max_examples=200, deadline=None)
def test_game_refuses_malformed_and_oversized_specs(spec):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(["game", f"--fn={spec}"])  # "=" keeps a spec like "-;" a value
    assert status == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("qclab: error:")


def _not_a_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return True
    return False


_BAD_EPS = st.one_of(
    st.floats(max_value=-math.ulp(0.0)).map(repr),  # every negative float, -inf too
    st.integers(max_value=-1).map(str),
    st.sampled_from(["nan", "NaN", "-nan", "+nan", " nan "]),
    st.text(max_size=8).filter(_not_a_float),
)


@given(st.sampled_from([("measure", "--fn", "xor:2"), ("game", "--fn", "xor:2"),
                        ("nand", "--depth", "4", "--mu", "search")]), _BAD_EPS)
@settings(max_examples=200, deadline=None)
def test_a_bad_eps_exits_2_before_any_work(command, eps):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            pytest.raises(SystemExit) as exit_:
        main([*command, f"--eps={eps}"])
    assert exit_.value.code == 2 and out.getvalue() == ""
    assert "argument --eps" in err.getvalue()


@pytest.mark.parametrize("argv", [
    ("measure", "--fn", "xor:2", "--eps", "-0.1"),
    ("measure", "--fn", "xor:2", "--eps", "nan"),
    ("game", "--fn", "xor:2", "--eps", "-0.1"),
    ("nand", "--mu", "search", "--depth", "4", "--eps", "-0.1"),
])
def test_a_negative_or_nan_eps_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(list(argv))
    out = capsys.readouterr()
    assert exit_.value.code == 2 and out.out == ""
    assert "eps must be >= 0" in out.err


def _bad_depth_ranges(cap: int):
    """A..B depth ranges to refuse: a bound that is not an int (an empty one
    on either side too), an empty range, or a bound below 0 or above ``cap``."""
    not_int = st.text(max_size=6).filter(_not_an_int)
    depth = st.integers(0, cap)
    return st.one_of(
        st.builds("{}..{}".format, not_int, depth),
        st.builds("{}..{}".format, depth, not_int),
        st.tuples(depth, depth).filter(lambda t: t[0] > t[1]).map("{0[0]}..{0[1]}".format),
        st.builds("{}..{}".format, st.integers(-10**6, -1), depth),
        st.builds("{}..{}".format, depth, st.integers(cap + 1, 10**12)),
    )


def _bad_ints(low: int, high: int = None):
    """--opt values to refuse for an int option valid on [low, high]: text that
    is no int, and ints outside the range."""
    outside = [st.integers(-10**12, low - 1)]
    if high is not None:
        outside.append(st.integers(high + 1, 10**12))
    return st.one_of(st.text(max_size=6).filter(_not_an_int), *outside).map(str)


@contextlib.contextmanager
def _no_estimator():
    """Every estimator a command might start fails the test if it runs."""
    def ran(*args, **kwargs):
        raise AssertionError("an estimator ran on malformed input")

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((dtree, "exact_D"), (games, "dprod_search"),
                             (nandtree, "mc_cost"), (sabotage, "estimate_sep_counts")):
            mp.setattr(module, name, ran)
        yield


def _assert_refused(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), _no_estimator():
        try:
            status = main(argv)
        except SystemExit as exc:  # argparse refusals
            status = exc.code
    assert status == 2 and out.getvalue() == "", argv
    assert "error:" in err.getvalue()


def _bad_mu_specs():
    """--mu specs that neither measure nor nand takes: unknown names that are
    not paths, and const:p with p not a float or outside [0, 1] (NaN too)."""
    return st.one_of(
        st.text(max_size=10).filter(lambda s: s not in ("uniform", "golden", "search")
                                    and not s.startswith("const:") and not os.path.exists(s)),
        st.text(max_size=8).filter(_not_a_float).map("const:{}".format),
        st.floats().filter(lambda p: not 0 <= p <= 1).map("const:{!r}".format),
    )


@given(st.one_of(
    _bad_fn_specs(DP_MAX_ARITY).map(lambda spec: [f"--fn={spec}"]),
    _bad_mu_specs().map(lambda spec: ["--fn=xor:2", f"--mu={spec}"]),
))
@settings(max_examples=200, deadline=None)
def test_measure_refuses_malformed_fn_and_mu(args):
    _assert_refused(["measure", *args])


@given(st.one_of(
    _bad_mu_specs().map(lambda spec: [f"--mu={spec}"]),
    _bad_depth_ranges(nandtree.MC_MAX_DEPTH).map(lambda spec: [f"--depths={spec}"]),
    _bad_ints(0, nandtree.MC_MAX_DEPTH).map(lambda v: [f"--depth={v}"]),
    _bad_ints(100).map(lambda v: [f"--samples={v}"]),
))
@settings(max_examples=200, deadline=None)
def test_nand_refuses_malformed_mu_depths_and_samples(args):
    _assert_refused(["nand", "--depth", "4", "--samples", "500", *args])


@given(st.one_of(
    _bad_ints(1, nandtree.MC_MAX_DEPTH).map(lambda v: [f"--depth={v}"]),
    _bad_ints(1).map(lambda v: [f"--t-max={v}"]),
    _bad_ints(100).map(lambda v: [f"--samples={v}"]),
    _bad_ints(0).map(lambda v: [f"--dump-pairs={v}"]),
    # rows of 2^d-leaf pairs above the 2^26-element budget
    st.integers(1, nandtree.MC_MAX_DEPTH).flatmap(lambda d: st.tuples(
        st.just(d), st.integers((nandtree._BATCH_ELEMENTS >> d) + 1, 10**12))).map(
        lambda t: [f"--depth={t[0]}", f"--dump-pairs={t[1]}"]),
))
@settings(max_examples=200, deadline=None)
def test_sabotage_refuses_malformed_depth_t_max_samples_and_dump_pairs(args):
    _assert_refused(["sabotage", "--depth", "3", "--samples", "500", *args])


def test_game_refuses_an_arity_4_truth_table_file(tmp_path, capsys):
    path = tmp_path / "f.tt"
    save_function(and_f(4), str(path))
    status, out, err = run_cli(capsys, "game", "--fn", str(path))
    assert status == 2 and out == "" and "cap 3" in err


def test_game_refuses_an_arity_20_truth_table_file_at_once(tmp_path, capsys):
    # reading the 2^20 bits one at a time took 17.9 s before the refusal
    path = tmp_path / "f.tt"
    save_function(xor(20), str(path))
    start = time.perf_counter()
    status, out, err = run_cli(capsys, "game", "--fn", str(path))
    assert time.perf_counter() - start < 2.0
    assert status == 2 and out == "" and "arity 20 above this command's cap 3" in err


def test_nand_command_text_format(capsys):
    status, out, _ = run_cli(
        capsys, "nand", "--algo", "greedy_zero", "--depths", "2..5",
        "--samples", "1000", "--mu", "golden", "--format", "text",
    )
    assert status == 0
    obj = json.loads(out)
    fit_rows = [r for r in obj["rows"] if r["d"] == "fit"]
    assert len(fit_rows) == 1
    assert 1.0 < float(fit_rows[0]["mean"]) < 2.0


def test_depths_without_dots_is_that_one_depth(capsys):
    # "A.." is refused (see _bad_depth_ranges), while "A" still means A..A
    status, out, _ = run_cli(capsys, "nand", "--algo", "greedy_zero", "--depths", "5",
                             "--samples", "200", "--format", "text")
    assert status == 0 and [r["d"] for r in json.loads(out)["rows"]] == ["5"]


def test_nand_needs_depths(capsys):
    status, _, err = run_cli(capsys, "nand", "--algo", "greedy_zero", "--samples", "500")
    assert status == 2


def test_huge_depths_exit_2_before_allocating(capsys, monkeypatch):
    def no_search(*args, **kwargs):
        raise AssertionError("dprod_search ran before the sample count was checked")

    def no_mc(*args, **kwargs):
        raise AssertionError("Monte-Carlo work ran before the arguments were checked")

    monkeypatch.setattr(games, "dprod_search", no_search)
    monkeypatch.setattr(nandtree, "mc_cost", no_mc)
    monkeypatch.setattr(sabotage, "estimate_sep_counts", no_mc)
    monkeypatch.setattr(verify, "run_all", no_mc)
    cap, few = "Monte-Carlo cap 22", "need at least 100 samples"
    negative, levels = "depth must be >= 0", "sabotage needs --depth >= 1 and --t-max >= 1"
    for argv, message in ((("nand", "--depth", "40", "--samples", "500"), cap),
                          (("nand", "--depths", "4..40", "--samples", "500"), cap),
                          (("nand", "--depth", "4", "--mu", "search", "--samples", "0"), few),
                          (("nand", "--depth", "-1", "--samples", "500"), negative),
                          (("nand", "--depths=-1..3", "--samples", "500"), negative),
                          (("sabotage", "--depth", "40", "--samples", "500"), cap),
                          (("sabotage", "--depth", "6", "--samples", "0"), few),
                          (("sabotage", "--depth", "0", "--samples", "500"), levels),
                          (("sabotage", "--depth", "-1", "--samples", "500"), levels),
                          (("sabotage", "--depth", "6", "--t-max", "0"), levels),
                          (("sabotage", "--depth", "6", "--t-max", "-2"), levels),
                          (("sabotage", "--depth", "3", "--dump-pairs", "-1"),
                           "--dump-pairs must be >= 0"),
                          (("sabotage", "--depth", "22", "--dump-pairs", "1000"),
                           "1000 rows of 2^22-leaf pairs exceed the 2^26-element budget"),
                          (("sabotage", "--depth", "20", "--dump-pairs", "65"),
                           "65 rows of 2^20-leaf pairs exceed"),
                          (("verify", "--criteria", "3-1"), "empty criteria range 3-1"),
                          (("verify", "--criteria", "2,5-4"), "empty criteria range 5-4"),
                          (("sabotage", "--depth", "3", "--eps", "0.1"), "unrecognized arguments"),
                          (("verify", "--criteria", "12", "--eps", "0.1"),
                           "unrecognized arguments")):
        status, out, err = run_cli(capsys, *argv)
        assert status == 2 and out == ""
        assert message in err


@pytest.mark.parametrize("mu", ["const:2", "const:nan", "const:-0.5"])
def test_nand_refuses_marginals_outside_the_unit_interval(mu, capsys):
    for algo in ("greedy_zero", "saks_wigderson"):
        status, out, err = run_cli(capsys, "nand", "--algo", algo, "--depth", "4",
                                   "--samples", "500", "--mu", mu)
        assert status == 2 and out == ""
        assert "marginals must lie in [0, 1]" in err


def test_sabotage_command(tmp_path, capsys):
    out_path = tmp_path / "sab.csv"
    status, _, _ = run_cli(
        capsys, "sabotage", "--depth", "3", "--samples", "500",
        "--dump-pairs", "2", "--out", str(out_path),
    )
    assert status == 0
    text = out_path.read_text()
    assert '"F_min[b=0,b\'=1]",2' in text  # comma in the name forces quoting
    assert "spectral_alpha" in text
    assert "pair[0]" in text and "pair[1]" in text
    rows = {r["item"]: r for r in csv.DictReader(io.StringIO(
        "\n".join(ln for ln in text.splitlines() if not ln.startswith("#"))))}
    assert rows["spectral_alpha"]["provenance"] == "float"  # a float closed form
    # the recursion rows are decided on the exact Q rows, with no slack
    assert rows["Q(1,1) >= 2 Q(0,0) + Q(0,1)/2"] == {
        "item": "Q(1,1) >= 2 Q(0,0) + Q(0,1)/2", "value": "3/2",
        "detail": "rhs=2;ok=0;ok_corrected=1", "provenance": "exact"}
    assert rows["recursion_corrected_ok"]["value"] == "1"
    assert rows["recursion_corrected_ok"]["provenance"] == "exact"
    # each Monte-Carlo Q(t,b) row carries its z against the exact value
    assert rows["Q(0,0)"]["detail"] == "d=3;z=0.00"
    for t in range(4):
        for b in (0, 1):
            z = float(rows[f"Q({t},{b})"]["detail"].split(";z=")[1])
            assert 0 <= z <= nandtree.MC_Z, (t, b, z)


# The pair rows of ``sabotage --depth 5 --samples 200 --dump-pairs 4 --seed 3``:
# they pin the draws of ``sample_hard_pair`` and of each run's seed.
DUMPED_PAIRS = [
    "pair[0],12,x=11101011101011011011101110101101;y=11101011101011011001101110101101;"
    "sep=18;q0=2;q1=10,mc(1)",
    "pair[1],9,x=11101001111011101110111001101101;y=11101001111011101110101001101101;"
    "sep=21;q0=4;q1=5,mc(1)",
    "pair[2],2,x=10100111111001111101111010011101;y=10100111101001111101111010011101;"
    "sep=9;q0=1;q1=1,mc(1)",
    "pair[3],19,x=10011110110111011011011110110110;y=10011110110110011011011110110110;"
    "sep=13;q0=7;q1=12,mc(1)",
]


def test_sabotage_dumped_pairs_are_pinned_and_pass_the_audit(capsys):
    status, out, _ = run_cli(capsys, "sabotage", "--depth", "5", "--samples", "200",
                             "--dump-pairs", "4", "--seed", "3")
    assert status == 0
    assert [ln for ln in out.splitlines() if ln.startswith("pair[")] == DUMPED_PAIRS
    for line in DUMPED_PAIRS:
        x, y = (tuple(map(int, s.split("=")[1])) for s in line.split(",")[2].split(";")[:2])
        assert sabotage.check_embedding(sabotage.HardPair(5, x, y))


def test_compare_mode_ignores_wall_time(tmp_path, capsys):
    out_path = tmp_path / "a.csv"
    args = ["nand", "--algo", "saks_wigderson", "--depths", "2..5",
            "--samples", "800", "--seed", "7", "--out", str(out_path)]
    assert main(args) == 0
    capsys.readouterr()
    status, out, _ = run_cli(
        capsys, "nand", "--algo", "saks_wigderson", "--depths", "2..5",
        "--samples", "800", "--seed", "7", "--compare", str(out_path),
    )
    assert status == 0 and "outputs match" in out
    # different seed must differ
    status, _, err = run_cli(
        capsys, "nand", "--algo", "saks_wigderson", "--depths", "2..5",
        "--samples", "800", "--seed", "8", "--compare", str(out_path),
    )
    assert status == 1


def test_an_unreadable_compare_file_exits_2_before_the_command_runs(tmp_path):
    missing = str(tmp_path / "missing" / "x.csv")
    for argv in (["measure", "--fn", "xor:2"], ["nand", "--depth", "4", "--samples", "500"],
                 ["sabotage", "--depth", "3", "--samples", "500"],
                 ["measure", "--fn", "xor:2", "--out", str(tmp_path / "x.csv")]):
        _assert_refused(argv + ["--compare", missing])
    _assert_refused(["measure", "--fn", "xor:2", "--compare", str(tmp_path)])  # a directory
    assert not (tmp_path / "x.csv").exists()


def test_an_unwritable_out_path_exits_2(tmp_path, capsys):
    status, out, err = run_cli(capsys, "measure", "--fn", "xor:2",
                               "--out", str(tmp_path / "missing" / "x.csv"))
    assert status == 2 and out == ""
    assert err.startswith("qclab: error:") and "missing" in err


def test_threads_do_not_change_output(tmp_path, capsys):
    out_path = tmp_path / "t.csv"
    base = ["nand", "--algo", "both", "--depths", "3..6", "--samples", "600",
            "--seed", "3"]
    assert main(base + ["--out", str(out_path)]) == 0
    capsys.readouterr()
    os.environ["QCLAB_THREADS"] = "4"
    try:
        status, out, _ = run_cli(capsys, *base, "--compare", str(out_path))
    finally:
        del os.environ["QCLAB_THREADS"]
    assert status == 0 and "outputs match" in out


@pytest.mark.parametrize("threads", ["abc", "0", "-2", "", "1.5"])
def test_a_bad_thread_count_exits_2_before_any_command_runs(threads, capsys, monkeypatch):
    monkeypatch.setenv("QCLAB_THREADS", threads)
    with _no_estimator():
        for argv in (("nand", "--depth", "4", "--mu", "search", "--samples", "500"),
                     ("sabotage", "--depth", "3", "--samples", "500"),
                     ("measure", "--fn", "xor:2")):
            status, out, err = run_cli(capsys, *argv)
            assert status == 2 and out == ""
            assert f"QCLAB_THREADS must be a positive int, got {threads!r}" in err


def test_normalize_for_compare():
    a = "# qclab-v1\n# wall_time_s=1.0\nrow\n"
    b = "# qclab-v1\n# wall_time_s=9.9\nrow\n"
    assert normalize_for_compare(a) == normalize_for_compare(b)


def test_verify_compare_ignores_the_seconds_column(tmp_path, capsys):
    for fmt in ("csv", "text"):
        out_path = tmp_path / f"v.{fmt}"
        args = ["verify", "--criteria", "4,12", "--format", fmt]
        assert main(args + ["--out", str(out_path)]) == 0
        capsys.readouterr()
        text = out_path.read_text()
        assert "seconds" in text
        # another run's timings: the passed column precedes the seconds
        slower = re.sub(r'"seconds": "[0-9.]+"', '"seconds": "99.9"', text)
        slower = re.sub(r",1,[0-9.]+,", ",1,99.9,", slower)
        assert slower.count("99.9") == 2
        out_path.write_text(slower)
        status, out, _ = run_cli(capsys, *args, "--compare", str(out_path))
        assert status == 0 and "outputs match" in out, fmt
def test_verify_subset(capsys):
    status, out, _ = run_cli(capsys, "verify", "--criteria", "2,3,12", "--format", "text")
    assert status == 0
    assert out.count("PASS") >= 3


def test_verify_rows_say_how_each_criterion_was_measured(capsys, monkeypatch):
    # few Monte-Carlo runs keep this fast; only the provenance column is checked
    monkeypatch.setattr(verify, "MC_SAMPLES", 1000)
    _, out, _ = run_cli(capsys, "verify", "--format", "csv")
    rows = csv.DictReader(io.StringIO(out[out.index("criterion,name,"):]))
    assert {int(r["criterion"]): r["provenance"] for r in rows} == {
        1: "exact", 2: "exact", 3: "exact", 4: "float(tol=1e-9)", 5: "exact", 6: "exact",
        7: "exact", 8: "float(tol=1e-9)", 9: "mc(fit;n=11)", 10: "mc(fit;n=9)", 11: "exact",
        12: "float(tol=1e-12)", 13: "exact"}


def test_verify_unknown_criterion(capsys):
    status, _, err = run_cli(capsys, "verify", "--criteria", "99")
    assert status == 2
