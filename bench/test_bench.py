"""The benchmark's own tests: smoke sizes of every workload, the oracle's
negative control, seeding, and the tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import numpy as np  # noqa: E402

import oracle as orc  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT, script: Path = BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert "failed_frac 0 ratio" in proc.stdout
    want = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert isinstance(m["value"], float)
    if not trace:
        assert result["metrics"]["ok_frac"]["value"] == 1.0
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_layer_metric_table_matches_benchmark_json():
    assert [(m, u, b) for m, u, b in spans.LAYER_METRICS] == [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("mc-fold", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_negative_control_counts_perturbed_values_as_failed():
    assert orc.negative_control() == []
    assert orc.negative_control(mc=(0.5, 122.99), lp=1 / 3) == []
    # the unperturbed values pass the same judges
    assert orc.z_miss(122.99 + 3.9 * 0.5, 0.5, 122.99) == ""
    assert orc.lp_miss(0.5 + 1e-9, orc.game_value(np.eye(2))) == ""


def test_a_raising_call_is_one_failed_operation():
    ledger = orc.Ledger()
    ledger.call("boom", "cell", lambda: 1 / 0)
    ok = ledger.call("fine", "cell", lambda: 2)
    ledger.check(ok, lambda v: "" if v == 2 else "wrong")
    assert (ledger.attempted, ledger.failed) == (2, 1)
    assert "ZeroDivisionError" in ledger.failures()[0]["error"]


def test_mc_oracle_counts_a_biased_fold_as_failed():
    inp = workloads.mc_inputs(np.random.SeedSequence(3), "smoke")
    ledger = orc.Ledger()
    workloads.mc_run(inp, ledger)
    ops = list(ledger.ops)
    first = ops[0].value
    ops[0].value = type(first)(first.mean + 50 * first.half_width_95, first.half_width_95,
                               first.samples)
    workloads.mc_check([(inp, ops)], ledger)
    assert ledger.failed == 1 and not ops[0].ok


def test_inputs_follow_the_seed():
    for name, wl in workloads.WORKLOADS.items():
        a = wl.inputs(np.random.SeedSequence(5), "smoke")["seeds"]
        b = wl.inputs(np.random.SeedSequence(5), "smoke")["seeds"]
        assert a == b, name
    mc = workloads.mc_inputs
    assert mc(np.random.SeedSequence(5), "smoke")["seeds"] != \
        mc(np.random.SeedSequence(6), "smoke")["seeds"]


def test_tracer_wraps_imported_names_and_restores_them():
    from qclab import dtree, games, verify

    originals = (dtree.exact_D, games.dist_error_curve_fast, verify.ALL_CRITERIA[1])
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert dtree.exact_D is not originals[0]
        assert games.dist_error_curve_fast is not originals[1]
        assert verify.ALL_CRITERIA[1] is not originals[2]
        assert games.dist_error_curve_fast is dtree.dist_error_curve_fast
        assert games.exact_R_eps(games.BooleanFunction(2, 0b0110), Fraction(1, 3)) == 2
    finally:
        tracer.uninstall()
    assert (dtree.exact_D, games.dist_error_curve_fast, verify.ALL_CRITERIA[1]) == originals

    names = [s[0] for s in tracer.spans]
    root = names.index("games.exact_R_eps")
    solves = [s for s in tracer.spans if s[0] == "games.solve_zero_sum.exact"]
    assert solves and all(tracer.spans[s[3]][0] == "games.r_game_value" for s in solves)
    assert tracer.spans[root][3] == -1
    selfs = spans.self_times(tracer.spans)
    total = tracer.spans[root][2] - tracer.spans[root][1]
    assert 0 <= selfs["games.exact_R_eps"] < total
    layer = spans.layer_metrics(tracer.spans, 1, 0.0)
    assert layer["games.solve_zero_sum.exact.calls"]["value"] == len(solves)
    assert layer["games.enumerate_trees.trees_per_s"]["value"] > 0
