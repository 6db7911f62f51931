"""The four workloads: seeded inputs, the timed calls into qclab, and the
oracle checks that judge the outputs after timing stops.

Each workload is a pass of calls. ``inputs(ss, size)`` builds one pass's
inputs from a ``SeedSequence``, one child stream per cell; ``run(inputs,
ledger)`` makes the calls, looking every function up on its module at call
time so the traced run sees its wrappers; ``check(passes, ledger)`` judges
every pass and returns the real values the negative control perturbs.
"""

from __future__ import annotations

import contextlib
import io
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from qclab import boolfunc as bf
from qclab import cli
from qclab import dtree as dt
from qclab import games as gm
from qclab import nandtree as nt
from qclab import sabotage as sb

import oracle as orc

GOLDEN_P = (math.sqrt(5.0) - 1.0) / 2.0  # stationary leaf marginal of the NAND tree
# dprod_search runs with criterion 9's seed on every pass: its evaluation count
# swings several-fold with the seed, which would swamp wall_s.
DPROD_SEED = 20240809 + 9
EPS = Fraction(1, 3)


def stream_seed(ss: np.random.SeedSequence) -> int:
    return int(ss.generate_state(1)[0])


def random_table(rng: np.random.Generator, m: int) -> int:
    bits = rng.integers(0, 2, size=1 << m, dtype=np.uint8)
    return int.from_bytes(np.packbits(bits, bitorder="little").tobytes(), "little")


def random_marginals(rng: np.random.Generator, m: int) -> tuple:
    return tuple(float(p) for p in 0.05 + 0.9 * rng.random(m))


def npn_variant(rng: np.random.Generator, table: int, m: int) -> int:
    """f(pi(x) xor a) xor o for a random variable permutation pi, input mask a
    and output flip o: a seeded input with the same game values as ``table``."""
    perm = rng.permutation(m)
    mask = int(rng.integers(0, 1 << m))
    flip = int(rng.integers(0, 2))
    out = 0
    for i in range(1 << m):
        j = sum(((i >> k) & 1) << int(perm[k]) for k in range(m)) ^ mask
        out |= (((table >> j) & 1) ^ flip) << i
    return out


def _by_cell(ops) -> dict:
    return {op.cell: op for op in ops}


# ---------------------------------------------------------------------------
# mc-fold: nandtree and sabotage Monte-Carlo folds
# ---------------------------------------------------------------------------

MC_SIZES = {
    "full": {"greedy": (10, 11, 12), "sw": (10,), "sep": (9, 10), "chain_d": 8,
             "samples": 2_000, "chain_samples": 1_000},
    "smoke": {"greedy": (5, 6, 7), "sw": (5,), "sep": (4, 5), "chain_d": 4,
              "samples": 1_000, "chain_samples": 1_000},
}


def mc_inputs(ss, size: str) -> dict:
    z = MC_SIZES[size]
    specs = ([("nandtree.mc_cost", "greedy_zero", d, None) for d in z["greedy"]]
             + [("nandtree.mc_cost", "saks_wigderson", d, None) for d in z["sw"]]
             + [("sabotage.mc_sep_cost", "saks_wigderson", d, None) for d in z["sep"]]
             + [("sabotage.estimate_sep_counts", "saks_wigderson", z["chain_d"], t)
                for t in range(z["chain_d"] + 1)])
    cells = []
    for (op, algo, d, t), child in zip(specs, ss.spawn(len(specs))):
        chain = t is not None
        cells.append({
            "op": op, "algo": algo, "d": d, "t": t, "seed": stream_seed(child),
            "samples": z["chain_samples"] if chain else z["samples"],
            "marginals": np.full(1 << d, GOLDEN_P) if op == "nandtree.mc_cost" else None,
            "label": f"{op}[{algo},d={d}" + (f",t={t}]" if chain else "]"),
        })
    return {"cells": cells, "seeds": [c["seed"] for c in cells]}


def mc_run(inp: dict, ledger) -> None:
    for c in inp["cells"]:
        if c["op"] == "nandtree.mc_cost":
            ledger.call(c["op"], c["label"], nt.mc_cost, c["algo"], c["d"], c["marginals"],
                        c["samples"], c["seed"])
        elif c["op"] == "sabotage.mc_sep_cost":
            ledger.call(c["op"], c["label"], sb.mc_sep_cost, c["algo"], c["d"], c["samples"],
                        c["seed"])
        else:
            ledger.call(c["op"], c["label"], sb.estimate_sep_counts, c["algo"], c["d"], c["t"],
                        c["samples"], c["seed"])


def _mc_estimate(value) -> tuple:
    """(mean, sigma of the mean, samples); a Q(t, .) pair gives Q(t,0)+Q(t,1)
    with sigma_0 + sigma_1 as its spread."""
    if isinstance(value, tuple):
        q0, q1 = value
        return q0.mean + q1.mean, q0.sigma + q1.sigma, q0.samples
    return value.mean, value.half_width_95 / 1.96, value.samples


def _not_estimate(value) -> str:
    _mc_estimate(value)  # raises, and so misses, on an output that is not an estimate
    return ""


def _mc_exact(c: dict) -> float:
    if c["op"] == "nandtree.mc_cost":
        exact = nt.expected_cost_greedy_zero if c["algo"] == "greedy_zero" else nt.expected_cost_sw
        return float(exact(c["d"], list(c["marginals"])))
    return float(sb.expected_sep_cost_sw(c["d"] if c["t"] is None else c["t"]))


def mc_check(passes, ledger) -> dict:
    """Pool each cell's estimates over the passes and hold the pooled mean to
    z <= Z_MAX of the exact recursion; a miss fails every call of the cell."""
    cells = {}
    for inp, ops in passes:
        for c, op in zip(inp["cells"], ops):
            cells.setdefault(c["label"], (c, []))[1].append(op)
    control = None
    for c, ops in cells.values():
        for op in ops:
            ledger.check(op, _not_estimate)
        estimates = [_mc_estimate(op.value) for op in ops if op.ok]
        if not estimates:
            continue
        mean, sigma, _ = orc.pool(estimates)
        exact = _mc_exact(c)
        msg = orc.z_miss(mean, sigma, exact)
        for op in ops:
            ledger.check(op, lambda _v: msg)
        if control is None and sigma > 0:
            control = (sigma, exact)
    return {"mc": control}


# ---------------------------------------------------------------------------
# exact-dp: the recursive subcube DP, the numpy lattice, and measures
# ---------------------------------------------------------------------------

DP_SIZES = {
    "full": {"m": 8, "curve_m": 12, "dprod_depth": 3, "restarts": 1},
    "smoke": {"m": 5, "curve_m": 7, "dprod_depth": 2, "restarts": 2},
}


def dp_inputs(ss, size: str) -> dict:
    z = DP_SIZES[size]
    out = {"seeds": [], "dprod_tree": bf.nand_tree(z["dprod_depth"]), "restarts": z["restarts"]}
    for key, child, m in zip(("f", "g"), ss.spawn(2), (z["m"], z["curve_m"])):
        out["seeds"].append(stream_seed(child))
        rng = np.random.default_rng(child)
        table = random_table(rng, m)
        marg = random_marginals(rng, m)
        out[key] = (table, bf.BooleanFunction(m, table), marg, bf.ProductDistribution(marg))
    out["seeds"].append(DPROD_SEED)
    return out


def dp_run(inp: dict, ledger) -> None:
    _, f, marg, mu = inp["f"]
    m = f.arity
    ledger.call("dtree.exact_D", "exact_D", dt.exact_D, f)
    ledger.call("dtree.zero_error_expected_cost", "zero_error", dt.zero_error_expected_cost, f, mu)
    for k in range(m + 1):
        ledger.call("dtree.optimal_dist_error", f"dist_error[k={k}]", dt.optimal_dist_error,
                    f, mu, k)
    ledger.call("dtree.dist_error_curve_fast", f"curve[m={m}]", dt.dist_error_curve_fast, f, marg)
    _, g, gmarg, gmu = inp["g"]
    ledger.call("dtree.dist_error_curve_fast", f"curve[m={g.arity}]", dt.dist_error_curve_fast,
                g, gmarg)
    ledger.call("boolfunc.influence", "influence", bf.influence, g, gmu)
    ledger.call("boolfunc.sensitivity", "sensitivity", bf.sensitivity, g)
    ledger.call("boolfunc.variance", "variance", bf.variance, g, gmu)
    ledger.call("boolfunc.check_poincare", "poincare", bf.check_poincare, g, gmu)
    ledger.call("games.dprod_search", "dprod", gm.dprod_search, inp["dprod_tree"], 1 / 3,
                restarts=inp["restarts"], seed=DPROD_SEED)


def _curve_miss(curve, p1: float, m: int) -> str:
    """err(0) is the minority mass, err(m) is 0, and the curve never rises."""
    curve = [float(e) for e in curve]
    if len(curve) != m + 1:
        return f"curve has {len(curve)} levels, want {m + 1}"
    if not orc.close(curve[0], min(p1, 1 - p1)):
        return f"err(0) = {curve[0]} vs brute-force minority mass {min(p1, 1 - p1)}"
    if abs(curve[m]) > 1e-12:
        return f"err(m) = {curve[m]} != 0"
    if any(b > a + 1e-12 for a, b in zip(curve, curve[1:])):
        return "error curve rises with depth"
    return ""


def _near(want, what: str):
    return lambda v: "" if orc.close(v, want) else f"{what} {v!r} vs brute force {want!r}"


def dp_check(passes, ledger) -> dict:
    for inp, ops in passes:
        by = _by_cell(ops)
        table, f, marg, _ = inp["f"]
        m = f.arity
        constant = table in (0, (1 << (1 << m)) - 1)
        d_op, curve = by["exact_D"], by[f"curve[m={m}]"]
        ledger.check(d_op, lambda d: "" if 0 <= d <= m and (d == 0) == constant
                     else f"D = {d} outside [1, {m}]")
        ledger.check(by["zero_error"], lambda c: "" if 0 <= c <= d_op.value + 1e-9
                     else f"zero-error cost {c} above D = {d_op.value}")
        ledger.check(curve, _curve_miss, orc.measures(table, marg)["prob_one"], m)
        for k in range(m + 1):
            ledger.check(by[f"dist_error[k={k}]"], lambda e, k=k: "" if abs(
                e - curve.value[k]) <= orc.CURVE_AGREE else
                f"recursive err({k}) = {e} vs lattice {curve.value[k]}")

        gtable, g, gmarg, _ = inp["g"]
        brute = orc.measures(gtable, gmarg)
        ledger.check(by[f"curve[m={g.arity}]"], _curve_miss, brute["prob_one"], g.arity)
        ledger.check(by["influence"], _near(brute["influence"], "influence"))
        ledger.check(by["sensitivity"], lambda s: "" if s == brute["sensitivity"]
                     else f"sensitivity {s} vs brute force {brute['sensitivity']}")
        ledger.check(by["variance"], _near(brute["variance"], "variance"))
        ledger.check(by["poincare"], lambda r: "" if r.holds and orc.close(
            r.lhs, 4 * brute["variance"]) and orc.close(r.rhs, brute["influence"])
            else f"Poincare report {r} vs brute force")
        tree = inp["dprod_tree"]
        ledger.check(by["dprod"], lambda r: "" if r.evaluations > 0 and r.depth == dt.exact_Dmu_eps(
            tree, r.mu, 1 / 3) else f"search depth {r.depth} is not D^mu_1/3 of its own mu")
    return {}


# ---------------------------------------------------------------------------
# lp-games: catalogs, payoff matrices and both simplex modes
# ---------------------------------------------------------------------------

# The exact games are those of four fixed arity-3 functions: majority,
# multiplexer, parity and x1 and (x2 or x3). Their cost varies up to threefold
# over the NPN variants of one function (the simplex pivots follow the row and
# column order), so seeded tables would make the pass cost swing with the
# seed. The seed picks NPN variants of two fixed arity-4 functions instead,
# whose depth-2 games are above the 10^4-entry limit of the exact simplex and
# so run the float one, at a small and nearly constant cost.
LP_SIZES = {
    "full": {"m": 3, "reps": (0xE8, 0xCA, 0x96, 0xA8), "depth": 2,
             "float_reps": (0x6BD4, 0x1EE1)},
    "smoke": {"m": 2, "reps": (0b0111, 0b0110), "depth": 1, "float_reps": (0x6BD4,)},
}
FLOAT_M, FLOAT_DEPTH = 4, 2
NAND2_TABLE = 0b0111
XOR2_TABLE = 0b0110


def lp_inputs(ss, size: str) -> dict:
    z = LP_SIZES[size]
    m = z["m"]
    (child,) = ss.spawn(1)
    rng = np.random.default_rng(child)
    tables = list(z["reps"])
    float_tables = [npn_variant(rng, t, FLOAT_M) for t in z["float_reps"]]
    return {
        "m": m, "depth": z["depth"], "tables": tables, "float_tables": float_tables,
        "funcs": [bf.BooleanFunction(m, t) for t in tables],
        "float_funcs": [bf.BooleanFunction(FLOAT_M, t) for t in float_tables],
        "xor2": bf.BooleanFunction(2, XOR2_TABLE), "nand2": bf.BooleanFunction(2, NAND2_TABLE),
        "seeds": [stream_seed(child)],
    }


def lp_run(inp: dict, ledger) -> None:
    m = inp["m"]
    ledger.call("games.enumerate_trees", "labeled", gm.enumerate_trees, m)
    ledger.call("games.enumerate_trees", "unlabeled", gm.enumerate_trees, m, labeled=False)
    ledger.call("games.exact_R_eps", "xor2", gm.exact_R_eps, inp["xor2"], EPS)
    ledger.call("games.exact_RSE", "nand2", gm.exact_RSE, inp["nand2"])
    for t, f in zip(inp["tables"], inp["funcs"]):
        ledger.call("games.exact_RS_eps", f"rs_eps[{t}]", gm.exact_RS_eps, f, EPS)
        ledger.call("games.exact_RSE", f"rse[{t}]", gm.exact_RSE, f)
        for k in range(inp["depth"] + 1):
            ledger.call("games.r_game_value", f"r_value[{t},k={k}]", gm.r_game_value, f, k)
    for t, f in zip(inp["float_tables"], inp["float_funcs"]):
        ledger.call("games.r_game_value", f"float_value[{t}]", gm.r_game_value, f, FLOAT_DEPTH)


def _depth(node) -> int:
    return 1 + max(_depth(node.child0), _depth(node.child1)) if hasattr(node, "var") else 0


def catalog_size(n: int, k: int, base: int) -> int:
    """Trees on n variables of depth <= k: base leaves plus a root query on
    any variable with two subtrees on the other n - 1."""
    return base if n == 0 or k == 0 else base + n * catalog_size(n - 1, k - 1, base) ** 2


def _catalog_miss(catalog, want: int) -> str:
    trees = catalog.trees
    if len(trees) != want:
        return f"{len(trees)} trees, want {want}"
    return "" if len(set(trees)) == len(trees) else "catalog has duplicate trees"


def _by_depth(catalog, m: int) -> list:
    """Roots of the catalog's trees of depth <= k, for k = 0..m."""
    depths = [(_depth(t.root), t.root) for t in catalog.trees]
    return [[r for d, r in depths if d <= k] for k in range(m + 1)]


def _least_depth_miss(k, values) -> str:
    want = orc.least_depth(values, float(EPS)) if values else 0
    return "" if k == want else f"least depth {k}, linprog says {want} (values {values})"


def lp_check(passes, ledger) -> dict:
    control = None
    for inp, ops in passes:
        by = _by_cell(ops)
        m = inp["m"]
        ledger.check(by["labeled"], _catalog_miss, catalog_size(m, m, 2))
        ledger.check(by["unlabeled"], _catalog_miss, catalog_size(m, m, 1))
        ledger.check(by["xor2"], lambda k: "" if k == 2 else f"R_1/3(xor:2) = {k}, want 2")
        ledger.check(by["nand2"], lambda v: "" if v == Fraction(3, 2) else f"RS_E(NAND_2) = {v}")
        if not (by["labeled"].ok and by["unlabeled"].ok):
            for op in ops[4:]:  # their oracles read the catalogs
                ledger.check(op, lambda _v: "no oracle: the catalogs failed")
            continue
        labeled = _by_depth(by["labeled"].value, m)
        unlabeled = _by_depth(by["unlabeled"].value, m)

        for t in inp["tables"]:
            pairs = bool(orc.sabotage_pairs(t, m))
            rs_values = [orc.game_value(orc.rs_matrix(t, m, roots))
                         for roots in unlabeled] if pairs else []
            ledger.check(by[f"rs_eps[{t}]"], _least_depth_miss, rs_values)
            rse = orc.game_value(orc.rse_matrix(
                t, m, orc.zero_error_roots(t, m, unlabeled[m]))) if pairs else 0.0
            ledger.check(by[f"rse[{t}]"], orc.lp_miss, rse)
            for k in range(inp["depth"] + 1):
                ref = orc.game_value(orc.r_matrix(t, m, labeled[k]))
                ledger.check(by[f"r_value[{t},k={k}]"], lambda r, ref=ref: orc.lp_miss(
                    r[0].value, ref))
                if control is None:
                    control = ref

        for t in inp["float_tables"]:
            def judge(r, t=t):
                gv, catalog = r
                want = catalog_size(FLOAT_M, FLOAT_DEPTH, 2)
                if not isinstance(gv.value, float):
                    return f"{type(gv.value).__name__} value: the float simplex did not run"
                miss = _catalog_miss(catalog, want)
                if miss:
                    return miss
                return orc.lp_miss(gv.value, orc.game_value(orc.r_matrix(
                    t, FLOAT_M, [tree.root for tree in catalog.trees])))

            ledger.check(by[f"float_value[{t}]"], judge)
    return {"lp": control}


# ---------------------------------------------------------------------------
# verify-quick: the acceptance suite through the command line
# ---------------------------------------------------------------------------

VERIFY_CRITERIA = {"full": "1-4,6,12", "smoke": "2,3,12"}


def _criteria(spec: str) -> set:
    out = set()
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.update(range(int(lo), int(hi or lo) + 1))
    return out


def verify_inputs(ss, size: str) -> dict:
    spec = VERIFY_CRITERIA[size]
    return {"argv": ["verify", "--criteria", spec], "want": _criteria(spec), "seeds": []}


def _run_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def verify_run(inp: dict, ledger) -> None:
    ledger.call("cli.main", "verify", _run_cli, inp["argv"])


def verify_check(passes, ledger) -> dict:
    for inp, ops in passes:
        def judge(result, want=inp["want"]):
            status, text = result
            passed = {int(n) for n in re.findall(r"^PASS criterion\s+(\d+)", text, re.M)}
            missing = sorted(want - passed)
            if status != 0 or missing:
                return f"exit {status}; criteria not passed: {missing}"
            return ""

        for op in ops:
            ledger.check(op, judge)
    return {}


@dataclass(frozen=True)
class Workload:
    inputs: Callable
    run: Callable
    check: Callable
    pooled: bool = False  # judged once over all passes rather than pass by pass


WORKLOADS = {
    "mc-fold": Workload(mc_inputs, mc_run, mc_check, pooled=True),
    "exact-dp": Workload(dp_inputs, dp_run, dp_check),
    "lp-games": Workload(lp_inputs, lp_run, lp_check),
    "verify-quick": Workload(verify_inputs, verify_run, verify_check),
}
