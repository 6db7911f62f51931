"""Command-line front end: measures, tiny-arity games, NAND-tree experiments,
the sabotage pipeline, and the acceptance suite.

Output is a versioned CSV (`# qclab-v1` header) or structured text (JSON).
Identical configuration and seed give identical bytes apart from the
timings (the wall time and verify's per-criterion seconds), which
`--compare` ignores. Worker count for independent experiment
cells comes from QCLAB_THREADS (default 1); aggregation is ordered by cell
index, so threading never changes output.

Exit codes: 0 success, 1 criterion failure or comparison mismatch,
2 usage or input errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import __version__
from . import boolfunc as bf
from . import dtree as dt
from . import games as gm
from . import nandtree as nt
from . import sabotage as sb
from . import verify as vf

__all__ = ["main", "RunRecord", "render_record", "normalize_for_compare"]


# ---------------------------------------------------------------------------
# Records and rendering
# ---------------------------------------------------------------------------


@dataclass
class RunRecord:
    command: str
    config: dict
    rows: list
    wall_time_s: float = 0.0


def _fmt(v) -> str:
    if isinstance(v, Fraction):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return str(int(v))
    return str(v)


def render_record(rec: RunRecord, fmt: str) -> str:
    if fmt == "text":
        obj = {
            "command": rec.command,
            "config": {k: _fmt(v) for k, v in sorted(rec.config.items())},
            "rows": [{k: _fmt(v) for k, v in row.items()} for row in rec.rows],
            "version": __version__,
            "wall_time_s": round(rec.wall_time_s, 3),
        }
        return json.dumps(obj, indent=1, sort_keys=True) + "\n"
    lines = ["# qclab-v1", f"# version={__version__}", f"# command={rec.command}"]
    for k, v in sorted(rec.config.items()):
        lines.append(f"# config {k}={_fmt(v)}")
    lines.append(f"# wall_time_s={rec.wall_time_s:.3f}")
    if rec.rows:
        header = []
        for row in rec.rows:
            for k in row:
                if k not in header:
                    header.append(k)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for row in rec.rows:
            writer.writerow([_fmt(row.get(k, "")) for k in header])
        lines.append(buf.getvalue().rstrip("\n"))
    return "\n".join(lines) + "\n"


def normalize_for_compare(text: str) -> str:
    """Drop the timings (the wall time, and the per-criterion ``seconds``
    column of verify); everything else must match byte for byte."""
    kept = [
        ln for ln in text.splitlines()
        if not ln.startswith("# wall_time_s=") and '"wall_time_s"' not in ln
        and not ln.lstrip().startswith('"seconds":')
    ]
    body = [ln for ln in kept if not ln.startswith("#")]
    header = next(csv.reader(body[:1]), [])
    if "seconds" in header:
        k = header.index("seconds")
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(r[:k] + r[k + 1:] for r in csv.reader(body))
        kept = [ln for ln in kept if ln.startswith("#")] + buf.getvalue().splitlines()
    return "\n".join(kept) + "\n"


def _mc_provenance(est) -> str:
    return f"mc({est.samples};ci={est.half_width_95:.4g})"


def _threads() -> int:
    """The worker count in QCLAB_THREADS (default 1): a positive int."""
    text = os.environ.get("QCLAB_THREADS", "1")
    if not text.strip().isdecimal() or int(text) < 1:
        raise ValueError(f"QCLAB_THREADS must be a positive int, got {text!r}")
    return int(text)


def _pool_map(fn, items):
    n = _threads()
    if n <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=n) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _load_fn(spec: str, max_arity: int) -> bf.BooleanFunction:
    """A truth-table file or a builtin name; a builtin above ``max_arity``
    is refused before its table is built."""
    if os.path.exists(spec):
        f = bf.load_function(spec)
        if f.arity > max_arity:
            raise ValueError(f"arity {f.arity} above this command's cap {max_arity}")
        return f
    return bf.builtin_function(spec, max_arity)


def _load_mu(spec: str, m: int) -> bf.ProductDistribution:
    if spec == "uniform":
        return bf.uniform_distribution(m)
    if spec.startswith("const:"):
        return bf.constant_distribution(m, float(spec.split(":", 1)[1]))
    if os.path.exists(spec):
        mu = bf.load_distribution(spec)
        if mu.arity != m:
            raise ValueError(f"distribution arity {mu.arity} != function arity {m}")
        return mu
    raise ValueError(f"unknown distribution spec {spec!r}")


def _eps_arg(text: str) -> float:
    """The ``--eps`` type: a float that the library's eps check accepts."""
    try:
        eps = float(text)
        dt._check_eps(eps)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return eps


def _parse_depths(args) -> list:
    if args.depths:
        lo, dots, hi = args.depths.partition("..")
        lo, hi = int(lo), int(hi if dots else lo)  # "A" is A..A, while "A.." is refused
        if hi < lo:
            raise ValueError("empty depth range")
        nt._check_mc_depth(lo)
        nt._check_mc_depth(hi)
        return list(range(lo, hi + 1))
    if args.depth is not None:
        nt._check_mc_depth(args.depth)
        return [args.depth]
    raise ValueError("need --depth or --depths a..b")


def _parse_criteria(spec: str) -> list:
    if not spec:
        return sorted(vf.ALL_CRITERIA)
    out = set()
    for part in spec.split(","):
        part = part.strip()
        if "-" in part:
            lo, hi = map(int, part.split("-"))
            if hi < lo:
                raise ValueError(f"empty criteria range {part}")
            out.update(range(lo, hi + 1))
        else:
            out.add(int(part))
    bad = out - set(vf.ALL_CRITERIA)
    if bad:
        raise ValueError(f"unknown criteria {sorted(bad)}")
    return sorted(out)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_measure(args) -> RunRecord:
    f = _load_fn(args.fn, dt.DP_MAX_ARITY)
    mu = _load_mu(args.mu, f.arity)
    eps = args.eps
    over_mu = bf._provenance(mu.marginals)
    rows = [
        {"measure": "D", "value": dt.exact_D(f), "provenance": "exact"},
        {"measure": "s", "value": bf.sensitivity(f), "provenance": "exact"},
        {"measure": "Inf", "value": bf.influence(f, mu), "provenance": over_mu},
        {"measure": "Var", "value": bf.variance(f, mu), "provenance": over_mu},
        {"measure": f"Dmu_eps(eps={eps})", "value": dt.exact_Dmu_eps(f, mu, eps),
         "provenance": bf._provenance((eps, *mu.marginals), dt.CURVE_TOL)},
        {"measure": "zero_error_expected_cost", "value": dt.zero_error_expected_cost(f, mu),
         "provenance": over_mu},
    ]
    rep = bf.check_poincare(f, mu)
    rows.append({"measure": "poincare_slack", "value": rep.rhs - rep.lhs, "provenance": over_mu})
    return RunRecord("measure", {"fn": args.fn, "mu": args.mu, "eps": eps}, rows)


def cmd_game(args) -> RunRecord:
    f = _load_fn(args.fn, 3)
    eps = args.eps
    rows = []
    for name, game_value in (("R_eps", gm.r_game_value), ("RS_eps", gm.rs_game_value)):
        k, gv = gm._least_depth(f, eps, game_value, f"exact_{name}")  # gv: the deciding game
        rows.append({"game": f"{name}(eps={eps})", "value": k,
                     "provenance": f"lp({bf._provenance((gv.value,))})"})
    gv, trees, matrix, pairs = gm._rse_solution(f)  # one game for the value, strategies, dump
    lp = f"lp({bf._provenance((gv.value,))})"  # the simplex mode: an exact game's value is rational
    rows.append({"game": "RS_E", "value": gv.value, "provenance": lp})
    record = RunRecord("game", {"fn": args.fn, "eps": eps}, rows)
    pair_labels = [f"x={''.join(map(str, p.x))},y={''.join(map(str, p.y))}" for p in pairs]
    if args.strategies:
        for w, tree in zip(gv.col_strategy, trees):
            if w > 0:
                rows.append({"game": "RS_E_strategy", "value": w,
                             "provenance": lp, "tree": dt.tree_to_json(tree)})
        for w, label in zip(gv.row_strategy, pair_labels):
            if w > 0:
                rows.append({"game": "RS_E_adversary", "value": w, "provenance": lp,
                             "tree": label})
    if args.dump_game:
        with open(args.dump_game, "w") as fh:
            fh.write(gm.dump_game(matrix, pair_labels, [dt.tree_to_json(t) for t in trees]))
    return record


def cmd_nand(args) -> RunRecord:
    depths = _parse_depths(args)
    nt._check_samples(args.samples)
    algos = ["greedy_zero", "saks_wigderson"] if args.algo == "both" else [args.algo]
    mu_id, block = args.mu, None  # block: the leaf marginals tiled across each depth
    if mu_id == "search":
        res = gm.dprod_search(bf.nand_tree(3), args.eps, restarts=4, seed=args.seed)
        mu_id, block = "search(d3)", [float(p) for p in res.mu.marginals]
    elif mu_id.startswith("const:"):
        block = [float(mu_id.split(":", 1)[1])]
        nt._check_marginals(np.array(block))  # before any Monte-Carlo run
    elif mu_id != "golden":
        raise ValueError(f"unknown nand distribution spec {mu_id!r}")

    def marginals_for(d: int):
        return nt.golden_marginals(d) if block is None else nt.tile_marginals(block, d)

    cells = [(idx, algo, d) for idx, (algo, d) in
             enumerate((a, d) for a in algos for d in depths)]

    def run_cell(cell):
        idx, algo, d = cell
        stream = nt._stream_seed(args.seed, idx)
        est = nt.mc_cost(algo, d, marginals_for(d), args.samples, stream)
        return {"algorithm": algo, "d": d, "mu": mu_id, "mean": est.mean,
                "ci95": est.half_width_95, "samples": est.samples,
                "seed": stream, "provenance": _mc_provenance(est)}

    rows = _pool_map(run_cell, cells)
    for algo in algos:
        pts = [(r["d"], r["mean"]) for r in rows if r["algorithm"] == algo]
        if len(pts) >= 4:
            base, resid = nt.fit_exponent(pts)
            rows.append({"algorithm": algo, "d": "fit", "mu": mu_id, "mean": base,
                         "ci95": resid, "samples": sum(r["samples"] for r in rows
                                                       if r["algorithm"] == algo),
                         "seed": args.seed, "provenance": f"mc(fit;n={len(pts)})"})
    cfg = {"algo": args.algo, "depths": args.depths or str(args.depth), "mu": mu_id,
           "samples": args.samples, "seed": args.seed, "eps": args.eps}
    return RunRecord("nand", cfg, rows)


def cmd_sabotage(args) -> RunRecord:
    d = args.depth
    # the recursion checks compare levels t and t + 1 <= min(t_max, d)
    if d < 1 or args.t_max < 1:
        raise ValueError(f"sabotage needs --depth >= 1 and --t-max >= 1, "
                         f"got {d} and {args.t_max}")
    nt._check_mc_depth(d)
    nt._check_samples(args.samples)
    if args.dump_pairs < 0:
        raise ValueError(f"--dump-pairs must be >= 0, got {args.dump_pairs}")
    if args.dump_pairs << d > nt._BATCH_ELEMENTS:  # each row keeps two 2^d-bit strings
        raise ValueError(f"--dump-pairs {args.dump_pairs} at depth {d}: {args.dump_pairs} "
                         f"rows of 2^{d}-leaf pairs exceed the 2^26-element budget")
    levels = list(range(min(args.t_max, d) + 1))

    def run_cell(t):
        stream = nt._stream_seed(args.seed, t)
        return sb.estimate_sep_counts("saks_wigderson", d, t, args.samples, stream)

    estimates = dict(zip(levels, _pool_map(run_cell, levels)))
    q = {t: sb.q_counts_sw(t) for t in levels}
    rep = sb.check_recursions(q)
    rows = []
    table = sb.block_case_bounds()
    for (b, bp), bound in sorted(table.bounds.items()):
        rows.append({"item": f"F_min[b={b},b'={bp}]", "value": bound,
                     "detail": table.witnesses[(b, bp)], "provenance": "exact"})
    alpha = sb.spectral_alpha()
    rows.append({"item": "spectral_alpha", "value": alpha,
                 "detail": "(1+sqrt(33))/4", "provenance": bf._provenance((alpha,))})
    for (t, b), v in sorted(rep.base_cases.items()):
        rows.append({"item": f"base_Q({t},{b})", "value": v,
                     "detail": "exhaustive zero-error trees", "provenance": "exact"})
    for t in levels:
        for b, est in enumerate(estimates[t]):
            rows.append({"item": f"Q({t},{b})", "value": est.mean,
                         "detail": f"d={d};z={est.z(q[t][b]):.2f}",
                         "provenance": _mc_provenance(est)})
    exact = bf._provenance([v for row in q.values() for v in row])  # what decides each verdict
    for r in rep.rows:
        rows.append({"item": r["name"], "value": r["lhs"],
                     "detail": f"rhs={r['rhs']};ok={int(r['ok'])};"
                               f"ok_corrected={int(r['ok_corrected'])}",
                     "provenance": exact})
    rows.append({"item": "recursion_literal_ok", "value": int(rep.ok),
                 "detail": "paper-stated form", "provenance": exact})
    rows.append({"item": "recursion_corrected_ok", "value": int(rep.corrected_ok),
                 "detail": "with differing-block allowance", "provenance": exact})

    if args.dump_pairs:
        rng = np.random.default_rng(np.random.SeedSequence(args.seed, spawn_key=(999,)))
        algo = nt.SaksWigderson(d)
        for k in range(args.dump_pairs):
            pair = sb.sample_hard_pair(d, rng)
            seed_k = int(rng.integers(0, 2**63))
            q0, q1 = sb.sep_value_counts(algo, d, pair.x, pair.y, np.random.default_rng(seed_k))
            rows.append({"item": f"pair[{k}]", "value": q0 + q1,
                         "detail": f"x={''.join(map(str, pair.x))};y={''.join(map(str, pair.y))};"
                                   f"sep={pair.differing_index()};q0={q0};q1={q1}",
                         "provenance": "mc(1)"})
    cfg = {"depth": d, "t_max": args.t_max, "samples": args.samples, "seed": args.seed}
    return RunRecord("sabotage", cfg, rows)


def cmd_verify(args) -> tuple:
    indices = _parse_criteria(args.criteria)
    results = vf.run_all(seed=args.seed, indices=indices, echo=print)
    rows = [{"criterion": r.index, "name": r.name, "passed": int(r.passed),
             "seconds": round(r.seconds, 2), "details": r.details,
             "provenance": r.provenance} for r in results]
    rec = RunRecord("verify", {"criteria": ",".join(map(str, indices)), "seed": args.seed}, rows)
    failed = [r.index for r in results if not r.passed]
    return rec, (1 if failed else 0)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="qclab", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, mu_default=None, eps=True):
        if eps:
            sp.add_argument("--eps", type=_eps_arg, default=1 / 3)
        sp.add_argument("--seed", type=int, default=vf.DEFAULT_SEED)
        sp.add_argument("--out", default=None)
        sp.add_argument("--format", choices=("csv", "text"), default="csv")
        sp.add_argument("--compare", default=None, metavar="PATH",
                        help="compare output against PATH instead of writing")
        if mu_default is not None:
            sp.add_argument("--mu", default=mu_default)

    sp = sub.add_parser("measure", help="exact complexity measures of one function")
    sp.add_argument("--fn", required=True)
    common(sp, mu_default="uniform")

    sp = sub.add_parser("game", help="exact LP game values at arity <= 3")
    sp.add_argument("--fn", required=True)
    sp.add_argument("--strategies", action="store_true")
    sp.add_argument("--dump-game", default=None, metavar="PATH")
    common(sp)

    sp = sub.add_parser("nand", help="NAND-tree evaluator costs across depths")
    sp.add_argument("--algo", choices=("greedy_zero", "saks_wigderson", "both"), default="both")
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--depths", default=None, metavar="A..B")
    sp.add_argument("--samples", type=int, default=10_000)
    common(sp, mu_default="golden")

    sp = sub.add_parser("sabotage", help="hard pairs, Q estimates, recursion checks")
    sp.add_argument("--depth", type=int, default=6)
    sp.add_argument("--t-max", type=int, default=99)
    sp.add_argument("--samples", type=int, default=10_000)
    sp.add_argument("--dump-pairs", type=int, default=0)
    common(sp, eps=False)

    sp = sub.add_parser("verify", help="run the acceptance criteria")
    sp.add_argument("--criteria", default="", help="e.g. 1,2,5-7 (default: all)")
    common(sp, eps=False)
    return p


def _emit(rec: RunRecord, args, other) -> int:
    """Write the record, or compare it with ``other``, the text read from
    ``--compare``."""
    text = render_record(rec, args.format)
    if args.compare:
        if normalize_for_compare(text) == normalize_for_compare(other):
            print("compare: outputs match")
            return 0
        print("compare: outputs differ", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.time()
    try:
        _threads()  # a bad QCLAB_THREADS stops every command before it starts
        other = None
        if args.compare:  # read first: an unreadable file stops the command before it starts
            with open(args.compare) as fh:
                other = fh.read()
        if args.command == "verify":
            rec, status = cmd_verify(args)
        else:
            rec = {
                "measure": cmd_measure,
                "game": cmd_game,
                "nand": cmd_nand,
                "sabotage": cmd_sabotage,
            }[args.command](args)
            status = 0
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"qclab: error: {exc}", file=sys.stderr)
        return 2
    rec.wall_time_s = time.time() - t0
    try:
        emit_status = _emit(rec, args, other)
    except OSError as exc:  # an unwritable --out
        print(f"qclab: error: {exc}", file=sys.stderr)
        return 2
    return emit_status or status


if __name__ == "__main__":
    sys.exit(main())
