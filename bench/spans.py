"""Spans around the calls into qclab's layers, for the traced run.

``install`` wraps the public functions of each layer module and rebinds every
module attribute (and function table, such as ``verify.ALL_CRITERIA``) that
holds one, so calls made between modules -- ``games`` calling the
``dtree.dist_error_curve_fast`` it imported, ``verify`` calling
``dt.exact_D`` -- become child spans. ``uninstall`` puts the originals back.
Untraced runs never call ``install``. Spans stay in memory and are written as
JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time

LAYER_MODULES = ("boolfunc", "dtree", "games", "nandtree", "sabotage", "verify", "cli")

# Helpers called once per point, tree or sample. A span per call would cost
# more than the call; their time shows as self time of the caller.
PER_POINT = {
    "boolfunc": {"point_from_index", "index_of_point", "flip", "evaluate", "restrict",
                 "restriction_value", "sensitivity_at", "subcube_prob", "condition"},
    "dtree": {"run", "queried_set", "tree_depth", "tree_leaves", "singleton",
              "prob_one_in_subcube"},
    "games": {"miss_probability", "compose_trees", "all_sabotage_pairs"},
    "nandtree": {"eval_formula", "greedy_zero", "saks_wigderson", "sw_expected_queries_at"},
    "sabotage": {"sep_cost", "sep_value_counts", "lift", "lift_chain"},
}

# Functions whose spans add up to one layer metric.
GROUPS = {
    **{f"boolfunc.{fn}": "boolfunc.measures" for fn in (
        "sensitivity", "influence_i", "influence", "prob_one", "variance",
        "avg_sensitivity", "check_poincare")},
    **{f"games.{fn}": "games.payoff" for fn in (
        "r_game", "rs_game", "rse_game", "zero_error_trees")},
    **{f"games.{fn}": "games.miss_profiles" for fn in (
        "sens_miss_profile", "pair_miss_profile", "check_two_point_bound",
        "check_amplified_bias", "amplify")},
}

CRITERIA = (1, 2, 3, 4, 6, 12)  # the criteria verify-quick runs

# (metric, unit, better); see README.md for the layer and workload each moves.
LAYER_METRICS = [
    ("nandtree.mc_cost.busy_s", "s", "lower"),
    ("nandtree.mc_cost.leaf_samples_per_s", "1/s", "higher"),
    ("sabotage.mc_sep_cost.busy_s", "s", "lower"),
    ("sabotage.mc_sep_cost.leaf_samples_per_s", "1/s", "higher"),
    ("sabotage.estimate_sep_counts.busy_s", "s", "lower"),
    ("sabotage.estimate_sep_counts.leaf_samples_per_s", "1/s", "higher"),
    ("dtree.exact_D.busy_s", "s", "lower"),
    ("dtree.exact_D.states_per_s", "1/s", "higher"),
    ("dtree.zero_error_expected_cost.busy_s", "s", "lower"),
    ("dtree.zero_error_expected_cost.states_per_s", "1/s", "higher"),
    ("dtree.optimal_dist_error.busy_s", "s", "lower"),
    ("dtree.optimal_dist_error.states_per_s", "1/s", "higher"),
    ("dtree.dist_error_curve_fast.busy_s", "s", "lower"),
    ("dtree.dist_error_curve_fast.states_per_s", "1/s", "higher"),
    ("boolfunc.measures.busy_s", "s", "lower"),
    ("games.enumerate_trees.busy_s", "s", "lower"),
    ("games.enumerate_trees.trees_per_s", "1/s", "higher"),
    ("games.payoff.busy_s", "s", "lower"),
    ("games.payoff.entries_per_s", "1/s", "higher"),
    ("games.solve_zero_sum.exact.busy_s", "s", "lower"),
    ("games.solve_zero_sum.exact.calls", "count", "lower"),
    ("games.solve_zero_sum.exact.entries_per_s", "1/s", "higher"),
    ("games.solve_zero_sum.float.busy_s", "s", "lower"),
    ("games.solve_zero_sum.float.calls", "count", "lower"),
    ("games.solve_zero_sum.float.entries_per_s", "1/s", "higher"),
    ("games.dprod_search.busy_s", "s", "lower"),
    ("games.dprod_search.evals_per_s", "1/s", "higher"),
    ("games.miss_profiles.busy_s", "s", "lower"),
    *[(f"verify.criterion_{n}.s", "s", "lower") for n in CRITERIA],
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _lattice(args, kwargs, levels=None) -> int:
    m = _arg(args, kwargs, 0, "f").arity
    return 3**m * (m + 1 if levels is None else min(levels, m) + 1)


def _matrix_entries(matrix) -> int:
    return len(matrix) * len(matrix[0]) if len(matrix) else 0


# Nominal work per call, from its arguments and result: leaf-samples for the
# folds, 3^m lattice states for the DPs (times the depth levels of an error
# curve), trees, payoff entries and search evaluations.
WORK = {
    "nandtree.mc_cost": lambda a, kw, r: _arg(a, kw, 3, "samples") << _arg(a, kw, 1, "d"),
    "sabotage.mc_sep_cost": lambda a, kw, r: _arg(a, kw, 2, "samples") << _arg(a, kw, 1, "d"),
    "sabotage.estimate_sep_counts":
        lambda a, kw, r: _arg(a, kw, 3, "samples") << _arg(a, kw, 1, "d"),
    "dtree.exact_D": lambda a, kw, r: _lattice(a, kw, 0),
    "dtree.zero_error_expected_cost": lambda a, kw, r: _lattice(a, kw, 0),
    "dtree.optimal_dist_error": lambda a, kw, r: _lattice(a, kw, _arg(a, kw, 2, "k")),
    "dtree.dist_error_curve_fast": lambda a, kw, r: _lattice(a, kw),
    "games.enumerate_trees": lambda a, kw, r: len(r.trees),
    "games.r_game": lambda a, kw, r: _matrix_entries(r[0]),
    "games.rs_game": lambda a, kw, r: _matrix_entries(r[0]),
    "games.rse_game": lambda a, kw, r: _matrix_entries(r[0]),
    "games.solve_zero_sum": lambda a, kw, r: _matrix_entries(_arg(a, kw, 0, "matrix")),
    "games.dprod_search": lambda a, kw, r: r.evaluations,
}


def _solve_mode(result) -> str:
    """The simplex mode, as seen from outside: floats come back from the
    float tableau, Fractions from the exact one."""
    return "float" if isinstance(result.value, float) else "exact"


class Tracer:
    """Collects spans: [name, start, end, parent index, work, run id]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.run_id = ""
        self._patched = []

    def wrap(self, qualname: str, fn):
        work = WORK.get(qualname)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qualname, clock(), 0.0, stack[-1] if stack else -1, None, self.run_id]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                try:
                    span[4] = work(args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    pass  # tracing must not change what the call returns
            if qualname == "games.solve_zero_sum":
                span[0] = f"{qualname}.{_solve_mode(result)}"
            return result

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("qclab")
        mods = [importlib.import_module(f"qclab.{name}") for name in LAYER_MODULES]
        wrappers = {}
        for name, mod in zip(LAYER_MODULES, mods):
            skip = PER_POINT.get(name, set())
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and attr not in skip):
                    wrappers[id(obj)] = (obj, self.wrap(f"{name}.{attr}", obj))
        for ns in [pkg, *mods]:
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("__"):
                    continue
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patched.append((ns, attr, obj, False))
                    setattr(ns, attr, wrappers[id(obj)][1])
                elif isinstance(obj, dict):  # function tables, such as ALL_CRITERIA
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and wrappers[id(val)][0] is val:
                            self._patched.append((obj, key, val, True))
                            obj[key] = wrappers[id(val)][1]

    def uninstall(self) -> None:
        for target, key, original, is_dict in reversed(self._patched):
            if is_dict:
                target[key] = original
            else:
                setattr(target, key, original)
        self._patched = []

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for i, (name, start, end, parent, work, run_id) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id, "work": work}) + "\n")


def _group(name: str) -> str:
    return GROUPS.get(name, name)


def self_times(spans) -> dict:
    """Seconds per span name outside its child spans."""
    out = {}
    child = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, _, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (end - start) - child[i]
    return out


def layer_metrics(spans, passes: int, overhead_frac: float) -> dict:
    """Per-layer metrics per traced pass. A group's busy time counts only its
    outermost spans, so a function calling itself is not counted twice."""
    busy, work, calls = {}, {}, {}
    for i, (name, start, end, parent, w, _) in enumerate(spans):
        g = _group(name)
        p = parent
        while p >= 0 and _group(spans[p][0]) != g:
            p = spans[p][3]
        if p >= 0:
            continue
        busy[g] = busy.get(g, 0.0) + end - start
        work[g] = work.get(g, 0) + (w or 0)
        calls[g] = calls.get(g, 0) + 1

    criteria_in_cli = 0.0
    for name, start, end, parent, _, _ in spans:
        if name.startswith("verify.criterion_"):
            p = parent
            while p >= 0 and spans[p][0] != "cli.main":
                p = spans[p][3]
            if p >= 0:
                criteria_in_cli += end - start

    out = {}
    for metric, unit, _ in LAYER_METRICS:
        group, _, kind = metric.rpartition(".")
        if metric == "cli.overhead_s":
            value = (busy.get("cli.main", 0.0) - criteria_in_cli) / passes
        elif metric == "trace.overhead_frac":
            value = overhead_frac
        elif kind in ("busy_s", "s"):
            value = busy.get(group, 0.0) / passes
        elif kind == "calls":
            value = calls.get(group, 0) / passes
        else:  # a rate: nominal work over busy time
            value = work.get(group, 0) / busy[group] if busy.get(group) else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out


def summary(spans, top: int = 12) -> list:
    """(name, self seconds) of the names with the most self time."""
    return sorted(self_times(spans).items(), key=lambda kv: -kv[1])[:top]
