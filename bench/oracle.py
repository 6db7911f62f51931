"""Operation ledger and the oracles the workloads are judged by.

Every call a workload makes into qclab is one operation. An operation fails
when it raises or when an oracle check on its output misses. The oracles here
are independent of the code under test where that is cheap: a plain tree
walk builds the game matrices, ``scipy.optimize.linprog`` solves them, and
numpy brute force recomputes the Boolean-function measures.
"""

from __future__ import annotations

import math
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

Z_MAX = 4.0  # Monte-Carlo means must sit within this many sigma of the exact value
LP_AGREE = 1e-7  # LP values must agree with linprog within this
CURVE_AGREE = 1e-9  # recursive and lattice error curves must agree within this


@dataclass
class Op:
    """One call into qclab: its value, or the exception it raised, and the
    oracle checks it missed."""

    name: str
    cell: str
    value: object = None
    error: str | None = None
    misses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.error is None and not self.misses


class Ledger:
    """Runs operations, keeping a failure inside the call from stopping the
    workload, and judges their outputs after timing stops."""

    def __init__(self):
        self.ops = []

    def call(self, name: str, cell: str, fn, *args, **kwargs) -> Op:
        op = Op(name, cell)
        try:
            op.value = fn(*args, **kwargs)
        except Exception as exc:  # a failed call is counted, not fatal
            op.error = f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        self.ops.append(op)
        return op

    def check(self, op: Op, judge, *args) -> None:
        """Record a miss when ``judge(op.value, *args)`` returns a message."""
        if op.error is not None:
            return
        try:
            msg = judge(op.value, *args)
        except Exception as exc:  # an output the oracle cannot read is a miss
            msg = f"oracle could not judge the output: {type(exc).__name__}: {exc}"
        if msg:
            op.misses.append(msg)

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(1 for op in self.ops if not op.ok)

    def failures(self) -> list:
        return [
            {"op": op.name, "cell": op.cell, "error": op.error, "misses": op.misses}
            for op in self.ops if not op.ok
        ]


# ---------------------------------------------------------------------------
# Monte-Carlo against exact values
# ---------------------------------------------------------------------------


def pool(estimates) -> tuple:
    """Pool independent (mean, sigma_of_mean, n) estimates of one quantity."""
    n = sum(e[2] for e in estimates)
    mean = sum(e[0] * e[2] for e in estimates) / n
    sigma = math.sqrt(sum((e[1] * e[2]) ** 2 for e in estimates)) / n
    return mean, sigma, n


def z_miss(mean: float, sigma: float, exact: float, z_max: float = Z_MAX) -> str:
    """Empty when the estimate is within ``z_max`` sigma of the exact value.

    A zero spread demands agreement to rounding.
    """
    gap = abs(float(mean) - float(exact))
    if sigma <= 0:
        return "" if gap <= 1e-12 * max(1.0, abs(float(exact))) else \
            f"zero-spread estimate {mean} != exact {float(exact)}"
    z = gap / sigma
    return "" if z <= z_max else f"z = {z:.2f} > {z_max}: mc {mean} vs exact {float(exact)}"


# ---------------------------------------------------------------------------
# Game matrices and LP values, built without qclab's payoff code or simplex
# ---------------------------------------------------------------------------


def points(m: int) -> list:
    """All points of {0,1}^m, index i with x_1 as the low bit."""
    return [tuple((i >> j) & 1 for j in range(m)) for i in range(1 << m)]


def walk(root, x) -> tuple:
    """(queried variables, leaf label) of a decision tree run on x."""
    queried = []
    node = root
    while hasattr(node, "var"):
        queried.append(node.var)
        node = node.child1 if x[node.var - 1] else node.child0
    return tuple(queried), node.label


def truth(table: int, m: int) -> list:
    return [(table >> i) & 1 for i in range(1 << m)]


def sabotage_pairs(table: int, m: int) -> list:
    """(x, y, differing variables) for f(x) = 0, f(y) = 1, in qclab's order."""
    pts = points(m)
    vals = truth(table, m)
    zeros = [x for x, v in zip(pts, vals) if not v]
    ones = [y for y, v in zip(pts, vals) if v]
    return [(x, y, {i + 1 for i in range(m) if x[i] != y[i]}) for x in zeros for y in ones]


def r_matrix(table: int, m: int, roots) -> np.ndarray:
    """Rows: inputs; columns: labeled trees; payoff 1 on a wrong output."""
    vals = truth(table, m)
    return np.array(
        [[float(walk(r, x)[1] != v) for r in roots] for x, v in zip(points(m), vals)]
    )


def rs_matrix(table: int, m: int, roots) -> np.ndarray:
    """Rows: sabotage pairs; payoff 1 when the run on x queries no differing
    variable."""
    return np.array(
        [[float(not set(walk(r, x)[0]) & diff) for r in roots]
         for x, _, diff in sabotage_pairs(table, m)]
    )


def zero_error_roots(table: int, m: int, roots) -> list:
    """Trees whose leaves each see a single value of f."""
    vals = truth(table, m)
    out = []
    for r in roots:
        seen = {}
        for x, v in zip(points(m), vals):
            q, _ = walk(r, x)
            leaf = tuple(x[i - 1] for i in q) + q
            if seen.setdefault(leaf, v) != v:
                break
        else:
            out.append(r)
    return out


def rse_matrix(table: int, m: int, roots) -> np.ndarray:
    """Rows: sabotage pairs; payoff: queries on x up to the first differing
    variable."""
    rows = []
    for x, _, diff in sabotage_pairs(table, m):
        row = []
        for r in roots:
            q, _ = walk(r, x)
            row.append(float(next(pos for pos, v in enumerate(q, 1) if v in diff)))
        rows.append(row)
    return np.array(rows)


def game_value(a: np.ndarray) -> float:
    """max_p min_q p^T A q by linprog: the row player maximizes."""
    from scipy.optimize import linprog

    n, k = a.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    res = linprog(
        c,
        A_ub=np.hstack([-a.T, np.ones((k, 1))]),
        b_ub=np.zeros(k),
        A_eq=np.hstack([np.ones((1, n)), np.zeros((1, 1))]),
        b_eq=[1.0],
        bounds=[(0, None)] * n + [(None, None)],
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    return float(-res.fun)


def lp_miss(value, reference: float, tol: float = LP_AGREE) -> str:
    gap = abs(float(value) - reference)
    return "" if gap <= tol else f"LP value {float(value)!r} vs linprog {reference!r} (gap {gap:.3g})"


def least_depth(values, eps: float, tol: float = 1e-9) -> int:
    """Least k whose game value is at most eps."""
    return next(k for k, v in enumerate(values) if v <= eps + tol)


# ---------------------------------------------------------------------------
# Boolean-function measures by numpy brute force
# ---------------------------------------------------------------------------


def measures(table: int, marginals) -> dict:
    """Sensitivity, Pr[f=1], variance and total influence of f under mu."""
    m = len(marginals)
    f = np.array(truth(table, m))
    idx = np.arange(1 << m)
    w = np.ones(1 << m)
    for j, p in enumerate(marginals):
        w *= np.where((idx >> j) & 1, float(p), 1.0 - float(p))
    flips = [f != f[idx ^ (1 << j)] for j in range(m)]
    p1 = float(w[f == 1].sum())
    return {
        "sensitivity": int(np.sum(flips, axis=0).max()),
        "prob_one": p1,
        "variance": p1 * (1 - p1),
        "influence": sum(4 * float(p) * (1 - float(p)) * float(w[d].sum())
                         for p, d in zip(marginals, flips)),
    }


def close(a, b, tol: float = 1e-9) -> bool:
    return abs(float(a) - float(b)) <= tol * max(1.0, abs(float(b)))


# ---------------------------------------------------------------------------
# Negative control
# ---------------------------------------------------------------------------


def negative_control(mc=None, lp=None) -> list:
    """Judge an MC mean moved 6 sigma off its exact value and an LP value
    moved 10 LP_AGREE off its linprog reference; return the names of the
    perturbed values the judges did NOT count as failed (should be none).

    ``mc`` is (sigma, exact) and ``lp`` a linprog reference value from the
    run; without them a fixed estimate and a 2x2 game solved by linprog stand
    in.
    """
    sigma, exact = mc or (1.0, 100.0)
    reference = game_value(np.eye(2)) if lp is None else lp
    ledger = Ledger()
    bad_mc = ledger.call("control.mc", "control", lambda: exact + 1.5 * Z_MAX * sigma)
    ledger.check(bad_mc, lambda v: z_miss(v, sigma, exact))
    bad_lp = ledger.call("control.lp", "control", lambda: reference + 10 * LP_AGREE)
    ledger.check(bad_lp, lambda v: lp_miss(v, reference))
    return [op.name for op in ledger.ops if op.ok]
