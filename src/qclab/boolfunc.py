"""Truth-table Boolean functions with sensitivity, influence and
product-distribution primitives.

Variables are 1-indexed. A point ``x = (x_1, ..., x_m)`` is a tuple of bits;
its truth-table index is ``sum(x_j << (j-1))``, so ``x_1`` is the least
significant bit. Probability arithmetic is type-preserving: rational
marginals (ints, ``fractions.Fraction``) give exact values, and any other
marginal makes every value a float (``_exact``); every verdict is
``_at_most``: exact on rationals, within ``TOL`` otherwise.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

import numpy as np

MAX_ARITY = 24
TOL = 1e-9
# An exact mass vector holds 2^m Python ints: with interior /64 marginals it
# took 114 MiB at m = 20 and 367 MiB at m = 22, and each arity doubles it.
MASS_MAX_EXACT_ARITY = 22
RANDOM_MARGINAL_RANGE = (0.05, 0.95)  # of random_distribution
DYADIC_DENOMINATOR = 64  # of random_dyadic_distribution

Point = tuple

__all__ = [
    "MAX_ARITY",
    "TOL",
    "BooleanFunction",
    "ProductDistribution",
    "Point",
    "point_from_index",
    "sensitivity",
    "influence",
    "variance",
    "avg_sensitivity",
    "prob_one",
    "check_poincare",
    "PoincareReport",
    "constant",
    "dictator",
    "xor",
    "and_f",
    "or_f",
    "nand2",
    "nand_tree",
    "builtin_function",
    "random_function",
    "uniform_distribution",
    "constant_distribution",
    "random_distribution",
    "parse_truth_table",
    "format_truth_table",
    "load_function",
    "save_function",
    "load_distribution",
    "save_distribution",
]


# ---------------------------------------------------------------------------
# Core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BooleanFunction:
    """A total function {0,1}^m -> {0,1} stored as a 2^m-bit truth table.

    Bit ``i`` of ``table`` is the value at the point encoded by ``i``.
    """

    arity: int
    table: int

    def __post_init__(self):
        _check_int("arity", self.arity)
        if not 1 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {self.arity}")
        object.__setattr__(self, "arity", int(self.arity))  # a numpy int shifts in int64
        if not 0 <= self.table < (1 << (1 << self.arity)):
            raise ValueError("truth table does not fit 2^arity bits")

    @property
    def size(self) -> int:
        return 1 << self.arity

    def value_at(self, index: int) -> int:
        return (self.table >> index) & 1

    def is_constant(self) -> bool:
        return self.table == 0 or self.table == (1 << self.size) - 1

    def bits(self) -> tuple:
        return tuple(self.table_array().tolist())

    def table_array(self) -> np.ndarray:
        """Truth table as a uint8 vector indexed like ``value_at``: the one
        reader of the table's bits, as ``_from_bits`` is the one writer."""
        nbytes = (self.size + 7) // 8
        raw = np.frombuffer(self.table.to_bytes(nbytes, "little"), dtype=np.uint8)
        return np.unpackbits(raw, bitorder="little")[: self.size]

    def __str__(self):
        return f"BooleanFunction(m={self.arity})"


@dataclass(frozen=True)
class ProductDistribution:
    """Independent per-variable marginals: x_i = 1 with probability p_i."""

    marginals: tuple

    def __post_init__(self):
        for p in self.marginals:
            if isinstance(p, bool) or not isinstance(p, numbers.Real):
                raise ValueError(f"marginal {p!r} is not a real number")
            if not 0 <= p <= 1:
                raise ValueError(f"marginal {p!r} outside [0, 1]")
        object.__setattr__(self, "marginals", tuple(self.marginals))

    @property
    def arity(self) -> int:
        return len(self.marginals)

    def point_prob(self, x: Point):
        if len(x) != self.arity:
            raise ValueError("point length does not match distribution arity")
        prob = 1
        for b, p in zip(x, self.marginals):
            prob = prob * (p if b else (1 - p))
        return prob


def _from_bits(m: int, bits) -> BooleanFunction:
    """The function whose truth table is the 0/1 vector ``bits`` of 2^m
    entries, packed little-endian: entry i is bit i of the table."""
    packed = np.packbits(np.asarray(bits, dtype=np.uint8), bitorder="little")
    return BooleanFunction(m, int.from_bytes(packed.tobytes(), "little"))


def _is_int(v) -> bool:
    """Whether v is an integer other than a bool."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_int(name: str, v, low: int = None) -> None:
    """Refuse a v that is no integer (bools too), or is below ``low``."""
    if not _is_int(v):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if low is not None and v < low:
        raise ValueError(f"{name} must be >= {low}, got {v}")


def _exact(values: Iterable) -> bool:
    """True when every value is a ``numbers.Rational``: the one test of exact
    arithmetic (one subclass check per type present)."""
    return all(issubclass(t, numbers.Rational) for t in set(map(type, values)))


def _at_most(a, b, tol: float = TOL) -> bool:
    """a <= b: exactly when both are rational, and ``a <= b + tol`` otherwise
    (so a NaN on either side is never at most)."""
    return bool(a <= b if _exact((a, b)) else a <= b + tol)


def _provenance(values: Iterable, tol: float = None) -> str:
    """How a value or verdict over ``values`` was computed: ``exact`` when
    they are all ``_exact``, and otherwise ``float``, or ``float(tol=...)``
    for a verdict that ``_at_most`` took within ``tol``."""
    if _exact(values):
        return "exact"
    return "float" if tol is None else f"float(tol={tol:g})".replace("e-0", "e-")  # 1e-9, not 1e-09


class _Arithmetic(NamedTuple):
    exact: bool
    weights: list  # (w0, w1) per variable, in variable order
    value: object  # a sum of scaled values -> the probability it stands for
    dtype: object  # of a numpy array of values


def _arithmetic(marginals: Sequence) -> _Arithmetic:
    """The one arithmetic rule for values over a product distribution.

    Any marginal that is not ``_exact`` makes every value a float: variable
    j's weights are ``(1 - p, p)`` for ``p = float(p_j)`` and ``value`` is
    float, in float64 arrays. Otherwise p_j = n_j / d_j (an int, or a
    Fraction in lowest terms), the weights are ``(d_j - n_j, n_j)``, and a
    value is a Python int scaled by the product D of the denominators, in
    object arrays: ``value(v)`` is ``Fraction(v, D)``, or an int when every
    marginal is an int.
    """
    if not _exact(marginals):
        return _Arithmetic(False, [(1 - p, p) for p in map(float, marginals)], float, np.float64)
    scale = math.prod(p.denominator for p in marginals)
    rational = any(isinstance(p, Fraction) for p in marginals)
    return _Arithmetic(True, [(p.denominator - p.numerator, p.numerator) for p in marginals],
                       (lambda v: Fraction(v, scale)) if rational else int, object)


def _masses(marginals: Sequence) -> tuple:
    """``(w, arithmetic)``: the 2^m point masses, indexed like the truth
    table, each the product of one ``_arithmetic`` weight per variable."""
    ar = _arithmetic(marginals)
    return _mass_vector(ar, ar.weights), ar


def _mass_vector(ar: _Arithmetic, weights: Sequence) -> np.ndarray:
    """The products of one ``weights`` pair per variable, the first least
    significant (exact: scaled ints, capped at MASS_MAX_EXACT_ARITY)."""
    if ar.exact and len(weights) > MASS_MAX_EXACT_ARITY:
        raise ValueError(f"exact point masses capped at arity {MASS_MAX_EXACT_ARITY}; "
                         "pass float marginals")
    pairs = np.array(weights, dtype=ar.dtype)
    w = np.ones(1, dtype=ar.dtype)
    for pair in pairs:  # (w0 * w, w1 * w), one variable more significant
        w = np.multiply.outer(pair, w).ravel()
    return w


# ---------------------------------------------------------------------------
# Point helpers
# ---------------------------------------------------------------------------


def point_from_index(index: int, m: int) -> Point:
    return tuple((index >> j) & 1 for j in range(m))


# ---------------------------------------------------------------------------
# Sensitivity and influence
# ---------------------------------------------------------------------------


def _sensitivity_vector(f: BooleanFunction) -> np.ndarray:
    """s(f, x) for every point, indexed like the truth table."""
    tbl = f.table_array()
    idx = np.arange(f.size)
    sens = np.zeros(f.size, dtype=np.int64)
    for j in range(f.arity):
        sens += tbl != tbl[idx ^ (1 << j)]
    return sens


def sensitivity(f: BooleanFunction) -> int:
    return int(_sensitivity_vector(f).max())


def influence(f: BooleanFunction, mu: ProductDistribution):
    """Inf(f): the sum over i of 4 p_i (1-p_i) Pr_{x~mu}[f(x) != f(x^{+i})]."""
    _check_pair(f, mu)
    w, ar = _masses(mu.marginals)
    tbl = f.table_array()
    idx = np.arange(f.size)
    total = 0
    for j in range(f.arity):
        # exact: the marginal itself, so an int 0/1 marginal gives the int 0
        p = mu.marginals[j] if ar.exact else ar.weights[j][1]
        term = 4 * p * (1 - p)
        if term:
            term = term * ar.value(w[tbl != tbl[idx ^ (1 << j)]].sum())
        total = total + term
    return total


def prob_one(f: BooleanFunction, mu: ProductDistribution):
    """Pr_{x~mu}[f(x) = 1]."""
    _check_pair(f, mu)
    w, ar = _masses(mu.marginals)
    return ar.value(w[f.table_array() == 1].sum())


def variance(f: BooleanFunction, mu: ProductDistribution):
    """Variance of the Bernoulli output: q(1-q) with q = Pr[f(x) = 1]."""
    q = prob_one(f, mu)
    return q * (1 - q)


def avg_sensitivity(f: BooleanFunction, mu: ProductDistribution):
    """E_{x~mu} s(f, x), by full-table summation."""
    _check_pair(f, mu)
    w, ar = _masses(mu.marginals)
    return ar.value(_sensitivity_vector(f) @ w)


@dataclass(frozen=True)
class PoincareReport:
    lhs: object  # 4 Var(f)
    rhs: object  # Inf(f)
    holds: bool


def check_poincare(f: BooleanFunction, mu: ProductDistribution) -> PoincareReport:
    """4 Var(f) <= Inf(f) for product distributions, by ``_at_most``."""
    lhs = 4 * variance(f, mu)
    rhs = influence(f, mu)
    return PoincareReport(lhs, rhs, _at_most(lhs, rhs))


def _check_pair(f: BooleanFunction, mu: ProductDistribution):
    if f.arity != mu.arity:
        raise ValueError(f"arity mismatch: function {f.arity} vs distribution {mu.arity}")


# ---------------------------------------------------------------------------
# Builtin functions and distributions
# ---------------------------------------------------------------------------


def constant(m: int, value: int) -> BooleanFunction:
    table = ((1 << (1 << m)) - 1) if value else 0
    return BooleanFunction(m, table)


def dictator(m: int, i: int = 1) -> BooleanFunction:
    _check_int("dictator variable", i)
    if not 1 <= i <= m:
        raise ValueError(f"dictator variable {i} outside [1, {m}]")
    BooleanFunction(m, 0)  # arity checked before 2^m entries are built
    return _from_bits(m, (np.arange(1 << m) >> (i - 1)) & 1)


def xor(m: int) -> BooleanFunction:
    BooleanFunction(m, 0)  # arity checked before 2^m entries are built
    parity = np.zeros(1, dtype=np.uint8)
    for _ in range(m):  # variable j + 1 flips the parity of the upper half
        parity = np.concatenate((parity, parity ^ 1))
    return _from_bits(m, parity)


def and_f(m: int) -> BooleanFunction:
    return BooleanFunction(m, 1 << ((1 << m) - 1))


def or_f(m: int) -> BooleanFunction:
    return BooleanFunction(m, ((1 << (1 << m)) - 1) & ~1)


def nand2() -> BooleanFunction:
    return BooleanFunction(2, 0b0111)


def nand_tree(depth: int) -> BooleanFunction:
    """The complete binary NAND-tree function on 2^depth variables."""
    _check_int("depth", depth, 0)
    m = 1 << depth
    if m > MAX_ARITY:
        raise ValueError(f"nand tree of depth {depth} needs {m} > {MAX_ARITY} variables")
    return _from_bits(m, _nand_formula((np.arange(1 << m)[:, None] >> np.arange(m)) & 1))


def _nand_formula(x: np.ndarray) -> np.ndarray:
    """The complete NAND formula on each row of an (n, 2^d) 0/1 integer array:
    each level takes 1 - (a & b) of adjacent pairs; depth 0 is the leaf."""
    while x.shape[1] > 1:
        x = 1 - (x[:, 0::2] & x[:, 1::2])
    return x[:, 0]


_BUILTINS = {
    "xor": xor,
    "and": and_f,
    "or": or_f,
    "dictator": dictator,
    "nandtree": nand_tree,
    "const0": lambda m: constant(m, 0),
    "const1": lambda m: constant(m, 1),
}


def builtin_function(name: str, max_arity: int = MAX_ARITY) -> BooleanFunction:
    """Parse builtin names: xor:2, and:3, or:2, dictator:4, nand2, nandtree:2,
    const0:m, const1:m. An arity outside [1, max_arity] is refused before the
    truth table is built."""
    base, _, arg = name.partition(":")
    base = base.strip().lower()
    if base == "nand2":
        build, k, arity = (lambda _: nand2()), None, 2
    else:
        build = _BUILTINS.get(base)
        if build is None:
            raise ValueError(f"unknown builtin function {name!r}")
        if not arg:
            raise ValueError(f"builtin {name!r} needs an arity argument, e.g. xor:2")
        k = int(arg)
        # nandtree:k has 2^k variables; any k >= max_arity is too many
        arity = 1 << min(k, max_arity) if base == "nandtree" and k >= 0 else k
    if not 1 <= arity <= max_arity:
        raise ValueError(f"builtin {name!r} has arity outside [1, {max_arity}]")
    return build(k)


def random_function(m: int, rng) -> BooleanFunction:
    """Uniformly random truth table; rng is ``random.Random`` or a numpy
    Generator."""
    if hasattr(rng, "getrandbits"):
        return BooleanFunction(m, rng.getrandbits(1 << m))
    return _from_bits(m, rng.integers(0, 2, size=1 << m))


def uniform_distribution(m: int) -> ProductDistribution:
    return ProductDistribution((0.5,) * m)


def constant_distribution(m: int, p) -> ProductDistribution:
    return ProductDistribution((p,) * m)


def random_distribution(m: int, rng) -> ProductDistribution:
    lo, hi = RANDOM_MARGINAL_RANGE
    if hasattr(rng, "uniform"):
        ps = tuple(rng.uniform(lo, hi) for _ in range(m))
    else:
        ps = tuple(lo + (hi - lo) * float(u) for u in rng.random(m))
    return ProductDistribution(ps)


def random_dyadic_distribution(m: int, rng) -> ProductDistribution:
    """Exact-rational marginals k/DYADIC_DENOMINATOR, 0 < k < DYADIC_DENOMINATOR."""
    if hasattr(rng, "randint"):
        ks = [rng.randint(1, DYADIC_DENOMINATOR - 1) for _ in range(m)]
    else:
        ks = [int(k) for k in rng.integers(1, DYADIC_DENOMINATOR, size=m)]
    return ProductDistribution(tuple(Fraction(k, DYADIC_DENOMINATOR) for k in ks))


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------


def format_truth_table(f: BooleanFunction) -> str:
    bits = (f.table_array() + ord("0")).tobytes().decode("ascii")
    return f"m={f.arity}\n{bits}\n"


def parse_truth_table(text: str) -> BooleanFunction:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("m="):
        raise ValueError("truth-table text must be 'm=<int>' then a bit string")
    m = BooleanFunction(int(lines[0][2:]), 0).arity  # checked before 1 << m is built
    bits = lines[1]
    if len(bits) != (1 << m) or set(bits) - {"0", "1"}:
        raise ValueError(f"expected {1 << m} bits over {{0,1}}, got {len(bits)} chars")
    return _from_bits(m, np.frombuffer(bits.encode("ascii"), dtype=np.uint8) - ord("0"))


def load_function(path: str) -> BooleanFunction:
    with open(path) as fh:
        return parse_truth_table(fh.read())


def save_function(f: BooleanFunction, path: str):
    with open(path, "w") as fh:
        fh.write(format_truth_table(f))


def load_distribution(path: str) -> ProductDistribution:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list):
        raise ValueError("distribution file must hold a JSON array of marginals")
    if any(type(p) not in (int, float) or not 0 <= p <= 1 for p in data):  # bools too
        raise ValueError("marginals must be JSON numbers in [0, 1]")
    return ProductDistribution(tuple(float(p) for p in data))


def save_distribution(mu: ProductDistribution, path: str):
    with open(path, "w") as fh:
        json.dump([float(p) for p in mu.marginals], fh)
        fh.write("\n")
