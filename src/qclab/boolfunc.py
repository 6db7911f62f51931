"""Truth-table Boolean functions with restriction, sensitivity, influence and
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
from typing import Iterable, Mapping, NamedTuple, Sequence

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
    "Subcube",
    "Point",
    "point_from_index",
    "index_of_point",
    "evaluate",
    "flip",
    "restrict",
    "sensitivity_at",
    "sensitivity",
    "influence_i",
    "influence",
    "variance",
    "avg_sensitivity",
    "prob_one",
    "subcube_prob",
    "condition",
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
        if not 1 <= self.arity <= MAX_ARITY:
            raise ValueError(f"arity must be in [1, {MAX_ARITY}], got {self.arity}")
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
        return tuple(self.value_at(i) for i in range(self.size))

    def table_array(self) -> np.ndarray:
        """Truth table as a uint8 vector indexed like ``value_at``."""
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


@dataclass(frozen=True)
class Subcube:
    """A subcube given by fixed variable assignments ``{i: b}`` (1-indexed)."""

    fixed: tuple

    def __post_init__(self):
        pairs = tuple(sorted(dict(self.fixed).items()))
        if len(pairs) != len(tuple(self.fixed)):
            raise ValueError("duplicate fixed variable")
        for i, b in pairs:
            if i < 1:
                raise ValueError(f"variable index {i} must be >= 1")
            if b not in (0, 1):
                raise ValueError(f"fixed bit must be 0 or 1, got {b!r}")
        object.__setattr__(self, "fixed", pairs)

    @classmethod
    def of(cls, assignment: Mapping[int, int] | Iterable) -> "Subcube":
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        return cls(tuple(items))

    @property
    def codim(self) -> int:
        return len(self.fixed)

    def fixed_map(self) -> dict:
        return dict(self.fixed)

    def fixed_vars(self) -> tuple:
        return tuple(i for i, _ in self.fixed)

    def merge(self, other: "Subcube") -> "Subcube":
        """Intersection of two subcubes; conflicting assignments are an error."""
        combined = self.fixed_map()
        for i, b in other.fixed:
            if combined.get(i, b) != b:
                raise ValueError(f"conflicting assignment for variable {i}")
            combined[i] = b
        return Subcube.of(combined)

    def free_vars(self, arity: int) -> tuple:
        fixed = set(self.fixed_vars())
        return tuple(i for i in range(1, arity + 1) if i not in fixed)


# ---------------------------------------------------------------------------
# Point helpers
# ---------------------------------------------------------------------------


def point_from_index(index: int, m: int) -> Point:
    return tuple((index >> j) & 1 for j in range(m))


def index_of_point(x: Point) -> int:
    idx = 0
    for j, b in enumerate(x):
        if b not in (0, 1):
            raise ValueError(f"point coordinate must be a bit, got {b!r}")
        idx |= b << j
    return idx


def flip(x: Point, indices: Iterable[int]) -> Point:
    """x^{+I}: flip the coordinates listed in ``indices`` (1-indexed)."""
    out = list(x)
    for i in indices:
        if not 1 <= i <= len(x):
            raise ValueError(f"flip index {i} out of range for arity {len(x)}")
        out[i - 1] ^= 1
    return tuple(out)


def evaluate(f: BooleanFunction, x: Point) -> int:
    if len(x) != f.arity:
        raise ValueError(f"arity mismatch: function has {f.arity}, point has {len(x)}")
    return f.value_at(index_of_point(x))


# ---------------------------------------------------------------------------
# Restriction
# ---------------------------------------------------------------------------


def restrict(f: BooleanFunction, c: Subcube) -> BooleanFunction:
    """The function on the free variables of ``c`` agreeing with f on c.

    Free variables keep their relative order. Restricting to the empty
    subcube returns a function equal to f.
    """
    for i, _ in c.fixed:
        if i > f.arity:
            raise ValueError(f"fixed variable {i} out of range for arity {f.arity}")
    if c.codim == 0:
        return f
    if c.codim >= f.arity:
        raise ValueError("restriction must leave at least one free variable")
    free = c.free_vars(f.arity)
    base = 0
    for i, b in c.fixed:
        base |= b << (i - 1)
    table = 0
    for new_idx in range(1 << len(free)):
        full = base
        for j, var in enumerate(free):
            full |= ((new_idx >> j) & 1) << (var - 1)
        table |= f.value_at(full) << new_idx
    return BooleanFunction(len(free), table)


# ---------------------------------------------------------------------------
# Sensitivity and influence
# ---------------------------------------------------------------------------


def sensitivity_at(f: BooleanFunction, x: Point) -> int:
    idx = index_of_point(x)
    if len(x) != f.arity:
        raise ValueError("arity mismatch")
    v = f.value_at(idx)
    return sum(1 for j in range(f.arity) if f.value_at(idx ^ (1 << j)) != v)


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


def _influences(f: BooleanFunction, mu: ProductDistribution, variables):
    """Yield 4 p_i (1-p_i) Pr_{x~mu}[f(x) != f(x^{+i})] for each i of ``variables``."""
    w, ar = _masses(mu.marginals)
    tbl = f.table_array()
    idx = np.arange(f.size)
    for i in variables:
        # exact: the marginal itself, so an int 0/1 marginal gives the int 0
        p = mu.marginals[i - 1] if ar.exact else ar.weights[i - 1][1]
        factor = 4 * p * (1 - p)
        if factor:
            factor = factor * ar.value(w[tbl != tbl[idx ^ (1 << (i - 1))]].sum())
        yield factor


def influence_i(f: BooleanFunction, mu: ProductDistribution, i: int):
    """4 p_i (1-p_i) Pr_{x~mu}[f(x) != f(x^{+i})]."""
    _check_pair(f, mu)
    if not 1 <= i <= f.arity:
        raise ValueError(f"variable index {i} out of range")
    return next(_influences(f, mu, [i]))


def influence(f: BooleanFunction, mu: ProductDistribution):
    _check_pair(f, mu)
    total = 0
    for term in _influences(f, mu, range(1, f.arity + 1)):
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
# Distribution operations
# ---------------------------------------------------------------------------


def subcube_prob(mu: ProductDistribution, c: Subcube):
    """Mass of the subcube: product of the fixed-bit marginal factors."""
    prob = 1
    for i, b in c.fixed:
        if i > mu.arity:
            raise ValueError(f"fixed variable {i} out of range")
        p = mu.marginals[i - 1]
        prob = prob * (p if b else (1 - p))
    return prob


def condition(mu: ProductDistribution, c: Subcube) -> ProductDistribution:
    """mu conditioned on c: fixed marginals replaced by their bits."""
    if subcube_prob(mu, c) == 0:
        raise ValueError("conditioning on a zero-mass subcube")
    fixed = c.fixed_map()
    zero = type(mu.marginals[0])(0) if mu.marginals else 0
    one = zero + 1
    new = list(mu.marginals)
    for i, b in fixed.items():
        new[i - 1] = one if b else zero
    return ProductDistribution(tuple(new))


# ---------------------------------------------------------------------------
# Builtin functions and distributions
# ---------------------------------------------------------------------------


def constant(m: int, value: int) -> BooleanFunction:
    table = ((1 << (1 << m)) - 1) if value else 0
    return BooleanFunction(m, table)


def dictator(m: int, i: int = 1) -> BooleanFunction:
    if not 1 <= i <= m:
        raise ValueError(f"dictator variable {i} outside [1, {m}]")
    table = 0
    for idx in range(1 << m):
        table |= ((idx >> (i - 1)) & 1) << idx
    return BooleanFunction(m, table)


def xor(m: int) -> BooleanFunction:
    table = 0
    for idx in range(1 << m):
        table |= (bin(idx).count("1") & 1) << idx
    return BooleanFunction(m, table)


def and_f(m: int) -> BooleanFunction:
    return BooleanFunction(m, 1 << ((1 << m) - 1))


def or_f(m: int) -> BooleanFunction:
    return BooleanFunction(m, ((1 << (1 << m)) - 1) & ~1)


def nand2() -> BooleanFunction:
    return BooleanFunction(2, 0b0111)


def nand_tree(depth: int) -> BooleanFunction:
    """The complete binary NAND-tree function on 2^depth variables."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    m = 1 << depth
    if m > MAX_ARITY:
        raise ValueError(f"nand tree of depth {depth} needs {m} > {MAX_ARITY} variables")
    points = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
    table = np.packbits(_nand_formula(points).astype(np.uint8), bitorder="little")
    return BooleanFunction(m, int.from_bytes(table.tobytes(), "little"))


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
        table = rng.getrandbits(1 << m)
    else:
        bits = rng.integers(0, 2, size=1 << m)
        table = sum(int(b) << i for i, b in enumerate(bits))
    return BooleanFunction(m, table)


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
    bits = "".join(str(f.value_at(i)) for i in range(f.size))
    return f"m={f.arity}\n{bits}\n"


def parse_truth_table(text: str) -> BooleanFunction:
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if len(lines) != 2 or not lines[0].startswith("m="):
        raise ValueError("truth-table text must be 'm=<int>' then a bit string")
    m = BooleanFunction(int(lines[0][2:]), 0).arity  # checked before 1 << m is built
    bits = lines[1]
    if len(bits) != (1 << m) or set(bits) - {"0", "1"}:
        raise ValueError(f"expected {1 << m} bits over {{0,1}}, got {len(bits)} chars")
    table = sum((b == "1") << i for i, b in enumerate(bits))
    return BooleanFunction(m, table)


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
