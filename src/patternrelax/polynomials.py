"""Sparse polynomials keyed by exponent vectors, boxes, and monomial bounds.

Exponent vectors are plain tuples of nonnegative ints, compared and sorted
lexicographically; that ordering is the canonical one used everywhere for
deterministic output.  Polynomials store only nonzero coefficients.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress
from typing import Iterable, Mapping

Exponent = tuple  # tuple[int, ...]

# coefficients below this magnitude are treated as floating-point noise
COEFF_DROP_TOL = 1e-14


def as_exponent(seq: Iterable[int]) -> Exponent:
    """Validate and canonicalize an exponent vector."""
    e = tuple(map(int, seq))
    if e and min(e) < 0:
        raise ValueError(f"exponent vector must be nonnegative, got {e}")
    return e


def _number(v) -> float:
    """A JSON number as a float; float() would also take a bool or a string."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


def _integer(v) -> int:
    """A JSON integer, for an exponent entry or a coordinate index; int()
    would also take 2.7 as 2."""
    if isinstance(v, bool) or not isinstance(v, int):
        raise TypeError(f"{v!r} is not an integer")
    return v


def _exponent(v) -> Exponent:
    """An exponent read from JSON: nonnegative integers only."""
    return as_exponent(map(_integer, v))


def exp_add(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b, strict=True))


def exp_support(a: Exponent) -> frozenset:
    """Indices of nonzero entries."""
    return frozenset(compress(range(len(a)), a))


def zero_exponent(n: int) -> Exponent:
    return (0,) * n


def unit_exponent(n: int, i: int, k: int = 1) -> Exponent:
    return tuple(k if j == i else 0 for j in range(n))


def degrees_up_to(n: int, d: int) -> list:
    """All exponent vectors in n variables with total degree <= d, lex sorted."""
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, slots - 1)

    rec([], d, n)
    return sorted(out)


def minkowski_sum(A: Iterable[Exponent], B: Iterable[Exponent]) -> frozenset:
    """{a + b : a in A, b in B}, deduplicated."""
    A = list(A)
    B = list(B)
    if A and B and len(A[0]) != len(B[0]):
        raise ValueError("minkowski_sum: dimension mismatch")
    return frozenset(exp_add(a, b) for a in A for b in B)


def _ipow(base: float, k: int) -> float:
    """base**k for integer k >= 0 by squaring."""
    result = 1.0
    acc = base
    while k:
        if k & 1:
            result *= acc
        acc *= acc
        k >>= 1
    return result


def _imul(a: float, b: float) -> float:
    """Interval-endpoint product with the convention 0 * inf = 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty interval [{self.lo}, {self.hi}]")

    @property
    def finite(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)


class Box:
    """Axis-aligned box [l_1,u_1] x ... x [l_n,u_n]; entries may be +-inf.

    Degenerate coordinates (l_i == u_i) are allowed.
    """

    __slots__ = ("lower", "upper")

    def __init__(self, lower: Iterable[float], upper: Iterable[float]):
        self.lower = tuple(float(v) for v in lower)
        self.upper = tuple(float(v) for v in upper)
        if len(self.lower) != len(self.upper):
            raise ValueError("box bound vectors must have equal length")
        for i, (l, u) in enumerate(zip(self.lower, self.upper)):
            if not l <= u:  # also refuses a NaN bound
                raise ValueError(f"box coordinate {i} requires l <= u, got [{l}, {u}]")

    @property
    def n(self) -> int:
        return len(self.lower)

    @classmethod
    def unit(cls, n: int) -> "Box":
        return cls([0.0] * n, [1.0] * n)

    @classmethod
    def nonneg_orthant(cls, n: int) -> "Box":
        return cls([0.0] * n, [math.inf] * n)

    @classmethod
    def full_space(cls, n: int) -> "Box":
        return cls([-math.inf] * n, [math.inf] * n)

    @property
    def bounded(self) -> bool:
        return all(math.isfinite(v) for v in self.lower + self.upper)

    @property
    def nonnegative(self) -> bool:
        """x >= 0 on the box: every lower bound is >= 0."""
        return all(l >= 0.0 for l in self.lower)

    def sample(self, rng, count: int):
        """Uniform samples; infinite sides are truncated to +-10 for sampling."""
        lo = [max(l, -10.0) for l in self.lower]
        hi = [min(u, 10.0) for u in self.upper]
        return rng.uniform(lo, hi, size=(count, self.n))

    def to_json_dict(self) -> dict:
        return {"l": list(self.lower), "u": list(self.upper)}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Box":
        for key in ("l", "u"):
            if key not in data:
                raise ValueError(f"box JSON missing field '{key}'")
        return cls(map(_number, data["l"]), map(_number, data["u"]))

    def __eq__(self, other):
        return (
            isinstance(other, Box)
            and self.lower == other.lower
            and self.upper == other.upper
        )

    def __repr__(self):
        return f"Box({list(self.lower)}, {list(self.upper)})"


def power_range(l: float, u: float, k: int) -> tuple:
    """Exact range (lo, hi) of x**k over [l, u], for k >= 1; a zero end is +0.0.

    This is monomial_range of the unit exponent k * e_i on a box with [l, u]
    as coordinate i.
    """
    if k < 0:
        raise ValueError(f"negative power {k}")
    lk, uk = _ipow(l, k), _ipow(u, k)
    if k % 2 == 1:
        return lk or 0.0, uk or 0.0
    if l <= 0.0 <= u:
        return 0.0, max(lk, uk)
    return min(lk, uk), max(lk, uk)


def monomial_range(alpha: Exponent, box: Box) -> Interval:
    """Exact range of x^alpha over the box.

    Coordinates are independent, so the product of the per-coordinate ranges
    of x_i^{alpha_i} is the exact range of the monomial.
    """
    if len(alpha) != box.n:
        raise ValueError("monomial_range: dimension mismatch")
    lo = hi = None
    for l, u, k in zip(box.lower, box.upper, alpha):
        if not k:
            continue
        a, b = power_range(l, u, k)
        if lo is None:
            lo, hi = a, b
        elif a >= 0.0 and lo >= 0.0:
            # rounding is monotone, so of the four end products of two
            # nonnegative ranges these two are the extremes
            lo, hi = _imul(lo, a), _imul(hi, b)
        else:
            ends = (_imul(lo, a), _imul(lo, b), _imul(hi, a), _imul(hi, b))
            lo, hi = min(ends), max(ends)
    return Interval(1.0, 1.0) if lo is None else Interval(lo, hi)


class Polynomial:
    """Sparse polynomial sum_alpha c_alpha x^alpha with float coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Exponent, float] | None = None):
        self.n = int(n)
        clean = {}
        if terms:
            for alpha, c in terms.items():
                alpha = as_exponent(alpha)
                if len(alpha) != self.n:
                    raise ValueError(
                        f"term {alpha} has dimension {len(alpha)}, expected {self.n}"
                    )
                c = float(c)
                if abs(c) > COEFF_DROP_TOL:
                    clean[alpha] = clean.get(alpha, 0.0) + c
        self.terms = {a: c for a, c in clean.items() if abs(c) > COEFF_DROP_TOL}

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: float) -> "Polynomial":
        return cls(n, {zero_exponent(n): c})

    @classmethod
    def monomial(cls, alpha: Exponent, coeff: float = 1.0) -> "Polynomial":
        alpha = as_exponent(alpha)
        return cls(len(alpha), {alpha: coeff})

    @classmethod
    def variable(cls, n: int, i: int) -> "Polynomial":
        return cls(n, {unit_exponent(n, i): 1.0})

    def support(self) -> frozenset:
        return frozenset(self.terms)

    def degree(self) -> int:
        return max((sum(a) for a in self.terms), default=0)

    def coefficient(self, alpha: Exponent) -> float:
        return self.terms.get(as_exponent(alpha), 0.0)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        merged = dict(self.terms)
        for a, c in other.terms.items():
            merged[a] = merged.get(a, 0.0) + c
        return Polynomial(self.n, merged)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __radd__(self, other):
        return self + other

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Polynomial(self.n, {a: -c for a, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return Polynomial(self.n, {a: c * other for a, c in self.terms.items()})
        other = self._coerce(other)
        prod: dict = {}
        for a, ca in self.terms.items():
            for b, cb in other.terms.items():
                key = exp_add(a, b)
                prod[key] = prod.get(key, 0.0) + ca * cb
        return Polynomial(self.n, prod)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        result = Polynomial.constant(self.n, 1.0)
        acc = self
        while k:
            if k & 1:
                result = result * acc
            acc = acc * acc
            k >>= 1
        return result

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError("polynomial dimension mismatch")
            return other
        if isinstance(other, (int, float)):
            return Polynomial.constant(self.n, float(other))
        raise TypeError(f"cannot combine Polynomial with {type(other)!r}")

    def evaluate(self, x) -> float:
        if len(x) != self.n:
            raise ValueError("evaluate: point dimension mismatch")
        total = 0.0
        for alpha, c in self.terms.items():
            m = c
            for xi, k in zip(x, alpha):
                if k:
                    m *= _ipow(float(xi), k)
            total += m
        return total

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.n == other.n
            and self.terms == other.terms
        )

    def to_json_dict(self) -> dict:
        rows = [list(a) + [c] for a, c in sorted(self.terms.items())]
        return {"n": self.n, "terms": rows}

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "Polynomial":
        if "n" not in data:
            raise ValueError("polynomial JSON missing field 'n'")
        if "terms" not in data:
            raise ValueError("polynomial JSON missing field 'terms'")
        n = _integer(data["n"])
        terms = {}
        for row in data["terms"]:
            if len(row) != n + 1:
                raise ValueError(f"polynomial JSON term row {row} must have {n + 1} entries")
            alpha = _exponent(row[:n])
            terms[alpha] = terms.get(alpha, 0.0) + _number(row[n])
        return cls(n, terms)

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict())

    def __repr__(self):
        if not self.terms:
            return "Polynomial(0)"
        bits = [f"{c:+g}*x^{a}" for a, c in sorted(self.terms.items())]
        return "Polynomial(" + " ".join(bits) + ")"


# factor descriptors: primitive data from which a verifier can re-expand the
# nonnegative polynomial behind a row or LMI multiplier with poly-core only.
# A factor is ("mon_minus_lo", gamma), ("up_minus_mon", gamma) or
# ("monomial", gamma): x^gamma minus its lower bound on the box, its upper
# bound minus x^gamma, or x^gamma itself


def factor_polynomial(factor, box: Box, n: int) -> Polynomial:
    kind = factor[0]
    if kind == "mon_minus_lo":
        gamma = factor[1]
        lo = monomial_range(gamma, box).lo
        if not math.isfinite(lo):
            raise ValueError(f"monomial {gamma} unbounded below on the box")
        return Polynomial.monomial(gamma) - lo
    if kind == "up_minus_mon":
        gamma = factor[1]
        hi = monomial_range(gamma, box).hi
        if not math.isfinite(hi):
            raise ValueError(f"monomial {gamma} unbounded above on the box")
        return Polynomial.constant(n, hi) - Polynomial.monomial(gamma)
    if kind == "monomial":
        return Polynomial.monomial(factor[1])
    raise ValueError(f"unknown factor kind {kind!r}")


def factor_min_on_box(factor, box: Box) -> float:
    """A certified lower bound of the factor over the box."""
    kind = factor[0]
    if kind in ("mon_minus_lo", "up_minus_mon"):
        return 0.0
    if kind == "monomial":
        return monomial_range(factor[1], box).lo
    raise ValueError(f"unknown factor kind {kind!r}")


def product_of_factors(factors, box: Box, n: int) -> Polynomial:
    p = Polynomial.constant(n, 1.0)
    for f in factors:
        p = p * factor_polynomial(f, box, n)
    return p
