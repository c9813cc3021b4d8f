"""Exact linear maps between tensor powers of a d-dimensional space.

A map with dom_arity a and cod_arity b sends (Q^d)^{\\otimes a} to
(Q^d)^{\\otimes b}. Basis tensors are flattened big-endian: the multi-index
(i_0, ..., i_{k-1}) becomes sum_t i_t * d^(k-1-t).

Entries are stored as a sparse dict {(row, col): int} of numerators over one
positive common denominator, in lowest terms: zero entries are absent, the
gcd of the denominator and all numerators is 1, and the zero map has
denominator 1. Equal maps therefore have identical data, and equality and
hashing compare ints. `entries` is the {(row, col): Fraction} view, built
when first asked for; all arithmetic is exact.
"""

from __future__ import annotations

import json
from dataclasses import FrozenInstanceError
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Tuple

__all__ = [
    "LinearMap",
    "identity_map",
    "permutation_map",
    "scalar_to_fraction",
    "fraction_to_scalar",
]


def scalar_to_fraction(v) -> Fraction:
    """Accept int, "num/den" string, or Fraction; bool is not a number here."""
    if isinstance(v, Fraction):
        return v
    if isinstance(v, (int, str)) and not isinstance(v, bool):
        return Fraction(v)
    raise TypeError(f"not an exact scalar: {v!r}")


def fraction_to_scalar(f: Fraction):
    """Render exactly: bare int when integral, else "num/den"."""
    if f.denominator == 1:
        return int(f)
    return f"{f.numerator}/{f.denominator}"


def _lowest_terms(den: int, nums: dict) -> Tuple[int, dict]:
    """Drop zero numerators and divide out gcd(den, numerators); den > 0."""
    nums = {k: v for k, v in nums.items() if v}
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    return den, nums


class LinearMap:
    """A map from a sparse {(row, col): Fraction} dict; immutable."""

    def __init__(self, dom_arity: int, cod_arity: int, d: int, entries=None):
        entries = entries or {}
        for v in entries.values():
            if not isinstance(v, Fraction):
                raise TypeError("entries must be Fractions")
        den = lcm(*(v.denominator for v in entries.values()))
        nums = {k: v.numerator * (den // v.denominator) for k, v in entries.items()}
        self._init(dom_arity, cod_arity, d, den, nums)

    @classmethod
    def _from_ints(cls, dom_arity, cod_arity, d, den: int, nums) -> "LinearMap":
        """The map with entries nums[k] / den; den > 0, any common factor."""
        self = object.__new__(cls)
        self._init(dom_arity, cod_arity, d, den, nums)
        return self

    def _init(self, dom_arity, cod_arity, d, den, nums):
        rows, cols = d ** cod_arity, d ** dom_arity
        for r, c in nums:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
        den, nums = _lowest_terms(den, nums)
        self.__dict__.update(
            dom_arity=dom_arity, cod_arity=cod_arity, d=d, den=den, nums=nums
        )

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return (
            f"LinearMap({self.dom_arity}, {self.cod_arity}, {self.d}, {self.entries!r})"
        )

    @cached_property
    def entries(self) -> Dict[Tuple[int, int], Fraction]:
        """The nonzero entries as {(row, col): Fraction}."""
        den = self.den
        return {k: Fraction(v, den) for k, v in self.nums.items()}

    @property
    def rows(self) -> int:
        return self.d ** self.cod_arity

    @property
    def cols(self) -> int:
        return self.d ** self.dom_arity

    def _key(self):
        return (self.dom_arity, self.cod_arity, self.d, self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearMap):
            return NotImplemented
        return self._key() == other._key() and self.nums == other.nums

    def __hash__(self):
        return hash((self._key(), frozenset(self.nums.items())))

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        if self.dom_arity != other.cod_arity:
            raise ValueError(
                f"arity mismatch: composing {self.dom_arity} <- {other.cod_arity}"
            )
        by_col: Dict[int, list] = {}
        for (r, c), v in self.nums.items():
            by_col.setdefault(c, []).append((r, v))
        out: Dict[Tuple[int, int], int] = {}
        for (m, c), v in other.nums.items():
            for r, w in by_col.get(m, ()):
                key = (r, c)
                out[key] = out.get(key, 0) + w * v
        return LinearMap._from_ints(
            other.dom_arity, self.cod_arity, self.d, self.den * other.den, out
        )

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """self on the left factors, other on the right."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        rr = other.rows
        cc = other.cols
        out = {
            (r1 * rr + r2, c1 * cc + c2): v1 * v2
            for (r1, c1), v1 in self.nums.items()
            for (r2, c2), v2 in other.nums.items()
        }
        return LinearMap._from_ints(
            self.dom_arity + other.dom_arity,
            self.cod_arity + other.cod_arity,
            self.d,
            self.den * other.den,
            out,
        )

    def apply(self, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """Apply to a sparse column vector {index: value}."""
        out: Dict[int, Fraction] = {}
        for (r, c), v in self.nums.items():
            x = vec.get(c)
            if x is not None:
                out[r] = out.get(r, 0) + v * x
        return {k: Fraction(v) / self.den for k, v in out.items() if v != 0}

    def scalar(self) -> Fraction:
        """The single entry of a 0 -> 0 map."""
        if self.dom_arity != 0 or self.cod_arity != 0:
            raise ValueError("scalar() requires a closed (0 -> 0) map")
        return Fraction(self.nums.get((0, 0), 0), self.den)

    def to_json(self) -> str:
        ents = [
            [r, c, fraction_to_scalar(v)] for (r, c), v in sorted(self.entries.items())
        ]
        return json.dumps(
            {
                "dom_arity": self.dom_arity,
                "cod_arity": self.cod_arity,
                "d": self.d,
                "entries": ents,
            },
            indent=2,
            sort_keys=True,
        )

    @staticmethod
    def from_json(text: str) -> "LinearMap":
        data = json.loads(text)
        entries = {
            (int(r), int(c)): scalar_to_fraction(v) for r, c, v in data["entries"]
        }
        return LinearMap(
            int(data["dom_arity"]), int(data["cod_arity"]), int(data["d"]), entries
        )


def identity_map(d: int, arity: int) -> LinearMap:
    n = d ** arity
    return LinearMap._from_ints(arity, arity, d, 1, {(i, i): 1 for i in range(n)})


def permutation_map(d: int, perm) -> LinearMap:
    """Wire permutation: output slot j carries input slot perm[j]."""
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation: {perm}")
    entries: Dict[Tuple[int, int], int] = {}
    for col in range(d ** k):
        digits = []
        x = col
        for _ in range(k):
            digits.append(x % d)
            x //= d
        digits.reverse()
        row = 0
        for j in range(k):
            row = row * d + digits[perm[j]]
        entries[(row, col)] = 1
    return LinearMap._from_ints(k, k, d, 1, entries)
