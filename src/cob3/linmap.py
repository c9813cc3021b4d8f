"""Exact linear maps between tensor powers of a d-dimensional space.

A map with dom_arity a and cod_arity b sends (Q^d)^{\\otimes a} to
(Q^d)^{\\otimes b}. Basis tensors are flattened big-endian: the multi-index
(i_0, ..., i_{k-1}) becomes sum_t i_t * d^(k-1-t).

Entries are stored as a sparse dict {row * cols + col: int} of numerators
over one positive common denominator, in lowest terms, with cols = d**a:
one flat int key per entry, in range(d**(a + b)). Zero entries are absent,
the gcd of the denominator and all numerators is 1, and the zero map has
denominator 1. Equal maps therefore have identical data, and equality and
hashing compare ints. `entries` is the {(row, col): Fraction} view, built
when first asked for; all arithmetic is exact.

Every map is built by `_reduced`, which only divides out that gcd;
`LinearMap(...)` checks each (row, col) against rows x cols before
flattening, since (0, cols) would flatten to the in-range key cols, and
`_from_ints` checks each flat key's range; both drop zeros. `tensor` and
the evaluator's placed product skip both checks, which cannot fail there:
each entry is a product of nonzero, in-range numerators at a key no other
entry has. `compose` keeps them, as its sums can cancel.
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


class LinearMap:
    """A map from a sparse {(row, col): Fraction} dict; immutable."""

    def __init__(self, dom_arity: int, cod_arity: int, d: int, entries=None):
        entries = entries or {}
        for v in entries.values():
            if not isinstance(v, Fraction):
                raise TypeError("entries must be Fractions")
        rows, cols = d ** cod_arity, d ** dom_arity
        for r, c in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise ValueError(f"entry ({r},{c}) outside {rows}x{cols}")
        den = lcm(*(v.denominator for v in entries.values()))
        nums = {
            r * cols + c: v.numerator * (den // v.denominator)
            for (r, c), v in entries.items()
        }
        self.__dict__.update(vars(LinearMap._from_ints(dom_arity, cod_arity, d, den, nums)))

    @classmethod
    def _from_ints(cls, dom_arity, cod_arity, d, den: int, nums) -> "LinearMap":
        """The map with entries nums[k] / den at flat keys k = row * cols + col;
        den > 0, any common factor."""
        size = d ** (dom_arity + cod_arity)
        if nums and (min(nums) < 0 or max(nums) >= size):
            raise ValueError(f"a key is outside range({size})")
        return cls._reduced(dom_arity, cod_arity, d, den, {k: v for k, v in nums.items() if v})

    @classmethod
    def _reduced(cls, dom_arity, cod_arity, d, den: int, nums: dict) -> "LinearMap":
        """_from_ints for nums with every key in range and no zero value: only
        gcd(den, *nums) is divided out, when den != 1; the map may keep nums."""
        if den != 1:
            g = gcd(den, *nums.values())
            if g != 1:
                den //= g
                nums = {k: v // g for k, v in nums.items()}
        self = object.__new__(cls)
        self.__dict__.update(dom_arity=dom_arity, cod_arity=cod_arity, d=d, den=den, nums=nums)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return (
            f"LinearMap({self.dom_arity}, {self.cod_arity}, {self.d}, {self.entries!r})"
        )

    @cached_property
    def entries(self) -> Dict[Tuple[int, int], Fraction]:
        """The nonzero entries as {(row, col): Fraction}."""
        den, cols = self.den, self.cols
        return {divmod(k, cols): Fraction(v, den) for k, v in self.nums.items()}

    @cached_property
    def columns(self) -> Dict[int, list]:
        """The nonzero numerators by column: {col: [(row, num), ...]}."""
        by_col: Dict[int, list] = {}
        cols = self.cols
        for k, v in self.nums.items():
            r, c = divmod(k, cols)
            by_col.setdefault(c, []).append((r, v))
        return by_col

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
        by_col, cols = self.columns, other.cols
        out: Dict[int, int] = {}
        for k, v in other.nums.items():
            m, c = divmod(k, cols)
            for r, w in by_col.get(m, ()):
                key = r * cols + c
                out[key] = out.get(key, 0) + w * v
        return LinearMap._from_ints(
            other.dom_arity, self.cod_arity, self.d, self.den * other.den, out
        )

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """self on the left factors, other on the right."""
        if self.d != other.d:
            raise ValueError("dimension mismatch")
        # the key (r1 * rr + r2) * (cols * cc) + c1 * cc + c2 of the product
        # is a sum of one part from each factor
        rr, cc, cols = other.rows, other.cols, self.cols
        wide = cols * cc
        left = [((k // cols) * rr * wide + (k % cols) * cc, v) for k, v in self.nums.items()]
        right = [((k // cc) * wide + k % cc, v) for k, v in other.nums.items()]
        out = {g + m: v1 * v2 for g, v1 in left for m, v2 in right}
        return LinearMap._reduced(
            self.dom_arity + other.dom_arity,
            self.cod_arity + other.cod_arity,
            self.d,
            self.den * other.den,
            out,
        )

    def apply(self, vec: Dict[int, Fraction]) -> Dict[int, Fraction]:
        """Apply to a sparse column vector {index: value}."""
        out: Dict[int, Fraction] = {}
        columns = self.columns
        for c, x in vec.items():
            for r, v in columns.get(c, ()):
                out[r] = out[r] + v * x if r in out else v * x
        return {k: Fraction(v) / self.den for k, v in out.items() if v != 0}

    def scalar(self) -> Fraction:
        """The single entry of a 0 -> 0 map."""
        if self.dom_arity != 0 or self.cod_arity != 0:
            raise ValueError("scalar() requires a closed (0 -> 0) map")
        return Fraction(self.nums.get(0, 0), self.den)

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
    return LinearMap._from_ints(arity, arity, d, 1, {i * (n + 1): 1 for i in range(n)})


def permutation_map(d: int, perm) -> LinearMap:
    """Wire permutation: output slot j carries input slot perm[j]."""
    k = len(perm)
    if sorted(perm) != list(range(k)):
        raise ValueError(f"not a permutation: {perm}")
    n = d ** k
    nums: Dict[int, int] = {}
    for col in range(n):
        digits = []
        x = col
        for _ in range(k):
            digits.append(x % d)
            x //= d
        digits.reverse()
        row = 0
        for j in range(k):
            row = row * d + digits[perm[j]]
        nums[row * n + col] = 1
    return LinearMap._from_ints(k, k, d, 1, nums)
