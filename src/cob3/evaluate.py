"""Evaluation of diagrams in a commutative Frobenius algebra.

`eval_term` is the term functor: it composes and tensors the generators'
linear maps as the term says, with `LinearMap.compose` for `.` and
`LinearMap.tensor` for `*`. `eval_semantic` instead reads the glued
surface — it evaluates each connected component from its boundary counts,
genus, and prime list, then places each component's rows and columns at
their global wire positions and multiplies the components together. Both
compute with int numerators over one common denominator, the form
`LinearMap` stores. The two agree on every well-typed term; that agreement
is the whole point of the invariant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

from cob3.cospan import LabelledCospan
from cob3.frobenius import FrobeniusAlgebra, UnknownPrime
from cob3.linmap import LinearMap, identity_map, permutation_map, scalar_to_fraction
from cob3.terms import _LABEL_RE, GENERATOR_ARITIES, fold, parse, typecheck

__all__ = [
    "eval_term",
    "eval_with_endo_override",
    "eval_semantic",
    "parse_manifold",
    "closed_invariant",
    "closed_invariant_by_characters",
]


def _generator_map(alg: FrobeniusAlgebra, name, label, overrides) -> LinearMap:
    """The linear map of one generator; overrides[label], when given,
    replaces the matrix of pe(label)."""
    d = alg.dim
    r = range(d)
    if name == "id":
        return identity_map(d, 1)
    if name == "swap":
        return permutation_map(d, (1, 0))
    if name == "m":
        entries = {(k, i * d + j): alg.mul[k][i][j] for k in r for i in r for j in r}
    elif name == "comul":
        entries = {(j * d + k, i): alg.comul[i][j][k] for i in r for j in r for k in r}
    elif name == "tr":
        entries = {(0, i): alg.trace[i] for i in r}
    elif name == "unit":
        entries = {(i, 0): alg.unit[i] for i in r}
    elif name == "pu":
        vec = alg.primes.get(label)
        if vec is None:
            raise UnknownPrime(label)
        entries = {(i, 0): vec[i] for i in r}
    else:  # pe
        if overrides and label in overrides:
            m = overrides[label]
            if len(m) != d or any(len(row) != d for row in m):
                raise ValueError(f"override for {label!r} is not {d}x{d}")
            mat = [[scalar_to_fraction(x) for x in row] for row in m]
        else:
            mat = alg.prime_endo_matrix(label)
        entries = {(k, i): mat[k][i] for k in r for i in r}
    return LinearMap(*GENERATOR_ARITIES[name], d, entries)


def eval_term(
    term, alg: FrobeniusAlgebra, overrides: Optional[dict] = None
) -> LinearMap:
    """The linear map of a term (parse strings on the fly).

    The term is typechecked first, so an ill-typed term raises what
    `typecheck` raises before any generator is evaluated.
    """
    if isinstance(term, str):
        term = parse(term)
    typecheck(term)
    maps: Dict[tuple, LinearMap] = {}

    def gen(node):
        key = (node.name, node.label)
        if key not in maps:
            maps[key] = _generator_map(alg, node.name, node.label, overrides)
        return maps[key]

    return fold(
        term, gen, lambda _node, f, g: f.compose(g), lambda _node, l, r: l.tensor(r)
    )


def eval_with_endo_override(term, alg: FrobeniusAlgebra, overrides: dict) -> LinearMap:
    """eval_term with selected prime endomorphisms replaced by raw matrices.

    Overrides apply to the endomorphism generator only; labelled units keep
    the algebra's own elements.
    """
    return eval_term(term, alg, overrides)


def _comul_chain(alg, v, b):
    """Sparse {index-tuple: coeff} of the b-fold comultiplication of v."""
    d = alg.dim
    cur: Dict[Tuple[int, ...], Fraction] = {
        (i,): v[i] for i in range(d) if v[i]
    }
    for _ in range(b - 1):
        new: Dict[Tuple[int, ...], Fraction] = {}
        for idx, c in cur.items():
            i = idx[0]
            for j in range(d):
                for k in range(d):
                    cc = alg.comul[i][j][k]
                    if cc:
                        t = (j, k) + idx[1:]
                        prev = new.get(t)
                        val = c * cc
                        new[t] = val if prev is None else prev + val
        cur = {k: v for k, v in new.items() if v != 0}
    return cur


def _power(alg: FrobeniusAlgebra, x, n: int):
    """x**n for n >= 1, by repeated squaring."""
    out = None
    while True:
        if n & 1:
            out = x if out is None else alg.multiply(out, x)
        n >>= 1
        if not n:
            return out
        x = alg.multiply(x, x)


def _component_map(alg: FrobeniusAlgebra, a, b, genus, primes) -> LinearMap:
    """(b-fold comul) . (prime endos) . (handle)^genus . (a-fold mul)."""
    d = alg.dim
    handle = _power(alg, alg.handle_element(), genus) if genus else None
    entries: Dict[Tuple[int, int], Fraction] = {}
    for col in range(d ** a):
        if a == 0:
            v = alg.unit
        else:
            digits = []
            x = col
            for _ in range(a):
                digits.append(x % d)
                x //= d
            digits.reverse()
            v = tuple(
                Fraction(int(i == digits[0])) for i in range(d)
            )
            for t in digits[1:]:
                e = tuple(Fraction(int(i == t)) for i in range(d))
                v = alg.multiply(v, e)
                if not any(v):
                    break
        if not any(v):
            continue
        if handle is not None:
            v = alg.multiply(handle, v)
        for p in primes:
            vec = alg.primes.get(p)
            if vec is None:
                raise UnknownPrime(p)
            v = alg.multiply(vec, v)
        if b == 0:
            s = alg.trace_of(v)
            if s:
                entries[(0, col)] = entries.get((0, col), Fraction(0)) + s
            continue
        for idx, c in _comul_chain(alg, v, b).items():
            row = 0
            for t in idx:
                row = row * d + t
            entries[(row, col)] = c
    return LinearMap(a, b, d, entries)


def _place_values(ports, width, d):
    """Global flat offset of each local index over `ports`, a list of
    wire positions in a width-wire interface (both big-endian)."""
    out = [0]
    for wire in ports:
        step = d ** (width - 1 - wire)
        out = [g + t * step for g in out for t in range(d)]
    return out


def eval_semantic(cospan: LabelledCospan, alg: FrobeniusAlgebra) -> LinearMap:
    """Evaluate a glued surface componentwise and wire up its boundary.

    Components own disjoint boundary wires, so the map is the product of the
    component maps: each component entry is moved to its global row and
    column through per-port place values and multiplied into the result.
    """
    d = alg.dim
    dom, cod = cospan.dom, cospan.cod
    den = 1
    acc: Dict[Tuple[int, int], int] = {(0, 0): 1}
    for comp in cospan.components:
        m = _component_map(
            alg, len(comp.in_ports), len(comp.out_ports), comp.genus, comp.primes
        )
        rows = _place_values(comp.out_ports, cod, d)
        cols = _place_values(comp.in_ports, dom, d)
        moved = [(rows[r], cols[c], v) for (r, c), v in m.nums.items()]
        acc = {
            (gr + r, gc + c): u * v
            for (gr, gc), u in acc.items()
            for r, c, v in moved
        }
        den *= m.den
    return LinearMap._from_ints(dom, cod, d, den, acc)


# -- closed manifolds ----------------------------------------------------------


_HANDLES_RE = re.compile(r"\(S2xS1\)\^(\d+)\Z")


def parse_manifold(text: str) -> Tuple[int, Tuple[str, ...]]:
    """(genus, primes) of a closed-surface description.

    Connected-sum factors are separated by '#': "S3" contributes nothing,
    "(S2xS1)^k" contributes k handles, and any other factor that is a term
    label (as in pe(LABEL)) is a prime. "S3" always means the sphere.
    """
    genus = 0
    primes = []
    for raw in text.split("#"):
        tok = raw.strip()
        if not tok:
            raise ValueError(f"empty factor in {text!r}")
        if tok == "S3":
            continue
        m = _HANDLES_RE.match(tok)
        if m:
            genus += int(m.group(1))
            continue
        if _LABEL_RE.match(tok):
            primes.append(tok)
            continue
        raise ValueError(f"unrecognized factor {tok!r}")
    return genus, tuple(sorted(primes))


def closed_invariant(alg: FrobeniusAlgebra, manifold: str) -> Fraction:
    """trace(prime elements * handle^genus * 1), evaluated as a diagram."""
    genus, primes = parse_manifold(manifold)
    return _component_map(alg, 0, 0, genus, primes).scalar()


def closed_invariant_by_characters(alg: FrobeniusAlgebra, manifold: str) -> Fraction:
    """Character-sum form: sum over blocks of
    trace(idem) * prod chi(1_p) * chi(handle)^genus."""
    from cob3.frobenius import character_on_block, idempotent_decomposition

    genus, primes = parse_manifold(manifold)
    dec = idempotent_decomposition(alg)
    handle = alg.handle_element()
    total = Fraction(0)
    for idem in dec.idempotents:
        term = alg.trace_of(idem)
        for p in primes:
            vec = alg.primes.get(p)
            if vec is None:
                raise UnknownPrime(p)
            term *= character_on_block(alg, idem, vec)
        if genus:
            term *= character_on_block(alg, idem, handle) ** genus
        total += term
    return total
