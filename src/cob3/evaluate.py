"""Evaluation of diagrams in a commutative Frobenius algebra.

Both evaluators compute with int numerators over one common denominator and
hand the result to `LinearMap` in that form. `eval_term` interprets a term
layer by layer: the accumulated map is kept as a sparse dict and each
generator acts on its wire window through a column table scaled to ints, so
wide identity regions cost nothing. `eval_semantic` instead reads the glued
surface — it evaluates each connected component from its boundary counts,
genus, and prime list, then places each component's rows and columns at
their global wire positions and multiplies the components together. The two
agree on every well-typed term; that agreement is the whole point of the
invariant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Dict, Optional, Tuple

from cob3.cospan import LabelledCospan, cospan_of_term
from cob3.frobenius import FrobeniusAlgebra, UnknownPrime
from cob3.layers import (
    COMUL,
    GEN_COD,
    GEN_DOM,
    M,
    PE,
    SWAP,
    TR,
    UNIT,
    term_to_state,
)
from cob3.linmap import LinearMap, _lowest_terms, scalar_to_fraction
from cob3.terms import _LABEL_RE, Term, parse

__all__ = [
    "eval_term",
    "eval_with_endo_override",
    "eval_semantic",
    "parse_manifold",
    "closed_invariant",
    "closed_invariant_by_characters",
]


def _scaled(cols):
    """(den, table) for a list of columns [(local_row, Fraction)]: the same
    coefficients as ints over one common denominator, None standing for 1."""
    den = lcm(*(v.denominator for col in cols for _, v in col))
    return den, [
        [
            (k, None if v * den == 1 else v.numerator * (den // v.denominator))
            for k, v in col
            if v
        ]
        for col in cols
    ]


def _column_tables(alg: FrobeniusAlgebra):
    """Per-generator scaled column tables, see `_scaled`."""
    d = alg.dim
    one = Fraction(1)
    return {
        (M, ""): _scaled(
            [
                [(k, alg.mul[k][i][j]) for k in range(d)]
                for i in range(d)
                for j in range(d)
            ]
        ),
        (UNIT, ""): _scaled([[(i, alg.unit[i]) for i in range(d)]]),
        (COMUL, ""): _scaled(
            [
                [(j * d + k, alg.comul[i][j][k]) for j in range(d) for k in range(d)]
                for i in range(d)
            ]
        ),
        (TR, ""): _scaled([[(0, alg.trace[i])] for i in range(d)]),
        (SWAP, ""): _scaled([[(j * d + i, one)] for i in range(d) for j in range(d)]),
    }


def _endo_table(alg, label, overrides, d):
    if overrides and label in overrides:
        m = overrides[label]
        if len(m) != d or any(len(r) != d for r in m):
            raise ValueError(f"override for {label!r} is not {d}x{d}")
        mat = [[scalar_to_fraction(x) for x in row] for row in m]
    else:
        mat = alg.prime_endo_matrix(label)
    return _scaled([[(k, mat[k][i]) for k in range(d)] for i in range(d)])


def _unit_table(alg, label, d):
    vec = alg.primes.get(label)
    if vec is None:
        raise UnknownPrime(label)
    return _scaled([[(i, vec[i]) for i in range(d)]])


def eval_term(
    term, alg: FrobeniusAlgebra, overrides: Optional[dict] = None
) -> LinearMap:
    """The linear map of a term (parse strings on the fly).

    The map so far is kept as int numerators over one denominator; each
    layer multiplies in its generator's scaled table and table denominator.
    """
    if isinstance(term, str):
        term = parse(term)
    state = term_to_state(term)
    d = alg.dim
    dom = state[0]
    tabs = _column_tables(alg)
    den = 1
    acc: Dict[Tuple[int, int], int] = {(i, i): 1 for i in range(d ** dom)}
    w = dom
    for p in range(1, len(state), 3):
        off, gen, lab = state[p], state[p + 1], state[p + 2]
        tab = tabs.get((gen, lab))
        if tab is None:
            tab = (
                _endo_table(alg, lab, overrides, d)
                if gen == PE
                else _unit_table(alg, lab, d)
            )
            tabs[gen, lab] = tab
        tden, cols = tab
        a, b = GEN_DOM[gen], GEN_COD[gen]
        right = w - off - a
        pa, pb, pr = d ** a, d ** b, d ** right
        new: Dict[Tuple[int, int], int] = {}
        for (r, c), v in acc.items():
            lo = r % pr
            rest = r // pr
            mid = rest % pa
            base = (rest // pa) * pb
            for rg, vg in cols[mid]:
                key = ((base + rg) * pr + lo, c)
                new[key] = new.get(key, 0) + (v if vg is None else v * vg)
        den, acc = _lowest_terms(den * tden, new)
        w += b - a
    return LinearMap._from_ints(dom, w, d, den, acc)


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


def _component_map(alg: FrobeniusAlgebra, a, b, genus, primes) -> LinearMap:
    """(b-fold comul) . (prime endos) . (handle)^genus . (a-fold mul)."""
    d = alg.dim
    handle = alg.handle_element() if genus else None
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
        for _ in range(genus):
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
