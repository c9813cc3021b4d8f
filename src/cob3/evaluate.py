"""Evaluation of diagrams in a commutative Frobenius algebra.

Both evaluators read the generator maps the algebra holds, scaled-int
`LinearMap`s built once with the algebra. `eval_term` is the term functor:
it composes and tensors these maps as the term says, with
`LinearMap.compose` for `.` and `LinearMap.tensor` for `*`. `eval_semantic`
instead reads the glued surface. It evaluates each connected component as
(b-fold comul) . (multiplication by z) . (a-fold mul), composed from the
same maps, where z = handle^genus times the component's prime elements is an
algebra element with Fraction coordinates. It then places each component's
rows and columns at their global wire positions and multiplies the components
together. The two agree on every well-typed term; that agreement is the
whole point of the invariant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

from cob3.cospan import LabelledCospan
from cob3.frobenius import FrobeniusAlgebra
from cob3.linmap import LinearMap, scalar_to_fraction
from cob3.terms import _LABEL_RE, fold, parse, typecheck

__all__ = [
    "eval_term",
    "eval_with_endo_override",
    "eval_semantic",
    "parse_manifold",
    "closed_invariant",
    "closed_invariant_by_characters",
]


def _override_map(d: int, label: str, m) -> LinearMap:
    """The pe(label) map given by a raw d x d matrix."""
    if len(m) != d or any(len(row) != d for row in m):
        raise ValueError(f"override for {label!r} is not {d}x{d}")
    r = range(d)
    mat = [[scalar_to_fraction(x) for x in row] for row in m]
    return LinearMap(1, 1, d, {(k, i): mat[k][i] for k in r for i in r})


def eval_term(
    term, alg: FrobeniusAlgebra, overrides: Optional[dict] = None
) -> LinearMap:
    """The linear map of a term (parse strings on the fly).

    The term is typechecked first, so an ill-typed term raises what
    `typecheck` raises before any generator is evaluated. overrides[label],
    when given, replaces the matrix of pe(label).
    """
    if isinstance(term, str):
        term = parse(term)
    typecheck(term)

    def gen(node):
        if node.name == "pe" and overrides and node.label in overrides:
            return _override_map(alg.dim, node.label, overrides[node.label])
        return alg.generator(node.name, node.label)

    return fold(
        term, gen, lambda _node, f, g: f.compose(g), lambda _node, l, r: l.tensor(r)
    )


def eval_with_endo_override(term, alg: FrobeniusAlgebra, overrides: dict) -> LinearMap:
    """eval_term with selected prime endomorphisms replaced by raw matrices.

    Overrides apply to the endomorphism generator only; labelled units keep
    the algebra's own elements.
    """
    return eval_term(term, alg, overrides)


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


def _surface_element(alg: FrobeniusAlgebra, genus: int, primes):
    """handle^genus times the prime elements: what a surface multiplies by."""
    z = _power(alg, alg.handle_element(), genus) if genus else alg.unit
    for p in primes:
        z = alg.multiply(alg.prime(p), z)
    return z


def _component_map(alg: FrobeniusAlgebra, a, b, genus, primes) -> LinearMap:
    """(b-fold comul) . (multiplication by z) . (a-fold mul), with z the
    surface element; a 0-fold mul is the unit and a 0-fold comul the trace."""
    g, ident = alg.generator, alg.generator("id")
    mul = g("unit") if a == 0 else ident
    for _ in range(a - 1):
        mul = g("m").compose(mul.tensor(ident))
    comul = g("tr") if b == 0 else ident
    for _ in range(b - 1):
        comul = comul.tensor(ident).compose(g("comul"))
    z = alg.element_map(_surface_element(alg, genus, primes))
    return comul.compose(z).compose(mul)


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
    return alg.trace_of(_surface_element(alg, genus, primes))


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
            term *= character_on_block(alg, idem, alg.prime(p))
        if genus:
            term *= character_on_block(alg, idem, handle) ** genus
        total += term
    return total
