"""Connectivity invariant for spherical bordism terms.

A term denotes a 3-manifold with spherical boundary. Its full diffeomorphism
class is captured by a labelled cospan: for each connected piece, which input
and output boundary spheres it touches, how many connect-summands of
S2 x S1 it carries (its genus), and the multiset of prime labels attached to
it. Composition glues pieces along shared boundary spheres; each independent
cycle created by the gluing adds one S2 x S1 summand.

Two well-typed terms of equal arity denote the same bordism exactly when
their canonical cospans coincide, so equality here is the semantic equality
of the calculus, deliberately coarser than planar-diagram equality.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .layers import COMUL, M, PU, SWAP, TR, UNIT, term_to_state
from .terms import Term

__all__ = [
    "Component",
    "LabelledCospan",
    "cospan_of_term",
    "terms_equal",
    "manifold_signature",
    "cospan_to_json",
    "cospan_from_json",
]


@dataclass(frozen=True)
class Component:
    """One connected piece: boundary ports, genus, and prime labels.

    in_ports/out_ports index boundary spheres of the ambient cospan's dom and
    cod interfaces; both are kept sorted. primes is sorted with multiplicity.
    """

    in_ports: tuple[int, ...]
    out_ports: tuple[int, ...]
    genus: int
    primes: tuple[str, ...]

    def is_closed(self) -> bool:
        return not self.in_ports and not self.out_ports


@dataclass(frozen=True)
class LabelledCospan:
    """Canonical connectivity data of a bordism between sphere interfaces."""

    dom: int
    cod: int
    components: tuple[Component, ...]


def _canonical(dom: int, cod: int, comps) -> LabelledCospan:
    """Sort each (in_ports, out_ports, genus, primes) piece and the pieces."""
    boundary = []
    closed = []
    for ins, outs, genus, primes in comps:
        comp = Component(
            tuple(sorted(ins)), tuple(sorted(outs)), genus, tuple(sorted(primes))
        )
        (closed if comp.is_closed() else boundary).append(comp)
    boundary.sort(key=lambda c: (c.in_ports, c.out_ports))
    closed.sort(key=lambda c: (c.genus, c.primes))
    return LabelledCospan(dom, cod, tuple(boundary + closed))


def cospan_of_term(term: Term) -> LabelledCospan:
    """The canonical cospan a well-typed term denotes.

    One pass over the term's layers keeps a union-find over pieces and the
    piece on each wire. Input spheres and births start pieces; a merge unites
    the pieces of its two wires, and when both already lie on one piece the
    merge closes a cycle, adding one S2 x S1 summand to that piece.
    """
    state = term_to_state(term)
    dom = state[0]
    parent = list(range(dom))
    genus = [0] * dom
    primes: list[list[str]] = [[] for _ in range(dom)]
    wires = list(range(dom))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in range(1, len(state), 3):
        off, gen, lab = state[p], state[p + 1], state[p + 2]
        if gen == M:
            a, b = find(wires[off]), find(wires.pop(off + 1))
            if a == b:
                genus[a] += 1
            else:
                parent[b] = a
                genus[a] += genus[b]
                primes[a] += primes[b]
        elif gen == UNIT or gen == PU:
            wires.insert(off, len(parent))
            parent.append(len(parent))
            genus.append(0)
            primes.append([lab] if gen == PU else [])
        elif gen == COMUL:
            wires.insert(off, wires[off])
        elif gen == TR:
            del wires[off]
        elif gen == SWAP:
            wires[off], wires[off + 1] = wires[off + 1], wires[off]
        else:  # PE
            primes[find(wires[off])].append(lab)

    ins = {x: [] for x in range(len(parent)) if parent[x] == x}
    outs = {x: [] for x in ins}
    for i in range(dom):
        ins[find(i)].append(i)
    for j, x in enumerate(wires):
        outs[find(x)].append(j)
    return _canonical(
        dom, len(wires), [(ins[r], outs[r], genus[r], primes[r]) for r in ins]
    )


def terms_equal(a: Term, b: Term) -> bool:
    """Semantic equality: identical canonical cospans (so equal arities)."""
    return cospan_of_term(a) == cospan_of_term(b)


def _component_signature(c: Component) -> str:
    factors = list(c.primes)
    if c.genus >= 1:
        factors.append(f"(S2xS1)^{c.genus}")
    body = " # ".join(factors) if factors else "S3"
    n = len(c.in_ports) + len(c.out_ports)
    if n == 0:
        return f"{body} closed"
    balls = "1 ball" if n == 1 else f"{n} balls"
    return f"{body} \\ {balls} ({len(c.in_ports)} in, {len(c.out_ports)} out)"


def manifold_signature(cospan: LabelledCospan) -> str:
    """Human-readable prime decomposition, one clause per connected piece."""
    if not cospan.components:
        return "(empty)"
    return " | ".join(_component_signature(c) for c in cospan.components)


def cospan_to_json(cospan: LabelledCospan) -> str:
    return json.dumps(
        {
            "dom": cospan.dom,
            "cod": cospan.cod,
            "components": [
                {
                    "in": list(c.in_ports),
                    "out": list(c.out_ports),
                    "genus": c.genus,
                    "primes": list(c.primes),
                }
                for c in cospan.components
            ],
        },
        indent=2,
        sort_keys=True,
    )


def cospan_from_json(text: str) -> LabelledCospan:
    data = json.loads(text)
    comps = [
        (c["in"], c["out"], int(c["genus"]), c["primes"]) for c in data["components"]
    ]
    return _canonical(int(data["dom"]), int(data["cod"]), comps)
