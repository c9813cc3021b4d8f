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

from .layers import COMUL, TR, pieces, term_to_state
from .terms import Term, _kept

__all__ = [
    "Component",
    "LabelledCospan",
    "cospan_of_term",
    "cospan_of_state",
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
    """Sort the primes of each (in_ports, out_ports, genus, primes) piece,
    whose ports come sorted, and then the pieces: those with ports by their
    ports, which no two share, then the closed ones by genus and primes."""
    out = [Component(tuple(i), tuple(o), g, tuple(sorted(p))) for i, o, g, p in comps]
    out.sort(key=lambda c: (c.is_closed(), c.in_ports, c.out_ports, c.genus, c.primes))
    return LabelledCospan(dom, cod, tuple(out))


def cospan_of_term(term: Term) -> LabelledCospan:
    """The canonical cospan a well-typed term denotes, kept on the term as
    `term_to_state` keeps its state: each term object is swept once."""
    return _kept(term, "_cospan", lambda: cospan_of_state(term_to_state(term)))


def cospan_of_state(state: tuple) -> LabelledCospan:
    """The canonical cospan of a layered state. `pieces` gives each wire and
    layer its piece. A piece's primes are its layers' labels, and its genus
    is #comul - #tr - #outputs + 1: its Euler characteristic 2 - 2 genus -
    #ports is #unit + #pu + #tr - #m - #comul, and #m is #inputs + #comul +
    #unit + #pu - #tr - #outputs.
    """
    _, layers, cod, ins, outs = pieces(state)
    genus = [1 - len(ports) for ports in outs]
    primes = [[] for _ in ins]
    for x, gen, lab in zip(layers, state[2::3], state[3::3]):
        if gen == COMUL:
            genus[x] += 1
        elif gen == TR:
            genus[x] -= 1
        elif lab:
            primes[x].append(lab)
    return _canonical(state[0], cod, zip(ins, outs, genus, primes))


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
        (sorted(c["in"]), sorted(c["out"]), int(c["genus"]), c["primes"])
        for c in data["components"]
    ]
    return _canonical(int(data["dom"]), int(data["cod"]), comps)
