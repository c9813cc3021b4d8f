"""Layered presentation of bordism terms.

A term denotes a planar diagram: generators stacked in layers, each layer a
single generator whiskered by identity wires. Two terms denote the same
diagram exactly when they differ by associativity/unit laws of "." and "*"
and by the interchange law — the structural congruence of a strict monoidal
category. This module converts terms to and from a flat layer encoding and
exposes the canonical (slide-sorted) representative computed by the kernel.
The generator codes and arities below are the one table every consumer of
the encoding (kernel, cospan, evaluator, rule compiler) reads.

Encoding: a state is a flat int tuple

    (dom, off0, gen0, lab0, off1, gen1, lab1, ...)

listing layers bottom-up (first applied first). A layer (off, gen, lab) is
generator `gen` (codes below) acting on wires [off, off+arity); `lab` is -1
for unlabelled generators, an interned prime-label id >= 0, or <= -2 for a
metavariable slot in rule patterns. Identity wires are not layers; the
identity on n wires is (n,).
"""

from __future__ import annotations

from cob3.terms import (
    Compose,
    Gen,
    Tensor,
    Term,
    _compose_type,
    fold,
    id_n,
    whisker,
)

__all__ = [
    "M",
    "UNIT",
    "COMUL",
    "TR",
    "SWAP",
    "PE",
    "PU",
    "GEN_CODES",
    "GEN_NAMES",
    "GEN_DOM",
    "GEN_COD",
    "intern_label",
    "label_name",
    "term_to_state",
    "state_to_term",
    "state_widths",
    "canonical_state",
    "canonical_text",
    "diagram_equal",
    "slice_path",
]

GEN_NAMES = ("m", "unit", "comul", "tr", "swap", "pe", "pu")
M, UNIT, COMUL, TR, SWAP, PE, PU = range(len(GEN_NAMES))
GEN_CODES = {name: code for code, name in enumerate(GEN_NAMES)}
GEN_DOM = (2, 0, 1, 1, 2, 1, 0)
GEN_COD = (1, 1, 2, 0, 2, 1, 1)

_LABEL_IDS: dict[str, int] = {}
_LABEL_NAMES: list[str] = []


def intern_label(name: str) -> int:
    """Map a prime label to a stable nonnegative int (per process)."""
    lid = _LABEL_IDS.get(name)
    if lid is None:
        lid = len(_LABEL_NAMES)
        _LABEL_IDS[name] = lid
        _LABEL_NAMES.append(name)
    return lid


def label_name(lid: int) -> str:
    return _LABEL_NAMES[lid]


def term_to_state(term: Term) -> tuple[int, ...]:
    """Flatten a term to its layer encoding (not yet slide-sorted).

    One fold both checks arities, raising what typecheck would, and
    collects the layers.
    """
    dom, _cod, base, layers = fold(term, _gen_layers, _compose_layers, _tensor_layers)
    out = [dom]
    for off, gen, label in layers:
        # interned in layer order, so label ids do not depend on the walk
        out += (off + base, gen, -1 if label is None else intern_label(label))
    return tuple(out)


# The fold's value for a subterm is (dom, cod, base, layers): its layers
# bottom-up as (offset - base, code, label) triples. The shorter side of a
# join is rebased onto the longer side's base, so a deep or wide term is
# flattened without re-offsetting its long side at every level.

def _gen_layers(node: Gen):
    if node.name == "id":
        return 1, 1, 0, []
    code = GEN_CODES[node.name]
    return GEN_DOM[code], GEN_COD[code], 0, [(0, code, node.label)]


def _compose_layers(node: Compose, f, g):
    dom, cod = _compose_type(node, f, g)
    return (dom, cod) + _join(g, f, 0)


def _tensor_layers(node: Tensor, l, r):
    return (l[0] + r[0], l[1] + r[1]) + _join(l, r, l[1])


def _join(first, second, shift: int):
    """(base, layers) of first's layers then second's raised by shift."""
    base1, layers1 = first[2], first[3]
    base2, layers2 = second[2] + shift, second[3]
    if len(layers1) >= len(layers2):
        layers1 += _rebase(layers2, base2 - base1)
        return base1, layers1
    layers2[:0] = _rebase(layers1, base1 - base2)
    return base2, layers2


def _rebase(layers: list, by: int) -> list:
    return [(off + by, gen, label) for off, gen, label in layers] if by else layers


def state_widths(state: tuple[int, ...]) -> list[int]:
    """Wire counts at each level: widths[i] = width below layer i."""
    w = state[0]
    widths = [w]
    for i in range(1, len(state), 3):
        gen = state[i + 1]
        w += GEN_COD[gen] - GEN_DOM[gen]
        widths.append(w)
    return widths


def state_to_term(state: tuple[int, ...]) -> Term:
    """Render a state as a term: a composition of whiskered slices."""
    dom = state[0]
    n = (len(state) - 1) // 3
    if n == 0:
        if dom == 0:
            raise ValueError("the empty diagram has no term")
        return id_n(dom)
    widths = state_widths(state)
    term: Term | None = None
    for i in range(n):
        off, gen, lab = state[1 + 3 * i : 4 + 3 * i]
        box = Gen(GEN_NAMES[gen], label_name(lab) if lab >= 0 else None)
        layer = whisker(box, off, widths[i] - off - GEN_DOM[gen])
        term = layer if term is None else Compose(layer, term)
    return term


def slice_path(n_layers: int, i: int) -> list[int]:
    """Child-index path to slice i (0 = first applied) in the rendering."""
    if not 0 <= i < n_layers:
        raise IndexError(f"no slice {i} in a {n_layers}-layer rendering")
    path = [1] * (n_layers - 1 - i)
    if i > 0:
        path.append(0)
    return path


def canonical_state(term_or_state) -> tuple[int, ...]:
    """Slide-sorted canonical representative of a term's diagram."""
    from cob3.kernel import nf

    state = term_or_state
    if isinstance(state, Term):
        state = term_to_state(state)
    return nf(state)


def canonical_text(term: Term) -> str:
    """Printed canonical form; equal texts <=> structurally equal diagrams."""
    from cob3.terms import print_term

    return print_term(state_to_term(canonical_state(term)))


def diagram_equal(a: Term, b: Term) -> bool:
    """Equality modulo the structural congruence (not the full invariant)."""
    return canonical_state(a) == canonical_state(b)
