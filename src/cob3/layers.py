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
    TermTypeError,
    id_n,
    typecheck,
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
    """Flatten a term to its layer encoding (not yet slide-sorted)."""
    typecheck(term)
    dom, _cod, layers = _layers(term)
    out = [dom]
    for layer in layers:
        out.extend(layer)
    return tuple(out)


def _layers(term: Term):
    if isinstance(term, Gen):
        if term.name == "id":
            return 1, 1, []
        code = GEN_CODES[term.name]
        lab = intern_label(term.label) if term.label is not None else -1
        return GEN_DOM[code], GEN_COD[code], [(0, code, lab)]
    if isinstance(term, Compose):
        gd, gc, gl = _layers(term.g)
        fd, fc, fl = _layers(term.f)
        return gd, fc, gl + fl
    if isinstance(term, Tensor):
        ld, lc, ll = _layers(term.l)
        rd, rc, rl = _layers(term.r)
        shifted = [(off + lc, gen, lab) for (off, gen, lab) in rl]
        return ld + rd, lc + rc, ll + shifted
    raise TermTypeError(f"not a term: {term!r}")


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
        term = _slice(off, gen, lab, widths[i]) if term is None else Compose(
            _slice(off, gen, lab, widths[i]), term
        )
    return term


def _slice(off: int, gen: int, lab: int, width: int) -> Term:
    name = GEN_NAMES[gen]
    box: Term = Gen(name, label_name(lab) if lab >= 0 else None)
    right = width - off - GEN_DOM[gen]
    if right > 0:
        box = Tensor(box, id_n(right))
    if off > 0:
        box = Tensor(id_n(off), box)
    return box


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
