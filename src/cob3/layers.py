"""Layered presentation of bordism terms.

A term denotes a planar diagram: generators stacked in layers, each layer a
single generator whiskered by identity wires. Two terms denote the same
diagram exactly when they differ by associativity/unit laws of "." and "*"
and by the interchange law — the structural congruence of a strict monoidal
category. This module turns terms and term text into a flat layer encoding and
back, finds its pieces, and compares diagrams by nf's slide-sorted form.
The generator codes and arities below are the one table every consumer of
the encoding (kernel, cospan, evaluator, rule compiler) reads.

Encoding: a state is a flat tuple

    (dom, off0, gen0, lab0, off1, gen1, lab1, ...)

listing layers bottom-up (first applied first). A layer (off, gen, lab) is
generator `gen` (codes below) acting on wires [off, off+arity); `lab` is the
prime label as a string: "" for an unlabelled generator, the label's name
("P") for pe/pu, or "?p" for a metavariable in a rule side. States are
compared, and so normal forms chosen, by these names, which makes every
canonical form independent of the order in which labels were first seen.
Identity wires are not layers; the identity on n wires is (n,).
"""

from __future__ import annotations

from cob3.terms import (
    GENERATOR_ARITIES,
    ArityMismatch,
    Term,
    _compose_type,
    _kept,
    _print_compose,
    _print_gen,
    _print_tensor,
    atom,
    fold,
    parse,
    read,
    stack,
    stack_text,
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
    "term_to_state",
    "read_state",
    "state_to_term",
    "print_state",
    "state_widths",
    "pieces",
    "diagram_equal",
]

GEN_NAMES = ("m", "unit", "comul", "tr", "swap", "pe", "pu")
M, UNIT, COMUL, TR, SWAP, PE, PU = range(len(GEN_NAMES))
GEN_CODES = {name: code for code, name in enumerate(GEN_NAMES)}
GEN_DOM, GEN_COD = zip(*(GENERATOR_ARITIES[name] for name in GEN_NAMES))

def term_to_state(term: Term) -> tuple:
    """Flatten a term to its layer encoding (not yet slide-sorted).

    One fold both checks arities, raising what typecheck would, and
    collects the layers. The state is kept on the term (`terms._kept`), so
    each term object is flattened once.
    """
    layers = (_atom_layers, _compose_layers, _tensor_layers)
    return _kept(term, "_state", lambda: _state(fold(term, *layers)))


def read_state(text: str) -> tuple[tuple, str]:
    """(term_to_state(parse(text)), print_term(parse(text))), and their
    errors, read from the text with no term built: the layers' callbacks
    and the printer's, paired."""
    try:
        layers, (printed, _) = read(
            text,
            lambda name, label: (_atom_layers(name, label), _print_gen(name, label)),
            lambda f, g: (_compose_layers(f[0], g[0]), _print_compose(f[1], g[1])),
            lambda l, r: (_tensor_layers(l[0], r[0]), _print_tensor(l[1], r[1])),
        )
    except ArityMismatch:  # a ParseError anywhere comes first, else the mismatch with its node
        term_to_state(parse(text))
        raise
    return _state(layers), printed


def _state(value) -> tuple:
    """The state of a whole term from its fold or read value."""
    base, out = value[2], [value[0]]
    for off, gen, label in value[3]:
        out += (off + base, gen, label)
    return tuple(out)


# The layers: a subterm's value is (dom, cod, base, layers), its layers
# bottom-up as (offset - base, code, label) triples. The shorter side of a
# join is rebased onto the longer side's base, so a deep or wide term is
# flattened without re-offsetting its long side at every level.

def _atom_layers(name: str, label: str | None):
    if name == "id":
        return 1, 1, 0, []
    code = GEN_CODES[name]
    return GEN_DOM[code], GEN_COD[code], 0, [(0, code, label or "")]


def _compose_layers(f, g):
    return _compose_type(f, g) + _join(g, f, 0)


def _tensor_layers(l, r):
    return (l[0] + r[0], l[1] + r[1]) + _join(l, r, l[1])


def _join(first, second, shift: int):
    """(base, layers) of first's layers then second's raised by shift."""
    base1, layers1 = first[2], first[3]
    base2, layers2 = second[2] + shift, second[3]
    if len(layers1) >= len(layers2):
        if layers2:
            layers1 += _rebase(layers2, base2 - base1)
        return base1, layers1
    layers2[:0] = _rebase(layers1, base1 - base2)
    return base2, layers2


def _rebase(layers: list, by: int) -> list:
    return [(off + by, gen, label) for off, gen, label in layers] if by else layers


def state_widths(state: tuple) -> list[int]:
    """Wire counts at each level: widths[i] = width below layer i."""
    w = state[0]
    widths = [w]
    for i in range(1, len(state), 3):
        gen = state[i + 1]
        w += GEN_COD[gen] - GEN_DOM[gen]
        widths.append(w)
    return widths


def pieces(state: tuple) -> tuple:
    """The connected pieces of a state's diagram, numbered in the order
    they start: (bottom, layers, cod, ins, outs), the piece of each bottom
    wire and of each layer, the number of top wires, and each piece's
    bottom and top wire positions, all tuples. One pass keeps a union-find
    over the pieces on the wires: bottom wires and births start pieces,
    `m` unites two, and any other box stays on its left wire's."""
    dom = state[0]
    parent = list(range(dom))  # parent[x] <= x, so a root is its set's least
    wires, at = list(range(dom)), []  # at: the node each layer sits on
    for off, gen in zip(state[1::3], state[2::3]):
        if gen == UNIT or gen == PU:
            x = len(parent)
            parent.append(x)
            wires.insert(off, x)
        else:
            x = wires[off]
            if gen == M:
                a, b = _root(parent, x), _root(parent, wires.pop(off + 1))
                if a < b:
                    parent[b] = a
                else:
                    parent[a] = b
            elif gen == COMUL:
                wires.insert(off, x)
            elif gen == TR:
                del wires[off]
            elif gen == SWAP:
                wires[off], wires[off + 1] = wires[off + 1], x
        at.append(x)
    piece, n = [], 0
    for x, up in enumerate(parent):  # up < x, or x is a root
        piece.append(n if up == x else piece[up])
        n += up == x
    bottom, top = tuple(piece[:dom]), [piece[x] for x in wires]
    layers = tuple([piece[x] for x in at])
    return bottom, layers, len(top), _ports(n, bottom), _ports(n, top)


def _root(parent: list, x: int) -> int:
    """The root of x in a union-find kept as a list of parents."""
    while parent[x] != x:
        parent[x] = x = parent[parent[x]]  # halve the path
    return x


def _ports(n: int, ends) -> tuple:
    """The wire positions of each of n pieces, given the piece of each wire."""
    ports = [[] for _ in range(n)]
    for i, p in enumerate(ends):
        ports[p].append(i)
    return tuple(map(tuple, ports))


def state_to_term(state: tuple) -> Term:
    """Render a state as a term: a composition of whiskered slices, which
    share their identity runs (`id_n`) and unlabelled boxes."""
    if state == (0,):
        raise ValueError("the empty diagram has no term")
    widths = state_widths(state)
    layers = []
    for i, (off, gen, lab) in enumerate(zip(state[1::3], state[2::3], state[3::3])):
        box = atom(GEN_NAMES[gen], lab or None)
        layers.append(whisker(box, off, widths[i] - off - GEN_DOM[gen]))
    return stack(layers, state[0])


def print_state(state: tuple) -> str:
    """print_term(state_to_term(state)), written straight from the layers.

    Each slice prints as its box between runs of "id"; a left run of two
    or more is parenthesized, as the printer does for a left tensor factor
    that is not a generator. `stack_text` joins the slices.
    """
    widths = state_widths(state)
    slices = []
    for i, (off, gen, lab) in enumerate(zip(state[1::3], state[2::3], state[3::3])):
        text = _print_gen(GEN_NAMES[gen], lab or None)[0]
        right = widths[i] - off - GEN_DOM[gen]
        if right > 0:
            text = " * ".join([text] + ["id"] * right)
        if off == 1:
            text = "id * " + text
        elif off > 1:
            text = f"({' * '.join(['id'] * off)}) * {text}"
        slices.append([text])
    return stack_text(slices, state[0])


def diagram_equal(a: Term, b: Term) -> bool:
    """Equality modulo the structural congruence (not the full invariant)."""
    from cob3.kernel import nf

    return nf(term_to_state(a)) == nf(term_to_state(b))
