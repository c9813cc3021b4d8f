"""Evaluation of diagrams in a commutative Frobenius algebra.

A 2D TQFT is a symmetric monoidal functor, so a diagram's map is the tensor
product of its connected pieces' maps, placed at their boundary wires by
`_placed` with no range check or zero filter, which cannot fail there (see
`_placed`). Each piece is placed through a table the algebra keeps, keyed
by its ports and the two interface widths, with one lookup per entry. Maps
are keyed as `LinearMap.nums` is, by one flat int row * cols + col.
`eval_term` walks each piece of `layers.pieces` on its own: an int
accumulator over the piece's wires starts from the identity on its
inputs (the scalar 1 for a piece born from units), each layer applies the
algebra's generator map at its offset among the piece's wires, a `swap`
between two pieces only reorders them, and zeros left by cancelling sums
are dropped. `eval_semantic` reads each glued component's map from the
algebra's kept `surface_map`s. The two agree on every well-typed term; that
agreement is the whole point of the invariant. Past `max_entries`,
`eval_term` raises `MapTooLarge` before any arithmetic. A term's state,
its pieces and its cospan are each kept on the term (`terms._kept`), so a
term object is flattened, swept into pieces and into its cospan once,
however many algebras evaluate it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Tuple

from cob3.cospan import LabelledCospan
from cob3.frobenius import FrobeniusAlgebra, character_on_block, idempotent_decomposition
from cob3.layers import GEN_COD, GEN_DOM, GEN_NAMES, SWAP, pieces, term_to_state
from cob3.linmap import LinearMap, scalar_to_fraction
from cob3.terms import _LABEL_RE, _kept, fold, parse

__all__ = [
    "MapTooLarge",
    "eval_term",
    "eval_with_endo_override",
    "eval_semantic",
    "parse_manifold",
    "closed_invariant",
    "closed_invariant_by_characters",
]


class MapTooLarge(ValueError):
    """A map may have more entries than the caller allows."""


def _override_map(d: int, label: str, m) -> LinearMap:
    """The pe(label) map given by a raw d x d matrix."""
    if len(m) != d or any(len(row) != d for row in m):
        raise ValueError(f"override for {label!r} is not {d}x{d}")
    r = range(d)
    mat = [[scalar_to_fraction(x) for x in row] for row in m]
    return LinearMap(1, 1, d, {(k, i): mat[k][i] for k in r for i in r})


def eval_term(
    term,
    alg: FrobeniusAlgebra,
    overrides: Optional[dict] = None,
    max_entries: Optional[int] = None,
) -> LinearMap:
    """The linear map of a term (parse strings on the fly).

    The term is typechecked first, so an ill-typed term raises what
    `typecheck` raises before any generator is looked up; the first unknown
    label in printed order comes next. overrides[label], when given,
    replaces the matrix of pe(label). With max_entries set, a term whose
    output or one of whose piece accumulators may have more entries (see
    `_check_size`) raises MapTooLarge before any arithmetic.
    """
    if isinstance(term, str):
        term = parse(term)
    state = term_to_state(term)
    d, codes, labels = alg.dim, state[2::3], state[3::3]

    def gen(name, label):
        if name == "pe" and overrides and label in overrides:
            return _override_map(d, label, overrides[label])
        return alg.generator(name, label)

    try:
        maps = {k: gen(GEN_NAMES[k[0]], k[1] or None) for k in set(zip(codes, labels))}
    except (KeyError, ValueError, TypeError):  # an unknown label or a bad override
        # the layers meet labels bottom-up: raise for the first in printed order
        fold(term, gen, _skip, _skip)
        raise
    bottom, layers, cod, ins, outs = _kept(term, "_pieces", lambda: pieces(state))
    if max_entries is not None:
        _check_size(d, layers, codes, ins, outs, max_entries)
    widths = [len(ports) for ports in ins]
    ncols = [d**w for w in widths]  # an accumulator's key is row * ncols + col
    accs = [{i * (c + 1): 1 for i in range(c)} for c in ncols]
    dens = [1] * len(ins)
    wires = list(bottom)  # the piece of each current wire
    for p, off, g, lab in zip(layers, state[1::3], codes, labels):
        if g == SWAP and wires[off] != wires[off + 1]:
            wires[off], wires[off + 1] = wires[off + 1], wires[off]
            continue
        # the generator's block in key = hi*span + mid*lo + rest goes to each
        # image r of mid, so the key becomes hi*step + r*lo + rest; lo counts
        # the wires right of the box and the column together
        a, b, m, out = GEN_DOM[g], GEN_COD[g], maps[g, lab], {}
        lo = d ** (widths[p] - wires[:off].count(p) - a) * ncols[p]
        span, step, columns = d**a * lo, d**b * lo, m.columns
        for key, u in accs[p].items():
            hi, rest = divmod(key, span)
            mid, rest = divmod(rest, lo)
            for r, v in columns.get(mid, ()):
                key = hi * step + r * lo + rest
                out[key] = out.get(key, 0) + u * v
        accs[p] = out
        dens[p] *= m.den
        widths[p] += b - a
        wires[off : off + a] = [p] * b
    accs = [acc if all(acc.values()) else {k: v for k, v in acc.items() if v} for acc in accs]
    return _placed(alg, state[0], cod, zip(ins, outs, dens, accs))


def _check_size(d, pieces, codes, ins, outs, max_entries) -> None:
    """Raise MapTooLarge unless the output, at most d per bare wire times
    d**(inputs + outputs) per other piece, and each piece's widest
    accumulator, d**(inputs + widest cut), fit in max_entries."""
    widths, busy, e = [len(ports) for ports in ins], set(), 0
    for p, g in zip(pieces, codes):
        if g != SWAP:
            busy.add(p)
        widths[p] += GEN_COD[g] - GEN_DOM[g]
        e = max(e, len(ins[p]) + widths[p])
    e = max(e, sum(len(ins[p]) + len(outs[p]) if p in busy else 1 for p in range(len(ins))))
    if d**e > max_entries:
        raise MapTooLarge(f"the map may take {d}**{e} entries, over the limit of {max_entries}")


def _skip(*_):
    return None


def eval_with_endo_override(term, alg: FrobeniusAlgebra, overrides: dict) -> LinearMap:
    """eval_term with selected prime endomorphisms replaced by raw matrices.

    Overrides apply to the endomorphism generator only; labelled units keep
    the algebra's own elements.
    """
    return eval_term(term, alg, overrides)


class _Places(dict):
    """Where the entries of a piece go in the placed map, for one layout
    (ins, outs, dom, cod): its local flat key, row * d**len(ins) + col, to
    its flat output key. The piece's ports are digits of the output key
    read as one (cod + dom)-wire interface, outputs first, so a key's place
    is the sum of its digits' place values. Each is worked out on first use
    and kept, so a table holds only the keys that some map has used."""

    __slots__ = ("d", "steps")

    def __init__(self, d, ins, outs, dom, cod):
        super().__init__()
        # place values of the local key's digits, least significant first
        self.d, self.steps = d, [d ** (dom - 1 - w) for w in reversed(ins)]
        self.steps += [d ** (dom + cod - 1 - w) for w in reversed(outs)]

    def __missing__(self, key):
        out, rest, d = 0, key, self.d
        for step in self.steps:
            rest, t = divmod(rest, d)
            out += t * step
        self[key] = out
        return out


def _placed(alg: FrobeniusAlgebra, dom: int, cod: int, pieces) -> LinearMap:
    """The product of pieces' maps, given as (in_ports, out_ports, den, nums)
    with no zero in nums. Closed pieces multiply into one scalar. The others
    own disjoint boundary wires: each is placed through a table the algebra
    keeps, keyed by its ports and the two interface widths (`_Places`), one
    lookup per entry, so the keys of different pieces add, and the pieces
    are multiplied in smallest first. So entries are nonzero and at distinct
    in-range keys, and `_reduced` checks neither."""
    den, scalar, placed = 1, 1, []
    for ins, outs, pden, nums in pieces:
        den *= pden
        if ins or outs:
            placed.append((ins, outs, nums))
        else:
            scalar *= nums.get(0, 0)
    d = alg.dim
    if not scalar:
        return LinearMap._reduced(dom, cod, d, 1, {})
    acc = {0: scalar}
    for i, (ins, outs, nums) in enumerate(sorted(placed, key=lambda piece: len(piece[2]))):
        layout = ins, outs, dom, cod
        place = alg._places.get(layout)
        if place is None:
            place = alg._places[layout] = _Places(d, *layout)
        if i == 0:  # the first piece is placed straight from the scalar
            acc = {place[k]: scalar * v for k, v in nums.items()}
            continue
        moved = [(place[k], v) for k, v in nums.items()]
        acc = {g + m: u * v for g, u in acc.items() for m, v in moved}
    return LinearMap._reduced(dom, cod, d, den, acc)


def eval_semantic(cospan: LabelledCospan, alg: FrobeniusAlgebra) -> LinearMap:
    """Evaluate a glued surface componentwise and wire up its boundary."""
    pieces = []
    for c in cospan.components:
        m = alg.surface_map(len(c.in_ports), len(c.out_ports), c.genus, c.primes)
        pieces.append((c.in_ports, c.out_ports, m.den, m.nums))
    return _placed(alg, cospan.dom, cospan.cod, pieces)


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
    return alg.trace_of(alg.surface_element(genus, primes))


def closed_invariant_by_characters(alg: FrobeniusAlgebra, manifold: str) -> Fraction:
    """Character-sum form: sum over blocks of
    trace(idem) * prod chi(1_p) * chi(handle)^genus."""
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
