"""Term language for spherical bordisms.

A term denotes a bordism between ordered disjoint unions of 2-spheres. The
generator alphabet:

    id          1 -> 1   product cylinder
    m           2 -> 1   merge (three-holed sphere, two inputs)
    unit        0 -> 1   birth (ball bounding an output sphere)
    comul       1 -> 2   split (three-holed sphere, two outputs)
    tr          1 -> 0   death (ball bounding an input sphere)
    swap        2 -> 2   wire crossing of two cylinders
    pe(LABEL)   1 -> 1   connect-sum with the prime manifold named LABEL
    pu(LABEL)   0 -> 1   punctured prime: pe(LABEL) with the input filled in

Terms combine by "f . g" (f after g) and "f * g" (side by side, left factor
first). "*" binds tighter than "."; both are right-associative and
whitespace-insensitive; parentheses override. Prime labels are nonempty words
over [A-Za-z0-9_#+-].
"""

from __future__ import annotations

import re
from dataclasses import dataclass

__all__ = [
    "ArityMismatch",
    "Compose",
    "Gen",
    "ParseError",
    "Tensor",
    "Term",
    "TermTypeError",
    "GENERATOR_ARITIES",
    "atom",
    "fold",
    "id_n",
    "parse",
    "permutation_term",
    "print_term",
    "random_term",
    "read",
    "routing",
    "stack",
    "stack_text",
    "typecheck",
    "whisker",
]


class TermTypeError(TypeError):
    """A composite fails to type-check; the message names the offending node."""


class ArityMismatch(TermTypeError):
    """Two interfaces that must have equal width do not."""


class ParseError(ValueError):
    """Malformed term text; carries the 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


#: name -> (inputs, outputs) for every generator.
GENERATOR_ARITIES: dict[str, tuple[int, int]] = {
    "id": (1, 1),
    "m": (2, 1),
    "unit": (0, 1),
    "comul": (1, 2),
    "tr": (1, 0),
    "swap": (2, 2),
    "pe": (1, 1),
    "pu": (0, 1),
}

_LABELLED = ("pe", "pu")
_LABEL_RE = re.compile(r"[A-Za-z0-9_#+-]+\Z")
# Rule patterns may carry label metavariables written ?p, ?q, ... These are
# constructible (rule tables build them) but deliberately unparseable, so
# user-entered terms can never contain one.
_METAVAR_RE = re.compile(r"\?[a-z]\w*\Z")


class Term:
    """Base class for term trees; subclasses are frozen dataclasses.

    Composites compare, hash and print their repr here, without recursion,
    so a term of any depth can be compared and used as a key.
    """

    __slots__ = ()

    def __str__(self) -> str:
        return print_term(self)

    def __repr__(self) -> str:
        return f"parse({print_term(self)!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Term):
            return NotImplemented
        stack = [(self, other)]
        while stack:
            a, b = stack.pop()
            kind = type(a)
            if kind is not type(b):
                return False
            if kind is Compose:
                stack += ((a.g, b.g), (a.f, b.f))
            elif kind is Tensor:
                stack += ((a.r, b.r), (a.l, b.l))
            elif a != b:
                return False
        return True

    def __hash__(self) -> int:
        return fold(
            self,
            lambda name, label: hash((name, label)),  # Gen's own hash
            lambda f, g: hash((".", f, g)),
            lambda l, r: hash(("*", l, r)),
        )


@dataclass(frozen=True)
class Gen(Term):
    name: str
    label: str | None = None

    def __post_init__(self):
        if self.name not in GENERATOR_ARITIES:
            raise ValueError(f"unknown generator {self.name!r}")
        if self.name in _LABELLED:
            if not self.label or not (
                _LABEL_RE.match(self.label) or _METAVAR_RE.match(self.label)
            ):
                raise ValueError(f"{self.name} needs a label over [A-Za-z0-9_#+-]")
        elif self.label is not None:
            raise ValueError(f"{self.name} does not take a label")


@dataclass(frozen=True, eq=False, repr=False)
class Compose(Term):
    """f . g: first g, then f. Child 0 is f, child 1 is g."""

    f: Term
    g: Term


@dataclass(frozen=True, eq=False, repr=False)
class Tensor(Term):
    """l * r side by side; l's wires come first. Child 0 is l, child 1 is r."""

    l: Term
    r: Term


_JOIN = object()  # stack marker: both children of the node below are done


def fold(term: Term, gen, compose, tensor):
    """Combine a term bottom-up without recursion.

    gen(name, label) gives a generator's value (label None if it has none);
    compose(f, g) and tensor(l, r) combine the values of a composite's
    children. These are `read`'s callbacks, so one triple gives a meaning
    to both trees and text. Children are visited in printed order (f before
    g, l before r), so the first combine that raises is the one a recursive
    post-order walk would reach first; an ArityMismatch it raises is raised
    again with the printed node appended.
    """
    stack = [term]
    vals: list = []
    push, pop, out = stack.extend, stack.pop, vals.append
    while stack:
        node = pop()
        kind = type(node)
        if kind is Gen:
            out(gen(node.name, node.label))
        elif kind is Compose:
            push((node, _JOIN, node.g, node.f))
        elif kind is Tensor:
            push((node, _JOIN, node.r, node.l))
        elif node is _JOIN:
            node = pop()
            second = vals.pop()
            first = vals.pop()
            try:
                out((compose if type(node) is Compose else tensor)(first, second))
            except ArityMismatch as err:
                raise ArityMismatch(f"{err} in {print_term(node)!r}") from None
        else:
            raise TermTypeError(f"not a term: {node!r}")
    return vals[0]


def _kept(term: Term, key: str, compute):
    """compute(), kept on the term outside its fields: terms are frozen, so
    each object computes it once, and ==, hash, repr and printing never see
    it. A value that raises is not kept."""
    memo = getattr(term, "__dict__", {})
    if key not in memo:
        memo[key] = compute()
    return memo[key]


# Each meaning of a term is one (gen, compose, tensor) triple, for `fold`
# on a tree and `read` on text. The types: (inputs, outputs).

def _gen_type(name: str, label: str | None) -> tuple[int, int]:
    return GENERATOR_ARITIES[name]


def _compose_type(f, g) -> tuple[int, int]:
    """(inputs, outputs) of f . g, given those of f and g (read from [0], [1])."""
    if f[0] != g[1]:
        raise ArityMismatch(
            f"cannot compose: left factor wants {f[0]} inputs but right "
            f"factor yields {g[1]} outputs"
        )
    return (g[0], f[1])


def _tensor_type(l, r) -> tuple[int, int]:
    return (l[0] + r[0], l[1] + r[1])


def typecheck(term: Term) -> tuple[int, int]:
    """Return (inputs, outputs) or raise TermTypeError naming the bad node."""
    return fold(term, _gen_type, _compose_type, _tensor_type)


# The text: (text, class of the node it prints), so that a parent adds the
# parentheses its child needs.

def _print_gen(name: str, label: str | None) -> tuple[str, type]:
    return (name if label is None else f"{name}({label})"), Gen


def _print_compose(f, g) -> tuple[str, type]:
    left = f"({f[0]})" if f[1] is Compose else f[0]
    return f"{left} . {g[0]}", Compose


def _print_tensor(l, r) -> tuple[str, type]:
    left = l[0] if l[1] is Gen else f"({l[0]})"
    right = f"({r[0]})" if r[1] is Compose else r[0]
    return f"{left} * {right}", Tensor


def print_term(term: Term) -> str:
    """Render with minimal parentheses; parse(print_term(t)) == t."""
    return fold(term, _print_gen, _print_compose, _print_tensor)[0]


# ---------------------------------------------------------------------------
# parsing

# Term text is tokens and whitespace; any other character starts no token.
_TOKEN_RE = re.compile(r"[A-Za-z0-9_#+-]+|[.*()]")
_BAD_RE = re.compile(r"[^A-Za-z0-9_#+\-.*()\s]")


def _error(text: str, message: str, pos: int) -> ParseError:
    """A ParseError at text offset pos, with its 1-based line and column."""
    line = text.count("\n", 0, pos) + 1
    return ParseError(message, line, pos - text.rfind("\n", 0, pos))


def parse(text: str) -> Term:
    """Parse term text; raise ParseError with line/column on malformed input."""
    return read(text, atom, Compose, Tensor)


def read(text: str, gen, compose, tensor):
    """Reduce term text through `fold`'s callbacks, called in the order
    fold calls them on parse(text); an ArityMismatch is raised as the
    compose callback raises it, without the node. The stack holds open "("
    and the left operands of pending "." and "*", so nesting costs no
    recursion."""
    bad = _BAD_RE.search(text)
    if bad:
        raise _error(text, f"unexpected character {bad.group()!r}", bad.start())
    words: list = _TOKEN_RE.findall(text)
    if not words:
        raise ParseError("empty input", 1, 1)
    words.append(None)  # the end of the input

    def fail(message: str, k: int):  # at the k-th word, or at the end
        if words[k] is None:
            raise _error(text, "unexpected end of input", len(text))
        raise _error(text, message, [m.start() for m in _TOKEN_RE.finditer(text)][k])

    i = 0
    stack: list = []  # "(" or (operator, left operand)
    while True:
        word = words[i]
        i += 1
        if word == "(":
            stack.append("(")
            continue
        if word in _LABELLED:
            if words[i] != "(":
                fail(f"{word} needs a parenthesized label", i)
            label = words[i + 1]
            if not (label and _LABEL_RE.match(label)):
                fail(f"bad prime label {label!r}", i + 1)
            if words[i + 2] != ")":
                fail(f"expected ')', got {words[i + 2]!r}", i + 2)
            i += 3
            term = gen(word, label)
        elif word in GENERATOR_ARITIES:
            term = gen(word, None)
        elif word in (".", "*", ")"):
            fail(f"expected a term, got {word!r}", i - 1)
        else:
            fail(f"unknown generator {word!r}", i - 1)
        # term is a complete atom: reduce until an operator wants a right
        # operand or the input ends.
        while True:
            nxt = words[i]
            if nxt == "*":
                i += 1
                stack.append(("*", term))
                break
            while stack and stack[-1][0] == "*":
                term = tensor(stack.pop()[1], term)
            if nxt == ".":
                i += 1
                stack.append((".", term))
                break
            while stack and stack[-1][0] == ".":
                term = compose(stack.pop()[1], term)
            if not stack:
                if nxt is not None:
                    fail(f"trailing input starting at {nxt!r}", i)
                return term
            if nxt != ")":
                fail(f"expected ')', got {nxt!r}", i)
            i += 1
            stack.pop()  # the matching "(": the group is an atom


# ---------------------------------------------------------------------------
# builders

# Terms are frozen, so the builders share nodes: one of each unlabelled
# generator, and each identity run id_n(k) as _IDS[k].
_ATOMS = {name: Gen(name) for name in GENERATOR_ARITIES if name not in _LABELLED}
_IDS = {1: _ATOMS["id"]}


def atom(name: str, label: str | None = None) -> Gen:
    """Gen(name, label), shared when it has no label."""
    return _ATOMS[name] if label is None and name in _ATOMS else Gen(name, label)


def id_n(n: int) -> Term:
    """n-fold tensor of id (right-nested); n must be >= 1."""
    if n < 1:
        raise ValueError("id_n needs n >= 1; width-0 interfaces have no term")
    for k in range(len(_IDS) + 1, n + 1):  # keys stay 1..len, even across threads
        _IDS.setdefault(k, Tensor(_IDS[1], _IDS[k - 1]))
    return _IDS[n]


def whisker(box: Term, left: int, right: int) -> Term:
    """id^left * box * id^right, padded on the right first."""
    if right > 0:
        box = Tensor(box, id_n(right))
    if left > 0:
        box = Tensor(id_n(left), box)
    return box


def stack(layers: list[Term], width: int) -> Term:
    """layers composed bottom-up, layers[0] applied first; id_n(width) if none."""
    if not layers:
        return id_n(width)
    term = layers[0]
    for layer in layers[1:]:
        term = Compose(layer, term)
    return term


def routing(perm) -> list[list[str]]:
    """The boxes of a swap/id network routing input i to output perm[i], as
    slices bottom first, by odd-even transposition sort (Knuth, TAOCP vol. 3,
    5.3.4): each slice swaps every out-of-order adjacent pair of its parity.
    Slices that swap nothing are left out, so n wires take at most n slices."""
    cur = list(perm)
    n = len(cur)
    if sorted(cur) != list(range(n)):
        raise ValueError(f"not a permutation of 0..{n - 1}: {cur}")
    slices, parity, idle = [], 0, 0
    while idle < 2:  # two idle parities in a row: no pair is out of order
        swaps = [i for i in range(parity, n - 1, 2) if cur[i] > cur[i + 1]]
        boxes, done = [], 0
        for i in swaps:
            cur[i], cur[i + 1] = cur[i + 1], cur[i]
            boxes += ["id"] * (i - done) + ["swap"]
            done = i + 2
        if swaps:
            slices.append(boxes + ["id"] * (n - done))
        idle = 0 if swaps else idle + 1
        parity ^= 1
    return slices


def stack_text(slices, width: int) -> str:
    """The text of slices composed bottom-up, slices[0] applied first, each
    the texts of its boxes left to right; the identity on width wires if
    there are none. When each slice is text as print_term prints it, so is
    the result."""
    if not slices:
        if width < 1:
            raise ValueError("the empty diagram has no term")
        return " * ".join(["id"] * width)
    return " . ".join(" * ".join(boxes) for boxes in reversed(slices))


def permutation_term(perm) -> Term:
    """A term over swap/id routing input i to output perm[i]: the parse of
    the `routing` slices; the identity permutation yields n wires of id."""
    perm = list(perm)
    return parse(stack_text(routing(perm), len(perm)))


def random_term(rng, max_gens: int = 12, labels=("P", "Q")) -> Term:
    """A random well-typed term with at most max_gens generator leaves.

    Grows a seed generator by tensoring fresh generators on either side and
    by composing whiskered generator layers onto the input or output
    interface, so all shapes (including 0-input and 0-output interfaces)
    occur. Deterministic for a given rng.
    """
    labels = tuple(labels) or ("P",)

    def fresh() -> tuple[Term, int, int]:
        name = rng.choice(("id", "m", "unit", "comul", "tr", "swap", "pe", "pu"))
        gen = Gen(name, rng.choice(labels)) if name in _LABELLED else Gen(name)
        dom, cod = GENERATOR_ARITIES[name]
        return gen, dom, cod

    def layer_for(width: int, attach_out: bool):
        """A one-generator layer composable on a width-wide interface."""
        options = []
        for name, (dom, cod) in GENERATOR_ARITIES.items():
            need = dom if attach_out else cod
            if need <= width:
                options.append((name, dom, cod, need))
        if not options:
            return None
        name, dom, cod, need = rng.choice(options)
        gen = Gen(name, rng.choice(labels)) if name in _LABELLED else Gen(name)
        a = rng.randint(0, width - need)
        layer = whisker(gen, a, width - need - a)
        if attach_out:
            return layer, width - dom + cod
        return layer, width - cod + dom

    term, dom, cod = fresh()
    gens = 1
    while gens < max_gens and rng.random() < 0.82:
        move = rng.random()
        if move < 0.35:
            extra, edom, ecod = fresh()
            if rng.random() < 0.5:
                term = Tensor(extra, term)
            else:
                term = Tensor(term, extra)
            dom += edom
            cod += ecod
            gens += 1
        elif move < 0.7:
            built = layer_for(cod, attach_out=True)
            if built is None:
                continue
            layer, cod = built
            term = Compose(layer, term)
            gens += 1
        else:
            built = layer_for(dom, attach_out=False)
            if built is None:
                continue
            layer, dom = built
            term = Compose(term, layer)
            gens += 1
    return term

