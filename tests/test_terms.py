import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import eval_term, hadamard_algebra, layers, permutation_map, terms
from cob3.layers import read_state, term_to_state
from cob3.terms import (
    ArityMismatch,
    Compose,
    Gen,
    ParseError,
    Tensor,
    TermTypeError,
    atom,
    fold,
    id_n,
    parse,
    permutation_term,
    print_term,
    random_term,
    read,
    routing,
    typecheck,
    whisker,
)


def test_generator_arities():
    assert typecheck(Gen("m")) == (2, 1)
    assert typecheck(Gen("unit")) == (0, 1)
    assert typecheck(Gen("comul")) == (1, 2)
    assert typecheck(Gen("tr")) == (1, 0)
    assert typecheck(Gen("swap")) == (2, 2)
    assert typecheck(Gen("pe", "P")) == (1, 1)
    assert typecheck(Gen("pu", "P")) == (0, 1)


def test_compose_and_tensor_arities():
    t = parse("m . (id * m)")
    assert typecheck(t) == (3, 1)
    t = parse("(comul * comul) . comul")
    assert typecheck(t) == (1, 4)


def test_id_n():
    with pytest.raises(ValueError):
        id_n(0)
    assert typecheck(id_n(3)) == (3, 3)
    assert print_term(parse("id * id * id")) == print_term(id_n(3))


def test_ill_typed_compose_rejected():
    with pytest.raises(ArityMismatch):
        typecheck(parse("m . comul . comul"))


def test_parse_print_round_trip_samples():
    texts = [
        "m",
        "pe(Alpha2) . pe(B)",
        "m . (pe(P) * id)",
        "(tr * id) . swap . (unit * id)",
        "comul . m . (pu(Q) * pe(P))",
    ]
    for text in texts:
        t = parse(text)
        assert print_term(parse(print_term(t))) == print_term(t)


JUNK = ["m .", "m . (", "pe()", "pe(p", "foo", "id * * id", ""]


def test_parse_rejects_junk():
    for bad in JUNK:
        with pytest.raises(ParseError):
            parse(bad)


ERROR_POSITIONS = [
    ("m .\n  $", "unexpected character '$'", 2, 3),
    ("m .\n\n (id *\n  )", "expected a term, got ')'", 4, 3),
    ("(m .\n m", "unexpected end of input", 2, 3),
    ("pe(P)\n pe(Q)", "trailing input starting at 'pe'", 2, 2),
]


@pytest.mark.parametrize("text, message, line, column", ERROR_POSITIONS)
def test_parse_error_position(text, message, line, column):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.column) == (line, column)
    assert str(err.value) == f"{message} (line {line}, column {column})"


def test_labels_need_generator_support():
    with pytest.raises(ParseError):
        parse("m(P)")
    with pytest.raises(ParseError):
        parse("pe")  # label is mandatory


def test_metavariables_not_parseable_but_constructible():
    # rule tables build pe(?p) programmatically; the surface syntax refuses it
    g = Gen("pe", "?p")
    assert g.label == "?p"
    with pytest.raises(ParseError):
        parse("pe(?p)")


def test_permutation_term():
    t = permutation_term((2, 0, 1))
    assert typecheck(t) == (3, 3)
    ident = permutation_term((0, 1, 2))
    assert print_term(ident) == "id * id * id"
    with pytest.raises(ValueError, match="not a permutation"):
        permutation_term((0, 2))
    with pytest.raises(ValueError, match="no term"):
        permutation_term(())


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10).flatmap(lambda n: st.permutations(range(n))))
def test_routing_is_an_odd_even_transposition_network(perm):
    slices = routing(perm)
    assert len(slices) <= len(perm)
    for boxes in slices:  # each swaps wires (i, i + 1) for i of one parity
        at, parities = 0, set()
        for box in boxes:
            if box == "swap":
                parities.add(at % 2)
            at += 2 if box == "swap" else 1
        assert at == len(perm) and len(parities) == 1
    # permutation_map(d, q) puts input q[j] on output j, so q is perm's inverse
    inverse = sorted(range(len(perm)), key=perm.__getitem__)
    assert eval_term(permutation_term(perm), hadamard_algebra()) == permutation_map(2, inverse)


def test_whisker_pads_right_first():
    assert whisker(Gen("m"), 0, 0) == Gen("m")
    assert whisker(Gen("m"), 1, 2) == Tensor(Gen("id"), Tensor(Gen("m"), id_n(2)))
    assert typecheck(whisker(Gen("comul"), 2, 1)) == (4, 5)


def test_fold_visits_children_in_printed_order():
    seen = []
    fold(
        parse("(pe(A) * pe(B)) . pe(C) . pe(D)"),
        lambda name, label: seen.append(label),
        lambda *_: None,
        lambda *_: None,
    )
    assert seen == ["A", "B", "C", "D"]
    with pytest.raises(TermTypeError, match="not a term"):
        typecheck(Compose(Gen("m"), "m"))


def test_first_mismatch_in_printed_order_is_reported():
    # both factors are ill-typed; the left one is named, as before
    t = parse("(m . m) . (comul . comul)")
    with pytest.raises(ArityMismatch, match=r"'m \. m'"):
        typecheck(t)
    with pytest.raises(ArityMismatch, match=r"'m \. m'"):
        term_to_state(t)


_LEAVES = st.sampled_from(
    [Gen(n) for n in ("id", "m", "unit", "comul", "tr", "swap")]
) | st.builds(Gen, st.sampled_from(["pe", "pu"]), st.sampled_from(["P", "q_2", "#+-"]))
_TREES = st.recursive(
    _LEAVES,
    lambda kids: st.builds(Compose, kids, kids) | st.builds(Tensor, kids, kids),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_TREES, st.sampled_from([" ", "  ", "\n", " \n\t "]))
def test_parse_inverts_print(term, space):
    # any tree, well-typed or not, and any whitespace between tokens
    text = print_term(term)
    assert parse(text) == term
    assert parse(text.replace(" ", space)) == term


# Each meaning of a term in cob3 as fold's and read's callbacks: the types,
# the layers and the text.
TRIPLES = [
    (terms._gen_type, terms._compose_type, terms._tensor_type),
    (layers._atom_layers, layers._compose_layers, layers._tensor_layers),
    (terms._print_gen, terms._print_compose, terms._print_tensor),
]


@settings(max_examples=300, deadline=None)
@given(_TREES)
def test_each_meaning_is_one_triple_for_trees_and_text(term):
    # the types, the layers and the text each read the same from a tree
    # and from its printed text; read's mismatch lacks only fold's node
    text = print_term(term)
    for triple in TRIPLES:
        try:
            want = fold(term, *triple)
        except ArityMismatch as err:
            with pytest.raises(ArityMismatch) as got:
                read(text, *triple)
            assert str(err).startswith(f"{got.value} in '")
        else:
            assert read(text, *triple) == want
    # and the three ways to a state name the same ill-typed node
    try:
        typecheck(term)
    except ArityMismatch as err:
        for call in (term_to_state, lambda t: read_state(print_term(t))):
            with pytest.raises(ArityMismatch) as got:
                call(term)
            assert str(got.value) == str(err)


def test_random_terms_are_well_typed():
    rng = random.Random(1)
    arities = set()
    for _ in range(300):
        t = random_term(rng, max_gens=12)
        arities.add(typecheck(t))
        assert print_term(parse(print_term(t))) == print_term(t)
    assert len(arities) > 10


def test_unlabelled_generators_and_identity_runs_are_shared():
    assert atom("m") is atom("m") and atom("m") == Gen("m")
    assert atom("pe", "P") == Gen("pe", "P")
    with pytest.raises(ValueError, match="unknown generator"):
        atom("foo")
    assert id_n(5) is id_n(5) and id_n(5).r is id_n(4)
    assert id_n(7) == parse(" * ".join(["id"] * 7))
    assert permutation_term((1, 0, 2)).l is atom("swap")
    assert parse("m * pe(P)").l is atom("m")  # parse shares them too


def test_identity_runs_stay_right_when_threads_grow_them(monkeypatch):
    monkeypatch.setattr(terms, "_IDS", {1: atom("id")})
    widths = list(range(1, 400))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [
            threading.Thread(target=lambda ws: [id_n(k) for k in ws], args=(ws,))
            for ws in (widths[::-1], widths, widths[::2], widths[::-3]) * 2
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30)
            assert not worker.is_alive()
    finally:
        sys.setswitchinterval(interval)
    for k in widths[1:]:
        assert id_n(k).l is atom("id") and id_n(k).r is id_n(k - 1)


# The reader against parse, term_to_state and print_term: the same state and
# text, or the same error.

def _read_as_parse(text):
    """Check read_state(text) against the three calls it stands for."""
    try:
        term = parse(text)
        want = term_to_state(term), print_term(term)
    except (ParseError, TermTypeError) as err:
        with pytest.raises(type(err)) as got:
            read_state(text)
        assert type(got.value) is type(err) and str(got.value) == str(err)
    else:
        assert read_state(text) == want


def _print_with_parens(term, rng):
    """print_term's text, with redundant parentheses around random subterms."""

    def wrap(text):
        return f"({text})" if rng.random() < 0.3 else text

    def wrapped(make):
        def combine(*args):
            text, kind = make(*args)
            return wrap(text), kind

        return combine

    return fold(term, *map(wrapped, TRIPLES[2]))[0]


@settings(max_examples=300, deadline=None)
@given(
    _TREES,
    st.sampled_from([" ", "  ", "\n", " \n\t "]),
    st.randoms(use_true_random=False),
    st.sampled_from(["", " )", " .", " * m", " $", " (m"]),
)
def test_read_state_is_parse_flatten_and_print(term, space, rng, tail):
    # any tree, well-typed or not; a tail makes the parse fail after the
    # first arity mismatch, and a parse error must still win
    _read_as_parse(print_term(term))
    _read_as_parse(_print_with_parens(term, rng).replace(" ", space) + tail)


def test_read_state_rejects_what_parse_rejects():
    texts = JUNK + [text for text, *_ in ERROR_POSITIONS]
    texts += ["m . unit . id )", "m . unit", "(m . m) . (comul . comul)", "m . m $"]
    for text in texts:
        _read_as_parse(text)
    with pytest.raises(ParseError, match=r"trailing input starting at '\)'"):
        read_state("m . unit . id )")


def test_read_state_of_long_and_deep_text():
    # no Python recursion on the length of a chain or the depth of nesting
    chain = " . ".join(["pe(P)", "m", "comul"] * 1000)
    deep = "(" * 3000 + "pe(P) . id" + ")" * 3000
    left = "(" * 3000 + "pe(P)" + " . pe(Q))" * 3000
    for text in [chain, deep, left, left.replace("pe(P)", "m")]:
        _read_as_parse(text)
    assert read_state(deep) == ((1, 0, 5, "P"), "pe(P) . id")
    with pytest.raises(ArityMismatch):
        read_state("(" * 3000 + "m . m" + ")" * 3000)
