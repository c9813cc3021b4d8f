import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3.layers import term_to_state
from cob3.terms import (
    ArityMismatch,
    Compose,
    Gen,
    ParseError,
    Tensor,
    TermTypeError,
    fold,
    id_n,
    parse,
    permutation_term,
    print_term,
    random_term,
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


def test_parse_rejects_junk():
    for bad in ["m .", "m . (", "pe()", "pe(p", "foo", "id * * id", ""]:
        with pytest.raises(ParseError):
            parse(bad)


@pytest.mark.parametrize(
    "text, message, line, column",
    [
        ("m .\n  $", "unexpected character '$'", 2, 3),
        ("m .\n\n (id *\n  )", "expected a term, got ')'", 4, 3),
        ("(m .\n m", "unexpected end of input", 2, 3),
        ("pe(P)\n pe(Q)", "trailing input starting at 'pe'", 2, 2),
    ],
)
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
    assert typecheck(ident) == (3, 3)


def test_whisker_pads_right_first():
    assert whisker(Gen("m"), 0, 0) == Gen("m")
    assert whisker(Gen("m"), 1, 2) == Tensor(Gen("id"), Tensor(Gen("m"), id_n(2)))
    assert typecheck(whisker(Gen("comul"), 2, 1)) == (4, 5)


def test_fold_visits_children_in_printed_order():
    seen = []
    fold(
        parse("(pe(A) * pe(B)) . pe(C) . pe(D)"),
        lambda g: seen.append(g.label),
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


def test_random_terms_are_well_typed():
    rng = random.Random(1)
    arities = set()
    for _ in range(300):
        t = random_term(rng, max_gens=12)
        arities.add(typecheck(t))
        assert print_term(parse(print_term(t))) == print_term(t)
    assert len(arities) > 10
