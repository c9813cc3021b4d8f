"""Linear evaluation: term functor, connectivity functor, closed values."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import (
    LinearMap,
    UnknownPrime,
    closed_invariant,
    closed_invariant_by_characters,
    cospan_of_term,
    eval_semantic,
    eval_term,
    eval_with_endo_override,
    hadamard_algebra,
    identity_map,
    parse,
    parse_manifold,
)
from cob3.evaluate import _component_map
from cob3.frobenius import conjugate_algebra, diagonal_algebra
from cob3.terms import ArityMismatch, random_term, typecheck

ALG = hadamard_algebra()  # componentwise plane, P = (2, 3)


def test_generator_maps():
    m = eval_term("m", ALG)
    assert m.apply({1: F(1)}) == {}  # e1 (x) e2 |-> e1*e2 = 0
    assert m.apply({3: F(1)}) == {1: F(1)}  # e2*e2 = e2
    assert eval_term("id", ALG) == identity_map(2, 1)
    assert eval_term("unit", ALG).apply({0: F(1)}) == {0: F(1), 1: F(1)}
    tr = eval_term("tr", ALG)
    assert tr.apply({0: F(1)}) == {0: F(1)}


def test_swap_permutes_tensor_slots():
    sw = eval_term("swap", ALG)
    # slots flatten big-endian: e1 (x) e2 is column 1, e2 (x) e1 is row 2
    assert sw.apply({1: F(1)}) == {2: F(1)}


def test_closed_values():
    assert closed_invariant(ALG, "S3") == 2
    assert closed_invariant(ALG, "P") == 5
    assert closed_invariant(ALG, "P # P") == 13
    assert closed_invariant(ALG, "(S2xS1)^1") == 2
    assert closed_invariant(ALG, "P # (S2xS1)^2") == 5


def test_character_formula_agrees():
    for text in ["S3", "P", "P # P", "(S2xS1)^1", "P # (S2xS1)^2", "P # P # P"]:
        assert closed_invariant_by_characters(ALG, text) == closed_invariant(
            ALG, text
        )


def test_closed_term_evaluates_to_the_invariant():
    lm = eval_term("tr . pe(P) . unit", ALG)
    assert lm.dom_arity == 0 and lm.cod_arity == 0
    assert lm.scalar() == 5


def test_parse_manifold_grammar():
    assert parse_manifold("S3") == (0, ())
    assert parse_manifold("P # Q # P") == (0, ("P", "P", "Q"))
    assert parse_manifold("(S2xS1)^3 # P") == (3, ("P",))
    assert parse_manifold("(S2xS1)^1 # (S2xS1)^2") == (3, ())
    assert parse_manifold("  P#S3 ") == (0, ("P",))
    # factors are term labels, as in pe(2P) or pe(P-1)
    assert parse_manifold("2P # P-1") == (0, ("2P", "P-1"))
    for bad in ["", "S3 #", "(S2xS1)^0x", "S3 S3", "#"]:
        with pytest.raises(ValueError):
            parse_manifold(bad)


def test_unknown_label_is_reported():
    with pytest.raises(UnknownPrime):
        closed_invariant(ALG, "Zq")
    with pytest.raises(UnknownPrime):
        eval_term("pe(Zq)", ALG)


def test_type_errors_come_before_unknown_labels():
    # without the typecheck first, pe(Z) would raise UnknownPrime
    with pytest.raises(ArityMismatch) as want:
        typecheck(parse("m . pe(Z)"))
    with pytest.raises(ArityMismatch) as got:
        eval_term("m . pe(Z)", ALG)
    assert str(got.value) == str(want.value)


def test_first_unknown_label_in_printed_order_is_named():
    with pytest.raises(UnknownPrime, match="'Z'"):
        eval_term("pe(Z) . pe(Y)", ALG)


def test_override_changes_pe_but_not_pu():
    rot = [[0, 1], [-1, 0]]
    lhs = eval_with_endo_override("m . (pe(P) * id)", ALG, {"P": rot})
    rhs = eval_with_endo_override("m . (id * pe(P))", ALG, {"P": rot})
    # column e1 (x) e2 is flat index 0*2 + 1 = 1
    assert lhs.apply({1: F(1)}) == {1: F(-1)}
    assert rhs.apply({1: F(1)}) == {0: F(1)}
    assert lhs != rhs
    # the punctured feed still carries the algebra element, not the override
    pu = eval_with_endo_override("pu(P)", ALG, {"P": rot})
    assert pu.apply({0: F(1)}) == {0: F(2), 1: F(3)}


def test_override_validates_shape():
    with pytest.raises(ValueError):
        eval_with_endo_override("pe(P)", ALG, {"P": [[1, 0]]})


def test_functor_respects_composition():
    a = eval_term("m . (pe(P) * id)", ALG)
    b = eval_term("m", ALG).compose(eval_term("pe(P) * id", ALG))
    assert a == b
    t = eval_term("pe(P) * tr", ALG)
    assert t == eval_term("pe(P)", ALG).tensor(eval_term("tr", ALG))


FUZZ_ALGEBRAS = [
    hadamard_algebra({"P": (2, 3), "Q": (1, -1)}),
    diagonal_algebra([1], primes={"P": (4,), "Q": (1,)}),
    diagonal_algebra([2, 3], primes={"P": (1, 2), "Q": (5, 1)}),
    diagonal_algebra([1, 1, 2], primes={"P": (1, 4, 9), "Q": (2, 2, 1)}),
    # tables with denominators 2, 3, 9 and 27 and negative entries
    conjugate_algebra(
        diagonal_algebra([F(1, 2), 3], primes={"P": (F(1, 3), 2), "Q": (-1, 5)}),
        [[1, 2], [-1, 1]],
    ),
]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_term_and_connectivity_functors_agree(seed):
    term = random_term(random.Random(seed), max_gens=8)
    cos = cospan_of_term(term)
    for alg in FUZZ_ALGEBRAS:
        assert eval_term(term, alg) == eval_semantic(cos, alg)


def test_handle_power_is_repeated_multiplication():
    for alg in FUZZ_ALGEBRAS:
        d = alg.dim
        handle = alg.handle_element()
        basis = [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
        cols = [alg.multiply(alg.primes["P"], e) for e in basis]
        for genus in range(10):
            want = {(k, i): x for i, col in enumerate(cols) for k, x in enumerate(col)}
            assert _component_map(alg, 1, 1, genus, ("P",)) == LinearMap(1, 1, d, want)
            cols = [alg.multiply(handle, v) for v in cols]


def test_semantic_genus_weighting():
    # one handle multiplies by the handle element; theta = (1, 2) makes it
    # visible as a 1/2 weight on the second block
    alg = diagonal_algebra([1, 2])
    lm = eval_term("m . comul", alg)
    assert lm.apply({1: F(1)}) == {1: F(1, 2)}
    assert eval_semantic(cospan_of_term(parse("m . comul")), alg) == lm


def test_linear_map_json_round_trip():
    lm = eval_term("m . (pe(P) * id)", ALG)
    back = LinearMap.from_json(lm.to_json())
    assert back == lm
