"""Linear evaluation: term functor, connectivity functor, closed values."""

import random
import time
from fractions import Fraction as F
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import (
    Compose,
    LinearMap,
    MapTooLarge,
    Tensor,
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
    permutation_term,
)
from cob3.frobenius import (
    FrobeniusAlgebra,
    algebra_from_json,
    algebra_to_json,
    conjugate_algebra,
    diagonal_algebra,
)
from cob3.terms import ArityMismatch, fold, random_term, typecheck

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


def fold_eval(term, alg, overrides=None):
    """The term functor as one fold: generator maps joined by compose for
    `.` and tensor for `*`, with no pieces. The oracle for eval_term."""
    d = alg.dim

    def gen(name, label):
        if name == "pe" and overrides and label in overrides:
            m = overrides[label]
            return LinearMap(1, 1, d, {(k, i): F(m[k][i]) for k in range(d) for i in range(d)})
        return alg.generator(name, label)

    typecheck(term)
    return fold(term, gen, LinearMap.compose, LinearMap.tensor)


# closed pieces that float beside the rest of a term
CLOSED = ["tr . unit", "tr . pu(P)", "tr . pe(Q) . unit", "tr . m . comul . pu(Q)"]


@st.composite
def piecewise_terms(draw, max_gens=8):
    """Random terms, some beside closed pieces, some with their outputs
    permuted by swaps across pieces."""
    rng = random.Random(draw(st.integers(0, 2**30)))
    term = random_term(rng, max_gens=max_gens)
    for _ in range(draw(st.integers(0, 2))):
        closed = parse(rng.choice(CLOSED))
        term = Tensor(closed, term) if rng.random() < 0.5 else Tensor(term, closed)
    cod = typecheck(term)[1]
    if cod >= 2 and draw(st.booleans()):
        perm = list(range(cod))
        rng.shuffle(perm)
        term = Compose(permutation_term(perm), term)
    return term


@settings(max_examples=60, deadline=None)
@given(piecewise_terms())
def test_term_and_connectivity_functors_agree(term):
    cos = cospan_of_term(term)
    for alg in FUZZ_ALGEBRAS:
        got = eval_term(term, alg)
        assert got == fold_eval(term, alg) == eval_semantic(cos, alg)
        if got.nums:  # the size guard's bound is at least the entry count
            with pytest.raises(MapTooLarge):
                eval_term(term, alg, max_entries=len(got.nums) - 1)


@settings(max_examples=40, deadline=None)
@given(piecewise_terms(), st.integers(0, 2**30))
def test_overrides_agree_with_the_fold(term, seed):
    rng = random.Random(seed)
    for alg in FUZZ_ALGEBRAS:
        r = range(alg.dim)
        ov = {
            p: [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in r] for _ in r]
            for p in "PQ"
            if rng.random() < 0.7
        }
        assert eval_term(term, alg, ov) == fold_eval(term, alg, ov)


# tr . pu(Q) and tr . pe(Q) . unit evaluate to 0 here
ZERO_CLOSED = diagonal_algebra([1, 1], primes={"P": (2, 3), "Q": (1, -1)})


def assert_reduced(m):
    """m holds the data `_from_ints` would give it: no zero numerator, no
    key out of range, lowest terms, and the zero map over 1."""
    assert all(m.nums.values())
    assert all(0 <= k < m.rows * m.cols for k in m.nums)
    assert m.den > 0 and gcd(m.den, *m.nums.values()) == 1
    assert m.nums or m.den == 1
    rebuilt = LinearMap._from_ints(m.dom_arity, m.cod_arity, m.d, m.den, m.nums)
    assert (rebuilt.den, rebuilt.nums) == (m.den, m.nums) and rebuilt == m


@settings(max_examples=60, deadline=None)
@given(piecewise_terms())
def test_placed_maps_are_in_lowest_terms(term):
    # _placed builds its output without LinearMap's checks
    cos = cospan_of_term(term)
    for alg in FUZZ_ALGEBRAS[1:] + [ZERO_CLOSED]:
        assert_reduced(eval_term(term, alg))
        assert_reduced(eval_semantic(cos, alg))


def test_a_zero_closed_piece_gives_the_zero_map():
    for text in ["(tr . pu(Q)) * m", "pe(P) * (tr . pe(Q) . unit) * comul", "tr . pu(Q)"]:
        term = parse(text)
        for got in (eval_term(term, ZERO_CLOSED), eval_semantic(cospan_of_term(term), ZERO_CLOSED)):
            assert (got.den, got.nums) == (1, {})
            assert (got.dom_arity, got.cod_arity) == typecheck(term)


def test_pieces_side_by_side_and_across_each_other():
    # a box applies at its offset among its own piece's wires, which other
    # pieces' wires to its left do not count; swaps between pieces reorder
    alg = FUZZ_ALGEBRAS[-1]
    texts = [
        "id * ((pe(P) * id) . comul)",
        "(id * m) . (id * pe(Q) * id) . (swap * id) . (id * comul)",
        "swap . (pe(P) * pu(Q))",
        "(id * swap * id) . (swap * id * id) . (m * pe(P) * comul)",
        "m . swap . (pe(P) * id)",
        "(tr . unit) * swap * (tr . pu(P))",
    ]
    for text in texts:
        term = parse(text)
        assert eval_term(term, alg) == fold_eval(term, alg)
        assert eval_term(term, alg) == eval_semantic(cospan_of_term(term), alg)
    # the algebra's own maps cannot tell a piece's wires apart, a rotation can
    rot = {"P": [[0, 1], [-1, 0]]}
    for text in ["id * (m . (pe(P) * id))", "pe(Q) * ((id * pe(P)) . comul)"]:
        assert eval_term(text, alg, rot) == fold_eval(parse(text), alg, rot)


# the pe(P) piece has ports (0,) and (0,) in each, under other interface
# widths: (dom, cod) = (1, 1), (2, 2), (1, 2), (2, 1) and (2, 2) again
SAME_PORTS = ["pe(P)", "pe(P) * id", "pe(P) * unit", "pe(P) * tr", "(pe(P) * m) . (id * comul)"]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "backward"])
def test_placement_tables_are_kept_per_layout_and_algebra(order):
    # fresh algebras of one dimension, so the tables start empty and each
    # text finds those of the texts before it
    algs = [
        hadamard_algebra({"P": (2, 3), "Q": (1, -1)}),
        diagonal_algebra([2, 3], primes={"P": (1, 2), "Q": (5, 1)}),
    ]
    for text in SAME_PORTS[::order]:
        term = parse(text)
        cos = cospan_of_term(term)
        for alg in algs:
            want = fold_eval(term, alg)
            assert eval_term(term, alg) == want, (text, alg.primes)
            assert eval_semantic(cos, alg) == want, (text, alg.primes)


def test_size_guard_counts_bare_wires_and_widest_cuts():
    d = ALG.dim
    cases = [
        ("id * id", d * d),  # two bare wires
        ("swap", d * d),  # crossing bare wires
        ("pe(P)", d**2),  # one piece, one input and one output
        ("m . comul", d**3),  # its widest cut holds two wires over one input
        ("tr . unit", d),  # the unit's wire, before the trace closes it
        ("m * (tr . unit) * id", d**3 * d),
    ]
    for text, bound in cases:
        assert eval_term(text, ALG, max_entries=bound) == eval_term(text, ALG)
        with pytest.raises(MapTooLarge, match=rf"{d}\*\*\d+ entries, over the limit of {bound - 1}"):
            eval_term(text, ALG, max_entries=bound - 1)


def test_wide_identity_is_refused_at_once():
    text = " * ".join(["id"] * 36 + ["pe(P)", "(m . comul)", "id"])
    started = time.perf_counter()
    with pytest.raises(MapTooLarge):
        eval_term(text, ALG, max_entries=10**6)
    assert time.perf_counter() - started < 1


def dense_generator(alg, name, label):
    """A generator's matrix, rows by columns, written out from the structure
    constants without LinearMap; basis tensors flatten big-endian."""
    d, r, rr = alg.dim, range(alg.dim), range(alg.dim**2)
    if name == "id":
        return [[F(int(k == i)) for i in r] for k in r]
    if name == "swap":
        # e_i (x) e_j, column i*d + j, goes to e_j (x) e_i, row j*d + i
        return [[F(int(row == (col % d) * d + col // d)) for col in rr] for row in rr]
    if name == "m":
        return [[alg.mul[k][col // d][col % d] for col in rr] for k in r]
    if name == "comul":
        return [[alg.comul[i][row // d][row % d] for i in r] for row in rr]
    if name == "unit":
        return [[x] for x in alg.unit]
    if name == "tr":
        return [list(alg.trace)]
    vec = alg.primes[label]
    if name == "pu":
        return [[x] for x in vec]
    return [[sum(vec[j] * alg.mul[k][j][i] for j in r) for i in r] for k in r]  # pe


# No two structure constants alike, so that a slip between any two index
# slots shows; a lawful algebra is symmetric in the slots of m and comul.
LOPSIDED = FrobeniusAlgebra(
    2,
    [[[1, 2], [3, 4]], [[5, 6], [7, 8]]],
    [9, 10],
    [11, 12],
    [[[13, 14], [15, 16]], [[17, 18], [19, 20]]],
    {"P": (21, 22), "Q": (23, 24)},
)


@pytest.mark.parametrize("alg", [FUZZ_ALGEBRAS[-1], LOPSIDED], ids=["conjugate", "lopsided"])
def test_generator_table_matches_the_structure_constants(alg):
    gens = [("id", None), ("swap", None), ("m", None), ("comul", None)]
    gens += [("unit", None), ("tr", None)]
    gens += [(name, p) for name in ("pe", "pu") for p in ("P", "Q")]
    for name, label in gens:
        want = dense_generator(alg, name, label)
        got = alg.generator(name, label)
        assert (got.rows, got.cols) == (len(want), len(want[0])), name
        for row, col in product(range(got.rows), range(got.cols)):
            assert got.entries.get((row, col), 0) == want[row][col], (name, row, col)
    sw = alg.generator("swap")
    for i, j in product(range(alg.dim), repeat=2):
        assert sw.apply({i * alg.dim + j: F(1)}) == {j * alg.dim + i: F(1)}


def test_handle_power_is_repeated_multiplication():
    for alg in FUZZ_ALGEBRAS:
        d = alg.dim
        handle = alg.handle_element()
        basis = [tuple(F(int(i == j)) for j in range(d)) for i in range(d)]
        cols = [alg.multiply(alg.primes["P"], e) for e in basis]
        for genus in range(10):
            want = {(k, i): x for i, col in enumerate(cols) for k, x in enumerate(col)}
            assert alg.surface_map(1, 1, genus, ("P",)) == LinearMap(1, 1, d, want)
            cols = [alg.multiply(handle, v) for v in cols]


def surface_from_scratch(alg, a, b, genus, primes):
    """(b-fold comul) . (multiplication by the surface element) . (a-fold mul),
    every factor built afresh."""
    g, ident = alg.generator, alg.generator("id")
    mul = g("unit") if a == 0 else ident
    for _ in range(a - 1):
        mul = g("m").compose(mul.tensor(ident))
    comul = g("tr") if b == 0 else ident
    for _ in range(b - 1):
        comul = comul.tensor(ident).compose(g("comul"))
    return comul.compose(alg.element_map(alg.surface_element(genus, primes))).compose(mul)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(FUZZ_ALGEBRAS),
    st.lists(
        st.tuples(
            st.integers(0, 3),
            st.integers(0, 3),
            st.integers(0, 3),
            st.lists(st.sampled_from(["P", "Q"]), max_size=3).map(tuple),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_surface_maps_are_the_composite_in_any_call_order(alg, keys):
    # a fresh copy, so that no map is kept from an earlier example
    alg = algebra_from_json(algebra_to_json(alg))
    for a, b, genus, primes in keys:
        assert alg.surface_map(a, b, genus, primes) == surface_from_scratch(
            alg, a, b, genus, primes
        )


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
