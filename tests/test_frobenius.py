"""Exact-rational algebra layer: axioms, splitting, characters, fixtures."""

import random
import time
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import (
    DegeneratePairing,
    FrobeniusAlgebra,
    NotScalarOnBlock,
    UnknownPrime,
    algebra_from_json,
    algebra_to_json,
    character_on_block,
    conjugate_algebra,
    diagonal_algebra,
    hadamard_algebra,
    idempotent_decomposition,
)
from cob3.frobenius import (
    ShapeError,
    Violation,
    _min_poly,
    _rational_roots,
    derive_comul,
    random_labelled_algebra,
)


def test_componentwise_plane_passes_all_axioms():
    alg = hadamard_algebra()
    assert alg.dim == 2
    assert alg.verify_cf().ok
    assert alg.verify_legs().ok


def test_unit_and_trace_values():
    alg = hadamard_algebra()
    one = alg.unit
    assert alg.trace_of(one) == 2
    p = alg.primes["P"]
    assert alg.trace_of(p) == 5
    assert alg.trace_of(alg.multiply(p, p)) == 13


def test_handle_element_of_unnormalized_trace():
    # theta = (1, 2): comul rescales, so the handle picks up 1/theta weights
    alg = diagonal_algebra([1, 2])
    assert alg.handle_element() == (F(1), F(1, 2))
    assert alg.verify_cf().ok


def test_derived_comul_matches_diagonal_formula():
    # comul(e_i) = e_i (x) e_i / theta_i, and nothing else
    for thetas in [(3, 5), (-1, F(4, 3), 7)]:
        alg = diagonal_algebra(thetas)
        d = len(thetas)
        for i, j, k in product(range(d), repeat=3):
            want = 1 / F(thetas[i]) if i == j == k else 0
            assert alg.comul[i][j][k] == want, (thetas, i, j, k)
        assert derive_comul(alg.mul, alg.trace, d) == alg.comul


def test_degenerate_pairing_is_refused():
    # trace 0 kills the pairing of the componentwise plane
    with pytest.raises(DegeneratePairing):
        FrobeniusAlgebra(
            2,
            [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
            [1, 1],
            [1, 0],
        )


def test_shape_validation():
    with pytest.raises(ShapeError):
        FrobeniusAlgebra(2, [[[1, 0]]], [1, 1], [1, 1])
    with pytest.raises(ShapeError):
        FrobeniusAlgebra(2, [[[1, 0], [0, 0]], [[0, 0], [0, 1]]], [1], [1, 1])


def test_axiom_violations_carry_witnesses():
    # break commutativity: e1*e2 = e1 but e2*e1 = e2
    alg = FrobeniusAlgebra(
        2,
        [[[1, 0], [1, 0]], [[0, 1], [0, 1]]],
        [1, 1],
        [1, 1],
        comul=[[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    )
    report = alg.verify_cf()
    assert not report.ok
    axioms = {v.axiom for v in report.violations}
    assert "commutativity" in axioms
    v = next(v for v in report.violations if v.axiom == "commutativity")
    assert v.lhs != v.rhs
    assert "commutativity" in report.describe()


def test_legs_violation_when_label_breaks_symmetry():
    alg = hadamard_algebra()
    bad = FrobeniusAlgebra(
        alg.dim,
        alg.mul,
        alg.unit,
        alg.trace,
        primes={"P": (2, 3), "R": (1, 0)},
    )
    assert bad.verify_legs().ok  # multiplication operators always commute here
    # a genuinely non-central labelled endomorphism cannot arise from an
    # algebra element, so the check passes exactly on element-induced labels
    assert bad.generator("pe", "R").entries == {(0, 0): 1}
    with pytest.raises(UnknownPrime):
        bad.generator("pe", "Z")


def test_idempotent_splitting_of_the_plane():
    alg = hadamard_algebra()
    dec = idempotent_decomposition(alg)
    assert len(dec) == 2
    assert list(dec.idempotents) == [(F(0), F(1)), (F(1), F(0))]
    chars = sorted(
        character_on_block(alg, e, alg.primes["P"]) for e in dec.idempotents
    )
    assert chars == [2, 3]


def test_characters_survive_change_of_basis():
    alg = conjugate_algebra(hadamard_algebra(), [[1, 1], [0, 1]])
    assert alg.verify_cf().ok
    dec = idempotent_decomposition(alg)
    chars = sorted(
        character_on_block(alg, e, alg.primes["P"]) for e in dec.idempotents
    )
    assert chars == [2, 3]
    assert alg.trace_of(alg.primes["P"]) == 5


def test_nilpotent_block_is_refused():
    # x^2 = 0 on the second basis vector: dual numbers
    alg = FrobeniusAlgebra(
        2,
        [[[1, 0], [0, 0]], [[0, 1], [1, 0]]],
        [1, 0],
        [0, 1],
    )
    assert alg.verify_cf().ok
    with pytest.raises(NotScalarOnBlock, match="not semisimple: .* nilpotent element"):
        idempotent_decomposition(alg)


def test_irrational_spectrum_is_refused():
    # x^2 = 2: a field extension, irreducible over the rationals
    alg = FrobeniusAlgebra(
        2,
        [[[1, 0], [0, 2]], [[0, 1], [1, 0]]],
        [1, 0],
        [1, 0],
    )
    assert alg.verify_cf().ok
    with pytest.raises(NotScalarOnBlock):
        idempotent_decomposition(alg)


def test_three_block_splitting():
    alg = diagonal_algebra([1, 1, 2], primes={"P": (1, 4, 9)})
    dec = idempotent_decomposition(alg)
    assert len(dec) == 3
    chars = sorted(
        character_on_block(alg, e, alg.primes["P"]) for e in dec.idempotents
    )
    assert chars == [1, 4, 9]


def _assert_complete_orthogonal(alg, dec):
    assert len(dec) == alg.dim
    for i, e in enumerate(dec.idempotents):
        for j, f in enumerate(dec.idempotents):
            assert alg.multiply(e, f) == (e if i == j else (F(0),) * alg.dim)
    assert tuple(map(sum, zip(*dec.idempotents))) == alg.unit


def test_random_algebras_split_into_orthogonal_idempotents():
    rng = random.Random(13)
    for _ in range(40):
        alg = random_labelled_algebra(rng, max_dim=5)
        _assert_complete_orthogonal(alg, idempotent_decomposition(alg))
    for _ in range(20):
        # repeated trace weights: no trace-based shortcut can tell blocks apart
        d = rng.randint(2, 5)
        diag = diagonal_algebra([rng.choice([1, 2]) for _ in range(d)])
        while True:
            p = [[rng.randint(-2, 2) for _ in range(d)] for _ in range(d)]
            try:
                alg = conjugate_algebra(diag, p)
                break
            except ShapeError:  # singular change of basis
                continue
        _assert_complete_orthogonal(alg, idempotent_decomposition(alg))


def test_separating_element_may_need_c_2():
    # x = sum_k c^k e_k has eigenvalues {0, 1} at c = 0, {1, 2} at c = 1 and
    # {-1, 1, 6} at c = 2
    p = [[1, 0, 0], [1, 1, -1], [0, 1, 1]]
    alg = conjugate_algebra(diagonal_algebra([1, 2, 3]), p)
    dec = idempotent_decomposition(alg)
    half = F(1, 2)
    assert dec.idempotents == ((0, half, -half), (0, half, half), (1, -half, half))
    _assert_complete_orthogonal(alg, dec)


def _block_and_three_lines(square, trace):
    """Q[s]/(s^2 - square) with basis 1, s, beside three idempotent lines."""
    mul = [[[0] * 5 for _ in range(5)] for _ in range(5)]
    mul[0][0][0] = mul[1][0][1] = mul[1][1][0] = 1
    mul[0][1][1] = square
    for i in (2, 3, 4):
        mul[i][i][i] = 1
    return FrobeniusAlgebra(5, mul, [1, 0, 1, 1, 1], trace)


@pytest.mark.parametrize(
    "square, trace",
    [(2, [1, 0, 1, 1, 1]), (0, [0, 1, 1, 1, 1])],
    ids=["sqrt2-times-Q3", "dual-numbers-times-Q3"],
)
def test_non_split_algebras_are_refused_fast(square, trace):
    alg = _block_and_three_lines(square, trace)
    assert alg.verify_cf().ok
    start = time.perf_counter()
    with pytest.raises(NotScalarOnBlock):
        idempotent_decomposition(alg)
    assert time.perf_counter() - start < 1.0


def test_min_poly_of_diagonal_elements():
    alg = hadamard_algebra()
    assert _min_poly(alg, alg.unit) == [1, -1]
    assert _min_poly(alg, alg.primes["P"]) == [1, -5, 6]
    # a repeated eigenvalue: degree 2, below dim 3
    assert _min_poly(diagonal_algebra([1, 1, 2]), (1, 1, 2)) == [1, -3, 2]


def _poly_mul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_rational_roots_of_random_polynomials():
    rng = random.Random(7)
    for trial in range(300):
        roots = [
            F(rng.randint(-40, 40), rng.randint(1, 9)) for _ in range(rng.randint(0, 4))
        ]
        poly = [F(1)]
        for r in roots + roots[: rng.randint(0, len(roots))]:
            poly = _poly_mul(poly, [F(1), -r])
        if trial % 3:
            # an irreducible quadratic factor: x^2 + 1 or x^2 - 2
            poly = _poly_mul(poly, [F(1), F(0), F(1) if trial % 3 == 1 else F(-2)])
        assert _rational_roots(poly) == sorted(set(roots))


def test_splitting_survives_huge_change_of_basis():
    big = 10**12
    alg = conjugate_algebra(
        diagonal_algebra([1, 1], {"P": (2, 3)}), [[big, 1], [big + 1, 1]]
    )
    start = time.perf_counter()
    dec = idempotent_decomposition(alg)
    assert time.perf_counter() - start < 1.0
    chars = sorted(
        character_on_block(alg, e, alg.primes["P"]) for e in dec.idempotents
    )
    assert chars == [2, 3]


def test_json_round_trip():
    alg = hadamard_algebra({"P": (2, 3), "Q": (7, 1)})
    blob = algebra_to_json(alg)
    back = algebra_from_json(blob)
    assert back.dim == alg.dim
    assert back.mul == alg.mul
    assert back.comul == alg.comul
    assert back.primes == alg.primes
    assert algebra_to_json(back) == blob


def test_json_accepts_fraction_strings():
    alg = diagonal_algebra([F(1, 2), 3])
    back = algebra_from_json(algebra_to_json(alg))
    assert back.comul == alg.comul
    assert back.verify_cf().ok


def test_random_labelled_algebras_are_lawful():
    rng = random.Random(11)
    for _ in range(20):
        alg = random_labelled_algebra(rng)
        assert alg.verify_cf().ok
        assert alg.verify_legs().ok
        for label, vec in alg.primes.items():
            # pe applied to the unit recovers the labelled element
            col = alg.generator("pe", label).compose(alg.generator("unit")).entries
            got = tuple(col.get((k, 0), 0) for k in range(alg.dim))
            assert got == tuple(F(x) for x in vec)


def test_element_map_is_multiplication():
    alg = hadamard_algebra()
    assert alg.element_map((F(2), F(3))) == alg.generator("pe", "P")
    assert alg.element_map((F(2), F(3))).entries == {(0, 0): 2, (1, 1): 3}


# -- the axioms as index sums over the structure constants -------------------


def _total(terms):
    return sum(terms, F(0))


def reference_cf(alg):
    """verify_cf's witnesses, each coefficient summed over basis indices."""
    mul, unit, trace, comul = alg.mul, alg.unit, alg.trace, alg.comul
    S = range(alg.dim)
    bad = []

    def law(axiom, arity, *checks):
        """Each check maps basis indices to (lhs, rhs); with two checks
        per index tuple, the check's number is the witness's first index."""
        for idx in product(S, repeat=arity):
            for n, check in enumerate(checks):
                lhs, rhs = check(*idx)
                if lhs != rhs:
                    where = (n, *idx) if len(checks) > 1 else idx
                    bad.append(Violation(axiom, where, lhs, rhs))

    def delta(a, b):
        return F(int(a == b))

    law("associativity", 4, lambda i, j, k, o: (
        _total(mul[s][i][j] * mul[o][s][k] for s in S),
        _total(mul[s][j][k] * mul[o][i][s] for s in S),
    ))
    law("commutativity", 3, lambda i, j, o: (mul[o][i][j], mul[o][j][i]))
    law(
        "unit", 2,
        lambda i, o: (_total(unit[s] * mul[o][s][i] for s in S), delta(o, i)),
        lambda i, o: (_total(unit[s] * mul[o][i][s] for s in S), delta(o, i)),
    )
    law("coassociativity", 4, lambda i, j, k, l: (
        _total(comul[i][s][l] * comul[s][j][k] for s in S),
        _total(comul[i][j][s] * comul[s][k][l] for s in S),
    ))
    law("cocommutativity", 3, lambda i, j, k: (comul[i][j][k], comul[i][k][j]))
    law(
        "counit", 2,
        lambda i, o: (_total(comul[i][s][o] * trace[s] for s in S), delta(o, i)),
        lambda i, o: (_total(comul[i][o][s] * trace[s] for s in S), delta(o, i)),
    )

    def mid(i, j, k, l):
        return _total(comul[j][s][l] * mul[k][i][s] for s in S)

    law(
        "frobenius", 4,
        lambda i, j, k, l: (
            _total(mul[s][i][j] * comul[s][k][l] for s in S), mid(i, j, k, l)
        ),
        lambda i, j, k, l: (
            mid(i, j, k, l), _total(comul[i][k][s] * mul[l][s][j] for s in S)
        ),
    )
    return tuple(bad)


def reference_legs(alg):
    """verify_legs's witnesses: m(pe(x) * y) against m(x * pe(y))."""
    mul, S = alg.mul, range(alg.dim)
    bad = []
    for n, label in enumerate(sorted(alg.primes)):
        vec = alg.primes[label]
        em = [[_total(vec[j] * mul[k][j][i] for j in S) for i in S] for k in S]
        for i, j, o in product(S, repeat=3):
            lhs = _total(em[s][i] * mul[o][s][j] for s in S)
            rhs = _total(em[s][j] * mul[o][i][s] for s in S)
            if lhs != rhs:
                bad.append(Violation("legs", (n, i, j, o), lhs, rhs))
    return tuple(bad)


SCALARS = st.sampled_from([0, 0, 0, 1, 1, -1, 2, F(1, 2)])


@st.composite
def structure_constants(draw):
    """An algebra of dim 1 to 3, mostly a broken one.

    Three draws in four take every constant at random; the fourth starts
    from a lawful algebra and changes up to two of its coefficients.
    """
    if draw(st.integers(0, 3)):
        d = draw(st.integers(1, 3))
        vec = st.lists(SCALARS, min_size=d, max_size=d)
        cube = st.lists(st.lists(vec, min_size=d, max_size=d), min_size=d, max_size=d)
        primes = draw(st.dictionaries(st.sampled_from("PQR"), vec, max_size=3))
        return FrobeniusAlgebra(
            d, draw(cube), draw(vec), draw(vec), draw(cube), primes
        )
    alg = random_labelled_algebra(random.Random(draw(st.integers(0, 2**30))))
    d = alg.dim
    mul = [[list(row) for row in sl] for sl in alg.mul]
    comul = [[list(row) for row in sl] for sl in alg.comul]
    for _ in range(draw(st.integers(0, 2))):
        c = (mul, comul)[draw(st.integers(0, 1))]
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        c[i][j][k] += draw(st.sampled_from([-1, 1, F(1, 2)]))
    return FrobeniusAlgebra(d, mul, alg.unit, alg.trace, comul, alg.primes)


@settings(max_examples=200, deadline=None)
@given(structure_constants())
def test_witnesses_match_the_index_sums(alg):
    assert alg.verify_cf().violations == reference_cf(alg)
    assert alg.verify_legs().violations == reference_legs(alg)
