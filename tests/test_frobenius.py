"""Exact-rational algebra layer: axioms, splitting, characters, fixtures."""

import random
import time
from fractions import Fraction as F

import pytest

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
    alg = diagonal_algebra([3, 5])
    cm = derive_comul(alg.mul, alg.trace, 2)
    assert cm[0][0][0] == F(1, 3) and cm[1][1][1] == F(1, 5)
    assert cm[0][0][1] == 0 and cm[0][1][0] == 0


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
    assert bad.prime_endo_matrix("R")[0][0] == 1
    with pytest.raises(UnknownPrime):
        bad.prime_endo_matrix("Z")


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
    with pytest.raises(NotScalarOnBlock):
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
            mat = alg.prime_endo_matrix(label)
            # column of the unit recovers the labelled element
            got = tuple(
                sum(F(mat[k][i]) * F(u) for i, u in enumerate(alg.unit))
                for k in range(alg.dim)
            )
            assert got == tuple(F(x) for x in vec)


def test_element_endo_is_multiplication():
    alg = hadamard_algebra()
    mat = alg.element_endo((F(2), F(3)))
    assert mat == alg.prime_endo_matrix("P")
