"""Sparse exact linear maps on tensor powers."""

import json
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import LinearMap, identity_map, permutation_map


def test_compose_and_tensor_arities():
    a = LinearMap(1, 2, 2, {(0, 0): F(1), (3, 1): F(2)})
    b = LinearMap(2, 1, 2, {(0, 0): F(1), (1, 3): F(5)})
    ab = b.compose(a)
    assert (ab.dom_arity, ab.cod_arity) == (1, 1)
    assert ab.entries == {(0, 0): F(1), (1, 1): F(10)}
    t = a.tensor(b)
    assert (t.dom_arity, t.cod_arity) == (3, 3)
    assert t.entries[(0 * 2 + 0, 0 * 4 + 0)] == F(1)
    assert t.entries[(3 * 2 + 1, 1 * 4 + 3)] == F(10)


def test_compose_requires_matching_arity():
    a = identity_map(2, 2)
    b = identity_map(2, 3)
    with pytest.raises(ValueError):
        a.compose(b)
    with pytest.raises(ValueError):
        a.tensor(LinearMap(1, 1, 3, {}))  # mixed base dimensions


def test_permutation_output_slot_reads_input_slot():
    # output slot j carries input slot perm[j]
    p = permutation_map(2, (1, 0, 2))
    col = 0 * 4 + 1 * 2 + 0  # (0, 1, 0)
    row = 1 * 4 + 0 * 2 + 0  # (1, 0, 0)
    assert p.entries[(row, col)] == F(1)
    assert p.compose(permutation_map(2, (1, 0, 2))) == identity_map(2, 3)


def test_scalar_only_for_closed_maps():
    s = LinearMap(0, 0, 2, {(0, 0): F(7, 3)})
    assert s.scalar() == F(7, 3)
    assert LinearMap(0, 0, 2, {}).scalar() == 0
    with pytest.raises(ValueError):
        identity_map(2, 1).scalar()


def test_equality_ignores_stored_zeros():
    a = LinearMap(1, 1, 2, {(0, 0): F(1), (1, 1): F(0)})
    b = LinearMap(1, 1, 2, {(0, 0): F(1)})
    assert a == b
    assert hash(a) == hash(b)


def test_json_uses_fraction_strings():
    lm = LinearMap(1, 1, 2, {(0, 1): F(-3, 7), (1, 0): F(4)})
    data = json.loads(lm.to_json())
    assert data["d"] == 2
    assert ["0", "1", "-3/7"][2] in [str(e[2]) for e in data["entries"]]
    assert LinearMap.from_json(lm.to_json()) == lm


def test_out_of_range_entry_rejected():
    with pytest.raises(ValueError):
        LinearMap(1, 1, 2, {(2, 0): F(1)})
    with pytest.raises(ValueError):
        LinearMap(1, 1, 2, {(0, -1): F(1)})
    # (0, cols) would flatten to the in-range key cols: it is checked first
    with pytest.raises(ValueError, match=r"entry \(0,2\) outside 2x2"):
        LinearMap(1, 1, 2, {(0, 2): F(1)})
    with pytest.raises(ValueError, match=r"entry \(1,-1\) outside 2x2"):
        LinearMap(1, 1, 2, {(1, -1): F(1)})


def test_fraction_and_scaled_int_construction_agree():
    entries = {(0, 0): F(1, 2), (1, 0): F(-3, 4), (1, 1): F(2)}
    a = LinearMap(1, 1, 2, entries)
    # keys are flat: (row, col) is row * 2 + col
    b = LinearMap._from_ints(1, 1, 2, 8, {0: 4, 2: -6, 3: 16})
    assert (a.den, a.nums) == (b.den, b.nums) == (4, {0: 2, 2: -3, 3: 8})
    assert a.entries == b.entries == entries
    assert a == b
    assert hash(a) == hash(b)


def test_denominator_positive_and_in_lowest_terms():
    # (0, 0), (2, 1) and (1, 2) of a 3x3 map
    lm = LinearMap._from_ints(1, 1, 3, 36, {0: 12, 7: -30, 5: 0})
    assert lm.den == 6 and lm.nums == {0: 2, 7: -5}
    assert lm.entries == {(0, 0): F(1, 3), (2, 1): F(-5, 6)}
    for m in (lm, LinearMap(1, 1, 2, {(0, 1): F(-5, 6), (1, 0): F(7, 15)})):
        assert m.den > 0
        assert math.gcd(m.den, *m.nums.values()) == 1
        assert all(v != 0 for v in m.nums.values())


def test_zero_map_has_denominator_one():
    for zero in (
        LinearMap(1, 1, 2, {}),
        LinearMap(1, 1, 2, {(0, 0): F(0)}),
        LinearMap._from_ints(1, 1, 2, 12, {3: 0}),
        LinearMap(1, 1, 2, {(0, 0): F(1, 3)}).compose(LinearMap(1, 1, 2, {})),
    ):
        assert zero.den == 1 and zero.nums == {} and zero.entries == {}
    assert LinearMap(1, 1, 2, {}) == LinearMap._from_ints(1, 1, 2, 5, {})


def test_integer_constructor_rejects_out_of_range():
    # a 2x2 and a 4x1 map have the flat keys 0..3: 4 = rows * cols and -1 fail
    for dom, cod in ((1, 1), (0, 2)):
        assert LinearMap._from_ints(dom, cod, 2, 1, {0: 1, 3: 1}).nums == {0: 1, 3: 1}
        with pytest.raises(ValueError):
            LinearMap._from_ints(dom, cod, 2, 1, {4: 1})
        with pytest.raises(ValueError):
            LinearMap._from_ints(dom, cod, 2, 3, {-1: 1, 0: 1})
    with pytest.raises(ValueError):
        LinearMap._from_ints(0, 0, 3, 1, {1: 1})


FRACTIONS = st.builds(F, st.integers(-3, 3), st.integers(1, 4))


def sparse_map(data, d, dom, cod):
    """A random map with small Fraction entries, some of them zero."""
    cells = st.tuples(st.integers(0, d**cod - 1), st.integers(0, d**dom - 1))
    entries = data.draw(st.dictionaries(cells, FRACTIONS, max_size=12))
    return LinearMap(dom, cod, d, entries)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flat_keys_round_trip(data):
    # the constructor's (row, col) entries come back from .entries and
    # through JSON; each is stored at row * cols + col
    d = data.draw(st.integers(1, 3))
    dom, cod = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    cells = st.tuples(st.integers(0, d**cod - 1), st.integers(0, d**dom - 1))
    entries = data.draw(st.dictionaries(cells, FRACTIONS, max_size=12))
    nonzero = {k: v for k, v in entries.items() if v}
    m = LinearMap(dom, cod, d, entries)
    assert m.entries == nonzero
    assert m.nums == {r * d**dom + c: v * m.den for (r, c), v in nonzero.items()}
    back = LinearMap.from_json(m.to_json())
    assert back == m and hash(back) == hash(m) and back.entries == nonzero
    assert (back.dom_arity, back.cod_arity, back.d, back.den) == (dom, cod, d, m.den)


def dense(m):
    rows = [[F(0)] * m.cols for _ in range(m.rows)]
    for (r, c), v in m.entries.items():
        rows[r][c] = v
    return rows


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_compose_and_tensor_match_dense_references(data):
    d = data.draw(st.integers(1, 3))
    a, b, c = (data.draw(st.integers(0, 3)) for _ in range(3))
    f, g = sparse_map(data, d, b, c), sparse_map(data, d, a, b)
    ff, gg = dense(f), dense(g)
    product = [
        [sum((ff[i][k] * gg[k][j] for k in range(f.cols)), F(0)) for j in range(g.cols)]
        for i in range(f.rows)
    ]
    assert dense(f.compose(g)) == product
    # big-endian: the left factor's index is the more significant digit
    rows, cols = g.rows, g.cols
    kron = [
        [ff[i // rows][j // cols] * gg[i % rows][j % cols] for j in range(f.cols * cols)]
        for i in range(f.rows * rows)
    ]
    t = f.tensor(g)
    assert (t.dom_arity, t.cod_arity) == (b + a, c + b)
    assert dense(t) == kron
    assert t == LinearMap(t.dom_arity, t.cod_arity, d, t.entries)  # in lowest terms
    with pytest.raises(ValueError):
        f.compose(sparse_map(data, d, a, b + 1))
    with pytest.raises(ValueError):
        f.compose(sparse_map(data, d % 3 + 1, a, b))
