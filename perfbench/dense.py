"""A dense reference evaluator, independent of cob3's evaluators.

A term (in gen.py's tree form) becomes a matrix of Fractions with d**cod
rows and d**dom columns, built straight from the algebra's structure
constants: composition is a matrix product and tensor a Kronecker product,
with the left factor's wires most significant, as in cob3's flattening.
It is meant for small interfaces only; the work grows as d**(3 * width).
"""

from __future__ import annotations

from fractions import Fraction

from gen import arity


def generator_matrix(alg, name, label):
    d = alg.dim
    zero, one = Fraction(0), Fraction(1)
    if name == "id":
        return [[one if r == c else zero for c in range(d)] for r in range(d)]
    if name == "m":
        return [[alg.mul[k][c // d][c % d] for c in range(d * d)] for k in range(d)]
    if name == "unit":
        return [[alg.unit[i]] for i in range(d)]
    if name == "comul":
        return [[alg.comul[i][r // d][r % d] for i in range(d)] for r in range(d * d)]
    if name == "tr":
        return [list(alg.trace)]
    if name == "swap":
        return [
            [one if c == (r % d) * d + r // d else zero for c in range(d * d)]
            for r in range(d * d)
        ]
    vec = alg.primes[label]
    if name == "pu":
        return [[vec[i]] for i in range(d)]
    # pe: multiplication by the prime element
    return [
        [sum((vec[j] * alg.mul[k][j][i] for j in range(d)), zero) for i in range(d)]
        for k in range(d)
    ]


def matmul(a, b):
    cols = range(len(b[0]))
    inner = range(len(b))
    return [[sum((row[k] * b[k][c] for k in inner if row[k]), Fraction(0)) for c in cols] for row in a]


def kron(a, b):
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def dense_eval(term, alg):
    kind = term[0]
    if kind == "g":
        return generator_matrix(alg, term[1], term[2])
    left, right = dense_eval(term[1], alg), dense_eval(term[2], alg)
    return matmul(left, right) if kind == "c" else kron(left, right)


def max_width(term):
    """The widest interface of any subterm: dense work grows as d**(3 * this)."""
    here = max(arity(term))
    if term[0] == "g":
        return here
    return max(here, max_width(term[1]), max_width(term[2]))


def agrees(matrix, linear_map):
    """True when a cob3 LinearMap has exactly the entries of a dense matrix."""
    entries = linear_map.entries
    if len(matrix) != linear_map.rows or len(matrix[0]) != linear_map.cols:
        return False
    for r, row in enumerate(matrix):
        for c, v in enumerate(row):
            if entries.get((r, c), 0) != v:
                return False
    return True
