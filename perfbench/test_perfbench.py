"""Tests of the benchmark's own generators and reference evaluator.

    python3 -m pytest perfbench
"""

import os
import random
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import pytest  # noqa: E402

from cob3 import cospan_of_term, eval_term, hadamard_algebra, parse, terms_equal, typecheck  # noqa: E402
from cob3.frobenius import conjugate_algebra, diagonal_algebra  # noqa: E402
from cob3.layers import diagram_equal  # noqa: E402

import dense  # noqa: E402
import gen  # noqa: E402
import workloads  # noqa: E402

SEEDS = range(5)


def typed(tree):
    """Parse the benchmark's text with cob3 and check both agree on the type."""
    term = parse(gen.to_text(tree))
    assert typecheck(term) == gen.arity(tree)
    return term


@pytest.mark.parametrize("seed", SEEDS)
def test_random_terms_type_check(seed):
    rng = random.Random(seed)
    for _ in range(100):
        tree = gen.random_term(rng)
        typed(tree)
        assert gen.count_gens(tree) <= 12


@pytest.mark.parametrize("seed", SEEDS)
def test_reorders_are_the_same_diagram(seed):
    rng = random.Random(seed)
    checked = 0
    while checked < 40:
        tree = gen.random_term(rng)
        dom, boxes = gen.layers(tree)
        if gen.slide_class_size(boxes) > gen.SLIDE_CAP:
            continue
        partner = gen.from_layers(dom, gen.reorder(rng, dom, boxes))
        assert diagram_equal(typed(tree), typed(partner))
        checked += 1


@pytest.mark.parametrize("seed", SEEDS)
def test_near_misses_change_the_bordism(seed):
    rng = random.Random(seed)
    kinds = set()
    for _ in range(100):
        tree = gen.random_term(rng)
        kind, partner = gen.near_miss(rng, tree)
        kinds.add(kind)
        assert not terms_equal(typed(tree), typed(partner)), (kind, gen.to_text(tree))
    assert {"flip", "pe-out"} <= kinds


@pytest.mark.parametrize("seed", SEEDS)
def test_search_pairs_are_equal_bordisms(seed):
    rng = random.Random(seed)
    rules = list(gen.RULE_SIDES)
    for instances, extra in ((1, 3), (2, 1), (3, 0)):
        for _ in range(30):
            s, g, used = gen.search_pair(rng, rules, instances, extra)
            assert len(used) == instances
            assert cospan_of_term(typed(s)) == cospan_of_term(typed(g))


def test_rule_sides_are_equal_bordisms():
    for name, (lhs, rhs) in gen.RULE_SIDES.items():
        assert terms_equal(typed(gen.parse_side(lhs, "P")), typed(gen.parse_side(rhs, "P"))), name


def test_workload_generators_cover_their_kinds():
    canon = workloads.Canon(0)
    kinds = {k for k, _a, _b in canon.pairs}
    assert {"reorder", "reorder-over-cap"} <= kinds
    assert kinds - {"reorder", "reorder-over-cap"}  # some near misses
    over = gen.layers(typed_tree(workloads.OVER_CAP_PAIR[0]))
    assert gen.slide_class_size(over[1]) > gen.SLIDE_CAP
    for a, b in workloads.EDGE_INVERSION_PAIRS:
        assert terms_equal(parse(a), parse(b))


def typed_tree(text):
    """The benchmark's tree for a cob3 text, rebuilt through cob3's parser."""
    from cob3 import Compose, Gen, Tensor

    def conv(t):
        if isinstance(t, Gen):
            return gen.gen(t.name, t.label)
        if isinstance(t, Compose):
            return ("c", conv(t.f), conv(t.g))
        assert isinstance(t, Tensor)
        return ("t", conv(t.l), conv(t.r))

    return conv(parse(text))


PLANE = hadamard_algebra({"P": (2, 3), "Q": (1, -1)})


def dense_of(text, alg=PLANE):
    return dense.dense_eval(typed_tree(text), alg)


def test_dense_commutativity_and_unit_laws():
    assert dense_of("m . swap") == dense_of("m")
    assert dense_of("m . (unit * id)") == dense_of("id")
    assert dense_of("m . (id * unit)") == dense_of("id")
    assert dense_of("(tr * id) . comul") == dense_of("id")


def test_dense_closed_invariant():
    # P # P: trace of the product of the two prime elements, 2*2 + 3*3.
    assert dense_of("tr . pe(P) . pu(P)") == [[Fraction(13)]]


@pytest.mark.parametrize("seed", SEEDS)
def test_dense_agrees_with_eval_term(seed):
    rng = random.Random(seed)
    alg = conjugate_algebra(
        diagonal_algebra([Fraction(1, 2), 3], primes={"P": (Fraction(1, 3), 2), "Q": (-1, 5)}),
        [[1, 2], [-1, 1]],
    )
    for _ in range(20):
        tree = gen.random_term(rng, max_gens=6)
        if dense.max_width(tree) > 4:
            continue
        assert dense.agrees(dense.dense_eval(tree, alg), eval_term(typed(tree), alg))
