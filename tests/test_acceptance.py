"""Acceptance gate: one test per required behavior, each with its time bound.

Run with -v to get one pass/fail line per criterion; each test also prints
its own timing summary.
"""

import random
import time
from fractions import Fraction as F

import pytest

from cob3 import (
    closed_invariant,
    closed_invariant_by_characters,
    cospan_of_term,
    eval_semantic,
    eval_term,
    eval_with_endo_override,
    find_path,
    hadamard_algebra,
    normalize_G1,
    parse,
    print_term,
    verify_ruleset_soundness,
)
from cob3.frobenius import diagonal_algebra, random_labelled_algebra
from cob3.terms import random_term


@pytest.fixture(scope="module")
def corpus():
    rng = random.Random(20240)
    return [random_term(rng, max_gens=12, labels=("P", "Q")) for _ in range(1000)]


FIVE_ALGEBRAS = [
    diagonal_algebra([1], primes={"P": (2,), "Q": (3,)}),
    diagonal_algebra([1, 1], primes={"P": (2, 3), "Q": (1, -1)}),
    diagonal_algebra([1, 2], primes={"P": (1, 2), "Q": (5, 1)}),
    diagonal_algebra([2, 3], primes={"P": (2, 2), "Q": (0, 1)}),
    diagonal_algebra([1, 1, 2], primes={"P": (1, 4, 9), "Q": (2, 2, 1)}),
]


def report(name, t0, bound):
    dt = time.time() - t0
    assert dt < bound, f"{name}: took {dt:.2f}s, bound {bound}s"
    print(f"{name}: PASS in {dt:.2f}s (bound {bound}s)")


def test_criterion_1_labelled_leg_counterexample():
    t0 = time.time()
    alg = hadamard_algebra()
    rot = [[0, 1], [-1, 0]]
    lhs = eval_with_endo_override("m . (pe(P) * id)", alg, {"P": rot})
    rhs = eval_with_endo_override("m . (id * pe(P))", alg, {"P": rot})
    col = 0 * 2 + 1  # e1 (x) e2
    assert lhs.apply({col: F(1)}) == {1: F(-1)}  # -e2
    assert rhs.apply({col: F(1)}) == {0: F(1)}  # e1
    assert lhs != rhs
    report("criterion 1 (leg-exchange fails for one twisted endo)", t0, 1)


def test_criterion_2_full_rule_table_is_sound():
    t0 = time.time()
    rep = verify_ruleset_soundness("G2_FULL")
    assert rep["sound"] is True
    assert len(rep["checked"]) == 28
    assert all(row["sound"] for row in rep["checked"])
    report("criterion 2 (all 28 equations preserve the invariant)", t0, 1)


def test_criterion_3_two_evaluators_agree(corpus):
    t0 = time.time()
    for term in corpus:
        cos = cospan_of_term(term)
        for alg in FIVE_ALGEBRAS:
            assert eval_term(term, alg) == eval_semantic(cos, alg)
    report("criterion 3 (term and connectivity evaluation agree, 1000x5)", t0, 60)


def test_criterion_4_splitting_gains_genus():
    t0 = time.time()
    for b in range(1, 6):
        split = "comul"
        merge = "m"
        for k in range(2, b):
            pad = " * ".join(["id"] * (k - 1))
            split = f"(comul * {pad}) . {split}"
            merge = f"{merge} . (m * {pad})"
        text = "id" if b == 1 else f"{merge} . {split}"
        comp = cospan_of_term(parse(text)).components[0]
        assert comp.genus == b - 1
    report("criterion 4 (b-fold split-merge has genus b-1, b=1..5)", t0, 1)


def test_criterion_5_redundant_rules_derive_but_legs_does_not():
    t0 = time.time()
    cases = [
        ("waist", "pe(P) . m", "m . (pe(P) * id)"),
        ("cowaist", "comul . pe(P)", "(pe(P) * id) . comul"),
        ("colegs", "(pe(P) * id) . comul", "(id * pe(P)) . comul"),
        ("primecomm", "pe(P) . pe(Q)", "pe(Q) . pe(P)"),
    ]
    for name, a, b in cases:
        r = find_path(a, b, rules="CF_LEGS", max_steps=24, max_extra_layers=4)
        assert r.found, f"{name} not derived: {r}"
        print(f"  {name}: derived in {len(r.steps)} steps ({r.explored} explored)")
    r = find_path(
        "m . (pe(P) * id)",
        "m . (id * pe(P))",
        rules="CF",
        max_steps=24,
        max_extra_layers=4,
    )
    assert not r.found and r.reason == "exhausted"
    print(f"  legs under plain axioms: exhausted after {r.explored} states")
    report("criterion 5 (redundancy derivations; legs underivable)", t0, 120)


def test_criterion_6_random_labelled_algebras():
    t0 = time.time()
    rng = random.Random(77)
    for _ in range(20):
        alg = random_labelled_algebra(rng)
        assert alg.verify_cf().ok
        assert alg.verify_legs().ok
        for label, vec in alg.primes.items():
            col = alg.generator("pe", label).compose(alg.generator("unit")).entries
            got = tuple(col.get((k, 0), 0) for k in range(alg.dim))
            assert got == tuple(F(x) for x in vec)
    report("criterion 6 (20 random labelled algebras check out)", t0, 5)


def test_criterion_7_character_formula():
    t0 = time.time()
    alg = hadamard_algebra({"P": (2, 3), "Q": (1, -1)})
    assert closed_invariant(alg, "P # P") == 13
    labels = ["", "P", "Q", "P # P", "P # Q", "Q # Q", "P # P # P", "P # P # Q"]
    for primes in labels:
        for g in range(3):
            parts = [p for p in [primes] if p]
            if g:
                parts.append(f"(S2xS1)^{g}")
            text = " # ".join(parts) if parts else "S3"
            assert closed_invariant_by_characters(alg, text) == closed_invariant(
                alg, text
            ), text
    report("criterion 7 (character sum equals the direct invariant)", t0, 5)


def test_criterion_8_semantic_normalizer(corpus):
    t0 = time.time()
    for term in corpus:
        n1 = normalize_G1(term)
        assert cospan_of_term(n1) == cospan_of_term(term)
        assert print_term(normalize_G1(n1)) == print_term(n1)
    report("criterion 8 (rebuilt normal form is stable and faithful)", t0, 30)
