"""Labelled-cospan invariant: gluing, genus counting, signatures."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import (
    Component,
    LabelledCospan,
    Tensor,
    TermTypeError,
    cospan_from_json,
    cospan_of_term,
    cospan_to_json,
    manifold_signature,
    parse,
    random_term,
    terms_equal,
)
from cob3.cospan import _canonical
from cob3.kernel import nf, successors
from cob3.layers import COMUL, M, PU, SWAP, TR, UNIT, state_to_term, term_to_state
from cob3.rewrite import _entries


def cos(text):
    return cospan_of_term(parse(text))


def test_generator_cospans():
    assert cos("m") == LabelledCospan(2, 1, (Component((0, 1), (0,), 0, ()),))
    assert cos("unit") == LabelledCospan(0, 1, (Component((), (0,), 0, ()),))
    assert cos("comul") == LabelledCospan(1, 2, (Component((0,), (0, 1), 0, ()),))
    assert cos("tr") == LabelledCospan(1, 0, (Component((0,), (), 0, ()),))
    assert cos("swap") == LabelledCospan(
        2, 2, (Component((0,), (1,), 0, ()), Component((1,), (0,), 0, ()))
    )
    assert cos("pe(P)") == LabelledCospan(1, 1, (Component((0,), (0,), 0, ("P",)),))
    assert cos("pu(P)") == LabelledCospan(0, 1, (Component((), (0,), 0, ("P",)),))
    assert cos("id") == LabelledCospan(1, 1, (Component((0,), (0,), 0, ()),))


def split_merge(b):
    """Split one sphere into b and merge back; a genus-(b-1) handlebody."""
    if b == 1:
        return "id"
    split = "comul"
    merge = "m"
    for k in range(2, b):
        split = f"(comul * {' * '.join(['id'] * (k - 1))}) . {split}"
        merge = f"{merge} . (m * {' * '.join(['id'] * (k - 1))})"
    return f"{merge} . {split}"


@pytest.mark.parametrize("b", [1, 2, 3, 4, 5])
def test_split_merge_gains_genus(b):
    c = cos(split_merge(b))
    assert c.dom == c.cod == 1
    assert len(c.components) == 1
    assert c.components[0].genus == b - 1
    assert c.components[0].primes == ()


def test_prime_endo_equals_prime_unit_glued():
    assert cos("pe(P) . unit") == cos("pu(P)")
    assert terms_equal(parse("pe(P) . unit"), parse("pu(P)"))


def test_swap_is_an_involution():
    assert cos("swap . swap") == cos("id * id")


def test_interchange_law_holds():
    a = "(pe(P) * m) . (comul * id)"
    b = "(pe(P) * id) . (id * m) . (comul * id)"
    assert terms_equal(parse(a), parse(b))


def test_terms_equal_rejects_shape_mismatch():
    assert not terms_equal(parse("m"), parse("comul"))
    assert not terms_equal(parse("pe(P)"), parse("pe(Q)"))


def test_labels_commute_and_sort():
    assert cos("pe(P) . pe(Q)") == cos("pe(Q) . pe(P)")
    assert cos("pe(P) . pe(Q)").components[0].primes == ("P", "Q")


def test_closed_pieces_sort_after_boundary():
    t = "(tr . pe(P) . unit) * pe(Q)"
    comps = cos(t).components
    assert comps[0].primes == ("Q",) and not comps[0].is_closed()
    assert comps[1].primes == ("P",) and comps[1].is_closed()
    assert cos("tr . pu(P)") == LabelledCospan(0, 0, (Component((), (), 0, ("P",)),))


def test_self_gluing_makes_handles():
    # tr . comul glues both legs of one piece back to itself: genus 1 closed
    c = cos("tr . m . comul . unit")
    assert c == LabelledCospan(0, 0, (Component((), (), 1, ()),))
    c2 = cos("tr . m . (pe(P) * id) . comul . unit")
    assert c2.components[0].genus == 1
    assert c2.components[0].primes == ("P",)
    # a handle made on one piece survives the merge into another
    c3 = cos("m . (id * (m . comul))")
    assert c3 == LabelledCospan(2, 1, (Component((0, 1), (0,), 1, ()),))


def test_signature_strings():
    assert manifold_signature(cos("tr . pe(P) . pe(P) . unit")) == "P # P closed"
    assert manifold_signature(cos("tr . m . comul . unit")) == "(S2xS1)^1 closed"
    assert manifold_signature(cos("m")) == "S3 \\ 3 balls (2 in, 1 out)"
    assert manifold_signature(cos("pe(P)")) == "P \\ 2 balls (1 in, 1 out)"
    assert manifold_signature(cos("tr")) == "S3 \\ 1 ball (1 in, 0 out)"
    assert (
        manifold_signature(cos("pe(P) * (tr . unit)"))
        == "P \\ 2 balls (1 in, 1 out) | S3 closed"
    )
    assert manifold_signature(LabelledCospan(0, 0, ())) == "(empty)"


def test_json_round_trip():
    for text in ["m . (pe(P) * (pe(Q) . unit))", "swap . (comul * (tr . m))"]:
        c = cos(text)
        assert cospan_from_json(cospan_to_json(c)) == c
    blob = cospan_to_json(cos("pe(P)"))
    assert '"genus": 0' in blob and '"primes"' in blob


def test_json_ports_and_primes_may_come_unsorted():
    c = cos("(m . (pe(Q) * pe(P))) * ((comul * id) . comul)")
    blob = json.loads(cospan_to_json(c))
    for comp in blob["components"]:
        for key in ("in", "out", "primes"):
            comp[key].reverse()
    blob["components"].reverse()
    assert blob["components"][1]["in"] == [1, 0]
    assert cospan_from_json(json.dumps(blob)) == c


def test_compose_requires_matching_interfaces():
    with pytest.raises(TermTypeError):
        cos("m . unit")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**30))
def test_every_rewrite_preserves_the_cospan(seed):
    term = random_term(random.Random(seed), max_gens=5)
    want = cospan_of_term(term)
    state = nf(term_to_state(term))
    bound = (len(state) - 1) // 3 + 2
    for rules in ("CF_LEGS", "G2_FULL"):
        entries, _ = _entries(rules)
        for *_pos, new in successors(state, entries, bound):
            if new != (0,):
                assert cospan_of_term(state_to_term(new)) == want


def cycle_cospan(term):
    """The cospan by a union-find that counts cycles as it glues: a merge
    of two wires already on one piece closes a cycle, one S2 x S1 summand.
    The oracle for cospan_of_term's count of genus per piece."""
    state = term_to_state(term)
    dom = state[0]
    parent = list(range(dom))
    genus = [0] * dom
    primes = [[] for _ in range(dom)]
    wires = list(range(dom))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for p in range(1, len(state), 3):
        off, gen, lab = state[p], state[p + 1], state[p + 2]
        if gen == M:
            a, b = find(wires[off]), find(wires.pop(off + 1))
            if a == b:
                genus[a] += 1
            else:
                parent[b] = a
                genus[a] += genus[b]
                primes[a] += primes[b]
        elif gen == UNIT or gen == PU:
            wires.insert(off, len(parent))
            parent.append(len(parent))
            genus.append(0)
            primes.append([lab] if gen == PU else [])
        elif gen == COMUL:
            wires.insert(off, wires[off])
        elif gen == TR:
            del wires[off]
        elif gen == SWAP:
            wires[off], wires[off + 1] = wires[off + 1], wires[off]
        else:  # PE
            primes[find(wires[off])].append(lab)
    roots = [x for x in range(len(parent)) if parent[x] == x]
    ins = {r: [i for i in range(dom) if find(i) == r] for r in roots}
    outs = {r: [j for j, x in enumerate(wires) if find(x) == r] for r in roots}
    pieces = [(ins[r], outs[r], genus[r], primes[r]) for r in roots]
    return _canonical(dom, len(wires), pieces)


CLOSED = [
    "tr . unit",
    "tr . pu(P)",
    "tr . m . comul . pe(Q) . unit",
    "tr . m . comul . m . comul . unit",
]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**30), st.integers(1, 20), st.lists(st.sampled_from(CLOSED), max_size=3))
def test_genus_by_count_matches_the_cycle_oracle(seed, size, closed):
    rng = random.Random(seed)
    term = random_term(rng, max_gens=size, labels=("P", "Q", "R"))
    for text in closed:
        term = Tensor(parse(text), term) if rng.random() < 0.5 else Tensor(term, parse(text))
    assert cospan_of_term(term) == cycle_cospan(term)
