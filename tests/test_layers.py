"""Layered-state round trips and slide-class normalization."""

import random
import time

import pytest

from cob3 import kernel
from cob3.kernel import NF_SLIDE_CAP, _neighbours
from cob3.layers import (
    GEN_COD,
    GEN_DOM,
    canonical_state,
    diagram_equal,
    state_to_term,
    state_widths,
    term_to_state,
)
from cob3.terms import parse, print_term, random_term, typecheck


def test_wide_labelled_tensor_flattens_in_near_linear_time():
    # re-offsetting the right factor at every level of a right-nested
    # tensor would take seconds here
    n = 10_000
    term = parse(" * ".join(["pe(P)"] * n))
    started = time.perf_counter()
    state = term_to_state(term)
    assert time.perf_counter() - started < 5
    assert state[0] == n and state[1::3] == tuple(range(n))


def test_state_labels_are_their_names():
    # a layer holds its label's name, "" when it has none, so states and
    # nf's tie-breaks do not depend on which labels a process saw first
    state = term_to_state(parse("pe(Fresh_b) . pe(Fresh_a) . m"))
    assert state[3::3] == ("", "Fresh_a", "Fresh_b")
    # two births at one column tie on all but the label: the name decides
    b = term_to_state(parse("(id * pu(Fresh_a)) . pu(Fresh_b)"))
    assert b[3::3] == ("Fresh_b", "Fresh_a")
    assert kernel.nf(b)[3::3] == ("Fresh_a", "Fresh_b")


def nf_of(text):
    return kernel.nf(term_to_state(parse(text)))


def test_state_round_trip():
    for text in [
        "m",
        "id",
        "id * id",
        "m . (pe(P) * id)",
        "(tr * id) . swap",
        "comul . m . (pu(Q) * pe(P))",
    ]:
        t = parse(text)
        st = term_to_state(t)
        back = state_to_term(st)
        assert typecheck(back) == typecheck(t)
        assert term_to_state(back) == st


def test_empty_diagram_has_no_term():
    with pytest.raises(ValueError):
        state_to_term((0,))


def test_state_widths():
    st = term_to_state(parse("m . (m * id)"))
    assert state_widths(st) == [3, 2, 1]


def test_interchange_layerings_equal():
    a = parse("(m * id * id) . (id * id * comul)")
    b = parse("(id * comul) . (m * id)")
    assert diagram_equal(a, b)
    assert canonical_state(term_to_state(a)) == canonical_state(term_to_state(b))


def test_disjoint_layers_slide():
    assert nf_of("(m * id * id) . (id * id * comul)") == nf_of(
        "(id * comul) . (m * id)"
    )


def test_overlapping_layers_do_not_slide():
    assert nf_of("m . comul") != nf_of("comul . m")


def test_nf_identity_states():
    assert kernel.nf((4,)) == (4,)
    one = term_to_state(parse("m"))
    assert kernel.nf(one) == one


def legal_shuffle(state, rng, walk=12):
    """Random walk over single adjacent transpositions."""
    seq = tuple(
        (state[p], state[p + 1], state[p + 2]) for p in range(1, len(state), 3)
    )
    for _ in range(walk):
        nbs = _neighbours(seq)
        if not nbs:
            break
        seq = rng.choice(nbs)
    out = [state[0]]
    for t in seq:
        out.extend(t)
    return tuple(out)


def class_size(state, cap):
    seq = tuple(
        (state[p], state[p + 1], state[p + 2]) for p in range(1, len(state), 3)
    )
    seen = {seq}
    queue = [seq]
    while queue:
        cur = queue.pop()
        for nb in _neighbours(cur):
            if nb not in seen:
                seen.add(nb)
                if len(seen) > cap:
                    return len(seen)
                queue.append(nb)
    return len(seen)


def test_nf_shuffle_agreement_and_idempotence():
    rng = random.Random(20260814)
    checked = 0
    for _ in range(250):
        t = random_term(rng, max_gens=9)
        st = term_to_state(t)
        a = kernel.nf(st)
        assert kernel.nf(a) == a
        sh = legal_shuffle(st, rng)
        b = kernel.nf(sh)
        assert kernel.nf(b) == b
        if class_size(st, NF_SLIDE_CAP) <= NF_SLIDE_CAP:
            # the class fits under the cap: nf is an exact canonical form
            assert a == b, (st, sh)
            checked += 1
    assert checked > 150


def test_nf_y_junction_both_orders():
    # a 0-output box ending a wire exactly where a 0-input box starts one:
    # both pass orders are legal and land in the same class
    a = nf_of("unit . tr")
    b = nf_of("(tr * id) . (id * unit)")
    c = nf_of("(id * tr) . (unit * id)")
    assert a == b == c


def test_nf_oversized_class_is_deterministic_and_idempotent():
    # ten independent floats: the slide class is way past the cap
    big = (0,) + tuple(x for i in range(10) for x in (0, 1, ""))
    out = kernel.nf(big)
    assert kernel.nf(out) == out
    assert kernel.nf(big) == out
    assert len(out) == len(big)


def test_render_after_nf_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        t = random_term(rng, max_gens=8)
        st = kernel.nf(term_to_state(t))
        back = state_to_term(st)
        assert term_to_state(back) == st
        assert typecheck(back) == typecheck(t)


def test_gen_tables_consistent():
    assert len(GEN_DOM) == len(GEN_COD) == 7
    assert GEN_DOM[0] == 2 and GEN_COD[0] == 1  # merge
    assert GEN_DOM[4] == GEN_COD[4] == 2  # crossing
    assert GEN_DOM == (2, 0, 1, 1, 2, 1, 0)
    assert GEN_COD == (1, 1, 2, 0, 2, 1, 1)
