"""Layered-state round trips and slide-class normalization."""

import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cob3 import cospan, evaluate, kernel, layers
from cob3.frobenius import diagonal_algebra, hadamard_algebra
from cob3.layers import (
    GEN_COD,
    GEN_DOM,
    PE,
    PU,
    TR,
    UNIT,
    diagram_equal,
    print_state,
    state_to_term,
    pieces,
    state_widths,
    term_to_state,
)
from cob3.rewrite import _entries
from cob3.terms import ArityMismatch, parse, print_term, random_term, typecheck


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


ALGEBRAS = [hadamard_algebra(), diagonal_algebra([1, 2], primes={"P": (2, 3)})]


@pytest.mark.parametrize(
    "module, computes, key, call",
    [
        (layers, "fold", "_state", term_to_state),
        (cospan, "cospan_of_state", "_cospan", cospan.cospan_of_term),
        (evaluate, "pieces", "_pieces", lambda t: [evaluate.eval_term(t, a) for a in ALGEBRAS]),
    ],
    ids=["state", "cospan", "pieces"],
)
def test_each_term_object_keeps_its_values_once(monkeypatch, module, computes, key, call):
    # a term's state, cospan and pieces are kept on it, outside the fields
    # that ==, hash, repr and printing read: each is computed once per term
    # object, however many times or algebras ask for it
    counted = getattr(module, computes)
    calls = []
    monkeypatch.setattr(module, computes, lambda *a: calls.append(a) or counted(*a))
    texts = ["m . pe(P) * id", "pe(P)", "(tr . unit) * comul"]
    for text in texts:
        term, twin = parse(text), parse(text)
        value = call(term)
        kept = vars(term)[key]
        assert call(term) == value and call(term) == value
        assert vars(term)[key] is kept
        assert term == twin and twin == term and hash(term) == hash(twin)
        assert repr(term) == repr(twin) and print_term(term) == print_term(twin) == text
        assert call(twin) == value
    assert len(calls) == 2 * len(texts)
    # an ill-typed term keeps nothing: it raises on every call
    bad = parse("m . m")
    for _ in range(2):
        with pytest.raises(ArityMismatch):
            call(bad)
    assert key not in vars(bad)


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
    with pytest.raises(ValueError):
        print_state((0,))


def test_state_widths():
    st = term_to_state(parse("m . (m * id)"))
    assert state_widths(st) == [3, 2, 1]


def test_pieces_are_numbered_in_the_order_they_start():
    # the unit's piece joins input 0's at the merge; the swap is on input 1's
    st = term_to_state(parse("(m * id) . (id * swap) . (id * id * unit)"))
    assert pieces(st) == ((0, 1), (0, 1, 0), 2, ((0,), (1,)), ((0,), (1,)))
    # a floating closed piece starts after the inputs, and a trace ends one
    st = term_to_state(parse("(tr . pu(P)) * tr * pe(Q)"))
    assert pieces(st) == ((0, 1), (2, 2, 0, 1), 1, ((0,), (1,), ()), ((), (0,), ()))


def test_interchange_layerings_equal():
    a = parse("(m * id * id) . (id * id * comul)")
    b = parse("(id * comul) . (m * id)")
    assert diagram_equal(a, b)
    assert kernel.nf(term_to_state(a)) == kernel.nf(term_to_state(b))


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


# The slide class as a graph of plain triple tuples, walked breadth-first:
# the reference that kernel.nf's search is checked against, on classes of
# at most ORACLE_CAP members.

ORACLE_CAP = 4096


def _neighbours(seq):
    """Layer orders one legal transposition away from `seq`."""
    out = []
    n = len(seq)
    for i in range(n - 1):
        o1, g1, l1 = seq[i]
        o2, g2, l2 = seq[i + 1]
        if o2 + GEN_DOM[g2] <= o1:
            out.append(
                seq[:i]
                + ((o2, g2, l2), (o1 + GEN_COD[g2] - GEN_DOM[g2], g1, l1))
                + seq[i + 2 :]
            )
        if o2 >= o1 + GEN_COD[g1]:
            out.append(
                seq[:i]
                + ((o2 - GEN_COD[g1] + GEN_DOM[g1], g2, l2), (o1, g1, l1))
                + seq[i + 2 :]
            )
    return out


def _layers(state):
    return tuple(
        (state[p], state[p + 1], state[p + 2]) for p in range(1, len(state), 3)
    )


def _flat(dom, seq):
    return (dom,) + tuple(x for t in seq for x in t)


def legal_shuffle(state, rng, walk=12):
    """Random walk over single adjacent transpositions."""
    seq = _layers(state)
    for _ in range(walk):
        nbs = _neighbours(seq)
        if not nbs:
            break
        seq = rng.choice(nbs)
    return _flat(state[0], seq)


def slide_class(state, cap):
    """Breadth-first set of the state's layer orders, cut once past `cap`."""
    first = _layers(state)
    seen = {first}
    queue = [first]
    for cur in queue:
        for nb in _neighbours(cur):
            if nb not in seen:
                seen.add(nb)
                if len(seen) > cap:
                    return seen
                queue.append(nb)
    return seen


def class_min_oracle(state):
    """The least member of the state's slide class by a plain tuple BFS, or
    None when the class has more than ORACLE_CAP members."""
    members = slide_class(state, ORACLE_CAP)
    if len(members) > ORACLE_CAP:
        return None
    return _flat(state[0], min(members))


@st.composite
def layered_states(draw, pads=(0, 1, 256, 4097)):
    """Random states: unlabelled, or with P, Q and metavariable labels,
    behind one of `pads` untouched wires on the left."""
    gens = range(len(GEN_DOM)) if draw(st.booleans()) else (0, 1, 2, 3, 4)
    pad = draw(st.sampled_from(pads))
    width = draw(st.integers(0, 4))
    out = [pad + width]
    for _ in range(draw(st.integers(2, 9))):
        g = draw(st.sampled_from([g for g in gens if GEN_DOM[g] <= width]))
        off = draw(st.integers(0, width - GEN_DOM[g]))
        lab = draw(st.sampled_from(("P", "Q", "?p"))) if g in (PE, PU) else ""
        out += (pad + off, g, lab)
        width += GEN_COD[g] - GEN_DOM[g]
    return tuple(out)


@st.composite
def floating_states(draw):
    """Random states made mostly of 0-input and 0-output boxes (unit, pu,
    tr), with pe boxes for their wires to enter, so a box often starts a
    wire right where a tr ended one and both slide conditions hold at once."""
    width = draw(st.integers(0, 2))
    out = [width]
    for _ in range(draw(st.integers(2, 9))):
        g = draw(st.sampled_from((UNIT, PU, TR, PE) if width else (UNIT, PU)))
        off = draw(st.integers(0, width - GEN_DOM[g]))
        out += (off, g, draw(st.sampled_from(("P", "Q"))) if g in (PE, PU) else "")
        width += GEN_COD[g] - GEN_DOM[g]
    return tuple(out)


@st.composite
def big_class_states(draw):
    """A random state beside six boxes that touch none of its wires: a pe on
    a wire of its own or a floating unit, each free to slide past every
    other layer, so the slide class has at least 8!/2! = 20160 members."""
    core = draw(st.one_of(layered_states(pads=(0,)), floating_states()))
    extras = draw(st.lists(st.sampled_from((PE, UNIT)), min_size=6, max_size=6))
    base = state_widths(core)[-1]  # the first wire of the pe boxes
    width = base + extras.count(PE)
    out = [core[0] + extras.count(PE), *core[1:]]
    for g in extras:
        if g == PE:
            out += (base, PE, "P")
            base += 1
        else:
            out += (width, UNIT, "")
            width += 1
    return tuple(out)


# six distinct (gen, label) pairs at offsets past 256
WIDE = (
    301, 300, 6, "Q", 300, 5, "?p", 301, 1, "", 300, 0, "", 299, 5, "P", 300, 2, ""
)
# a unit, a pu and a unit, each starting a wire where a tr has just ended one
TR_THEN_FLOATS = (1, 0, 3, "", 0, 1, "", 0, 3, "", 0, 6, "P", 0, 3, "", 0, 1, "")
# two floating `unit . tr` scalars: the class has 5 members
TWO_SCALARS = (0, 0, 1, "", 0, 3, "", 0, 1, "", 0, 3, "")
# (class size, state) for two classes past the oracle's usual cap
PAST_THE_CAP = [
    (4680, (2, 0, 3, "", 0, 3, "", 0, 1, "", 0, 1, "", 1, 1, "", 0, 6, "P")),
    (38640, (1, 0, 3, "", 0, 1, "", 1, 1, "", 2, 1, "", 1, 2, "", 0, 1, "", 1, 1, "", 2, 5, "P")),
]


@settings(max_examples=200, deadline=None)
@given(st.one_of(layered_states(), floating_states()))
@example(WIDE)
@example((0,) + (0, 1, "", 0, 6, "P", 1, 6, "Q") * 3)
@example(TR_THEN_FLOATS)
@example(TWO_SCALARS)
@example((1, 0, 1, "", 0, 0, ""))  # m . (unit * id): a class of one with a unit
# a class of one on which a search of the whole class backtracks
@example((1, 0, 5, "P", 0, 2, "", 1, 1, "", 1, 3, "", 0, 0, "", 0, 2, ""))
@example((1, 0, 6, "P", 0, 0, "", 0, 3, "", 0, 1, ""))  # the search meets a dead end
def test_nf_is_the_least_member_of_its_slide_class(state):
    want = class_min_oracle(state)
    if want is not None:
        assert kernel.nf(state) == want


# the identity sides a search inserts
INSERTED_SIDES = [(pat, rep) for pat, rep in _entries("CF_LEGS")[0] if len(pat) == 1]


@settings(max_examples=20, deadline=None)
@given(st.one_of(layered_states(pads=(0, 1)), floating_states()).map(kernel.nf))
def test_nf_of_each_insertion_child_is_the_least_member_of_its_class(state):
    # the children `apply_insertion` builds, the states a search normalizes
    # most; no wide pads, whose every wire is a spot
    for pat, rep in INSERTED_SIDES:
        for lvl, col in kernel.find_insertions(state, pat[0]):
            child = kernel.apply_insertion(state, lvl, col, rep)
            want = class_min_oracle(child)
            if want is not None:
                assert kernel.nf(child) == want


def unit_rich_states(seed):
    """A random term with one to four floating unit or pu boxes tensored in
    at random places: every layer order of those boxes is one diagram."""
    rng = random.Random(seed)
    parts = [f"({print_term(random_term(rng, max_gens=5))})"]
    for _ in range(rng.randint(1, 4)):
        box = rng.choice(("unit", "pu(P)", "pu(Q)", "pe(P) . unit"))
        parts.insert(rng.randint(0, len(parts)), f"({box})")
    return term_to_state(parse(" * ".join(parts)))


@settings(max_examples=150, deadline=None)
@given(st.one_of(
    layered_states(pads=(0, 1)),
    floating_states(),
    st.integers(0, 2**32).map(unit_rich_states),
))
@example(TR_THEN_FLOATS)
@example(TWO_SCALARS)
def test_wiring_key_takes_one_value_on_a_slide_class(state):
    members = slide_class(state, 500)
    keys = {kernel.wiring_key(_flat(state[0], seq)) for seq in members}
    assert keys == {kernel.wiring_key(state)}
    assert kernel.wiring_key(kernel.nf(state)) == kernel.wiring_key(state)


def printed_under_hash_seed(code, hash_seed):
    """What `code` prints when a new interpreter runs it, with cob3 on its
    path, under PYTHONHASHSEED=hash_seed."""
    src = os.path.dirname(os.path.dirname(kernel.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed), PYTHONPATH=path)
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


# two states of the cowaist search with tr on different outputs: the key
# that added the top cut's hash to a sum of box hashes gave them one value
# under PYTHONHASHSEED=0
COLLIDING = [
    f"{top} . (id * id) * m . (id * id * id) * pe(P) . comul * id * id . comul * id . unit * id"
    for top in ("(id * id) * tr", "id * tr * id")
]


def test_wiring_keys_of_two_classes_that_once_collided_differ():
    a, b = (term_to_state(parse(text)) for text in COLLIDING)
    assert kernel.nf(a) != kernel.nf(b)
    assert kernel.wiring_key(a) != kernel.wiring_key(b)
    code = (
        "from cob3.kernel import wiring_key\n"
        "from cob3.layers import term_to_state\n"
        "from cob3.terms import parse\n"
        f"a, b = (wiring_key(term_to_state(parse(t))) for t in {COLLIDING!r})\n"
        "print(a != b)\n"
    )
    for hash_seed in (0, 1):
        assert printed_under_hash_seed(code, hash_seed) == "True\n"


@pytest.mark.parametrize("size, state", PAST_THE_CAP)
def test_nf_is_the_least_member_of_a_class_past_the_oracle_cap(size, state):
    members = slide_class(state, size)
    assert len(members) == size
    assert kernel.nf(state) == _flat(state[0], min(members))


@settings(max_examples=40, deadline=None)
@given(big_class_states(), st.randoms(use_true_random=False))
def test_nf_is_unchanged_by_slides_on_classes_far_over_the_oracle_cap(state, rng):
    assert len(slide_class(state, ORACLE_CAP)) > ORACLE_CAP
    want = kernel.nf(state)
    assert kernel.nf(want) == want
    for _ in range(3):
        assert kernel.nf(legal_shuffle(state, rng, walk=60)) == want


def test_nf_shuffle_agreement_and_idempotence():
    rng = random.Random(20260814)
    for _ in range(250):
        t = random_term(rng, max_gens=9)
        st = term_to_state(t)
        a = kernel.nf(st)
        assert kernel.nf(a) == a
        sh = legal_shuffle(st, rng)
        assert kernel.nf(sh) == a, (st, sh)


def test_nf_y_junction_both_orders():
    # a 0-output box ending a wire exactly where a 0-input box starts one:
    # both pass orders are legal and land in the same class
    a = nf_of("unit . tr")
    b = nf_of("(tr * id) . (id * unit)")
    c = nf_of("(id * tr) . (unit * id)")
    assert a == b == c


def test_nf_oversized_class_is_deterministic_and_idempotent():
    # ten floating units: 10! orders of one diagram, and the least one has
    # every unit at column 0, each born left of the ones before it
    least = (0,) + (0, UNIT, "") * 10
    staircase = (0,) + tuple(x for i in range(10) for x in (i, UNIT, ""))
    assert kernel.nf(staircase) == least
    assert kernel.nf(least) == least


def test_render_after_nf_round_trip():
    rng = random.Random(7)
    for _ in range(100):
        t = random_term(rng, max_gens=8)
        st = kernel.nf(term_to_state(t))
        back = state_to_term(st)
        assert term_to_state(back) == st
        assert typecheck(back) == typecheck(t)


def random_term_states(seed):
    return term_to_state(random_term(random.Random(seed), max_gens=14, labels=("P", "Q")))


@settings(max_examples=150, deadline=None)
@given(st.one_of(layered_states(), floating_states(), st.integers(0, 2**32).map(random_term_states)))
@example((1,))
@example((5,))
@example(WIDE)
def test_print_state_is_the_rendered_term_printed(state):
    # wide states included: layered_states pads up to 4097 wires
    for s in (state, kernel.nf(state)):
        assert print_state(s) == print_term(state_to_term(s))


def test_gen_tables_consistent():
    assert len(GEN_DOM) == len(GEN_COD) == 7
    assert GEN_DOM[0] == 2 and GEN_COD[0] == 1  # merge
    assert GEN_DOM[4] == GEN_COD[4] == 2  # crossing
    assert GEN_DOM == (2, 0, 1, 1, 2, 1, 0)
    assert GEN_COD == (1, 1, 2, 0, 2, 1, 1)
