"""Window matcher, surgery, and one-step rewrites under a layer bound."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import kernel as kp
from cob3.layers import state_to_term, term_to_state
from cob3.rewrite import _entries, _rule_entries
from cob3.terms import parse, print_term, random_term

# hand-compiled rule sides (dom, then off/gen/lab per layer; lab "?p" is
# a metavariable, "" no label)
LEGS_L = (2, 0, 5, "?p", 0, 0, "")
LEGS_R = (2, 1, 5, "?p", 0, 0, "")
ASSOC_L = (3, 0, 0, "", 0, 0, "")
ASSOC_R = (3, 1, 0, "", 0, 0, "")
UNITL_L = (1, 0, 1, "", 0, 0, "")
UNITL_R = (1,)


def nf_of(text):
    return kp.nf(term_to_state(parse(text)))


def rendered(state):
    return print_term(state_to_term(state))


def test_zero_layer_pattern_rejected():
    with pytest.raises(ValueError):
        kp.find_matches(nf_of("m"), (1,))


def test_legs_match_skips_feeding_context():
    # m(pe(B).x (x) pe(A).unit): the unit/pe(A) stack feeding the right
    # input must slide below the window for the pe(B) leg to match
    u = nf_of("m . (pe(B) * (pe(A) . unit))")
    ms = kp.find_matches(u, LEGS_L)
    assert len(ms) == 1
    res = kp.apply_match(u, ms[0], LEGS_R)
    assert res == nf_of("m . (id * (pe(B) . pe(A) . unit))")


def test_assoc_match_through_parked_wire():
    s = nf_of("m . (m * (pe(P) . unit))")
    ms = kp.find_matches(s, ASSOC_L)
    assert len(ms) == 1
    res = kp.apply_match(s, ms[0], ASSOC_R)
    assert res == nf_of("m . (id * m) . (id * id * (pe(P) . unit))")


def test_assoc_no_false_match_on_right_feeding_m():
    s = nf_of("m . ((pe(P) . unit) * m)")
    assert kp.find_matches(s, ASSOC_L) == []


def test_context_moves_above_the_window():
    # colegs' right side (id * pe(?p)) . comul: the left leg's pe(P) sits
    # on the comul output, so it can only leave the window upward
    (lhs, rhs), _ = _rule_entries("colegs")
    s = nf_of("(pe(P) * pe(P)) . comul")
    ms = kp.find_matches(s, rhs)
    assert [m[:3] for m in ms] == [(0, 0, (0, 2))]
    assert ms[0][3] == () and ms[0][4] == (0, 5, "P")
    assert kp.apply_match(s, ms[0], lhs) == nf_of("(pe(P) * id) . (pe(P) * id) . comul")


def test_unit_collapse_with_bystander():
    s = nf_of("m . (unit * pe(Q))")
    ms = kp.find_matches(s, UNITL_L)
    assert len(ms) == 1
    assert kp.apply_match(s, ms[0], UNITL_R) == nf_of("pe(Q)")


def test_metavariable_binding_repeats():
    pat = (1, 0, 5, "?p", 0, 5, "?p")  # pe(?p) . pe(?p)
    assert len(kp.find_matches(nf_of("pe(A) . pe(A)"), pat)) == 1
    assert kp.find_matches(nf_of("pe(A) . pe(B)"), pat) == []


def test_two_distinct_metavariables():
    pat = (1, 0, 5, "?q", 0, 5, "?p")  # pe(?p) . pe(?q)
    ms = kp.find_matches(nf_of("pe(A) . pe(B)"), pat)
    assert len(ms) == 1
    swapped = (1, 0, 5, "?p", 0, 5, "?q")
    res = kp.apply_match(nf_of("pe(A) . pe(B)"), ms[0], swapped)
    assert res == nf_of("pe(B) . pe(A)")


def test_insertions_lowest_representative_only():
    s = nf_of("pe(A) . pe(B)")
    spots = kp.find_insertions(s, 1, 2)
    assert spots == [(0, 0), (1, 0), (2, 0)]
    grown = kp.apply_insertion(s, 2, 0, UNITL_L)
    assert grown == nf_of("m . (unit * id) . pe(A) . pe(B)")


def test_insertion_prunes_disjoint_columns():
    s = nf_of("pe(A) * id")
    spots = kp.find_insertions(s, 1, 2)
    # level-1 placements fully right of the pe hull are slide-equivalent
    # to level-0 ones and must not reappear
    assert (1, 1) not in spots
    assert (0, 1) in spots


def test_successors_orders_by_entry():
    entries, legend = _entries("CF_LEGS")
    s = nf_of("m . (pe(B) * (pe(A) . unit))")
    succ = kp.successors(s, entries, 20)
    idx = [t[0] for t in succ]
    assert idx == sorted(idx)
    assert all(len(t) == 5 for t in succ)
    assert len(set(idx)) > 3
    assert len(legend) == len(entries)


def n_layers(state):
    return (len(state) - 1) // 3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_layer_bound_only_drops_oversized_rewrites(seed):
    s = kp.nf(term_to_state(random_term(random.Random(seed), max_gens=6)))
    n = n_layers(s)
    for rules in ("CF", "CF_LEGS", "G2_FULL"):
        entries, _ = _entries(rules)
        unreachable = n + max(n_layers(rep) for _pat, rep in entries)
        everything = kp.successors(s, entries, unreachable)
        for bound in range(n - 2, n + 5):
            kept = [t for t in everything if n_layers(t[4]) <= bound]
            assert kp.successors(s, entries, bound) == kept


# sha256 of the successor lists below. A deliberate change to what the
# matcher finds updates it and says so in CHANGES.md.
SUCCESSORS_DIGEST = "7d7fa1cf6fa0b2050b285f5eaa33a5d0bea16b44f19bc556aa5265ed9e5b4d1f"


def test_successor_lists_are_pinned():
    h = hashlib.sha256()
    count = 0
    for rules in ("CF_LEGS", "G2_FULL"):
        entries, _ = _entries(rules)
        for seed in range(100):
            s = kp.nf(term_to_state(random_term(random.Random(seed), max_gens=5)))
            succ = kp.successors(s, entries, n_layers(s) + 3)
            count += len(succ)
            h.update(repr(succ).encode())
    assert count == 7013
    assert h.hexdigest() == SUCCESSORS_DIGEST


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_successors_stop_at_the_first_state_in_until(seed):
    rng = random.Random(seed)
    s = kp.nf(term_to_state(random_term(rng, max_gens=5)))
    bound = n_layers(s) + 3
    for rules in ("CF_LEGS", "G2_FULL"):
        entries, _ = _entries(rules)
        full = kp.successors(s, entries, bound)
        states = [t[4] for t in full]
        # some of the successors (a dict, as find_path passes) and a state
        # that is none of them
        until = dict.fromkeys(rng.sample(states, min(len(states), rng.randint(0, 3))))
        until[s] = None
        got = kp.successors(s, entries, bound, until)
        # a list, not a generator: perfbench's tracer takes its len
        assert isinstance(got, list)
        cut = next((i + 1 for i, ns in enumerate(states) if ns in until), len(full))
        assert got == full[:cut]
