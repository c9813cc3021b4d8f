"""Window matcher, surgery, and one-step rewrites under a layer bound."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import kernel as kp
from cob3.layers import GEN_COD, GEN_DOM, state_to_term, state_widths, term_to_state
from cob3.rewrite import _entries, _rule_entries
from cob3.terms import parse, print_term, random_term
from test_layers import ORACLE_CAP, _layers, layered_states, slide_class

# hand-compiled rule sides (dom, then off/gen/lab per layer; lab "?p" is
# a metavariable, "" no label)
LEGS_L = (2, 0, 5, "?p", 0, 0, "")
LEGS_R = (2, 1, 5, "?p", 0, 0, "")
ASSOC_L = (3, 0, 0, "", 0, 0, "")
ASSOC_R = (3, 1, 0, "", 0, 0, "")
UNITL_L = (1, 0, 1, "", 0, 0, "")
UNITL_R = (1,)
SWAP_SWAP = (2, 0, 4, "", 0, 4, "")


def nf_of(text):
    return kp.nf(term_to_state(parse(text)))


def rendered(state):
    return print_term(state_to_term(state))


def n_layers(state):
    return (len(state) - 1) // 3


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
    assert kp.nf(res) == nf_of("m . (id * (pe(B) . pe(A) . unit))")


def test_assoc_match_through_parked_wire():
    s = nf_of("m . (m * (pe(P) . unit))")
    ms = kp.find_matches(s, ASSOC_L)
    assert len(ms) == 1
    res = kp.apply_match(s, ms[0], ASSOC_R)
    assert kp.nf(res) == nf_of("m . (id * m) . (id * id * (pe(P) . unit))")


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
    assert kp.nf(kp.apply_match(s, ms[0], lhs)) == nf_of("(pe(P) * id) . (pe(P) * id) . comul")


def test_context_moves_above_an_upside_down_window_past_width_changes():
    # the waist side pe(?p) . m matches layers 1 and 5; the unit and the two
    # m between them change the width left of the window and must leave it
    # upward, which the upside-down scan gets right only with the arity
    # tables swapped
    s = (5, 0, 2, "", 3, 0, "", 3, 1, "", 2, 0, "", 1, 0, "", 2, 5, "P", 3, 2, "", 2, 4, "")
    assert kp.nf(s) == s
    (lhs, _rhs), _ = _rule_entries("waist")
    assert lhs == (2, 0, 0, "", 0, 5, "?p")
    ms = kp.find_matches(s, lhs)
    assert [m[:3] for m in ms] == [(1, 3, (1, 5))]
    assert ms[0][3] == () and ms[0][4] == (3, 1, "", 2, 0, "", 1, 0, "")


def test_unit_collapse_with_bystander():
    s = nf_of("m . (unit * pe(Q))")
    ms = kp.find_matches(s, UNITL_L)
    assert len(ms) == 1
    assert kp.nf(kp.apply_match(s, ms[0], UNITL_R)) == nf_of("pe(Q)")


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
    assert kp.nf(res) == nf_of("pe(B) . pe(A)")


def test_a_candidate_whose_context_leaves_its_wires_is_no_match():
    # the scan for swap . (unit * id) proposes a window whose context,
    # moved below it, ends the only wire with a tr and then starts pu(P)
    # at column 1, where there is no gap. nf of that rebuilt state raised
    # IndexError, so a search reaching this state ended in an internal error.
    s = (1, 1, 1, "", 1, 3, "", 1, 6, "P", 0, 4, "", 2, 6, "Q", 1, 4, "", 2, 2, "",
         1, 4, "", 0, 4, "", 2, 4, "")
    assert kp.nf(s) == s
    assert kp.find_matches(s, (1, 0, 1, "", 0, 4, "")) == []


def test_insertions_one_per_wire_segment():
    s = nf_of("pe(A) . pe(B)")
    spots = kp.find_insertions(s, 1)
    # each pe starts a new segment
    assert spots == [(0, 0), (1, 0), (2, 0)]
    grown = kp.apply_insertion(s, 2, 0, UNITL_L)
    assert kp.nf(grown) == nf_of("m . (unit * id) . pe(A) . pe(B)")


def test_insertions_skip_a_segment_the_layer_below_leaves_alone():
    s = nf_of("pe(A) * id")
    spots = kp.find_insertions(s, 1)
    # the right wire is one segment from bottom to top, so a level-1
    # placement on it repeats the level-0 one
    assert (1, 1) not in spots
    assert (0, 1) in spots


def test_a_floating_scalar_between_two_wires_ends_their_run():
    # unit . tr between the wires: swap . swap below it and above it are
    # different diagrams, so both placements are kept
    s = nf_of("(id * tr * id) . (id * unit * id)")
    assert kp.find_insertions(s, 2) == [(0, 0), (1, 0), (1, 1), (2, 0)]
    below, above = (kp.nf(kp.apply_insertion(s, b, 0, SWAP_SWAP)) for b in (0, 2))
    assert below != above


# find_insertions before it kept one placement per wire segment: every
# (level, col) where the side's wires fit, except those whose block does not
# meet the layer directly below within `hull` (the widest level of the
# inserted side). The reference the keyed list is checked against.


def all_insertions(state, width, hull):
    widths = state_widths(state)
    out = []
    for lvl in range(len(widths)):
        for col in range(widths[lvl] - width + 1):
            if lvl > 0:
                o, g = state[3 * lvl - 2], state[3 * lvl - 1]
                if o + max(GEN_DOM[g], GEN_COD[g]) <= col or o >= col + hull:
                    continue
            out.append((lvl, col))
    return out


def reference_successors(state, entries, max_layers):
    """kp.successors with every zero-layer side inserted at all_insertions'
    placements, and each child normalised."""
    n = n_layers(state)
    out = []
    for e, (pat, rep) in enumerate(entries):
        k = n_layers(pat)
        if n - k + n_layers(rep) > max_layers:
            continue
        if k:
            out += [
                (e, *t[1:4], kp.nf(t[4]))
                for t in kp.successors(state, ((pat, rep),), max_layers)
            ]
        else:
            hull = max(state_widths(rep))
            out += [
                (e, b, c, 0, kp.nf(kp.apply_insertion(state, b, c, rep)))
                for b, c in all_insertions(state, pat[0], hull)
            ]
    return out


def slid_down(state, lvl, col, width):
    """Where a block on the `width` wires at (lvl, col) ends when slid down
    its wires past every layer whose outputs it does not meet."""
    while lvl:
        o, g = state[3 * lvl - 2], state[3 * lvl - 1]
        if col >= o + GEN_COD[g]:
            col -= GEN_COD[g] - GEN_DOM[g]
        elif col + width > o:
            break
        lvl -= 1
    return lvl, col


def first_positions(state, spots, rep):
    out = {}
    for b, c in spots:
        out.setdefault(kp.nf(kp.apply_insertion(state, b, c, rep)), (b, c))
    return out


ZERO_LAYER_ENTRIES = [e for e in _entries("G2_FULL")[0] if n_layers(e[0]) == 0]


def random_state(seed):
    return kp.nf(term_to_state(random_term(random.Random(seed), max_gens=6)))


# find_matches before the per-state view and the early exits of _verify: it
# computed both widths lists and both upside-down tuples on every call,
# scanned every side from every layer, and normalised every well-typed
# rebuilt candidate. The reference the viewed, prefiltered, filtered
# matcher is checked against; its scan is a copy of the kernel's per-side
# scan from before all sides were anchored in one walk, so it shares no
# code with the matcher under test.


def upside_down(state, top):
    out = [top, *state[1:]]
    out[1::3] = state[-3:0:-3]
    out[2::3] = state[-2:0:-3]
    out[3::3] = state[-1:0:-3]
    return tuple(out)


def bind(pl, l, bindings):
    if pl[:1] != "?":
        return pl == l
    return bindings.setdefault(pl, l) == l


def oracle_scan(state, pat, pw, widths, n, k, dom, cod):
    """Anchor the top pattern layer at every layer and scan downward,
    skipping context layers below the window; yields (delta, matched,
    skipped, bindings), both lists from the top down."""
    top_off, top_gen, top_lab = pat[3 * k - 2 : 3 * k + 1]
    for it in range(n):
        p = 1 + 3 * it
        if state[p + 1] != top_gen:
            continue
        delta = shift = state[p] - top_off
        if shift < 0 or shift + pw[k] > widths[it + 1]:
            continue
        bindings = {}
        if not bind(top_lab, state[p + 2], bindings):
            continue
        matched, skipped = [it], []
        j, i = k - 2, it - 1
        while j >= 0 and i >= 0:
            o2, g2, l2 = state[1 + 3 * i : 4 + 3 * i]
            if g2 == pat[2 + 3 * j] and o2 == pat[1 + 3 * j] + shift and bind(
                pat[3 + 3 * j], l2, bindings
            ):
                matched.append(i)
                j -= 1
            elif o2 + max(dom[g2], cod[g2]) <= shift:
                skipped.append((o2, g2, l2))
                shift -= cod[g2] - dom[g2]
            else:
                adj = o2 - (pw[j + 1] - pw[0])
                if adj < 0:
                    break
                skipped.append((adj, g2, l2))
            i -= 1
        if j < 0:
            yield delta, matched, skipped, bindings


def scan_candidates(state, pat):
    """Every candidate window of both scans, unverified, in scan order."""
    k = n_layers(pat)
    n = n_layers(state)
    if k > n:
        return []
    pw = state_widths(pat)
    widths = state_widths(state)
    cands = []
    for delta, m, skipped, bindings in oracle_scan(
        state, pat, pw, widths, n, k, GEN_DOM, GEN_COD
    ):
        below = tuple(x for t in reversed(skipped) for x in t)
        cands.append((m[-1], delta, tuple(reversed(m)), below, (), bindings))
    for delta, m, skipped, bindings in oracle_scan(
        upside_down(state, widths[n]), upside_down(pat, pw[k]),
        pw[::-1], widths[::-1], n, k, GEN_COD, GEN_DOM,
    ):
        matched = tuple(n - 1 - i for i in m)
        above = tuple(x for t in skipped for x in t)
        cands.append((matched[0], delta, matched, (), above, bindings))
    return cands


def rebuilt_with_side(state, pat, cand):
    return kp._rebuild(state, cand, kp.instantiate(pat, cand[5], cand[1]))


def well_typed(state):
    width = state[0]
    for o, g in zip(state[1::3], state[2::3]):
        if o < 0 or o + GEN_DOM[g] > width:
            return False
        width += GEN_COD[g] - GEN_DOM[g]
    return True


def nf_only_check(state, pat, cand):
    """_verify with no early exit: rebuild, check every layer fits, compare
    normal forms."""
    rebuilt = rebuilt_with_side(state, pat, cand)
    return well_typed(rebuilt) and kp.nf(rebuilt) == state


def reference_matches(state, pat):
    seen = {}
    for cand in scan_candidates(state, pat):
        key = (cand[0], cand[1], cand[2])
        if key not in seen and nf_only_check(state, pat, cand):
            seen[key] = cand
    return sorted(seen.values())


MATCHED_SIDES = sorted(
    {pat for rules in ("CF", "CF_LEGS", "G2_FULL") for pat, _rep in _entries(rules)[0]
     if n_layers(pat)},
    key=repr,
)


# normal-form states for the matcher: layered, random, and bare identities
MATCHER_STATES = st.one_of(
    layered_states(pads=(0, 1)).map(kp.nf),
    st.integers(0, 2**30).map(random_state),
    st.sampled_from(["id", "id * id", "id * id * id"]).map(nf_of),
)


MATCHED_TABLE = kp.Table([(pat, pat) for pat in MATCHED_SIDES])


def successors_view(state):
    """The view `successors` builds for `state` over every matched side."""
    views = []
    view = kp.View
    kp.View = lambda *args: views.append(view(*args)) or views[-1]
    try:
        kp.successors(state, MATCHED_TABLE, n_layers(state))
    finally:
        kp.View = view
    return views[0]


@settings(max_examples=60, deadline=None)
@given(MATCHER_STATES)
def test_matches_with_and_without_a_view_equal_the_reference(state):
    view = successors_view(state)
    for pat in MATCHED_SIDES:
        ref = reference_matches(state, pat)
        assert kp.find_matches(state, pat) == ref
        assert kp.find_matches(state, pat, view) == ref


@settings(max_examples=60, deadline=None)
@given(MATCHER_STATES)
def test_verify_agrees_with_the_normal_form_check_on_every_candidate(state):
    view = successors_view(state)
    for pat in MATCHED_SIDES:
        cands = view.cands.get(pat, [])
        assert cands == scan_candidates(state, pat)
        for cand in cands:
            assert kp._verify(state, pat, cand, view.key) == nf_only_check(state, pat, cand)
    assert view.key == kp.wiring_key(state)


def reference_step_list(state, entries, max_layers):
    """successors entry by entry: the reference's matches of each side of at
    least one layer, and every placement find_insertions lists."""
    n = n_layers(state)
    out = []
    for e, (pat, rep) in enumerate(entries):
        k = n_layers(pat)
        if n - k + n_layers(rep) > max_layers:
            continue
        if k:
            out += [(e, m[0], m[1], k, kp.apply_match(state, m, rep))
                    for m in reference_matches(state, pat)]
        else:
            out += [(e, b, c, 0, kp.apply_insertion(state, b, c, rep))
                    for b, c in kp.find_insertions(state, pat[0])]
    return out


@settings(max_examples=40, deadline=None)
@given(MATCHER_STATES, st.integers(-1, 3), st.integers(0, 2**30))
def test_successors_equal_the_per_entry_reference(state, extra, seed):
    rng = random.Random(seed)
    bound = n_layers(state) + extra
    for rules in ("CF", "CF_LEGS", "G2_FULL"):
        entries, _ = _entries(rules)
        ref = reference_step_list(state, entries, bound)
        assert kp.successors(state, entries, bound) == ref
        assert kp.successors(state, list(entries), bound) == ref  # compiled per call
        if ref:
            stop = rng.choice(ref)
            got = kp.successors(state, entries, bound, lambda step: step == stop)
            assert got == ref[: ref.index(stop) + 1]


def test_each_distinct_side_is_matched_once_per_state(monkeypatch):
    # comul . m is the left side of both frobenius_l and frobenius_r, and
    # comul . pe(?p) and m . pe(?p) * id are each two entries' side in G2_FULL
    entries, legend = _entries("G2_FULL")
    pat = nf_of("comul . m")
    sharing = [legend[e] for e, (side, _rep) in enumerate(entries) if side == pat]
    assert sharing == [("frobenius_l", "fwd"), ("frobenius_r", "fwd")]
    state = nf_of("(pe(P) * id) . comul . m . (pe(Q) * id)")
    bound = n_layers(state) + 3
    ref = reference_step_list(state, entries, bound)
    calls = []
    find_matches = kp.find_matches
    monkeypatch.setattr(
        kp, "find_matches", lambda s, p, view=None: calls.append(p) or find_matches(s, p, view)
    )
    got = kp.successors(state, entries, bound)
    assert got == ref
    assert pat in calls and len(calls) == len(set(calls))
    assert {t[0] for t in got if legend[t[0]][0].startswith("frobenius")} == {
        e for e, (side, _rep) in enumerate(entries) if side == pat
    }


def test_a_candidate_with_another_wiring_key_is_rejected_without_nf(monkeypatch):
    # pe(Q) sits on the one wire between m and comul. Both scans for
    # comul . m move it out of the window, onto m's right input below or
    # comul's right output above: well-typed rebuilt states of another
    # wiring, which _verify must reject without normalising them
    state = nf_of("comul . pe(Q) . m")
    pat = nf_of("comul . m")
    assert pat in MATCHED_SIDES
    cands = scan_candidates(state, pat)
    assert [(c[3], c[4]) for c in cands] == [((1, 5, "Q"), ()), ((), (1, 5, "Q"))]
    for cand in cands:
        rebuilt = rebuilt_with_side(state, pat, cand)
        assert well_typed(rebuilt) and kp.wiring_key(rebuilt) != kp.wiring_key(state)
        assert not nf_only_check(state, pat, cand)
    calls = []
    nf = kp.nf
    monkeypatch.setattr(kp, "nf", lambda s: calls.append(s) or nf(s))
    key = kp.wiring_key(state)
    assert [kp._verify(state, pat, c, key) for c in cands] == [False] * len(cands)
    assert calls == []


def test_a_candidate_with_the_same_wiring_key_is_decided_by_nf():
    # the scans for comul . m move the scalar unit . tr, which floats left of
    # the wire between m and comul, out of the window and between m's inputs
    # or comul's outputs: another face, which the wiring key does not see
    state = nf_of("comul . tr * id . unit * id . m")
    pat = nf_of("comul . m")
    cands = scan_candidates(state, pat)
    assert [(c[3], c[4]) for c in cands] == [
        ((1, 1, "", 1, 3, ""), ()), ((), (1, 1, "", 1, 3, "")),
    ]
    key = kp.wiring_key(state)
    for cand in cands:
        assert kp.wiring_key(rebuilt_with_side(state, pat, cand)) == key
        assert not kp._verify(state, pat, cand, key)


@settings(max_examples=40, deadline=None)
@given(st.one_of(layered_states(pads=(0, 1)), st.integers(0, 2**30).map(random_state)))
def test_insertions_keep_the_lowest_placement_of_each_slide_class(state):
    widths = state_widths(state)
    for pat, rep in ZERO_LAYER_ENTRIES:
        width = pat[0]
        ref = all_insertions(state, width, max(state_widths(rep)))
        kept = kp.find_insertions(state, width)
        rest = iter(ref)
        assert all(p in rest for p in kept)  # a subsequence of the reference
        everywhere = [
            (b, c) for b in range(len(widths)) for c in range(widths[b] - width + 1)
        ]
        assert kept == sorted({slid_down(state, b, c, width) for b, c in everywhere})
        classes = {}
        for b, c in ref:
            low = slid_down(state, b, c, width)
            if low == (b, c):
                continue
            if low not in classes:
                classes[low] = slide_class(kp.apply_insertion(state, *low, rep), ORACLE_CAP)
            if len(classes[low]) <= ORACLE_CAP:
                assert _layers(kp.apply_insertion(state, b, c, rep)) in classes[low]
            assert kp.nf(kp.apply_insertion(state, b, c, rep)) == kp.nf(
                kp.apply_insertion(state, *low, rep)
            )
        assert first_positions(state, kept, rep) == first_positions(state, ref, rep)


def test_successors_orders_by_entry():
    entries, legend = _entries("CF_LEGS")
    s = nf_of("m . (pe(B) * (pe(A) . unit))")
    succ = kp.successors(s, entries, 20)
    idx = [t[0] for t in succ]
    assert idx == sorted(idx)
    assert all(len(t) == 5 for t in succ)
    assert len(set(idx)) > 3
    assert len(legend) == len(entries)


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


# sha256 of the successor lists below, each child normalised. A deliberate
# change to what the matcher finds updates it and says so in CHANGES.md.
SUCCESSORS_DIGEST = "b39212013a79683250e7c37454a226361a7cb3712b805499548942a4a6a94ee1"


def successor_corpus():
    """(rules, state, successors as built) over 100 random states a rule set."""
    for rules in ("CF_LEGS", "G2_FULL"):
        entries, _ = _entries(rules)
        for seed in range(100):
            s = kp.nf(term_to_state(random_term(random.Random(seed), max_gens=5)))
            yield rules, s, kp.successors(s, entries, n_layers(s) + 3)


def test_successor_lists_are_pinned():
    h = hashlib.sha256()
    count = 0
    for _rules, _s, succ in successor_corpus():
        count += len(succ)
        h.update(repr([(*t[:4], kp.nf(t[4])) for t in succ]).encode())
    assert count == 5581
    assert h.hexdigest() == SUCCESSORS_DIGEST


def test_each_child_has_the_wiring_key_of_its_normal_form():
    built = 0
    for _rules, _s, succ in successor_corpus():
        for *_pos, child in succ:
            built += child != kp.nf(child)
            assert kp.wiring_key(child) == kp.wiring_key(kp.nf(child))
    # successors hands out children as built, and most are not normal forms
    assert built > 1000


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**30))
def test_successors_stop_at_the_first_state_in_until(seed):
    rng = random.Random(seed)
    s = kp.nf(term_to_state(random_term(rng, max_gens=5)))
    bound = n_layers(s) + 3
    for rules in ("CF_LEGS", "G2_FULL"):
        entries, _ = _entries(rules)
        full = kp.successors(s, entries, bound)
        # the classes of some of the successors, and the state's own, which
        # none of them is in
        states = [kp.nf(t[4]) for t in full]
        targets = set(rng.sample(states, min(len(states), rng.randint(0, 3)))) | {s}
        seen = []

        def until(step):
            seen.append(step)
            return kp.nf(step[4]) in targets

        got = kp.successors(s, entries, bound, until)
        # a list, not a generator: perfbench's tracer takes its len
        assert isinstance(got, list)
        cut = next((i + 1 for i, ns in enumerate(states) if ns in targets), len(full))
        assert got == seen == full[:cut]
