"""Equational rule table: membership, soundness, single-step application."""

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cob3 import (
    RULE_SETS,
    RULES,
    NoMatch,
    UnknownRuleSet,
    apply_rule,
    cospan_of_term,
    find_path,
    parse,
    terms_equal,
    typecheck,
    verify_ruleset_soundness,
)
from cob3.kernel import nf, successors
from cob3.layers import PU, diagram_equal, state_to_term, term_to_state
from cob3.rewrite import _rule_entries, ruleset
from cob3.terms import random_term


def test_rule_set_sizes():
    assert len(RULE_SETS["CF"]) == 23
    assert len(RULE_SETS["CF_LEGS"]) == 24
    assert len(RULE_SETS["G2_FULL"]) == 28
    assert set(RULE_SETS["CF"]) < set(RULE_SETS["CF_LEGS"]) < set(
        RULE_SETS["G2_FULL"]
    )
    assert "legs" not in RULE_SETS["CF"]
    for extra in ("waist", "colegs", "cowaist", "primecomm"):
        assert extra not in RULE_SETS["CF_LEGS"]


def test_unknown_set_rejected():
    with pytest.raises(UnknownRuleSet):
        ruleset("EVERYTHING")


def test_all_rules_type_balanced():
    for rule in RULES.values():
        assert typecheck(rule.lhs) == typecheck(rule.rhs)


@pytest.mark.parametrize("name", sorted(RULE_SETS["G2_FULL"]))
def test_rule_preserves_connectivity(name):
    rule = RULES[name]
    asg = {mv: f"L{i}" for i, mv in enumerate(rule.metavars)}

    def inst(t):
        from cob3.rewrite import _relabel

        return _relabel(t, lambda x: asg.get(x, x))

    assert terms_equal(inst(rule.lhs), inst(rule.rhs))


def test_full_soundness_report():
    report = verify_ruleset_soundness("G2_FULL")
    assert report["sound"] is True
    assert len(report["checked"]) == 28
    assert all(row["sound"] for row in report["checked"])


def test_apply_unit_collapse():
    out = apply_rule(parse("m . (unit * id)"), "unit_l")
    assert diagram_equal(out, parse("id"))


def test_apply_reverse_grows_identity():
    out = apply_rule(parse("id"), "unit_l", "rev")
    assert diagram_equal(out, parse("m . (unit * id)"))
    assert cospan_of_term(out) == cospan_of_term(parse("id"))


def test_apply_legs_moves_the_label():
    out = apply_rule(parse("m . (pe(P) * id)"), "legs")
    assert diagram_equal(out, parse("m . (id * pe(P))"))


def test_apply_rejects_bad_arguments():
    with pytest.raises(UnknownRuleSet):
        apply_rule(parse("m"), "no_such_rule")
    with pytest.raises(ValueError):
        apply_rule(parse("m"), "unit_l", "sideways")
    with pytest.raises(NoMatch):
        apply_rule(parse("comul"), "unit_l")
    with pytest.raises(TypeError):  # tree paths are no longer positions
        apply_rule(parse("m . (unit * id)"), "unit_l", "fwd", [1])


def test_apply_at_window_position():
    t = parse("m . (unit * id)")
    out = apply_rule(t, "unit_l", "fwd", {"bottom": 0, "layers": 2, "offset": 0})
    assert diagram_equal(out, parse("id"))
    with pytest.raises(NoMatch):
        apply_rule(t, "unit_l", "fwd", {"bottom": 0, "layers": 1, "offset": 0})
    with pytest.raises(NoMatch):
        apply_rule(t, "unit_l", "fwd", {"bottom": 1, "layers": 2, "offset": 0})
    # a zero-layer side is inserted at a level and column
    grown = apply_rule(t, "unit_l", "rev", {"bottom": 2, "layers": 0, "offset": 0})
    assert diagram_equal(grown, parse("m . (unit * id) . m . (unit * id)"))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**30))
def test_apply_rule_takes_the_windows_successors_lists(seed):
    # apply_rule and the search list a rule's windows one way: with no
    # position it returns the first step successors lists for the rule
    # direction, and at a listed position the first step there
    term = random_term(random.Random(seed), max_gens=6)
    state = nf(term_to_state(term))
    cap = (len(state) - 1) // 3 + 3  # no rule side has more than 3 layers
    for name in RULE_SETS["G2_FULL"]:
        for direction, entry in zip(("fwd", "rev"), _rule_entries(name)):
            steps = successors(state, [entry], cap)
            if not steps:
                with pytest.raises(NoMatch):
                    apply_rule(term, name, direction)
                continue
            assert apply_rule(term, name, direction) == state_to_term(nf(steps[0][4]))
            first = {}
            for _e, b, c, k, child in steps:
                first.setdefault((b, k, c), child)
            for (b, k, c), child in first.items():
                position = {"bottom": b, "layers": k, "offset": c}
                got = apply_rule(term, name, direction, position)
                assert got == state_to_term(nf(child)), (name, direction, position)


def test_metavariable_rules_bind_any_label():
    for label in ("P", "Q", "Zp17"):
        out = apply_rule(parse(f"pe({label}) . m"), "waist")
        assert diagram_equal(out, parse(f"m . (pe({label}) * id)"))


def test_primecomm_swaps_two_labels():
    out = apply_rule(parse("pe(A) . pe(B)"), "primecomm")
    assert diagram_equal(out, parse("pe(B) . pe(A)"))


def _pu_labels(term):
    state = term_to_state(term)
    return Counter(lab for gen, lab in zip(state[2::3], state[3::3]) if gen == PU)


def test_no_rule_changes_the_pu_count_of_any_label():
    # so no derivation in these sets joins two terms whose pu counts differ
    names = set().union(*RULE_SETS.values())
    assert len(names) == 28
    for name in sorted(names):
        rule = RULES[name]
        assert _pu_labels(rule.lhs) == _pu_labels(rule.rhs), name


def test_pe_of_the_unit_equals_pu_but_has_no_derivation():
    # pu(P) is pe(P) with its input filled in, and the invariant agrees; no
    # rule says so, so the search runs out of states instead
    a, b = parse("pe(P) . unit"), parse("pu(P)")
    assert terms_equal(a, b)
    r = find_path(a, b, rules="G2_FULL", max_steps=24, max_extra_layers=4)
    assert (r.found, r.reason, r.explored) == (False, "exhausted", 303)
