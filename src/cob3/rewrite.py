"""Equational rewriting for bordism terms.

The rule tables present the algebra of the three-holed sphere: a commutative
Frobenius structure (CF), optionally extended with prime-label mobility
(legs) and the derivable two-sided forms (waist, colegs, cowaist,
primecomm). Every rule preserves the connectivity invariant, so rewriting
never changes the bordism a term denotes.

Rewrites act on the canonical layered form of a term through the kernel:
a rule side is a diagram window, located anywhere in a state up to the
structural congruence. find_path searches for an equational derivation
between two terms by bidirectional breadth-first search over these one-step
rewrites and returns a replayable trace.

The two normal forms: G2 is the least layering of the diagram, and G1 is
the term's cospan written back as text by g1_text, so it names the bordism
and not the diagram.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass

from .cospan import LabelledCospan, cospan_of_term, terms_equal
from .kernel import Table, apply_insertion, nf, successors, wiring_key
from .layers import diagram_equal, print_state, state_to_term, state_widths, term_to_state
from .terms import (
    ArityMismatch,
    Compose,
    Tensor,
    Term,
    atom,
    fold,
    parse,
    print_term,
    routing,
    stack_text,
    typecheck,
)

__all__ = [
    "Rule",
    "RULES",
    "RULE_SETS",
    "UnknownRuleSet",
    "NoMatch",
    "ruleset",
    "apply_rule",
    "find_path",
    "replay",
    "RewriteTrace",
    "NotFoundWithinBound",
    "normalize_G1",
    "normalize_G2",
    "g1_text",
    "verify_ruleset_soundness",
]


class UnknownRuleSet(KeyError):
    """Requested rule set name is not a key of RULE_SETS."""

    def __str__(self) -> str:  # KeyError would wrap the message in quotes
        return self.args[0] if self.args else "unknown rule set"


class NoMatch(ValueError):
    """A rule does not apply at the requested position."""


@dataclass(frozen=True)
class Rule:
    """A bidirectional equation between two diagram windows."""

    name: str
    lhs: Term
    rhs: Term
    metavars: tuple[str, ...]


def _relabel(term: Term, f) -> Term:
    """term with every prime label x replaced by f(x)."""
    return fold(term, lambda name, label: atom(name, label and f(label)), Compose, Tensor)


def _side(text: str) -> Term:
    """Parse a rule side; ?x metavariables are smuggled past the tokenizer."""
    term = parse(text.replace("?", "__mv_"))
    return _relabel(term, lambda x: x.replace("__mv_", "?"))


def _rule(name: str, lhs: str, rhs: str) -> Rule:
    left, right = _side(lhs), _side(rhs)
    if typecheck(left) != typecheck(right):
        raise ArityMismatch(f"rule {name} relates differently-typed sides")
    metavars = tuple(sorted(set(re.findall(r"\?[a-z]\w*", lhs + rhs))))
    return Rule(name, left, right, metavars)


_RULE_DEFS = [
    ("assoc", "m . (m * id)", "m . (id * m)"),
    ("comm", "m . swap", "m"),
    ("unit_l", "m . (unit * id)", "id"),
    ("unit_r", "m . (id * unit)", "id"),
    ("coassoc", "(comul * id) . comul", "(id * comul) . comul"),
    ("cocomm", "swap . comul", "comul"),
    ("counit_l", "(tr * id) . comul", "id"),
    ("counit_r", "(id * tr) . comul", "id"),
    ("frobenius_l", "comul . m", "(m * id) . (id * comul)"),
    ("frobenius_r", "comul . m", "(id * m) . (comul * id)"),
    ("swap_inv", "swap . swap", "id * id"),
    ("nat_swap_m_l", "swap . (m * id)", "(id * m) . (swap * id) . (id * swap)"),
    ("nat_swap_m_r", "swap . (id * m)", "(m * id) . (id * swap) . (swap * id)"),
    (
        "nat_swap_comul_l",
        "(swap * id) . (id * swap) . (comul * id)",
        "(id * comul) . swap",
    ),
    (
        "nat_swap_comul_r",
        "(id * swap) . (swap * id) . (id * comul)",
        "(comul * id) . swap",
    ),
    ("nat_swap_unit_l", "swap . (unit * id)", "id * unit"),
    ("nat_swap_unit_r", "swap . (id * unit)", "unit * id"),
    ("nat_swap_tr_l", "(tr * id) . swap", "id * tr"),
    ("nat_swap_tr_r", "(id * tr) . swap", "tr * id"),
    ("nat_swap_pe_l", "swap . (pe(?p) * id)", "(id * pe(?p)) . swap"),
    ("nat_swap_pe_r", "swap . (id * pe(?p))", "(pe(?p) * id) . swap"),
    ("nat_swap_pu_l", "swap . (pu(?p) * id)", "id * pu(?p)"),
    ("nat_swap_pu_r", "swap . (id * pu(?p))", "pu(?p) * id"),
    ("legs", "m . (pe(?p) * id)", "m . (id * pe(?p))"),
    ("waist", "pe(?p) . m", "m . (pe(?p) * id)"),
    ("colegs", "(pe(?p) * id) . comul", "(id * pe(?p)) . comul"),
    ("cowaist", "comul . pe(?p)", "(pe(?p) * id) . comul"),
    ("primecomm", "pe(?p) . pe(?q)", "pe(?q) . pe(?p)"),
]

#: All rules by name; each is a bidirectional equation.
RULES: dict[str, Rule] = {n: _rule(n, l, r) for n, l, r in _RULE_DEFS}

_CF = tuple(n for n, _, _ in _RULE_DEFS[:23])

#: Rule set names to member rule names, smallest presentation first.
RULE_SETS: dict[str, tuple[str, ...]] = {
    "CF": _CF,
    "CF_LEGS": _CF + ("legs",),
    "G2_FULL": _CF + ("legs", "waist", "colegs", "cowaist", "primecomm"),
}


def ruleset(name: str) -> tuple[Rule, ...]:
    try:
        return tuple(RULES[rn] for rn in RULE_SETS[name])
    except KeyError:
        raise UnknownRuleSet(
            f"unknown rule set {name!r}; choose from {', '.join(RULE_SETS)}"
        ) from None


# ---------------------------------------------------------------------------
# compilation to kernel entries

@functools.cache
def _rule_entries(name: str) -> tuple[tuple, tuple]:
    """The kernel entries (pattern, replacement) of a rule's fwd and rev
    directions; a side's metavariables are its "?x" labels."""
    rule = RULES[name]
    lhs, rhs = term_to_state(rule.lhs), term_to_state(rule.rhs)
    return (lhs, rhs), (rhs, lhs)


@functools.cache
def _entries(rules_name: str):
    """Kernel entries, compiled once as a `kernel.Table`, + (rule,
    direction) legend, in tie-break order.

    Entry 2i is a rule's fwd direction and entry 2i + 1 its rev, so e ^ 1
    is the opposite direction of entry e.
    """
    entries = []
    legend = []
    for rule in sorted(ruleset(rules_name), key=lambda r: r.name):
        entries += _rule_entries(rule.name)
        legend += ((rule.name, "fwd"), (rule.name, "rev"))
    return Table(entries), tuple(legend)


def _n_layers(state) -> int:
    return (len(state) - 1) // 3


# ---------------------------------------------------------------------------
# single-step application

def apply_rule(term: Term, rule_name: str, direction: str = "fwd", position=None) -> Term:
    """Apply one rule to a term and return the rewritten term.

    The windows are the ones `kernel.successors` lists for the rule
    direction in the term's canonical layered form, in its order. position
    selects one:
      * None: the first window listed;
      * a dict {"bottom", "layers", "offset"}, as reported in traces: the
        first window listed that starts at layer "bottom" and column
        "offset" and holds the rule direction's "layers"-layer pattern.
        A zero-layer side is inserted there whenever its wires fit, listed
        or not. Other keys, such as a trace's "in", are ignored.
    Raises NoMatch when the rule does not apply there.
    """
    if rule_name not in RULES:
        raise UnknownRuleSet(f"unknown rule {rule_name!r}")
    if direction not in ("fwd", "rev"):
        raise ValueError(f"direction must be 'fwd' or 'rev', not {direction!r}")
    if position is None:
        want = None
    elif isinstance(position, dict):
        want = tuple(int(position[key]) for key in ("bottom", "layers", "offset"))
    else:
        raise TypeError(f"position must be None or a window dict, not {position!r}")
    pat, rep = _rule_entries(rule_name)[direction == "rev"]
    state = nf(term_to_state(term))

    def at(step):
        return want is None or (step[1], step[3], step[2]) == want

    if want is not None and want[1] == _n_layers(pat) == 0:
        bottom, _, col = want
        widths = state_widths(state)
        if 0 <= bottom < len(widths) and 0 <= col <= widths[bottom] - pat[0]:
            return state_to_term(nf(apply_insertion(state, bottom, col, rep)))
    else:
        steps = successors(state, ((pat, rep),), _n_layers(state) + _n_layers(rep), at)
        if steps and at(steps[-1]):
            return state_to_term(nf(steps[-1][4]))
    raise NoMatch(f"{rule_name} ({direction}) does not apply at {position!r}")


# ---------------------------------------------------------------------------
# path search

@dataclass(frozen=True)
class TraceStep:
    rule: str
    direction: str
    position: dict  # {"bottom", "layers", "offset", "in"}, see find_path
    result: str  # canonical text of the state after this step


@dataclass(frozen=True)
class RewriteTrace:
    """A successful derivation: start rewrites to goal via steps."""

    start: str
    goal: str
    rules: str
    steps: tuple[TraceStep, ...]
    found: bool = True
    explored: int = 0

    def to_json(self) -> str:
        return json.dumps(
            {
                "found": True,
                "start": self.start,
                "goal": self.goal,
                "rules": self.rules,
                "explored": self.explored,
                "steps": [
                    {
                        "step": i,
                        "rule": s.rule,
                        "direction": s.direction,
                        "position": s.position,
                        "result": s.result,
                    }
                    for i, s in enumerate(self.steps)
                ],
            },
            indent=2,
        )


@dataclass(frozen=True)
class NotFoundWithinBound:
    """Search result when no derivation exists within the given bounds."""

    start: str
    goal: str
    rules: str
    reason: str  # "max_steps", "budget", or "exhausted"
    max_steps: int
    budget: int
    explored: int
    found: bool = False

    def to_json(self) -> str:
        return json.dumps(
            {
                "found": False,
                "start": self.start,
                "goal": self.goal,
                "rules": self.rules,
                "reason": self.reason,
                "max_steps": self.max_steps,
                "budget": self.budget,
                "explored": self.explored,
            },
            indent=2,
        )


def find_path(
    start,
    goal,
    rules: str = "CF_LEGS",
    max_steps: int = 16,
    budget: int = 200_000,
    max_extra_layers: int = 6,
):
    """Search for a derivation start -> goal inside one rule set.

    Bidirectional breadth-first search over one-step rewrites of canonical
    states, alternating strictly between the two ends. States are deduped by
    canonical form; ties break by rule name, direction, then window position.
    budget caps the total number of distinct canonical states stored;
    max_extra_layers caps how far intermediate diagrams may grow beyond the
    larger endpoint, keeping the space finite. Returns a RewriteTrace or a
    NotFoundWithinBound value. A negative bound raises ValueError: no
    search could honour it, and an empty one would report a false
    "exhausted".

    Children are stored as `successors` builds them, keyed by
    `kernel.wiring_key`, and normalised only when needed: when their side
    is about to expand them (a level is settled in order, the first child
    of each normal form kept), when their key is stored on the other side
    (`nf` equality is then the exact meet test, and `successors` stops
    there), when a side's next level must be tested for emptiness, and when
    the stored count, each unsettled child counted once, passes the budget.
    The result is the one an eager search that normalised every child
    would give; the key never reaches it.
    """
    for name, bound in (
        ("max_steps", max_steps),
        ("budget", budget),
        ("max_extra_layers", max_extra_layers),
    ):
        if bound < 0:
            raise ValueError(f"{name} must not be negative, got {bound}")
    if isinstance(start, str):
        start = parse(start)
    if isinstance(goal, str):
        goal = parse(goal)
    s0, g0 = term_to_state(start), term_to_state(goal)
    if (s0[0], state_widths(s0)[-1]) != (g0[0], state_widths(g0)[-1]):
        raise ArityMismatch("cannot search: endpoints have different interface widths")
    entries, legend = _entries(rules)
    s0, g0 = nf(s0), nf(g0)
    start_text = print_term(start)
    goal_text = print_term(goal)

    def not_found(reason: str, explored: int):
        return NotFoundWithinBound(
            start_text, goal_text, rules, reason, max_steps, budget, explored
        )

    if s0 == g0:
        return RewriteTrace(start_text, goal_text, rules, (), explored=0)

    layer_cap = max(_n_layers(s0), _n_layers(g0)) + max_extra_layers
    # Per side: every state stored, in the order built, as (state, link),
    # link = (parent, entry_index, bottom, col, k) or None at the root. A
    # child is stored as built. `level` walks the stored states in order and
    # settles each the first time any walk reaches it: `settled` holds, for
    # the prefix reached so far, each state's normal form if it is the first
    # of its class on its side, else None, so no state is normalised twice.
    # `parents` maps those normal forms to their links, and `buckets` the
    # stored states by wiring key.
    stored = ([(s0, None)], [(g0, None)])
    settled = ([s0], [g0])
    parents = ({s0: None}, {g0: None})
    buckets = ({wiring_key(s0): [stored[0][0]]}, {wiring_key(g0): [stored[1][0]]})
    heads = [0, 0]  # where each side's next level starts in `stored`
    depths = [0, 0]
    explored = 0
    parent = ended = None

    def rebuild(meet):
        """Stitch the two half-paths at the meet state into one trace.

        A start-side edge prev -> st is a step as found, its window in the
        step's source. A goal-side edge prev -> st was found away from the
        goal, so the path takes it backwards, st -> prev, by the opposite
        direction e ^ 1: its window lies in the step's result and holds
        that step's replacement side.
        """
        halves = ([], [])
        for s, where in ((0, "source"), (1, "result")):
            st = meet
            while parents[s][st] is not None:
                prev, e, b, c, k = parents[s][st]
                rn, d = legend[e ^ s]
                position = {"bottom": b, "layers": k, "offset": c, "in": where}
                halves[s].append(TraceStep(rn, d, position, print_state(prev if s else st)))
                st = prev
        steps = tuple(halves[0][::-1] + halves[1])
        return RewriteTrace(start_text, goal_text, rules, steps, explored=explored)

    def level(s, lo, hi):
        """The states new to side s among stored[s][lo:hi], each settled
        the first time a walk reaches it; lo is at most len(settled[s])."""
        for i in range(lo, hi):
            if i == len(settled[s]):
                state, link = stored[s][i]
                n = nf(state)
                settled[s].append(None if n in parents[s] else n)
                parents[s].setdefault(n, link)
            if settled[s][i] is not None:
                yield settled[s][i]

    def waiting(s):
        """Whether side s's next level holds a state new to it."""
        return next(level(s, heads[s], len(stored[s])), None) is not None

    def store(move):
        """Store a child of `parent` on `side`. True when the search ends
        there: the child meets the other side, or the states stored pass
        the budget."""
        nonlocal ended
        e, b, c, k, child = move
        link = (parent, e, b, c, k)
        key = wiring_key(child)
        if key in buckets[1 - side]:
            # No normal form is stored on both sides, so a child whose class
            # is stored on the other side is the meet, and the first state
            # stored there in that class holds that side's link.
            meet = nf(child)
            for state, first in buckets[1 - side][key]:
                if nf(state) == meet:
                    parents[side][meet] = link
                    parents[1 - side][meet] = first
                    ended = rebuild(meet)
                    return True
        entry = (child, link)
        stored[side].append(entry)
        buckets[side].setdefault(key, []).append(entry)
        # Each unsettled state adds at most one normal form, so the exact
        # count is needed only once this bound passes the budget.
        unsettled = len(stored[0]) - len(settled[0]) + len(stored[1]) - len(settled[1])
        if len(parents[0]) + len(parents[1]) + unsettled > budget:
            for s in (0, 1):
                for _ in level(s, len(settled[s]), len(stored[s])):
                    pass
            if len(parents[0]) + len(parents[1]) > budget:
                ended = not_found("budget", explored)
                return True
        return False

    while True:
        # Pick the side to deepen: strict alternation, but an exhausted or
        # step-capped side cedes its turn.
        order = (0, 1) if depths[0] <= depths[1] else (1, 0)
        side = None
        if depths[0] + depths[1] < max_steps:
            side = next((s for s in order if waiting(s)), None)
        if side is None:
            reason = "max_steps" if waiting(0) or waiting(1) else "exhausted"
            return not_found(reason, explored)
        lo, hi = heads[side], len(stored[side])
        heads[side] = hi
        for parent in level(side, lo, hi):
            explored += 1
            successors(parent, entries, layer_cap, store)
            if ended is not None:
                return ended
        depths[side] += 1


def replay(trace: RewriteTrace) -> Term:
    """Re-run a trace step by step, checking every invariant on the way.

    A step whose window is in its source ("in": "source") is applied where
    the trace says and must give the recorded result. A step whose window
    is in its result is checked backwards: the opposite direction, applied
    at that window of the parsed result, must give the diagram before the
    step. Every intermediate must typecheck, and the connectivity
    invariant must never change. Returns the final term, which denotes the
    same bordism as the goal.
    """
    term = parse(trace.start)
    goal = parse(trace.goal)
    want = cospan_of_term(term)
    if want != cospan_of_term(goal):
        raise ValueError("trace endpoints denote different bordisms")
    for step in trace.steps:
        result = parse(step.result)
        if step.position.get("in") == "result":
            back = "rev" if step.direction == "fwd" else "fwd"
            got, expected = apply_rule(result, step.rule, back, step.position), term
        else:
            got = apply_rule(term, step.rule, step.direction, step.position)
            expected = result
        if not diagram_equal(got, expected):
            raise ValueError(f"step {step.rule} does not lead to its recorded result")
        term = result
        if cospan_of_term(term) != want:
            raise ValueError(f"step {step.rule} changed the bordism")
    if not diagram_equal(term, goal):
        raise ValueError("replay did not reach the goal diagram")
    return term


# ---------------------------------------------------------------------------
# normalization

def normalize_G1(term: Term) -> Term:
    """Semantic normal form: the parse of the term's `g1_text`."""
    return parse(g1_text(cospan_of_term(term)))


def _tree(box: str, width: int) -> list[list[str]]:
    """A balanced tree of box on width wires, leaves first: each step pairs
    the wires off from the left, and an odd one out stays on an id."""
    steps = []
    while width > 1:
        steps.append([box] * (width // 2) + ["id"] * (width % 2))
        width -= width // 2
    return steps


def _core(n_in: int, genus: int, n_out: int) -> list[list[str]]:
    """The steps of one piece's core: n_in wires (or a unit) merged to one,
    one comul then m per handle, then split to n_out wires (or a tr)."""
    steps = [["unit"]] if n_in == 0 else _tree("m", n_in)
    steps += [["comul"], ["m"]] * genus
    return steps + ([["tr"]] if n_out == 0 else _tree("comul", n_out)[::-1])


def g1_text(cos: LabelledCospan) -> str:
    """The G1 normal form of a cospan, as `stack_text` of these slices,
    bottom first:
      * the feeds: id on each input wire, then one pu(LABEL) per prime,
        sorted by label and then by piece;
      * the input routing, which brings each piece its inputs, then its
        feeds;
      * the cores side by side, one slice per step (see `_core`); a piece
        whose core has ended shows id on each of its outputs;
      * the output routing, which puts each piece's outputs in place.
    Slices that would hold only ids are left out. The text depends only on
    the cospan, so normalize_G1 is idempotent and equal terms normalize
    identically; it grows with the square of the width.
    """
    comps = cos.components
    feeds = sorted((label, ci) for ci, c in enumerate(comps) for label in c.primes)
    wires = [list(c.in_ports) for c in comps]
    for rank, (_label, ci) in enumerate(feeds):
        wires[ci].append(cos.dom + rank)
    route_in = [0] * (cos.dom + len(feeds))
    for target, wire in enumerate(w for piece in wires for w in piece):
        route_in[wire] = target
    slices = [["id"] * cos.dom + [f"pu({label})" for label, _ci in feeds]] if feeds else []
    slices += routing(route_in)
    cores = [_core(len(w), c.genus, len(c.out_ports)) for w, c in zip(wires, comps)]
    depth = max(map(len, cores), default=0)
    for core, c in zip(cores, comps):
        core += [["id"] * len(c.out_ports)] * (depth - len(core))
    slices += [[box for part in step for box in part] for step in zip(*cores)]
    slices += routing([port for c in comps for port in c.out_ports])
    return stack_text(slices, cos.dom)


def normalize_G2(term: Term) -> Term:
    """Structural normal form: the canonical layered rendering. Its text is
    `layers.print_state` of the same state, which needs no term."""
    return state_to_term(nf(term_to_state(term)))


# ---------------------------------------------------------------------------
# soundness

def verify_ruleset_soundness(rules: str = "G2_FULL") -> dict:
    """Check every rule in a set preserves the connectivity invariant.

    Metavariables are instantiated with fresh distinct labels and again with
    one shared label; each instance's two sides must denote the same
    bordism. Returns a report dict with per-rule verdicts.
    """
    report = {"rules": rules, "checked": [], "sound": True}
    for rule in ruleset(rules):
        verdict = True
        assignments: list[dict[str, str]] = []
        if rule.metavars:
            fresh = {mv: f"FRESH{i}" for i, mv in enumerate(rule.metavars)}
            assignments.append(fresh)
            if len(rule.metavars) > 1:
                assignments.append({mv: "FRESH0" for mv in rule.metavars})
        else:
            assignments.append({})
        for asg in assignments:
            lhs = _relabel(rule.lhs, lambda x: asg.get(x, x))
            rhs = _relabel(rule.rhs, lambda x: asg.get(x, x))
            if not terms_equal(lhs, rhs):
                verdict = False
        report["checked"].append({"rule": rule.name, "sound": verdict})
        report["sound"] = report["sound"] and verdict
    return report

