"""Seeded input generators for the cob3 benchmark.

Everything here is independent of the program under test: terms are built
and printed by this module's own tree type, printer and arity table, slide
reorders are computed from generator arities alone, and the slide-class
size that decides whether a reorder pair is exact is counted by this
module's own search. Only the generated text is handed to cob3.

A term is a nested tuple:

    ("g", name, label)   a generator (label is None unless pe/pu)
    ("c", f, g)          f after g
    ("t", l, r)          l beside r
"""

from __future__ import annotations

ARITY = {
    "id": (1, 1),
    "m": (2, 1),
    "unit": (0, 1),
    "comul": (1, 2),
    "tr": (1, 0),
    "swap": (2, 2),
    "pe": (1, 1),
    "pu": (0, 1),
}
LABELLED = ("pe", "pu")
GEN_NAMES = tuple(ARITY)
# The slide cap of cob3's canonical form: a reorder pair whose slide class
# has more members than this is not given an exact canonical form.
SLIDE_CAP = 4096


def gen(name, label=None):
    return ("g", name, label)


def arity(t):
    """(inputs, outputs) of a term; raises ValueError if it does not type-check."""
    kind = t[0]
    if kind == "g":
        return ARITY[t[1]]
    a, b = arity(t[1]), arity(t[2])
    if kind == "t":
        return (a[0] + b[0], a[1] + b[1])
    if a[0] != b[1]:
        raise ValueError(f"composite does not type-check: {to_text(t)}")
    return (b[0], a[1])


def count_gens(t):
    if t[0] == "g":
        return 0 if t[1] == "id" else 1
    return count_gens(t[1]) + count_gens(t[2])


def to_text(t):
    """Render in the cob3 term language; composite tensor factors are bracketed."""
    kind = t[0]
    if kind == "g":
        return f"{t[1]}({t[2]})" if t[2] is not None else t[1]
    left, right = to_text(t[1]), to_text(t[2])
    if kind == "c":
        if t[1][0] == "c":
            left = f"({left})"
        return f"{left} . {right}"
    if t[1][0] != "g":
        left = f"({left})"
    if t[2][0] != "g":
        right = f"({right})"
    return f"{left} * {right}"


def ids(n):
    t = gen("id")
    for _ in range(n - 1):
        t = ("t", gen("id"), t)
    return t


def whisker(box, left, right):
    """box with `left` identity wires before it and `right` after it."""
    if right:
        box = ("t", box, ids(right))
    if left:
        box = ("t", ids(left), box)
    return box


def random_term(rng, max_gens=12, labels=("P", "Q")):
    """A random well-typed term with at most max_gens generators.

    Starts from one generator, then tensors fresh generators on either side
    or composes one whiskered generator onto the output or the input
    interface, so 0-input and 0-output interfaces all occur.
    """

    def pick(names):
        name = rng.choice(names)
        return gen(name, rng.choice(labels) if name in LABELLED else None)

    term = pick(GEN_NAMES)
    dom, cod = arity(term)
    n = 1
    while n < max_gens and rng.random() < 0.82:
        move = rng.random()
        if move < 0.35:
            extra = pick(GEN_NAMES)
            term = ("t", extra, term) if rng.random() < 0.5 else ("t", term, extra)
            ea, eb = arity(extra)
            dom, cod = dom + ea, cod + eb
        else:
            on_out = move < 0.7
            width = cod if on_out else dom
            fits = [g for g in GEN_NAMES if ARITY[g][0 if on_out else 1] <= width]
            box = pick(fits)
            a, b = ARITY[box[1]]
            need = a if on_out else b
            left = rng.randint(0, width - need)
            layer = whisker(box, left, width - need - left)
            if on_out:
                term, cod = ("c", layer, term), cod - a + b
            else:
                term, dom = ("c", term, layer), dom - b + a
        n += 1
    return term


# ---------------------------------------------------------------------------
# layers: a term as bottom-up (offset, name, label) boxes over an input width


def layers(t):
    """(dom, [(off, name, label), ...]) listing boxes first-applied first."""
    kind = t[0]
    if kind == "g":
        if t[1] == "id":
            return 1, []
        return ARITY[t[1]][0], [(0, t[1], t[2])]
    if kind == "c":
        gd, gl = layers(t[2])
        _fd, fl = layers(t[1])
        return gd, gl + fl
    ld, ll = layers(t[1])
    rd, rl = layers(t[2])
    shift = arity(t[1])[1]
    return ld + rd, ll + [(o + shift, n, lab) for o, n, lab in rl]


def from_layers(dom, boxes):
    """A term for a layer list: one whiskered box per slice, bottom first."""
    if not boxes:
        return ids(dom)
    width = dom
    term = None
    for off, name, lab in boxes:
        a, b = ARITY[name]
        box = whisker(gen(name, lab), off, width - off - a)
        term = box if term is None else ("c", box, term)
        width += b - a
    return term


def slides(boxes, i):
    """Legal interchanges of boxes i and i+1: each result lists the later box
    first. Two arise when a 0-input box meets the wire a 0-output box ended."""
    o1, n1, l1 = boxes[i]
    o2, n2, l2 = boxes[i + 1]
    a1, b1 = ARITY[n1]
    a2, b2 = ARITY[n2]
    out = []
    if o2 + a2 <= o1:  # later box lies left of the earlier one's outputs
        out.append(boxes[:i] + [(o2, n2, l2), (o1 + b2 - a2, n1, l1)] + boxes[i + 2 :])
    if o2 >= o1 + b1:  # later box lies right of them
        out.append(boxes[:i] + [(o2 - b1 + a1, n2, l2), (o1, n1, l1)] + boxes[i + 2 :])
    return out


def slide_class_size(boxes, cap=SLIDE_CAP):
    """Members of the slide class of a layer list, counted up to cap + 1."""
    start = tuple(boxes)
    seen = {start}
    todo = [start]
    while todo:
        seq = list(todo.pop())
        for i in range(len(seq) - 1):
            for nb in slides(seq, i):
                nb = tuple(nb)
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > cap:
                        return len(seen)
                    todo.append(nb)
    return len(seen)


def reorder(rng, dom, boxes, max_slides=3):
    """The same diagram with up to max_slides random legal interchanges."""
    boxes = list(boxes)
    for _ in range(rng.randint(1, max_slides)):
        moves = [nb for i in range(len(boxes) - 1) for nb in slides(boxes, i)]
        if not moves:
            break
        boxes = rng.choice(moves)
    return boxes


# ---------------------------------------------------------------------------
# near misses: one-generator changes that always alter the bordism


def _flip_first_label(t, labels):
    """t with its first prime label replaced by the next label, or None."""
    kind = t[0]
    if kind == "g":
        if t[2] is None:
            return None
        nxt = labels[(labels.index(t[2]) + 1) % len(labels)]
        return gen(t[1], nxt)
    for k in (1, 2):
        sub = _flip_first_label(t[k], labels)
        if sub is not None:
            return (kind, sub, t[2]) if k == 1 else (kind, t[1], sub)
    return None


def near_miss(rng, t, labels=("P", "Q")):
    """(kind, partner): one prime label flipped, or one pe(P) added.

    A flip moves one prime of one component to another label, and an added
    pe puts one more prime on the component of the wire it sits on, so the
    partner never denotes the same bordism.
    """
    dom, cod = arity(t)
    if rng.random() < 0.5:
        flipped = _flip_first_label(t, labels)
        if flipped is not None:
            return "flip", flipped
    if cod:
        off = rng.randrange(cod)
        return "pe-out", ("c", whisker(gen("pe", "P"), off, cod - off - 1), t)
    if dom:
        off = rng.randrange(dom)
        return "pe-in", ("c", t, whisker(gen("pe", "P"), off, dom - off - 1))
    return "pu-closed", ("t", t, ("c", gen("tr"), gen("pu", "P")))


# ---------------------------------------------------------------------------
# equal search pairs: rule sides substituted for each other in a context

# The CF_LEGS presentation, written out here so that the benchmark does not
# read the program's rule table. ?p stands for a prime label.
RULE_SIDES = {
    "assoc": ("m . (m * id)", "m . (id * m)"),
    "comm": ("m . swap", "m"),
    "unit_l": ("m . (unit * id)", "id"),
    "unit_r": ("m . (id * unit)", "id"),
    "coassoc": ("(comul * id) . comul", "(id * comul) . comul"),
    "cocomm": ("swap . comul", "comul"),
    "counit_l": ("(tr * id) . comul", "id"),
    "counit_r": ("(id * tr) . comul", "id"),
    "frobenius_l": ("comul . m", "(m * id) . (id * comul)"),
    "frobenius_r": ("comul . m", "(id * m) . (comul * id)"),
    "swap_inv": ("swap . swap", "id * id"),
    "nat_swap_m_l": ("swap . (m * id)", "(id * m) . (swap * id) . (id * swap)"),
    "nat_swap_m_r": ("swap . (id * m)", "(m * id) . (id * swap) . (swap * id)"),
    "nat_swap_comul_l": (
        "(swap * id) . (id * swap) . (comul * id)",
        "(id * comul) . swap",
    ),
    "nat_swap_comul_r": (
        "(id * swap) . (swap * id) . (id * comul)",
        "(comul * id) . swap",
    ),
    "nat_swap_unit_l": ("swap . (unit * id)", "id * unit"),
    "nat_swap_unit_r": ("swap . (id * unit)", "unit * id"),
    "nat_swap_tr_l": ("(tr * id) . swap", "id * tr"),
    "nat_swap_tr_r": ("(id * tr) . swap", "tr * id"),
    "nat_swap_pe_l": ("swap . (pe(?p) * id)", "(id * pe(?p)) . swap"),
    "nat_swap_pe_r": ("swap . (id * pe(?p))", "(pe(?p) * id) . swap"),
    "nat_swap_pu_l": ("swap . (pu(?p) * id)", "id * pu(?p)"),
    "nat_swap_pu_r": ("swap . (id * pu(?p))", "pu(?p) * id"),
    "legs": ("m . (pe(?p) * id)", "m . (id * pe(?p))"),
}


def parse_side(text, label):
    """A rule side as a term, with ?p read as `label`.

    Accepts the subset of the term language that RULE_SIDES uses: names,
    pe(?p)/pu(?p), '.', '*' and parentheses, with '*' binding tighter.
    """
    toks = text.replace("(?p)", f"<{label}>").replace("(", " ( ").replace(")", " ) ")
    toks = toks.replace(".", " . ").replace("*", " * ").split()
    pos = 0

    def atom():
        nonlocal pos
        tok = toks[pos]
        pos += 1
        if tok == "(":
            inner = compose()
            pos += 1  # ')'
            return inner
        if "<" in tok:
            name, lab = tok[:-1].split("<")
            return gen(name, lab)
        return gen(tok)

    def tensor():
        nonlocal pos
        left = atom()
        if pos < len(toks) and toks[pos] == "*":
            pos += 1
            return ("t", left, tensor())
        return left

    def compose():
        nonlocal pos
        left = tensor()
        if pos < len(toks) and toks[pos] == ".":
            pos += 1
            return ("c", left, compose())
        return left

    return compose()


def search_pair(rng, rules, instances, extra_gens, labels=("P", "Q")):
    """(start, goal, [rule names]): two terms `instances` rule steps apart.

    Both terms share one random context of `extra_gens` generators; at each
    of the `instances` sites the start holds one side of a rule and the goal
    the other side, so the goal is reached by rewriting each site once.
    """
    def instance():
        name = rng.choice(rules)
        lab = rng.choice(labels)
        lhs, rhs = (parse_side(s, lab) for s in RULE_SIDES[name])
        if rng.random() < 0.5:
            lhs, rhs = rhs, lhs
        return name, lhs, rhs

    def fresh():
        name = rng.choice(GEN_NAMES)
        return gen(name, rng.choice(labels) if name in LABELLED else None)

    used = []
    name, s, g = instance()
    used.append(name)
    dom, cod = arity(s)
    placed, added = 1, 0
    while placed < instances or added < extra_gens:
        if placed < instances and (added >= extra_gens or rng.random() < 0.4):
            name, bs, bg = instance()
            placed += 1
            used.append(name)
        else:
            bs = bg = fresh()
            added += 1
        a, b = arity(bs)
        move = rng.random()
        if move < 0.3 or (a > cod and b > dom):
            if rng.random() < 0.5:
                s, g = ("t", bs, s), ("t", bg, g)
            else:
                s, g = ("t", s, bs), ("t", g, bg)
            dom, cod = dom + a, cod + b
        elif a <= cod and (move < 0.65 or b > dom):
            left = rng.randint(0, cod - a)
            s = ("c", whisker(bs, left, cod - a - left), s)
            g = ("c", whisker(bg, left, cod - a - left), g)
            cod += b - a
        else:
            left = rng.randint(0, dom - b)
            s = ("c", s, whisker(bs, left, dom - b - left))
            g = ("c", g, whisker(bg, left, dom - b - left))
            dom += a - b
    return s, g, used
