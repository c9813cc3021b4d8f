"""The diagram kernel: canonical forms, window matching and surgery.

The one implementation is pure Python; `KERNEL` names it. States and rule
sides share one flat encoding (see layers.py):

    (dom, off0, gen0, lab0, off1, gen1, lab1, ...)

Adjacent layers commute when their wire supports are disjoint; sliding the
later layer first adjusts offsets by the width change of the layer it passes.
`nf` builds the lexicographically least member of a state's slide class by
a search from the bottom cut (see `_least`); it is the canonical form used
for equality and search dedup.

Matching is window-based: a rule side is located as a contiguous block of
layers after sliding independent context layers out of the window. A `Table`
indexes a rule set's sides by their top and bottom layer codes; a state's
`View` walks it once upright, anchoring each side at the layers of its top
code and scanning down (context moves below the window), and once upside
down, boxes trading inputs for outputs (context moves above). A candidate
is verified by rebuilding the state with the side in place: one that moved
no context is the state itself, so real; one whose rebuilt state has another
`wiring_key` is in another class; the rest are compared by normal form.

Surgery is pure: `apply_match`, `apply_insertion` and so `successors` return
each child as built, and whoever compares children applies `nf` (the search
does so lazily, see `rewrite.find_path`). `wiring_key` hashes a state's
wiring, which slides do not change, so it is one value on a slide class and
cheap next to `nf`; it can only say that two states may be equal, never
that they are.

A zero-layer side (an identity on one or two wires) is found by inserting
the other side instead. The inserted block slides along its wires past every
layer that does not touch them, so all placements on the same wire segment,
or for two wires in the same run of levels where the same two segments are
adjacent, give one slide class: only the lowest of them is built.
"""

from __future__ import annotations

import functools

from cob3.layers import GEN_COD, GEN_DOM, PU, UNIT, _root, state_widths

KERNEL = "python"

__all__ = [
    "KERNEL",
    "nf",
    "find_matches",
    "apply_match",
    "find_insertions",
    "apply_insertion",
    "instantiate",
    "successors",
    "wiring_key",
]


# Adjacent layers (o1,g1,l1) then (o2,g2,l2) commute when the later one lies
# entirely left (o2 + dom(g2) <= o1) or entirely right (o2 >= o1 + cod(g1))
# of the earlier one's wires. Both can hold at once: a 0-input box sitting
# exactly where a 0-output box ended a wire may pass on either side.

# Kept: without it, seed-41 `search` ran at 653-666 op/s, not 701-724 (2-vCPU Xeon).
_NF_CACHE: dict = {}
_NF_CACHE_MAX = 1 << 18


def nf(state):
    """The canonical form of a state: the least member of its slide class.

    Layers compare as their (off, gen, lab) triples and orders of layers
    lexicographically. Two states have one normal form exactly when one
    slides into the other; the cospan invariant decides the coarser
    semantic equality.
    """
    if len(state) < 7:
        return tuple(state)
    cached = _NF_CACHE.get(state)
    if cached is not None:
        return cached
    result = _least(state)
    if len(_NF_CACHE) >= _NF_CACHE_MAX:
        _NF_CACHE.clear()
    _NF_CACHE[state] = result
    _NF_CACHE[result] = result
    return result


def _least(state):
    """The least member of the slide class of `state`, built from the bottom.

    A class of one, where no two adjacent layers slide, is the state itself.
    Otherwise one sweep names the wires and records where each one ends (a
    box's input port or a place at the top). Without 0-input boxes every
    wire comes from the bottom and `_leftmost_first` is the whole search.
    With them, the sweep also gives each gap a face: a union-find in which
    a tr joins the gaps beside its wire, a 0-input box splits its gap into
    two gaps of one face, and a box's inner output gaps open new faces.
    The class is the plane diagram up to isotopy (Joyal and Street), so its
    members are the orders that rebuild the same wiring from the bottom cut
    to the top cut: a layer with inputs goes where its input wires lie side
    by side and in order, a 0-input layer at any gap of its own face.

    The search keeps every cut that the least order so far reaches. Each
    level keeps its moves by key and takes the least key, building the next
    cuts of that key only. When none of them can go on to the top cut, it
    backtracks to the least later key that still has live cuts; it
    remembers the dead cuts, so no dead end is searched twice.
    A new wire never goes on the wrong side of a wire whose future meets
    its own (`fits`), and of identical 0-input boxes whose wires run through
    1-in 1-out boxes to the top, or to a tr, only one is tried per gap: the
    rightmost at the top, or any one of those that die.
    """
    dom, n = state[0], (len(state) - 1) // 3
    offs, gens = state[1::3], state[2::3]
    for o1, g1, o2, g2 in zip(offs, gens, offs[1:], gens[1:]):
        if o2 + GEN_DOM[g2] <= o1 or o2 >= o1 + GEN_COD[g1]:
            break
    else:  # no adjacent pair slides, and adjacent slides generate the class
        return state
    faces = UNIT in gens or PU in gens  # the 0-input boxes, which need faces
    boxes = list(zip(gens, state[3::3]))
    cut, wires, srcs = list(range(dom)), dom, []
    ins, outs, cons = [], [], {}
    parent = list(range(dom + 1))  # union-find over faces
    gaps = list(range(dom + 1))  # the face of each gap of the cut
    right = gaps[1:]  # the face on the right of each wire
    first, seconds = {}, 0  # the two inputs of each 2-input box
    for b, (o, g) in enumerate(zip(offs, gens)):
        d, c = GEN_DOM[g], GEN_COD[g]
        ins.append(tuple(cut[o : o + d]))
        outs.append(tuple(range(wires, wires + c)))
        cut[o : o + d] = outs[b]
        wires += c
        for k, w in enumerate(ins[b]):
            cons[w] = b, k
        if not faces:
            continue
        if d == 2:
            first[ins[b][1]] = ins[b][0]
            seconds |= 1 << ins[b][1]
        if not d:
            srcs.append(b)
            gaps.insert(o, gaps[o])
        elif not c:
            parent[_root(parent, gaps[o + 1])] = _root(parent, gaps[o])
            del gaps[o + 1]
        else:
            gaps[o + 1 : o + d] = range(len(parent), len(parent) + c - 1)
            parent.extend(gaps[o + 1 : o + c])
        right.extend(gaps[o + 1 : o + 1 + c])
    if not faces:
        return _leftmost_first(state, ins, outs, cons)
    right = [_root(parent, f) for f in right]
    left = _root(parent, 0)
    top = tuple(cut)
    # the future of each wire: the wires it reaches, and the top places
    fut = {w: (1 << w, 1 << p) for p, w in enumerate(top)}
    for b in reversed(range(n)):
        reach = places = 0
        for x in outs[b]:
            reach |= fut[x][0]
            places |= fut[x][1]
        for w in ins[b]:
            fut[w] = reach | 1 << w, places
    memo = {}

    def fits(a, c):
        """Whether wire `a` can lie left of wire `c`: the top places that only
        one of them reaches are in order, and no box takes a wire that only
        c reaches on its left input and one that only a reaches on its right."""
        (wa, ta), (wc, tc) = fut[a], fut[c]
        ta, tc, ys = ta & ~tc, tc & ~ta, wa & ~wc & seconds
        ok = not ta or not tc or ta < (tc & -tc)
        while ok and ys:
            y = ys.bit_length() - 1
            ys ^= 1 << y
            ok = not (wc & ~wa) >> first[y] & 1
        memo[a, c] = ok
        return ok

    # 0-input boxes as (box, wire, face, group, rank): identical chains in one
    # face share a group, and per gap only the best rank in a group is tried
    movers, groups = [], {}
    for b in srcs:
        u = w = outs[b][0]
        group = [boxes[b], right[u]]
        while w in cons and len(ins[cons[w][0]]) == len(outs[cons[w][0]]) == 1:
            group.append(boxes[cons[w][0]])
            w = outs[cons[w][0]][0]
        if w not in cons:
            group, rank = tuple(group), top.index(w)
        else:
            group, rank = (*group, None) if not outs[cons[w][0]] else b, -b
        movers.append((b, u, right[u], groups.setdefault(group, len(groups)), rank))

    stack = []  # per level: its moves by key, the key taken and its live cuts
    frontier = {(tuple(range(dom)), 0)}
    dead = set()  # cuts known not to reach the top cut, however they go on
    while len(stack) < n or top not in {cut for cut, _placed in frontier}:
        moves = {}
        for cut, placed in frontier if len(stack) < n else ():
            for p, w in enumerate(cut):
                b, k = cons.get(w, (0, 1))
                if not k and cut[p : p + len(ins[b])] == ins[b]:
                    moves.setdefault((p, boxes[b]), []).append((cut, placed, b))
            best = {}
            for b, u, face, group, rank in movers:
                if placed >> b & 1:
                    continue
                # a gap of its face, where each wire of the cut fits on its side of u
                for p in range(len(cut) + 1):
                    if (right[cut[p - 1]] if p else left) != face:
                        continue
                    if best.get((group, p), (rank - 1,))[0] >= rank:
                        continue
                    for i, w in enumerate(cut):
                        a, c = (w, u) if i < p else (u, w)
                        ok = memo.get((a, c))
                        if not (fits(a, c) if ok is None else ok):
                            break
                    else:
                        best[group, p] = rank, b
            for (_group, p), (_rank, b) in best.items():
                moves.setdefault((p, boxes[b]), []).append((cut, placed, b))
        if moves:
            stack.append([moves, None, None])
        else:  # a dead end: these cuts are dead, and so is the key taken to them
            dead |= frontier
        frontier = None
        while not frontier:  # take the least key at the last level with live cuts
            moves = stack[-1][0]
            if not moves:  # every key failed, so the cuts the level grew from are dead
                stack.pop()
                dead |= stack[-1][2]
                continue
            p, _box = key = min(moves)
            frontier = {
                (cut[:p] + outs[b] + cut[p + len(ins[b]) :], placed | 1 << b)
                for cut, placed, b in moves[key]
            } - dead
            if not frontier:
                del moves[key]
        stack[-1][1:] = key, frontier
    out = [dom]
    for _moves, (p, box), _live in stack:
        out += p, *box
    return tuple(out)


def _leftmost_first(state, ins, outs, cons):
    """The least member of a class without 0-input boxes: every wire comes
    from the bottom, so placing the leftmost layer that fits never blocks
    another, and after a placement at p the next one is at p - 1 or later."""
    cut = list(range(state[0]))
    out = [state[0]]
    p = 0
    while len(out) < len(state):
        b, k = cons.get(cut[p], (0, 1))
        if not k and tuple(cut[p : p + len(ins[b])]) == ins[b]:
            cut[p : p + len(ins[b])] = outs[b]
            out += (p, *state[3 * b + 2 : 3 * b + 4])
            p = max(p - 1, 0)
        else:
            p += 1
    return tuple(out)


def _bind(pl, l, bindings):
    """Check a pattern label against a state label, binding metavariables
    (labels "?x", keys of the `bindings` dict) to the first label they meet."""
    if pl[:1] != "?":
        return pl == l
    return bindings.setdefault(pl, l) == l


def instantiate(side, bindings, col):
    """Ground a rule side's layers at column `col` (flat layer list)."""
    out = []
    for p in range(1, len(side), 3):
        lab = side[p + 2]
        out.extend((side[p] + col, side[p + 1], bindings.get(lab, lab)))
    return out


_SPAN = [max(d, c) for d, c in zip(GEN_DOM, GEN_COD)]  # the wires a box covers
_CHANGE = [c - d for d, c in zip(GEN_DOM, GEN_COD)]


class Table(tuple):
    """(pattern, replacement) entries compiled for the matcher: the entries
    tuple, with `rows`, (e, pat, rep, k, growth) per entry (k the pattern's
    layers, growth the layers a rewrite adds), and `sides`, per distinct
    pattern of k >= 1: k, its generator codes, least growth, top and bottom
    layer codes, and the side as the scan reads it upright and upside down.
    """

    def __new__(cls, entries):
        table = super().__new__(cls, entries)
        table.rows, least = [], {}
        for e, (pat, rep) in enumerate(table):
            k = (len(pat) - 1) // 3
            growth = (len(rep) - 1) // 3 - k
            table.rows.append((e, pat, rep, k, growth))
            if k:
                least[pat] = min(growth, least.get(pat, growth))
        table.sides = []
        for pat, growth in least.items():
            k, pw = (len(pat) - 1) // 3, state_widths(pat)
            reads = []
            for side, ws in ((pat, pw), (_upside_down(pat, pw[k]), pw[::-1])):
                lays = [side[p : p + 3] for p in range(1, len(side), 3)]
                reads.append((pat, lays, [w - ws[0] for w in ws[1:]], ws[k]))
            table.sides.append((k, frozenset(pat[2::3]), growth, pat[-2], pat[2], *reads))
        return table


class View:
    """What the matcher reads of a normal-form state: its `widths`, `cands`,
    the candidate windows of each live side of a `Table` by pattern (upright
    ones first, anchors ascending), and its `key`, the `wiring_key`, computed
    on first use. A side is live when it has at most the state's layers, its
    generators are among the state's, and an entry of it adds at most `room`.
    """

    def __init__(self, state, table, room):
        self.state, self.widths, self.cands = state, state_widths(state), {}
        n, gens = (len(state) - 1) // 3, frozenset(state[2::3])
        up, down = {}, {}
        for k, need, growth, top, bottom, upright, flipped in table.sides:
            if k <= n and growth <= room and need <= gens:
                up.setdefault(top, []).append(upright)
                down.setdefault(bottom, []).append(flipped)
        if up:
            self._walk(state, self.widths, up, n, _CHANGE, True)
            flipped = _upside_down(state, self.widths[-1])
            self._walk(flipped, self.widths[::-1], down, n, [-c for c in _CHANGE], False)

    @functools.cached_property
    def key(self):
        return wiring_key(self.state)

    def _walk(self, state, widths, index, n, change, upright):
        """Anchor each side of `index` (by top-layer code) at each layer of
        its code and scan down, skipping context below the window. `change`
        is the width change by code, negated when read upside down."""
        for it in range(n):
            p = 1 + 3 * it
            for pat, lays, grown, width in index.get(state[p + 1], ()):
                top_off, _gen, top_lab = lays[-1]
                delta = shift = state[p] - top_off
                if shift < 0 or shift + width > widths[it + 1]:
                    continue
                bindings = {}
                if not _bind(top_lab, state[p + 2], bindings):
                    continue
                matched, skipped = [it], []  # both from the top down
                j, i = len(lays) - 2, it - 1
                while j >= 0 and i >= 0:
                    o2, g2, l2 = state[3 * i + 1 : 3 * i + 4]
                    o1, g1, l1 = lays[j]
                    if g2 == g1 and o2 == o1 + shift and _bind(l1, l2, bindings):
                        matched.append(i)
                        j -= 1
                    elif o2 + _SPAN[g2] <= shift:
                        skipped.append((o2, g2, l2))
                        shift -= change[g2]
                    else:
                        adj = o2 - grown[j]
                        if adj < 0:
                            break
                        skipped.append((adj, g2, l2))
                    i -= 1
                if j >= 0:
                    continue
                m = tuple(matched[::-1]) if upright else tuple(n - 1 - i for i in matched)
                moved = (sum(skipped[::-1], ()), ()) if upright else ((), sum(skipped, ()))
                self.cands.setdefault(pat, []).append((m[0], delta, m, *moved, bindings))


def find_matches(state, pat, view=None):
    """All verified windows where `pat` occurs in `state`.

    `state` must already be in normal form. Returns a sorted list of match
    tuples (bottom, delta, matched_indices, skipped_flat, skipped_after,
    bindings): `skipped_flat` are context layers re-homed below the window
    (offsets adjusted), `skipped_after` those re-homed above it, and the
    replacement block belongs at column `delta` directly between them.
    `bindings` maps each of the pattern's metavariables to its label.

    `view` is the state's `View` over a table that holds `pat`; without one,
    a view of `pat` alone is built. The first candidate of each window is
    verified (`_verify`) with the view's key, read only if some moved context.
    """
    if len(pat) < 4:
        raise ValueError("zero-layer sides are located by find_insertions")
    if view is None:
        view = View(state, Table(((pat, pat),)), 0)
    cands = view.cands.get(pat, ())
    key = view.key if any(c[3] or c[4] for c in cands) else None
    seen = {}
    for cand in cands:
        window = cand[:3]
        if window not in seen and _verify(state, pat, cand, key):
            seen[window] = cand
    return sorted(seen.values())


def _upside_down(state, top):
    """The state turned upside down, read with the arity tables swapped:
    domain `top` (its top width) and the same layers in reverse order."""
    out = [top, *state[1:]]
    out[1::3] = state[-3:0:-3]
    out[2::3] = state[-2:0:-3]
    out[3::3] = state[-1:0:-3]
    return tuple(out)


def _rebuild(state, match, block_layers):
    """State with the window replaced by `block_layers` (already placed)."""
    bottom, _delta, matched, below, above, _bindings = match
    top = matched[-1]
    out = list(state[: 1 + 3 * bottom])
    out.extend(below)
    out.extend(block_layers)
    out.extend(above)
    out.extend(state[1 + 3 * (top + 1) :])
    return tuple(out)


def _verify(state, pat, match, key):
    """A candidate is real iff rebuilding with the matched side itself gives
    a state whose every layer fits on the wires below it, and whose normal
    form is the state. `key` is the state's `wiring_key`. Two exits skip
    `nf`: a candidate that moved no context kept the scan's shift at
    `delta`, so it rebuilds the normal-form state itself (real, `key` not
    read); a rebuilt state with another key is in another class (not real).
    """
    if not match[3] and not match[4]:
        return True
    rebuilt = _rebuild(state, match, instantiate(pat, match[5], match[1]))
    width = rebuilt[0]
    for o, g in zip(rebuilt[1::3], rebuilt[2::3]):
        if o < 0 or o + GEN_DOM[g] > width:
            return False
        width += GEN_COD[g] - GEN_DOM[g]
    return wiring_key(rebuilt) == key and nf(rebuilt) == state


def apply_match(state, match, rep):
    """Replace a verified match window by rule side `rep`. The result is
    the state as rebuilt, not its normal form: the caller applies `nf`."""
    return _rebuild(state, match, instantiate(rep, match[5], match[1]))


def find_insertions(state, width, widths=None):
    """Placements (level, col) for a zero-layer side's block on `width`
    adjacent wires, in (level, col) order.

    The block slides up its wires past every layer that does not touch
    them, so only the lowest placement is kept per wire segment (width 1),
    or per run of levels over which the same two segments are adjacent
    (width 2). Above level 0 those are the windows that meet the outputs of
    the layer below, or that straddle the wire it ended. `widths` are the
    state's, if the caller has them.
    """
    widths = widths or state_widths(state)
    out = [(0, col) for col in range(widths[0] - width + 1)]
    for lvl in range(1, len(widths)):
        o, g = state[3 * lvl - 2], state[3 * lvl - 1]
        top = min(o + GEN_COD[g], widths[lvl] - width + 1)
        out.extend((lvl, col) for col in range(max(o - width + 1, 0), top))
    return out


def apply_insertion(state, lvl, col, rep):
    """Insert rule side `rep` at a level/column of an identity window. The
    result is the state as built, not its normal form: the caller applies
    `nf`."""
    out = list(state[: 1 + 3 * lvl])
    out.extend(instantiate(rep, {}, col))
    out.extend(state[1 + 3 * lvl :])
    return tuple(out)


def successors(state, entries, max_layers, until=None):
    """All one-step rewrites of a normal-form state with at most
    `max_layers` layers.

    `entries` is a sequence of (pattern, replacement) pairs in the order
    that defines the tie-break, a `Table` or compiled into one for this
    call. Returns a list of tuples (entry_index, pos_bottom, pos_col,
    pos_layers, new_state) in deterministic order. Each new_state is the
    child as `apply_match` or `apply_insertion` built it, not its normal
    form: the caller applies `nf` to the children it needs to compare.
    `until`, if given, is called on each tuple as it is built, and the list
    stops right after the first one for which it returns true.

    Every rewrite by one entry turns an n-layer state into one of
    n - k_pat + k_rep layers, k_pat and k_rep being the layer counts of its
    two sides, so an entry that would exceed `max_layers` is skipped. One
    `View` finds every side's candidates, `find_matches` runs only on sides
    with some, and insertion spots are listed once per width.
    """
    table = entries if isinstance(entries, Table) else Table(entries)
    n = (len(state) - 1) // 3
    view = View(state, table, max_layers - n)
    spots = {}
    out = []
    for e, pat, rep, k, growth in table.rows:
        if n + growth > max_layers:
            continue
        if k == 0:
            if pat[0] not in spots:
                spots[pat[0]] = find_insertions(state, pat[0], view.widths)
            steps = ((e, b, c, 0, apply_insertion(state, b, c, rep)) for b, c in spots[pat[0]])
        elif pat in view.cands:
            matches = find_matches(state, pat, view)
            steps = ((e, m[0], m[1], k, apply_match(state, m, rep)) for m in matches)
        else:
            continue
        for step in steps:
            out.append(step)
            if until is not None and until(step):
                return out
    return out


def wiring_key(state):
    """A hash of a state's wiring, equal on every member of its slide class.

    Wires get int names: a bottom wire its place, a box's outputs its name
    and, for a second, its negation. A box's name hashes its code, label
    and input wires' names; the key hashes the sum of the box names with
    the top cut's names. A slide moves no wire from one port to another, so
    it changes no name. The key says nothing about where a 0-input box
    sits, and hashes collide: equal keys only say `nf` is worth comparing.
    """
    cut = list(range(state[0]))
    total = 0
    layers = iter(state[1:])
    for o, g, lab in zip(layers, layers, layers):
        d = GEN_DOM[g]
        if d == 2:
            name = hash((g, lab, cut[o], cut[o + 1]))
        else:
            name = hash((g, lab, cut[o]) if d else (g, lab))
        total += name
        cut[o : o + d] = (name, -name)[: GEN_COD[g]]
    return hash((total, *cut))
