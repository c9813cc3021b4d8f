"""The diagram kernel: canonical forms, window matching and surgery.

The one implementation is pure Python; `KERNEL` names it. States and rule
sides share one flat encoding (see layers.py):

    (dom, off0, gen0, lab0, off1, gen1, lab1, ...)

Adjacent layers commute when their wire supports are disjoint; sliding the
later layer first adjusts offsets by the width change of the layer it passes.
`nf` walks a state's slide class breadth-first, on layers packed into ints,
to the lexicographically least representative, which is the canonical form
used for equality and search dedup. A class that a cheap lower bound on its
size already puts over the walk's cap is not walked to the cap: it goes
straight to the greedy fallback, which the walk would have reached anyway.

Matching is window-based: a rule side is located as a contiguous block of
layers after sliding independent context layers out of the window. One scan
anchors the side's top layer and moves context below the window. Turned
upside down, a state is again a state: its domain is the old top width, its
layers run in reverse order with the same offsets, and each box trades its
inputs for its outputs. So the same scan, run on the upside-down state and
side with the arity tables swapped, moves context above the window. The scan
is optimistic — every candidate is verified by rebuilding the state with the
block in place and comparing normal forms — so a reported match is correct
by construction even in corner cases the scan arithmetic does not model.

A zero-layer side (an identity on one or two wires) is found by inserting
the other side instead. The inserted block slides along its wires past every
layer that does not touch them, so all placements on the same wire segment,
or for two wires in the same run of levels where the same two segments are
adjacent, give one slide class: only the lowest of them is built.
"""

from __future__ import annotations

from cob3.layers import GEN_COD, GEN_DOM, state_widths

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
]


# Adjacent layers (o1,g1,l1) then (o2,g2,l2) commute when the later one lies
# entirely left (o2 + dom(g2) <= o1) or entirely right (o2 >= o1 + cod(g1))
# of the earlier one's wires. Both can hold at once — a 0-input box sitting
# exactly where a 0-output box ended a wire may pass on either side — so a
# slide class is explored as a graph, not a single greedy pass.

NF_SLIDE_CAP = 4096
_NF_CACHE: dict = {}
_NF_CACHE_MAX = 1 << 18


def nf(state):
    """Canonical-within-budget representative of the slide class.

    Explores the class breadth-first over single transpositions, each layer
    packed into one int that compares as its (off, gen, lab) triple, and
    returns its lexicographically least member; this is exact (a true
    canonical form) whenever the class has at most NF_SLIDE_CAP orders.
    Beyond the cap it switches to greedy minimal-arrival extraction from the
    start order and iterates to a fixpoint. Once the walk passes an eighth
    of the cap it tries `_class_size_bound` once; a bound over the cap skips
    the rest of the walk, which could only have ended in the same fallback,
    so the answer does not change. The fallback yields a deterministic,
    idempotent, slide-equivalent representative that may in rare cases
    differ between two orders of the same oversized class. Callers must not
    treat nf inequality as semantic inequality; the cospan invariant
    decides that.
    """
    n = (len(state) - 1) // 3
    if n < 2:
        return tuple(state)
    cached = _NF_CACHE.get(state)
    if cached is not None:
        return cached
    start = tuple(
        (state[p], state[p + 1], state[p + 2]) for p in range(1, len(state), 3)
    )
    best = _class_min(start)
    out = [state[0]]
    for t in best:
        out.extend(t)
    result = tuple(out)
    if len(_NF_CACHE) >= _NF_CACHE_MAX:
        _NF_CACHE.clear()
    _NF_CACHE[state] = result
    _NF_CACHE[result] = result
    return result


def _class_min(start):
    # Layers are packed as (off << bits) | rank, rank the place of (gen, lab)
    # among the state's sorted pairs, so packed tuples compare as the
    # triples do and a slide only adds a width change shifted by `bits`.
    keys = sorted({(g, l) for _o, g, l in start})
    bits = (len(keys) - 1).bit_length()
    mask = (1 << bits) - 1
    rank = {key: r for r, key in enumerate(keys)}
    dom = [GEN_DOM[g] for g, _l in keys]
    cod = [GEN_COD[g] for g, _l in keys]
    grow = [(c - d) << bits for d, c in zip(dom, cod)]
    first = tuple((o << bits) | rank[g, l] for o, g, l in start)
    seen = {first}
    queue = [first]
    # Past an eighth of the cap the class may be too big to walk: the size
    # bound is tried once, and then the walk goes on to the cap itself.
    gate = NF_SLIDE_CAP // 8
    for seq in queue:  # breadth-first: the loop also visits what it appends
        p2 = seq[0]
        o2 = p2 >> bits
        for i in range(1, len(seq)):
            p1, o1 = p2, o2
            p2 = seq[i]
            o2 = p2 >> bits
            if o2 + dom[p2 & mask] <= o1:
                nb = seq[: i - 1] + (p2, p1 + grow[p2 & mask]) + seq[i + 1 :]
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
            if o2 >= o1 + cod[p1 & mask]:
                nb = seq[: i - 1] + (p2 - grow[p1 & mask], p1) + seq[i + 1 :]
                if nb not in seen:
                    seen.add(nb)
                    queue.append(nb)
        if len(seen) > gate:
            if len(seen) > NF_SLIDE_CAP or _class_size_bound(start) > NF_SLIDE_CAP:
                cur = start
                while (nxt := _greedy_min(cur)) < cur:
                    cur = nxt
                return cur
            gate = NF_SLIDE_CAP
    return tuple((p >> bits, *keys[p & mask]) for p in min(seen))


def _slide_down(rem, i):
    """Layer `i` of the order `rem` slid below every layer under it, or None
    when one of them blocks it.

    It passes each lower layer on the left when it ends at or before that
    layer's wires, and else on the right when it starts at or after them;
    when both hold (a 0-input box where a 0-output box ended a wire) only the
    left pass is taken. Returns the moved layer's (off, gen, lab) at the
    bottom and the other layers in order above it, offsets adjusted.
    """
    o, g, l = rem[i]
    dg = GEN_DOM[g]
    delta = GEN_COD[g] - dg
    passed = []
    for t in range(i - 1, -1, -1):
        ot, gt, lt = rem[t]
        if o + dg <= ot:
            passed.append((ot + delta, gt, lt))
        elif o >= ot + GEN_COD[gt]:
            o -= GEN_COD[gt] - GEN_DOM[gt]
            passed.append(rem[t])
        else:
            return None
    passed.reverse()
    return (o, g, l), tuple(passed) + rem[i + 1 :]


def _class_size_bound(start):
    """A lower bound on the number of orders in the slide class of `start`,
    cheap enough to show that a class is over NF_SLIDE_CAP without walking
    it.

    The members are counted by their bottom layer. Each layer that
    `_slide_down` takes to the bottom gives a key, its bottom (off, gen, lab)
    triple, and a remainder; LB(rem) sums, over the distinct keys, the
    largest LB of a remainder with that key, and LB(()) = 1. A 0-input box's
    key also holds where its output wire ends: at a top position, or at a
    port of a box of some gen and label (`_wire_end`). The bound never counts
    a member that is not there, nor one member twice:

    * each counted member is reached by legal adjacent interchanges: the
      slide of one layer to the bottom, then interchanges of the rest;
    * members with different bottom triples are different orders;
    * slides keep every wire's ends, so a remainder whose bottom wire ends
      elsewhere lies in another class: those members differ too;
    * remainders with the same key may share members, so only the largest
      count among them is taken.

    Counts are memoised per remainder for this call only. A remainder stops
    being expanded as soon as its sum passes the cap, so such a count is
    only known to be over it. Frames live on an explicit stack, so a state
    thousands of layers deep needs no Python recursion.
    """
    memo = {(): 1}
    # frame: remainder, next layer to slide down, largest count per key,
    # and the sum of those counts
    stack = [[start, 0, {}, 0]]
    while True:
        frame = stack[-1]
        rem, i, best, total = frame
        while i < len(rem) and total <= NF_SLIDE_CAP:
            moved = _slide_down(rem, i)
            if moved is not None:
                t, rest = moved
                size = memo.get(rest)
                if size is None:
                    break  # count `rest` first, then slide layer i again
                key = t if GEN_DOM[t[1]] else (t, _wire_end(rem, i))
                if size > best.get(key, 0):
                    total += size - best.get(key, 0)
                    best[key] = size
            i += 1
        else:
            memo[rem] = total
            stack.pop()
            if not stack:
                return total
            continue
        frame[1], frame[3] = i, total
        stack.append([rest, 0, {}, 0])


def _wire_end(rem, i):
    """Where the first output wire of layer `i` of `rem` ends: its position
    at the top, or (gen, lab, port) of the box it enters."""
    p = rem[i][0]
    for o, g, l in rem[i + 1 :]:
        if p >= o + GEN_DOM[g]:
            p += GEN_COD[g] - GEN_DOM[g]
        elif p >= o:
            return g, l, p - o
    return p


def _greedy_min(start):
    """Frontier-greedy lexicographic extraction (fallback above the cap)."""
    frontier = {start}
    out = []
    for _round in range(len(start)):
        best = None
        for rem in frontier:
            for i in range(len(rem)):
                moved = _slide_down(rem, i)
                if moved is None:
                    continue
                key, rest = moved
                if best is None or key < best:
                    best = key
                    nxt = {rest}
                elif key == best:
                    nxt.add(rest)
        out.append(best)
        frontier = nxt
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


def find_matches(state, pat):
    """All verified windows where `pat` occurs in `state`.

    `state` must already be in normal form. Returns a sorted list of match
    tuples (bottom, delta, matched_indices, skipped_flat, skipped_after,
    bindings): `skipped_flat` are context layers re-homed below the window
    (offsets adjusted), `skipped_after` those re-homed above it, and the
    replacement block belongs at column `delta` directly between them.
    `bindings` maps each of the pattern's metavariables to its label.

    One scan finds both kinds. Run on the state, it moves context below the
    window. Run on the upside-down views of state and pattern, with the
    arity tables swapped, it moves context below the upside-down window,
    which is above the real one; each such window is mapped back.
    """
    k = (len(pat) - 1) // 3
    if k == 0:
        raise ValueError("zero-layer sides are located by find_insertions")
    n = (len(state) - 1) // 3
    if k > n:
        return []
    pw = state_widths(pat)
    widths = state_widths(state)
    cands = []
    for delta, m, skipped, bindings in _scan(
        state, pat, pw, widths, n, k, GEN_DOM, GEN_COD
    ):
        below = tuple(x for t in reversed(skipped) for x in t)
        cands.append((m[-1], delta, tuple(reversed(m)), below, (), bindings))
    for delta, m, skipped, bindings in _scan(
        _upside_down(state, widths[n]), _upside_down(pat, pw[k]),
        pw[::-1], widths[::-1], n, k, GEN_COD, GEN_DOM,
    ):
        matched = tuple(n - 1 - i for i in m)
        above = tuple(x for t in skipped for x in t)
        cands.append((matched[0], delta, matched, (), above, bindings))
    seen = {}
    for cand in cands:
        key = (cand[0], cand[1], cand[2])
        if key not in seen and _verify(state, pat, cand):
            seen[key] = cand
    return sorted(seen.values())


def _upside_down(state, top):
    """The state turned upside down, read with the arity tables swapped:
    domain `top` (its top width) and the same layers in reverse order."""
    out = [top, *state[1:]]
    out[1::3] = state[-3:0:-3]
    out[2::3] = state[-2:0:-3]
    out[3::3] = state[-1:0:-3]
    return tuple(out)


def _scan(state, pat, pw, widths, n, k, dom, cod):
    """Anchor the top pattern layer and scan downward, skipping context
    layers into the region below the window. `dom` and `cod` are the arity
    tables, swapped when state and pattern are read upside down.

    Yields (delta, matched, skipped, bindings) per candidate window, both
    lists from the top down: the matched layer indices, and the skipped
    layers as (off, gen, lab) in their below-window placement.
    """
    top_off, top_gen, top_lab = pat[3 * k - 2 : 3 * k + 1]
    for it in range(n):
        p = 1 + 3 * it
        if state[p + 1] != top_gen:
            continue
        delta = shift = state[p] - top_off
        if shift < 0 or shift + pw[k] > widths[it + 1]:
            continue
        bindings = {}
        if not _bind(top_lab, state[p + 2], bindings):
            continue
        matched = [it]
        skipped = []
        j = k - 2
        i = it - 1
        while j >= 0 and i >= 0:
            q = 1 + 3 * i
            o2, g2, l2 = state[q], state[q + 1], state[q + 2]
            if (
                g2 == pat[2 + 3 * j]
                and o2 == pat[1 + 3 * j] + shift
                and _bind(pat[3 + 3 * j], l2, bindings)
            ):
                matched.append(i)
                j -= 1
            elif o2 + (dom[g2] if dom[g2] > cod[g2] else cod[g2]) <= shift:
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


def _verify(state, pat, match):
    """A candidate is real iff rebuilding with the matched side itself
    reproduces the state's normal form."""
    block = instantiate(pat, match[5], match[1])
    return nf(_rebuild(state, match, block)) == state


def apply_match(state, match, rep):
    """Replace a verified match window by rule side `rep` (normalized)."""
    block = instantiate(rep, match[5], match[1])
    return nf(_rebuild(state, match, block))


def find_insertions(state, width):
    """Placements (level, col) for a zero-layer side's block on `width`
    adjacent wires, in (level, col) order.

    The block slides up its wires past every layer that does not touch
    them, so only the lowest placement is kept per wire segment (width 1),
    or per run of levels over which the same two segments are adjacent
    (width 2). Above level 0 those are the windows that meet the outputs of
    the layer below, or that straddle the wire it ended.
    """
    widths = state_widths(state)
    out = [(0, col) for col in range(widths[0] - width + 1)]
    for lvl in range(1, len(widths)):
        o, g = state[3 * lvl - 2], state[3 * lvl - 1]
        top = min(o + GEN_COD[g], widths[lvl] - width + 1)
        out.extend((lvl, col) for col in range(max(o - width + 1, 0), top))
    return out


def apply_insertion(state, lvl, col, rep):
    """Insert rule side `rep` at a level/column of an identity window."""
    out = list(state[: 1 + 3 * lvl])
    out.extend(instantiate(rep, {}, col))
    out.extend(state[1 + 3 * lvl :])
    return nf(tuple(out))


def successors(state, entries, max_layers, until=()):
    """All one-step rewrites of a normal-form state with at most
    `max_layers` layers.

    `entries` is a sequence of (pattern, replacement) pairs in the order
    that defines the tie-break. Returns a list of tuples
    (entry_index, pos_bottom, pos_col, pos_layers, new_state) in
    deterministic order. It stops right after the first tuple whose
    new_state is in `until`, so the list is then a prefix of the full one
    and nothing past a search's meet is built.

    Every rewrite by one entry turns an n-layer state into one of
    n - k_pat + k_rep layers, k_pat and k_rep being the layer counts of its
    two sides (nf keeps the count), so an entry that would exceed
    `max_layers` is skipped before any window is scanned or built.
    """
    n = (len(state) - 1) // 3
    out = []
    for e, (pat, rep) in enumerate(entries):
        k = (len(pat) - 1) // 3
        if n - k + (len(rep) - 1) // 3 > max_layers:
            continue
        if k == 0:
            spots = find_insertions(state, pat[0])
            steps = ((e, b, c, 0, apply_insertion(state, b, c, rep)) for b, c in spots)
        else:
            steps = (
                (e, m[0], m[1], k, apply_match(state, m, rep))
                for m in find_matches(state, pat)
            )
        for step in steps:
            out.append(step)
            if step[4] in until:
                return out
    return out
