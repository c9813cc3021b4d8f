"""The three workloads: inputs, operations, outcome and checks of one round.

A workload object is built from a seed; building it is the set-up (inputs,
algebras, rule tables). `operations()` lists the timed calls in their fixed
order. `outcome(i, result)` runs after each operation, outside its timing,
on every round: it gives a digest line for the result, the name of the
named fault when the operation failed with it, and any wrong answer.
`check(results)` runs the costlier independent checks once per run; it
sees the results for which `retain(i)` is true (None for the others).

The program is reached only through module attributes looked up at call
time (`rewrite.find_path`, not a bound name), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import cob3
from cob3 import cli, cospan, evaluate, frobenius, rewrite, terms

import dense
import gen

LABELS = ("P", "Q")


# ---------------------------------------------------------------------------
# evaluate


class Evaluate:
    """Random terms, each evaluated by both evaluators in six algebras."""

    # Terms per widest interface of any subterm, in the proportions the
    # generator draws them; wider terms are left out (see README).
    WIDTH_QUOTA = {1: 168, 2: 226, 3: 152, 4: 114, 5: 80, 6: 60}
    # A fixed wide term in every round, so that peak memory is set by one
    # known heavy case (65536 entries in the conjugate algebra).
    WIDE_TERMS = ["(comul * (comul * (comul * comul))) . (m * (m * (m * m)))"]
    DENSE_SAMPLE = 40

    def __init__(self, seed):
        rng = random.Random(f"evaluate/{seed}")
        self.trees = []
        left = dict(self.WIDTH_QUOTA)
        while any(left.values()):
            t = gen.random_term(rng, max_gens=12, labels=LABELS)
            w = dense.max_width(t)
            if left.get(w):
                left[w] -= 1
                self.trees.append(t)
        texts = [gen.to_text(t) for t in self.trees] + self.WIDE_TERMS
        self.terms = [terms.parse(text) for text in texts]
        diag = frobenius.diagonal_algebra
        self.algebras = [
            diag([1], primes={"P": (2,), "Q": (3,)}),
            diag([1, 1], primes={"P": (2, 3), "Q": (1, -1)}),
            diag([1, 2], primes={"P": (1, 2), "Q": (5, 1)}),
            diag([2, 3], primes={"P": (2, 2), "Q": (0, 1)}),
            diag([1, 1, 2], primes={"P": (1, 4, 9), "Q": (2, 2, 1)}),
            frobenius.conjugate_algebra(
                diag([Fraction(1, 2), 3], primes={"P": (Fraction(1, 3), 2), "Q": (-1, 5)}),
                [[1, 2], [-1, 1]],
            ),
        ]
        for alg in self.algebras:
            if not alg.verify_cf().ok:
                raise RuntimeError("a benchmark algebra fails its axioms")
        self.pairs = [(ti, ai) for ti in range(len(self.terms)) for ai in range(len(self.algebras))]
        small = [
            i for i, (ti, ai) in enumerate(self.pairs)
            if ti < len(self.trees) and self.algebras[ai].dim ** dense.max_width(self.trees[ti]) <= 27
        ]
        self.dense_sample = set(rng.sample(small, min(self.DENSE_SAMPLE, len(small))))

    def operations(self):
        def op(term, alg):
            def run():
                by_layers = evaluate.eval_term(term, alg)
                by_surface = evaluate.eval_semantic(cospan.cospan_of_term(term), alg)
                return by_layers == by_surface, by_layers
            return run

        return [op(self.terms[ti], self.algebras[ai]) for ti, ai in self.pairs]

    def retain(self, i):
        return i in self.dense_sample

    def outcome(self, i, result):
        same, value = result
        problem = None if same else f"eval_term and eval_semantic differ on pair {i}"
        return str(hash(value)), None, problem

    def check(self, results):
        problems = []
        for i in sorted(self.dense_sample):
            ti, ai = self.pairs[i]
            want = dense.dense_eval(self.trees[ti], self.algebras[ai])
            if not dense.agrees(want, results[i][1]):
                problems.append(f"dense reference disagrees on {gen.to_text(self.trees[ti])}")
        return problems


# ---------------------------------------------------------------------------
# search


# Two pairs one rule instance apart (nat_swap_unit_r and unit_l) on which
# find_path raises "could not invert a search edge"; counted as failed.
EDGE_INVERSION_PAIRS = [
    ("swap . (id * unit) . pe(P) . unit", "(unit * id) . pe(P) . unit"),
    ("m . (unit * id) . pu(P) . tr . pe(P) . pu(P)", "pu(P) . tr . pe(P) . pu(P)"),
]
COWAIST = ("comul . pe(P)", "(pe(P) * id) . comul")
LEGS = ("m . (pe(P) * id)", "m . (id * pe(P))")
SEARCH_BOUNDS = {"max_steps": 24, "max_extra_layers": 4}
# The pair pool does not depend on --seed: find_path fails on a few per
# cent of random equal pairs (see README), and which ones fail is not
# predictable, so a seeded pool would fail a varying share of its searches.
POOL_SEED = "search/pool/1"
POOL_SHAPES = ((1, 2, 90), (2, 1, 15))  # (rule instances, context generators, pairs)


class Search:
    """Derivation searches between equal terms, deep on tiny terms and
    shallow on larger ones."""

    def __init__(self, seed):
        del seed  # the pool is fixed, see POOL_SEED
        rng = random.Random(POOL_SEED)
        rules = list(gen.RULE_SIDES)
        self.pairs = [COWAIST] + EDGE_INVERSION_PAIRS
        for instances, extra, count in POOL_SHAPES:
            for _ in range(count):
                s, g, _used = gen.search_pair(rng, rules, instances, extra, LABELS)
                self.pairs.append((gen.to_text(s), gen.to_text(g)))
        # Compile the rule table now: a search between equal endpoints
        # returns at once after building it.
        rewrite.find_path("id", "id", rules="CF_LEGS")
        rewrite.find_path("id", "id", rules="CF")
        self.algebra = frobenius.diagonal_algebra(
            [1, 2, 3], primes={"P": (2, 3, 5), "Q": (7, 1, 4)}
        )

    def operations(self):
        def op(a, b):
            def run():
                try:
                    return rewrite.find_path(a, b, rules="CF_LEGS", **SEARCH_BOUNDS)
                except RuntimeError as e:
                    return e
            return run

        return [op(a, b) for a, b in self.pairs]

    def retain(self, i):
        return True

    def outcome(self, i, result):
        if isinstance(result, RuntimeError):
            if "could not invert a search edge" in str(result):
                return "edge-inversion", "search-edge-inversion", None
            return repr(result), None, f"pair {i}: {result!r}"
        if not result.found:
            return f"not found: {result.reason}", None, f"equal pair {i} not derived ({result.reason})"
        return result.to_json(), None, None

    def check(self, results):
        problems = []
        for (a, b), res in zip(self.pairs, results):
            if isinstance(res, Exception) or not res.found:
                continue
            try:
                rewrite.replay(res)
            except (ValueError, cob3.NoMatch) as e:
                problems.append(f"trace {a!r} -> {b!r} fails replay: {e}")
                continue
            texts = [res.start] + [s.result for s in res.steps]
            maps = {evaluate.eval_term(t, self.algebra) for t in texts if t}
            if len(maps) != 1:
                problems.append(f"trace {a!r} -> {b!r} changes the map")
        legs = rewrite.find_path(*LEGS, rules="CF", **SEARCH_BOUNDS)
        if legs.found or legs.reason != "exhausted":
            problems.append(f"legs under CF: expected exhausted, got {legs!r}")
        problems.extend(_legs_countermodel())
        return problems


def _legs_countermodel():
    """A model of every CF rule in which the two sides of legs differ: the
    plane algebra with pe(P) acting as a rotation."""
    alg = frobenius.hadamard_algebra()
    rot = {"P": [[0, 1], [-1, 0]]}

    def value(side):
        return evaluate.eval_with_endo_override(side.replace("?p", "P"), alg, rot)

    problems = [
        f"rotation model breaks {name}"
        for name, (lhs, rhs) in gen.RULE_SIDES.items()
        if name != "legs" and value(lhs) != value(rhs)
    ]
    if value(LEGS[0]) == value(LEGS[1]):
        problems.append("rotation model satisfies legs")
    return problems


# ---------------------------------------------------------------------------
# canon


# A slide reorder whose class is over the canonical form's cap: a single
# legal interchange of two layers, yet the two G2 texts differ.
OVER_CAP_PAIR = (
    "id * unit . pu(P) . tr . (tr * (unit . tr) . swap) . id * unit",
    "id * unit . tr * id . id * pu(P) . unit . tr . tr * id . swap . id * unit",
)


class Canon:
    """Pairs of terms decided and normalised through the command line."""

    # Terms per slide-class size (the canonical form's work), in the
    # proportions the generator draws them. Every fifth term of a class
    # under the cap gets a near-miss partner, the others a reorder; a term
    # over the cap has no exact canonical form, so it gets a near miss.
    CLASS_QUOTA = ((16, 140), (256, 34), (gen.SLIDE_CAP, 24), (None, 40))
    # The smallest classes, which set the median operation, are drawn in
    # fixed numbers per generator count too (5 stands for 5 or more), again
    # in the generator's own proportions.
    SMALL_GENS_QUOTA = {0: 6, 1: 47, 2: 37, 3: 30, 4: 15, 5: 5}

    def __init__(self, seed):
        rng = random.Random(f"canon/{seed}")
        self.pairs = [("reorder-over-cap",) + OVER_CAP_PAIR]
        taken = [0] * len(self.CLASS_QUOTA)
        small_left = dict(self.SMALL_GENS_QUOTA)
        while taken != [q for _, q in self.CLASS_QUOTA]:
            t = gen.random_term(rng, max_gens=12, labels=LABELS)
            dom, boxes = gen.layers(t)
            size = gen.slide_class_size(boxes)
            b = next(i for i, (top, _) in enumerate(self.CLASS_QUOTA) if top is None or size <= top)
            if taken[b] == self.CLASS_QUOTA[b][1]:
                continue
            if b == 0:
                g = min(gen.count_gens(t), 5)
                if not small_left[g]:
                    continue
                small_left[g] -= 1
            taken[b] += 1
            if size <= gen.SLIDE_CAP and taken[b] % 5:
                partner = gen.from_layers(dom, gen.reorder(rng, dom, boxes))
                kind = "reorder"
            else:
                kind, partner = gen.near_miss(rng, t, LABELS)
            self.pairs.append((kind, gen.to_text(t), gen.to_text(partner)))

    def operations(self):
        def cli_call(argv):
            out = io.StringIO()
            with redirect_stdout(out):
                code = cli.main(["--format", "json"] + argv)
            return code, out.getvalue()

        def op(a, b):
            def run():
                return [
                    cli_call(["eq", a, b]),
                    cli_call(["normalize", a, "--presentation", "G2"]),
                    cli_call(["normalize", b, "--presentation", "G2"]),
                    cli_call(["normalize", a]),
                    cli_call(["normalize", b]),
                ]
            return run

        return [op(a, b) for _kind, a, b in self.pairs]

    def retain(self, i):
        return True

    def outcome(self, i, result):
        kind = self.pairs[i][0]
        (eq_code, eq_out), *norms = result
        equal = json.loads(eq_out)["equal"]
        g2a, g2b, g1a, g1b = (json.loads(out)["normal_form"] for _c, out in norms)
        digest = json.dumps([eq_code, equal, g2a, g2b, g1a, g1b])
        if any(code != 0 for code, _ in norms):
            return digest, None, f"pair {i}: normalize failed"
        if kind.startswith("reorder"):
            if eq_code != 0 or not equal or g1a != g1b:
                return digest, None, f"pair {i}: same diagram judged different"
            if g2a != g2b:
                if kind == "reorder-over-cap":
                    return digest, "nf-over-cap", None
                return digest, None, f"pair {i}: same diagram, different G2 texts"
            return digest, None, None
        if eq_code != 1 or equal or g2a == g2b or g1a == g1b:
            return digest, None, f"pair {i}: near miss ({kind}) judged equal"
        return digest, None, None

    def check(self, results):
        problems = []
        for (kind, a, b), result in zip(self.pairs, results):
            for text, (_code, out) in ((a, result[3]), (b, result[4])):
                g1 = json.loads(out)["normal_form"]
                again = terms.print_term(rewrite.normalize_G1(terms.parse(g1)))
                if again != g1:
                    problems.append(f"G1 form of {text!r} is not idempotent")
                if cospan.cospan_of_term(terms.parse(g1)) != cospan.cospan_of_term(terms.parse(text)):
                    problems.append(f"G1 form of {text!r} changes the cospan")
        return problems


WORKLOADS = {"evaluate": Evaluate, "search": Search, "canon": Canon}
