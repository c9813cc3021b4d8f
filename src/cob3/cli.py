"""Command-line interface.

Exit codes: 0 success (and "yes" answers), 1 semantic "no" (terms differ, no
derivation found), 2 usage or input errors, 3 algebra fails verification,
4 internal error (an unexpected exception, reported in one line on stderr).
All output is deterministic for fixed inputs.

Each command returns ``(code, data, text)``: ``data`` is what ``--format
json`` prints (an object, dumped with sorted keys, or JSON text the library
renders), ``text`` what ``--format text`` prints. Only ``main`` prints. An
algebra failing its axioms raises ``_AlgebraFails``; ``main`` exits 3 with
the report in the chosen format. A term given as ``-`` is read from
standard input, one per call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from cob3.cospan import cospan_of_state, manifold_signature
from cob3.evaluate import (
    closed_invariant,
    closed_invariant_by_characters,
    eval_term,
    parse_manifold,
)
from cob3.frobenius import (
    FrobeniusAlgebra,
    NotScalarOnBlock,
    UnknownPrime,
    algebra_from_json,
    character_on_block,
    hadamard_algebra,
    idempotent_decomposition,
)
from cob3.kernel import nf
from cob3.layers import print_state, read_state
from cob3.linmap import fraction_to_scalar
from cob3.rewrite import (
    RULE_SETS,
    UnknownRuleSet,
    find_path,
    g1_text,
    verify_ruleset_soundness,
)
from cob3.terms import ArityMismatch, TermTypeError, parse

OK, DIFFER, USAGE, ALGBAD, INTERNAL = 0, 1, 2, 3, 4
# `eval` refuses a term whose map may have more entries than this
EVAL_MAX_ENTRIES = 2**18
# `invariant` refuses a manifold whose value may have more bits than this
INVARIANT_MAX_BITS = 2**19


class _AlgebraFails(Exception):
    """An algebra file fails its axioms; args are main's (code, data, text)."""


def _load_algebra(path: str) -> FrobeniusAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return algebra_from_json(fh.read())


def _violations(report) -> list:
    return [
        {
            "axiom": v.axiom,
            "indices": list(v.indices),
            "lhs": fraction_to_scalar(v.lhs),
            "rhs": fraction_to_scalar(v.rhs),
        }
        for v in report.violations
    ]


def _checked_algebra(path: str) -> FrobeniusAlgebra:
    """Load and verify; on violation raise _AlgebraFails with the report."""
    alg = _load_algebra(path)
    report = alg.verify_cf()
    if not report.ok:
        data = {
            "ok": False,
            "error": "algebra fails verification",
            "violations": _violations(report),
        }
        text = "algebra fails verification\n" + report.describe()
        raise _AlgebraFails(ALGBAD, data, text)
    return alg


def _cmd_eq(args):
    try:
        sl, left = read_state(args.left)
    except ArityMismatch:
        parse(args.right)  # a parse error on either side comes first
        raise
    sr, right = read_state(args.right)
    cl, cr = cospan_of_state(sl), cospan_of_state(sr)
    equal = cl == cr
    data = {
        "equal": equal,
        "left": left,
        "left_signature": manifold_signature(cl),
        "right": right,
        "right_signature": manifold_signature(cr),
    }
    text = (
        f"left:  {data['left_signature']}\nright: {data['right_signature']}\n"
        + ("EQUAL" if equal else "NOT-EQUAL")
    )
    return (OK if equal else DIFFER), data, text


def _cmd_normalize(args):
    state, text = read_state(args.term)
    if args.presentation == "G1":
        out = g1_text(cospan_of_state(state))
    else:  # normalize_G2's text, printed from the state without a term
        out = print_state(nf(state))
    data = {
        "input": text,
        "normal_form": out,
        "presentation": args.presentation,
    }
    return OK, data, out


def _cmd_eval(args):
    alg = _checked_algebra(args.algebra)
    m = eval_term(parse(args.term), alg, max_entries=EVAL_MAX_ENTRIES)
    lines = [f"dom_arity: {m.dom_arity}", f"cod_arity: {m.cod_arity}", f"d: {m.d}"]
    ents = sorted((k, v) for k, v in m.entries.items() if v != 0)
    lines += [f"({r},{c}) = {fraction_to_scalar(v)}" for (r, c), v in ents]
    if not ents:
        lines.append("zero map")
    return OK, m.to_json(), "\n".join(lines)


def _growth_bits(x) -> int:
    """ceil(log2 |p|) + ceil(log2 q) for x = p/q, 0 for x = 0: about the
    bits that each factor x adds to an exact product."""
    return max(abs(x.numerator) - 1, 0).bit_length() + (x.denominator - 1).bit_length()


def _check_invariant_size(alg: FrobeniusAlgebra, manifold: str) -> None:
    """Refuse, before any arithmetic, a manifold whose value may have more
    than INVARIANT_MAX_BITS bits. Each handle multiplies a block's term by
    the block's handle character, so the value grows by about genus times
    the largest `_growth_bits` of those characters. An algebra with no
    split into blocks over Q is estimated by its handle element's
    coordinates instead. Primes are not counted: each is one factor of
    the text."""
    genus = parse_manifold(manifold)[0]
    if not genus:
        return
    handle = alg.handle_element()
    try:
        factors = [
            character_on_block(alg, idem, handle)
            for idem in idempotent_decomposition(alg).idempotents
        ]
    except NotScalarOnBlock:
        factors = handle
    bits = genus * max(map(_growth_bits, factors), default=0)
    if bits > INVARIANT_MAX_BITS:
        raise ValueError(
            f"the value of {manifold!r} may have about {bits} bits, "
            f"more than the {INVARIANT_MAX_BITS} that invariant computes"
        )


def _cmd_invariant(args):
    alg = _checked_algebra(args.algebra)
    _check_invariant_size(alg, args.manifold)
    value = fraction_to_scalar(closed_invariant(alg, args.manifold))
    data = {"manifold": args.manifold, "value": value}
    lines = [f"Z({args.manifold}) = {value}"]
    if args.idempotents:
        dec = idempotent_decomposition(alg)
        primes = sorted(set(parse_manifold(args.manifold)[1]))
        handle = alg.handle_element()
        data["blocks"] = []
        for i, idem in enumerate(dec.idempotents):
            block = {
                "idempotent": [fraction_to_scalar(x) for x in idem],
                "trace": fraction_to_scalar(alg.trace_of(idem)),
                "handle_character": fraction_to_scalar(
                    character_on_block(alg, idem, handle)
                ),
                "prime_characters": {
                    p: fraction_to_scalar(character_on_block(alg, idem, alg.primes[p]))
                    for p in primes
                },
            }
            data["blocks"].append(block)
            parts = [f"block {i}: trace {block['trace']}"]
            parts.append(f"chi(handle) {block['handle_character']}")
            parts += [f"chi({p}) {v}" for p, v in block["prime_characters"].items()]
            lines.append("  " + ", ".join(parts))
        by_chars = closed_invariant_by_characters(alg, args.manifold)
        data["character_sum"] = fraction_to_scalar(by_chars)
        lines.append(f"character sum = {data['character_sum']}")
    return OK, data, "\n".join(lines)


def _cmd_verify_algebra(args):
    alg = _load_algebra(args.algebra)
    cf, legs = alg.verify_cf(), alg.verify_legs()
    data = {
        "ok": cf.ok and legs.ok,
        "axioms": _violations(cf),
        "legs": _violations(legs),
        "dim": alg.dim,
        "primes": sorted(alg.primes),
    }
    text = (
        f"dim {alg.dim}, primes: {', '.join(data['primes']) or '(none)'}\n"
        f"axioms: {cf.describe()}\n"
        f"legs:   {legs.describe()}"
    )
    return (OK if data["ok"] else ALGBAD), data, text


def _cmd_rewrite_path(args):
    result = find_path(
        args.left,
        args.right,
        rules=args.rules,
        max_steps=args.max_steps,
        budget=args.budget,
        max_extra_layers=args.max_extra_layers,
    )
    if result.found:
        lines = [f"FOUND in {len(result.steps)} step(s) (explored {result.explored})"]
        for i, s in enumerate(result.steps):
            lines.append(f"  {i + 1}. {s.rule} {s.direction} -> {s.result}")
    else:
        lines = [
            f"NOT FOUND within bounds (reason: {result.reason}, "
            f"max_steps {result.max_steps}, explored {result.explored})"
        ]
    return (OK if result.found else DIFFER), result.to_json(), "\n".join(lines)


def _demo_legs_counterexample():
    alg = hadamard_algebra()
    override = {"P": [[0, 1], [-1, 0]]}
    lhs_t, rhs_t = "m . (pe(P) * id)", "m . (id * pe(P))"
    lhs = eval_term(lhs_t, alg, override)
    rhs = eval_term(rhs_t, alg, override)
    col = 1  # e1 (x) e2
    lcol = sorted((r, fraction_to_scalar(v)) for (r, c), v in lhs.entries.items() if c == col)
    rcol = sorted((r, fraction_to_scalar(v)) for (r, c), v in rhs.entries.items() if c == col)
    data = {
        "algebra": "componentwise product on Q^2, trace = coordinate sum",
        "override": {"pe(P)": override["P"]},
        "lhs": lhs_t,
        "rhs": rhs_t,
        "column": "e1 (x) e2",
        "lhs_column": [[r, v] for r, v in lcol],
        "rhs_column": [[r, v] for r, v in rcol],
        "equal": lhs == rhs,
    }
    text = "\n".join(
        [
            "algebra: componentwise product on Q^2, trace = coordinate sum",
            "override: pe(P) acts as the rotation [[0, 1], [-1, 0]]",
            f"lhs = {lhs_t}",
            f"rhs = {rhs_t}",
            f"on e1 (x) e2: lhs -> {lcol}, rhs -> {rcol}",
            "every plain axiom holds for this model, yet lhs != rhs:",
            "NOT-EQUAL - the two-sided absorption law is independent",
        ]
    )
    return (OK if lhs != rhs else DIFFER), data, text


_DEMO_PATHS = (
    ("waist", "pe(P) . m", "m . (pe(P) * id)", "CF_LEGS"),
    ("cowaist", "comul . pe(P)", "(pe(P) * id) . comul", "CF_LEGS"),
    ("colegs", "(pe(P) * id) . comul", "(id * pe(P)) . comul", "CF_LEGS"),
    ("primecomm", "pe(P) . pe(Q)", "pe(Q) . pe(P)", "CF_LEGS"),
    ("legs under plain axioms", "m . (pe(P) * id)", "m . (id * pe(P))", "CF"),
)


def _demo_redundancy_paths():
    paths, lines = [], []
    for name, a, b, rules in _DEMO_PATHS:
        r = find_path(a, b, rules=rules, max_steps=24, max_extra_layers=4)
        want_found = rules != "CF"
        steps = [s.rule + " " + s.direction for s in r.steps] if r.found else None
        paths.append(
            {
                "name": name,
                "start": a,
                "goal": b,
                "rules": rules,
                "found": r.found,
                "expected_found": want_found,
                "steps": steps,
                "explored": r.explored,
            }
        )
        if r.found:
            detail = f"derived in {len(r.steps)} step(s)"
        else:
            detail = f"no derivation ({r.reason})"
        verdict = "ok" if r.found == want_found else "UNEXPECTED"
        lines.append(f"{name}: {a}  =>  {b}  [{rules}]: {detail} [{verdict}]")
    ok = all(p["found"] == p["expected_found"] for p in paths)
    lines.append("all as expected" if ok else "MISMATCH against expectations")
    return (OK if ok else DIFFER), {"ok": ok, "paths": paths}, "\n".join(lines)


def _demo_ruleset_soundness():
    report = verify_ruleset_soundness("G2_FULL")
    verdict = {True: "sound", False: "UNSOUND"}
    lines = [f"{e['rule']}: {verdict[e['sound']]}" for e in report["checked"]]
    lines.append(f"ruleset {report['rules']}: {verdict[report['sound']]}")
    return (OK if report["sound"] else DIFFER), report, "\n".join(lines)


_DEMOS = {
    "legs-counterexample": _demo_legs_counterexample,
    "redundancy-paths": _demo_redundancy_paths,
    "ruleset-soundness": _demo_ruleset_soundness,
}


_TERM_HELP = "a term, or - to read it from standard input"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cob3",
        description="Diagram calculus for labelled spherical bordisms",
    )
    ap.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eq", help="decide equality of two terms")
    p.add_argument("left", help=_TERM_HELP)
    p.add_argument("right", help=_TERM_HELP)
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("normalize", help="normal form of a term")
    p.add_argument("term", help=_TERM_HELP)
    p.add_argument(
        "--presentation",
        choices=("G1", "G2"),
        default="G1",
        help="G1 rebuilds from the glued surface; G2 is the layered rendering",
    )
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("eval", help="evaluate a term in an algebra")
    p.add_argument("term", help=_TERM_HELP)
    p.add_argument("--algebra", required=True, help="algebra JSON file")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("invariant", help="closed-manifold invariant")
    p.add_argument("--algebra", required=True, help="algebra JSON file")
    p.add_argument("--manifold", required=True, help='e.g. "P # (S2xS1)^2"')
    p.add_argument(
        "--idempotents",
        action="store_true",
        help="also print the block decomposition and character sum",
    )
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("verify-algebra", help="check the axioms of an algebra file")
    p.add_argument("algebra")
    p.set_defaults(func=_cmd_verify_algebra)

    p = sub.add_parser("rewrite-path", help="search a derivation between terms")
    p.add_argument("left", help=_TERM_HELP)
    p.add_argument("right", help=_TERM_HELP)
    p.add_argument("--rules", default="CF_LEGS", help=f"one of {', '.join(RULE_SETS)}")
    p.add_argument("--max-steps", type=int, default=16, help="most rewrite steps")
    p.add_argument(
        "--budget",
        type=int,
        default=200_000,
        help="most states stored, one per normal form; the search builds no "
        "successor past the one that passes it",
    )
    p.add_argument(
        "--max-extra-layers",
        type=int,
        default=6,
        help="most layers a state may have beyond the larger endpoint",
    )
    p.set_defaults(func=_cmd_rewrite_path)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("name", choices=_DEMOS)
    p.set_defaults(func=lambda args: _DEMOS[args.name]())

    return ap


def _read_stdin_term(args) -> None:
    """Replace the one term given as `-` by standard input, its trailing
    newline stripped: a long text need not fit in one argument."""
    dashes = [name for name in ("left", "right", "term") if getattr(args, name, None) == "-"]
    if len(dashes) > 1:
        raise ValueError("only one term can be read from standard input ('-')")
    if dashes:
        setattr(args, dashes[0], sys.stdin.read().removesuffix("\n"))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The process's one parser: parse_args keeps no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # Exact values may have more digits than str(int) allows by default;
    # lift that limit for this call only, so in-process callers keep theirs.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        try:
            _read_stdin_term(args)
            code, data, text = args.func(args)
        except _AlgebraFails as e:
            code, data, text = e.args
        if args.format == "json" and not isinstance(data, str):
            data = json.dumps(data, indent=2, sort_keys=True)
        print(data if args.format == "json" else text)
        return code
    except json.JSONDecodeError as e:
        print(f"error: malformed JSON: {e}", file=sys.stderr)
        return USAGE
    # ParseError, NoMatch, ShapeError and NotScalarOnBlock are ValueErrors.
    except (ValueError, TermTypeError, UnknownRuleSet, UnknownPrime, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE
    except Exception as e:
        # Anything else is a fault of the program, not of its input; keep
        # status 1 for "not equal / not found".
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return INTERNAL
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
