"""Command-line interface.

Exit codes: 0 success (and "yes" answers), 1 semantic "no" (terms differ, no
derivation found), 2 usage or input errors, 3 algebra fails verification,
4 internal error (an unexpected exception, reported in one line on stderr).
All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from cob3.cospan import cospan_of_term, manifold_signature
from cob3.evaluate import (
    closed_invariant,
    closed_invariant_by_characters,
    eval_term,
    parse_manifold,
)
from cob3.frobenius import (
    FrobeniusAlgebra,
    UnknownPrime,
    algebra_from_json,
    character_on_block,
    hadamard_algebra,
    idempotent_decomposition,
)
from cob3.linmap import fraction_to_scalar
from cob3.rewrite import (
    RewriteTrace,
    UnknownRuleSet,
    find_path,
    normalize_G1,
    normalize_G2,
    verify_ruleset_soundness,
)
from cob3.terms import TermTypeError, parse, print_term

OK, DIFFER, USAGE, ALGBAD, INTERNAL = 0, 1, 2, 3, 4


def _emit_json(data) -> None:
    print(json.dumps(data, indent=2, sort_keys=True))


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


def _checked_algebra(path: str, fmt: str):
    """Load and verify; on violation print the report and return None."""
    alg = _load_algebra(path)
    report = alg.verify_cf()
    if report.ok:
        return alg
    if fmt == "json":
        _emit_json(
            {
                "ok": False,
                "error": "algebra fails verification",
                "violations": _violations(report),
            }
        )
    else:
        print("algebra fails verification")
        print(report.describe())
    return None


def _map_text(m) -> str:
    lines = [f"dom_arity: {m.dom_arity}", f"cod_arity: {m.cod_arity}", f"d: {m.d}"]
    ents = sorted((k, v) for k, v in m.entries.items() if v != 0)
    if not ents:
        lines.append("zero map")
    for (r, c), v in ents:
        lines.append(f"({r},{c}) = {fraction_to_scalar(v)}")
    return "\n".join(lines)


def _cmd_eq(args) -> int:
    left = parse(args.left)
    right = parse(args.right)
    cl = cospan_of_term(left)
    cr = cospan_of_term(right)
    equal = cl == cr
    if args.format == "json":
        _emit_json(
            {
                "equal": equal,
                "left": print_term(left),
                "left_signature": manifold_signature(cl),
                "right": print_term(right),
                "right_signature": manifold_signature(cr),
            }
        )
    else:
        print(f"left:  {manifold_signature(cl)}")
        print(f"right: {manifold_signature(cr)}")
        print("EQUAL" if equal else "NOT-EQUAL")
    return OK if equal else DIFFER


def _cmd_normalize(args) -> int:
    term = parse(args.term)
    normalize = normalize_G1 if args.presentation == "G1" else normalize_G2
    out = normalize(term)
    if args.format == "json":
        _emit_json(
            {
                "input": print_term(term),
                "normal_form": print_term(out),
                "presentation": args.presentation,
            }
        )
    else:
        print(print_term(out))
    return OK


def _cmd_eval(args) -> int:
    alg = _checked_algebra(args.algebra, args.format)
    if alg is None:
        return ALGBAD
    m = eval_term(parse(args.term), alg)
    if args.format == "json":
        print(m.to_json())
    else:
        print(_map_text(m))
    return OK


def _cmd_invariant(args) -> int:
    alg = _checked_algebra(args.algebra, args.format)
    if alg is None:
        return ALGBAD
    value = closed_invariant(alg, args.manifold)
    data = {"manifold": args.manifold, "value": fraction_to_scalar(value)}
    lines = [f"Z({args.manifold}) = {fraction_to_scalar(value)}"]
    if args.idempotents:
        dec = idempotent_decomposition(alg)
        genus, primes = parse_manifold(args.manifold)
        handle = alg.handle_element()
        blocks = []
        for i, idem in enumerate(dec.idempotents):
            entry = {
                "idempotent": [fraction_to_scalar(x) for x in idem],
                "trace": fraction_to_scalar(alg.trace_of(idem)),
                "handle_character": fraction_to_scalar(
                    character_on_block(alg, idem, handle)
                ),
                "prime_characters": {
                    p: fraction_to_scalar(
                        character_on_block(alg, idem, alg.primes[p])
                    )
                    for p in sorted(set(primes))
                },
            }
            blocks.append(entry)
            parts = [f"block {i}: trace {entry['trace']}"]
            parts.append(f"chi(handle) {entry['handle_character']}")
            for p in sorted(set(primes)):
                parts.append(f"chi({p}) {entry['prime_characters'][p]}")
            lines.append("  " + ", ".join(parts))
        by_chars = closed_invariant_by_characters(alg, args.manifold)
        data["blocks"] = blocks
        data["character_sum"] = fraction_to_scalar(by_chars)
        lines.append(f"character sum = {fraction_to_scalar(by_chars)}")
    if args.format == "json":
        _emit_json(data)
    else:
        print("\n".join(lines))
    return OK


def _cmd_verify_algebra(args) -> int:
    alg = _load_algebra(args.algebra)
    cf = alg.verify_cf()
    legs = alg.verify_legs()
    ok = cf.ok and legs.ok
    if args.format == "json":
        _emit_json(
            {
                "ok": ok,
                "axioms": _violations(cf),
                "legs": _violations(legs),
                "dim": alg.dim,
                "primes": sorted(alg.primes),
            }
        )
    else:
        print(f"dim {alg.dim}, primes: {', '.join(sorted(alg.primes)) or '(none)'}")
        print(f"axioms: {cf.describe()}")
        print(f"legs:   {legs.describe()}")
    return OK if ok else ALGBAD


def _trace_text(result) -> str:
    if isinstance(result, RewriteTrace):
        lines = [
            f"FOUND in {len(result.steps)} step(s) (explored {result.explored})"
        ]
        for i, s in enumerate(result.steps):
            lines.append(f"  {i + 1}. {s.rule} {s.direction} -> {s.result}")
        return "\n".join(lines)
    return (
        f"NOT FOUND within bounds (reason: {result.reason}, "
        f"max_steps {result.max_steps}, explored {result.explored})"
    )


def _cmd_rewrite_path(args) -> int:
    result = find_path(
        args.left,
        args.right,
        rules=args.rules,
        max_steps=args.max_steps,
        budget=args.budget,
        max_extra_layers=args.max_extra_layers,
    )
    if args.format == "json":
        print(result.to_json())
    else:
        print(_trace_text(result))
    return OK if result.found else DIFFER


def _demo_legs_counterexample(fmt: str) -> int:
    alg = hadamard_algebra()
    override = {"P": [[0, 1], [-1, 0]]}
    lhs_t, rhs_t = "m . (pe(P) * id)", "m . (id * pe(P))"
    lhs = eval_term(lhs_t, alg, override)
    rhs = eval_term(rhs_t, alg, override)
    col = 1  # e1 (x) e2
    lcol = sorted((r, fraction_to_scalar(v)) for (r, c), v in lhs.entries.items() if c == col)
    rcol = sorted((r, fraction_to_scalar(v)) for (r, c), v in rhs.entries.items() if c == col)
    if fmt == "json":
        _emit_json(
            {
                "algebra": "componentwise product on Q^2, trace = coordinate sum",
                "override": {"pe(P)": override["P"]},
                "lhs": lhs_t,
                "rhs": rhs_t,
                "column": "e1 (x) e2",
                "lhs_column": [[r, v] for r, v in lcol],
                "rhs_column": [[r, v] for r, v in rcol],
                "equal": lhs == rhs,
            }
        )
    else:
        print("algebra: componentwise product on Q^2, trace = coordinate sum")
        print("override: pe(P) acts as the rotation [[0, 1], [-1, 0]]")
        print(f"lhs = {lhs_t}")
        print(f"rhs = {rhs_t}")
        print(f"on e1 (x) e2: lhs -> {lcol}, rhs -> {rcol}")
        print("every plain axiom holds for this model, yet lhs != rhs:")
        print("NOT-EQUAL — the two-sided absorption law is independent")
    return OK if lhs != rhs else DIFFER


_DEMO_PATHS = (
    ("waist", "pe(P) . m", "m . (pe(P) * id)", "CF_LEGS"),
    ("cowaist", "comul . pe(P)", "(pe(P) * id) . comul", "CF_LEGS"),
    ("colegs", "(pe(P) * id) . comul", "(id * pe(P)) . comul", "CF_LEGS"),
    ("primecomm", "pe(P) . pe(Q)", "pe(Q) . pe(P)", "CF_LEGS"),
    ("legs under plain axioms", "m . (pe(P) * id)", "m . (id * pe(P))", "CF"),
)


def _demo_redundancy_paths(fmt: str) -> int:
    results = []
    ok = True
    for name, a, b, rules in _DEMO_PATHS:
        r = find_path(a, b, rules=rules, max_steps=24, max_extra_layers=4)
        want_found = rules != "CF"
        good = r.found == want_found
        ok = ok and good
        results.append((name, a, b, rules, r, want_found, good))
    if fmt == "json":
        _emit_json(
            {
                "ok": ok,
                "paths": [
                    {
                        "name": name,
                        "start": a,
                        "goal": b,
                        "rules": rules,
                        "found": r.found,
                        "expected_found": want,
                        "steps": [s.rule + " " + s.direction for s in r.steps]
                        if isinstance(r, RewriteTrace)
                        else None,
                        "explored": r.explored,
                    }
                    for name, a, b, rules, r, want, _good in results
                ],
            }
        )
    else:
        for name, a, b, rules, r, want, good in results:
            if isinstance(r, RewriteTrace):
                detail = f"derived in {len(r.steps)} step(s)"
            else:
                detail = f"no derivation ({r.reason})"
            verdict = "ok" if good else "UNEXPECTED"
            print(f"{name}: {a}  =>  {b}  [{rules}]: {detail} [{verdict}]")
        print("all as expected" if ok else "MISMATCH against expectations")
    return OK if ok else DIFFER


def _demo_ruleset_soundness(fmt: str) -> int:
    report = verify_ruleset_soundness("G2_FULL")
    if fmt == "json":
        _emit_json(report)
    else:
        for entry in report["checked"]:
            print(f"{entry['rule']}: {'sound' if entry['sound'] else 'UNSOUND'}")
        print(f"ruleset {report['rules']}: {'sound' if report['sound'] else 'UNSOUND'}")
    return OK if report["sound"] else DIFFER


def _cmd_demo(args) -> int:
    if args.name == "legs-counterexample":
        return _demo_legs_counterexample(args.format)
    if args.name == "redundancy-paths":
        return _demo_redundancy_paths(args.format)
    return _demo_ruleset_soundness(args.format)


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
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(func=_cmd_eq)

    p = sub.add_parser("normalize", help="normal form of a term")
    p.add_argument("term")
    p.add_argument(
        "--presentation",
        choices=("G1", "G2"),
        default="G1",
        help="G1 rebuilds from the glued surface; G2 is the layered rendering",
    )
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("eval", help="evaluate a term in an algebra")
    p.add_argument("term")
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
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--rules", default="CF_LEGS", help="CF, CF_LEGS, or G2_FULL")
    p.add_argument("--max-steps", type=int, default=16)
    p.add_argument("--budget", type=int, default=200_000)
    p.add_argument("--max-extra-layers", type=int, default=6)
    p.set_defaults(func=_cmd_rewrite_path)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument(
        "name",
        choices=("legs-counterexample", "redundancy-paths", "ruleset-soundness"),
    )
    p.set_defaults(func=_cmd_demo)

    return ap


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
        return args.func(args)
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
