"""Command line driver: exit codes, output formats, determinism."""

import json
import os
import re
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import cob3
from cob3 import (
    FrobeniusAlgebra,
    algebra_to_json,
    closed_invariant,
    cospan_of_term,
    diagonal_algebra,
    hadamard_algebra,
    parse,
    print_term,
    typecheck,
)
from cob3.layers import term_to_state
from cob3.cli import (
    ALGBAD,
    DIFFER,
    EVAL_MAX_ENTRIES,
    INTERNAL,
    INVARIANT_MAX_BITS,
    OK,
    USAGE,
    build_parser,
    main,
)
from cob3.rewrite import RULE_SETS


@pytest.fixture()
def alg_file(tmp_path):
    path = tmp_path / "plane.json"
    path.write_text(algebra_to_json(hadamard_algebra()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def run_fresh(*argv):
    """The same call in a new interpreter."""
    src = os.path.dirname(os.path.dirname(cob3.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cob3.cli", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
        check=False,
    )
    return proc.returncode, proc.stdout


def _dumps(data, sort_keys=True):
    return json.dumps(data, indent=2, sort_keys=sort_keys) + "\n"


def test_eq_equal(capsys):
    code, out, _ = run(capsys, "eq", "m . swap", "m")
    assert code == OK
    assert "EQUAL" in out and "NOT-EQUAL" not in out


def test_eq_not_equal_sets_exit_code(capsys):
    code, out, _ = run(capsys, "eq", "pe(P)", "pe(Q)")
    assert code == DIFFER
    assert "NOT-EQUAL" in out


def test_eq_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "eq", "m . swap", "m")
    assert code == OK
    data = json.loads(out)
    assert data["equal"] is True
    assert data["left_signature"] == data["right_signature"]


def test_parse_error_is_usage(capsys):
    code, _, err = run(capsys, "eq", "m . (", "m")
    assert code == USAGE
    assert "error:" in err


def test_type_error_is_usage(capsys):
    code, _, err = run(capsys, "eq", "m . m", "m")
    assert code == USAGE


def test_eq_reports_a_parse_error_in_either_text_before_an_arity_mismatch(capsys):
    # the left text is ill-typed, and the right one does not parse
    code, out, err = run(capsys, "eq", "m . unit", "m )")
    assert (code, out) == (USAGE, "")
    assert err == "error: trailing input starting at ')' (line 1, column 3)\n"
    # the right text parses: the left one's mismatch names its node
    code, out, err = run(capsys, "eq", "pe(P) * (m . unit)", "m")
    assert (code, out) == (USAGE, "")
    assert err == (
        "error: cannot compose: left factor wants 2 inputs but right factor "
        "yields 1 outputs in 'm . unit'\n"
    )


def test_normalize_both_presentations(capsys):
    code, out, _ = run(capsys, "normalize", "m . swap")
    assert code == OK
    code2, out2, _ = run(capsys, "normalize", "m")
    assert out == out2  # semantic normal forms of one bordism coincide
    code3, out3, _ = run(capsys, "normalize", "m . swap", "--presentation", "G2")
    assert code3 == OK and out3.strip()


# Two layerings of one 8-layer diagram, one legal interchange apart; the
# diagram has 19 212 layerings.
OVER_CAP_PAIR = (
    "id * unit . pu(P) . tr . (tr * (unit . tr) . swap) . id * unit",
    "id * unit . tr * id . id * pu(P) . unit . tr . tr * id . swap . id * unit",
)


def test_one_diagram_prints_one_G2_text(capsys):
    texts = [
        run(capsys, "normalize", term, "--presentation", "G2")
        for term in OVER_CAP_PAIR
    ]
    assert texts[0] == texts[1]
    assert texts[0][0] == OK


def test_eval_prints_exact_entries(capsys, alg_file):
    code, out, _ = run(capsys, "eval", "tr . pe(P) . unit", "--algebra", alg_file)
    assert code == OK
    assert "5" in out
    code, out, _ = run(
        capsys, "--format", "json", "eval", "pe(P)", "--algebra", alg_file
    )
    data = json.loads(out)
    assert data["d"] == 2 and data["entries"]


def test_eval_missing_file_is_usage(capsys):
    code, _, err = run(capsys, "eval", "m", "--algebra", "/nonexistent.json")
    assert code == USAGE


def test_eval_malformed_json_is_usage(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "eval", "m", "--algebra", str(bad))
    assert code == USAGE
    assert "JSON" in err


def test_eval_refuses_a_map_past_its_size_limit(capsys, alg_file):
    wide = " * ".join(["id"] * 40)
    started = time.perf_counter()
    code, out, err = run(capsys, "eval", wide, "--algebra", alg_file)
    assert time.perf_counter() - started < 1
    assert (code, out) == (USAGE, "")
    assert err == f"error: the map may take 2**40 entries, over the limit of {EVAL_MAX_ENTRIES}\n"


def test_invariant_values(capsys, alg_file):
    code, out, _ = run(
        capsys, "invariant", "--algebra", alg_file, "--manifold", "P # P"
    )
    assert code == OK
    assert "13" in out


def test_manifold_factor_is_any_term_label(capsys, tmp_path):
    path = tmp_path / "minus.json"
    path.write_text(algebra_to_json(diagonal_algebra([1, 1], {"P-1": (1, 4)})))
    alg = str(path)
    code, inv, _ = run(
        capsys, "--format", "json", "invariant", "--algebra", alg, "--manifold", "P-1"
    )
    assert code == OK
    code, ev, _ = run(
        capsys, "--format", "json", "eval", "tr . pu(P-1)", "--algebra", alg
    )
    assert code == OK
    assert json.loads(inv)["value"] == 5
    assert json.loads(ev)["entries"] == [[0, 0, 5]]


def test_invariant_idempotent_blocks(capsys, alg_file):
    code, out, _ = run(
        capsys,
        "--format",
        "json",
        "invariant",
        "--algebra",
        alg_file,
        "--manifold",
        "P",
        "--idempotents",
    )
    data = json.loads(out)
    assert data["value"] == 5
    assert len(data["blocks"]) == 2
    assert data["character_sum"] == 5
    assert {b["prime_characters"]["P"] for b in data["blocks"]} == {2, 3}


def test_idempotents_of_the_dual_numbers_are_refused(capsys, tmp_path):
    # Q[x]/x^2 with trace(x) = 1 satisfies every axiom, but its nilpotent x
    # leaves no split into blocks: the refusal names that cause
    alg = FrobeniusAlgebra(2, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]], [1, 0], [0, 1])
    assert alg.verify_cf().ok
    path = tmp_path / "dual.json"
    path.write_text(algebra_to_json(alg))
    code, out, err = run(
        capsys, "invariant", "--algebra", str(path), "--manifold", "(S2xS1)^1",
        "--idempotents",
    )
    assert (code, out) == (USAGE, "")
    assert err == (
        "error: the algebra is not semisimple: it has a nonzero nilpotent element\n"
    )


def test_long_exact_value_is_printed(capsys, tmp_path):
    # trace weight 1/2 gives Z = 2**(g-1) + 3**(1-g): at g = 20000 its
    # numerator has far more than the 4300 digits str(int) allows by default
    alg = diagonal_algebra(["1/2", 3])
    path = tmp_path / "half.json"
    path.write_text(algebra_to_json(alg))
    manifold = "(S2xS1)^20000"
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(
        capsys, "invariant", "--algebra", str(path), "--manifold", manifold
    )
    assert (code, err) == (OK, "")
    if limit:  # main restores the caller's limit; lift it to read the value
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
    try:
        assert Fraction(out.split(" = ")[1]) == closed_invariant(alg, manifold)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def test_invariant_refuses_a_value_past_its_size_limit(capsys, tmp_path):
    # one block of trace 2: the handle character is 1/2, and each handle
    # adds one bit to Z = 2 * (1/2)**genus
    half = tmp_path / "half.json"
    half.write_text(algebra_to_json(diagonal_algebra([2])))
    alg = cob3.cli._load_algebra(str(half))
    cob3.cli._check_invariant_size(alg, f"(S2xS1)^{INVARIANT_MAX_BITS}")
    with pytest.raises(ValueError, match="may have about"):
        cob3.cli._check_invariant_size(alg, f"(S2xS1)^{INVARIANT_MAX_BITS - 9} # (S2xS1)^10")
    started = time.perf_counter()
    code, out, err = run(
        capsys, "invariant", "--algebra", str(half), "--manifold", "(S2xS1)^10000000"
    )
    assert time.perf_counter() - started < 1
    assert (code, out) == (USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    # handle characters of 1 add no bits, so any genus is computed
    plane = tmp_path / "plane.json"
    plane.write_text(algebra_to_json(hadamard_algebra()))
    code, out, _ = run(
        capsys, "invariant", "--algebra", str(plane), "--manifold", "(S2xS1)^10000000"
    )
    assert (code, out) == (OK, "Z((S2xS1)^10000000) = 2\n")
    # with no split into blocks over Q, the handle element's coordinates
    # stand in for the characters: the dual numbers' handle is 2x
    dual = FrobeniusAlgebra(2, [[[1, 0], [0, 0]], [[0, 1], [1, 0]]], [1, 0], [0, 1])
    path = tmp_path / "dual.json"
    path.write_text(algebra_to_json(dual))
    code, _, _ = run(capsys, "invariant", "--algebra", str(path), "--manifold", "(S2xS1)^3")
    assert code == OK
    code, _, err = run(
        capsys, "invariant", "--algebra", str(path), "--manifold", "(S2xS1)^10000000"
    )
    assert code == USAGE and err.startswith("error: ")


def test_unknown_prime_names_the_label(capsys, alg_file):
    for argv in (
        ("eval", "pe(Z)", "--algebra", alg_file),
        ("invariant", "--algebra", alg_file, "--manifold", "Z"),
    ):
        assert run(capsys, *argv) == (USAGE, "", "error: unknown prime label 'Z'\n")


PLANE = {
    "dim": 2,
    "mul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    "unit": [1, 1],
    "trace": [1, 1],
    "primes": {"P": [2, 3]},
}
MALFORMED_ALGEBRAS = {
    "float-scalar": {**PLANE, "trace": [0.5, 1]},
    "zero-denominator": {**PLANE, "unit": ["1/0", 1]},
    "string-dim": {**PLANE, "dim": "2"},
    "float-dim": {"dim": 1.5, "mul": [[[1]]], "unit": [1], "trace": [1]},
    "scalar-mul": {**PLANE, "mul": 5},
    "list-primes": {**PLANE, "primes": [1]},
    "scalar-prime": {**PLANE, "primes": {"P": 3}},
    "number-file": 5,
    "null-file": None,
    # bool is a kind of int in Python, but not a number in an algebra file
    "bool-dim": {"dim": True, "mul": [[[1]]], "unit": [True], "trace": [1]},
    "bool-scalar": {**PLANE, "trace": [True, 1]},
}


@pytest.mark.parametrize("command", ["verify-algebra", "eval"])
@pytest.mark.parametrize("name", MALFORMED_ALGEBRAS)
def test_malformed_algebra_is_usage(capsys, tmp_path, command, name):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(MALFORMED_ALGEBRAS[name]))
    argv = ["m", "--algebra", str(path)] if command == "eval" else [str(path)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (USAGE, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("command", ["verify-algebra", "eval"])
def test_deeply_nested_algebra_is_usage(capsys, tmp_path, command):
    # written as raw text: json.dumps recurses as deep as the nesting
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    argv = ["m", "--algebra", str(path)] if command == "eval" else [str(path)]
    code, out, err = run(capsys, command, *argv)
    assert (code, out) == (USAGE, "")
    assert err == "error: the algebra file nests too deeply\n"


def test_invariant_bad_manifold_is_usage(capsys, alg_file):
    code, _, err = run(
        capsys, "invariant", "--algebra", alg_file, "--manifold", "P ##"
    )
    assert code == USAGE


def test_verify_algebra_good(capsys, alg_file):
    code, out, _ = run(capsys, "verify-algebra", alg_file)
    assert code == OK
    assert "all axioms hold" in out


# The witnesses of the broken algebra below, in the order verify-algebra
# prints them: (axiom, indices, lhs, rhs).
BROKEN_WITNESSES = [
    ("commutativity", [0, 1, 0], 0, 1),
    ("commutativity", [0, 1, 1], 1, 0),
    ("commutativity", [1, 0, 0], 1, 0),
    ("commutativity", [1, 0, 1], 0, 1),
    ("unit", [0, 0, 0], 2, 1),
    ("unit", [1, 0, 1], 1, 0),
    ("unit", [1, 1, 0], 1, 0),
    ("unit", [0, 1, 1], 2, 1),
    ("frobenius", [1, 0, 1, 0, 1], 0, 1),
    ("frobenius", [1, 0, 1, 1, 1], 1, 0),
    ("frobenius", [1, 1, 0, 0, 0], 1, 0),
    ("frobenius", [1, 1, 0, 1, 0], 0, 1),
]


# e1*e2 = e1 but e2*e1 = e2
BROKEN = {
    "dim": 2,
    "mul": [[[1, 0], [1, 0]], [[0, 1], [0, 1]]],
    "unit": [1, 1],
    "trace": [1, 1],
    "comul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
}
BROKEN_REPORT = (
    "12 violation(s):\n"
    "  commutativity[0,1,0]: 0 != 1\n"
    "  commutativity[0,1,1]: 1 != 0\n"
    "  commutativity[1,0,0]: 1 != 0\n"
    "  commutativity[1,0,1]: 0 != 1\n"
    "  unit[0,0,0]: 2 != 1\n"
    "  unit[1,0,1]: 1 != 0\n"
    "  unit[1,1,0]: 1 != 0\n"
    "  unit[0,1,1]: 2 != 1\n"
    "  frobenius[1,0,1,0,1]: 0 != 1\n"
    "  frobenius[1,0,1,1,1]: 1 != 0\n"
    "  frobenius[1,1,0,0,0]: 1 != 0\n"
    "  frobenius[1,1,0,1,0]: 0 != 1\n"
)
BROKEN_AXIOMS = [
    {"axiom": a, "indices": idx, "lhs": lhs, "rhs": rhs}
    for a, idx, lhs, rhs in BROKEN_WITNESSES
]


def test_verify_algebra_bad_axioms(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(BROKEN))
    code, out, _ = run(capsys, "verify-algebra", str(path))
    assert code == ALGBAD
    assert out == (
        "dim 2, primes: (none)\n"
        "axioms: " + BROKEN_REPORT + "legs:   all axioms hold\n"
    )
    code, out, _ = run(capsys, "--format", "json", "verify-algebra", str(path))
    assert code == ALGBAD
    want = {"axioms": BROKEN_AXIOMS, "dim": 2, "legs": [], "ok": False, "primes": []}
    assert out == _dumps(want)


# Exact exit code and stdout of each command and demo, in both formats.
# ALG names a file of the plane algebra with primes P = (2, 3) and N = 0,
# BROKEN one of the algebra above.
M_SIGNATURE = "S3 \\ 3 balls (2 in, 1 out)"
# "(pu(Q) * id) . pu(P)" as printed, which is also its G2 form, and its G1 form
PRINTED, G1_FORM = "pu(Q) * id . pu(P)", "swap . pu(P) * pu(Q)"
PLANE_BLOCKS = [
    {
        "handle_character": 1,
        "idempotent": [0, 1],
        "prime_characters": {"P": 3},
        "trace": 1,
    },
    {
        "handle_character": 1,
        "idempotent": [1, 0],
        "prime_characters": {"P": 2},
        "trace": 1,
    },
]
FOUND_STEP = {
    "step": 0,
    "rule": "unit_l",
    "direction": "fwd",
    "position": {"bottom": 0, "layers": 2, "offset": 0, "in": "source"},
    "result": "id",
}
NOT_FOUND = {
    "found": False,
    "start": "pe(P)",
    "goal": "pe(Q)",
    "rules": "CF",
    "reason": "exhausted",
    "max_steps": 16,
    "budget": 200000,
    "explored": 2,
}
LEGS_DEMO_TEXT = (
    "algebra: componentwise product on Q^2, trace = coordinate sum\n"
    "override: pe(P) acts as the rotation [[0, 1], [-1, 0]]\n"
    "lhs = m . (pe(P) * id)\n"
    "rhs = m . (id * pe(P))\n"
    "on e1 (x) e2: lhs -> [(1, -1)], rhs -> [(0, 1)]\n"
    "every plain axiom holds for this model, yet lhs != rhs:\n"
    "NOT-EQUAL - the two-sided absorption law is independent\n"
)
LEGS_DEMO = {
    "algebra": "componentwise product on Q^2, trace = coordinate sum",
    "column": "e1 (x) e2",
    "equal": False,
    "lhs": "m . (pe(P) * id)",
    "lhs_column": [[1, -1]],
    "override": {"pe(P)": [[0, 1], [-1, 0]]},
    "rhs": "m . (id * pe(P))",
    "rhs_column": [[0, 1]],
}
# name, start, goal, rules, explored, steps (None: no derivation)
REDUNDANCY_PATHS = [
    ("waist", "pe(P) . m", "m . (pe(P) * id)", "CF_LEGS", 595,
     ["unit_r rev", "legs fwd", "assoc fwd", "legs rev", "unit_r fwd", "legs rev"]),
    ("cowaist", "comul . pe(P)", "(pe(P) * id) . comul", "CF_LEGS", 286,
     ["unit_l rev", "legs rev", "frobenius_l fwd", "legs fwd", "unit_l fwd"]),
    ("colegs", "(pe(P) * id) . comul", "(id * pe(P)) . comul", "CF_LEGS", 1348,
     ["cocomm rev", "nat_swap_pe_r rev", "unit_r rev", "legs fwd",
      "frobenius_r rev", "cocomm fwd", "frobenius_r fwd", "legs rev",
      "unit_r fwd"]),
    ("primecomm", "pe(P) . pe(Q)", "pe(Q) . pe(P)", "CF_LEGS", 636,
     ["unit_l rev", "legs rev", "unit_r rev", "legs fwd", "assoc fwd",
      "legs rev", "unit_r fwd", "legs fwd", "unit_l fwd"]),
    ("legs under plain axioms", "m . (pe(P) * id)", "m . (id * pe(P))", "CF",
     1415, None),
]
G2_FULL_RULES = (
    "assoc comm unit_l unit_r coassoc cocomm counit_l counit_r frobenius_l "
    "frobenius_r swap_inv nat_swap_m_l nat_swap_m_r nat_swap_comul_l "
    "nat_swap_comul_r nat_swap_unit_l nat_swap_unit_r nat_swap_tr_l "
    "nat_swap_tr_r nat_swap_pe_l nat_swap_pe_r nat_swap_pu_l nat_swap_pu_r "
    "legs waist colegs cowaist primecomm"
).split()
ALGEBRA_FAILS = {
    "error": "algebra fails verification",
    "ok": False,
    "violations": BROKEN_AXIOMS,
}
PINNED = {
    "eq-equal-text": (
        ("eq", "m . swap", "m"),
        OK,
        f"left:  {M_SIGNATURE}\nright: {M_SIGNATURE}\nEQUAL\n",
    ),
    "eq-equal-json": (
        ("--format", "json", "eq", "m . swap", "m"),
        OK,
        _dumps(
            {
                "equal": True,
                "left": "m . swap",
                "left_signature": M_SIGNATURE,
                "right": "m",
                "right_signature": M_SIGNATURE,
            }
        ),
    ),
    "eq-differ-text": (
        ("eq", "pe(P)", "pe(Q)"),
        DIFFER,
        "left:  P \\ 2 balls (1 in, 1 out)\n"
        "right: Q \\ 2 balls (1 in, 1 out)\n"
        "NOT-EQUAL\n",
    ),
    "eq-differ-json": (
        ("--format", "json", "eq", "pe(P)", "pe(Q)"),
        DIFFER,
        _dumps(
            {
                "equal": False,
                "left": "pe(P)",
                "left_signature": "P \\ 2 balls (1 in, 1 out)",
                "right": "pe(Q)",
                "right_signature": "Q \\ 2 balls (1 in, 1 out)",
            }
        ),
    ),
    "normalize-G1-text": (
        ("normalize", "(pu(Q) * id) . pu(P)"),
        OK,
        G1_FORM + "\n",
    ),
    "normalize-G1-json": (
        ("--format", "json", "normalize", "(pu(Q) * id) . pu(P)"),
        OK,
        _dumps(
            {"input": PRINTED, "normal_form": G1_FORM, "presentation": "G1"}
        ),
    ),
    "normalize-G2-text": (
        ("normalize", "(pu(Q) * id) . pu(P)", "--presentation", "G2"),
        OK,
        PRINTED + "\n",
    ),
    "normalize-G2-json": (
        ("--format", "json", "normalize", "(pu(Q) * id) . pu(P)",
         "--presentation", "G2"),
        OK,
        _dumps({"input": PRINTED, "normal_form": PRINTED, "presentation": "G2"}),
    ),
    "eval-entries-text": (
        ("eval", "pe(P)", "--algebra", "ALG"),
        OK,
        "dom_arity: 1\ncod_arity: 1\nd: 2\n(0,0) = 2\n(1,1) = 3\n",
    ),
    "eval-entries-json": (
        ("--format", "json", "eval", "pe(P)", "--algebra", "ALG"),
        OK,
        _dumps(
            {
                "cod_arity": 1,
                "d": 2,
                "dom_arity": 1,
                "entries": [[0, 0, 2], [1, 1, 3]],
            }
        ),
    ),
    "eval-zero-text": (
        ("eval", "comul . pe(N)", "--algebra", "ALG"),
        OK,
        "dom_arity: 1\ncod_arity: 2\nd: 2\nzero map\n",
    ),
    "eval-zero-json": (
        ("--format", "json", "eval", "comul . pe(N)", "--algebra", "ALG"),
        OK,
        _dumps({"cod_arity": 2, "d": 2, "dom_arity": 1, "entries": []}),
    ),
    "invariant-idempotents-text": (
        ("invariant", "--algebra", "ALG", "--manifold", "P # (S2xS1)^1",
         "--idempotents"),
        OK,
        "Z(P # (S2xS1)^1) = 5\n"
        "  block 0: trace 1, chi(handle) 1, chi(P) 3\n"
        "  block 1: trace 1, chi(handle) 1, chi(P) 2\n"
        "character sum = 5\n",
    ),
    "invariant-idempotents-json": (
        ("--format", "json", "invariant", "--algebra", "ALG", "--manifold",
         "P # (S2xS1)^1", "--idempotents"),
        OK,
        _dumps(
            {
                "blocks": PLANE_BLOCKS,
                "character_sum": 5,
                "manifold": "P # (S2xS1)^1",
                "value": 5,
            }
        ),
    ),
    "rewrite-path-found-text": (
        ("rewrite-path", "m . (unit * id)", "id", "--rules", "CF"),
        OK,
        "FOUND in 1 step(s) (explored 1)\n  1. unit_l fwd -> id\n",
    ),
    "rewrite-path-found-json": (
        ("--format", "json", "rewrite-path", "m . (unit * id)", "id",
         "--rules", "CF"),
        OK,
        _dumps(
            {
                "found": True,
                "start": "m . unit * id",
                "goal": "id",
                "rules": "CF",
                "explored": 1,
                "steps": [FOUND_STEP],
            },
            sort_keys=False,
        ),
    ),
    "rewrite-path-not-found-text": (
        ("rewrite-path", "pe(P)", "pe(Q)", "--rules", "CF",
         "--max-extra-layers", "0"),
        DIFFER,
        "NOT FOUND within bounds (reason: exhausted, max_steps 16, explored 2)\n",
    ),
    "rewrite-path-not-found-json": (
        ("--format", "json", "rewrite-path", "pe(P)", "pe(Q)", "--rules", "CF",
         "--max-extra-layers", "0"),
        DIFFER,
        _dumps(NOT_FOUND, sort_keys=False),
    ),
    "eval-algebra-fails-text": (
        ("eval", "m", "--algebra", "BROKEN"),
        ALGBAD,
        "algebra fails verification\n" + BROKEN_REPORT,
    ),
    "eval-algebra-fails-json": (
        ("--format", "json", "eval", "m", "--algebra", "BROKEN"),
        ALGBAD,
        _dumps(ALGEBRA_FAILS),
    ),
    "invariant-algebra-fails-text": (
        ("invariant", "--algebra", "BROKEN", "--manifold", "P"),
        ALGBAD,
        "algebra fails verification\n" + BROKEN_REPORT,
    ),
    "invariant-algebra-fails-json": (
        ("--format", "json", "invariant", "--algebra", "BROKEN", "--manifold",
         "P"),
        ALGBAD,
        _dumps(ALGEBRA_FAILS),
    ),
    "demo-legs-counterexample-text": (
        ("demo", "legs-counterexample"),
        OK,
        LEGS_DEMO_TEXT,
    ),
    "demo-legs-counterexample-json": (
        ("--format", "json", "demo", "legs-counterexample"),
        OK,
        _dumps(LEGS_DEMO),
    ),
    "demo-redundancy-paths-text": (
        ("demo", "redundancy-paths"),
        OK,
        "waist: pe(P) . m  =>  m . (pe(P) * id)  [CF_LEGS]: "
        "derived in 6 step(s) [ok]\n"
        "cowaist: comul . pe(P)  =>  (pe(P) * id) . comul  [CF_LEGS]: "
        "derived in 5 step(s) [ok]\n"
        "colegs: (pe(P) * id) . comul  =>  (id * pe(P)) . comul  [CF_LEGS]: "
        "derived in 9 step(s) [ok]\n"
        "primecomm: pe(P) . pe(Q)  =>  pe(Q) . pe(P)  [CF_LEGS]: "
        "derived in 9 step(s) [ok]\n"
        "legs under plain axioms: m . (pe(P) * id)  =>  m . (id * pe(P))  [CF]: "
        "no derivation (exhausted) [ok]\n"
        "all as expected\n",
    ),
    "demo-redundancy-paths-json": (
        ("--format", "json", "demo", "redundancy-paths"),
        OK,
        _dumps(
            {
                "ok": True,
                "paths": [
                    {
                        "expected_found": steps is not None,
                        "explored": explored,
                        "found": steps is not None,
                        "goal": goal,
                        "name": name,
                        "rules": rules,
                        "start": start,
                        "steps": steps,
                    }
                    for name, start, goal, rules, explored, steps in REDUNDANCY_PATHS
                ],
            }
        ),
    ),
    "demo-ruleset-soundness-text": (
        ("demo", "ruleset-soundness"),
        OK,
        "".join(f"{rule}: sound\n" for rule in G2_FULL_RULES)
        + "ruleset G2_FULL: sound\n",
    ),
    "demo-ruleset-soundness-json": (
        ("--format", "json", "demo", "ruleset-soundness"),
        OK,
        _dumps(
            {
                "checked": [{"rule": rule, "sound": True} for rule in G2_FULL_RULES],
                "rules": "G2_FULL",
                "sound": True,
            }
        ),
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_output_is_pinned(capsys, tmp_path, name):
    files = {
        "ALG": algebra_to_json(hadamard_algebra({"P": (2, 3), "N": (0, 0)})),
        "BROKEN": json.dumps(BROKEN),
    }
    for key, text in files.items():
        (tmp_path / f"{key}.json").write_text(text)
    argv, code, out = PINNED[name]
    argv = [str(tmp_path / f"{a}.json") if a in files else a for a in argv]
    assert run(capsys, *argv) == (code, out, "")


def test_pinned_outputs_are_ascii():
    # a stdout that is not UTF-8 must be able to print every output
    assert [name for name, (_, _, out) in PINNED.items() if not out.isascii()] == []


def test_rewrite_path_found(capsys):
    code, out, _ = run(
        capsys, "rewrite-path", "m . (unit * id)", "id", "--rules", "CF"
    )
    assert code == OK
    assert "unit_l" in out


def test_rewrite_path_not_found(capsys):
    code, out, _ = run(
        capsys,
        "rewrite-path",
        "pe(P)",
        "pe(Q)",
        "--rules",
        "CF",
        "--max-extra-layers",
        "0",
    )
    assert code == DIFFER
    assert "exhausted" in out


@pytest.mark.parametrize(
    "flag", ["--max-steps", "--budget", "--max-extra-layers"]
)
def test_rewrite_path_rejects_negative_bounds(capsys, flag):
    code, out, err = run(capsys, "rewrite-path", "m . (unit * id)", "id", flag, "-3")
    assert code == USAGE
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_rewrite_path_unknown_ruleset(capsys):
    code, _, err = run(capsys, "rewrite-path", "m", "m", "--rules", "XL")
    assert code == USAGE


def test_rules_help_names_every_rule_set(capsys, monkeypatch):
    # a rule set added later shows up in the help without editing it
    monkeypatch.setitem(RULE_SETS, "G3_EXTRA", RULE_SETS["CF"])
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["rewrite-path", "--help"])
    assert exc.value.code == 0
    words = set(re.findall(r"\w+", capsys.readouterr().out))
    assert set(RULE_SETS) <= words


def test_rewrite_path_help_names_every_bound(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["rewrite-path", "--help"])
    assert exc.value.code == 0
    out = " ".join(capsys.readouterr().out.split())
    for flag, help_text in (
        ("--max-steps", "most rewrite steps"),
        ("--budget", "most states stored"),
        ("--max-extra-layers", "most layers a state may have"),
    ):
        assert f"{flag} {flag[2:].upper().replace('-', '_')} {help_text}" in out
    # the budget counts normal forms, and the search stops building
    # successors once it is passed
    assert "one per normal form" in out
    assert "builds no successor past the one that passes it" in out


def test_demo_counterexample(capsys):
    code, out, _ = run(capsys, "demo", "legs-counterexample")
    assert code == OK
    assert "-1" in out


def test_demo_soundness(capsys):
    code, out, _ = run(capsys, "--format", "json", "demo", "ruleset-soundness")
    assert code == OK
    data = json.loads(out)
    assert data["sound"] is True and len(data["checked"]) == 28


def test_output_is_byte_deterministic(capsys, alg_file):
    runs = []
    for _ in range(2):
        _, out, _ = run(
            capsys,
            "--format",
            "json",
            "invariant",
            "--algebra",
            alg_file,
            "--manifold",
            "P # (S2xS1)^1",
            "--idempotents",
        )
        runs.append(out)
    assert runs[0] == runs[1]
    _, o1, _ = run(capsys, "--format", "json", "eq", "pe(P) . unit", "pu(P)")
    _, o2, _ = run(capsys, "--format", "json", "eq", "pe(P) . unit", "pu(P)")
    assert o1 == o2


def test_repeated_calls_match_fresh_processes(capsys):
    calls = [
        ("--format", "json", "normalize", "m . swap", "--presentation", "G2"),
        ("eq", "pe(P)", "pe(Q)"),
        ("normalize", "m . swap"),
    ]
    in_process = [run(capsys, *argv)[:2] for argv in calls]
    assert in_process == [run_fresh(*argv) for argv in calls]


def test_g2_text_does_not_depend_on_label_order():
    # one diagram, its two labels met in opposite orders by two processes
    texts = {
        run_fresh("normalize", text, "--presentation", "G2")
        for text in ("(pu(Q) * id) . pu(P)", "(id * pu(P)) . pu(Q)")
    }
    assert len(texts) == 1 and texts.pop()[0] == OK


def _readme_command_line():
    """The `cob3 ...` lines and the algebra file of README's "Command line"."""
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    commands = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    lines = commands.replace("\\\n", " ").splitlines()
    plane = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    return [shlex.split(line)[1:] for line in lines if line.startswith("cob3 ")], plane


def test_readme_commands_run(capsys, tmp_path, monkeypatch):
    commands, plane = _readme_command_line()
    (tmp_path / "plane.json").write_text(plane)
    monkeypatch.chdir(tmp_path)
    assert len(commands) == 12
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (argv, code, err) == (argv, OK, "")
        assert out


# Two equal pairs whose derivations once needed a goal-side edge the
# matcher could not find backwards.
EDGE_INVERSION_PAIRS = [
    ("swap . (id * unit) . pe(P) . unit", "(unit * id) . pe(P) . unit"),
    ("m . (unit * id) . pu(P) . tr . pe(P) . pu(P)", "pu(P) . tr . pe(P) . pu(P)"),
]


@pytest.mark.parametrize("pair", EDGE_INVERSION_PAIRS)
def test_rewrite_path_trace_replays(capsys, pair):
    argv = ("--format", "json", "rewrite-path", *pair, "--rules", "CF_LEGS")
    code, out, err = run(capsys, *argv, "--max-steps", "24", "--max-extra-layers", "4")
    assert (code, err) == (OK, "")
    data = json.loads(out)
    steps = tuple(
        cob3.TraceStep(s["rule"], s["direction"], s["position"], s["result"])
        for s in data["steps"]
    )
    trace = cob3.RewriteTrace(data["start"], data["goal"], data["rules"], steps)
    assert any(s.position["in"] == "result" for s in steps)
    cob3.replay(trace)


def test_unexpected_exception_is_internal_error(capsys, monkeypatch):
    def broken(*_args, **_kwargs):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(cob3.cli, "find_path", broken)
    code, out, err = run(capsys, "rewrite-path", "m", "m")
    assert code == INTERNAL
    assert out == ""
    assert err == "internal error: RuntimeError: unexpected\n"


DEEP = 10_000
DEEP_INPUTS = {
    "chain": (" . ".join(["pe(P)"] * DEEP), (1, 1)),
    "nested": ("(" * DEEP + "m" + ")" * DEEP, (2, 1)),
    "wide": (" * ".join(["id"] * DEEP), (DEEP, DEEP)),
}


@pytest.mark.parametrize("name", DEEP_INPUTS)
def test_deep_input_is_accepted(capsys, name):
    # deep and wide inputs cost no recursion anywhere in the front end
    text, arity = DEEP_INPUTS[name]
    started = time.perf_counter()
    term = parse(text)
    printed = print_term(term)
    again = parse(printed)
    assert again == term and hash(again) == hash(term)
    assert repr(again) == repr(term)
    assert typecheck(term) == arity
    assert term_to_state(term)[0] == arity[0]
    assert cospan_of_term(term).cod == arity[1]
    for argv in (("eq", text, printed), ("normalize", text, "--presentation", "G2")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (OK, "")
        assert out
    assert time.perf_counter() - started < 5
