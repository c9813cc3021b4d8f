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
from cob3.cli import ALGBAD, DIFFER, INTERNAL, OK, USAGE, main


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


def test_normalize_both_presentations(capsys):
    code, out, _ = run(capsys, "normalize", "m . swap")
    assert code == OK
    code2, out2, _ = run(capsys, "normalize", "m")
    assert out == out2  # semantic normal forms of one bordism coincide
    code3, out3, _ = run(capsys, "normalize", "m . swap", "--presentation", "G2")
    assert code3 == OK and out3.strip()


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


def test_invariant_bad_manifold_is_usage(capsys, alg_file):
    code, _, err = run(
        capsys, "invariant", "--algebra", alg_file, "--manifold", "P ##"
    )
    assert code == USAGE


def test_verify_algebra_good(capsys, alg_file):
    code, out, _ = run(capsys, "verify-algebra", alg_file)
    assert code == OK
    assert "all axioms hold" in out


def test_verify_algebra_bad_axioms(capsys, tmp_path):
    broken = {
        "dim": 2,
        "mul": [[[1, 0], [1, 0]], [[0, 1], [0, 1]]],
        "unit": [1, 1],
        "trace": [1, 1],
        "comul": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, out, _ = run(capsys, "verify-algebra", str(path))
    assert code == ALGBAD
    assert "commutativity" in out


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
