"""Fuzz the command line: every input ends in a documented exit code.

Each call must exit 0, 1 or 2, never 4 (an internal error); on exit 2,
stdout is empty and stderr is one "error:" line; and each call finishes
within a few seconds.

Both normal forms run on every input. G1 text grows with the square of
the width: balanced trees merge and split each piece, and odd-even
transposition routes the wires, so a tensor of 1000 pe(P) gives about
8.5 MB of text, and the 80-wide tensor over five labels below 96 KB.

rewrite-path searches every input against itself, the short inputs
against their neighbours, which mostly differ in width, the 40-generator
inputs against their G1 text, and a 200-layer pe(P) chain against id.
--budget counts the distinct states stored, and the search stops building
children once that count passes it, so at --budget 100 the longest of
these searches took 0.11 s (0.74 s when every child was normalised as it
was built; 2-vCPU x86-64 box, Python 3.11). The 3000-layer inputs are
searched against themselves only: the 3000-layer chain against id still
took 1.1 s, since each of the 99 children it stores is normalised, and
its full child list would hold about 12 000 near-copies of it.
"""

import random
import time

from cob3 import algebra_to_json, cospan_of_term, hadamard_algebra, parse, print_term
from cob3.cli import main
from cob3.rewrite import g1_text
from cob3.terms import random_term

SECONDS_PER_CALL = 5.0
SEARCH = ("--max-steps", "2", "--budget", "100")

LONG = [
    "(" * 5000 + "m" + ")" * 5000,
    " . ".join(["pe(P)"] * 3000),
    " * ".join(["id"] * 3000),
]
# wide tensors: 1000 labelled boxes side by side, 80 over five labels, 30
# floating units, whose 30! layerings are one diagram, and identity-heavy
# terms whose maps are past eval's size limit, or exactly at it
WIDE = [
    " * ".join(["pe(P)"] * 1000),
    " * ".join(f"pe({'PQRST'[i % 5]})" for i in range(80)),
    " * ".join(["unit"] * 30),
    " * ".join(["id"] * 39 + ["(m . comul)"]),
    " * ".join(["id"] * 16 + ["pe(P)"]),
]
MALFORMED = [
    "(m . swap",
    "m . swap)",
    ")(",
    "pe()",
    "pe(P",
    "pe(P Q)",
    "pe(P$)",
    "pu()",
    "pe(?p)",
    "pu(?p)",
    "m\x00",
    "pe(Ä)",
    "m — id",
    "",
    "   ",
    "pe",
    "m .",
    ". m",
    "m * * id",
    "foo",
    "m . m",
    "tr . tr",
]


def random_texts():
    """Seeded random terms of up to 4, 12 and 40 generators."""
    rng = random.Random("cli-fuzz")
    sizes = [4] * 12 + [12] * 12 + [40] * 24
    return [print_term(random_term(rng, max_gens=size)) for size in sizes]


def calls(alg):
    texts = random_texts()
    for x in LONG + texts + MALFORMED:
        yield ("eq", x, x)
        yield ("normalize", x)
        yield ("normalize", x, "--presentation", "G2")
        yield ("rewrite-path", x, x, *SEARCH)
        yield ("eval", x, "--algebra", alg)
    # 16 characters of genus 10**7: refused where a handle character is
    # not 0 or +-1 (test_cli.py), computed by repeated squaring here
    yield ("invariant", "--manifold", "(S2xS1)^10000000", "--algebra", alg)
    for x in WIDE:
        yield ("normalize", x)
        yield ("normalize", x, "--presentation", "G2")
        yield ("eval", x, "--algebra", alg)
    short = texts[:24] + MALFORMED
    for x, y in zip(short, short[1:]):
        yield ("eq", x, y)
        yield ("rewrite-path", x, y, *SEARCH)
    for x in texts[24:]:
        yield ("rewrite-path", x, g1_text(cospan_of_term(parse(x))), *SEARCH)
    yield ("rewrite-path", " . ".join(["pe(P)"] * 200), "id", *SEARCH)


def test_every_call_ends_in_a_documented_exit_code(capsys, tmp_path):
    alg = tmp_path / "plane.json"
    alg.write_text(algebra_to_json(hadamard_algebra()))
    codes = {}
    for argv in calls(str(alg)):
        start = time.perf_counter()
        code = main(list(argv))
        seconds = time.perf_counter() - start
        out, err = capsys.readouterr()
        what = f"{argv[0]} on {argv[1][:40]!r}"
        assert code in (0, 1, 2), f"{what}: exit {code}: {err}"
        if code == 2:
            assert out == "", what
            assert err.startswith("error: ") and err.count("\n") == 1, what
        assert seconds < SECONDS_PER_CALL, f"{what}: {seconds:.1f} s"
        codes[code] = codes.get(code, 0) + 1
    # the corpus reaches every documented outcome
    assert set(codes) == {0, 1, 2}
