"""Exit codes and structured output of the `ncm` command line.

0 means the question was answered, 2 flags bad input and 3 means the
resource budget ran out before an answer.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import ncmkit
from ncmkit.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main

from conftest import FIXTURES, fixture_path

ANBN = fixture_path("anbn.ncm")
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.ncm"))
SRC = str(Path(ncmkit.__file__).resolve().parent.parent)


def run(argv) -> int:
    """The exit status of `ncm argv`, also when argparse exits early."""
    try:
        return main(argv)
    except SystemExit as stop:
        return stop.code


def test_answered_query_exits_0(capsys):
    assert run(["member", ANBN, "ab"]) == EXIT_OK
    assert capsys.readouterr().out.startswith("answer=yes ")


def test_missing_file_exits_2(capsys, tmp_path):
    assert run(["member", str(tmp_path / "absent.ncm"), "ab"]) == EXIT_INPUT
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_budget_below_1_exits_2(capsys, budget):
    assert run(["empty", ANBN, f"--budget={budget}"]) == EXIT_INPUT
    assert "--budget" in capsys.readouterr().err


def test_exhausted_budget_exits_3(capsys):
    assert run(["infinite", ANBN, "--budget", "1"]) == EXIT_BUDGET
    assert "budget" in capsys.readouterr().err


# budget_used counts the flow-search nodes a verdict took (plus what
# determinization and constructions charge), so these figures pin the
# search itself: another search may expand other nodes and find other
# witnesses, but never give another answer.  A walk read straight off
# the root's LP vertex expands no node, as in every empty cell here.
# empty and infinite run on every fixture; bd-bounded 3 runs one
# containment check per candidate pattern and then one over their union;
# satisfies runs one containment check of the machine's behaviors.
SEARCHES = [
    (["infinite", fixture_path("aibjcidj.ncm")], True, 8, "abbcdd,abbbcddd"),
    (["infinite", fixture_path("ex3.ncm")], True, 12,
     "aaaaaaabbbbbbbbbbbbbbb,aaaaaaaaabbbbbbbbbbbbbbbbbbbb"),
    (["infinite", fixture_path("ex2.ncm")], True, 0, "abab0,0abab0"),
    (["infinite", fixture_path("ex4a-m1.ncm")], True, 6, "bbamabb,bbbamabbb"),
    (["empty", fixture_path("ex2.ncm")], False, 0, "abab0"),
    (["empty", fixture_path("aibjcidj.ncm")], False, 0, "<eps>"),
    (["empty", fixture_path("anbn-cldl.ncm")], False, 0, "<eps>"),
    (["empty", fixture_path("anbn.ncm")], False, 0, "<eps>"),
    (["empty", fixture_path("anbncn.ncm")], False, 0, "<eps>"),
    (["empty", fixture_path("ex3.ncm")], False, 0, "aabbb"),
    (["empty", fixture_path("ex4a-m1.ncm")], False, 0, "m"),
    (["empty", fixture_path("loop.ncm")], False, 0, "a"),
    (["infinite", fixture_path("anbn.ncm")], True, 5, "aabb,aaabbb"),
    (["infinite", fixture_path("anbncn.ncm")], True, 4, "aabbcc,aaabbbccc"),
    (["infinite", fixture_path("anbn-cldl.ncm")], True, 8, "abccdd,abcccddd"),
    (["infinite", fixture_path("loop.ncm")], False, 0, None),
    (["bd-bounded", fixture_path("anbn.ncm"), "3"], True, 46, "C1* D1*"),
    (["bd-bounded", fixture_path("anbncn.ncm"), "3"], False, 366, "C1C2D1D2"),
    (["bd-bounded", fixture_path("anbn-cldl.ncm"), "3"], False, 366, "C1D1C2D2"),
    (["bd-bounded", fixture_path("loop.ncm"), "3"], True, 46, "C1* D1*"),
    (["bd-bounded", fixture_path("aibjcidj.ncm"), "3"], False, 366, "C1C2D1D2"),
    (["bd-bounded", fixture_path("ex4a-m1.ncm"), "3"], False, 366, "C2C1D1D2"),
    (["satisfies", fixture_path("ex3.ncm"), "--pattern", "C1*C2*C3*C4*D1*D2*D3*D4*"],
     False, 17, "C1C2C3C4D1D3D2D4"),
]


@pytest.mark.parametrize("argv, answer, budget_used, witness", SEARCHES,
                         ids=[" ".join(a[:1] + [a[1].rsplit("/", 1)[-1]])
                              for a, _, _, _ in SEARCHES])
def test_structured_verdict(capsys, argv, answer, budget_used, witness):
    assert run([*argv, "--format", "structured"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert set(verdict) == {"answer", "witness", "certificate", "budget_used"}
    assert verdict["answer"] is answer
    assert verdict["budget_used"] == budget_used
    assert verdict["witness"] == witness


@pytest.mark.parametrize("verb", ["satisfies", "restrict"])
def test_pattern_naming_a_missing_counter_exits_2(capsys, verb):
    assert run([verb, ANBN, "--pattern", "C3*"]) == EXIT_INPUT
    assert "counter 3" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["enumerate", ANBN, "--max-len", "-2"],
                                  ["compare", ANBN, ANBN, "--max-len", "-1"]],
                         ids=["enumerate", "compare"])
def test_negative_max_len_exits_2(capsys, argv):
    assert run(argv) == EXIT_INPUT
    assert "--max-len" in capsys.readouterr().err


# The parsers are recursive; input nested deeper than they accept must
# be refused as a syntax error, not end in a RecursionError traceback.
NESTED = [
    ["classify", "--pattern", "(" * 260 + "C1" + ")" * 260],
    ["closure", "intersect", ANBN, "--regex", "(" * 3000 + "a" + ")" * 3000],
]


@pytest.mark.parametrize("argv", NESTED, ids=["pattern", "regex"])
def test_deeply_nested_input_exits_2(capsys, argv):
    assert run(argv) == EXIT_INPUT
    assert "nested more than" in capsys.readouterr().err


def test_enumerate_reads_max_len(capsys):
    assert run(["enumerate", ANBN, "--max-len", "2"]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["<eps>", "ab"]


@pytest.mark.parametrize("argv", [["empty", ANBN, "--seed", "1"],
                                  ["member", ANBN, "ab", "--max-len", "3"]],
                         ids=["seed", "max-len on member"])
def test_options_a_verb_does_not_read_exit_2(capsys, argv):
    assert run(argv) == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err


# Structured answers and witnesses of the letter-bounded verbs on every
# fixture whose cell decides in a few seconds.  Left out: m-bounded 2 on
# anbn-cldl, whose odd-length system is LP-feasible with no integer
# solution, so its search does not finish.
LETTER_BOUNDED = [
    ("letter-bounded", "anbn", True, "a,b"),
    ("letter-bounded", "anbncn", True, "a,b,c"),
    ("letter-bounded", "anbn-cldl", True, "a,b,c,d"),
    ("letter-bounded", "loop", True, "a"),
    ("letter-bounded", "aibjcidj", True, "a,b,c,d"),
    ("letter-bounded", "ex3", True, "a,b"),
    ("letter-bounded", "ex2", False, "abab0,abab010"),
    ("letter-bounded", "ex4a-m1", False, "bbaamaabb,bbaabamaaabbb"),
    ("m-bounded 2", "anbn", True, "aa,ab,bb"),
    ("m-bounded 2", "anbncn", False, "abc"),
    ("m-bounded 2", "loop", False, "a"),
    ("m-bounded 2", "aibjcidj", True, "aa,ab,ac,bb,bc,bd,cc,cd,dd"),
    ("m-bounded 2", "ex3", False, "aabbb"),
    ("m-bounded 2", "ex4a-m1", False, "m"),
    ("m-bounded 2", "ex2", False, "abab0"),
    ("infer LB", "anbn", True, "C1,D1"),
    ("infer LB", "anbncn", False,
     "C1C2C1C2D1D1D2D2,C1C2C1C2C1C2D1D1D1D2D2D2"),
    ("infer LB", "anbn-cldl", True, "C1,D1,C2,D2"),
    ("infer LB", "loop", True, "C1,D1"),
    ("infer LB", "aibjcidj", True, "C1,C2,D1,D2"),
    ("infer LB", "ex3", False,
     "C1C2C3C4C3C4D1D3D3D2D4D4,C1C2C3C4C3C4C3C4D1D3D3D3D2D4D4D4"),
    ("infer LB", "ex2", True, "C1,C2,D1,D2"),
    ("infer LB", "ex4a-m1", False,
     "C2C2C1C1D1D1D2D2,C2C2C1C1C2C1D1D1D1D2D2D2"),
]


@pytest.mark.parametrize("verb, name, answer, witness", LETTER_BOUNDED,
                         ids=[f"{v} {n}" for v, n, _, _ in LETTER_BOUNDED])
def test_letter_bounded_verdicts(capsys, verb, name, answer, witness):
    words = verb.split()
    argv = [words[0], fixture_path(f"{name}.ncm"), *words[1:]]
    assert run([*argv, "--format", "structured"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert (verdict["answer"], verdict["witness"]) == (answer, witness)


# Blocks of the letters a and aa must get distinct names: run together,
# (a, aa) and (aa, a) both read "aaa".  The witness and the certificate
# name each block by its letters in brackets.
ALTERNATING = """ncm
counters 1
alphabet a aa
states p q
initial p
final p
trans t1 p {} * q 0
trans t2 q {} * p 0
"""


def test_m_bounded_with_multi_character_letters(capsys, tmp_path):
    for first, second in [("a", "aa"), ("aa", "a")]:
        path = tmp_path / f"{first}-{second}.ncm"
        path.write_text(ALTERNATING.format(first, second))
        assert run(["m-bounded", str(path), "2", "--format", "structured"]) == EXIT_OK
        verdict = json.loads(capsys.readouterr().out)
        block = f"[{first} {second}]"
        assert (verdict["answer"], verdict["witness"]) == (True, block)
        assert verdict["certificate"] == f"language contained in {block}*"


@pytest.mark.parametrize("m", ["20000", "1000000"])
def test_m_bounded_charges_its_blocks_before_building(capsys, m):
    assert run(["m-bounded", ANBN, m, "--budget", "10"]) == EXIT_BUDGET
    assert "budget of 10 exhausted" in capsys.readouterr().err


# Without a budget, both constructions run for over a minute; every
# transition they add is charged, so a small budget stops them at once.
@pytest.mark.parametrize("argv", [["generator", "LB", "11"], ["sbd-form", "7"]],
                         ids=["generator", "sbd-form"])
def test_construction_verbs_charge_the_budget(capsys, argv):
    start = time.process_time()
    assert run([*argv, "--budget", "10"]) == EXIT_BUDGET
    assert time.process_time() - start < 5
    assert "budget of 10 exhausted during machine construction" in capsys.readouterr().err


# Prints the dump of every construction; the dumps must not depend on
# the hash seed, because labels give phase-edge ids and with them the
# branch order of the flow search.
CONSTRUCTIONS = """
import sys
from ncmkit.build import (concat, distinct_normal_form, homomorphism_image,
    intersect_regular, inverse_homomorphism, reversal, sbd_form,
    trio_decomposition, union)
from ncmkit.decide import _last_letter_product, restrict_to_instructions
from ncmkit.machine import dump_machine, load_machine
from ncmkit.nfa import parse_word_regex
from ncmkit.patterns import GENERATOR_TAGS, generator, parse_pattern

fixtures = {path.rsplit("/", 1)[-1][:-4]: load_machine(path)
            for path in sys.argv[1:]}
anbn, loop, ex2 = fixtures["anbn"], fixtures["loop"], fixtures["ex2"]
both = union(anbn, loop)
built = [generator(tag, k) for tag in GENERATOR_TAGS for k in (1, 2, 3)]
built += [sbd_form(k) for k in (1, 2, 3)]
built += [both, union(ex2, anbn), concat(both, anbn), concat(anbn, both)]
built += [reversal(ex2), reversal(generator("LB", 2)),
          homomorphism_image(ex2, {"a": "xy", "b": "", "0": "0", "1": "1"}),
          inverse_homomorphism(anbn, {"x": "ab", "y": "a", "z": ""}),
          intersect_regular(ex2, parse_word_regex("(a|b)* 0 (0|1)*")),
          distinct_normal_form(parse_pattern("C1* D1* C1* D1*")),
          restrict_to_instructions(ex2, "C1* C2* D1* D2*")]
built += [_last_letter_product(m)[0] for m in fixtures.values()]
for machine in built:
    print(dump_machine(machine))
decomposition = trio_decomposition(ex2)
print(decomposition.gamma, sorted(decomposition.control.transitions))
print([sorted(_last_letter_product(m)[1]) for m in fixtures.values()])
"""


def test_last_letter_product_ignores_the_hash_seed():
    paths = [fixture_path(f"{name}.ncm") for name in FIXTURE_NAMES]
    dumps = {subprocess.run([sys.executable, "-c", CONSTRUCTIONS, *paths],
                            capture_output=True, text=True, check=True,
                            env={**os.environ, "PYTHONPATH": SRC,
                                 "PYTHONHASHSEED": seed}).stdout
             for seed in ("1", "2", "3")}
    assert len(dumps) == 1


def test_repeated_main_calls_print_what_separate_calls_print(capsys):
    argvs = [
        ["member", ANBN, "ab"],
        ["empty", ANBN, "--format", "structured"],
        ["enumerate", ANBN, "--max-len", "2"],
        ["infinite", ANBN, "--budget", "1"],
        ["classify", "--pattern", "C1*D1*", "--format", "structured"],
        ["member", ANBN, "ab", "--max-len", "3"],
        ["letter-bounded", ANBN],
        ["member", ANBN, "aab", "--budget", "50", "--format", "structured"],
    ]
    for argv in argvs:
        code = run(argv)
        here = capsys.readouterr()
        alone = subprocess.run([sys.executable, "-m", "ncmkit.cli", *argv],
                               capture_output=True, text=True,
                               env={**os.environ, "PYTHONPATH": SRC})
        assert (code, here.out, here.err) == (
            alone.returncode, alone.stdout, alone.stderr), argv
