"""Exit codes and structured output of the `ncm` command line.

0 means the question was answered, 2 flags bad input and 3 means the
resource budget ran out before an answer.
"""

import json

import pytest

from ncmkit.cli import EXIT_BUDGET, EXIT_INPUT, EXIT_OK, main

from conftest import fixture_path

ANBN = fixture_path("anbn.ncm")


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


# budget_used counts the flow-search nodes a verdict took, so these
# figures pin the search itself: a faster search must expand the same
# nodes in the same order to answer with the same witnesses.
SEARCHES = [
    (["infinite", fixture_path("aibjcidj.ncm")], True, 2015),
    (["infinite", fixture_path("ex3.ncm")], True, 1498),
    (["infinite", fixture_path("ex2.ncm")], True, 3384),
    (["infinite", fixture_path("ex4a-m1.ncm")], True, 4682),
    (["empty", fixture_path("ex2.ncm")], False, 1224),
]


@pytest.mark.parametrize("argv, answer, budget_used", SEARCHES,
                         ids=[" ".join(a[:1] + [a[1].rsplit("/", 1)[-1]])
                              for a, _, _ in SEARCHES])
def test_structured_verdict(capsys, argv, answer, budget_used):
    assert run([*argv, "--format", "structured"]) == EXIT_OK
    verdict = json.loads(capsys.readouterr().out)
    assert set(verdict) == {"answer", "witness", "certificate", "budget_used"}
    assert verdict["answer"] is answer
    assert verdict["budget_used"] == budget_used


def test_enumerate_reads_max_len(capsys):
    assert run(["enumerate", ANBN, "--max-len", "2"]) == EXIT_OK
    assert capsys.readouterr().out.split() == ["<eps>", "ab"]


@pytest.mark.parametrize("argv", [["empty", ANBN, "--seed", "1"],
                                  ["member", ANBN, "ab", "--max-len", "3"]],
                         ids=["seed", "max-len on member"])
def test_options_a_verb_does_not_read_exit_2(capsys, argv):
    assert run(argv) == EXIT_INPUT
    assert "unrecognized arguments" in capsys.readouterr().err
