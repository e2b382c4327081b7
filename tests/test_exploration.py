"""The one state x phase exploration and the one run replay.

validate_well_formed and phase_automaton read the same exploration, so
the phase automaton is refused exactly when the report names a
violation.  replay is the one way a label sequence becomes a run:
validate_run, run_from_walk and satisfies all go through it.
"""

import dataclasses
import json
import random

import pytest

from conftest import FIXTURES, behavior, fixture_path, random_machine
from ncmkit.cli import EXIT_OK, main
from ncmkit.decide import (
    BehaviorCounterexample,
    restrict_to_instructions,
    satisfies,
)
from ncmkit.machine import (
    MachineError,
    load_machine,
    parse_machine,
    replay,
    validate_run,
    validate_well_formed,
)
from ncmkit.oracle import SimCaps, caps_for, enumerate_language, run_word
from ncmkit.patterns import expr_to_nfa, parse_pattern
from ncmkit.phase import phase_automaton

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.ncm"))

# Every violation kind, one of them off every accepting path: `both`
# changes two counters, `again`, `dead` and `both` increment counter 1
# after `down` decremented it (`dead` leads to x, which reaches no final
# state), and u accepts right after `early` with counter 1 positive.
ILL_FORMED = """\
ncm
counters 2
alphabet a b
states s t u x f
initial s
final f u
trans up s a z* s 1 0
trans more s a p* s 1 0
trans early s b p* u 0 0
trans down s b p* t -1 0
trans again t a p* s 1 0
trans dead t b pz x 1 0
trans both t @ pz u 1 1
trans out t @ zz f 0 0
"""

ILL_FORMED_VIOLATIONS = [
    ("multi-counter-change", "both", "changes counters [1, 2]", True),
    ("reversal-violation", "again:pz", "counter 1 incremented after decrementing", True),
    ("reversal-violation", "dead", "counter 1 incremented after decrementing", False),
    ("reversal-violation", "both", "counter 1 incremented after decrementing", True),
    ("nonzero-accept-possible", None,
     "state u accepts with counters [1] in positive phase", True),
]


def random_machines(seed: int = 5, count: int = 300):
    """Draws of conftest's generator without its well-formedness filter."""
    rng = random.Random(seed)
    return [random_machine(rng) for _ in range(count)]


def ncm(capsys, argv) -> str:
    assert main(argv) == EXIT_OK
    return capsys.readouterr().out


class TestOneExploration:
    def test_phase_automaton_is_refused_exactly_when_a_violation_is_reported(self):
        machines = [load_machine(fixture_path(f"{name}.ncm")) for name in FIXTURE_NAMES]
        machines += random_machines() + [parse_machine(ILL_FORMED)]
        refused = 0
        for machine in machines:
            report = validate_well_formed(machine)
            assert report.is_well_formed == (not report.violations)
            if report.violations:
                refused += 1
                with pytest.raises(MachineError, match=report.violations[0].kind):
                    phase_automaton(machine)
            else:
                pa = phase_automaton(machine)
                assert pa.initial in pa.nodes
        # the batch holds both kinds of machine
        assert 0 < refused < len(machines)

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_validate_output_on_fixtures(self, capsys, name):
        path = fixture_path(f"{name}.ncm")
        deterministic = name == "ex4a-m1"
        flag = "yes" if deterministic else "no"
        assert ncm(capsys, ["validate", path]) == \
            f"well-formed: yes\ndeterministic: {flag}\n"
        assert ncm(capsys, ["validate", path, "--format", "structured"]) == json.dumps(
            {"well_formed": True, "deterministic": deterministic, "violations": []}) + "\n"

    def test_validate_output_on_an_ill_formed_machine(self, capsys, tmp_path):
        path = tmp_path / "ill.ncm"
        path.write_text(ILL_FORMED)
        lines = ["well-formed: no", "deterministic: no"]
        for kind, label, detail, on_path in ILL_FORMED_VIOLATIONS:
            where = f" [{label}]" if label else ""
            note = "" if on_path else " (not on any accepting path)"
            lines.append(f"violation: {kind}{where}: {detail}{note}")
        assert ncm(capsys, ["validate", str(path)]) == "\n".join(lines) + "\n"
        structured = {"well_formed": False, "deterministic": False, "violations": [
            {"kind": kind, "label": label, "detail": detail, "on_accepting_path": on_path}
            for kind, label, detail, on_path in ILL_FORMED_VIOLATIONS]}
        assert ncm(capsys, ["validate", str(path), "--format", "structured"]) == \
            json.dumps(structured) + "\n"


def anbn():
    return load_machine(fixture_path("anbn.ncm"))


class TestReplay:
    def test_replays_the_oracle_runs(self):
        for name in ("anbn", "loop", "anbncn", "ex2"):
            machine = load_machine(fixture_path(f"{name}.ncm"))
            for word in enumerate_language(machine, caps_for(4)).words:
                for run in run_word(machine, word, SimCaps(max_word_len=4)).runs:
                    assert replay(machine, run.labels) == run

    def test_reads_its_word_off_the_transitions(self):
        run = replay(anbn(), ["ta:z", "ta:p", "tb", "tc", "tzq"])
        assert run.word == tuple("aabb")
        assert run.configs[-1].state == "f"
        assert run.configs[-1].counters == (0,)
        validate_run(anbn(), run)

    def test_rejects_an_unknown_label(self):
        with pytest.raises(MachineError, match="unknown transition"):
            replay(anbn(), ["ta:z", "nope", "tzq"])

    @pytest.mark.parametrize("labels", [["tb"], ["ta:z", "tc", "tzq"], ["ta:p"]],
                             ids=["guard", "source", "guard-at-start"])
    def test_rejects_a_transition_that_does_not_apply(self, labels):
        with pytest.raises(MachineError, match="does not apply"):
            replay(anbn(), labels)

    @pytest.mark.parametrize("labels", [[], ["ta:z"], ["ta:z", "tb"]])
    def test_rejects_a_run_that_does_not_end_accepting(self, labels):
        with pytest.raises(MachineError, match="does not end accepting"):
            replay(anbn(), labels)

    def test_validate_run_compares_with_the_replay(self):
        machine = anbn()
        run = replay(machine, ["ta:z", "tb", "tzq"])
        with pytest.raises(MachineError):
            validate_run(machine, dataclasses.replace(run, word=("a", "b", "b")))
        wrong = run.configs[:-1] + (dataclasses.replace(run.configs[-1], pos=1),)
        with pytest.raises(MachineError):
            validate_run(machine, dataclasses.replace(run, configs=wrong))


# (fixture, pattern, does every behavior match?)
SATISFIES = [
    ("anbn", "C1*D1*", True),
    ("anbn", "(C1D1)*", False),
    ("anbncn", "C1*C2*D1*D2*", False),
]


@pytest.mark.parametrize("name, pattern, answer", SATISFIES,
                         ids=[f"{n} {p}" for n, p, _ in SATISFIES])
def test_satisfies(name, pattern, answer):
    machine = load_machine(fixture_path(f"{name}.ncm"))
    verdict = satisfies(machine, pattern)
    assert verdict.answer is answer
    if answer:
        assert verdict.witness is None
        return
    assert isinstance(verdict.witness, BehaviorCounterexample)
    run = verdict.witness.run
    validate_run(machine, run)
    assert run_word(machine, run.word).runs
    instructions = behavior(machine, run)
    assert "".join(instructions) == verdict.witness.behavior
    assert not expr_to_nfa(parse_pattern(pattern), machine.k).accepts(instructions)


@pytest.mark.parametrize("pattern", ["C1*D1*", "(C1D1)*", "C1*C2*D1*D2*"])
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_restrict_keeps_the_words_of_runs_inside_the_pattern(name, pattern):
    """Up to length 5, the restricted machine accepts exactly the words
    with an oracle run whose behavior the pattern accepts."""
    machine = load_machine(fixture_path(f"{name}.ncm"))
    expr = parse_pattern(pattern)
    if expr.k > machine.k:
        with pytest.raises(MachineError, match="counter"):
            restrict_to_instructions(machine, expr)
        return
    nfa = expr_to_nfa(expr, machine.k)
    sample = enumerate_language(machine, caps_for(5))
    expected = {w for w in sample.words
                if any(nfa.accepts(behavior(machine, run))
                       for run in run_word(machine, w).runs)}
    restricted = restrict_to_instructions(machine, expr)
    assert enumerate_language(restricted, caps_for(5)).as_set() == expected

