"""Phase abstraction: accepting runs as balanced source-to-sink walks.

The load-bearing claim is the correspondence: the flow system of a
machine's phase automaton has a feasible balanced walk exactly when the
machine accepts some word, and every solver witness replays into a
validated accepting run.  Checked on fixtures and a random corpus.
"""

import pytest

from conftest import fixture_path, machine_corpus
from ncmkit.flows import FlowWitness, Infeasible, solve, solve_unbounded
from ncmkit.machine import (
    CounterMachine,
    MachineError,
    Run,
    Transition,
    load_machine,
    parse_machine,
    validate_run,
    validate_well_formed,
)
from ncmkit.oracle import caps_for, enumerate_language, run_word
from ncmkit.phase import (
    INPUT_CLASS,
    PhaseAutomaton,
    phase_automaton,
    run_from_walk,
    to_flow_system,
    witness_run,
)


def run_to_walk(pa: PhaseAutomaton, run: Run) -> tuple[str, ...]:
    """Annotate an accepting run with phases, yielding a phase-graph walk.

    The test's inverse of run_from_walk, up to the decrement-to-ZF guess:
    each counter's final decrement is tagged as the zero-entering one.
    Node names are "<state>|<phase>,<phase>,..." and edge ids
    "<label>:<src node>><dst node>", as phase_automaton writes them."""
    machine = pa.machine
    by_label = machine.by_label()
    last_dec = {}
    for step, label in enumerate(run.labels):
        for i, d in enumerate(by_label[label].delta):
            if d < 0:
                last_dec[i] = step
    phases = ["Z0"] * machine.k
    walk = []
    known = pa.edge_by_id()
    for step, label in enumerate(run.labels):
        t = by_label[label]
        src = f"{t.src}|{','.join(phases)}"
        for i, d in enumerate(t.delta):
            if d > 0:
                phases[i] = "INC"
            elif d < 0:
                phases[i] = "ZF" if step == last_dec[i] else "DEC"
        eid = f"{label}:{src}>{t.dst}|{','.join(phases)}"
        assert eid in known, f"run step {step} has no phase edge ({eid!r})"
        walk.append(eid)
    return tuple(walk)


def anbn() -> CounterMachine:
    return load_machine(fixture_path("anbn.ncm"))


class TestConstruction:
    def test_nodes_pair_states_with_phases(self):
        pa = phase_automaton(anbn())
        assert pa.initial.split("|")[1] == "Z0"
        assert all("|" in node for node in pa.nodes)
        assert pa.finals <= pa.nodes

    def test_rejects_machines_that_are_not_well_formed(self):
        # '*' is text-format shorthand, so the machine is parsed: the '**'
        # guard expands to four concrete transitions, each changing both
        # counters at once.
        machine = parse_machine(
            "ncm\n"
            "counters 2\n"
            "alphabet a\n"
            "states s\n"
            "initial s\n"
            "final s\n"
            "trans t s a ** s 1 1\n"
        )
        with pytest.raises(MachineError, match="multi-counter-change"):
            phase_automaton(machine)

    def test_machine_with_no_acceptance_collapses(self):
        # The final state is only reachable with a loaded counter, and
        # nothing loads it, so no phase node is final: the machine is
        # well-formed and accepts nothing.
        machine = CounterMachine(
            k=1,
            alphabet=("a",),
            states=("s", "t"),
            initial="s",
            finals=("t",),
            transitions=(
                Transition("read", "s", "a", ("z",), "s", (0,)),
                Transition("go", "s", None, ("p",), "t", (0,)),
            ),
        )
        assert validate_well_formed(machine).is_well_formed
        assert enumerate_language(machine, caps_for(4)).words == ()
        pa = phase_automaton(machine)
        assert pa.finals == frozenset()
        assert isinstance(solve(to_flow_system(pa)), Infeasible)


class TestCorrespondence:
    def test_anbn_witness_replays_to_accepting_run(self):
        pa = phase_automaton(anbn())
        witness = solve(to_flow_system(pa))
        assert isinstance(witness, FlowWitness)
        run = witness_run(pa, witness)
        n = len(run.word) // 2
        assert run.word == ("a",) * n + ("b",) * n

    def test_emptiness_matches_enumeration_on_corpus(self):
        for idx, machine in enumerate(machine_corpus(421, 60)):
            pa = phase_automaton(machine)
            result = solve(to_flow_system(pa))
            sample = enumerate_language(machine, caps_for(8))
            if isinstance(result, FlowWitness):
                run = witness_run(pa, result)
                search = run_word(machine, run.word, caps_for(
                    len(run.word), max_total_steps=200_000))
                assert search.runs, (idx, run.word)
            else:
                assert sample.words == (), (idx, sample.words[:3])

    def test_nonempty_fixtures_are_feasible(self):
        for name in ("anbn", "ex2", "ex3", "ex4a-m1", "anbncn", "loop"):
            machine = load_machine(fixture_path(f"{name}.ncm"))
            pa = phase_automaton(machine)
            witness = solve(to_flow_system(pa))
            assert isinstance(witness, FlowWitness), name
            validate_run(machine, witness_run(pa, witness))


class TestWalkRunRoundTrip:
    def test_witness_walk_round_trips(self):
        pa = phase_automaton(anbn())
        witness = solve(to_flow_system(pa))
        run = run_from_walk(pa, witness.walk)
        assert run_to_walk(pa, run) == witness.walk

    def test_enumerated_runs_round_trip(self):
        for machine in (anbn(), load_machine(fixture_path("ex2.ncm"))):
            pa = phase_automaton(machine)
            sample = enumerate_language(machine, caps_for(6))
            for word in sample.words:
                for run in run_word(machine, word).runs:
                    walk = run_to_walk(pa, run)
                    back = run_from_walk(pa, walk)
                    assert back.word == run.word
                    assert back.labels == run.labels

    def test_replay_rejects_broken_walks(self):
        pa = phase_automaton(anbn())
        witness = solve(to_flow_system(pa))
        with pytest.raises((MachineError, KeyError)):
            run_from_walk(pa, witness.walk[1:])


class TestGrowth:
    def test_anbn_pumps_through_the_loop_pair(self):
        pa = phase_automaton(anbn())
        fs = to_flow_system(pa)
        pump = solve_unbounded(fs, INPUT_CLASS)
        assert pump is not None
        base_run = witness_run(pa, pump.base)
        validate_run(pa.machine, base_run)

    def test_loop_fixture_language_is_finite(self):
        machine = load_machine(fixture_path("loop.ncm"))
        fs = to_flow_system(phase_automaton(machine))
        assert solve_unbounded(fs, INPUT_CLASS) is None
