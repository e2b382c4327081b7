"""Core machine model: parsing, validation, simulation, projections."""

import pytest

from conftest import behavior, fixture_path, letters_read
from ncmkit.build import distinct_normal_form, sbd_form, self_describing
from ncmkit.decide import membership
from ncmkit.machine import (
    CounterMachine,
    MachineError,
    MachineFormatError,
    Run,
    Transition,
    dump_machine,
    load_machine,
    parse_machine,
    validate_run,
    validate_well_formed,
)
from ncmkit.oracle import SimCaps, bounded_equiv, run_word
from ncmkit.patterns import (
    GENERATOR_TAGS,
    MachineBuilder,
    eq_acceptor,
    generator,
    parse_pattern,
)


def tiny(text: str) -> CounterMachine:
    return parse_machine(text)


def silent_choice(second_guard: dict) -> CounterMachine:
    """Two silent moves out of the initial state, under the guard z* and
    under second_guard; they overlap unless second_guard pins counter 1
    positive."""
    builder = MachineBuilder(2)
    builder.add("s", None, "t", fixed={1: "z"})
    builder.add("s", None, "u", fixed=second_guard)
    return builder.machine("a", "s", ["t", "u"])


def built_machines():
    """(name, machine) pairs of constructions whose guards hold '*'."""
    out = [(f"generator {tag} {k}", generator(tag, k))
           for tag in GENERATOR_TAGS for k in (1, 2, 3)]
    out += [(f"sbd_form {k}", sbd_form(k)) for k in (1, 2, 3)]
    for text in ("C1* D1* C1* D1*", "C1* C2* D2* D1*", "(C1 C2)* D1* D2*"):
        out.append((f"eq_acceptor {text}", eq_acceptor(parse_pattern(text))))
    for text in ("C1* D1* C1* D1*", "C1* C2* D1* D2* C2* D2*", "C1* C2* D1* D2*"):
        out.append((f"normalize {text}",
                    distinct_normal_form(parse_pattern(text))))
    out.append(("z* and ** silent moves", silent_choice({})))
    out.append(("z* and p* silent moves", silent_choice({1: "p"})))
    return out


class TestParsing:
    def test_fixture_ex3_loads_with_four_counters(self):
        machine = load_machine(fixture_path("ex3.ncm"))
        assert machine.k == 4
        assert machine.alphabet == frozenset("ab")

    def test_round_trip_is_label_preserving(self):
        """Parsed machines come back equal.  Built machines hold '*' guards,
        which the parser expands into concrete copies under new labels, so
        they come back with the same determinism flag and language."""
        for name in ("anbn", "ex2", "ex3", "ex4a-m1", "anbncn", "loop"):
            machine = load_machine(fixture_path(f"{name}.ncm"))
            again = parse_machine(dump_machine(machine))
            assert again == machine
        for name, machine in built_machines():
            again = parse_machine(dump_machine(machine))
            assert (validate_well_formed(again).is_deterministic
                    == validate_well_formed(machine).is_deterministic), name
            assert bounded_equiv(machine, again, 6).status == "equal", name

    def test_guard_wildcard_expands_both_variants(self):
        machine = tiny("""
        ncm
        counters 1
        alphabet a
        states s
        initial s
        final s
        trans t s a * s 0
        """)
        guards = sorted(t.guard for t in machine.transitions)
        assert guards == [("p",), ("z",)]

    def test_duplicate_label_rejected(self):
        with pytest.raises(MachineFormatError, match="t0"):
            tiny("""
            ncm
            counters 1
            alphabet a
            states s
            initial s
            final s
            trans t0 s a z s 0
            trans t0 s a p s 0
            """)

    def test_wrong_guard_arity_names_the_line(self):
        with pytest.raises(MachineFormatError, match="line 8"):
            tiny("""
            ncm
            counters 2
            alphabet a
            states s
            initial s
            final s
            trans t0 s a z s 0 0
            """)

    def test_zero_guard_forbids_decrement(self):
        for guard in ("z", "*"):
            with pytest.raises(MachineError):
                Transition("t", "s", "a", (guard,), "s", (-1,))
        Transition("t", "s", "a", ("*",), "s", (1,))

    def test_dangling_state_rejected(self):
        with pytest.raises(MachineError):
            CounterMachine(1, frozenset("a"), frozenset({"s"}), "s",
                           frozenset({"s"}),
                           (Transition("t", "s", "a", ("z",), "ghost", (0,)),))


class TestWellFormedness:
    def test_ex2_is_well_formed_and_nondeterministic(self):
        report = validate_well_formed(load_machine(fixture_path("ex2.ncm")))
        assert report.is_well_formed
        assert not report.is_deterministic

    def test_all_fixture_machines_are_well_formed(self):
        for name in ("anbn", "ex2", "ex3", "ex4a-m1", "anbncn",
                     "anbn-cldl", "aibjcidj", "loop"):
            report = validate_well_formed(load_machine(fixture_path(f"{name}.ncm")))
            assert report.is_well_formed, (name, report.summary())

    def test_multi_counter_change_flagged(self):
        machine = tiny("""
        ncm
        counters 2
        alphabet a
        states s t
        initial s
        final t
        trans t0 s a zz t 1 1
        """)
        report = validate_well_formed(machine)
        assert not report.is_well_formed
        assert any(v.kind == "multi-counter-change" for v in report.violations)

    def test_increment_after_decrement_flagged(self):
        machine = tiny("""
        ncm
        counters 1
        alphabet a
        states s0 s1 s2 s3
        initial s0
        final s3
        trans t0 s0 a z s1 1
        trans t1 s1 a p s2 -1
        trans t2 s2 a z s3 1
        trans t3 s3 a p s3 -1
        """)
        report = validate_well_formed(machine)
        assert not report.is_well_formed
        assert any(v.kind == "reversal-violation" for v in report.violations)

    def test_possible_nonzero_acceptance_flagged(self):
        machine = tiny("""
        ncm
        counters 1
        alphabet a
        states s t
        initial s
        final t
        trans t0 s a z t 1
        """)
        report = validate_well_formed(machine)
        assert not report.is_well_formed
        assert any(v.kind == "nonzero-accept-possible" for v in report.violations)

    def test_deterministic_machine_reported(self):
        machine = tiny("""
        ncm
        counters 1
        alphabet a b
        states s t
        initial s
        final t
        trans t0 s a z t 0
        trans t1 s b z s 0
        """)
        assert validate_well_formed(machine).is_deterministic


class TestSimulation:
    def test_ex2_abab_has_run_with_behavior_c1c2d1d2(self):
        machine = load_machine(fixture_path("ex2.ncm"))
        found = run_word(machine, "abab", SimCaps(max_word_len=4))
        behaviors = {behavior(machine, r) for r in found.runs}
        assert ("C1", "C2", "D1", "D2") in behaviors

    def test_anbn_rejects_aab(self):
        machine = load_machine(fixture_path("anbn.ncm"))
        found = run_word(machine, "aab", SimCaps(max_word_len=3))
        assert not found.runs and not found.truncated

    def test_every_returned_run_validates(self):
        machine = load_machine(fixture_path("ex2.ncm"))
        for word in ("", "ab", "abab", "aabbab"):
            for run in run_word(machine, word, SimCaps(max_word_len=6)).runs:
                validate_run(machine, run)
                assert "".join(run.word) == word


class TestProjections:
    """self_describing reads the instruction word of every accepting run."""

    def test_instruction_and_input_projections(self):
        machine = load_machine(fixture_path("ex2.ncm"))
        run = run_word(machine, "abab", SimCaps(max_word_len=4)).runs[0]
        assert behavior(machine, run) == ("C1", "C2", "D1", "D2")
        assert letters_read(machine, run) == ("a", "b", "a", "b")
        assert membership(self_describing(machine, "full"),
                          behavior(machine, run)).answer

    def test_counter_free_acceptance_projects_to_empty(self):
        machine = load_machine(fixture_path("ex3.ncm"))
        runs = run_word(machine, "aabbb", SimCaps(max_word_len=5)).runs
        assert runs
        assert any(behavior(machine, r) == () for r in runs)
        assert membership(self_describing(machine, "full"), ()).answer

    def test_input_projection_is_the_word(self):
        machine = load_machine(fixture_path("anbn.ncm"))
        for word in ("", "ab", "aabb"):
            for run in run_word(machine, word, SimCaps(max_word_len=4)).runs:
                assert letters_read(machine, run) == tuple(word)


def replay(machine: CounterMachine, labels, word: str) -> Run:
    """Build a run from transition labels; the test's splicing tool."""
    from ncmkit.machine import apply_transition, initial_configuration

    by_label = machine.by_label()
    configs = [initial_configuration(machine)]
    for label in labels:
        nxt = apply_transition(by_label[label], configs[-1], tuple(word))
        assert nxt is not None, label
        configs.append(nxt)
    run = Run(tuple(word), tuple(labels), tuple(configs))
    validate_run(machine, run)
    return run


class TestRepeatFreeRuns:
    def test_run_word_returns_only_repeat_free_runs(self):
        # A run through loop.ncm's silent cycle revisits its start
        # configuration; run_word keeps the run with the cycle cut out.
        machine = load_machine(fixture_path("loop.ncm"))
        plain = replay(machine, ["go:z", "read"], "a")
        spliced = replay(machine, ["cyc1", "cyc2", "cyc3", "go:z", "read"], "a")
        runs = run_word(machine, "a",
                        SimCaps(max_word_len=1, max_lambda_run=6)).runs
        assert plain in runs and spliced not in runs
        for run in runs:
            triples = [(c.state, c.pos, c.counters) for c in run.configs]
            assert len(triples) == len(set(triples))
