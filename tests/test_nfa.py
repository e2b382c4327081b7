"""Finite-automaton layer: combinators, subset construction, word regexes.

Random regular expressions are checked against Python's re module as an
independent matcher; set operations are checked against set algebra on
enumerated languages.
"""

import itertools
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import fixture_path, machine_corpus, words_over
from ncmkit.build import intersect_regular
from ncmkit.decide import is_empty
from ncmkit.machine import load_machine
from ncmkit.oracle import caps_for, enumerate_language
from ncmkit.nfa import (
    Budget,
    Dfa,
    Nfa,
    PatternSyntaxError,
    ResourceBudgetError,
    bounded_pattern_nfa,
    determinize,
    eliminate_lambda,
    nfa_concat,
    nfa_empty,
    nfa_epsilon,
    nfa_plus,
    nfa_shuffle,
    nfa_star,
    nfa_symbol,
    nfa_union,
    nfa_word,
    parse_word_regex,
)

AB = ("a", "b")


def accepted(nfa: Nfa, max_len: int) -> set:
    return {w for w in words_over(sorted(nfa.alphabet), max_len)
            if nfa.accepts(w)}


def random_regex(rng: random.Random, depth: int):
    """Pair (nfa, python-re source) built by the same random choices."""
    roll = rng.random()
    if depth <= 0 or roll < 0.35:
        sym = rng.choice(AB)
        return nfa_symbol(sym, AB), re.escape(sym)
    if roll < 0.55:
        l_n, l_r = random_regex(rng, depth - 1)
        r_n, r_r = random_regex(rng, depth - 1)
        return nfa_union([l_n, r_n]), f"(?:{l_r}|{r_r})"
    if roll < 0.8:
        l_n, l_r = random_regex(rng, depth - 1)
        r_n, r_r = random_regex(rng, depth - 1)
        return nfa_concat([l_n, r_n]), f"{l_r}{r_r}"
    inner_n, inner_r = random_regex(rng, depth - 1)
    if rng.random() < 0.5:
        return nfa_star(inner_n), f"(?:{inner_r})*"
    return nfa_plus(inner_n), f"(?:{inner_r})+"


class TestCombinators:
    def test_primitives(self):
        assert not nfa_empty(AB).accepts(())
        assert nfa_epsilon(AB).accepts(())
        assert not nfa_epsilon(AB).accepts(("a",))
        assert nfa_symbol("a").accepts(("a",))
        assert not nfa_symbol("a").accepts(("a", "a"))
        assert nfa_word(("a", "b", "a")).accepts(("a", "b", "a"))

    def test_random_regexes_match_re_module(self):
        rng = random.Random(99)
        words = list(words_over(AB, 6))
        for _ in range(60):
            nfa, source = random_regex(rng, 3)
            pattern = re.compile(source)
            for w in words:
                assert nfa.accepts(w) == bool(pattern.fullmatch("".join(w))), (
                    source, w)

    def test_shuffle_language_is_interleavings(self):
        left = nfa_word(("a", "b"))
        right = nfa_word(("c",))
        got = accepted(nfa_shuffle(left, right), 3)
        assert got == {("c", "a", "b"), ("a", "c", "b"), ("a", "b", "c")}

    def test_shuffle_of_stars(self):
        nfa = nfa_shuffle(nfa_star(nfa_symbol("a")), nfa_star(nfa_symbol("b")))
        assert accepted(nfa, 3) == set(words_over(AB, 3))

    def test_eliminate_lambda_preserves_language(self):
        rng = random.Random(5)
        for _ in range(30):
            nfa, _ = random_regex(rng, 3)
            plain = eliminate_lambda(nfa)
            assert all(sym is not None for _, sym, _ in plain.transitions)
            for w in words_over(AB, 5):
                assert plain.accepts(w) == nfa.accepts(w)


class TestDeterminize:
    def test_agrees_with_nfa(self):
        rng = random.Random(17)
        for _ in range(40):
            nfa, _ = random_regex(rng, 3)
            dfa = determinize(nfa)
            assert len(dfa.delta) == dfa.n_states * len(dfa.alphabet)
            for w in words_over(AB, 5):
                assert dfa.accepts(w) == nfa.accepts(w)

    def test_complement(self):
        nfa = parse_word_regex("a a* b")
        comp = determinize(nfa).complement()
        for w in words_over(AB, 5):
            assert comp.accepts(w) == (not nfa.accepts(w))

    def test_to_nfa_round_trip(self):
        nfa = parse_word_regex("(a b)* | b b*")
        back = determinize(nfa).to_nfa()
        for w in words_over(AB, 5):
            assert back.accepts(w) == nfa.accepts(w)

    def test_state_budget(self):
        # Language (a|b)* a (a|b)^9 forces a subset blow-up past 100 states.
        tail = " ".join("(a | b)" for _ in range(9))
        nfa = parse_word_regex(f"(a | b)* a {tail}")
        with pytest.raises(ResourceBudgetError):
            determinize(nfa, Budget(limit=100))

    def test_budget_is_charged_one_unit_per_state(self):
        tail = " ".join("(a | b)" for _ in range(4))
        budget = Budget(used=7)
        dfa = determinize(parse_word_regex(f"(a | b)* a {tail}"), budget)
        assert dfa.n_states > 1 and budget.used == 7 + dfa.n_states

    def test_cancel_stops_determinization_midway(self):
        tail = " ".join("(a | b)" for _ in range(4))
        polls = iter(range(1000))
        budget = Budget(cancel=lambda: next(polls) >= 5)
        with pytest.raises(ResourceBudgetError, match="query cancelled"):
            determinize(parse_word_regex(f"(a | b)* a {tail}"), budget)
        assert budget.used == 5


class TestIntersection:
    """Machines meet regular sets through build.intersect_regular."""

    def test_set_semantics(self):
        rng = random.Random(23)
        machines = [load_machine(fixture_path("anbn.ncm")),
                    *machine_corpus(23, 4)]
        for machine in machines:
            words = enumerate_language(machine, caps_for(4)).as_set()
            for _ in range(5):
                nfa, _ = random_regex(rng, 3)
                both = intersect_regular(machine, nfa)
                expected = {w for w in words if nfa.accepts(w)}
                assert enumerate_language(both, caps_for(4)).as_set() == expected

    def test_emptiness(self):
        anbn = load_machine(fixture_path("anbn.ncm"))
        assert is_empty(intersect_regular(anbn, parse_word_regex("a a*"))).answer
        assert not is_empty(intersect_regular(anbn, parse_word_regex("a b"))).answer
        assert is_empty(intersect_regular(anbn, nfa_empty(AB))).answer
        assert not is_empty(intersect_regular(anbn, nfa_epsilon(AB))).answer


class TestBoundedPattern:
    def test_words_star_sequence(self):
        nfa = bounded_pattern_nfa([("a", "b"), ("a",)])
        for w in words_over(AB, 6):
            text = "".join(w)
            expected = bool(re.fullmatch("(ab)*(a)*", text))
            assert nfa.accepts(w) == expected

    def test_empty_list_is_epsilon(self):
        nfa = bounded_pattern_nfa([])
        assert nfa.accepts(())
        assert accepted(nfa, 3) == {()}


class TestWordRegex:
    def test_multi_character_symbols(self):
        nfa = parse_word_regex("C1 C2* | D1")
        assert nfa.accepts(("C1",))
        assert nfa.accepts(("C1", "C2", "C2"))
        assert nfa.accepts(("D1",))
        assert not nfa.accepts(("C2",))

    def test_containment_fixture_shape(self):
        nfa = parse_word_regex("a a a a* b b b b b*")
        assert nfa.accepts(tuple("aaabbbb"))
        assert not nfa.accepts(tuple("aabbb"))
        assert not nfa.accepts(tuple("aaabbb"))

    def test_alphabet_widening_and_check(self):
        nfa = parse_word_regex("a*", alphabet=("a", "b"))
        assert nfa.alphabet == frozenset(AB)
        with pytest.raises(ValueError):
            parse_word_regex("a c", alphabet=("a", "b"))

    @pytest.mark.parametrize("bad", ["", "a |", "( a", "a )", "* a", "a b )"])
    def test_syntax_errors(self, bad):
        with pytest.raises(PatternSyntaxError):
            parse_word_regex(bad)

    def test_hash_is_a_symbol_character(self):
        nfa = parse_word_regex("a # (b#)*")
        assert nfa.alphabet == frozenset({"a", "#", "b#"})
        assert nfa.accepts(("a", "#", "b#", "b#"))

    def test_postfix_run_is_one_repeat(self):
        nfa = parse_word_regex("(a b)" + "*+" * 2500)
        assert nfa == parse_word_regex("(a b)*")


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="ab#()|*+ ", max_size=30))
def test_random_word_regex_parses_or_raises_syntax_error(text):
    try:
        nfa = parse_word_regex(text)
    except PatternSyntaxError:
        return
    assert nfa.alphabet == set(re.split(r"[\s()|*+]+", text)) - {""}
