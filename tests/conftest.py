"""Shared test helpers: fixture loading, independent oracles, corpora.

The expected values in the test files come from three places: direct
statements of the contract, values computed by the brute-force helpers
here (written against the definitions, not against the implementation),
and hand-checked instances frozen into the assertions.
"""

from __future__ import annotations

import itertools
import random
from functools import lru_cache
from pathlib import Path

import pytest

from ncmkit.machine import CounterMachine, Transition, validate_well_formed
from ncmkit.patterns import Alt, Plus, Seq, Shuffle, Star, Sym

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "ncmkit" / "fixtures"


def fixture_path(name: str) -> str:
    return str(FIXTURES / name)


@pytest.fixture(scope="session")
def fixtures():
    from ncmkit.machine import load_machine

    def load(name: str) -> CounterMachine:
        return load_machine(fixture_path(name if name.endswith(".ncm")
                                         else name + ".ncm"))

    return load


# ---------------------------------------------------------------------------
# Independent recursive pattern matcher (oracle for expr_to_nfa and the
# pattern-based procedures).  Works straight off the AST definition.


def expr_matches(expr, word) -> bool:
    """Does the word match the pattern?  Recursive definition, no NFA."""
    node = getattr(expr, "root", expr)
    word = tuple(word)

    @lru_cache(maxsize=None)
    def spans(n, i, j) -> bool:
        if isinstance(n, Sym):
            return j == i + 1 and word[i] == n.text
        if isinstance(n, Alt):
            return any(spans(p, i, j) for p in n.parts)
        if isinstance(n, Seq):
            return seq_spans(n.parts, i, j)
        if isinstance(n, Plus):
            return any(spans(n.body, i, m) and (m == j or spans(Star(n.body), m, j))
                       for m in range(i + 1, j + 1))
        if isinstance(n, Star):
            if i == j:
                return True
            return any(m > i and spans(n.body, i, m) and spans(n, m, j)
                       for m in range(i + 1, j + 1))
        if isinstance(n, Shuffle):
            return shuffles(n.left, n.right, i, j)
        raise TypeError(f"not a pattern node: {n!r}")

    @lru_cache(maxsize=None)
    def seq_spans(parts, i, j) -> bool:
        if not parts:
            return i == j
        head, rest = parts[0], parts[1:]
        return any(spans(head, i, m) and seq_spans(rest, m, j)
                   for m in range(i, j + 1))

    @lru_cache(maxsize=None)
    def shuffles(left, right, i, j) -> bool:
        piece = word[i:j]
        for mask in range(1 << len(piece)):
            a = tuple(piece[p] for p in range(len(piece)) if mask >> p & 1)
            b = tuple(piece[p] for p in range(len(piece)) if not mask >> p & 1)
            if subword_matches(left, a) and subword_matches(right, b):
                return True
        return False

    def subword_matches(n, sub) -> bool:
        return expr_matches(n, sub)

    return spans(node, 0, len(word))


def words_over(alphabet, max_len: int):
    """All words over the alphabet up to the length, length-lex order."""
    letters = sorted(alphabet)
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


# ---------------------------------------------------------------------------
# Projections of a run, read straight off its transitions.


def behavior(machine: CounterMachine, run) -> tuple[str, ...]:
    """The run's instruction word: C{i}/D{i} per counter change, in order."""
    by_label = machine.by_label()
    return tuple(ins for ins in (by_label[label].instruction()
                                 for label in run.labels)
                 if ins is not None)


def letters_read(machine: CounterMachine, run) -> tuple[str, ...]:
    by_label = machine.by_label()
    return tuple(by_label[label].inp for label in run.labels
                 if by_label[label].inp is not None)


# ---------------------------------------------------------------------------
# Random well-formed machine corpus.


def random_machine(rng: random.Random, max_states: int = 5,
                   max_k: int = 2) -> CounterMachine:
    """One random machine over {a, b}; it need not be well-formed."""
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_k)
    states = [f"q{i}" for i in range(n)]
    finals = rng.sample(states, rng.randint(1, n))
    transitions = []
    for j in range(rng.randint(2, 8)):
        src, dst = rng.choice(states), rng.choice(states)
        inp = rng.choice(["a", "b", None])
        guard = list(rng.choice("zp") for _ in range(k))
        delta = [0] * k
        if rng.random() < 0.7:
            i = rng.randrange(k)
            delta[i] = rng.choice([-1, 1])
            if guard[i] == "z" and delta[i] < 0:
                delta[i] = 1
        transitions.append(Transition(
            f"t{j}", src, inp, tuple(guard), dst, tuple(delta)))
    return CounterMachine(
        k, frozenset("ab"), frozenset(states), states[0],
        frozenset(finals), tuple(transitions))


def random_well_formed(rng: random.Random, max_states: int = 5,
                       max_k: int = 2) -> CounterMachine:
    """Rejection-sample a well-formed machine over {a, b}."""
    while True:
        machine = random_machine(rng, max_states, max_k)
        if validate_well_formed(machine).is_well_formed:
            return machine


def machine_corpus(seed: int, count: int, max_states: int = 5,
                   max_k: int = 2) -> list[CounterMachine]:
    rng = random.Random(seed)
    return [random_well_formed(rng, max_states, max_k) for _ in range(count)]
