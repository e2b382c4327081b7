"""Constructions that share builder code, checked against the oracle.

union and concat copy both operands with one disjoint-sum loop; sbd_form
reads its words with the repeated-word loops of the BDiLBd and LBiBDd
generators; reversal runs the phase automaton backwards;
inverse_homomorphism buffers image words in its finite control;
distinct_normal_form splits a recurring counter into fresh ones.  Each
result must be well-formed and accept the expected language up to a
horizon.
"""

import itertools

import pytest

from conftest import FIXTURES, fixture_path, words_over
from ncmkit.build import (concat, distinct_normal_form, inverse_homomorphism,
                          reversal, sbd_form, self_describing, union)
from ncmkit.decide import is_letter_bounded
from ncmkit.machine import load_machine, validate_well_formed
from ncmkit.oracle import bounded_equiv, caps_for, enumerate_language
from ncmkit.patterns import eq_acceptor, generator, parse_pattern

FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.ncm"))

PAIRS = [("anbn", "loop"), ("loop", "anbn"), ("anbn", "anbncn"),
         ("anbn-cldl", "anbn"), ("aibjcidj", "loop"), ("anbn", "ex4a-m1")]

HORIZON = 5


def load(name: str):
    return load_machine(fixture_path(f"{name}.ncm"))


def language(machine, horizon: int = HORIZON) -> set:
    return enumerate_language(machine, caps_for(horizon)).as_set()


def assert_well_formed(machine) -> None:
    report = validate_well_formed(machine)
    assert report.is_well_formed, report.summary()


@pytest.mark.parametrize("left, right", PAIRS, ids=["+".join(p) for p in PAIRS])
def test_union_accepts_either_language(left, right):
    m1, m2 = load(left), load(right)
    both = union(m1, m2)
    assert both.k == m1.k + m2.k
    assert_well_formed(both)
    assert language(both) == language(m1) | language(m2)


@pytest.mark.parametrize("left, right", PAIRS, ids=[".".join(p) for p in PAIRS])
def test_concat_accepts_the_products(left, right):
    m1, m2 = load(left), load(right)
    joined = concat(m1, m2)
    assert joined.k == m1.k + m2.k
    assert_well_formed(joined)
    expected = {u + v for u in language(m1) for v in language(m2)
                if len(u + v) <= HORIZON}
    assert language(joined) == expected


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_reversal_reverses_every_word(name):
    machine = load(name)
    backwards = reversal(machine)
    assert_well_formed(backwards)
    assert language(backwards, 6) == {w[::-1] for w in language(machine, 6)}


def word_sequences(k: int):
    """Every ordered split of the counters 1..k into nonempty words, each
    word in every letter order."""
    for perm in itertools.permutations(range(1, k + 1)):
        for cuts in itertools.product((False, True), repeat=k - 1):
            seq, word = [], [perm[0]]
            for i, cut in zip(perm[1:], cuts):
                if cut:
                    seq.append(word)
                    word = [i]
                else:
                    word.append(i)
            yield seq + [word]


def repeated_words(k: int, horizon: int, kind: str) -> set:
    """Words of generator BDiLBd (kind "C") or LBiBDd (kind "D") up to the
    horizon, from their definition: each word of a word sequence repeated
    one or more times, the other kind's letters in counter order, and as
    many Di as Ci for every counter."""
    other = "D" if kind == "C" else "C"
    out = set()
    for seq in word_sequences(k):
        for reps in itertools.product(range(1, horizon + 1), repeat=len(seq)):
            count = {i: r for w, r in zip(seq, reps) for i in w}
            loops = tuple(f"{kind}{i}" for w, r in zip(seq, reps)
                          for _ in range(r) for i in w)
            block = tuple(f"{other}{i}" for i in range(1, k + 1)
                          for _ in range(count[i]))
            word = loops + block if kind == "C" else block + loops
            if len(word) <= horizon:
                out.add(word)
    return out


@pytest.mark.parametrize("tag, kind", [("BDiLBd", "C"), ("LBiBDd", "D")])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_repeated_word_generators_match_their_definition(tag, kind, k):
    machine = generator(tag, k)
    assert_well_formed(machine)
    assert language(machine, 8) == repeated_words(k, 8, kind)


@pytest.mark.parametrize("k", [1, 2])
def test_sbd_form_matches_the_bdilbd_generator(k):
    short, full = sbd_form(k), generator("BDiLBd", k)
    assert_well_formed(short)
    assert_well_formed(full)
    report = bounded_equiv(short, full, 8)
    assert report.status == "equal", report
    assert language(short, 8) == repeated_words(k, 8, "C")


MAPS = [{"x": "a", "y": "b", "z": "ab", "w": "c"},
        {"u": "a", "v": "", "w": "bc", "d": "d"}]


@pytest.mark.parametrize("image", MAPS, ids=["x=a,y=b,z=ab,w=c", "u=a,v=,w=bc,d=d"])
@pytest.mark.parametrize("name", ["anbn", "anbncn", "aibjcidj", "anbn-cldl"])
def test_inverse_homomorphism_accepts_the_preimage(name, image):
    machine = load(name)
    pulled = inverse_homomorphism(machine, image)
    assert_well_formed(pulled)
    longest = max(len(w) for w in image.values())
    words = language(machine, 4 * longest)
    expected = {w for w in words_over(image, 4)
                if tuple("".join(image[b] for b in w)) in words}
    assert language(pulled, 4) == expected


@pytest.mark.parametrize("text", [
    "C1* D1* C1* D1*", "C1* C2* D1* D2* C2* D2*", "C1* C1* D1*",
    "C2* C1* D2* C2* D1* D2*",
])
def test_distinct_normal_form_keeps_the_language(text):
    """Same words as the pattern's balanced acceptor, and a behavior that
    runs through fixed letters, each used once."""
    expr = parse_pattern(text)
    normal = distinct_normal_form(expr)
    assert_well_formed(normal)
    ours = enumerate_language(normal, caps_for(8))
    theirs = enumerate_language(eq_acceptor(expr), caps_for(8))
    assert not ours.truncated and not theirs.truncated
    assert ours.as_set() == theirs.as_set()
    verdict = is_letter_bounded(self_describing(normal, "full"))
    assert verdict.answer
    assert len(set(verdict.witness)) == len(verdict.witness)
