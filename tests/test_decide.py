"""Letter-boundedness, m-boundedness and family inference against enumeration.

A word's block sequence is the word with each maximal run of one letter
cut to that letter.  The checks come from the definitions: the block
sequences the decision procedure enumerates contain those of every
enumerated word, a "yes" letter sequence covers every enumerated word,
and both words of a "no" pump pair are accepted, the pumped one with
more blocks.
"""

import itertools
import re

import pytest

from conftest import fixture_path, machine_corpus
from ncmkit.build import inverse_homomorphism, self_describing
from ncmkit.decide import (
    Budget,
    PumpEvidence,
    _block_machine,
    _block_sequences,
    _last_letter_product,
    infer_family,
    is_letter_bounded,
    is_m_bounded,
    membership,
)
from ncmkit.flows import solve_unbounded
from ncmkit.machine import load_machine, parse_machine
from ncmkit.oracle import caps_for, enumerate_language
from ncmkit.phase import CHANGE_CLASS, phase_automaton, to_flow_system

# Fixtures whose letter-boundedness decides in about a second; ex2 and
# ex4a-m1 are not letter-bounded, but their pump search runs far longer.
BOUNDED = ("anbn", "anbncn", "anbn-cldl", "loop", "aibjcidj", "ex3")
# Every language of this random corpus is letter-bounded or empty.
CORPUS = machine_corpus(61, 30)

# Hand-made machines for the other answers.
HAND = {
    # (ab)^n c^n: blocks grow with n.
    "abncn": """ncm
counters 1
alphabet a b c
states s m d f
initial s
final f
trans t0 s a * m 1
trans t1 m b p s 0
trans t2 s @ * d 0
trans t3 d c p d -1
trans t4 d @ z f 0
""",
    # {aba, bab} and b a*: no block sequence covers the others; the
    # least shortest cover is abab.
    "aba|bab|ba*": """ncm
counters 1
alphabet a b
states s p q u v w f
initial s
final f
trans t0 s a z p 0
trans t1 p b z q 0
trans t2 q a z f 0
trans t3 s b z u 0
trans t4 u a z v 0
trans t5 v b z f 0
trans t6 s b z w 0
trans t7 w a z w 0
trans t8 w @ z f 0
""",
    # (abcd)*: 2-letter blocks ab, cd alternate without bound.
    "(abcd)*": """ncm
counters 1
alphabet a b c d
states s p q r
initial s
final s
trans t0 s a z p 0
trans t1 p b z q 0
trans t2 q c z r 0
trans t3 r d z s 0
""",
}


def load(name):
    if name in HAND:
        return parse_machine(HAND[name])
    return load_machine(fixture_path(f"{name}.ncm"))


NAMED = BOUNDED + tuple(HAND)


def blocks_of(word) -> tuple:
    return tuple(a for i, a in enumerate(word) if i == 0 or word[i - 1] != a)


def is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(a in rest for a in short)


def sample(machine, length=6):
    return enumerate_language(machine, caps_for(length, max_total_steps=200_000))


def block_sequences(machine):
    """C(L) as decide enumerates it, or None when blocks grow unboundedly."""
    product, opens = _last_letter_product(machine)
    pa = phase_automaton(product)
    if solve_unbounded(to_flow_system(pa, opens), CHANGE_CLASS) is not None:
        return None
    return _block_sequences(_block_machine(pa, opens), Budget())


def check_pump(machine, evidence, letters=tuple, unit=1):
    """Both words of the pump pair are accepted, and the pumped one has
    more blocks of `unit` letters.  letters splits a witness string into
    the machine's letters."""
    assert isinstance(evidence, PumpEvidence)
    base, pumped = letters(evidence.word), letters(evidence.pumped)
    assert membership(machine, base).answer and membership(machine, pumped).answer

    def blocks(word):
        return blocks_of([word[i:i + unit] for i in range(0, len(word), unit)])

    assert len(blocks(pumped)) > len(blocks(base))


def instructions(text):
    return tuple(re.findall(r"[CD]\d+", text))


def check_sequence(seq, words, sequences=None):
    """seq covers every word; given C(L), it is the least cover in
    (length, lexicographic) order."""
    for w in words:
        assert is_subsequence(blocks_of(w), seq), (seq, w)
    if sequences is None:
        return
    letters = sorted({a for s in sequences for a in s})
    for n in range(len(seq) + 1):
        for cand in itertools.product(letters, repeat=n):
            if all(is_subsequence(s, cand) for s in sequences):
                assert cand == tuple(seq)
                return
    raise AssertionError(f"{seq} covers no word of {sequences}")


@pytest.mark.parametrize("machine", [load(n) for n in NAMED] + CORPUS,
                         ids=list(NAMED) + [f"corpus{i}" for i in range(len(CORPUS))])
def test_product_and_block_sequences(machine):
    product, _ = _last_letter_product(machine)
    words = sample(machine, 5)
    assert sample(product, 5).as_set() == words.as_set()
    sequences = block_sequences(machine)
    if sequences is None:
        return
    assert len(set(sequences)) == len(sequences)
    for w in words.words:
        assert blocks_of(w) in sequences, w


@pytest.mark.parametrize("machine", [load(n) for n in NAMED] + CORPUS,
                         ids=list(NAMED) + [f"corpus{i}" for i in range(len(CORPUS))])
def test_letter_bounded(machine):
    verdict = is_letter_bounded(machine)
    if not verdict.answer:
        check_pump(machine, verdict.witness)
        return
    words = sample(machine)
    if not words.words:
        assert verdict.witness == ()
        assert verdict.certificate == "no word is accepted"
        return
    check_sequence(verdict.witness, words.words, block_sequences(machine))


def test_letter_bounded_answers():
    for name in NAMED:
        unbounded = name in ("abncn", "(abcd)*")
        assert is_letter_bounded(load(name)).answer is not unbounded, name
    assert is_letter_bounded(load("aba|bab|ba*")).witness == ("a", "b", "a", "b")


M_BOUNDED = [("anbn", True), ("anbncn", False), ("loop", False),
             ("ex3", False), ("ex4a-m1", False), ("aibjcidj", True),
             ("(abcd)*", False)]


@pytest.mark.parametrize("name, answer", M_BOUNDED, ids=[n for n, _ in M_BOUNDED])
def test_m_bounded(name, answer):
    machine = load(name)
    verdict = is_m_bounded(machine, 2)
    assert verdict.answer is answer
    words = sample(machine, 8)
    if answer:
        regex = re.compile("".join(f"(?:{w})*" for w in verdict.witness))
        for w in words.words:
            assert regex.fullmatch("".join(w)), (verdict.witness, w)
    elif isinstance(verdict.witness, PumpEvidence):
        check_pump(machine, verdict.witness, unit=2)
    else:
        assert membership(machine, verdict.witness).answer
        assert len(verdict.witness) % 2 == 1


def test_m_bounded_block_machine_sequences():
    # The 2-letter block machine of aibjcidj: its block sequences are the
    # nine 2-letter words in order, with some left out.
    machine = load("aibjcidj")
    letters = sorted(machine.alphabet)
    image = {a + b: (a, b) for a in letters for b in letters}
    sequences = block_sequences(inverse_homomorphism(machine, image))
    order = ("aa", "ab", "ac", "bb", "bc", "bd", "cc", "cd", "dd")
    assert sequences and all(is_subsequence(s, order) for s in sequences)
    for w in sample(machine, 8).words:
        chunks = ["".join(w[i:i + 2]) for i in range(0, len(w), 2)]
        assert blocks_of(chunks) in sequences


FAMILIES = [("LB", "full"), ("LBd", "decreases-only"), ("LBi", "increases-only")]


@pytest.mark.parametrize("tag, mode", FAMILIES, ids=[t for t, _ in FAMILIES])
@pytest.mark.parametrize("machine", [load(n) for n in NAMED] + CORPUS[:10],
                         ids=list(NAMED) + [f"corpus{i}" for i in range(10)])
def test_infer_family(machine, tag, mode):
    verdict = infer_family(machine, tag)
    sd = self_describing(machine, mode)
    if not verdict.answer:
        check_pump(sd, verdict.witness, instructions)
        return
    check_sequence(verdict.witness, sample(sd).words)
