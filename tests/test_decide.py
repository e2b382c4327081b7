"""Membership, letter-boundedness, m-boundedness and family inference
against enumeration.

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

from conftest import FIXTURES, expr_matches, fixture_path, machine_corpus
from ncmkit.build import inverse_homomorphism, self_describing
from ncmkit.build import intersect_regular
from ncmkit.decide import (
    Budget,
    PumpEvidence,
    _block_machine,
    _block_sequences,
    _bounded_patterns,
    _last_letter_product,
    _word_nfa,
    bd_with_bound,
    contained_in_regular,
    infer_family,
    is_infinite,
    is_letter_bounded,
    is_m_bounded,
    membership,
)
from ncmkit.flows import solve, solve_unbounded
from ncmkit.machine import load_machine, parse_machine, replay
from ncmkit.nfa import parse_word_regex
from ncmkit.oracle import caps_for, enumerate_language
from ncmkit.patterns import generator, parse_pattern
from ncmkit.phase import CHANGE_CLASS, phase_automaton, to_flow_system, witness_run

# Letter-bounded fixtures; ex2 and ex4a-m1 are not letter-bounded
# (test_letter_bounded_no_by_pump).
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


# ---------------------------------------------------------------------------
# Membership: every word over the alphabet up to a length where there are
# a few hundred of them, against the enumerated language.  A "yes" must
# replay as an accepting run on the word.  When counter caps pruned the
# enumeration (loop and ex3 pump a counter on silent moves), a word it
# missed may still be accepted, so only its words are checked then.

MEMBER_FIXTURES = sorted(p.stem for p in FIXTURES.glob("*.ncm"))


def horizon(alphabet, words=600, longest=10) -> int:
    """The longest length, at most `longest`, up to which there are at
    most `words` words."""
    length, total = 0, 1
    while length < longest and total + len(alphabet) ** (length + 1) <= words:
        length += 1
        total += len(alphabet) ** length
    return length


def accepting_run(machine, word):
    """A run of the machine on the word, read off the flow search on the
    word product: each product label is a machine label before its last
    '&', and the entry hop has none."""
    pa = phase_automaton(intersect_regular(machine, _word_nfa(word, machine.alphabet)))
    run = witness_run(pa, solve(to_flow_system(pa)))
    return replay(machine, [label.rsplit("&", 1)[0] for label in run.labels
                            if not label.startswith("&")])


@pytest.mark.parametrize("machine", [load(n) for n in MEMBER_FIXTURES] + CORPUS[:10],
                         ids=MEMBER_FIXTURES + [f"corpus{i}" for i in range(10)])
def test_membership_matches_enumeration(machine):
    length = horizon(machine.alphabet)
    sample = enumerate_language(machine, caps_for(length))
    accepted = sample.as_set()
    for n in range(length + 1):
        for word in itertools.product(sorted(machine.alphabet), repeat=n):
            verdict = membership(machine, word)
            if word in accepted or not sample.truncated:
                assert verdict.answer == (word in accepted), word
            if verdict.answer:
                assert verdict.witness == "".join(word)
                assert accepting_run(machine, word).word == word


# ---------------------------------------------------------------------------
# Containment in a regular set, pattern-boundedness and the LBiLBd and
# StLB families, against enumeration.  A "no" witness must be a word or
# behavior of the machine outside the set it escapes; on a "yes", every
# enumerated word or behavior must lie inside it.


def word_regexes(alphabet) -> list[str]:
    """The letters as blocks in sorted order, every word, the words that
    begin with the first letter, and the words that end with the last
    letter or are a block of the first."""
    letters = sorted(alphabet)
    anything = "(" + " | ".join(letters) + ")*"
    return [" ".join(a + "*" for a in letters), anything,
            f"{letters[0]} {anything}", f"{anything} {letters[-1]} | {letters[0]}*"]


@pytest.mark.parametrize("machine", [load(n) for n in MEMBER_FIXTURES] + CORPUS[:8],
                         ids=MEMBER_FIXTURES + [f"corpus{i}" for i in range(8)])
def test_contained_in_regular(machine):
    words = sample(machine).words
    for text in word_regexes(machine.alphabet):
        nfa = parse_word_regex(text, machine.alphabet)
        verdict = contained_in_regular(machine, nfa)
        if verdict.answer:
            for w in words:
                assert nfa.accepts(w), (text, w)
        else:
            word = tuple(verdict.witness)
            assert membership(machine, word).answer, (text, word)
            assert not nfa.accepts(word), (text, word)


# Built generators have richer behaviors than the random corpus, whose
# accepting runs touch no counter.
BEHAVIOR_MACHINES = {**{n: load(n) for n in MEMBER_FIXTURES},
                     "LB2": generator("LB", 2), "LBiLBd2": generator("LBiLBd", 2),
                     "LBi2": generator("LBi", 2)}


def pattern_regex(words):
    """w1* ... wm* over instruction letters as a regex on their spelling;
    every letter has two characters, so matches stay letter-aligned."""
    return re.compile("".join(f"(?:{''.join(w)})*" for w in words))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", sorted(BEHAVIOR_MACHINES))
def test_bd_with_bound(name, n):
    machine = BEHAVIOR_MACHINES[name]
    verdict = bd_with_bound(machine, n)
    behaviors = sample(self_describing(machine, "full")).words
    candidates = [pattern_regex(words)
                  for words in _bounded_patterns(machine.k, n, Budget())]
    if not verdict.answer:
        behavior = instructions(verdict.witness)
        assert membership(self_describing(machine, "full"), behavior).answer
        assert not any(p.fullmatch(verdict.witness) for p in candidates)
    elif verdict.witness is None:
        for b in behaviors:
            assert any(p.fullmatch("".join(b)) for p in candidates), b
    elif verdict.witness == "<eps>":
        assert behaviors <= {()}
    else:
        expr = parse_pattern(verdict.witness)
        for b in behaviors:
            assert expr_matches(expr, b), (verdict.witness, b)


def increases_after_decrease(behavior) -> bool:
    return any(a[0] == "D" and b[0] == "C"
               for a, b in itertools.combinations(behavior, 2))


def stratified(letters) -> bool:
    """No subsequence C_r C_s D_r D_s with r != s."""
    return not any(p[0] == "C" and q[0] == "C" and p[1:] != q[1:]
                   and u == "D" + p[1:] and v == "D" + q[1:]
                   for p, q, u, v in itertools.combinations(letters, 4))


@pytest.mark.parametrize("tag", ["LBiLBd", "StLB"])
@pytest.mark.parametrize("name", sorted(BEHAVIOR_MACHINES))
def test_infer_family_split_and_stratified(name, tag):
    machine = BEHAVIOR_MACHINES[name]
    sd = self_describing(machine, "full")
    verdict = infer_family(machine, tag)
    if isinstance(verdict.witness, PumpEvidence):
        assert not verdict.answer
        check_pump(sd, verdict.witness, instructions)
        return
    if isinstance(verdict.witness, str):
        # LBiLBd's behavior with an increase after its first decrease
        behavior = instructions(verdict.witness)
        assert tag == "LBiLBd" and not verdict.answer
        assert membership(sd, behavior).answer
        assert increases_after_decrease(behavior)
        return
    behaviors = sample(sd).words
    check_sequence(verdict.witness, behaviors)
    if tag == "LBiLBd":
        assert verdict.answer
        assert not any(increases_after_decrease(b) for b in behaviors)
    else:
        assert verdict.answer is stratified(verdict.witness)


# ---------------------------------------------------------------------------
# Cells whose pump searches ran for minutes before the flow search took
# its branches from LP vertices, each under the default budget.


@pytest.mark.parametrize("name", ["ex2", "ex4a-m1"])
def test_letter_bounded_no_by_pump(name):
    machine = load(name)
    verdict = is_letter_bounded(machine)
    assert verdict.answer is False
    check_pump(machine, verdict.witness)
    assert len(verdict.witness.pumped) > len(verdict.witness.word)


@pytest.mark.parametrize("tag, mode", [("LB", "full"), ("LBi", "increases-only")])
def test_infer_ex4a_m1_no_by_pump(tag, mode):
    machine = load("ex4a-m1")
    verdict = infer_family(machine, tag)
    assert verdict.answer is False
    check_pump(self_describing(machine, mode), verdict.witness, instructions)


@pytest.mark.parametrize("m", [2, 3])
def test_m_bounded_ex2_no_by_length(m):
    machine = load("ex2")
    verdict = is_m_bounded(machine, m)
    assert verdict.answer is False
    assert isinstance(verdict.witness, str)
    assert membership(machine, verdict.witness).answer
    assert len(verdict.witness) % m != 0


def test_infinite_ex3():
    machine = load("ex3")
    verdict = is_infinite(machine)
    assert verdict.answer is True
    base, pumped = verdict.witness.word, verdict.witness.pumped
    assert membership(machine, base).answer and membership(machine, pumped).answer
    assert len(pumped) > len(base)


def test_infer_split_of_lbd2():
    # LBd2's decrease behaviors are letter-bounded, but its full ones are
    # not: the LBiLBd answer is a pump of the full self-describing machine
    machine = generator("LBd", 2)
    verdict = infer_family(machine, "LBiLBd")
    assert verdict.answer is False
    check_pump(self_describing(machine, "full"), verdict.witness, instructions)
