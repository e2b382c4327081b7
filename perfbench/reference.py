"""Known answers for the benchmark, written without ncmkit.

Every language here is a closed form taken from a fixture's header
comment or from the crossed-counter family below, checked with Python's
`re` and integer arithmetic.  The expected verdicts are written by hand
from those closed forms.  The self-test in run.py compares each
predicate with the package's bounded-simulation oracle on short words,
so a wrong entry here fails loudly instead of showing up as an error of
the program.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass


def _groups(pattern: str, word: str):
    match = re.fullmatch(pattern, word)
    return None if match is None else match.groups()


def _equal_runs(pattern: str, pairs):
    """A predicate: the word matches and the listed groups have equal lengths."""
    def accepts(word: str) -> bool:
        g = _groups(pattern, word)
        return g is not None and all(len(g[i]) == len(g[j]) for i, j in pairs)
    return accepts


def _ex3(word: str) -> bool:
    g = _groups("(a*)(b*)", word)
    if g is None:
        return False
    a, b = len(g[0]), len(g[1])
    # a = 2 + i + 2j and b = 3 + 2i + 5j for some i, j >= 0
    return any(a - 2 - 2 * j >= 0 and b == 3 + 2 * (a - 2 - 2 * j) + 5 * j
               for j in range(a // 2 + 1))


def _ex4a_m1(word: str) -> bool:
    g = _groups("([ab]*)m(a*)(b*)", word)
    return (g is not None and g[0].count("a") == len(g[1])
            and g[0].count("b") == len(g[2]))


FIXTURES = ("aibjcidj", "anbn-cldl", "anbn", "anbncn", "ex2", "ex3",
            "ex4a-m1", "loop")

ALPHABETS = {
    "aibjcidj": "abcd", "anbn-cldl": "abcd", "anbn": "ab", "anbncn": "abc",
    "ex2": "01ab", "ex3": "ab", "ex4a-m1": "abm", "loop": "a",
}

LANGUAGES = {
    "aibjcidj": _equal_runs("(a*)(b*)(c*)(d*)", [(0, 2), (1, 3)]),
    "anbn-cldl": _equal_runs("(a*)(b*)(c*)(d*)", [(0, 1), (2, 3)]),
    "anbn": _equal_runs("(a*)(b*)", [(0, 1)]),
    "anbncn": _equal_runs("(a*)(b*)(c*)", [(0, 1), (1, 2)]),
    "ex2": _equal_runs("[01]*(a+)[01]*(b+)[01]*(a+)[01]*(b+)[01]*",
                       [(0, 2), (1, 3)]),
    "ex3": _ex3,
    "ex4a-m1": _ex4a_m1,
    "loop": lambda word: word == "a",
}

# Hand-written verdicts per (verb, fixture) for the cells the workloads
# send.  Every fixture accepts some word; only `loop` is finite.
# Letter-boundedness fails where {0,1} fillers (ex2) or a free {a,b}
# prefix (ex4a-m1) alternate without bound.  bd-bounded 3 holds only
# where the behaviors are C1* D1*.  2-boundedness fails on every language
# with a word of odd length; aibjcidj lies in
# aa* ab* ac* bb* bc* bd* cc* cd* dd*.
EXPECTED = {
    "empty": {name: False for name in FIXTURES},
    "infinite": {name: name != "loop" for name in FIXTURES},
    "letter-bounded": {"anbn-cldl": True, "anbn": True, "anbncn": True,
                       "ex2": False, "ex4a-m1": False, "loop": True},
    "bd-bounded 3": {"aibjcidj": False, "anbn-cldl": False, "anbn": True,
                     "anbncn": False, "ex4a-m1": False, "loop": True},
    "infer LB": {"anbn": True, "loop": True},
    "m-bounded 2": {"aibjcidj": True, "anbn": True, "anbncn": False,
                    "ex4a-m1": False, "loop": False},
}

# (fixture, pattern, every behavior matches?).  Behaviors by fixture:
# anbn and loop C1^n D1^n; anbncn (C1 C2)^n D1^n D2^n; anbn-cldl
# C1^n D1^n C2^l D2^l; aibjcidj and ex2 C1^i C2^j D1^i D2^j (ex2 with
# i, j > 0); ex3 (C1 C2)^i (C3 C4)^j D1^i D3^j D2^i D4^j; ex4a-m1 any
# interleaving of C1^i and C2^j, then D1^i D2^j.
SATISFIES = (
    ("anbn", "C1*D1*", True),
    ("anbn", "C1*", False),
    ("anbn", "C1+D1+", False),
    ("anbn", "(C1D1)*", False),
    ("loop", "C1*D1*", True),
    ("loop", "D1*", False),
    ("anbncn", "(C1C2)*D1*D2*", True),
    ("anbncn", "C1*C2*D1*D2*", False),
    ("anbncn", "(C1C2)+D1+D2+|(C1C2)*", True),
    ("anbn-cldl", "C1*D1*C2*D2*", True),
    ("anbn-cldl", "C1*C2*D1*D2*", False),
    ("aibjcidj", "C1*C2*D1*D2*", True),
    ("aibjcidj", "C1*D1*C2*D2*", False),
    ("aibjcidj", "C1*C2+D1*D2+|C1*D1*", True),
    ("ex4a-m1", "(C1|C2)*D1*D2*", True),
    ("ex4a-m1", "C1*C2*D1*D2*", False),
    ("ex2", "C1+C2+D1+D2+", True),
    ("ex2", "(C1|C2)*(D1|D2)*", True),
    ("ex2", "C1*D1*C2*D2*", False),
    ("ex3", "(C1C2)*(C3C4)*D1*D3*D2*D4*|C1+", True),
    ("ex3", "C1*C2*C3*C4*D1*D2*D3*D4*", False),
)


def pattern_regex(pattern: str) -> str:
    """A Python regex over behavior strings such as "C1C2D1" for a pattern
    in the ncm syntax (symbols Ci/Di, `*`, `+`, `|`, parentheses)."""
    return re.sub(r"([CD]\d+)", r"(?:\1)", pattern.replace(" ", ""))


# ---------------------------------------------------------------------------
# The crossed-counter family

LOADS = "abc"
DRAINS = "def"
FILLERS = "01"


@dataclass(frozen=True)
class Crossed:
    """Counters 1..k loaded on blocks of LOADS[0..k-1], then drained on
    blocks of DRAINS[perm[0]], ..., DRAINS[perm[k-1]], each drain block as
    long as its load block.  With fillers, every block is nonempty and
    {0,1}* may sit before, between and after the blocks, as in ex2."""

    k: int
    perm: tuple
    fillers: bool

    @property
    def name(self) -> str:
        order = "".join(str(c + 1) for c in self.perm)
        return f"crossed-k{self.k}-{order}{'-fill' if self.fillers else ''}"

    def _blocks(self):
        """(letter, counter, is_load) for each block in reading order."""
        return ([(LOADS[c], c, True) for c in range(self.k)]
                + [(DRAINS[c], c, False) for c in self.perm])

    @property
    def alphabet(self) -> str:
        return LOADS[:self.k] + DRAINS[:self.k] + (FILLERS if self.fillers else "")

    def accepts(self, word: str) -> bool:
        blocks = self._blocks()
        if self.fillers:
            sep = "[01]*"
            pattern = sep + "".join(f"({letter}+){sep}" for letter, _, _ in blocks)
        else:
            pattern = "".join(f"({letter}*)" for letter, _, _ in blocks)
        g = _groups(pattern, word)
        if g is None:
            return False
        return all(len(g[self.k + j]) == len(g[c]) for j, c in enumerate(self.perm))

    def text(self) -> str:
        """The machine in the .ncm text format."""
        k = self.k

        def guard(pins: dict) -> str:
            return "".join(pins.get(i, "*") for i in range(k))

        def delta(counter: int, step: int) -> str:
            return " ".join(str(step if i == counter else 0) for i in range(k))

        still = delta(-1, 0)
        blocks = self._blocks()
        names = [f"X{b}" for b in range(2 * k)]
        gaps = [f"G{b}" for b in range(2 * k)] if self.fillers else []
        trans = []
        for b, (letter, c, load) in enumerate(blocks):
            here = names[b]
            move = (guard({}), delta(c, 1)) if load else (guard({c: "p"}), delta(c, -1))
            leave = guard({}) if load else guard({c: "z"})
            trans.append((f"r{b}", here, letter, move[0], here, move[1]))
            if self.fillers:
                for s in FILLERS:
                    trans.append((f"g{b}{s}", gaps[b], s, guard({}), gaps[b], still))
                trans.append((f"e{b}", gaps[b], letter, move[0], here, move[1]))
                after = gaps[b + 1] if b + 1 < 2 * k else "F"
            else:
                after = names[b + 1] if b + 1 < 2 * k else "F"
            trans.append((f"n{b}", here, "@", leave, after, still))
        if self.fillers:
            for s in FILLERS:
                trans.append((f"gF{s}", "F", s, guard({}), "F", still))
        lines = [
            f"# {self.name}",
            "ncm",
            f"counters {k}",
            "alphabet " + " ".join(self.alphabet),
            "states " + " ".join(names + gaps + ["F"]),
            f"initial {(gaps or names)[0]}",
            "final F",
        ]
        lines += ["trans " + " ".join(t) for t in trans]
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Witness checks.  Each returns None when the verdict holds, else a reason.


def words_upto(accepts, alphabet: str, n: int) -> set:
    """Every word of length <= n over the alphabet that the predicate accepts."""
    return {"".join(w) for size in range(n + 1)
            for w in itertools.product(alphabet, repeat=size)
            if accepts("".join(w))}


def _plain(witness: str) -> str:
    return "" if witness == "<eps>" else witness


def _sequence_covers(witness: str, sample) -> str | None:
    """The witness "w1,...,wn" claims the language lies in w1* ... wn*."""
    words = [] if witness == "<eps>" else witness.split(",")
    regex = re.compile("".join(f"(?:{re.escape(w)})*" for w in words))
    for word in sorted(sample, key=lambda w: (len(w), w)):
        if not regex.fullmatch(word):
            return f"accepted word {word or '<eps>'} escapes {witness}"
    return None


def check(verb: str, target, verdict: dict, expected, sample) -> str | None:
    """Compare one structured verdict with the known answer.

    target is a fixture name or a Crossed spec, expected the known answer,
    sample the accepted words of length <= a short horizon."""
    accepts = target.accepts if isinstance(target, Crossed) else LANGUAGES[target]
    answer, witness = verdict.get("answer"), verdict.get("witness")
    if answer is not expected:
        return f"answer {answer} but expected {expected}"
    if verb == "empty" and not answer:
        if witness is None or not accepts(_plain(witness)):
            return f"witness {witness} is not in the language"
    elif verb == "infinite" and answer:
        base, _, pumped = (witness or "").partition(",")
        base, pumped = _plain(base), _plain(pumped)
        if not (accepts(base) and accepts(pumped)):
            return f"pump pair {witness} leaves the language"
        if len(pumped) <= len(base):
            return f"pumped word of {witness} is not longer"
    elif verb in ("letter-bounded", "m-bounded 2") and answer and witness is not None:
        return _sequence_covers(witness, sample)
    elif verb == "m-bounded 2" and not answer and witness and "," not in witness:
        word = _plain(witness)
        if not accepts(word) or len(word) % 2 == 0:
            return f"witness {witness} is not an accepted word of odd length"
    return None


def check_member(word: str, target, verdict: dict) -> str | None:
    accepts = target.accepts if isinstance(target, Crossed) else LANGUAGES[target]
    expected = accepts(word)
    if verdict.get("answer") is not expected:
        return f"answer {verdict.get('answer')} but the word is " + (
            "in" if expected else "not in") + " the language"
    return None


def check_satisfies(pattern: str, expected: bool, verdict: dict) -> str | None:
    answer, witness = verdict.get("answer"), verdict.get("witness")
    if answer is not expected:
        return f"answer {answer} but expected {expected}"
    if not answer:
        behavior = "" if witness in (None, "<eps>") else witness
        if re.fullmatch(pattern_regex(pattern), behavior):
            return f"counterexample behavior {witness} matches the pattern"
    return None
