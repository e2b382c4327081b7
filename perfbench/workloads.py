"""Seeded query lists for the three workloads.

A query is one `ncm` verb on one machine.  Fixtures are read from the
package's fixture directory; crossed-family machines are generated as
.ncm text.  The seed decides the filler bits of the ex2 member words, the
spelling of patterns and the order of the queries; it never changes how
many queries of each kind a workload holds or how long the words are,
so the cost of a pass stays close across seeds.
"""

from __future__ import annotations

import itertools
import random
import re
from dataclasses import dataclass

from reference import EXPECTED, FIXTURES, LANGUAGES, SATISFIES, Crossed


@dataclass(frozen=True)
class Query:
    """verb is the CLI verb plus its positional operands ("bd-bounded 3");
    target a fixture name or a Crossed spec; word and pattern are the
    operands of `member` and `satisfies`; expected the known answer
    (None for `member`, whose answer the predicate gives)."""

    verb: str
    target: object
    expected: bool | None = None
    word: str | None = None
    pattern: str | None = None

    @property
    def target_name(self) -> str:
        return self.target.name if isinstance(self.target, Crossed) else self.target

    @property
    def label(self) -> str:
        extra = self.word if self.word is not None else self.pattern
        return " ".join(p for p in (self.verb, self.target_name, extra) if p)

    def argv(self, path: str) -> list[str]:
        verb, *operands = self.verb.split()
        tail = operands
        if self.word is not None:
            tail = [self.word]
        elif self.pattern is not None:
            tail = ["--pattern", self.pattern]
        return [verb, path, *tail, "--format", "structured"]


# ---------------------------------------------------------------------------
# pump: emptiness and infiniteness, the flow search on whole machines

# The longest `infinite` cells are left out, so that a pass takes about
# 7 s and most of a run is left for repeating the other queries: ex3
# takes 6-12 s, ex4a-m1 about 5 s, ex2 and crossed-k2-21 about 2.4 s each.
# aibjcidj (2 s, 2,015 search nodes) stays.
PUMP_LEFT_OUT = {("infinite", "ex3"), ("infinite", "ex4a-m1"), ("infinite", "ex2"),
                 ("infinite", "crossed-k2-21")}


def pump(rng: random.Random) -> list[Query]:
    queries = [Query(verb, name, EXPECTED[verb][name])
               for name in FIXTURES for verb in ("empty", "infinite")]
    family = [
        Crossed(1, (0,), False),
        Crossed(1, (0,), True),
        # (0, 1) without fillers is the aibjcidj fixture
        Crossed(2, (1, 0), False),
        Crossed(2, (0, 1), True),
        Crossed(2, (1, 0), True),
    ]
    # k = 3 without fillers runs past a minute at the seed, so only the
    # filled shape is taken, with every permutation: a drawn subset made
    # the cost of a pass depend on the seed.
    family += [Crossed(3, perm, True) for perm in itertools.permutations(range(3))]
    queries += [Query(verb, spec, verb == "infinite")
                for spec in family for verb in ("empty", "infinite")]
    queries = [q for q in queries if (q.verb, q.target_name) not in PUMP_LEFT_OUT]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# member-long: membership of long words, the product and the exact LP

def _in_word(name: str, rng: random.Random, length: int) -> str:
    """A word of the fixture's language with about `length` letters.

    The word's shape depends on `length` alone, because it sets the cost
    of the query; the seed only picks the filler bits of ex2."""
    if name == "anbn":
        n = length // 2
        return "a" * n + "b" * n
    if name == "anbncn":
        n = length // 3
        return "a" * n + "b" * n + "c" * n
    if name in ("aibjcidj", "anbn-cldl"):
        i = length // 4
        j = length // 2 - i
        if name == "aibjcidj":
            return "a" * i + "b" * j + "c" * i + "d" * j
        return "a" * i + "b" * i + "c" * j + "d" * j
    if name == "ex2":
        i = j = max(1, length // 7)
        gap = (length - 4 * i) // 5
        u, v, w, x, y = ("".join(rng.choice("01") for _ in range(gap)) for _ in range(5))
        return u + "a" * i + v + "b" * j + w + "a" * i + x + "b" * j + y
    if name == "ex3":
        # j = 0 puts the b-block at its least length for the a-block, so
        # one b less leaves the language
        i = (length - 5) // 3
        return "a" * (2 + i) + "b" * (3 + 2 * i)
    if name == "ex4a-m1":
        half = (length - 1) // 4
        return "ab" * half + "m" + "a" * half + "b" * half
    raise ValueError(f"no word generator for {name}")


def _off_by_one(word: str) -> list[str]:
    """One letter less in the last block.  Which block changes sets the
    cost of the refutation (up to fourfold), so it is not drawn."""
    last = max(i for i, a in enumerate(word) if a not in "01")
    return [word[:last] + word[last + 1:]]


def _swapped(word: str) -> list[str]:
    """Two neighbouring letters swapped, first position first.  The first
    swap that leaves the language is taken: the later the swap, the
    longer the product stays alive, so the position is not drawn."""
    return [word[:i] + word[i + 1] + word[i] + word[i + 2:]
            for i in range(len(word) - 1) if word[i] != word[i + 1]]


def _out_word(name: str, rng: random.Random, length: int, perturb) -> str:
    """A word just outside the language: a member with one change."""
    for word in perturb(_in_word(name, rng, length)):
        if not LANGUAGES[name](word):
            return word
    raise RuntimeError(f"no change of a {name} word of length {length} leaves it")


MEMBER_FIXTURES = ("aibjcidj", "anbn-cldl", "anbn", "anbncn", "ex2", "ex3", "ex4a-m1")
# (length, perturbation of the out-word) per slot.  ex3 costs about four
# times more per letter, so its lengths are shorter.  The longest words
# cost about half a second each, so that a pass takes about 5 s and a
# run holds many.
MEMBER_SLOTS = ((14, _off_by_one), (28, _swapped), (48, _off_by_one))
MEMBER_SLOTS_EX3 = ((10, _off_by_one), (16, _swapped), (24, _off_by_one))


def member_long(rng: random.Random) -> list[Query]:
    queries = []
    for name in MEMBER_FIXTURES:
        slots = MEMBER_SLOTS_EX3 if name == "ex3" else MEMBER_SLOTS
        for length, perturb in slots:
            inside = _in_word(name, rng, length)
            if not LANGUAGES[name](inside):
                raise RuntimeError(f"generated word {inside} is not in {name}")
            outside = _out_word(name, rng, length, perturb)
            queries += [Query("member", name, word=inside),
                        Query("member", name, word=outside)]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# bounded: the constructions, determinization and decide's loops

BOUNDED_CELLS = (
    [("letter-bounded", f) for f in ("anbn", "anbncn", "anbn-cldl", "loop",
                                     "ex2", "ex4a-m1")]
    + [("bd-bounded 3", f) for f in ("anbn", "anbncn", "anbn-cldl", "loop",
                                     "aibjcidj", "ex4a-m1")]
    + [("infer LB", f) for f in ("anbn", "loop")]
    + [("m-bounded 2", f) for f in ("anbn", "anbncn", "loop", "ex4a-m1",
                                    "aibjcidj")]
)

# Cells that run past 300 s at the seed and so time out under the limit.
UNDECIDED_AT_SEED = {("letter-bounded", "ex2"), ("letter-bounded", "ex4a-m1"),
                     ("m-bounded 2", "aibjcidj")}


def _respell(rng: random.Random, pattern: str) -> str:
    """The same pattern with random spacing and parentheses around symbols."""
    out = []
    for tok in re.findall(r"[CD]\d+|[()|*+]", pattern):
        if tok[0] in "CD" and rng.random() < 0.5:
            tok = f"({tok})"
        out.append(tok)
    return "".join(t + (" " if rng.random() < 0.3 else "") for t in out).strip()


def bounded(rng: random.Random) -> list[Query]:
    queries = [Query(verb, name, EXPECTED[verb][name]) for verb, name in BOUNDED_CELLS]
    queries += [Query("satisfies", name, expected, pattern=_respell(rng, pattern))
                for name, pattern, expected in SATISFIES]
    rng.shuffle(queries)
    return queries


WORKLOADS = {"pump": pump, "member-long": member_long, "bounded": bounded}

# Per-query time limit in seconds: above every decided cell's time at the
# seed with room for a slower machine, and the cost of each undecided cell.
LIMITS = {"pump": 30.0, "member-long": 15.0, "bounded": 4.0}
