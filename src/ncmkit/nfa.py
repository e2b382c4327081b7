"""Finite automata over arbitrary hashable symbols, and the query Budget.

Budget caps the work of one query.  It lives in this, the lowest module,
so that every layer charges it where the work happens.

Thompson-style combinators (concat, union, star, shuffle), lambda
elimination, and subset-construction determinization charged to a
Budget, whose Dfa complements.  Also the package's one regular-expression
front end: parse_regex reads a token list into a tree of Seq, Alt, Star,
Plus and Shuffle nodes, and regex_to_nfa folds such a tree into an Nfa.
Instruction patterns (patterns.py) and the word regexes of
parse_word_regex differ only in their tokenizers and leaves.  The
automata serve patterns, regular operands of closure operations, and the
regular components of decision procedures.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Callable


class ResourceBudgetError(RuntimeError):
    """A combinatorial budget was exceeded; the answer is unknown."""


@dataclass
class Budget:
    """Joint cap on the work one query may do.

    Each layer charges its units as it spends them: a flow-search node, a
    subset state, a built transition, a step of one of decide's searches.
    cancel is an optional callable polled on every charge; when it
    returns True the query stops with a ResourceBudgetError.
    """

    limit: int = 2_000_000
    used: int = 0
    cancel: Callable[[], bool] | None = None

    def check(self) -> None:
        if self.cancel is not None and self.cancel():
            raise ResourceBudgetError("query cancelled")

    def charge(self, amount: int, what: str = "") -> None:
        self.check()
        self.used += amount
        if self.used > self.limit:
            suffix = f" during {what}" if what else ""
            raise ResourceBudgetError(f"budget of {self.limit} exhausted{suffix}")


@dataclass(frozen=True)
class Nfa:
    alphabet: frozenset
    states: frozenset
    initials: frozenset
    finals: frozenset
    transitions: frozenset  # of (src, symbol-or-None, dst)

    def moves(self) -> dict:
        adj: dict = {}
        for src, sym, dst in self.transitions:
            adj.setdefault((src, sym), set()).add(dst)
        return adj

    def lambda_closure(self, states: frozenset, adj=None) -> frozenset:
        if adj is None:
            adj = self.moves()
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for r in adj.get((q, None), ()):
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        return frozenset(seen)

    def accepts(self, word) -> bool:
        adj = self.moves()
        current = self.lambda_closure(self.initials, adj)
        for sym in word:
            nxt = set()
            for q in current:
                nxt |= adj.get((q, sym), set())
            current = self.lambda_closure(frozenset(nxt), adj)
            if not current:
                return False
        return bool(current & self.finals)


def nfa_empty(alphabet) -> Nfa:
    q = ("empty", 0)
    return Nfa(frozenset(alphabet), frozenset([q]), frozenset([q]), frozenset(), frozenset())


def nfa_epsilon(alphabet) -> Nfa:
    q = ("eps", 0)
    return Nfa(frozenset(alphabet), frozenset([q]), frozenset([q]), frozenset([q]), frozenset())


def nfa_symbol(sym, alphabet=None) -> Nfa:
    alpha = frozenset(alphabet) if alphabet is not None else frozenset([sym])
    a, b = ("sym", 0), ("sym", 1)
    return Nfa(alpha, frozenset([a, b]), frozenset([a]), frozenset([b]),
               frozenset([(a, sym, b)]))


def nfa_word(word, alphabet=None) -> Nfa:
    alpha = frozenset(alphabet) if alphabet is not None else frozenset(word)
    states = [("w", i) for i in range(len(word) + 1)]
    trans = frozenset((states[i], word[i], states[i + 1]) for i in range(len(word)))
    return Nfa(alpha, frozenset(states), frozenset([states[0]]),
               frozenset([states[-1]]), trans)


def _tag_states(nfa: Nfa, tag):
    ren = {q: (tag, q) for q in nfa.states}
    trans = frozenset((ren[a], s, ren[b]) for a, s, b in nfa.transitions)
    return ren, trans


def nfa_union(parts: list[Nfa]) -> Nfa:
    if not parts:
        return nfa_empty(frozenset())
    alpha = frozenset().union(*(p.alphabet for p in parts))
    states, initials, finals, trans = set(), set(), set(), set()
    for i, p in enumerate(parts):
        ren, tr = _tag_states(p, i)
        states |= set(ren.values())
        initials |= {ren[q] for q in p.initials}
        finals |= {ren[q] for q in p.finals}
        trans |= tr
    return Nfa(alpha, frozenset(states), frozenset(initials), frozenset(finals),
               frozenset(trans))


def nfa_concat(parts: list[Nfa]) -> Nfa:
    if not parts:
        return nfa_epsilon(frozenset())
    alpha = frozenset().union(*(p.alphabet for p in parts))
    states, trans = set(), set()
    renamed = []
    for i, p in enumerate(parts):
        ren, tr = _tag_states(p, i)
        states |= set(ren.values())
        trans |= tr
        renamed.append(ren)
    for i in range(len(parts) - 1):
        for f in parts[i].finals:
            for s in parts[i + 1].initials:
                trans.add((renamed[i][f], None, renamed[i + 1][s]))
    initials = frozenset(renamed[0][q] for q in parts[0].initials)
    finals = frozenset(renamed[-1][q] for q in parts[-1].finals)
    return Nfa(alpha, frozenset(states), initials, finals, frozenset(trans))


def nfa_star(inner: Nfa) -> Nfa:
    ren, trans = _tag_states(inner, "in")
    trans = set(trans)
    hub = ("star", 0)
    states = set(ren.values()) | {hub}
    for q in inner.initials:
        trans.add((hub, None, ren[q]))
    for q in inner.finals:
        trans.add((ren[q], None, hub))
    return Nfa(inner.alphabet, frozenset(states), frozenset([hub]),
               frozenset([hub]), frozenset(trans))


def nfa_plus(inner: Nfa) -> Nfa:
    return nfa_concat([inner, nfa_star(inner)])


def nfa_shuffle(left: Nfa, right: Nfa) -> Nfa:
    """Interleavings of one word from each operand."""
    alpha = left.alphabet | right.alphabet
    states = frozenset(itertools.product(left.states, right.states))
    initials = frozenset(itertools.product(left.initials, right.initials))
    finals = frozenset(itertools.product(left.finals, right.finals))
    trans = set()
    for a, s, b in left.transitions:
        for r in right.states:
            trans.add(((a, r), s, (b, r)))
    for a, s, b in right.transitions:
        for l in left.states:
            trans.add(((l, a), s, (l, b)))
    return Nfa(alpha, states, initials, finals, frozenset(trans))


def eliminate_lambda(nfa: Nfa) -> Nfa:
    """Equivalent NFA without lambda moves (single initial kept as a set)."""
    adj = nfa.moves()
    trans = set()
    finals = set()
    for q in nfa.states:
        closure = nfa.lambda_closure(frozenset([q]), adj)
        if closure & nfa.finals:
            finals.add(q)
        for c in closure:
            for (src, sym), dsts in adj.items():
                if src != c or sym is None:
                    continue
                for d in dsts:
                    for d2 in nfa.lambda_closure(frozenset([d]), adj):
                        trans.add((q, sym, d2))
    # Keep fully closed targets; initials stay, acceptance via finals set.
    return Nfa(nfa.alphabet, nfa.states, nfa.initials, frozenset(finals),
               frozenset(trans))


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton over its alphabet."""

    alphabet: frozenset
    n_states: int
    initial: int
    finals: frozenset  # of int
    delta: dict  # (state, symbol) -> state

    def step(self, state: int, sym) -> int:
        return self.delta[(state, sym)]

    def accepts(self, word) -> bool:
        q = self.initial
        for sym in word:
            q = self.delta[(q, sym)]
        return q in self.finals

    def complement(self) -> "Dfa":
        finals = frozenset(q for q in range(self.n_states) if q not in self.finals)
        return Dfa(self.alphabet, self.n_states, self.initial, finals, self.delta)

    def to_nfa(self) -> Nfa:
        trans = frozenset((a, s, b) for (a, s), b in self.delta.items())
        return Nfa(self.alphabet, frozenset(range(self.n_states)),
                   frozenset([self.initial]), self.finals, trans)


def determinize(nfa: Nfa, budget: Budget | None = None) -> Dfa:
    """Subset construction; complete over nfa.alphabet.

    Charges one budget unit per subset state, so a Dfa of n states costs
    exactly n; without a budget, at most 100,000 states are built.
    """
    if budget is None:
        budget = Budget(limit=100_000)
    adj = nfa.moves()
    symbols = sorted(nfa.alphabet, key=repr)
    start = nfa.lambda_closure(nfa.initials, adj)
    budget.charge(1, "determinization")
    index = {start: 0}
    order = [start]
    delta = {}
    todo = [start]
    while todo:
        cur = todo.pop()
        ci = index[cur]
        for sym in symbols:
            moved = set()
            for q in cur:
                moved |= adj.get((q, sym), set())
            nxt = nfa.lambda_closure(frozenset(moved), adj)
            if nxt not in index:
                budget.charge(1, "determinization")
                index[nxt] = len(order)
                order.append(nxt)
                todo.append(nxt)
            delta[(ci, sym)] = index[nxt]
    finals = frozenset(i for s, i in index.items() if s & nfa.finals)
    return Dfa(frozenset(nfa.alphabet), len(order), 0, finals, delta)


def bounded_pattern_nfa(words: list[tuple]) -> Nfa:
    """NFA for w1* w2* ... wm* (each w a tuple of symbols)."""
    alpha = frozenset(s for w in words for s in w)
    parts = [nfa_star(nfa_word(w, alpha)) for w in words]
    out = nfa_concat(parts) if parts else nfa_epsilon(alpha)
    return Nfa(alpha, out.states, out.initials, out.finals, out.transitions)




# ---------------------------------------------------------------------------
# Regular expressions: one grammar and one tree for instruction patterns
# (patterns.py) and word regexes, and one Thompson construction over it.


@dataclass(frozen=True)
class Seq:
    parts: tuple


@dataclass(frozen=True)
class Alt:
    parts: tuple


@dataclass(frozen=True)
class Star:
    body: object


@dataclass(frozen=True)
class Plus:
    body: object


@dataclass(frozen=True)
class Shuffle:
    left: object
    right: object


class PatternSyntaxError(ValueError):
    """Raised when a pattern or regex does not parse; carries the offset."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


# Deepest nesting parse_regex accepts, counting groups and the
# interleavings inside them: each level takes at most four Python frames
# here and one in every fold over the tree, and deeper input would
# exhaust the interpreter's recursion limit.
MAX_NESTING = 100


def parse_regex(tokens: list[tuple[str, object, int]], end: int):
    """Tree of a token list: juxtaposition, ``|``, postfix ``*`` and ``+``,
    groups, and ``(a # b)`` interleaving inside a group.

    A token is (kind, value, offset): kind "sym" for a leaf, whose value
    becomes the leaf node, else the operator character itself.  end is
    the offset reported for errors at the end of the input.  A run of
    postfix operators is one repeat, ``+`` when all of them are ``+``.
    """
    pos = 0
    depth = 0

    def peek():
        return tokens[pos][0] if pos < len(tokens) else None

    def here() -> int:
        return tokens[pos][2] if pos < len(tokens) else end

    def descend() -> None:
        nonlocal depth
        depth += 1
        if depth > MAX_NESTING:
            raise PatternSyntaxError(f"nested more than {MAX_NESTING} deep", here())

    def expr():
        nonlocal pos
        parts = [seq()]
        while peek() == "|":
            pos += 1
            parts.append(seq())
        return parts[0] if len(parts) == 1 else Alt(tuple(parts))

    def seq():
        items = []
        while peek() in ("sym", "("):
            items.append(item())
        if not items:
            raise PatternSyntaxError("expected a symbol or group", here())
        return items[0] if len(items) == 1 else Seq(tuple(items))

    def item():
        nonlocal pos
        node = atom()
        ops = set()
        while peek() in ("*", "+"):
            ops.add(peek())
            pos += 1
        if not ops:
            return node
        return Plus(node) if ops == {"+"} else Star(node)

    def atom():
        nonlocal pos, depth
        if peek() == "sym":
            pos += 1
            return tokens[pos - 1][1]
        if peek() != "(":
            raise PatternSyntaxError("expected a symbol or group", here())
        outer = depth
        descend()
        pos += 1
        node = expr()
        while peek() == "#":
            descend()
            pos += 1
            node = Shuffle(node, expr())
        if peek() != ")":
            raise PatternSyntaxError("expected ')'", here())
        pos += 1
        depth = outer
        return node

    node = expr()
    if pos != len(tokens):
        raise PatternSyntaxError("trailing input", here())
    return node


def regex_to_nfa(node, leaf) -> Nfa:
    """Thompson's construction over a parse_regex tree; leaf(node) gives
    the automaton of each leaf."""
    if isinstance(node, Seq):
        return nfa_concat([regex_to_nfa(p, leaf) for p in node.parts])
    if isinstance(node, Alt):
        return nfa_union([regex_to_nfa(p, leaf) for p in node.parts])
    if isinstance(node, Star):
        return nfa_star(regex_to_nfa(node.body, leaf))
    if isinstance(node, Plus):
        return nfa_plus(regex_to_nfa(node.body, leaf))
    if isinstance(node, Shuffle):
        return nfa_shuffle(regex_to_nfa(node.left, leaf),
                           regex_to_nfa(node.right, leaf))
    return leaf(node)


# A word-regex symbol is any run of characters other than whitespace and
# the operators; "#" is a symbol character here, so word regexes have no
# interleaving.
_WORD_TOKEN = re.compile(r"(?P<op>[()|*+])|(?P<sym>[^\s()|*+]+)")


def parse_word_regex(text: str, alphabet=None) -> Nfa:
    """Regex over symbol tokens: juxtaposition, |, *, +, parentheses.

    Multi-character symbols need whitespace between them ("a b", not "ab").
    """
    tokens = [(m["op"] or "sym", m["sym"], m.start())
              for m in _WORD_TOKEN.finditer(text)]
    out = regex_to_nfa(parse_regex(tokens, len(text)), nfa_symbol)
    if alphabet is not None:
        missing = out.alphabet - frozenset(alphabet)
        if missing:
            raise ValueError(f"symbols {sorted(missing)} not in the alphabet")
        out = Nfa(frozenset(alphabet), out.states, out.initials, out.finals,
                  out.transitions)
    return out
