"""Finite automata over arbitrary hashable symbols.

Thompson-style combinators (concat, union, star, shuffle), lambda
elimination, subset-construction determinization with a state budget,
complement, product, reversal, and bounded word enumeration.  Used for
instruction patterns, regular operands of closure operations, and the
regular components of decision procedures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass


class ResourceBudgetError(RuntimeError):
    """A combinatorial budget was exceeded; the answer is unknown."""


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

    def enumerate_words(self, max_len: int) -> list[tuple]:
        """All accepted words of length <= max_len, length-lexicographic."""
        adj = self.moves()
        symbols = sorted(self.alphabet, key=repr)
        out = []
        start = self.lambda_closure(self.initials, adj)
        layer = {start: [()]} if start else {}
        words_by_set: dict = {start: [()]} if start else {}
        # BFS over (state-set) per word; state-sets dedup per exact word, so
        # enumerate words directly, one length stratum at a time.
        frontier = [((), start)]
        if start & self.finals:
            out.append(())
        for _ in range(max_len):
            nxt_frontier = []
            for word, cur in frontier:
                for sym in symbols:
                    moved = set()
                    for q in cur:
                        moved |= adj.get((q, sym), set())
                    if not moved:
                        continue
                    closed = self.lambda_closure(frozenset(moved), adj)
                    w2 = word + (sym,)
                    nxt_frontier.append((w2, closed))
                    if closed & self.finals:
                        out.append(w2)
            frontier = nxt_frontier
        return out


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


def determinize(nfa: Nfa, max_states: int = 100_000) -> Dfa:
    """Subset construction; complete over nfa.alphabet.

    Raises ResourceBudgetError when more than max_states subset states
    appear.
    """
    adj = nfa.moves()
    symbols = sorted(nfa.alphabet, key=repr)
    start = nfa.lambda_closure(nfa.initials, adj)
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
                if len(index) >= max_states:
                    raise ResourceBudgetError(
                        f"determinization exceeded {max_states} states"
                    )
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
# Plain regular expressions over whitespace-friendly symbol tokens.

_RESERVED = set("()|*+")


def _regex_tokens(text: str) -> list[str]:
    tokens = []
    cur = []
    for ch in text:
        if ch.isspace() or ch in _RESERVED:
            if cur:
                tokens.append("".join(cur))
                cur = []
            if ch in _RESERVED:
                tokens.append(ch)
        else:
            cur.append(ch)
    if cur:
        tokens.append("".join(cur))
    return tokens


def parse_word_regex(text: str, alphabet=None) -> Nfa:
    """Regex over symbol tokens: juxtaposition, |, *, +, parentheses.

    Multi-character symbols need whitespace between them ("a b", not "ab").
    """
    tokens = _regex_tokens(text)
    pos = 0

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def expr() -> Nfa:
        nonlocal pos
        parts = [seq()]
        while peek() == "|":
            pos += 1
            parts.append(seq())
        return parts[0] if len(parts) == 1 else nfa_union(parts)

    def seq() -> Nfa:
        items = []
        while peek() is not None and peek() not in (")", "|"):
            items.append(item())
        if not items:
            raise ValueError("empty sequence in regular expression")
        return items[0] if len(items) == 1 else nfa_concat(items)

    def item() -> Nfa:
        nonlocal pos
        base = atom()
        while peek() in ("*", "+"):
            base = nfa_star(base) if peek() == "*" else nfa_plus(base)
            pos += 1
        return base

    def atom() -> Nfa:
        nonlocal pos
        tok = peek()
        if tok is None:
            raise ValueError("unexpected end of regular expression")
        if tok == "(":
            pos += 1
            inner = expr()
            if peek() != ")":
                raise ValueError("unbalanced parenthesis")
            pos += 1
            return inner
        if tok in _RESERVED:
            raise ValueError(f"unexpected {tok!r}")
        pos += 1
        return nfa_symbol(tok)

    out = expr()
    if pos != len(tokens):
        raise ValueError(f"trailing tokens at {tokens[pos]!r}")
    if alphabet is not None:
        missing = out.alphabet - frozenset(alphabet)
        if missing:
            raise ValueError(f"symbols {sorted(missing)} not in the alphabet")
        out = Nfa(frozenset(alphabet), out.states, out.initials, out.finals,
                  out.transitions)
    return out
