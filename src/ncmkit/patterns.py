"""Instruction patterns: regular expressions over counter-change letters.

An instruction word over {C1, D1, ..., Ck, Dk} records one counter change
per letter: Ci for an increase of counter i, Di for a decrease.  A pattern
is a regular expression over that alphabet, read by the regular-expression
front end of nfa.py: this module supplies only the C/D tokenizer and the
Sym leaves, and the grammar, the tree nodes (re-exported here) and the
Thompson construction are the ones word regexes use.  On top of them it
classifies a pattern's shape into the bounded-usage families, builds the
balanced acceptor of a pattern (equal Ci/Di counts, all increases of a
counter before any of its decreases), and constructs the canonical
generator machines for the families that have one.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass

from .machine import (
    ANY,
    POS,
    ZERO,
    CounterMachine,
    Transition,
    c_sym,
    coreachable,
    d_sym,
    instruction_alphabet,
)
from .nfa import (
    Alt,
    Budget,
    Nfa,
    PatternSyntaxError,
    Plus,
    Seq,
    Shuffle,
    Star,
    determinize,
    nfa_symbol,
    parse_regex,
    regex_to_nfa,
)


# ---------------------------------------------------------------------------
# Expression tree: the regex nodes of nfa.py over Sym leaves


@dataclass(frozen=True)
class Sym:
    kind: str  # 'C' or 'D'
    index: int

    @property
    def text(self) -> str:
        return f"{self.kind}{self.index}"


@dataclass(frozen=True)
class InstructionExpr:
    """A parsed pattern together with its counter arity."""

    root: object
    k: int


def _max_index(node) -> int:
    if isinstance(node, Sym):
        return node.index
    if isinstance(node, (Seq, Alt)):
        return max((_max_index(p) for p in node.parts), default=0)
    if isinstance(node, (Star, Plus)):
        return _max_index(node.body)
    if isinstance(node, Shuffle):
        return max(_max_index(node.left), _max_index(node.right))
    raise TypeError(f"not a pattern node: {node!r}")


def make_expr(node) -> InstructionExpr:
    return InstructionExpr(node, max(1, _max_index(node)))


# ---------------------------------------------------------------------------
# Parsing


_TOKEN = re.compile(r"\s+|(?P<sym>[CD])(?P<index>\d*)|(?P<op>[()|*+#])|(?P<bad>.)",
                    re.DOTALL)


def _tokens(text: str) -> list[tuple[str, object, int]]:
    out = []
    for m in _TOKEN.finditer(text):
        if m["op"]:
            out.append((m["op"], None, m.start()))
        elif m["sym"]:
            if not m["index"]:
                raise PatternSyntaxError(f"{m['sym']} needs a counter index", m.start())
            index = int(m["index"])
            if index < 1:
                raise PatternSyntaxError("counter indices start at 1", m.start())
            out.append(("sym", Sym(m["sym"], index), m.start()))
        elif m["bad"]:
            raise PatternSyntaxError(f"unexpected character {m['bad']!r}", m.start())
    return out


def parse_pattern(text: str) -> InstructionExpr:
    """Parse a pattern like ``C1* (C2 D1)* | (C1 # D2)`` into a tree.

    Symbols are C<n>/D<n> with n >= 1; ``*`` and ``+`` repeat the preceding
    atom, ``|`` alternates, and ``(a # b)`` interleaves two sub-patterns.
    """
    return make_expr(parse_regex(_tokens(text), len(text)))


def render(expr: InstructionExpr | object) -> str:
    node = expr.root if isinstance(expr, InstructionExpr) else expr

    def wrap(child) -> str:
        text = go(child)
        if isinstance(child, Sym):
            return text
        return f"({text})"

    def go(n) -> str:
        if isinstance(n, Sym):
            return n.text
        if isinstance(n, Seq):
            return " ".join(
                go(p) if isinstance(p, (Sym, Star, Plus)) else wrap(p)
                for p in n.parts
            )
        if isinstance(n, Alt):
            return " | ".join(go(p) for p in n.parts)
        if isinstance(n, Star):
            return wrap(n.body) + "*"
        if isinstance(n, Plus):
            return wrap(n.body) + "+"
        if isinstance(n, Shuffle):
            return f"({go(n.left)} # {go(n.right)})"
        raise TypeError(f"not a pattern node: {n!r}")

    return go(node)


def all_pattern(k: int) -> InstructionExpr:
    """The unrestricted pattern over k counters: any change, any order."""
    syms = tuple(Sym(kind, i) for i in range(1, k + 1) for kind in "CD")
    return InstructionExpr(Star(Alt(syms)), k)


# ---------------------------------------------------------------------------
# Automaton form


def expr_to_nfa(expr: InstructionExpr | object, k: int | None = None) -> Nfa:
    """Automaton over the full instruction alphabet accepting the pattern."""
    if not isinstance(expr, InstructionExpr):
        expr = make_expr(expr)
    node, arity = expr.root, max(expr.k, k or 1)
    alpha = frozenset(instruction_alphabet(arity))

    built = regex_to_nfa(node, lambda sym: nfa_symbol(sym.text, alpha))
    return Nfa(alpha, built.states, built.initials, built.finals, built.transitions)


# ---------------------------------------------------------------------------
# Family classification

FAMILY_TAGS = (
    "LBiLBd",
    "StLB",
    "LB",
    "BDiLBd",
    "LBiBDd",
    "BD",
    "LBd",
    "LBi",
    "LBunion",
    "ALL",
    "SBD",
)

GENERATOR_TAGS = ("LB", "LBiLBd", "BDiLBd", "LBiBDd", "LBd", "LBi")


def sort_tags(tags) -> list[str]:
    order = {t: n for n, t in enumerate(FAMILY_TAGS)}
    return sorted(tags, key=lambda t: order[t])


@dataclass(frozen=True)
class _Item:
    """One section of a flattened pattern: a word, repeated or literal."""

    letters: tuple[Sym, ...]
    starred: bool


def _unwrap_repeats(node):
    while isinstance(node, (Star, Plus)):
        node = node.body
    return node


def _flatten_disjunct(node) -> list[_Item] | None:
    """Sections of a union-free pattern, or None when it has no such form."""
    if isinstance(node, Sym):
        return [_Item((node,), False)]
    if isinstance(node, Seq):
        out: list[_Item] = []
        for part in node.parts:
            sub = _flatten_disjunct(part)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(node, (Star, Plus)):
        body = _unwrap_repeats(node)
        if isinstance(body, Sym):
            return [_Item((body,), True)]
        if isinstance(body, Seq) and all(isinstance(p, Sym) for p in body.parts):
            return [_Item(tuple(body.parts), True)]
        return None
    return None


def _proj_letter_seq(node, kind: str) -> list[Sym] | None:
    """A letter sequence s1..sn with the kind-projection of the pattern
    inside s1* ... sn*, or None when no such sequence is evident."""
    if isinstance(node, Sym):
        return [node] if node.kind == kind else []
    if isinstance(node, (Seq, Alt)):
        out: list[Sym] = []
        for part in node.parts:
            sub = _proj_letter_seq(part, kind)
            if sub is None:
                return None
            out.extend(sub)
        return out
    if isinstance(node, (Star, Plus)):
        sub = _proj_letter_seq(node.body, kind)
        if sub is None:
            return None
        distinct = set(sub)
        if not distinct:
            return []
        if len(distinct) == 1:
            return [sub[0]]
        return None
    if isinstance(node, Shuffle):
        left = _proj_letter_seq(node.left, kind)
        right = _proj_letter_seq(node.right, kind)
        if left is None or right is None:
            return None
        if not left:
            return right
        if not right:
            return left
        if len(set(left) | set(right)) == 1:
            return [left[0]]
        return None
    raise TypeError(f"not a pattern node: {node!r}")


def _stratified(letters: list[Sym]) -> bool:
    """No C_r ... C_s ... D_r ... D_s subsequence with r != s."""
    m = len(letters)
    for l in range(m):
        if letters[l].kind != "C":
            continue
        r = letters[l].index
        for l2 in range(l + 1, m):
            if letters[l2].kind != "C" or letters[l2].index == r:
                continue
            s = letters[l2].index
            for j in range(l2 + 1, m):
                if letters[j] != Sym("D", r):
                    continue
                for j2 in range(j + 1, m):
                    if letters[j2] == Sym("D", s):
                        return False
    return True


def _word_kinds(item: _Item) -> set[str]:
    return {sym.kind for sym in item.letters}


def _split_prefix_suffix(items: list[_Item], prefix_ok, suffix_ok) -> bool:
    """True when some split point makes every earlier item satisfy
    prefix_ok and every later item satisfy suffix_ok."""
    n = len(items)
    for cut in range(n + 1):
        if all(prefix_ok(it) for it in items[:cut]) and all(
            suffix_ok(it) for it in items[cut:]
        ):
            return True
    return False


def _disjunct_tags(node) -> set[str]:
    tags = {"ALL"}
    dec_seq = _proj_letter_seq(node, "D")
    inc_seq = _proj_letter_seq(node, "C")
    if dec_seq is not None:
        tags.add("LBd")
    if inc_seq is not None:
        tags.add("LBi")
    if dec_seq is not None and inc_seq is not None:
        tags.add("LBunion")

    items = _flatten_disjunct(node)
    if items is None:
        return tags

    letters_only = all(len(it.letters) == 1 for it in items)
    if letters_only:
        tags.add("LB")
        seq = [it.letters[0] for it in items]
        if _stratified(seq):
            tags.add("StLB")
        if _split_prefix_suffix(
            items,
            lambda it: _word_kinds(it) <= {"C"},
            lambda it: _word_kinds(it) <= {"D"},
        ):
            tags.add("LBiLBd")

    tags.add("BD")
    if _split_prefix_suffix(
        items,
        lambda it: _word_kinds(it) <= {"C"},
        lambda it: len(it.letters) == 1 and _word_kinds(it) <= {"D"},
    ):
        tags.add("BDiLBd")
    if _split_prefix_suffix(
        items,
        lambda it: len(it.letters) == 1 and _word_kinds(it) <= {"C"},
        lambda it: _word_kinds(it) <= {"D"},
    ):
        tags.add("LBiBDd")

    def sbd_word(it: _Item) -> bool:
        if len(it.letters) == 1:
            return True
        if len(it.letters) != 2:
            return False
        first, second = it.letters
        return first.kind == "D" and second.kind == "C" and first.index != second.index

    if all(sbd_word(it) for it in items):
        tags.add("SBD")
    return tags


def _disjuncts(node) -> list:
    if isinstance(node, Alt):
        out = []
        for part in node.parts:
            out.extend(_disjuncts(part))
        return out
    return [node]


def classify_families(expr: InstructionExpr | object) -> frozenset[str]:
    """Family tags whose shape the pattern instantiates.

    A union at the top level is classified one branch at a time; the result
    keeps the tags common to every branch.  Anything fits ALL; the bounded
    tags need the branch to flatten into repeated words (or, for the
    decrease/increase-side tags, to project onto a fixed letter sequence).
    """
    node = expr.root if isinstance(expr, InstructionExpr) else expr
    parts = _disjuncts(node)
    tags = _disjunct_tags(parts[0])
    for part in parts[1:]:
        tags &= _disjunct_tags(part)
    return frozenset(tags)


def is_distinct(expr: InstructionExpr | object) -> bool:
    """True when every instruction letter C1..Ck, D1..Dk occurs exactly
    once among the pattern's sections, in every union branch."""
    if isinstance(expr, InstructionExpr):
        node, k = expr.root, expr.k
    else:
        node, k = expr, max(1, _max_index(expr))
    needed = set(instruction_alphabet(k))
    for part in _disjuncts(node):
        items = _flatten_disjunct(part)
        if items is None:
            return False
        seen = [sym.text for it in items for sym in it.letters]
        if sorted(seen) != sorted(needed):
            return False
    return True


# ---------------------------------------------------------------------------
# Machine construction helpers


class MachineBuilder:
    """Accumulates transitions; guard positions left open are '*'.

    With a budget, every add charges one unit, so a construction that
    would build too large a machine stops with a ResourceBudgetError."""

    def __init__(self, k: int, budget: Budget | None = None) -> None:
        self.k = k
        self.budget = budget
        self.transitions: list[Transition] = []
        self.states: set[str] = set()
        self._seen: set[tuple] = set()

    def add(
        self,
        src: str,
        inp: str | None,
        dst: str,
        delta: tuple[int, ...] | None = None,
        fixed: dict[int, str] | None = None,
    ) -> None:
        if self.budget is not None:
            self.budget.charge(1, "machine construction")
        delta = delta or (0,) * self.k
        guard = tuple((fixed or {}).get(i, ANY) for i in range(1, self.k + 1))
        self.states.add(src)
        self.states.add(dst)
        key = (src, inp, guard, dst, delta)
        if key not in self._seen:
            self._seen.add(key)
            self.transitions.append(Transition(
                f"t{len(self.transitions)}", src, inp, guard, dst, delta))

    def machine(
        self, alphabet, initial: str, finals, extra_states=()
    ) -> CounterMachine:
        states = self.states | {initial} | set(finals) | set(extra_states)
        return CounterMachine(
            k=self.k,
            alphabet=frozenset(alphabet),
            states=frozenset(states),
            initial=initial,
            finals=frozenset(finals),
            transitions=tuple(self.transitions),
        )


def _unit(k: int, i: int, change: int) -> tuple[int, ...]:
    """The delta vector changing counter i by change."""
    return tuple(change if j == i else 0 for j in range(1, k + 1))


def _fixed(guard) -> dict[int, str]:
    """A guard tuple as a MachineBuilder fixed-entry map."""
    return {i: g for i, g in enumerate(guard, start=1)}


def _all_zero(k: int) -> dict[int, str]:
    """The fixed-entry map pinning all k counters at zero."""
    return {i: ZERO for i in range(1, k + 1)}


# ---------------------------------------------------------------------------
# Balanced acceptor of a pattern


def eq_acceptor(expr: InstructionExpr | object, k: int | None = None) -> CounterMachine:
    """Machine over the instruction alphabet accepting the pattern's
    balanced words: equal Ci/Di counts per counter, with every Ci before
    any Di.

    The finite control runs the pattern's determinized automaton next to
    one started-decreasing bit per counter; counter i goes up on Ci and
    down on Di, and a zero-guarded silent move into the accepting state
    enforces the equal counts.
    """
    if not isinstance(expr, InstructionExpr):
        expr = make_expr(expr)
    arity = max(expr.k, k or 1)
    dfa = determinize(expr_to_nfa(expr, arity))
    live = coreachable(dfa.finals, ((src, dst) for (src, _), dst in dfa.delta.items()))

    def name(d: int, bits: int) -> str:
        return f"q{d}b{bits}"

    builder = MachineBuilder(arity)
    start = (dfa.initial, 0)
    seen = {start}
    todo = [start]
    accepting_sources = []
    while todo:
        d, bits = todo.pop()
        if d in dfa.finals:
            accepting_sources.append((d, bits))
        for i in range(1, arity + 1):
            if not bits & (1 << (i - 1)):
                d2 = dfa.step(d, c_sym(i))
                if d2 in live:
                    builder.add(
                        name(d, bits), c_sym(i), name(d2, bits), _unit(arity, i, 1)
                    )
                    if (d2, bits) not in seen:
                        seen.add((d2, bits))
                        todo.append((d2, bits))
            d2 = dfa.step(d, d_sym(i))
            if d2 in live:
                bits2 = bits | (1 << (i - 1))
                builder.add(
                    name(d, bits),
                    d_sym(i),
                    name(d2, bits2),
                    _unit(arity, i, -1),
                    fixed={i: POS},
                )
                if (d2, bits2) not in seen:
                    seen.add((d2, bits2))
                    todo.append((d2, bits2))
    for d, bits in accepting_sources:
        builder.add(name(d, bits), None, "acc", fixed=_all_zero(arity))
    return builder.machine(
        instruction_alphabet(arity), name(*start), ["acc"], extra_states=[name(*start)]
    )


# ---------------------------------------------------------------------------
# Generator machines


def _legal_used_sets(k: int):
    """Letter sets closed under 'an increase section comes first'."""
    per_counter = [
        (frozenset(), frozenset([c_sym(i)]), frozenset([c_sym(i), d_sym(i)]))
        for i in range(1, k + 1)
    ]
    for combo in itertools.product(*per_counter):
        yield frozenset().union(*combo)


def _generator_lb(k: int, budget: Budget | None) -> CounterMachine:
    """All section orders over the 2k letters, each counter's increase
    section before its decrease section, matched counts."""
    builder = MachineBuilder(k, budget)
    start = "pick"

    def name(used: frozenset, cur: str) -> str:
        return "s[" + ",".join(sorted(used)) + "]@" + cur

    def choices(used: frozenset):
        for i in range(1, k + 1):
            if c_sym(i) not in used:
                yield c_sym(i)
            elif d_sym(i) not in used:
                yield d_sym(i)

    accept_from = [start]
    for used in _legal_used_sets(k):
        sources = [start] if not used else [name(used, cur) for cur in sorted(used)]
        for cur in sorted(used):
            i = int(cur[1:])
            state = name(used, cur)
            accept_from.append(state)
            if cur.startswith("C"):
                builder.add(state, cur, state, _unit(k, i, 1))
            else:
                builder.add(state, cur, state, _unit(k, i, -1), fixed={i: POS})
        for letter in choices(used):
            dst = name(used | {letter}, letter)
            for src in sources:
                builder.add(src, None, dst)
    for state in accept_from:
        builder.add(state, None, "acc", fixed=_all_zero(k))
    return builder.machine(instruction_alphabet(k), start, ["acc"])


def _generator_lbilbd(k: int, budget: Budget | None) -> CounterMachine:
    """Increase sections in any order, then decrease sections in any
    order, matched counts per counter."""
    builder = MachineBuilder(k, budget)

    def name(kind: str, used: frozenset, cur: int) -> str:
        return kind + "[" + ",".join(map(str, sorted(used))) + "]@" + str(cur)

    start = "pick"
    accept_from = [start]
    inc_sets = [frozenset(s) for r in range(1, k + 1)
                for s in itertools.combinations(range(1, k + 1), r)]
    c_states = []
    for used in inc_sets:
        for cur in used:
            state = name("c", used, cur)
            c_states.append((used, cur, state))
            accept_from.append(state)
            builder.add(state, c_sym(cur), state, _unit(k, cur, 1))
    d_states = []
    for used in inc_sets:
        for cur in used:
            state = name("d", used, cur)
            d_states.append((used, cur, state))
            accept_from.append(state)
            builder.add(state, d_sym(cur), state, _unit(k, cur, -1), fixed={cur: POS})
    # Silent moves: pick the next increase section, or switch to decreases.
    for used, cur, state in c_states:
        if len(used) == 1:
            builder.add(start, None, state)
        else:
            for prev in used - {cur}:
                builder.add(name("c", used - {cur}, prev), None, state)
    for used, cur, state in d_states:
        prev_used = used - {cur}
        if not prev_used:
            builder.add(start, None, state)
            for cused, ccur, cstate in c_states:
                builder.add(cstate, None, state)
        else:
            for prev in prev_used:
                builder.add(name("d", prev_used, prev), None, state)
    for state in accept_from:
        builder.add(state, None, "acc", fixed=_all_zero(k))
    return builder.machine(instruction_alphabet(k), start, ["acc"])


def _nonempty_word_sequences(letters: tuple[int, ...]):
    """Every way to write the given counter indices as an ordered sequence
    of disjoint nonempty words covering all of them, in every letter order."""
    pool = list(letters)

    def rec(remaining: tuple[int, ...]):
        if not remaining:
            yield ()
            return
        rest_set = set(remaining)
        for size in range(1, len(remaining) + 1):
            for combo in itertools.combinations(sorted(rest_set), size):
                for word in itertools.permutations(combo):
                    tail = tuple(sorted(rest_set - set(combo)))
                    for rest in rec(tail):
                        yield (word,) + rest

    yield from rec(tuple(sorted(pool)))


def _loop_name(done: tuple, word: tuple, pos: int, looped: bool) -> str:
    """The state before letter pos of word, once the words in done have
    been read; looped once word has been read in full at least once."""
    mark = "+" if looped else "-"
    return "w" + "|".join("".join(map(str, w)) for w in done) \
        + ":" + "".join(map(str, word)) + "@" + str(pos) + mark


def _add_word_loops(builder: MachineBuilder, seq: tuple, entry: str, read,
                    exit_to: str, exit_fixed: dict[int, str] | None = None) -> None:
    """Read the words of seq in turn, each one or more times.

    A silent move leads from entry into the first word, and from the end
    of each word into the next; read(done, word, pos) gives the letter,
    delta and fixed guard entries of the move reading letter pos of word,
    done being the words before it.  Once the last word has been read in
    full, a silent move under exit_fixed leads to exit_to."""
    for w_index, word in enumerate(seq):
        done = seq[:w_index]
        origin = entry if w_index == 0 else _loop_name(done[:-1], done[-1], 0, True)
        for looped in (False, True):
            for pos in range(len(word)):
                nxt_pos = (pos + 1) % len(word)
                letter, delta, fixed = read(done, word, pos)
                builder.add(_loop_name(done, word, pos, looped), letter,
                            _loop_name(done, word, nxt_pos, looped or nxt_pos == 0),
                            delta, fixed=fixed)
        builder.add(origin, None, _loop_name(done, word, 0, False))
    builder.add(_loop_name(seq[:-1], seq[-1], 0, True), None, exit_to, fixed=exit_fixed)


def _generator_bdilbd(k: int, budget: Budget | None) -> CounterMachine:
    """Repeated increase words covering each counter once, then the
    decrease letters in counter order, counts matched per counter."""
    builder = MachineBuilder(k, budget)

    def bname(i: int) -> str:
        return f"dec{i}"

    def read(done, word, pos):
        return c_sym(word[pos]), _unit(k, word[pos], 1), None

    for seq in _nonempty_word_sequences(tuple(range(1, k + 1))):
        _add_word_loops(builder, seq, "pick", read, bname(1))
    for i in range(1, k + 1):
        builder.add(bname(i), d_sym(i), bname(i), _unit(k, i, -1), fixed={i: POS})
        if i < k:
            builder.add(bname(i), None, bname(i + 1))
        builder.add(bname(i), None, "acc", fixed=_all_zero(k))
    return builder.machine(instruction_alphabet(k), "pick", ["acc"])


def _generator_lbibdd(k: int, budget: Budget | None) -> CounterMachine:
    """Increase letters in counter order, then repeated decrease words
    covering each counter once, counts matched per counter."""
    builder = MachineBuilder(k, budget)

    def aname(i: int) -> str:
        return f"inc{i}"

    def read(done, word, pos):
        return d_sym(word[pos]), _unit(k, word[pos], -1), {word[pos]: POS}

    for i in range(1, k + 1):
        builder.add(aname(i), c_sym(i), aname(i), _unit(k, i, 1))
        if i < k:
            builder.add(aname(i), None, aname(i + 1))
    for seq in _nonempty_word_sequences(tuple(range(1, k + 1))):
        _add_word_loops(builder, seq, aname(k), read, "acc", _all_zero(k))
    return builder.machine(instruction_alphabet(k), aname(1), ["acc"])


def _generator_lbd(k: int, budget: Budget | None) -> CounterMachine:
    """Segment i mixes increases of later counters with decreases of
    counter i; each decrease segment is nonempty and drains exactly what
    the earlier segments put in."""
    builder = MachineBuilder(k, budget)

    def name(seg: int, fired: bool) -> str:
        return f"g{seg}{'y' if fired else 'n'}"

    for seg in range(0, k + 1):
        for j in range(seg + 1, k + 1):
            for fired in ({True} if seg == 0 else {False, True}):
                builder.add(name(seg, fired), c_sym(j), name(seg, fired),
                            _unit(k, j, 1))
        if seg >= 1:
            for fired in (False, True):
                builder.add(name(seg, fired), d_sym(seg), name(seg, True),
                            _unit(k, seg, -1), fixed={seg: POS})
        if seg < k:
            builder.add(name(seg, True), None, name(seg + 1, seg + 1 == 0))
    builder.add(name(k, True), None, "acc", fixed=_all_zero(k))
    return builder.machine(instruction_alphabet(k), name(0, True), ["acc"])


def _generator_lbi(k: int, budget: Budget | None) -> CounterMachine:
    """Segment i mixes the increase of counter i+1 with decreases of
    earlier counters; each increase segment is nonempty."""
    builder = MachineBuilder(k, budget)

    def name(seg: int, fired: bool) -> str:
        return f"g{seg}{'y' if fired else 'n'}"

    for seg in range(0, k + 1):
        if seg < k:
            for fired in (False, True):
                builder.add(name(seg, fired), c_sym(seg + 1), name(seg, True),
                            _unit(k, seg + 1, 1))
        for j in range(1, seg + 1):
            for fired in ({True} if seg == k else {False, True}):
                builder.add(name(seg, fired), d_sym(j), name(seg, fired),
                            _unit(k, j, -1), fixed={j: POS})
        if seg < k:
            builder.add(name(seg, True), None, name(seg + 1, seg + 1 == k))
    builder.add(name(k, True), None, "acc", fixed=_all_zero(k))
    return builder.machine(instruction_alphabet(k), name(0, k == 0), ["acc"])


_GENERATORS = {
    "LB": _generator_lb,
    "LBiLBd": _generator_lbilbd,
    "BDiLBd": _generator_bdilbd,
    "LBiBDd": _generator_lbibdd,
    "LBd": _generator_lbd,
    "LBi": _generator_lbi,
}


def generator(tag: str, k: int, budget: Budget | None = None) -> CounterMachine:
    """The canonical machine over the instruction alphabet whose language
    generates the family named by tag, at arity k.  With a budget, each
    transition added charges one unit."""
    if tag not in _GENERATORS:
        raise ValueError(f"no generator for family {tag!r}")
    if k < 1:
        raise ValueError("arity must be at least 1")
    return _GENERATORS[tag](k, budget)
