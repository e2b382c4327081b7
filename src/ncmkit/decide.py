"""Exact decision procedures for well-formed counter machines.

Every question bottoms out in balanced-walk feasibility over the phase
automaton: emptiness and infiniteness directly, membership through a
product with the word's position automaton, letter- and m-boundedness
through a product with an automaton remembering the last letter read,
and behavior questions (pattern satisfaction, restriction, family
inference, pattern-boundedness) through self-describing machines
intersected with regular sets.  Every one of these products is
build.intersect_regular.  Each procedure returns a Verdict whose
witness re-validates independently and whose certificate says what the
answer rests on.

All procedures are pure: identical inputs yield identical verdicts and
witnesses.  Long-running searches share one Budget, which jointly caps
solver search nodes, DFA states and the steps of decide's own searches,
and can be cancelled cooperatively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
from typing import Callable

from .build import intersect_regular, inverse_homomorphism, self_describing
from .flows import Infeasible, pump_walk, solve, solve_unbounded
from .machine import (
    CounterMachine,
    MachineError,
    Run,
    c_sym,
    d_sym,
    instruction_alphabet,
    replay,
)
from .nfa import (
    Dfa,
    Nfa,
    ResourceBudgetError,
    bounded_pattern_nfa,
    determinize,
)
from .oracle import caps_for, enumerate_language
from .patterns import (
    InstructionExpr,
    Seq,
    Star,
    Sym,
    _stratified,
    expr_to_nfa,
    parse_pattern,
    render,
)
from .phase import (
    CHANGE_CLASS,
    INPUT_CLASS,
    PhaseAutomaton,
    phase_automaton,
    to_flow_system,
    witness_run,
)

__all__ = [
    "Budget",
    "Verdict",
    "BehaviorCounterexample",
    "PumpEvidence",
    "PhaseAutomaton",
    "phase_automaton",
    "self_describing",
    "format_witness",
    "is_empty",
    "is_infinite",
    "membership",
    "contained_in_regular",
    "satisfies",
    "restrict_to_instructions",
    "is_letter_bounded",
    "is_m_bounded",
    "bd_with_bound",
    "infer_family",
    "FAMILY_TAGS_DECIDABLE",
]

DEFAULT_BUDGET = 2_000_000

FAMILY_TAGS_DECIDABLE = ("LBd", "LBi", "LB", "LBiLBd", "StLB")


@dataclass
class Budget:
    """Joint cap on the work one query may do.

    Every solver call charges the search nodes it expanded and every
    determinization charges the DFA states it produced, so one Budget
    threaded through a query caps both kinds of work together.  cancel
    is an optional callable polled between expensive steps; when it
    returns True the query stops with a ResourceBudgetError.
    """

    limit: int = DEFAULT_BUDGET
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

    def node_cap(self) -> int:
        return max(1, self.limit - self.used)


@dataclass(frozen=True)
class PumpEvidence:
    """A base accepted word plus a strictly longer pump of it."""

    word: str
    pumped: str


@dataclass(frozen=True)
class BehaviorCounterexample:
    """An instruction word outside the pattern, with a run realizing it."""

    behavior: str
    run: Run


def format_witness(obj) -> str:
    """Render a witness for the one-line report.

    Words are plain strings (the empty word prints as <eps>); letter
    and word sequences are tuples and print comma-separated.
    """
    if obj is None:
        return "-"
    if isinstance(obj, str):
        return obj if obj else "<eps>"
    if isinstance(obj, Run):
        return format_witness("".join(obj.word))
    if isinstance(obj, PumpEvidence):
        return f"{format_witness(obj.word)},{format_witness(obj.pumped)}"
    if isinstance(obj, BehaviorCounterexample):
        return format_witness(obj.behavior)
    if isinstance(obj, tuple):
        if not obj:
            return "<eps>"
        return ",".join(
            "".join(x) if isinstance(x, tuple) else format_witness(x)
            for x in obj)
    return str(obj)


@dataclass(frozen=True)
class Verdict:
    """Outcome of a decision procedure.

    answer carries the yes/no result; witness, when present, is the
    evidence (a word, run, pump pair, letter or word sequence, or
    pattern text, depending on the question); certificate is a short
    note saying what the answer rests on.
    """

    answer: bool
    witness: object = None
    certificate: str = ""
    budget_used: int = 0

    def report(self) -> str:
        yn = "yes" if self.answer else "no"
        cert = self.certificate if self.certificate else "-"
        return f"answer={yn} witness={format_witness(self.witness)} certificate={cert}"

    def structured(self) -> dict:
        witness = None if self.witness is None else format_witness(self.witness)
        return {
            "answer": self.answer,
            "witness": witness,
            "certificate": self.certificate,
            "budget_used": self.budget_used,
        }


def _budget(budget: Budget | None) -> Budget:
    return budget if budget is not None else Budget()


def _walk_search(machine: CounterMachine, budget: Budget):
    """Phase automaton plus the balanced-walk solver result for it."""
    budget.check()
    pa = phase_automaton(machine)
    fs = to_flow_system(pa)
    stats: dict = {}
    result = solve(fs, node_budget=budget.node_cap(), stats=stats,
                   poll=budget.check)
    budget.charge(stats.get("nodes", 0), "balanced-walk search")
    return pa, result


# ---------------------------------------------------------------------------
# Core questions: emptiness, infiniteness, membership, containment.


def is_empty(machine: CounterMachine, budget: Budget | None = None) -> Verdict:
    """Is the accepted language empty?  No on a witness word."""
    budget = _budget(budget)
    pa, result = _walk_search(machine, budget)
    if isinstance(result, Infeasible):
        return Verdict(True, None, "no balanced walk: " + result.reason, budget.used)
    run = witness_run(pa, result)
    return Verdict(False, "".join(run.word),
                   "accepting run reconstructed from a balanced walk",
                   budget.used)


def _pump_search(machine: CounterMachine, growth_class: str, budget: Budget,
                 change: frozenset = frozenset()):
    """Phase automaton plus, when the class can grow without bound, the
    runs of a pump's base walk and of one round of its circulation."""
    budget.check()
    pa = phase_automaton(machine)
    fs = to_flow_system(pa, change)
    stats: dict = {}
    pump = solve_unbounded(fs, growth_class, node_budget=budget.node_cap(),
                           stats=stats, poll=budget.check)
    budget.charge(stats.get("nodes", 0), "pump search")
    if pump is None:
        return pa, None
    return pa, (witness_run(pa, pump.base), witness_run(pa, pump_walk(fs, pump, 1)))


def is_infinite(machine: CounterMachine, budget: Budget | None = None) -> Verdict:
    """Is the accepted language infinite?  Yes on a pumpable witness."""
    budget = _budget(budget)
    _, pump = _pump_search(machine, INPUT_CLASS, budget)
    if pump is None:
        return Verdict(False, None, "no repeatable input-growing circulation",
                       budget.used)
    base, pumped = pump
    growth = len(pumped.word) - len(base.word)
    return Verdict(True, PumpEvidence("".join(base.word), "".join(pumped.word)),
                   f"each pump round adds {growth} input letters", budget.used)


def _word_nfa(word: tuple, alphabet, open_end: bool = False) -> Nfa:
    """The word alone, or with open_end every word it begins."""
    n = len(word)
    loop = {(n, a, n) for a in alphabet} if open_end else set()
    return Nfa(
        frozenset(alphabet),
        frozenset(range(n + 1)),
        frozenset({0}),
        frozenset({n}),
        frozenset((i, word[i], i + 1) for i in range(n)) | loop,
    )


def membership(machine: CounterMachine, word, budget: Budget | None = None) -> Verdict:
    """Does the machine accept the word?  Exact even with silent cycles."""
    budget = _budget(budget)
    word = tuple(word)
    for a in word:
        if a not in machine.alphabet:
            return Verdict(False, None,
                           f"symbol {a!r} is not in the machine's alphabet",
                           budget.used)
    product = intersect_regular(machine, _word_nfa(word, machine.alphabet))
    inner = is_empty(product, budget)
    if inner.answer:
        return Verdict(False, None, "no accepting run reads the word", budget.used)
    return Verdict(True, "".join(word), "accepting run found", budget.used)


def contained_in_regular(machine: CounterMachine, automaton,
                         budget: Budget | None = None) -> Verdict:
    """Is the accepted language a subset of the automaton's language?

    Decided by complement, intersection, and emptiness; on failure the
    witness is an accepted word the automaton rejects.
    """
    budget = _budget(budget)
    nfa = automaton.to_nfa() if isinstance(automaton, Dfa) else automaton
    alpha = frozenset(machine.alphabet) | nfa.alphabet
    nfa = Nfa(alpha, nfa.states, nfa.initials, nfa.finals, nfa.transitions)
    dfa = determinize(nfa, max_states=budget.node_cap())
    budget.charge(dfa.n_states, "determinization")
    product = intersect_regular(machine, dfa.complement())
    inner = is_empty(product, budget)
    if inner.answer:
        return Verdict(True, None, "no accepted word escapes the automaton",
                       budget.used)
    return Verdict(False, inner.witness, "accepted word the automaton rejects",
                   budget.used)


# ---------------------------------------------------------------------------
# Behavior questions.


def _as_expr(expr, machine: CounterMachine) -> InstructionExpr:
    """The parsed pattern, refused when it names a counter the machine
    lacks."""
    expr = parse_pattern(expr) if isinstance(expr, str) else expr
    if expr.k > machine.k:
        raise MachineError(
            f"pattern names counter {expr.k} but the machine has {machine.k}")
    return expr


def _product_labels(run: Run) -> list[str]:
    """Source-machine labels of a run of an intersect_regular product."""
    out = []
    for label in run.labels:
        source = label.rsplit("&", 1)[0]
        if source:
            out.append(source)
    return out


def satisfies(machine: CounterMachine, expr, budget: Budget | None = None) -> Verdict:
    """Does every accepting behavior of the machine match the pattern?

    On failure the witness pairs the offending instruction word with a
    validated run of the machine realizing it.
    """
    budget = _budget(budget)
    expr = _as_expr(expr, machine)
    sd = self_describing(machine, "full")
    dfa = determinize(expr_to_nfa(expr, machine.k), max_states=budget.node_cap())
    budget.charge(dfa.n_states, "pattern determinization")
    product = intersect_regular(sd, dfa.complement())
    pa, result = _walk_search(product, budget)
    if isinstance(result, Infeasible):
        return Verdict(True, None, "every accepting behavior matches the pattern",
                       budget.used)
    product_run = witness_run(pa, result)
    run = replay(machine, _product_labels(product_run))
    return Verdict(False, BehaviorCounterexample("".join(product_run.word), run),
                   "a run realizes a behavior outside the pattern", budget.used)


def restrict_to_instructions(machine: CounterMachine, expr,
                             budget: Budget | None = None) -> CounterMachine:
    """Product machine that follows only behaviors inside the pattern.

    The product of the self-describing machine with the pattern's DFA,
    each transition reading again what its source transition reads.  The
    result accepts a subset of the machine's language and satisfies the
    pattern by construction; when the machine weakly satisfies it, the
    language is unchanged.
    """
    budget = _budget(budget)
    if isinstance(expr, Dfa):
        nfa = expr.to_nfa()
    elif isinstance(expr, Nfa):
        nfa = expr
    else:
        nfa = expr_to_nfa(_as_expr(expr, machine), machine.k)
    dfa = determinize(nfa, max_states=budget.node_cap())
    budget.charge(dfa.n_states, "pattern determinization")
    product = intersect_regular(self_describing(machine, "full"), dfa)
    reads = {t.label: t.inp for t in machine.transitions}
    transitions = tuple(replace(t, inp=reads.get(t.label.rsplit("&", 1)[0]))
                        for t in product.transitions)
    return replace(product, alphabet=machine.alphabet, transitions=transitions)


# ---------------------------------------------------------------------------
# Letter-boundedness and its relatives.
#
# A word's blocks are its maximal runs of one letter, and its block
# sequence is the word with each block cut to one letter.  Ginsburg and
# Spanier (bounded languages, 1964): L lies in a1* ... an* exactly when
# the block sequence of every word of L is a subsequence of a1 ... an.
# So the question splits in two: are the block sequences of L finitely
# many, and if so, what is their shortest common supersequence?


def _last_letter_product(machine: CounterMachine):
    """The machine paired with a memory of the last letter it read.

    intersect_regular with an automaton whose state is the last letter
    read, or None before the first one.  The product keeps the machine's
    k counters and accepts the same words.  Returns it with the labels of
    the transitions that open a block: those whose automaton move changes
    state, because they read a letter other than the last one."""
    letters = sorted(machine.alphabet)
    states = frozenset([None, *letters])
    memory = Nfa(frozenset(letters), states, frozenset([None]), states,
                 frozenset((s, a, a) for s in states for a in letters))
    product = intersect_regular(machine, memory)
    opens = set()
    for t in product.transitions:
        before, after = t.label.rsplit("&", 1)[1].split(">")
        if t.inp is not None and before != after:
            opens.add(t.label)
    return product, frozenset(opens)


def _block_machine(pa: PhaseAutomaton, opens: frozenset) -> CounterMachine:
    """Machine accepting the block sequences of the product's language.

    Keeps the transitions that lift to a phase edge; a block-opening one
    reads its letter and every other one is silent."""
    product = pa.machine
    live = {e.transition for e in pa.edges}
    transitions = tuple(
        t if t.label in opens else replace(t, inp=None)
        for t in product.transitions if t.label in live)
    return replace(product, transitions=transitions)


def _block_sequences(blocks: CounterMachine, budget: Budget) -> list[tuple]:
    """Every word of the block machine, which must accept finitely many.

    A prefix trie: a prefix p is a word when membership says so, and p·a
    is explored when some word starts with it (the product with p·a·Σ* is
    not empty).  Letters never repeat, since a block sequence has no two
    equal neighbours.  Each of these queries costs one budget unit on top
    of its search nodes."""
    letters = sorted(blocks.alphabet)
    found = []
    todo = [()]
    while todo:
        prefix = todo.pop()
        budget.charge(1, "block-sequence trie")
        if membership(blocks, prefix, budget).answer:
            found.append(prefix)
        for a in letters:
            if prefix and prefix[-1] == a:
                continue
            budget.charge(1, "block-sequence trie")
            longer = prefix + (a,)
            starts = intersect_regular(blocks, _word_nfa(longer, letters, open_end=True))
            if not is_empty(starts, budget).answer:
                todo.append(longer)
    return sorted(found)


def _is_subsequence(short, long) -> bool:
    rest = iter(long)
    return all(a in rest for a in short)


def _shortest_supersequence(words, budget: Budget) -> tuple:
    """Lexicographically least shortest common supersequence of the words.

    Words that are subsequences of another word are dropped first; then a
    breadth-first search runs over vectors of positions, one per word,
    trying letters in sorted order.  A state is kept with the first path
    that reaches it, which is the least path of that length, so the goal
    is reached by the answer.  Each state costs one budget unit."""
    words = sorted(set(words))
    words = [w for w in words
             if not any(v != w and _is_subsequence(w, v) for v in words)]
    letters = sorted({a for w in words for a in w})
    start = (0,) * len(words)
    goal = tuple(len(w) for w in words)
    parent: dict = {start: None}
    order = [start]
    for state in order:
        budget.charge(1, "supersequence search")
        if state == goal:
            break
        for a in letters:
            nxt = tuple(i + (i < len(w) and w[i] == a)
                        for i, w in zip(state, words))
            if nxt not in parent:
                parent[nxt] = (state, a)
                order.append(nxt)
    seq = []
    state = goal
    while parent[state] is not None:
        state, a = parent[state]
        seq.append(a)
    return tuple(reversed(seq))


def _sample_words(machine: CounterMachine, length: int = 6, cap: int = 40):
    """Small sample of accepted words, used only to prune candidates."""
    sample = enumerate_language(
        machine, caps_for(length, max_total_steps=200_000))
    return sorted(sample.as_set(), key=lambda w: (len(w), w))[:cap]


def _stars(words) -> str:
    if not words:
        return "the empty-word language"
    return " ".join("".join(w) + "*" for w in words)


def is_letter_bounded(machine: CounterMachine,
                      budget: Budget | None = None) -> Verdict:
    """Is the language inside a1* ... an* for single letters a_i?

    Decided on the product of the machine with its last letter read.  No
    comes with a pump of that product whose circulation opens a block:
    two accepted words of the machine, the pumped one with more blocks.
    Otherwise the block sequences are finitely many; they are enumerated
    exactly, and yes returns their lexicographically least shortest common
    supersequence, rechecked by contained_in_regular.
    """
    budget = _budget(budget)
    product, opens = _last_letter_product(machine)
    pa, pump = _pump_search(product, CHANGE_CLASS, budget, opens)
    if pump is not None:
        base, pumped = pump
        return Verdict(False, PumpEvidence("".join(base.word), "".join(pumped.word)),
                       "letter alternations grow without bound", budget.used)
    sequences = _block_sequences(_block_machine(pa, opens), budget)
    if not sequences:
        return Verdict(True, (), "no word is accepted", budget.used)
    seq = _shortest_supersequence(sequences, budget)
    words = tuple((a,) for a in seq)
    check = contained_in_regular(machine, bounded_pattern_nfa(list(words)), budget)
    if not check.answer:
        raise AssertionError("letter sequence failed its containment recheck")
    return Verdict(True, seq, f"language contained in {_stars(words)}", budget.used)


def _length_mod_nfa(alphabet, m: int) -> Nfa:
    """Words whose length is not a multiple of m."""
    alpha = frozenset(alphabet)
    transitions = frozenset(
        (i, a, (i + 1) % m) for i in range(m) for a in alpha)
    return Nfa(alpha, frozenset(range(m)), frozenset({0}),
               frozenset(range(1, m)), transitions)


def is_m_bounded(machine: CounterMachine, m: int,
                 budget: Budget | None = None) -> Verdict:
    """Is the language inside w1* ... wk* with every |w_i| = m?

    Rejects fast on an accepted word whose length is not a multiple of m
    (the witness).  Otherwise asks is_letter_bounded about the machine
    that reads m-letter blocks as single letters: a no is its pump pair,
    two accepted words whose m-letter blocks alternate more often in the
    pumped one; a yes is its least shortest block sequence, re-verified
    by contained_in_regular on the machine itself.
    """
    budget = _budget(budget)
    if m < 1:
        raise ValueError("m must be at least 1")
    stray = intersect_regular(machine, _length_mod_nfa(machine.alphabet, m))
    bad = is_empty(stray, budget)
    if not bad.answer:
        return Verdict(False, bad.witness,
                       f"accepted word of length not divisible by {m}",
                       budget.used)
    letters = sorted(machine.alphabet)
    budget.charge(len(letters) ** m, "block alphabet")
    image = {"".join(block): block
             for block in itertools.product(letters, repeat=m)}
    blocks = inverse_homomorphism(machine, image)
    inner = is_letter_bounded(blocks, budget)
    if not inner.answer:
        return Verdict(False, inner.witness,
                       f"{m}-letter block alternations grow without bound",
                       budget.used)
    words = tuple(image[sym] for sym in inner.witness)
    check = contained_in_regular(machine, bounded_pattern_nfa(list(words)), budget)
    if not check.answer:
        raise AssertionError("block sequence failed its containment recheck")
    return Verdict(True, tuple("".join(w) for w in words),
                   f"language contained in {_stars(words)}", budget.used)


# ---------------------------------------------------------------------------
# Bounded behavior with an explicit size budget.


def _pattern_realizable(words, k: int) -> bool:
    """Keep only patterns whose every word can occur in a valid behavior.

    A decrease letter needs its increase strictly earlier (same word or
    an earlier one); an increase letter needs its decrease in the same
    word or a later one.  Dropping a word that fails either test never
    loses behaviors, and the shortened pattern appears earlier in the
    enumeration, so such patterns are skipped.
    """
    for j, w in enumerate(words):
        for pos, sym in enumerate(w):
            index = int(sym[1:])
            if sym.startswith("D"):
                partner = c_sym(index)
                ok = partner in w[:pos] or any(
                    partner in words[j2] for j2 in range(j))
            else:
                partner = d_sym(index)
                ok = partner in w or any(
                    partner in words[j2] for j2 in range(j + 1, len(words)))
            if not ok:
                return False
    return True


def _bounded_patterns(k: int, n: int, budget: Budget):
    """All deduped realizable patterns with total word length <= n.

    Deterministic order: by total length, then by composition into
    word lengths (first part smallest), then lexicographically by the
    sorted instruction alphabet.
    """
    letters = sorted(instruction_alphabet(k))

    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    yield ()
    for total in range(1, n + 1):
        for comp in compositions(total):
            pools = [itertools.product(letters, repeat=size) for size in comp]
            for words in itertools.product(*pools):
                budget.charge(1, "pattern enumeration")
                if any(words[i] == words[i + 1] for i in range(len(words) - 1)):
                    continue
                if not _pattern_realizable(words, k):
                    continue
                yield words


def _render_pattern(words) -> str:
    if not words:
        return "<eps>"
    parts = []
    for w in words:
        syms = [Sym(a[0], int(a[1:])) for a in w]
        parts.append(Star(syms[0] if len(syms) == 1 else Seq(tuple(syms))))
    return render(Seq(tuple(parts)))


def _union_nfa(nfas, alphabet) -> Nfa:
    alpha = frozenset(alphabet)
    states = set()
    initials = set()
    finals = set()
    transitions = set()
    for i, nfa in enumerate(nfas):
        states |= {(i, s) for s in nfa.states}
        initials |= {(i, s) for s in nfa.initials}
        finals |= {(i, s) for s in nfa.finals}
        transitions |= {((i, src), sym, (i, dst))
                        for src, sym, dst in nfa.transitions}
    return Nfa(alpha, frozenset(states), frozenset(initials),
               frozenset(finals), frozenset(transitions))


def bd_with_bound(machine: CounterMachine, n: int,
                  budget: Budget | None = None) -> Verdict:
    """Do the behaviors fit a pattern w1* ... wm* with total length <= n?

    Tries each candidate pattern for outright containment first (the
    witness is then that pattern); otherwise decides containment in the
    union of all candidates.  Our enumeration order is deterministic
    but not canonical: the first satisfying pattern is returned.
    """
    budget = _budget(budget)
    if n < 1:
        raise ValueError("n must be at least 1")
    sd = self_describing(machine, "full")
    patterns = list(_bounded_patterns(machine.k, n, budget))
    sample = _sample_words(sd)
    for words in patterns:
        budget.check()
        nfa = bounded_pattern_nfa(list(words))
        if not all(nfa.accepts(w) for w in sample):
            continue
        check = contained_in_regular(sd, nfa, budget)
        if check.answer:
            return Verdict(True, _render_pattern(words),
                           "behavior containment verified", budget.used)
    union = _union_nfa(
        [bounded_pattern_nfa(list(words)) for words in patterns],
        instruction_alphabet(machine.k))
    outer = contained_in_regular(sd, union, budget)
    if outer.answer:
        return Verdict(True, None,
                       f"behaviors lie in the union of patterns of total "
                       f"length <= {n}, but no single one contains them all",
                       budget.used)
    return Verdict(False, outer.witness,
                   f"behavior escapes every pattern of total length <= {n}",
                   budget.used)


# ---------------------------------------------------------------------------
# Family inference.


_FAMILY_PROJECTION = {
    "LBd": ("decreases-only", "decrease behaviors"),
    "LBi": ("increases-only", "increase behaviors"),
    "LB": ("full", "instruction behaviors"),
}


def _increases_then_decreases_nfa(k: int) -> Nfa:
    alpha = frozenset(instruction_alphabet(k))
    transitions = set()
    for i in range(1, k + 1):
        transitions.add((0, c_sym(i), 0))
        transitions.add((0, d_sym(i), 1))
        transitions.add((1, d_sym(i), 1))
    return Nfa(alpha, frozenset({0, 1}), frozenset({0}), frozenset({0, 1}),
               frozenset(transitions))


def infer_family(machine: CounterMachine, tag: str,
                 budget: Budget | None = None) -> Verdict:
    """Does the machine belong to the named letter-bounded family?

    LBd/LBi/LB test letter-boundedness of the matching self-describing
    projection; LBiLBd additionally requires every behavior to place
    all increases before all decreases; StLB additionally requires the
    discovered letter sequence to be stratified.
    """
    budget = _budget(budget)
    if tag in _FAMILY_PROJECTION:
        mode, what = _FAMILY_PROJECTION[tag]
        inner = is_letter_bounded(self_describing(machine, mode), budget)
        state = "are" if inner.answer else "are not"
        return Verdict(inner.answer, inner.witness,
                       f"{what} {state} letter-bounded", budget.used)
    if tag == "LBiLBd":
        sd = self_describing(machine, "full")
        inner = is_letter_bounded(sd, budget)
        if not inner.answer:
            return Verdict(False, inner.witness,
                           "instruction behaviors are not letter-bounded",
                           budget.used)
        split = contained_in_regular(
            sd, _increases_then_decreases_nfa(machine.k), budget)
        if not split.answer:
            return Verdict(False, split.witness,
                           "a behavior increases after its first decrease",
                           budget.used)
        return Verdict(True, inner.witness,
                       "letter-bounded with all increases before decreases",
                       budget.used)
    if tag == "StLB":
        sd = self_describing(machine, "full")
        inner = is_letter_bounded(sd, budget)
        if not inner.answer:
            return Verdict(False, inner.witness,
                           "instruction behaviors are not letter-bounded",
                           budget.used)
        syms = [Sym(a[0], int(a[1:])) for a in inner.witness]
        if _stratified(syms):
            return Verdict(True, inner.witness,
                           "discovered letter sequence is stratified",
                           budget.used)
        return Verdict(False, inner.witness,
                       "discovered letter sequence is not stratified",
                       budget.used)
    raise ValueError(f"unknown family tag {tag!r}")
