"""Machine constructions.

Closure operations (homomorphic image and preimage, intersection with a
regular set, union, concatenation, reversal), a decomposition of a
machine's language into a regular control language plus two letter maps,
the distinct-letter normal form of a pattern, and compilers that turn
semilinear sets into counter machines.

Every construction emits an ordinary CounterMachine in the shared text
format, so outputs round-trip through dump/load and feed straight back
into the decision procedures.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import reduce

from .machine import (
    CounterMachine,
    MachineError,
    POS,
    Transition,
    ZERO,
    c_sym,
    d_sym,
    decrease_alphabet,
    increase_alphabet,
    instruction_alphabet,
)
from .nfa import Budget, Dfa, Nfa, eliminate_lambda
from .patterns import (
    InstructionExpr,
    MachineBuilder,
    Seq,
    Star,
    Sym,
    _add_word_loops,
    _all_zero,
    _fixed,
    _nonempty_word_sequences,
    _unit,
    all_pattern,
    eq_acceptor,
)
from .phase import phase_automaton
from .semilinear import LinearSet, SemilinearSet, is_m_positive


# ---------------------------------------------------------------------------
# Behavior projections


# mode -> (keep increases, keep decreases, alphabet of the result)
_SD_MODES = {
    "full": (True, True, instruction_alphabet),
    "increases-only": (True, False, increase_alphabet),
    "decreases-only": (False, True, decrease_alphabet),
}


def self_describing(machine: CounterMachine, mode: str = "full") -> CounterMachine:
    """Machine over instruction letters accepting the counter behaviors.

    Each transition's input symbol is replaced by the instruction letter
    of its counter change (or dropped, for the projection modes), so the
    output reads exactly the chosen projection of the behaviors of
    accepting runs while guessing the original input silently.
    """
    if mode not in _SD_MODES:
        raise MachineError(f"unknown self-describing mode {mode!r}")
    keep_inc, keep_dec, alphabet = _SD_MODES[mode]
    transitions = []
    for t in machine.transitions:
        sym = t.instruction()
        if sym is not None and not (keep_inc if sym[0] == "C" else keep_dec):
            sym = None
        transitions.append(
            Transition(t.label, t.src, sym, t.guard, t.dst, t.delta)
        )
    return CounterMachine(
        k=machine.k,
        alphabet=frozenset(alphabet(machine.k)),
        states=machine.states,
        initial=machine.initial,
        finals=machine.finals,
        transitions=tuple(transitions),
    )


# ---------------------------------------------------------------------------
# Full trio operations


def homomorphism_image(machine: CounterMachine, image: dict) -> CounterMachine:
    """Machine for the image language under a symbol-to-word map."""
    missing = [a for a in sorted(machine.alphabet) if a not in image]
    if missing:
        raise MachineError(f"homomorphism undefined on {missing}")
    words = {a: tuple(image[a]) for a in machine.alphabet}
    zero = (0,) * machine.k
    transitions: list[Transition] = []
    states = set(machine.states)
    n = 0

    def emit(src: str, inp: str | None, guard, dst: str, delta) -> None:
        nonlocal n
        transitions.append(Transition(f"t{n}", src, inp, guard, dst, delta))
        n += 1

    for t in machine.transitions:
        out = words[t.inp] if t.inp is not None else None
        if out is None or len(out) <= 1:
            inp = out[0] if out else None
            emit(t.src, inp, t.guard, t.dst, t.delta)
            continue
        # Spell the image word on a private chain; the counters only move
        # on the last link, so the guard checked on entry stays valid.
        prev = t.src
        for idx, sym in enumerate(out):
            last = idx == len(out) - 1
            nxt = t.dst if last else f"{t.label}~{idx}"
            while not last and nxt in machine.states:
                nxt += "'"
            states.add(nxt)
            emit(prev, sym, t.guard, nxt, t.delta if last else zero)
            prev = nxt
    alphabet = frozenset(s for w in words.values() for s in w)
    return CounterMachine(
        k=machine.k,
        alphabet=alphabet,
        states=frozenset(states),
        initial=machine.initial,
        finals=machine.finals,
        transitions=tuple(transitions),
    )


def inverse_homomorphism(machine: CounterMachine, image: dict) -> CounterMachine:
    """Machine for the preimage language under a symbol-to-word map.

    Reading a symbol loads its image word into finite control; silent
    moves then run the original machine against the buffered symbols.
    """
    words = {b: tuple(w) for b, w in image.items()}
    suffixes = {()}
    for w in words.values():
        for start in range(len(w)):
            suffixes.add(w[start:])
    sid = {s: n for n, s in enumerate(sorted(suffixes))}

    def name(q: str, suffix: tuple) -> str:
        return q if not suffix else f"{q}%{sid[suffix]}"

    builder = MachineBuilder(machine.k)
    for q in sorted(machine.states):
        for b in sorted(words):
            builder.add(name(q, ()), b, name(q, words[b]))
    for t in machine.transitions:
        for suffix in sorted(suffixes):
            if t.inp is None:
                builder.add(
                    name(t.src, suffix), None, name(t.dst, suffix),
                    t.delta, fixed=_fixed(t.guard),
                )
            elif suffix and suffix[0] == t.inp:
                builder.add(
                    name(t.src, suffix), None, name(t.dst, suffix[1:]),
                    t.delta, fixed=_fixed(t.guard),
                )
    return builder.machine(
        frozenset(words),
        name(machine.initial, ()),
        [name(f, ()) for f in machine.finals],
        extra_states=[name(machine.initial, ())],
    )


def intersect_regular(machine: CounterMachine, automaton) -> CounterMachine:
    """Synchronous product with a finite automaton on input letters.

    Silent moves advance the machine side only; the automaton may be an
    Nfa (lambda moves handled) or a Dfa.  Product transitions keep the
    source label as a prefix ("<label>&<i>>" "<j>", i and j numbering the
    automaton states before and after), and the entry hops from the fresh
    start state use the empty prefix ("&init>..."), so a product run maps
    back to a run of the original machine by splitting each label on its
    last '&'.  This is the one product walk of the package: membership,
    containment, pattern restriction (on the self-describing machine) and
    the last-letter product of letter-boundedness all build on it.
    """
    nfa = automaton.to_nfa() if isinstance(automaton, Dfa) else eliminate_lambda(automaton)
    moves = nfa.moves()
    aut_states = sorted(nfa.states, key=repr)
    aut_id = {s: n for n, s in enumerate(aut_states)}

    def name(q: str, s) -> str:
        return f"{q}&{aut_id[s]}"

    adj = machine.outgoing()
    start = "x0"
    zero = (0,) * machine.k
    zguard = (ZERO,) * machine.k
    transitions: list[Transition] = []
    states = {start}
    finals = []
    seen: set[tuple] = set()
    todo: list[tuple] = []
    for s in sorted(nfa.initials, key=repr):
        transitions.append(Transition(
            f"&init>{aut_id[s]}", start, None, zguard,
            name(machine.initial, s), zero,
        ))
        seen.add((machine.initial, s))
        todo.append((machine.initial, s))
    while todo:
        q, s = todo.pop()
        states.add(name(q, s))
        if q in machine.finals and s in nfa.finals:
            finals.append(name(q, s))
        for t in sorted(adj[q], key=lambda t: t.label):
            if t.inp is None:
                targets = [s]
            else:
                targets = sorted(moves.get((s, t.inp), ()), key=repr)
            for s2 in targets:
                transitions.append(Transition(
                    f"{t.label}&{aut_id[s]}>{aut_id[s2]}", name(q, s),
                    t.inp, t.guard, name(t.dst, s2), t.delta,
                ))
                if (t.dst, s2) not in seen:
                    seen.add((t.dst, s2))
                    todo.append((t.dst, s2))
    for t in transitions:
        states.add(t.dst)
    return CounterMachine(
        machine.k, frozenset(machine.alphabet), frozenset(states),
        start, frozenset(finals), tuple(transitions),
    )


def _disjoint_sum(m1: CounterMachine, m2: CounterMachine):
    """Builder holding copies of both machines on the disjoint sum of their
    counters, plus the copies' state names.

    Copy states carry the prefixes "1." and "2."; the second operand's
    counter i becomes counter i + m1.k, and each copy's guards pin the
    other copy's counters at zero.
    """
    builder = MachineBuilder(m1.k + m2.k)
    z1, z2 = (ZERO,) * m1.k, (ZERO,) * m2.k
    for t in m1.transitions:
        builder.add(
            f"1.{t.src}", t.inp, f"1.{t.dst}",
            t.delta + (0,) * m2.k, fixed=_fixed(t.guard + z2),
        )
    for t in m2.transitions:
        builder.add(
            f"2.{t.src}", t.inp, f"2.{t.dst}",
            (0,) * m1.k + t.delta, fixed=_fixed(z1 + t.guard),
        )
    states = [f"1.{q}" for q in m1.states] + [f"2.{q}" for q in m2.states]
    return builder, states


def union(m1: CounterMachine, m2: CounterMachine) -> CounterMachine:
    """Machine for the union, on the disjoint sum of the counter sets.

    A fresh initial state branches silently into either copy.
    """
    builder, states = _disjoint_sum(m1, m2)
    builder.add("u0", None, f"1.{m1.initial}", fixed=_all_zero(builder.k))
    builder.add("u0", None, f"2.{m2.initial}", fixed=_all_zero(builder.k))
    finals = [f"1.{f}" for f in m1.finals] + [f"2.{f}" for f in m2.finals]
    return builder.machine(m1.alphabet | m2.alphabet, "u0", finals,
                           extra_states=states)


def concat(m1: CounterMachine, m2: CounterMachine) -> CounterMachine:
    """Machine for the concatenation, on the disjoint sum of counters.

    A silent bridge leaves each first-copy final under an all-zero guard,
    which is exactly the configuration of an accepting first-copy run.
    """
    builder, states = _disjoint_sum(m1, m2)
    for f in sorted(m1.finals):
        builder.add(f"1.{f}", None, f"2.{m2.initial}", fixed=_all_zero(builder.k))
    return builder.machine(m1.alphabet | m2.alphabet, f"1.{m1.initial}",
                           [f"2.{f}" for f in m2.finals], extra_states=states)


def reversal(machine: CounterMachine) -> CounterMachine:
    """Machine for the reversed language.

    Runs the phase product backwards: an increment edge becomes a
    decrement and vice versa, entry starts at the old accepting nodes,
    and acceptance is a zero-guarded exit at the old start node.
    Reversing a balanced walk keeps every prefix sum nonnegative, so the
    swapped counters replay it exactly.
    """
    pa = phase_automaton(machine)
    by_label = machine.by_label()
    builder = MachineBuilder(machine.k)

    def name(node: str) -> str:
        return f"n.{node}"

    for e in pa.edges:
        t = by_label[e.transition]
        delta = tuple(-d for d in t.delta)
        fixed = {i: POS for i, d in enumerate(delta, start=1) if d < 0}
        builder.add(name(e.dst), t.inp, name(e.src), delta, fixed=fixed)
    for f in sorted(pa.finals):
        builder.add("r0", None, name(f), fixed=_all_zero(machine.k))
    builder.add(name(pa.initial), None, "rf", fixed=_all_zero(machine.k))
    return builder.machine(
        machine.alphabet, "r0", ["rf"], extra_states=["r0", "rf"]
    )


# ---------------------------------------------------------------------------
# Control-language decomposition


@dataclass(frozen=True)
class TrioDecomposition:
    """A machine's language as letter maps over a regular control core.

    Words of the control language spell walks of the phase product, one
    derived letter per edge. Mapping a walk letter-by-letter through
    to_instructions gives its counter behavior; through to_input, the
    word it reads. The language is recovered by keeping exactly the
    control words whose instruction image is balanced and projecting
    those to their input image.
    """

    gamma: tuple[str, ...]
    control: Nfa
    to_instructions: dict
    to_input: dict
    k: int
    input_alphabet: frozenset


def trio_decomposition(machine: CounterMachine) -> TrioDecomposition:
    pa = phase_automaton(machine)
    gamma = tuple(e.eid for e in pa.edges)
    transitions = frozenset((e.src, e.eid, e.dst) for e in pa.edges)
    control = Nfa(
        alphabet=frozenset(gamma),
        states=frozenset(pa.nodes),
        initials=frozenset([pa.initial]),
        finals=frozenset(pa.finals),
        transitions=transitions,
    )
    by_label = machine.by_label()
    to_instructions = {}
    to_input = {}
    for e in pa.edges:
        t = by_label[e.transition]
        sym = t.instruction()
        to_instructions[e.eid] = (sym,) if sym is not None else ()
        to_input[e.eid] = (t.inp,) if t.inp is not None else ()
    return TrioDecomposition(
        gamma, control, to_instructions, to_input, machine.k, machine.alphabet
    )


def reconstruct(decomposition: TrioDecomposition) -> CounterMachine:
    """Rebuild a machine for the decomposed language from its parts."""
    balanced = eq_acceptor(all_pattern(decomposition.k), decomposition.k)
    pulled = inverse_homomorphism(balanced, decomposition.to_instructions)
    controlled = intersect_regular(pulled, decomposition.control)
    return homomorphism_image(controlled, decomposition.to_input)


# ---------------------------------------------------------------------------
# Distinct-letter normal form


def _letter_sequence(expr) -> tuple[list[Sym], int]:
    """The pattern as a list of starred letters; rejects other shapes."""
    if isinstance(expr, InstructionExpr):
        node, k = expr.root, expr.k
    else:
        node, k = expr, 0
    if isinstance(node, Seq):
        parts = node.parts
    else:
        parts = (node,)
    letters = []
    for part in parts:
        if isinstance(part, Star) and isinstance(part.body, Sym):
            letters.append(part.body)
        else:
            raise MachineError(
                "pattern is not a sequence of starred letters"
            )
    k = max([k, 1] + [s.index for s in letters])
    return letters, k


def distinct_normal_form(expr) -> CounterMachine:
    """Balanced-word acceptor of a starred-letter pattern whose own
    counter usage touches every counter at most once per direction.

    A counter whose letter recurs in the pattern is split into one fresh
    counter per (increase run, decrease run) pair; each input letter is
    then booked against one pair, sweeping the pairs of the current run
    in order so the new behavior stays a fixed letter sequence. Pairs
    whose decrease run precedes their increase run can never fire, which
    is exactly the matching the balance condition permits.
    """
    letters, k = _letter_sequence(expr)
    texts = [s.text for s in letters]
    if len(set(texts)) == len(texts):
        return eq_acceptor(expr, k)

    positions = list(range(1, len(letters) + 1))
    c_runs: dict[int, list[int]] = {}
    d_runs: dict[int, list[int]] = {}
    for pos, sym in zip(positions, letters):
        runs = c_runs if sym.kind == "C" else d_runs
        runs.setdefault(sym.index, []).append(pos)

    # pairs_at[pos] = ordered (pair key, change) bookings available there.
    pairs_at: dict[int, list[tuple[tuple, int]]] = {pos: [] for pos in positions}
    for x in sorted(set(c_runs) | set(d_runs)):
        for p, cpos in enumerate(c_runs.get(x, ()), start=1):
            for q, dpos in enumerate(d_runs.get(x, ()), start=1):
                pairs_at[cpos].append(((x, p, q), 1))
                pairs_at[dpos].append(((x, p, q), -1))

    # Number the fresh counters by first appearance along the pattern.
    counter_of: dict[tuple, int] = {}
    for pos in positions:
        for key, _ in pairs_at[pos]:
            if key not in counter_of:
                counter_of[key] = len(counter_of) + 1
    new_k = max(len(counter_of), 1)

    builder = MachineBuilder(new_k)
    started_bits = sorted(d_runs)

    def name(pos: int, slot: int, bits: frozenset) -> str:
        tag = ",".join(str(x) for x in sorted(bits))
        return f"p{pos}s{slot}b[{tag}]"

    all_bits = [
        frozenset(combo)
        for r in range(len(started_bits) + 1)
        for combo in itertools.combinations(started_bits, r)
    ]
    for pos, sym in zip(positions, letters):
        slots = pairs_at[pos]
        n_slots = max(len(slots), 1)
        for bits in all_bits:
            for slot in range(1, n_slots + 1):
                if slots:
                    key, change = slots[slot - 1]
                    ctr = counter_of[key]
                    if sym.kind == "C" and sym.index not in bits:
                        builder.add(
                            name(pos, slot, bits), sym.text,
                            name(pos, slot, bits), _unit(new_k, ctr, 1),
                        )
                    if sym.kind == "D":
                        builder.add(
                            name(pos, slot, bits), sym.text,
                            name(pos, slot, bits | {sym.index}),
                            _unit(new_k, ctr, -1), fixed={ctr: POS},
                        )
                if slot < n_slots:
                    builder.add(
                        name(pos, slot, bits), None, name(pos, slot + 1, bits)
                    )
            if pos < len(letters):
                builder.add(
                    name(pos, n_slots, bits), None, name(pos + 1, 1, bits)
                )
            else:
                builder.add(
                    name(pos, n_slots, bits), None, "acc",
                    fixed=_all_zero(new_k),
                )
    return builder.machine(
        instruction_alphabet(k), name(1, 1, frozenset()), ["acc"]
    )


# ---------------------------------------------------------------------------
# Semilinear-set compilers


def compile_linear_set(
    linear: LinearSet, words, mode: str = "bdi-lbd"
) -> CounterMachine:
    """Machine for {w_1^{i_1} ... w_k^{i_k} : (i_1..i_k) in the set}.

    bdi-lbd loads the constant and period multiples silently, then reads
    the input one word block at a time, paying one decrement per
    repetition. lbi-bdd counts the repetitions first and silently drains
    the constant plus some multiple of the periods afterwards.
    """
    if mode not in ("bdi-lbd", "lbi-bdd"):
        raise MachineError(f"unknown compile mode {mode!r}")
    words = tuple(tuple(w) for w in words)
    if len(words) != linear.dim:
        raise MachineError("need exactly one word per coordinate")
    if any(not w for w in words):
        raise MachineError("words must be nonempty")
    k = linear.dim
    builder = MachineBuilder(k)
    fresh = itertools.count()

    def chain(src: str, dst: str, vector, change: int) -> None:
        """Silent transitions applying the vector one step at a time."""
        steps = [j for j in range(1, k + 1) for _ in range(vector[j - 1])]
        if not steps:
            builder.add(src, None, dst)
            return
        prev = src
        for idx, j in enumerate(steps):
            nxt = dst if idx == len(steps) - 1 else f"c{next(fresh)}"
            fixed = {j: POS} if change < 0 else None
            builder.add(prev, None, nxt, _unit(k, j, change), fixed=fixed)
            prev = nxt

    def read_block(entry: str, j: int, change: int) -> None:
        """Loop at entry reading words[j-1], one counter step per pass."""
        word = words[j - 1]
        prev = entry
        for idx, sym in enumerate(word):
            last = idx == len(word) - 1
            nxt = entry if last else f"c{next(fresh)}"
            delta = _unit(k, j, change) if last else None
            fixed = {j: POS} if (last and change < 0) else None
            builder.add(prev, sym, nxt, delta, fixed=fixed)
            prev = nxt

    alphabet = frozenset(s for w in words for s in w)
    if mode == "bdi-lbd":
        chain("load", "hub", linear.constant, 1)
        for t, period in enumerate(linear.periods):
            if any(period):
                chain("hub", f"loop{t}", period, 1)
                builder.add(f"loop{t}", None, "hub")
        prev = "hub"
        for j in range(1, k + 1):
            builder.add(prev, None, f"v{j}")
            read_block(f"v{j}", j, -1)
            prev = f"v{j}"
        builder.add(f"v{k}", None, "acc", fixed=_all_zero(k))
        return builder.machine(alphabet, "load", ["acc"])
    # lbi-bdd
    start = "v1"
    prev = None
    for j in range(1, k + 1):
        entry = f"v{j}"
        if prev is not None:
            builder.add(prev, None, entry)
        read_block(entry, j, 1)
        prev = entry
    chain(prev, "hub", linear.constant, -1)
    for t, period in enumerate(linear.periods):
        if any(period):
            chain("hub", f"loop{t}", period, -1)
            builder.add(f"loop{t}", None, "hub")
    builder.add("hub", None, "acc", fixed=_all_zero(k))
    return builder.machine(alphabet, start, ["acc"])


def compile_two_positive(sls: SemilinearSet, letters) -> CounterMachine:
    """Machine for {a_1^{i_1} ... a_m^{i_m} : (i_1..i_m) in the set}.

    Needs every period to touch at most two coordinates: one counter per
    two-coordinate period then checks its ratio between the two letter
    blocks, loops with fewer coordinates need no counter at all, and the
    linear components are glued by plain union.
    """
    letters = tuple(letters)
    if len(letters) != sls.dim:
        raise MachineError("need exactly one letter per coordinate")
    if len(set(letters)) != len(letters):
        raise MachineError("letters must be distinct")
    if not is_m_positive(sls, 2):
        raise MachineError("every period may touch at most two coordinates")
    parts = [
        _two_positive_component(comp, letters) for comp in sls.components
    ]
    if not parts:
        builder = MachineBuilder(1)
        return builder.machine(frozenset(letters), "s0", [], extra_states=["s0"])
    return reduce(union, parts)


def _two_positive_component(linear: LinearSet, letters) -> CounterMachine:
    m = linear.dim
    paired = [
        (t, [j for j in range(1, m + 1) if period[j - 1] > 0])
        for t, period in enumerate(linear.periods)
    ]
    counter_of = {}
    for t, support in paired:
        if len(support) == 2:
            counter_of[t] = len(counter_of) + 1
    k = max(len(counter_of), 1)
    builder = MachineBuilder(k)
    fresh = itertools.count()

    def forced_reads(src: str, dst: str, letter: str, count: int) -> None:
        if count == 0:
            builder.add(src, None, dst)
            return
        prev = src
        for idx in range(count):
            nxt = dst if idx == count - 1 else f"c{next(fresh)}"
            builder.add(prev, letter, nxt)
            prev = nxt

    def unit_loop(hub: str, letter: str, count: int, ctr: int | None,
                  change: int) -> None:
        prev = hub
        for idx in range(count):
            last = idx == count - 1
            nxt = hub if last else f"c{next(fresh)}"
            delta = _unit(k, ctr, change) if (last and ctr) else None
            fixed = {ctr: POS} if (last and ctr and change < 0) else None
            builder.add(prev, letter, nxt, delta, fixed=fixed)
            prev = nxt

    prev_exit = None
    start = None
    for j in range(1, m + 1):
        letter = letters[j - 1]
        entry = f"b{j}"
        if prev_exit is None:
            start = entry
        else:
            builder.add(prev_exit, None, entry)
        # units available in this block, swept one period at a time
        units = []
        for t, support in paired:
            if j in support:
                count = linear.periods[t][j - 1]
                if len(support) == 2:
                    change = 1 if j == support[0] else -1
                    units.append((letter, count, counter_of[t], change))
                else:
                    units.append((letter, count, None, 0))
        hub0 = f"b{j}h0"
        forced_reads(entry, hub0, letter, linear.constant[j - 1])
        prev_hub = hub0
        for s, (ltr, count, ctr, change) in enumerate(units, start=1):
            hub = f"b{j}h{s}"
            builder.add(prev_hub, None, hub)
            unit_loop(hub, ltr, count, ctr, change)
            prev_hub = hub
        prev_exit = prev_hub
    builder.add(prev_exit, None, "acc", fixed=_all_zero(k))
    return builder.machine(frozenset(letters), start, ["acc"])


# ---------------------------------------------------------------------------
# Short-word normal form of the bounded-increasing generator


def sbd_form(k: int, budget: Budget | None = None) -> CounterMachine:
    """Machine matching generator("BDiLBd", k) whose own behavior splits
    into starred words of length at most two.  With a budget, each
    transition added charges one unit.

    Instead of one counter per input letter, each guessed word charges a
    single counter once per full traversal; the decrease blocks then
    drain that counter while copying its value one counter down the
    word's chain, so every starred behavior word is a lone letter or a
    decrement-increment pair over distinct counters.
    """
    if k < 1:
        raise ValueError("arity must be at least 1")
    builder = MachineBuilder(k, budget)

    def dname(seq: tuple, i: int, half: str) -> str:
        return "d" + "|".join("".join(map(str, w)) for w in seq) \
            + "@" + str(i) + half

    def read(done, word, pos):
        base = sum(len(w) for w in done)
        return c_sym(word[pos]), (_unit(k, base + 1, 1) if pos == 0 else None), None

    for seq in _nonempty_word_sequences(tuple(range(1, k + 1))):
        _add_word_loops(builder, seq, "pick", read, dname(seq, 1, "a"))
        # decrease blocks in counter order, draining each word's chain
        chain_pos = {}
        base = 0
        for word in seq:
            for rank, i in enumerate(sorted(word), start=1):
                chain_pos[i] = (base + rank, base + rank + 1, rank == len(word))
            base += len(word)
        for i in range(1, k + 1):
            src_ctr, dst_ctr, is_last = chain_pos[i]
            u = dname(seq, i, "a")
            if is_last:
                builder.add(u, d_sym(i), u, _unit(k, src_ctr, -1),
                            fixed={src_ctr: POS})
            else:
                v = dname(seq, i, "b")
                builder.add(u, d_sym(i), v, _unit(k, src_ctr, -1),
                            fixed={src_ctr: POS})
                builder.add(v, None, u, _unit(k, dst_ctr, 1))
            if i < k:
                builder.add(u, None, dname(seq, i + 1, "a"))
            else:
                builder.add(u, None, "acc", fixed=_all_zero(k))
    return builder.machine(instruction_alphabet(k), "pick", ["acc"])
