"""One-way nondeterministic counter machines with zero-test guards.

A machine has k counters holding naturals.  Every transition carries a
guard over {z, p, *} (counter empty / counter positive / either) and a
delta vector with entries in {-1, 0, +1}.  Acceptance: input consumed
and control in a final state.  Well-formed machines additionally make at
most one counter change per transition, are 1-reversal per counter, and
can only accept with all counters empty; `validate_well_formed` checks
this statically.

Two mechanisms live here once for the whole package.  `explore_phases`
is the one walk over the reachable state x phase product: the
well-formedness report is read off its violations, and
`phase.phase_automaton` prunes its nodes and edges.  `replay` is the one
run replay: it turns a label sequence into a validated accepting run,
and `validate_run`, `phase.run_from_walk` and `decide.satisfies` go
through it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

ZERO = "z"
POS = "p"
# Guard entry "either z or p": the transition fires whatever the counter
# holds.  Never on a counter the transition decrements.  MachineBuilder
# emits it for the guard positions it leaves free; parse_machine expands it
# into one concrete copy per choice, so parsed machines never hold it.
ANY = "*"

LAMBDA_TOKEN = "@"


class MachineError(ValueError):
    """Structural problem with a machine definition."""


class MachineFormatError(MachineError):
    """Malformed machine text."""


def c_sym(i: int) -> str:
    return f"C{i}"


def d_sym(i: int) -> str:
    return f"D{i}"


def instruction_alphabet(k: int) -> list[str]:
    """The 2k instruction letters C1, D1, ..., Ck, Dk."""
    out = []
    for i in range(1, k + 1):
        out.append(c_sym(i))
        out.append(d_sym(i))
    return out


def increase_alphabet(k: int) -> list[str]:
    return [c_sym(i) for i in range(1, k + 1)]


def decrease_alphabet(k: int) -> list[str]:
    return [d_sym(i) for i in range(1, k + 1)]


@dataclass(frozen=True)
class Transition:
    label: str
    src: str
    inp: str | None  # None reads no input
    guard: tuple[str, ...]  # 'z' / 'p' / '*' per counter
    dst: str
    delta: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.guard) != len(self.delta):
            raise MachineError(f"transition {self.label}: guard/delta length mismatch")
        for g, d in zip(self.guard, self.delta):
            if g not in (ZERO, POS, ANY):
                raise MachineError(f"transition {self.label}: bad guard entry {g!r}")
            if d not in (-1, 0, 1):
                raise MachineError(f"transition {self.label}: bad delta entry {d}")
            if g != POS and d < 0:
                raise MachineError(
                    f"transition {self.label}: decrement needs a positive-counter guard"
                )

    def instruction(self) -> str | None:
        """C{i}/D{i} if this transition changes counter i, else None."""
        for i, d in enumerate(self.delta, start=1):
            if d > 0:
                return c_sym(i)
            if d < 0:
                return d_sym(i)
        return None

    def changed(self) -> list[int]:
        return [i for i, d in enumerate(self.delta, start=1) if d != 0]


@dataclass(frozen=True)
class CounterMachine:
    k: int
    alphabet: frozenset[str]
    states: frozenset[str]
    initial: str
    finals: frozenset[str]
    transitions: tuple[Transition, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise MachineError("need at least one counter")
        if self.initial not in self.states:
            raise MachineError(f"initial state {self.initial!r} not declared")
        for q in self.finals:
            if q not in self.states:
                raise MachineError(f"final state {q!r} not declared")
        seen = set()
        for t in self.transitions:
            if len(t.guard) != self.k:
                raise MachineError(f"transition {t.label}: guard arity != k")
            if t.label in seen:
                raise MachineError(f"duplicate transition label {t.label!r}")
            seen.add(t.label)
            if t.src not in self.states or t.dst not in self.states:
                raise MachineError(f"transition {t.label}: undeclared endpoint")
            if t.inp is not None and t.inp not in self.alphabet:
                raise MachineError(f"transition {t.label}: input {t.inp!r} not in alphabet")

    def by_label(self) -> dict[str, Transition]:
        return {t.label: t for t in self.transitions}

    def outgoing(self) -> dict[str, list[Transition]]:
        adj: dict[str, list[Transition]] = {q: [] for q in self.states}
        for t in self.transitions:
            adj[t.src].append(t)
        return adj


@dataclass(frozen=True)
class Configuration:
    state: str
    pos: int
    counters: tuple[int, ...]


@dataclass(frozen=True)
class Run:
    word: tuple[str, ...]
    labels: tuple[str, ...]
    configs: tuple[Configuration, ...]  # len(labels) + 1 entries


def guard_matches(guard: tuple[str, ...], counters: tuple[int, ...]) -> bool:
    return all(g == ANY or (c == 0) == (g == ZERO) for g, c in zip(guard, counters))


def apply_transition(
    t: Transition, config: Configuration, word: tuple[str, ...]
) -> Configuration | None:
    """Successor configuration, or None if t does not apply."""
    if t.src != config.state or not guard_matches(t.guard, config.counters):
        return None
    pos = config.pos
    if t.inp is not None:
        if pos >= len(word) or word[pos] != t.inp:
            return None
        pos += 1
    counters = tuple(c + d for c, d in zip(config.counters, t.delta))
    return Configuration(t.dst, pos, counters)


def initial_configuration(machine: CounterMachine) -> Configuration:
    return Configuration(machine.initial, 0, (0,) * machine.k)


def is_accepting(machine: CounterMachine, config: Configuration, word_len: int) -> bool:
    return config.state in machine.finals and config.pos == word_len


def replay(machine: CounterMachine, labels) -> Run:
    """The accepting run of machine that takes the labelled transitions.

    The word is what those transitions read.  Raises MachineError on an
    unknown label, on a transition that does not apply, and when the run
    does not end accepting."""
    by_label = machine.by_label()
    steps = []
    for i, label in enumerate(labels):
        t = by_label.get(label)
        if t is None:
            raise MachineError(f"run step {i}: unknown transition {label!r}")
        steps.append(t)
    word = tuple(t.inp for t in steps if t.inp is not None)
    configs = [initial_configuration(machine)]
    for i, t in enumerate(steps):
        nxt = apply_transition(t, configs[-1], word)
        if nxt is None:
            raise MachineError(f"run step {i}: transition {t.label!r} does not apply")
        configs.append(nxt)
    if not is_accepting(machine, configs[-1], len(word)):
        raise MachineError("run does not end accepting")
    return Run(word, tuple(labels), tuple(configs))


def validate_run(machine: CounterMachine, run: Run) -> None:
    """Raise MachineError unless run is a valid accepting run of machine."""
    expected = replay(machine, run.labels)
    if expected.word != run.word:
        raise MachineError("run word differs from the letters its transitions read")
    if expected.configs != run.configs:
        raise MachineError("run configurations differ from its replay")


# ---------------------------------------------------------------------------
# Well-formedness report


@dataclass(frozen=True)
class Violation:
    kind: str  # 'multi-counter-change' | 'reversal-violation' | 'nonzero-accept-possible'
    label: str | None
    detail: str
    on_accepting_path: bool


@dataclass(frozen=True)
class WellFormedReport:
    is_well_formed: bool
    is_deterministic: bool
    violations: tuple[Violation, ...] = field(default_factory=tuple)

    def summary(self) -> str:
        lines = [
            f"well-formed: {'yes' if self.is_well_formed else 'no'}",
            f"deterministic: {'yes' if self.is_deterministic else 'no'}",
        ]
        for v in self.violations:
            where = f" [{v.label}]" if v.label else ""
            path = "" if v.on_accepting_path else " (not on any accepting path)"
            lines.append(f"violation: {v.kind}{where}: {v.detail}{path}")
        return "\n".join(lines)


# Per-counter phases of the static analysis.  Ordering is monotone along
# any path: Z0 -> INC -> DEC -> ZF.
PH_Z0, PH_INC, PH_DEC, PH_ZF = "Z0", "INC", "DEC", "ZF"
ZERO_PHASES = (PH_Z0, PH_ZF)


def phase_consistent(guard: tuple[str, ...], phases: tuple[str, ...]) -> bool:
    for g, ph in zip(guard, phases):
        if g == ZERO and ph not in ZERO_PHASES:
            return False
        if g == POS and ph in ZERO_PHASES:
            return False
    return True


def phase_successors(phases: tuple[str, ...], delta: tuple[int, ...]):
    """All phase vectors after applying delta, or [] if delta cannot fire.

    Decrements guess whether the counter just emptied (ZF) or not (DEC).
    Increments after a decrement phase are refused: that is the reversal
    violation the caller flags.
    """
    per_counter: list[tuple[str, ...]] = []
    for ph, d in zip(phases, delta):
        if d == 0:
            per_counter.append((ph,))
        elif d > 0:
            if ph not in (PH_Z0, PH_INC):
                return []
            per_counter.append((PH_INC,))
        else:
            if ph not in (PH_INC, PH_DEC):
                return []
            per_counter.append((PH_DEC, PH_ZF))
    return list(itertools.product(*per_counter))


def coreachable(targets, arcs) -> set:
    """The nodes from which some target is reachable along (src, dst) arcs."""
    back: dict = {}
    for src, dst in arcs:
        back.setdefault(dst, []).append(src)
    seen = set(targets)
    stack = list(seen)
    while stack:
        for prev in back.get(stack.pop(), ()):
            if prev not in seen:
                seen.add(prev)
                stack.append(prev)
    return seen


def _check_determinism(machine: CounterMachine) -> bool:
    """No configuration admits two different moves that both read its next
    letter or that include a silent one.  Two guards both hold on some
    counter values exactly when they agree wherever neither is '*'."""
    for moves in machine.outgoing().values():
        for t1, t2 in itertools.combinations(moves, 2):
            if (None in (t1.inp, t2.inp) or t1.inp == t2.inp) \
                    and (t1.inp, t1.dst, t1.delta) != (t2.inp, t2.dst, t2.delta) \
                    and all(ANY in (g1, g2) or g1 == g2
                            for g1, g2 in zip(t1.guard, t2.guard)):
                return False
    return True


@dataclass(frozen=True)
class PhaseExploration:
    """The reachable part of a machine's state x phase product.

    Nodes are (state, phase vector) pairs; edges are (source node,
    transition, target node) triples in discovery order.  violations
    lists what the walk found against well-formedness."""

    start: tuple
    nodes: frozenset
    edges: tuple
    violations: tuple[Violation, ...]


def explore_phases(machine: CounterMachine) -> PhaseExploration:
    """Walk the state x phase product reachable from the initial node.

    Flags transitions changing more than one counter, increments reachable
    after a decrement of the same counter, and acceptance admitted with a
    counter in a positive phase.  The analysis over-approximates: phases
    abstract counter values, so a flagged machine may avoid the violation
    dynamically; an unflagged machine is definitely well-formed.  Each
    violation notes whether it sits on a path that can still reach a final
    state (the accepting-runs-only reading).
    """
    violations: list[Violation] = []
    for t in machine.transitions:
        changed = t.changed()
        if len(changed) > 1:
            violations.append(Violation(
                "multi-counter-change", t.label, f"changes counters {changed}", True))

    co_reach = coreachable(machine.finals,
                           ((t.src, t.dst) for t in machine.transitions))
    adj = machine.outgoing()
    start = (machine.initial, (PH_Z0,) * machine.k)
    seen = {start}
    frontier = [start]
    edges = []
    reversal_seen: set[tuple[str, int]] = set()
    nonzero_seen: set[str] = set()
    while frontier:
        node = frontier.pop()
        state, phases = node
        if state in machine.finals:
            bad = [i for i, ph in enumerate(phases, 1) if ph in (PH_INC, PH_DEC)]
            if bad and state not in nonzero_seen:
                nonzero_seen.add(state)
                violations.append(Violation(
                    "nonzero-accept-possible", None,
                    f"state {state} accepts with counters {bad} in positive phase",
                    True))
        for t in adj[state]:
            if not phase_consistent(t.guard, phases):
                continue
            succs = phase_successors(phases, t.delta)
            if not succs:
                # An increment was refused: counter already past its reversal.
                for i, d in enumerate(t.delta, 1):
                    if d > 0 and phases[i - 1] in (PH_DEC, PH_ZF):
                        key = (t.label, i)
                        if key not in reversal_seen:
                            reversal_seen.add(key)
                            violations.append(Violation(
                                "reversal-violation", t.label,
                                f"counter {i} incremented after decrementing",
                                t.dst in co_reach))
                continue
            for phases2 in succs:
                nxt = (t.dst, phases2)
                edges.append((node, t, nxt))
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return PhaseExploration(start, frozenset(seen), tuple(edges), tuple(violations))


def validate_well_formed(machine: CounterMachine) -> WellFormedReport:
    """Static well-formedness check on the reachable state x phase product
    (see explore_phases), plus a determinism check."""
    violations = explore_phases(machine).violations
    return WellFormedReport(
        is_well_formed=not violations,
        is_deterministic=_check_determinism(machine),
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Text format


def expand_guard_token(token: str, k: int, label: str) -> list[tuple[str, tuple[str, ...]]]:
    """Expand '*' positions; returns (label, guard) pairs, labels made unique."""
    if len(token) != k:
        raise MachineFormatError(f"transition {label}: guard {token!r} must have {k} entries")
    for ch in token:
        if ch not in (ZERO, POS, ANY):
            raise MachineFormatError(f"transition {label}: bad guard char {ch!r}")
    if ANY not in token:
        return [(label, tuple(token))]
    slots = [(ZERO, POS) if ch == ANY else (ch,) for ch in token]
    out = []
    for combo in itertools.product(*slots):
        out.append((f"{label}:{''.join(combo)}", tuple(combo)))
    return out


def parse_machine(text: str) -> CounterMachine:
    rows: list[tuple[int, list[str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append((lineno, line.split()))

    def take(keyword: str, min_args: int = 0):
        if not rows:
            raise MachineFormatError(f"unexpected end of input, wanted {keyword!r}")
        lineno, parts = rows.pop(0)
        if parts[0] != keyword:
            raise MachineFormatError(f"line {lineno}: expected {keyword!r}, got {parts[0]!r}")
        if len(parts) - 1 < min_args:
            raise MachineFormatError(f"line {lineno}: {keyword!r} needs an argument")
        return lineno, parts[1:]

    take("ncm")
    lineno, args = take("counters", 1)
    try:
        k = int(args[0])
    except ValueError:
        raise MachineFormatError(f"line {lineno}: counters wants an integer") from None
    _, alphabet = take("alphabet")
    _, states = take("states", 1)
    _, init = take("initial", 1)
    _, finals = take("final")

    transitions: list[Transition] = []
    for lineno, parts in rows:
        if parts[0] != "trans":
            raise MachineFormatError(f"line {lineno}: expected 'trans', got {parts[0]!r}")
        if len(parts) != 6 + k:
            raise MachineFormatError(f"line {lineno}: trans wants 5+{k} fields")
        _, label, src, inp, guard_tok, dst = parts[:6]
        try:
            delta = tuple(int(x) for x in parts[6:])
        except ValueError:
            raise MachineFormatError(f"line {lineno}: bad delta entry") from None
        read = None if inp == LAMBDA_TOKEN else inp
        try:
            expanded = expand_guard_token(guard_tok, k, label)
            for xlabel, guard in expanded:
                transitions.append(Transition(xlabel, src, read, guard, dst, delta))
        except MachineError as exc:
            raise MachineFormatError(f"line {lineno}: {exc}") from None

    try:
        return CounterMachine(
            k=k,
            alphabet=frozenset(alphabet),
            states=frozenset(states),
            initial=init[0],
            finals=frozenset(finals),
            transitions=tuple(transitions),
        )
    except MachineError as exc:
        raise MachineFormatError(str(exc)) from None


def dump_machine(machine: CounterMachine) -> str:
    lines = ["ncm", f"counters {machine.k}"]
    lines.append("alphabet " + " ".join(sorted(machine.alphabet)))
    lines.append("states " + " ".join(sorted(machine.states)))
    lines.append(f"initial {machine.initial}")
    lines.append("final " + " ".join(sorted(machine.finals)))
    for t in machine.transitions:
        inp = LAMBDA_TOKEN if t.inp is None else t.inp
        delta = " ".join(str(d) for d in t.delta)
        lines.append(f"trans {t.label} {t.src} {inp} {''.join(t.guard)} {t.dst} {delta}")
    return "\n".join(lines) + "\n"


def load_machine(path: str) -> CounterMachine:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_machine(fh.read())


def save_machine(machine: CounterMachine, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_machine(machine))
