"""Finite phase abstraction of well-formed counter machines.

Each counter of a well-formed machine lives through four phases: untouched
at zero (Z0), strictly positive while increasing (INC), strictly positive
while decreasing (DEC), and back at zero for good (ZF).  Pairing machine
states with per-counter phase vectors yields a finite automaton whose
edges are the liftable machine transitions; decrements guess whether the
counter just emptied.

The point of the abstraction: walks from the initial node to a node whose
phases are all zero (Z0 or ZF), using each counter's increment edges
exactly as often as its decrement edges, correspond one-to-one with
accepting runs of the machine.  Replaying such a walk never breaks a
guard: a counter in INC or DEC still has its emptying decrement ahead of
it, so its value is positive, while Z0 and ZF pin the value to zero.
That turns emptiness and infiniteness questions into balanced-walk
questions over a flow system.

The state x phase walk itself is `machine.explore_phases`, which also
yields the well-formedness violations; `phase_automaton` only prunes
its result.  Walks turn back into runs through `machine.replay`.
"""

from __future__ import annotations

from dataclasses import dataclass

from .flows import FlowEdge, FlowSystem, FlowWitness
from .machine import (
    CounterMachine,
    MachineError,
    Run,
    ZERO_PHASES,
    c_sym,
    coreachable,
    d_sym,
    explore_phases,
    replay,
)

INPUT_CLASS = "input"
CHANGE_CLASS = "change"


def _node_name(state: str, phases: tuple[str, ...]) -> str:
    return f"{state}|{','.join(phases)}"


@dataclass(frozen=True)
class PhaseEdge:
    eid: str
    src: str
    dst: str
    transition: str


@dataclass(frozen=True)
class PhaseAutomaton:
    machine: CounterMachine
    nodes: frozenset
    edges: tuple[PhaseEdge, ...]
    initial: str
    finals: frozenset

    def edge_by_id(self) -> dict:
        return {e.eid: e for e in self.edges}


def phase_automaton(machine: CounterMachine) -> PhaseAutomaton:
    """Lift a well-formed machine to its reachable, co-reachable phase graph.

    Raises MachineError when the machine fails the well-formedness check:
    the walk/run correspondence below is only a theorem for well-formed
    machines (they accept with all counters at zero, which is what the
    balance condition encodes)."""
    explored = explore_phases(machine)
    if explored.violations:
        raise MachineError(
            "phase abstraction needs a well-formed machine: "
            + "; ".join(f"{v.kind}: {v.detail}" for v in explored.violations))
    start, seen, raw_edges = explored.start, explored.nodes, explored.edges

    final_nodes = {
        (q, ph) for (q, ph) in seen
        if q in machine.finals and all(p in ZERO_PHASES for p in ph)
    }
    # co-reachability prune: keep nodes that can still reach a final node
    live = coreachable(final_nodes, ((src, dst) for src, _, dst in raw_edges))

    edges = []
    edge_ids = set()
    for src, t, dst in raw_edges:
        if src not in live or dst not in live:
            continue
        src_name = _node_name(*src)
        dst_name = _node_name(*dst)
        eid = f"{t.label}:{src_name}>{dst_name}"
        if eid in edge_ids:
            continue
        edge_ids.add(eid)
        edges.append(PhaseEdge(eid, src_name, dst_name, t.label))
    edges.sort(key=lambda e: e.eid)

    initial = _node_name(*start)
    if start not in live:
        # nothing accepts; keep a one-node automaton with no finals
        return PhaseAutomaton(machine, frozenset({initial}), (), initial,
                              frozenset())
    node_names = frozenset(_node_name(*node) for node in live)
    finals = frozenset(_node_name(*node) for node in final_nodes)
    return PhaseAutomaton(machine, node_names, tuple(edges), initial, finals)


def to_flow_system(pa: PhaseAutomaton, change: frozenset = frozenset()) -> FlowSystem:
    """Express accepting runs as balanced source-to-sink walks.

    Per counter i, edges lifting an increment carry class C_i and edges
    lifting a decrement carry class D_i; the balance pairs force equal
    usage, i.e. the counter returns to zero.  Edges that read an input
    symbol carry the input class, so word growth is a class total, and
    edges lifting a transition whose label is in `change` carry the
    change class, so the use of those transitions is one too."""
    machine = pa.machine
    by_label = machine.by_label()
    flow_edges = []
    for e in pa.edges:
        t = by_label[e.transition]
        # a well-formed transition changes at most one counter
        classes = {t.instruction(), None if t.inp is None else INPUT_CLASS,
                   CHANGE_CLASS if t.label in change else None} - {None}
        flow_edges.append(FlowEdge(e.eid, e.src, e.dst, frozenset(classes)))
    balance = tuple((c_sym(i), d_sym(i)) for i in range(1, machine.k + 1))
    return FlowSystem(
        nodes=pa.nodes,
        edges=tuple(flow_edges),
        source=pa.initial,
        sinks=pa.finals,
        balance_pairs=balance,
    )


def run_from_walk(pa: PhaseAutomaton, walk) -> Run:
    """Replay a phase-graph walk into a validated accepting run.

    Raises MachineError unless the walk starts at pa.initial, each edge
    leaves the node the previous one entered, the walk ends in pa.finals,
    and its transitions replay into an accepting run (machine.replay)."""
    by_edge = pa.edge_by_id()
    node = pa.initial
    labels = []
    for eid in walk:
        edge = by_edge.get(eid)
        if edge is None:
            raise MachineError(f"walk edge {eid!r} is not in the phase graph")
        if edge.src != node:
            raise MachineError(f"walk edge {eid!r} does not leave {node!r}")
        node = edge.dst
        labels.append(edge.transition)
    if node not in pa.finals:
        raise MachineError(f"walk ends at {node!r}, not at a final node")
    return replay(pa.machine, labels)


def witness_run(pa: PhaseAutomaton, witness: FlowWitness) -> Run:
    return run_from_walk(pa, witness.walk)
