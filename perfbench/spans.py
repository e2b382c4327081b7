"""Layer spans recorded from outside ncmkit.

Tracer.install replaces the public functions listed in LAYERS, on every
ncmkit module attribute that names them, by wrappers that record a span:
name, parent span, start, end and a few sizes of the result.  Callers
look these attributes up at call time (`decide.solve`,
`phase.validate_well_formed`, ...), so nested calls nest their spans.
Hot leaf helpers such as `guard_matches` are not wrapped; their time
counts toward the layer that calls them.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

LAYERS = {
    "cli": ("main",),
    "machine": ("load_machine", "parse_machine", "validate_well_formed",
                "validate_run"),
    "build": ("self_describing", "inverse_homomorphism", "intersect_regular"),
    "patterns": ("parse_pattern", "expr_to_nfa", "MachineBuilder.machine"),
    "nfa": ("determinize", "eliminate_lambda"),
    "phase": ("phase_automaton", "to_flow_system", "witness_run"),
    "flows": ("solve", "solve_unbounded", "pump_walk"),
    "oracle": ("enumerate_language",),
    "decide": ("is_empty", "is_infinite", "membership", "contained_in_regular",
               "satisfies", "is_letter_bounded", "is_m_bounded",
               "bd_with_bound", "infer_family"),
}


def _transitions(result, kwargs):
    return {"out_transitions": len(result.transitions)}


def _solver(result, kwargs):
    nodes = (kwargs.get("stats") or {}).get("nodes", 0)
    refuted = type(result).__name__ == "Infeasible" and nodes == 0
    return {"nodes": nodes, "refuted": int(refuted)}


MEASURES = {
    "build.inverse_homomorphism": _transitions,
    "build.intersect_regular": _transitions,
    "patterns.MachineBuilder.machine": _transitions,
    "nfa.determinize": lambda r, kw: {"dfa_states": r.n_states},
    "phase.phase_automaton": lambda r, kw: {"nodes": len(r.nodes), "edges": len(r.edges)},
    "phase.to_flow_system": lambda r, kw: {"flow_edges": len(r.edges)},
    "flows.solve": _solver,
    "flows.solve_unbounded": _solver,
    "decide.contained_in_regular": lambda r, kw: {"yes": int(r.answer)},
}


class Tracer:
    """Spans of one traced pass, kept in memory.

    A span is [name, parent index, start, end, sizes]; parent -1 marks a
    top-level span.  `fault` is the innermost span an exception unwound
    through during the current query: the layer that was running when a
    time limit or a budget stopped it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.fault: str | None = None
        self._patched: list[tuple] = []

    def _wrap(self, name: str, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, self.stack[-1] if self.stack else -1, perf_counter(), 0.0, None]
            self.spans.append(record)
            self.stack.append(len(self.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if self.fault is None:
                    self.fault = name
                raise
            finally:
                record[3] = perf_counter()
                if self.stack:
                    self.stack.pop()
            if measure is not None:
                record[4] = measure(result, kwargs)
            return result
        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"ncmkit.{layer}"]
            for name in names:
                owner, attr = module, name
                if "." in name:
                    cls, attr = name.split(".")
                    owner = getattr(module, cls)
                original = getattr(owner, attr)
                span = f"{layer}.{name}"
                wrapper = self._wrap(span, original, MEASURES.get(span))
                wrappers[id(original)] = (original, wrapper)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
        # names bound by `from .module import function` elsewhere in the package
        for modname, module in list(sys.modules.items()):
            if modname != "ncmkit" and not modname.startswith("ncmkit."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def end_query(self) -> str | None:
        """Close spans an interrupt left open and return the query's fault."""
        now = perf_counter()
        for index in self.stack:
            if not self.spans[index][3]:
                self.spans[index][3] = now
        self.stack.clear()
        fault, self.fault = self.fault, None
        return fault


def layer_metrics(spans: list[list], queries: int, wall: float) -> dict:
    """Per-layer numbers of one traced pass over `queries` queries.

    `.ms` is self time (the span minus the time its child spans cover)
    summed over the pass; `.calls` and solver `.nodes` are sums; object
    sizes are means per call."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    calls: dict[str, int] = {}
    self_ms: dict[str, float] = {}
    sizes: dict[str, dict[str, float]] = {}
    top = 0.0
    for index, (name, parent, start, end, info) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        self_ms[name] = self_ms.get(name, 0.0) + 1000.0 * (end - start - child[index])
        if parent < 0:
            top += end - start
        for key, value in (info or {}).items():
            bucket = sizes.setdefault(name, {})
            bucket[key] = bucket.get(key, 0) + value

    def ms(name):
        return self_ms.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def total(name, key):
        return sizes.get(name, {}).get(key, 0)

    def mean(name, key):
        return total(name, key) / n(name) if n(name) else 0.0

    return {
        "machine.load_machine.ms": ms("machine.load_machine"),
        "machine.validate_well_formed.calls": n("machine.validate_well_formed"),
        "machine.validate_well_formed.ms": ms("machine.validate_well_formed"),
        "build.intersect_regular.calls": n("build.intersect_regular"),
        "build.intersect_regular.ms": ms("build.intersect_regular"),
        "build.intersect_regular.out_transitions": mean("build.intersect_regular", "out_transitions"),
        "build.inverse_homomorphism.ms": ms("build.inverse_homomorphism"),
        "build.inverse_homomorphism.out_transitions": mean("build.inverse_homomorphism", "out_transitions"),
        "build.self_describing.ms": ms("build.self_describing"),
        "patterns.MachineBuilder.machine.calls": n("patterns.MachineBuilder.machine"),
        "patterns.MachineBuilder.machine.ms": ms("patterns.MachineBuilder.machine"),
        "patterns.MachineBuilder.machine.out_transitions": mean("patterns.MachineBuilder.machine", "out_transitions"),
        "patterns.expr_to_nfa.ms": ms("patterns.expr_to_nfa"),
        "nfa.determinize.calls": n("nfa.determinize"),
        "nfa.determinize.ms": ms("nfa.determinize"),
        "nfa.determinize.dfa_states": mean("nfa.determinize", "dfa_states"),
        "nfa.eliminate_lambda.ms": ms("nfa.eliminate_lambda"),
        "phase.phase_automaton.ms": ms("phase.phase_automaton"),
        "phase.phase_automaton.nodes": mean("phase.phase_automaton", "nodes"),
        "phase.phase_automaton.edges": mean("phase.phase_automaton", "edges"),
        "phase.to_flow_system.ms": ms("phase.to_flow_system"),
        "phase.to_flow_system.flow_edges": mean("phase.to_flow_system", "flow_edges"),
        "phase.witness_run.ms": ms("phase.witness_run"),
        "flows.solve.calls": n("flows.solve"),
        "flows.solve.ms": ms("flows.solve"),
        "flows.solve.nodes": total("flows.solve", "nodes"),
        "flows.solve.refuted_without_search": mean("flows.solve", "refuted"),
        "flows.solve_unbounded.calls": n("flows.solve_unbounded"),
        "flows.solve_unbounded.ms": ms("flows.solve_unbounded"),
        "flows.solve_unbounded.nodes": total("flows.solve_unbounded", "nodes"),
        "flows.pump_walk.ms": ms("flows.pump_walk"),
        "oracle.enumerate_language.calls": n("oracle.enumerate_language"),
        "oracle.enumerate_language.ms": ms("oracle.enumerate_language"),
        "decide.self_ms": sum(v for k, v in self_ms.items() if k.startswith("decide.")),
        "decide.membership.calls_per_query": n("decide.membership") / queries,
        "decide.contained_in_regular.calls": n("decide.contained_in_regular"),
        "decide.contained_in_regular.yes_frac": mean("decide.contained_in_regular", "yes"),
        "cli.main.self_ms": ms("cli.main"),
        "trace.coverage_frac": top / wall if wall else 0.0,
    }
