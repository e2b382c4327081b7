"""Exact feasibility of balanced source-to-sink walks in labeled digraphs.

A FlowSystem asks for a walk from the source to one of the sinks whose
edge-usage vector satisfies per-edge lower bounds and a set of balance
pairs (two edge classes whose totals must agree), optionally with some
class used at least once.  solve() decides feasibility exactly with
integer arithmetic: an exact phase-1 simplex refutes systems with no
rational solution, Gauss-Jordan elimination of the conservation/balance
equations checks their consistency and adds one row per pivot variable,
and a best-first branch-and-bound (splitting variable intervals, bounded
by the standard small-solution box for integer linear systems) searches
for a usable assignment.  At each search node the variable intervals are
tightened against the rows, with divisibility checks, until nothing
changes; the tightening revisits only the rows whose variables moved,
so a node whose parent reached that fixpoint starts from the rows of its
branch variable alone.  Walks must have connected, source-anchored
support; assignments that fail this are excluded by forbidding their
exact support pattern and continuing.

The systems are small, sparse and mostly +-1, so the elimination and
the simplex work fraction-free on sparse integer rows ({var: int} plus
an int right-hand side): a row is combined with a pivot row by
row <- p*row - f*pivot_row, touching only the rows that hold the pivot
column, and divided by the gcd of its entries.  No rational number is
ever formed; the results are those of exact rational arithmetic.

Everything is deterministic; exceeding the node budget raises a resource
error rather than ever returning a wrong answer.
"""

from __future__ import annotations

import heapq
import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from math import gcd
from operator import itemgetter

from .nfa import ResourceBudgetError

DEFAULT_NODE_BUDGET = 200_000


@dataclass(frozen=True)
class FlowEdge:
    eid: str
    src: str
    dst: str
    classes: frozenset = frozenset()
    lower: int = 0

    def __post_init__(self) -> None:
        if self.lower < 0:
            raise ValueError(f"edge {self.eid}: negative lower bound")


@dataclass(frozen=True)
class FlowSystem:
    nodes: frozenset
    edges: tuple[FlowEdge, ...]
    source: str
    sinks: frozenset
    balance_pairs: tuple[tuple[str, str], ...] = ()
    positive_class: str | None = None

    def __post_init__(self) -> None:
        if self.source not in self.nodes:
            raise ValueError("source not among nodes")
        if not self.sinks <= self.nodes:
            raise ValueError("sink not among nodes")
        seen = set()
        for e in self.edges:
            if e.eid in seen:
                raise ValueError(f"duplicate edge id {e.eid!r}")
            seen.add(e.eid)
            if e.src not in self.nodes or e.dst not in self.nodes:
                raise ValueError(f"edge {e.eid}: undeclared endpoint")

    def class_edges(self, name: str) -> list[FlowEdge]:
        return [e for e in self.edges if name in e.classes]


@dataclass(frozen=True)
class FlowWitness:
    """Edge multiplicities plus a walk realizing them exactly."""

    multiplicities: dict
    walk: tuple[str, ...]
    sink: str
    box_bound: int
    bound_note: str


@dataclass(frozen=True)
class Infeasible:
    reason: str
    box_bound: int
    bound_note: str


@dataclass(frozen=True)
class PumpWitness:
    """A base walk plus a repeatable balanced circulation.

    Adding the circulation to the base multiplicities any number of times
    keeps every constraint satisfied, so the underlying language of walks
    is infinite in the growth class."""

    base: FlowWitness
    circulation: dict


# ---------------------------------------------------------------------------
# Linear rows

_EQ = "eq"
_GE = "ge"


@dataclass
class _Row:
    coeffs: dict  # var index -> int
    rhs: int
    kind: str


def _combine(row: dict, rhs: int, scale: int, other: dict, other_rhs: int,
             factor: int) -> tuple[dict, int]:
    """scale*row - factor*other, divided by the gcd of its entries.

    factor is nonzero and so is every entry of other, so an entry that
    comes out zero was in row before."""
    out = dict(row) if scale == 1 else {v: scale * c for v, c in row.items()}
    for v, c in other.items():
        value = out.get(v, 0) - factor * c
        if value:
            out[v] = value
        else:
            del out[v]
    rhs = scale * rhs - factor * other_rhs
    g = gcd(rhs, *out.values())
    if g > 1:
        out = {v: c // g for v, c in out.items()}
        rhs //= g
    return out, rhs


def _eliminate(rows: list[_Row], n_vars: int):
    """Gauss-Jordan elimination of the equality rows, fraction-free.

    Returns (consistent, pivot_vars, triangular_rows).  The columns are
    taken in ascending order, and each pivots on a row not yet used that
    contains it, the shortest such.  Only the rows that contain the
    pivot column are touched: row <- head*row - f*pivot_row, with
    head/f reduced by their gcd, and the result divided by the gcd of
    its entries and right-hand side, so every number stays small.

    pivot_vars are the pivot columns of the reduced row echelon form of
    the coefficient matrix, in ascending order.  When the system is
    consistent, triangular_rows are the rows of that form in pivot
    order, each the primitive integer multiple with a positive pivot,
    coefficients in ascending variable order.  The reduced row echelon
    form of a matrix is unique and so is the primitive positive multiple
    of a row, so these rows depend only on the system, not on the pivot
    rows chosen; each has one pivot variable, which makes it useful for
    propagation.  An inconsistent system gives no rows."""
    coeffs: list[dict] = []
    rhs: list[int] = []
    holders: dict = defaultdict(set)
    for row in rows:
        if row.kind != _EQ:
            continue
        rid = len(coeffs)
        coeffs.append({v: c for v, c in row.coeffs.items() if c})
        rhs.append(row.rhs)
        for v in coeffs[rid]:
            holders[v].add(rid)
    pivot_row: dict = {}
    used: set = set()
    for col in range(n_vars):
        free = [r for r in holders.get(col, ()) if r not in used]
        if not free:
            continue
        p = min(free, key=lambda r: (len(coeffs[r]), r))
        pivot_row[col] = p
        used.add(p)
        head = coeffs[p][col]
        for r in list(holders[col]):
            if r == p:
                continue
            f = coeffs[r][col]
            g = gcd(head, f)
            coeffs[r], rhs[r] = _combine(coeffs[r], rhs[r], head // g,
                                         coeffs[p], rhs[p], f // g)
            for v in coeffs[p]:
                if v in coeffs[r]:
                    holders[v].add(r)
                else:
                    holders[v].discard(r)
    pivots = list(pivot_row)
    if any(rhs[r] for r in range(len(coeffs)) if r not in used):
        return False, pivots, []
    triangular = []
    for col, r in pivot_row.items():
        sign = 1 if coeffs[r][col] > 0 else -1
        g = sign * gcd(rhs[r], *coeffs[r].values())
        triangular.append(_Row({v: coeffs[r][v] // g for v in sorted(coeffs[r])},
                               rhs[r] // g, _EQ))
    return True, pivots, triangular


# ---------------------------------------------------------------------------
# Interval propagation


_CONTRADICTION = "contradiction"
_FIXPOINT = "fixpoint"
_CAPPED = "capped"


def _occurrences(rows: list[_Row], n_vars: int) -> list[int]:
    """For each variable, the set of rows holding it as a bit mask
    (bit i for rows[i])."""
    occurs = [0] * n_vars
    for i, row in enumerate(rows):
        for v in row.coeffs:
            occurs[v] |= 1 << i
    return occurs


def _propagate(rows: list[_Row], occurs: list[int], intervals: list,
               dirty: int | None = None, sweeps: int = 60):
    """Tighten [lo, hi] intervals against the rows, in place.

    Returns (outcome, moved, visits): outcome is _CONTRADICTION,
    _FIXPOINT, or _CAPPED when the sweep limit came first; moved is the
    set of variables whose interval changed and visits the number of
    row visits made.  dirty is a bit mask of the rows to visit first
    (None: all of them); occurs is _occurrences(rows, n_vars).

    The rows are swept in order, Gauss-Seidel style, but a row is
    visited only while dirty: at the start, or once one of its
    variables has changed since its last visit, including changes that
    visit made itself.  A row visit reads nothing but the intervals of
    the row's variables, and a visit that changed nothing and found no
    contradiction does the same again on the same intervals.  So a
    skipped row is one that would have changed nothing and passed,
    and the sweeps go exactly as visiting every row would go: the same
    intervals, the same contradictions and the same number of sweeps.
    A fixpoint with one interval narrowed therefore needs only the rows
    of that variable dirty.
    """
    todo = (1 << len(rows)) - 1 if dirty is None else dirty
    moved: set = set()
    visits = 0
    for _ in range(sweeps):
        later = 0
        while todo:
            bit = todo & -todo
            todo ^= bit
            row = rows[bit.bit_length() - 1]
            visits += 1
            rhs = row.rhs
            eq = row.kind == _EQ
            lo_sum = 0
            hi_sum = 0
            fixed_part = 0
            g = 0
            for v, c in row.coeffs.items():
                lo, hi = intervals[v]
                if lo == hi:
                    fixed_part += c * lo
                    lo_sum += c * lo
                    hi_sum += c * lo
                elif c > 0:
                    lo_sum += c * lo
                    hi_sum += c * hi
                    g = gcd(g, c)
                else:
                    lo_sum += c * hi
                    hi_sum += c * lo
                    g = gcd(g, c)
            if hi_sum < rhs:
                return _CONTRADICTION, moved, visits
            if eq and (rhs < lo_sum or (g and (rhs - fixed_part) % g)):
                return _CONTRADICTION, moved, visits
            touched = 0
            for v, c in row.coeffs.items():
                lo, hi = intervals[v]
                if lo == hi:
                    # rhs lies between the sums, so a fixed value fits
                    continue
                # the other terms sum to [rest_lo, rest_hi], so c*y must
                # land in [rhs - rest_hi, rhs - rest_lo] for equality
                # rows, and at least rhs - rest_hi for >= rows; -(-a // c)
                # is a/c rounded up
                if c > 0:
                    rest_lo = lo_sum - c * lo
                    rest_hi = hi_sum - c * hi
                    new_lo = max(lo, -((rest_hi - rhs) // c))
                    new_hi = min(hi, (rhs - rest_lo) // c) if eq else hi
                else:
                    rest_lo = lo_sum - c * hi
                    rest_hi = hi_sum - c * lo
                    new_hi = min(hi, (rhs - rest_hi) // c)
                    new_lo = max(lo, -((rest_lo - rhs) // c)) if eq else lo
                if new_lo > new_hi:
                    return _CONTRADICTION, moved, visits
                if new_lo != lo or new_hi != hi:
                    intervals[v] = (new_lo, new_hi)
                    moved.add(v)
                    touched |= occurs[v]
            if touched:
                # rows after this one are still to come in this sweep;
                # this row and the ones before it wait for the next
                todo |= touched & -(bit << 1)
                later |= touched & ((bit << 1) - 1)
        if not later:
            return _FIXPOINT, moved, visits
        todo = later
    return _CAPPED, moved, visits


# ---------------------------------------------------------------------------
# Problem assembly


def _trim(fs: FlowSystem):
    """Keep only edges on some source-to-sink path; None if a required
    edge is cut away (its lower bound can then never be met)."""
    out_adj = defaultdict(list)
    in_adj = defaultdict(list)
    for e in fs.edges:
        out_adj[e.src].append(e.dst)
        in_adj[e.dst].append(e.src)
    reach = {fs.source}
    stack = [fs.source]
    while stack:
        v = stack.pop()
        for w in out_adj[v]:
            if w not in reach:
                reach.add(w)
                stack.append(w)
    coreach = set(fs.sinks)
    stack = list(fs.sinks)
    while stack:
        v = stack.pop()
        for w in in_adj[v]:
            if w not in coreach:
                coreach.add(w)
                stack.append(w)
    kept = [e for e in fs.edges if e.src in reach and e.dst in coreach
            and e.src in coreach and e.dst in reach]
    kept_ids = {e.eid for e in kept}
    for e in fs.edges:
        if e.lower > 0 and e.eid not in kept_ids:
            return None
    kept_sinks = sorted(t for t in fs.sinks if t in reach)
    return kept, kept_sinks


def _box_bound(n_vars: int, rows: list[_Row], lowers: list[int]) -> tuple[int, str]:
    coeff_max = 1
    for row in rows:
        for c in row.coeffs.values():
            coeff_max = max(coeff_max, abs(c))
        coeff_max = max(coeff_max, abs(row.rhs))
    for lo in lowers:
        coeff_max = max(coeff_max, lo)
    m = max(1, len(rows))
    bound = n_vars * (m * coeff_max) ** (2 * m + 1) if n_vars else 0
    digits = str(bound)
    shown = digits if len(digits) <= 40 else f"{digits[0]}.{digits[1:4]}e+{len(digits) - 1}"
    note = (
        f"any feasible system has a solution inside 0 <= y_i <= "
        f"n*(m*a)^(2m+1) = {shown} (n={n_vars} variables, m={m} rows, "
        f"a={coeff_max} largest magnitude); the search is exhaustive "
        f"within that box"
    )
    return bound, note


def _edge_depths(edges: list[FlowEdge], source: str) -> dict:
    """BFS depth of each edge's tail from the source (for branch order)."""
    adj = defaultdict(list)
    for e in edges:
        adj[e.src].append(e.dst)
    depth = {source: 0}
    frontier = [source]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if w not in depth:
                    depth[w] = d
                    nxt.append(w)
        frontier = nxt
    return {e.eid: depth.get(e.src, 0) for e in edges}


@dataclass
class _Problem:
    var_names: list
    lowers: list
    rows: list
    branch_order: list
    real_vars: list          # indices counted by the search priority
    y_of_edge: dict          # eid -> var index
    sink_of_var: dict        # var index -> sink node
    box: int
    note: str


def _dedup_rows(rows: list[_Row]) -> list[_Row]:
    seen = set()
    out = []
    for row in rows:
        key = (row.kind, row.rhs, tuple(sorted(row.coeffs.items())))
        if key not in seen:
            seen.add(key)
            out.append(row)
    return out


def _flow_rows(edges: list[FlowEdge], var_of: dict, nodes: list, balance_pairs):
    """Conservation and balance coefficients of one flow over the edges.

    var_of maps an edge id to its variable.  Returns a dict from each
    node, in the given order, to its coefficients (outflow minus inflow,
    in edge order; a self-loop cancels), and a list with the
    coefficients of each balance pair (class a minus class b)."""
    conservation = {v: {} for v in nodes}
    for e in edges:
        var = var_of[e.eid]
        out, into = conservation[e.src], conservation[e.dst]
        out[var] = out.get(var, 0) + 1
        into[var] = into.get(var, 0) - 1
    conservation = {v: {k: c for k, c in coeffs.items() if c != 0}
                    for v, coeffs in conservation.items()}
    balance = []
    for cls_a, cls_b in balance_pairs:
        coeffs = {}
        for e in edges:
            c = (cls_a in e.classes) - (cls_b in e.classes)
            if c:
                coeffs[var_of[e.eid]] = c
        balance.append(coeffs)
    return conservation, balance


def _assemble(fs: FlowSystem, kept: list[FlowEdge], kept_sinks: list,
              with_circulation: bool, growth_class: str | None):
    var_names: list = []
    lowers: list[int] = []
    y_of_edge: dict = {}
    z_of_edge: dict = {}
    sink_of_var: dict = {}

    depths = _edge_depths(kept, fs.source)
    ordered_edges = sorted(kept, key=lambda e: (depths[e.eid], e.eid))
    for e in ordered_edges:
        y_of_edge[e.eid] = len(var_names)
        var_names.append(f"y:{e.eid}")
        lowers.append(e.lower)
    sink_vars = []
    for t in kept_sinks:
        idx = len(var_names)
        sink_of_var[idx] = t
        sink_vars.append(idx)
        var_names.append(f"sink:{t}")
        lowers.append(0)
    if with_circulation:
        for e in ordered_edges:
            z_of_edge[e.eid] = len(var_names)
            var_names.append(f"z:{e.eid}")
            lowers.append(0)

    rows: list[_Row] = []
    # conservation of the walk flow, with the sink choice as extra outflow
    nodes = sorted({e.src for e in kept} | {e.dst for e in kept}
                   | {fs.source} | set(kept_sinks))
    conservation, balance = _flow_rows(kept, y_of_edge, nodes, fs.balance_pairs)
    for idx in sink_vars:
        conservation[sink_of_var[idx]][idx] = 1
    for v, coeffs in conservation.items():
        rhs = 1 if v == fs.source else 0
        if coeffs or rhs:
            rows.append(_Row(coeffs, rhs, _EQ))
    rows.append(_Row({idx: 1 for idx in sink_vars}, 1, _EQ))
    rows += [_Row(coeffs, 0, _EQ) for coeffs in balance]
    if fs.positive_class is not None:
        coeffs = {y_of_edge[e.eid]: 1 for e in kept if fs.positive_class in e.classes}
        rows.append(_Row(coeffs, 1, _GE))
    if with_circulation:
        conservation, balance = _flow_rows(kept, z_of_edge, nodes, fs.balance_pairs)
        rows += [_Row(coeffs, 0, _EQ) for coeffs in conservation.values() if coeffs]
        rows += [_Row(coeffs, 0, _EQ) for coeffs in balance]
        coeffs = {z_of_edge[e.eid]: 1 for e in kept if growth_class in e.classes}
        rows.append(_Row(coeffs, 1, _GE))

    rows = _dedup_rows(rows)
    box, note = _box_bound(len(var_names), rows, lowers)
    real_vars = [y_of_edge[e.eid] for e in kept]
    if with_circulation:
        real_vars += [z_of_edge[e.eid] for e in kept]

    # branch order: sink choices first, then variables whose edge tail is
    # farthest from the source, edge ids breaking ties
    edge_rank = {}
    for e in kept:
        edge_rank[y_of_edge[e.eid]] = (1, -depths[e.eid], e.eid)
        if with_circulation:
            edge_rank[z_of_edge[e.eid]] = (2, -depths[e.eid], e.eid)
    for idx in sink_vars:
        edge_rank[idx] = (0, 0, sink_of_var[idx])
    branch_order = sorted(range(len(var_names)), key=lambda i: edge_rank[i])

    problem = _Problem(var_names, lowers, rows, branch_order, real_vars,
                       y_of_edge, sink_of_var, box, note)
    return problem, z_of_edge


# ---------------------------------------------------------------------------
# Search


class _Search:
    def __init__(self, problem: _Problem, node_budget: int, poll=None):
        self.p = problem
        self.budget = node_budget
        self.poll = poll
        self.used = 0
        self.row_visits = 0
        consistent, pivots, triangular = _eliminate(problem.rows, len(problem.var_names))
        self.consistent = consistent
        self.pivot_rows = triangular
        pivot_set = set(pivots)
        self.branch_vars = [v for v in problem.branch_order if v not in pivot_set]
        self.rows = _dedup_rows(problem.rows + triangular)
        self.occurs = _occurrences(self.rows, len(problem.var_names))
        self.real_set = frozenset(problem.real_vars)
        self.forbidden: set = set()

    def _priority(self, intervals) -> int:
        """The sum of the counted variables' lower bounds."""
        lows = map(itemgetter(0), map(intervals.__getitem__, self.p.real_vars))
        return sum(lows)

    def _leaf_values(self, intervals):
        """Pin pivot variables by back-substitution; None if impossible."""
        values = [None] * len(self.p.var_names)
        for v in self.branch_vars:
            lo, hi = intervals[v]
            if lo != hi:
                return None
            values[v] = lo
        for row in self.pivot_rows:
            pivot = None
            acc = row.rhs
            coeff = 0
            for v, c in row.coeffs.items():
                if values[v] is None:
                    if pivot is not None:
                        return None
                    pivot, coeff = v, c
                else:
                    acc -= c * values[v]
            if pivot is None:
                if acc != 0:
                    return None
                continue
            if acc % coeff != 0:
                return None
            val = acc // coeff
            lo, hi = intervals[pivot]
            if not lo <= val <= hi:
                return None
            values[pivot] = val
        if any(v is None for v in values):
            return None
        for row in self.rows:
            total = sum(c * values[v] for v, c in row.coeffs.items())
            if row.kind == _EQ and total != row.rhs:
                return None
            if row.kind == _GE and total < row.rhs:
                return None
        return values

    def run(self, accept):
        """Best-first search; accept(values) returns a result or None.

        An expanded node's intervals after propagation are kept as a
        frame, one flat tuple (parent frame, branch variable, dirty rows,
        v1, interval1, v2, interval2, ...): the variable its two children
        branch on and the rows they start with, then the variables that
        branching and propagation moved from the parent frame, with their
        new intervals, interned per search.  A queued node is (priority,
        tie-break, frame, the branch variable's new interval).  Storing
        whole interval lists instead would hold a copy of every
        variable's box-sized bound per queued node, which fills memory in
        a time-limited search that expands thousands of nodes, and one
        flat tuple per frame saves the headers of two more."""
        if not self.consistent:
            return None
        interned: dict = {}

        def intern(interval):
            return interned.setdefault(interval, interval)

        base = tuple(intern((lo, self.p.box)) for lo in self.p.lowers)
        counter = itertools.count()
        heap = [(self._priority(base), next(counter), (None, None, None, *base),
                 None)]
        while heap:
            _, _, frame, iv = heapq.heappop(heap)
            self.used += 1
            if self.used > self.budget:
                raise ResourceBudgetError(
                    f"flow search exceeded its node budget of {self.budget}")
            if self.poll is not None:
                self.poll()
            intervals = _unfold(frame)
            var, dirty = frame[1], frame[2]
            if var is not None:
                intervals[var] = iv
            outcome, moved, visits = _propagate(self.rows, self.occurs,
                                                intervals, dirty)
            self.row_visits += visits
            if outcome == _CONTRADICTION:
                continue
            branch_var = None
            for v in self.branch_vars:
                if intervals[v][0] < intervals[v][1]:
                    branch_var = v
                    break
            if branch_var is None:
                values = self._leaf_values(intervals)
                if values is None:
                    continue
                result = accept(values)
                if result is not None:
                    return result
                continue
            if var is not None:
                moved.add(var)
            # a fixpoint narrowed in the branch variable only needs that
            # variable's rows revisited; a capped one needs all of them
            dirty = self.occurs[branch_var] if outcome == _FIXPOINT else None
            frame = (frame, branch_var, dirty,
                     *itertools.chain.from_iterable(
                         (v, intern(intervals[v])) for v in moved))
            priority = self._priority(intervals)
            lo, hi = intervals[branch_var]
            heapq.heappush(heap, (priority, next(counter), frame,
                                  intern((lo, lo))))
            heapq.heappush(heap, (priority + (branch_var in self.real_set),
                                  next(counter), frame, intern((lo + 1, hi))))
        return None


def _unfold(frame) -> list:
    """The interval list a search frame stands for: its root's intervals
    with every frame's moves applied, outermost first."""
    chain = []
    while frame[0] is not None:
        chain.append(frame)
        frame = frame[0]
    intervals = list(frame[3:])
    for moves in reversed(chain):
        for i in range(3, len(moves), 2):
            intervals[moves[i]] = moves[i + 1]
    return intervals


# ---------------------------------------------------------------------------
# Support connectivity and walk reconstruction


def _support_connected(edges: list[FlowEdge], used: dict, source: str) -> bool:
    """True when every used edge lies in the undirected closure of the
    source over used edges (so one walk can cover them all)."""
    live = [e for e in edges if used.get(e.eid, 0) > 0]
    if not live:
        return True
    adj = defaultdict(set)
    for e in live:
        adj[e.src].add(e.dst)
        adj[e.dst].add(e.src)
    seen = {source}
    stack = [source]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return all(e.src in seen and e.dst in seen for e in live)


def _euler_walk(edges: list[FlowEdge], used: dict, source: str, sink: str):
    """Deterministic Eulerian trail over the used multiset, source to sink."""
    final = object()
    adj: dict = defaultdict(list)
    for e in sorted(edges, key=lambda e: e.eid, reverse=True):
        adj[e.src].extend([(e.eid, e.dst)] * used.get(e.eid, 0))
    adj[sink].insert(0, (None, final))
    trail = []
    stack: list = [(source, None)]
    while stack:
        v, via = stack[-1]
        if adj[v]:
            eid, w = adj[v].pop()
            stack.append((w, eid))
        else:
            stack.pop()
            if via is not None:
                trail.append(via)
    trail.reverse()
    return tuple(eid for eid in trail if eid is not None)


def validate_witness(fs: FlowSystem, witness: FlowWitness) -> list:
    """All the ways a witness fails to certify its system; empty if valid."""
    problems = []
    by_id = {e.eid: e for e in fs.edges}
    for eid, count in witness.multiplicities.items():
        if eid not in by_id:
            problems.append(f"unknown edge {eid!r}")
        elif count < 0:
            problems.append(f"negative multiplicity on {eid!r}")
    for e in fs.edges:
        if witness.multiplicities.get(e.eid, 0) < e.lower:
            problems.append(f"edge {e.eid!r} used below its lower bound")
    if witness.sink not in fs.sinks:
        problems.append(f"walk ends at {witness.sink!r}, not a sink")
    at = fs.source
    walk_counts: dict = defaultdict(int)
    for eid in witness.walk:
        e = by_id.get(eid)
        if e is None:
            problems.append(f"walk uses unknown edge {eid!r}")
            break
        if e.src != at:
            problems.append(f"walk breaks at {eid!r}: at {at!r}, edge leaves {e.src!r}")
            break
        walk_counts[eid] += 1
        at = e.dst
    else:
        if at != witness.sink:
            problems.append(f"walk stops at {at!r} instead of {witness.sink!r}")
        for eid in set(walk_counts) | set(witness.multiplicities):
            if walk_counts.get(eid, 0) != witness.multiplicities.get(eid, 0):
                problems.append(f"walk uses {eid!r} {walk_counts.get(eid, 0)} times, "
                                f"multiplicity says {witness.multiplicities.get(eid, 0)}")
    for cls_a, cls_b in fs.balance_pairs:
        total_a = sum(witness.multiplicities.get(e.eid, 0) for e in fs.class_edges(cls_a))
        total_b = sum(witness.multiplicities.get(e.eid, 0) for e in fs.class_edges(cls_b))
        if total_a != total_b:
            problems.append(f"balance ({cls_a!r}, {cls_b!r}) broken: {total_a} vs {total_b}")
    if fs.positive_class is not None:
        total = sum(witness.multiplicities.get(e.eid, 0)
                    for e in fs.class_edges(fs.positive_class))
        if total < 1:
            problems.append(f"class {fs.positive_class!r} never used")
    return problems


# ---------------------------------------------------------------------------
# Rational feasibility (phase-1 simplex)


def _lp_feasible(rows: list[tuple[dict, int]], n_vars: int) -> tuple[bool, int]:
    """Is {A x = rhs, x >= 0} feasible over the rationals?

    Returns the answer and the number of simplex pivots it took.  Exact
    phase-1 simplex with one artificial variable per row and Bland's
    rule (so it terminates): the entering column is the lowest-index one
    with a negative reduced cost, and the leaving row has the minimum
    ratio, ties going to the lowest basic variable.  Artificials that
    leave the basis stay in the tableau and may enter again.

    The arithmetic is integer and fraction-free.  Each sparse tableau
    row stands for itself divided by an implicit positive scale, the
    coefficient of its basic variable; the phase-1 reduced-cost row is
    kept the same way and updated by every pivot.  Ratios rhs/entry do
    not depend on the scale and are compared by cross-multiplication,
    and a pivot sets row <- p*row - f*leaving_row (p, f reduced by their
    gcd), then divides the row by the gcd of its entries.  Only signs
    and ratios are read, so the pivots are those of the rational
    tableau.  The system is feasible when every artificial still basic
    has a zero right-hand side.  Used to refute systems outright before
    the integer search, which on its own can only refute by exhausting
    the box.
    """
    m = len(rows)
    tab: list[dict] = []
    rhs: list[int] = []
    cost: dict = {}
    for r, (coeffs, b) in enumerate(rows):
        sign = -1 if b < 0 else 1
        row = {v: sign * c for v, c in coeffs.items() if c}
        for v, c in row.items():
            cost[v] = cost.get(v, 0) - c
        row[n_vars + r] = 1
        tab.append(row)
        rhs.append(sign * b)
    cost = {j: d for j, d in cost.items() if d}
    basis = list(range(n_vars, n_vars + m))
    pivots = 0
    while True:
        entering = min((j for j, d in cost.items() if d < 0), default=None)
        if entering is None:
            break
        # A negative reduced cost needs a positive entry in some row whose
        # basic variable is artificial, so a leaving row always exists.
        leave = -1
        for r in range(m):
            a = tab[r].get(entering, 0)
            if a > 0:
                if leave < 0:
                    leave = r
                    continue
                lhs_ratio = rhs[r] * tab[leave][entering]
                best_ratio = rhs[leave] * a
                if lhs_ratio < best_ratio or (lhs_ratio == best_ratio
                                              and basis[r] < basis[leave]):
                    leave = r
        p = tab[leave][entering]
        for r in range(m):
            f = tab[r].get(entering)
            if r != leave and f:
                g = gcd(p, f)
                tab[r], rhs[r] = _combine(tab[r], rhs[r], p // g,
                                          tab[leave], rhs[leave], f // g)
        f = cost[entering]
        g = gcd(p, f)
        cost, _ = _combine(cost, 0, p // g, tab[leave], 0, f // g)
        basis[leave] = entering
        pivots += 1
    feasible = all(rhs[r] == 0 for r in range(m) if basis[r] >= n_vars)
    return feasible, pivots


def _problem_lp_feasible(problem: "_Problem") -> tuple[bool, int]:
    """Rational relaxation of an assembled system, lower bounds included,
    with the simplex pivots it took.

    A negative answer proves the integer system infeasible without any
    search; a positive one hands over to the branch-and-bound."""
    rows: list[tuple[dict, int]] = []
    n = len(problem.var_names)
    slacks = 0
    for row in problem.rows:
        rhs = row.rhs - sum(c * problem.lowers[v] for v, c in row.coeffs.items())
        coeffs = dict(row.coeffs)
        if row.kind == _GE:
            coeffs[n + slacks] = -1
            slacks += 1
        rows.append((coeffs, rhs))
    return _lp_feasible(rows, n + slacks)


def _growth_circulation_possible(kept, balance_pairs,
                                 growth_class) -> tuple[bool, int]:
    """Can any nonnegative balanced circulation use the growth class?

    Checks rational feasibility of {conservation, balance, growth = 1}
    over the kept edges; scaling makes this equivalent to growth >= 1.
    A negative answer rules out every pump witness.  Also returns the
    simplex pivots the check took.
    """
    index = {e.eid: i for i, e in enumerate(kept)}
    nodes = sorted({e.src for e in kept} | {e.dst for e in kept})
    conservation, balance = _flow_rows(kept, index, nodes, balance_pairs)
    rows = [(coeffs, 0) for coeffs in [*conservation.values(), *balance] if coeffs]
    growth = {index[e.eid]: 1 for e in kept if growth_class in e.classes}
    if not growth:
        return False, 0
    rows.append((growth, 1))
    return _lp_feasible(rows, len(kept))


# ---------------------------------------------------------------------------
# Entry points


def solve(fs: FlowSystem, node_budget: int = DEFAULT_NODE_BUDGET,
          stats: dict | None = None, poll=None):
    """Find a balanced source-to-sink walk, or prove none exists.

    Returns a FlowWitness (with the realizing walk) or an Infeasible
    carrying the reason and the search-box note that makes the negative
    answer auditable.  Raises ResourceBudgetError when the budget runs
    out before either conclusion.  When stats is a dict, the number of
    search nodes expanded is written to stats['nodes'], the row visits of
    their interval propagation to stats['row_visits'] and the simplex
    pivots of the rational relaxation to stats['lp_pivots']; poll, when
    given, is called once per expanded node and may raise to cancel."""
    trimmed = _trim(fs)
    if trimmed is None:
        box, note = _box_bound(0, [], [])
        return Infeasible("an edge with a positive lower bound lies on no "
                          "source-to-sink path", box, note)
    kept, kept_sinks = trimmed
    if not kept_sinks:
        box, note = _box_bound(0, [], [])
        return Infeasible("no sink is reachable from the source", box, note)
    if fs.positive_class is not None:
        if not any(fs.positive_class in e.classes for e in kept):
            box, note = _box_bound(0, [], [])
            return Infeasible(
                f"no usable edge carries class {fs.positive_class!r}", box, note)

    problem, _ = _assemble(fs, kept, kept_sinks, False, None)
    feasible, lp_pivots = _problem_lp_feasible(problem)
    if stats is not None:
        stats["lp_pivots"] = lp_pivots
    if not feasible:
        return Infeasible("the balance and conservation constraints admit no "
                          "fractional solution", problem.box, problem.note)
    search = _Search(problem, node_budget, poll)

    def accept(values):
        used = {e.eid: values[problem.y_of_edge[e.eid]] for e in kept}
        support = frozenset(eid for eid, c in used.items() if c > 0)
        if support in search.forbidden:
            return None
        if not _support_connected(kept, used, fs.source):
            search.forbidden.add(support)
            return None
        sink = next(problem.sink_of_var[v] for v in problem.sink_of_var
                    if values[v] == 1)
        walk = _euler_walk(kept, used, fs.source, sink)
        multiplicities = {e.eid: used.get(e.eid, 0) for e in fs.edges}
        return FlowWitness(multiplicities, walk, sink, problem.box, problem.note)

    try:
        witness = search.run(accept)
    finally:
        if stats is not None:
            stats["nodes"] = search.used
            stats["row_visits"] = search.row_visits
    if witness is None:
        return Infeasible("the balance and conservation constraints admit no "
                          "usable assignment", problem.box, problem.note)
    problems = validate_witness(fs, witness)
    if problems:
        raise AssertionError("internal witness check failed: " + "; ".join(problems))
    return witness


def solve_unbounded(fs: FlowSystem, growth_class: str,
                    node_budget: int = DEFAULT_NODE_BUDGET,
                    stats: dict | None = None, poll=None):
    """Find a walk plus a repeatable balanced circulation that grows the
    given class, or None when no such pair exists.

    The circulation conserves flow at every node, keeps every balance
    pair level, and uses the growth class at least once, so adding it to
    the base walk any number of times yields ever-larger valid walks.
    When stats is a dict, the number of search nodes expanded is written
    to stats['nodes'], the row visits of their interval propagation to
    stats['row_visits'] and the simplex pivots of the rational
    relaxations to stats['lp_pivots']; poll, when given, is called once
    per expanded node and may raise to cancel."""
    trimmed = _trim(fs)
    if trimmed is None:
        return None
    kept, kept_sinks = trimmed
    if not kept_sinks:
        return None
    if fs.positive_class is not None:
        if not any(fs.positive_class in e.classes for e in kept):
            return None
    if not any(growth_class in e.classes for e in kept):
        return None
    possible, lp_pivots = _growth_circulation_possible(
        kept, fs.balance_pairs, growth_class)
    if possible:
        walk_problem, _ = _assemble(fs, kept, kept_sinks, False, None)
        possible, pivots = _problem_lp_feasible(walk_problem)
        lp_pivots += pivots
    if stats is not None:
        stats["lp_pivots"] = lp_pivots
    if not possible:
        return None

    problem, z_of_edge = _assemble(fs, kept, kept_sinks, True, growth_class)
    search = _Search(problem, node_budget, poll)

    def accept(values):
        used = {e.eid: values[problem.y_of_edge[e.eid]] for e in kept}
        circ = {e.eid: values[z_of_edge[e.eid]] for e in kept}
        y_support = frozenset(eid for eid, c in used.items() if c > 0)
        z_support = frozenset(eid for eid, c in circ.items() if c > 0)
        if (y_support, z_support) in search.forbidden:
            return None
        joint = {eid: used.get(eid, 0) + circ.get(eid, 0) for eid in used}
        if not (_support_connected(kept, used, fs.source)
                and _support_connected(kept, joint, fs.source)):
            search.forbidden.add((y_support, z_support))
            return None
        sink = next(problem.sink_of_var[v] for v in problem.sink_of_var
                    if values[v] == 1)
        walk = _euler_walk(kept, used, fs.source, sink)
        multiplicities = {e.eid: used.get(e.eid, 0) for e in fs.edges}
        base = FlowWitness(multiplicities, walk, sink, problem.box, problem.note)
        circulation = {e.eid: circ.get(e.eid, 0) for e in fs.edges}
        return PumpWitness(base, circulation)

    try:
        result = search.run(accept)
    finally:
        if stats is not None:
            stats["nodes"] = search.used
            stats["row_visits"] = search.row_visits
    if result is None:
        return None
    problems = validate_witness(fs, result.base)
    for times in (1, 2):
        pumped = {eid: result.base.multiplicities[eid] + times * result.circulation[eid]
                  for eid in result.base.multiplicities}
        live = [e for e in kept if pumped.get(e.eid, 0) > 0]
        if not _support_connected(kept, pumped, fs.source) and live:
            problems.append(f"pumped support disconnected at t={times}")
    if problems:
        raise AssertionError("internal pump check failed: " + "; ".join(problems))
    return result


def pump_walk(fs: FlowSystem, pump: PumpWitness, times: int = 1) -> FlowWitness:
    """The pump's base witness with the circulation applied `times` rounds.

    Each round adds the circulation multiplicities on top of the base and
    re-extracts a concrete walk, so callers can materialize arbitrarily
    many distinct witnesses from one PumpWitness.
    """
    if times < 0:
        raise ValueError("times must be nonnegative")
    eids = set(pump.base.multiplicities) | set(pump.circulation)
    mults = {
        eid: pump.base.multiplicities.get(eid, 0)
        + times * pump.circulation.get(eid, 0)
        for eid in eids
    }
    walk = _euler_walk(list(fs.edges), mults, fs.source, pump.base.sink)
    witness = FlowWitness(
        mults, walk, pump.base.sink, pump.base.box_bound, pump.base.bound_note
    )
    problems = validate_witness(fs, witness)
    if problems:
        raise ValueError("pumped walk failed validation: " + "; ".join(problems))
    return witness
