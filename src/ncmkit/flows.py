"""Exact feasibility of balanced source-to-sink walks in labeled digraphs.

A FlowSystem asks for a walk from the source to one of the sinks whose
edge-usage vector satisfies per-edge lower bounds and a set of balance
pairs (two edge classes whose totals must agree).  solve() finds such a
walk or proves there is none; solve_unbounded() also asks for a balanced
circulation using a growth class, which the walk can repeat any number
of times.  Both run one path with integer arithmetic: trim the system to
the edges on source-to-sink paths; assemble one linear system, the
walk's conservation and balance rows plus, for a growth class, the same
rows over a second copy of the edge variables; refute it with an exact
phase-1 simplex on the circulation rows, then on the walk rows, which
also gives a vertex of each.  Every LP is contracted first: a row that
only says two variables are equal, as most conservation rows of a word
product do, merges the two columns and is dropped, and the merged
variable takes its partner's value in the vertex.  When the vertex
already is an answer, the search never starts.  Otherwise a depth-first
branch-and-bound runs inside the standard small-solution box for integer
linear systems.  At each node, variable intervals are first tightened
against the rows and the rows of their Gauss-Jordan elimination, with
divisibility checks; then an exact LP over the node's bounds gives a
vertex.  The node is pruned when either finds no solution.  Otherwise it
branches on the first fractional walk variable, or, when the walk is
integral but the walk or the walk plus the circulation has a support
part not connected to the source, on which of the edges around that part
is used (a subtour-elimination disjunction, as Dantzig, Fulkerson and
Johnson, 1954).  The circulation rows are homogeneous, so a rational
circulation is scaled to an integer one instead of being branched on.

A "no" rests only on an interval contradiction, an infeasible relaxation
of a node's bounds, and branching that covers every integer point of the
box; a "yes" is checked again before it is returned.

The systems are small, sparse and mostly +-1, so the elimination and
the simplex work fraction-free on sparse integer rows ({var: int} plus
an int right-hand side): a row is combined with a pivot row by
row <- p*row - f*pivot_row, touching only the rows that hold the pivot
column, and divided by the gcd of its entries.  The simplex drops each
artificial column as it leaves the basis, so the artificials never fill
the tableau in.  Only the vertex read off the final simplex tableau is
rational; the results are those of exact rational arithmetic.

Everything is deterministic.  Each expanded search node is charged, as it
is expanded, to the query's Budget (nfa.Budget); when the budget runs out
or the query is cancelled, a resource error is raised rather than ever
returning a wrong answer.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .nfa import Budget

# The node cap of a search run without a Budget.
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


@dataclass(frozen=True)
class Infeasible:
    reason: str


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


def _box_bound(n_vars: int, rows: list[_Row], lowers: list[int]) -> int:
    """n*(m*a)^(2m+1) for n variables, m rows and largest magnitude a: a
    feasible system has a solution with every variable inside it."""
    coeff_max = 1
    for row in rows:
        for c in row.coeffs.values():
            coeff_max = max(coeff_max, abs(c))
        coeff_max = max(coeff_max, abs(row.rhs))
    for lo in lowers:
        coeff_max = max(coeff_max, lo)
    m = max(1, len(rows))
    return n_vars * (m * coeff_max) ** (2 * m + 1)


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
    walk_order: list         # walk and sink-choice variables, in branch order
    edges: list              # the trimmed edges, by edge id
    source: str
    y_of_edge: dict          # eid -> var index of the walk
    z_of_edge: dict          # eid -> var index of the circulation, if any
    sink_of_var: dict        # var index -> sink node
    box: int


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
              growth_class: str | None) -> _Problem:
    """The walk's rows, plus a circulation using growth_class when given."""
    with_circulation = growth_class is not None
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
    if with_circulation:
        conservation, balance = _flow_rows(kept, z_of_edge, nodes, fs.balance_pairs)
        rows += [_Row(coeffs, 0, _EQ) for coeffs in conservation.values() if coeffs]
        rows += [_Row(coeffs, 0, _EQ) for coeffs in balance]
        coeffs = {z_of_edge[e.eid]: 1 for e in kept if growth_class in e.classes}
        rows.append(_Row(coeffs, 1, _GE))

    rows = _dedup_rows(rows)
    box = _box_bound(len(var_names), rows, lowers)
    # branch order: sink choices first, then variables whose edge tail is
    # farthest from the source, edge ids breaking ties
    walk_order = sink_vars + [y_of_edge[e.eid] for e in
                              sorted(kept, key=lambda e: (-depths[e.eid], e.eid))]
    return _Problem(var_names, lowers, rows, walk_order,
                    sorted(kept, key=lambda e: e.eid), fs.source,
                    y_of_edge, z_of_edge, sink_of_var, box)


# ---------------------------------------------------------------------------
# Search


def _relaxation(rows: list[_Row], intervals: list, capped=()):
    """The rational relaxation of some rows inside a node's bounds.

    Returns (pivots, vertex): the simplex pivots it took, and a vertex,
    one rational value per variable, or None when the relaxation is
    infeasible.  A variable whose interval is one value is substituted;
    every other one is shifted by its lower bound, and bounded above only
    when it is in capped, the variables whose upper bound branching set.
    The other upper bounds are those of the box or follow from it, and
    as rows they would only make the vertex's numbers box-sized.  The
    rows are then contracted (_contract) before the simplex runs, and
    a merged column takes the value of the column it was merged into."""
    n = len(intervals)
    lp_rows: list[tuple[dict, int]] = []
    slack = n
    for row in rows:
        coeffs = {}
        rhs = row.rhs
        for v, c in row.coeffs.items():
            lo, hi = intervals[v]
            rhs -= c * lo
            if lo < hi and c:
                coeffs[v] = c
        if row.kind == _GE:
            coeffs[slack] = -1
            slack += 1
        lp_rows.append((coeffs, rhs))
    for v in sorted(capped):
        lo, hi = intervals[v]
        if lo < hi:
            lp_rows.append(({v: 1, slack: 1}, hi - lo))
            slack += 1
    contracted = _contract(lp_rows)
    if contracted is None:
        return 0, None
    lp_rows, rep = contracted
    feasible, pivots, vertex = _lp_feasible(lp_rows, slack)
    if not feasible:
        return pivots, None
    return pivots, [lo + vertex[rep.get(v, v)] for v, (lo, _) in enumerate(intervals)]


def _contract(rows: list[tuple[dict, int]]):
    """Remove the rows that only say two columns are equal.

    A row c*x_a - c*x_b = 0 is dropped and column a merged into column b,
    the higher-indexed of the two: x_a is replaced by x_b in every other
    row (a standard LP presolve step, as Andersen and Andersen,
    "Presolving in linear programming", 1995).  A row left with no
    column is dropped when its right-hand side is 0 and makes the rows
    infeasible otherwise.  Merging can make new such rows, so the rows
    are swept until a sweep merges nothing.  The rows hold no zero
    coefficient.  Returns None when infeasible, else the remaining rows,
    in their order, and a map from each merged column to the column that
    now stands for it; x >= 0 on the rows is feasible exactly when it is
    on the remaining ones."""
    parent: dict = {}

    def find(v):
        root = v
        while root in parent:
            root = parent[root]
        while v != root:
            parent[v], v = root, parent[v]
        return root

    merged = True
    while merged:
        merged = False
        kept = []
        for coeffs, rhs in rows:
            if parent and not parent.keys().isdisjoint(coeffs):
                folded: dict = {}
                for v, c in coeffs.items():
                    v = find(v)
                    folded[v] = folded.get(v, 0) + c
                coeffs = {v: c for v, c in folded.items() if c}
            if not coeffs:
                if rhs:
                    return None
                continue
            if len(coeffs) == 2 and not rhs:
                (a, ca), (b, cb) = coeffs.items()
                if ca == -cb:
                    parent[min(a, b)] = max(a, b)
                    merged = True
                    continue
            kept.append((coeffs, rhs))
        rows = kept
    return rows, {v: find(v) for v in parent}


class _Search:
    """Depth-first branch-and-bound over an assembled system.

    A node is its intervals, one [lo, hi] per variable, and the set of
    variables whose upper bound branching set (capped).  Expanding a
    node propagates its intervals against the rows and the eliminated
    rows, takes a vertex of its relaxation (the one it was handed when
    that lies inside its intervals) and either accepts the vertex or
    pushes the children of _disjunction, first child on top."""

    def __init__(self, problem: _Problem, budget: Budget, what: str):
        self.p = problem
        self.budget = budget
        self.what = what
        self.used = 0
        self.row_visits = 0
        self.lp_pivots = 0
        consistent, _, triangular = _eliminate(problem.rows, len(problem.var_names))
        self.consistent = consistent
        self.rows = _dedup_rows(problem.rows + triangular)
        self.occurs = _occurrences(self.rows, len(problem.var_names))

    def run(self, vertex: list):
        """An accepted vertex, or None when the box holds no solution.
        vertex is a point of the root's relaxation."""
        if not self.consistent:
            return None
        root = [(lo, self.p.box) for lo in self.p.lowers]
        stack = [(root, frozenset(), None, vertex)]
        while stack:
            intervals, capped, dirty, vertex = stack.pop()
            self.used += 1
            self.budget.charge(1, self.what)
            outcome, _, visits = _propagate(self.rows, self.occurs, intervals, dirty)
            self.row_visits += visits
            if outcome == _CONTRADICTION:
                continue
            if vertex is None or not all(lo <= x <= hi for x, (lo, hi)
                                         in zip(vertex, intervals)):
                pivots, vertex = _relaxation(self.p.rows, intervals, capped)
                self.lp_pivots += pivots
                if vertex is None:
                    continue
            children = _disjunction(self.p, vertex)
            if children is None:
                return vertex
            # a child of a fixpoint needs only the rows of the variables
            # it narrowed revisited; a child of a capped node needs all
            for bounds in reversed(children):
                child = list(intervals)
                touched = 0
                for v, lo, hi in bounds:
                    old_lo, old_hi = child[v]
                    hi = old_hi if hi is None else min(hi, old_hi)
                    child[v] = (max(lo, old_lo), hi)
                    touched |= self.occurs[v]
                if all(child[v][0] <= child[v][1] for v, _, _ in bounds):
                    caps = {v for v, _, hi in bounds if hi is not None}
                    stack.append((child, capped | caps,
                                  touched if outcome == _FIXPOINT else None, None))
        return None


def _disjunction(p: _Problem, x: list):
    """None when the point x is a solution of the system's constraints:
    every walk variable integral, and the walk's support and, with a
    circulation, the support of walk plus circulation connected to the
    source.  Otherwise children that cover every solution in the node
    but exclude x, each a list of (var, lo, hi) bounds, hi None for none.

    A fractional walk variable is split at its floor.  A support part S
    not connected to the source splits into: every edge inside S unused,
    or, for each edge crossing S in edge order, that edge used and the
    ones before it unused.  For the joint support an edge is used through
    the walk or, unused by the walk, through the circulation."""
    for v in p.walk_order:
        if x[v].denominator != 1:
            down = x[v].numerator // x[v].denominator
            return [[(v, 0, down)], [(v, down + 1, None)]]
    walk = {eid: x[v] for eid, v in p.y_of_edge.items()}
    part = _stranded(p.edges, walk, p.source)
    if part is not None:
        return _cut(p.edges, part, {eid: (v,) for eid, v in p.y_of_edge.items()})
    if not p.z_of_edge:
        return None
    joint = {eid: n + x[p.z_of_edge[eid]] for eid, n in walk.items()}
    part = _stranded(p.edges, joint, p.source)
    if part is None:
        return None
    return _cut(p.edges, part, {eid: (v, p.z_of_edge[eid])
                                for eid, v in p.y_of_edge.items()})


def _cut(edges: list[FlowEdge], part: set, use: dict) -> list:
    """The children of a connectivity disjunction around the nodes in
    part; use maps an edge id to the variables whose sum is its use."""
    inside = [e for e in edges if e.src in part and e.dst in part]
    children = [[(v, 0, 0) for e in inside for v in use[e.eid]]]
    unused: list = []
    for e in edges:
        if (e.src in part) != (e.dst in part):
            for i, v in enumerate(use[e.eid]):
                children.append(unused + [(u, 0, 0) for u in use[e.eid][:i]]
                                + [(v, 1, None)])
            unused += [(v, 0, 0) for v in use[e.eid]]
    return children


# ---------------------------------------------------------------------------
# Support connectivity and walk reconstruction


def _component(adj: dict, start: str) -> set:
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def _stranded(edges: list[FlowEdge], used: dict, source: str):
    """None when every used edge lies in the undirected closure of the
    source over used edges (so one walk can cover them all); otherwise
    the nodes of the used edges' undirected component that holds the
    least node name the source does not reach."""
    adj = defaultdict(list)
    for e in edges:
        if used.get(e.eid, 0) > 0:
            adj[e.src].append(e.dst)
            adj[e.dst].append(e.src)
    reached = _component(adj, source)
    rest = [v for v in adj if v not in reached]
    return _component(adj, min(rest)) if rest else None


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
    return problems


# ---------------------------------------------------------------------------
# Rational feasibility (phase-1 simplex)


def _lp_feasible(rows: list[tuple[dict, int]], n_vars: int):
    """Is {A x = rhs, x >= 0} feasible over the rationals?

    Returns the answer, the number of simplex pivots it took and, when
    feasible, a vertex: a list of n_vars Fractions that satisfies the
    rows (else None).  Exact phase-1 simplex with one artificial
    variable per row and Bland's rule (so it terminates): the entering
    column is the lowest-index one with a negative reduced cost, and the
    leaving row has the minimum ratio, ties going to the lowest basic
    variable.  An artificial that leaves the basis is dropped: a basic
    column is nonzero only in its own row, so deleting that one entry
    before the pivot removes the column, which then never fills in the
    other rows or the cost row and never enters again.  Any subset of
    the artificials still has phase-1 optimum 0 exactly when the rows
    are feasible, so the answer is the same.

    The arithmetic is integer and fraction-free.  Each sparse tableau
    row stands for itself divided by an implicit positive scale, the
    coefficient of its basic variable; the phase-1 reduced-cost row is
    kept the same way and updated by every pivot.  Ratios rhs/entry do
    not depend on the scale and are compared by cross-multiplication,
    and a pivot sets row <- p*row - f*leaving_row (p, f reduced by their
    gcd), then divides the row by the gcd of its entries.  Only signs
    and ratios are read, so the pivots are those of the rational
    tableau.  The system is feasible when every artificial still basic
    has a zero right-hand side; the vertex is then read off the final
    tableau, rhs[r] / tab[r][basis[r]] for each basic original column
    and 0 for the others.
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
        if basis[leave] >= n_vars:
            # the leaving artificial's column holds only this entry; with
            # it gone the column is gone, so it never spreads or enters
            del tab[leave][basis[leave]]
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
    if any(rhs[r] for r in range(m) if basis[r] >= n_vars):
        return False, pivots, None
    vertex = [Fraction(0)] * n_vars
    for r, j in enumerate(basis):
        if j < n_vars:
            vertex[j] = Fraction(rhs[r], tab[r][j])
    return True, pivots, vertex


# ---------------------------------------------------------------------------
# Entry points


def solve(fs: FlowSystem, budget: Budget | None = None,
          stats: dict | None = None):
    """Find a balanced source-to-sink walk, or prove none exists.

    Returns a FlowWitness (with the realizing walk) or an Infeasible
    carrying the reason.  Each expanded search node charges one unit of
    the budget ("balanced-walk search"), so ResourceBudgetError is raised
    when it runs out, or is cancelled, before either conclusion; without
    a budget the search stops after DEFAULT_NODE_BUDGET nodes.  When
    stats is a dict, the simplex pivots of every rational relaxation
    solved are written to stats['lp_pivots'], and once the relaxation
    is feasible, the number of search nodes expanded (0 when the root's
    vertex is a walk) to stats['nodes'] and the row visits of their
    interval propagation to stats['row_visits']."""
    return _solve(fs, None, budget, stats)


def solve_unbounded(fs: FlowSystem, growth_class: str,
                    budget: Budget | None = None, stats: dict | None = None):
    """Find a walk plus a repeatable balanced circulation that grows the
    given class, or None when no such pair exists.

    The circulation conserves flow at every node, keeps every balance
    pair level, and uses the growth class at least once, so adding it to
    the base walk any number of times yields ever-larger valid walks.
    The budget (charged as "pump search") and stats are as for solve."""
    result = _solve(fs, growth_class, budget, stats)
    return None if isinstance(result, Infeasible) else result


def _solve(fs: FlowSystem, growth_class: str | None, budget: Budget | None,
           stats: dict | None):
    """The one path of solve (growth_class None) and solve_unbounded.

    Returns a FlowWitness, for a growth class a PumpWitness, or an
    Infeasible.  The circulation's rows are refuted before the walk's;
    their two vertices make the root's, which is the answer when it is
    a solution, and otherwise starts the search.  The witness found is
    checked again before it is returned."""
    trimmed = _trim(fs)
    if trimmed is None:
        return Infeasible("an edge with a positive lower bound lies on no "
                          "source-to-sink path")
    kept, kept_sinks = trimmed
    if not kept_sinks:
        return Infeasible("no sink is reachable from the source")
    if growth_class is not None and not any(growth_class in e.classes for e in kept):
        return Infeasible(f"no usable edge carries class {growth_class!r}")

    problem = _assemble(fs, kept, kept_sinks, growth_class)
    z_vars = set(problem.z_of_edge.values())
    circulation_rows = [row for row in problem.rows if not z_vars.isdisjoint(row.coeffs)]
    walk_rows = [row for row in problem.rows if z_vars.isdisjoint(row.coeffs)]
    root = [(lo, problem.box) for lo in problem.lowers]
    lp_pivots = 0
    blocks = []
    for rows in (circulation_rows, walk_rows):
        pivots, block = _relaxation(rows, root)
        lp_pivots += pivots
        if block is None:
            if stats is not None:
                stats["lp_pivots"] = lp_pivots
            return Infeasible("the balance and conservation constraints admit no "
                              "fractional solution")
        blocks.append(block)
    # the two blocks share no variable, so their vertices make one
    circulation_block, vertex = blocks
    for v in z_vars:
        vertex[v] = circulation_block[v]
    search = None
    try:
        if _disjunction(problem, vertex) is not None:
            if budget is None:
                budget = Budget(limit=DEFAULT_NODE_BUDGET)
            search = _Search(problem, budget, "balanced-walk search"
                             if growth_class is None else "pump search")
            vertex = search.run(vertex)
    finally:
        if stats is not None:
            stats["lp_pivots"] = lp_pivots + (search.lp_pivots if search else 0)
            stats["nodes"] = search.used if search else 0
            stats["row_visits"] = search.row_visits if search else 0
    if vertex is None:
        return Infeasible("the balance and conservation constraints admit no "
                          "usable assignment")
    used = {eid: int(vertex[v]) for eid, v in problem.y_of_edge.items()}
    sink = next(t for v, t in problem.sink_of_var.items() if vertex[v] == 1)
    base = FlowWitness({e.eid: used.get(e.eid, 0) for e in fs.edges},
                       _euler_walk(kept, used, fs.source, sink), sink)
    # a rational circulation times the lcm of its denominators is integral
    scale = lcm(*(vertex[v].denominator for v in z_vars))
    circulation = {e.eid: 0 for e in fs.edges}
    circulation.update((eid, int(scale * vertex[v]))
                       for eid, v in problem.z_of_edge.items())
    problems = validate_witness(fs, base)
    if growth_class is not None:
        for times in (1, 2):
            pumped = {eid: n + times * circulation[eid]
                      for eid, n in base.multiplicities.items()}
            if _stranded(kept, pumped, fs.source) is not None:
                problems.append(f"pumped support disconnected at t={times}")
    if problems:
        raise AssertionError("internal witness check failed: " + "; ".join(problems))
    return base if growth_class is None else PumpWitness(base, circulation)


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
    witness = FlowWitness(mults, walk, pump.base.sink)
    problems = validate_witness(fs, witness)
    if problems:
        raise ValueError("pumped walk failed validation: " + "; ".join(problems))
    return witness
