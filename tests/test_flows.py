"""Balanced-walk feasibility engine.

Every verdict is compared against brute-force walk enumeration on small
systems: a returned witness must validate structurally, and an
infeasibility verdict must never contradict a walk the brute force can
find.
"""

import random
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ncmkit import flows
from ncmkit.build import intersect_regular
from ncmkit.decide import _word_nfa
from ncmkit.flows import (
    DEFAULT_NODE_BUDGET,
    FlowEdge,
    FlowSystem,
    FlowWitness,
    Infeasible,
    PumpWitness,
    pump_walk,
    solve,
    solve_unbounded,
    validate_witness,
)
from ncmkit.machine import load_machine
from ncmkit.nfa import Budget, ResourceBudgetError
from ncmkit.phase import INPUT_CLASS, phase_automaton, to_flow_system

from conftest import FIXTURES, fixture_path


def two_node_system() -> FlowSystem:
    return FlowSystem(
        nodes=frozenset({"s", "t"}),
        edges=(
            FlowEdge("a", "s", "t", frozenset({"C1"})),
            FlowEdge("b", "t", "t", frozenset({"D1"})),
        ),
        source="s",
        sinks=frozenset({"t"}),
        balance_pairs=(("C1", "D1"),),
    )


def detour_system() -> FlowSystem:
    """The forced C1 pass s->t needs the D1 loop at u, which only the
    detour s->u->t reaches; the LP vertex uses the loop without it."""
    return FlowSystem(
        nodes=frozenset({"s", "t", "u"}),
        edges=(
            FlowEdge("a", "s", "t", frozenset({"C1"}), lower=1),
            FlowEdge("b", "u", "u", frozenset({"D1"})),
            FlowEdge("c", "t", "s"),
            FlowEdge("d", "s", "u"),
            FlowEdge("e", "u", "t"),
        ),
        source="s",
        sinks=frozenset({"t"}),
        balance_pairs=(("C1", "D1"),),
    )


def walk_multisets(fs: FlowSystem, max_edges: int) -> set:
    """Usage multisets of all feasible source-to-sink walks, brute force."""
    by_src: dict = {}
    for e in fs.edges:
        by_src.setdefault(e.src, []).append(e)
    found = set()
    visited = set()

    def ok(counts: Counter) -> bool:
        for e in fs.edges:
            if counts[e.eid] < e.lower:
                return False
        for cls_a, cls_b in fs.balance_pairs:
            total_a = sum(counts[e.eid] for e in fs.class_edges(cls_a))
            total_b = sum(counts[e.eid] for e in fs.class_edges(cls_b))
            if total_a != total_b:
                return False
        return True

    def rec(node: str, counts: Counter, depth: int) -> None:
        # what follows depends only on the node and the counts so far
        state = (node, frozenset(counts.items()))
        if state in visited:
            return
        visited.add(state)
        if node in fs.sinks and ok(counts):
            found.add(frozenset(counts.items()))
        if depth == max_edges:
            return
        for e in by_src.get(node, ()):
            counts[e.eid] += 1
            rec(e.dst, counts, depth + 1)
            counts[e.eid] -= 1
            if counts[e.eid] == 0:
                del counts[e.eid]

    rec(fs.source, Counter(), 0)
    return found


class TestSolve:
    def test_counter_loop_pair(self):
        fs = two_node_system()
        expected = walk_multisets(fs, 4)
        assert expected == {frozenset({("a", 1), ("b", 1)})}
        witness = solve(fs)
        assert isinstance(witness, FlowWitness)
        assert witness.multiplicities == {"a": 1, "b": 1}
        assert validate_witness(fs, witness) == []

    def test_balance_over_empty_classes(self):
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(FlowEdge("e", "s", "t"),),
            source="s",
            sinks=frozenset({"t"}),
            balance_pairs=(("X", "Y"),),
        )
        witness = solve(fs)
        assert isinstance(witness, FlowWitness)
        assert witness.walk == ("e",)
        assert validate_witness(fs, witness) == []

    def test_unreachable_sink(self):
        fs = FlowSystem(
            nodes=frozenset({"s", "t", "u"}),
            edges=(FlowEdge("e", "t", "u"),),
            source="s",
            sinks=frozenset({"u"}),
        )
        assert isinstance(solve(fs), Infeasible)

    def test_lower_bound_off_every_path(self):
        fs = FlowSystem(
            nodes=frozenset({"s", "t", "u"}),
            edges=(
                FlowEdge("main", "s", "t"),
                FlowEdge("stranded", "u", "u", lower=1),
            ),
            source="s",
            sinks=frozenset({"t"}),
        )
        result = solve(fs)
        assert isinstance(result, Infeasible)
        assert "lower bound" in result.reason

    def test_infeasible_balance(self):
        # One pass over the C1 edge is forced, nothing provides D1.
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(FlowEdge("a", "s", "t", frozenset({"C1"})),),
            source="s",
            sinks=frozenset({"t"}),
            balance_pairs=(("C1", "D1"),),
        )
        assert walk_multisets(fs, 4) == set()
        assert isinstance(solve(fs), Infeasible)

    def test_huge_lower_bound_is_refuted(self):
        # The search box of this system has over 4,300 digits, more than
        # Python converts to a string by default; no D1 edge balances the
        # forced C1 passes.
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(
                FlowEdge("a", "s", "t"),
                FlowEdge("b", "t", "t", frozenset({"C1"}), lower=10**1000),
            ),
            source="s",
            sinks=frozenset({"t"}),
            balance_pairs=(("C1", "D1"),),
        )
        assert isinstance(solve(fs), Infeasible)

    def test_node_budget(self):
        with pytest.raises(ResourceBudgetError):
            solve(detour_system(), Budget(limit=0))

    def test_stats_report_node_count(self):
        # the LP vertex of the root is a walk: no search node is expanded
        stats: dict = {}
        witness = solve(two_node_system(), Budget(limit=0), stats=stats)
        assert witness.multiplicities == {"a": 1, "b": 1}
        assert stats["nodes"] == 0
        stats = {}
        solve(detour_system(), stats=stats)
        assert stats["nodes"] >= 1

    def test_disconnected_vertex_is_cut(self):
        # The root vertex uses a and the loop b, whose support splits; the
        # cut around u forces the detour.
        fs = detour_system()
        witness = solve(fs)
        assert isinstance(witness, FlowWitness)
        assert validate_witness(fs, witness) == []
        assert witness.multiplicities["d"] == witness.multiplicities["e"] == 1
        used = {eid: n for eid, n in witness.multiplicities.items() if n}
        assert frozenset(used.items()) in walk_multisets(fs, 5)

    @pytest.mark.parametrize("growth", [None, INPUT_CLASS])
    def test_budget_is_charged_one_unit_per_node(self, growth):
        budget, stats = Budget(), {}
        if growth is None:
            solve(detour_system(), budget, stats)
        else:
            fs = to_flow_system(phase_automaton(load_machine(fixture_path("anbn.ncm"))))
            solve_unbounded(fs, growth, budget, stats)
        assert budget.used == stats["nodes"] > 1

    def test_cancel_stops_the_search_midway(self):
        # infinite aibjcidj expands 8 nodes; cancel turns true on the sixth
        fs = to_flow_system(phase_automaton(load_machine(fixture_path("aibjcidj.ncm"))))
        polls = iter(range(1000))
        budget = Budget(cancel=lambda: next(polls) >= 5)
        with pytest.raises(ResourceBudgetError, match="query cancelled"):
            solve_unbounded(fs, INPUT_CLASS, budget)
        assert budget.used == 5

    def test_random_systems_agree_with_brute_force(self):
        rng = random.Random(1312)
        for trial in range(120):
            fs = random_system(rng)
            result = solve(fs)
            reachable = walk_multisets(fs, 6)
            if isinstance(result, FlowWitness):
                assert validate_witness(fs, result) == [], trial
            else:
                assert reachable == set(), (trial, reachable)


def random_system(rng: random.Random, classes=("C1", "D1")) -> FlowSystem:
    """2 to 6 random edges over three nodes, each in some of the classes,
    a few with lower bound 1, and mostly the balance pair (C1, D1)."""
    nodes = ("n0", "n1", "n2")
    n_edges = rng.randint(2, 6)
    edges = []
    for i in range(n_edges):
        carried = frozenset(
            c for c in classes if rng.random() < 0.4)
        lower = 1 if rng.random() < 0.15 else 0
        edges.append(FlowEdge(
            f"e{i}", rng.choice(nodes), rng.choice(nodes),
            carried, lower))
    fs = FlowSystem(
        nodes=frozenset(nodes),
        edges=tuple(edges),
        source="n0",
        sinks=frozenset({rng.choice(nodes)}),
        balance_pairs=(("C1", "D1"),) if rng.random() < 0.7 else (),
    )
    rng.random()  # keeps the draws, and so the systems, of later trials
    return fs


def brute_force_pump(fs: FlowSystem, growth: str, max_edges: int):
    """A walk w and a circulation c using the growth class such that w,
    w+c and w+2c are all valid walks of at most max_edges edges, or None.
    Then w + t*c is a valid walk for every t."""
    walks = walk_multisets(fs, max_edges)
    grows = {e.eid for e in fs.class_edges(growth)}
    for w in sorted(walks, key=sorted):
        base = Counter(dict(w))
        for w1 in walks:
            bigger = Counter(dict(w1))
            c = bigger - base
            if (c and all(bigger[e] >= n for e, n in base.items())
                    and grows & {e for e, n in c.items() if n}
                    and frozenset((bigger + c).items()) in walks):
                return base, c
    return None


def anbn_flow_system() -> FlowSystem:
    machine = load_machine(fixture_path("anbn.ncm"))
    return to_flow_system(phase_automaton(machine))


class TestSolveUnbounded:
    def test_counter_loop_circulation(self):
        fs = anbn_flow_system()
        pump = solve_unbounded(fs, INPUT_CLASS)
        assert isinstance(pump, PumpWitness)
        by_id = {e.eid: e for e in fs.edges}
        c_total = sum(n for eid, n in pump.circulation.items()
                      if "C1" in by_id[eid].classes)
        d_total = sum(n for eid, n in pump.circulation.items()
                      if "D1" in by_id[eid].classes)
        input_total = sum(n for eid, n in pump.circulation.items()
                          if INPUT_CLASS in by_id[eid].classes)
        assert c_total == d_total >= 1
        assert input_total >= 1
        assert validate_witness(fs, pump.base) == []

    def test_pumped_walks_stay_valid(self):
        fs = anbn_flow_system()
        pump = solve_unbounded(fs, INPUT_CLASS)
        for times in (0, 1, 2):
            witness = pump_walk(fs, pump, times)
            assert validate_witness(fs, witness) == []
            for eid, count in witness.multiplicities.items():
                expected = (pump.base.multiplicities.get(eid, 0)
                            + times * pump.circulation.get(eid, 0))
                assert count == expected

    def test_finite_language_system(self):
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(FlowEdge("e", "s", "t", frozenset({INPUT_CLASS})),),
            source="s",
            sinks=frozenset({"t"}),
        )
        assert solve_unbounded(fs, INPUT_CLASS) is None

    def test_silent_loop_does_not_grow_input(self):
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(
                FlowEdge("e", "s", "t", frozenset({INPUT_CLASS})),
                FlowEdge("lam", "t", "t", frozenset()),
            ),
            source="s",
            sinks=frozenset({"t"}),
        )
        assert solve_unbounded(fs, INPUT_CLASS) is None

    def test_unbalanced_loop_cannot_circulate(self):
        # The only cycle bumps C1 with no matching D1, so no balanced
        # circulation exists even though walks do.
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(
                FlowEdge("e", "s", "t", frozenset({INPUT_CLASS})),
                FlowEdge("loop", "t", "t", frozenset({INPUT_CLASS, "C1"})),
            ),
            source="s",
            sinks=frozenset({"t"}),
            balance_pairs=(("C1", "D1"),),
        )
        assert solve_unbounded(fs, INPUT_CLASS) is None

    def test_no_walk_lp_when_no_circulation(self, monkeypatch):
        # Walks exist, so an LP over the walk rows would be feasible; the
        # one LP run is over the circulation rows and refutes the pump.
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(
                FlowEdge("e", "s", "t", frozenset({INPUT_CLASS})),
                FlowEdge("loop", "t", "t", frozenset({INPUT_CLASS, "C1"})),
            ),
            source="s",
            sinks=frozenset({"t"}),
            balance_pairs=(("C1", "D1"),),
        )
        assert isinstance(solve(fs), FlowWitness)
        seen = record_lp_systems(monkeypatch)
        stats: dict = {}
        assert solve_unbounded(fs, INPUT_CLASS, stats=stats) is None
        assert [feasible for _, _, (feasible, _, _) in seen] == [False]
        assert stats["lp_pivots"] == seen[0][2][1]

    def test_random_pumps_agree_with_brute_force(self):
        rng = random.Random(2024)
        found = 0
        for trial in range(150):
            fs = random_system(rng, classes=("C1", "D1", "G"))
            pump = solve_unbounded(fs, "G")
            expected = brute_force_pump(fs, "G", 8)
            if expected is not None:
                found += 1
                assert pump is not None, (trial, expected)
            if pump is not None:
                assert validate_witness(fs, pump.base) == [], trial
                for times in range(4):
                    pump_walk(fs, pump, times)
        assert found >= 10

    def test_pump_walk_rejects_negative_times(self):
        fs = anbn_flow_system()
        pump = solve_unbounded(fs, INPUT_CLASS)
        with pytest.raises(ValueError):
            pump_walk(fs, pump, -1)


class TestValidation:
    def test_system_validation(self):
        with pytest.raises(ValueError):
            FlowSystem(frozenset({"t"}), (), "s", frozenset({"t"}))
        with pytest.raises(ValueError):
            FlowSystem(frozenset({"s"}), (), "s", frozenset({"t"}))
        with pytest.raises(ValueError):
            FlowSystem(
                frozenset({"s"}),
                (FlowEdge("e", "s", "s"), FlowEdge("e", "s", "s")),
                "s", frozenset({"s"}))
        with pytest.raises(ValueError):
            FlowSystem(
                frozenset({"s"}), (FlowEdge("e", "s", "gone"),),
                "s", frozenset({"s"}))
        with pytest.raises(ValueError):
            FlowEdge("e", "s", "t", lower=-1)

    def test_witness_tampering_detected(self):
        fs = two_node_system()
        witness = solve(fs)
        bumped = FlowWitness(
            dict(witness.multiplicities, b=5), witness.walk, witness.sink)
        assert validate_witness(fs, bumped) != []


# ---------------------------------------------------------------------------
# The exact linear algebra against dense rational references.
#
# The two functions below are the dense Fraction versions of
# flows._eliminate and flows._lp_feasible that the sparse integer ones
# replaced, kept as references; the simplex also counts its pivots and,
# like _lp_feasible, drops an artificial column once it leaves the basis.
# The sparse routines must give the same pivots, the same rows with the
# same coefficient order, the same answers and the same pivot counts,
# and the vertex the simplex returns must solve its rows exactly.


def _reference_row(coeffs: dict, rhs: Fraction) -> flows._Row:
    denominators = [c.denominator for c in coeffs.values()] + [rhs.denominator]
    scale = 1
    for d in denominators:
        scale = scale * d // gcd(scale, d)
    out = {v: int(c * scale) for v, c in coeffs.items() if c != 0}
    return flows._Row(out, int(rhs * scale), flows._EQ)


def reference_eliminate(rows, n_vars: int):
    matrix = []
    for row in rows:
        if row.kind != flows._EQ:
            continue
        vec = [Fraction(0)] * (n_vars + 1)
        for v, c in row.coeffs.items():
            vec[v] += c
        vec[n_vars] = Fraction(row.rhs)
        matrix.append(vec)
    pivots = []
    row_at = 0
    for col in range(n_vars):
        pivot = None
        for r in range(row_at, len(matrix)):
            if matrix[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[row_at], matrix[pivot] = matrix[pivot], matrix[row_at]
        head = matrix[row_at][col]
        matrix[row_at] = [x / head for x in matrix[row_at]]
        for r in range(len(matrix)):
            if r != row_at and matrix[r][col] != 0:
                factor = matrix[r][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[row_at])]
        pivots.append(col)
        row_at += 1
    for r in range(row_at, len(matrix)):
        if matrix[r][n_vars] != 0:
            return False, pivots, []
    triangular = []
    for vec in matrix[:row_at]:
        coeffs = {v: vec[v] for v in range(n_vars) if vec[v] != 0}
        triangular.append(_reference_row(coeffs, vec[n_vars]))
    return True, pivots, triangular


def reference_lp_feasible(rows, n_vars: int):
    m = len(rows)
    if m == 0:
        return True, 0
    width = n_vars + m
    tab: list = []
    rhs: list = []
    for r, (coeffs, b) in enumerate(rows):
        sign = -1 if b < 0 else 1
        row = {v: Fraction(sign * c) for v, c in coeffs.items() if c}
        row[n_vars + r] = Fraction(1)
        tab.append(row)
        rhs.append(Fraction(sign * b))
    basis = list(range(n_vars, width))
    pivots = 0
    while True:
        art_rows = [r for r in range(m) if basis[r] >= n_vars]
        entering = -1
        for j in sorted({j for r in art_rows for j in tab[r]}):
            cost = 1 if j >= n_vars else 0
            zj = sum(tab[r].get(j, 0) for r in art_rows)
            if cost - zj < 0:
                entering = j
                break
        if entering < 0:
            break
        leave = -1
        best = None
        for r in range(m):
            a = tab[r].get(entering, 0)
            if a > 0:
                ratio = rhs[r] / a
                if (best is None or ratio < best
                        or (ratio == best and basis[r] < basis[leave])):
                    best = ratio
                    leave = r
        if leave < 0:
            return True, pivots
        pivot = tab[leave][entering]
        # an artificial that leaves the basis is gone for good
        new_row = {j: v / pivot for j, v in tab[leave].items()
                   if j != basis[leave] or j < n_vars}
        new_rhs = rhs[leave] / pivot
        for r in range(m):
            if r == leave:
                continue
            factor = tab[r].get(entering)
            if not factor:
                continue
            row = tab[r]
            for j, v in new_row.items():
                value = row.get(j, 0) - factor * v
                if value:
                    row[j] = value
                else:
                    row.pop(j, None)
            rhs[r] -= factor * new_rhs
        tab[leave] = new_row
        rhs[leave] = new_rhs
        basis[leave] = entering
        pivots += 1
    residue = sum(rhs[r] for r in range(m) if basis[r] >= n_vars)
    return residue == 0, pivots


def check_vertex(rows, n_vars: int, result) -> None:
    """A feasible answer comes with an exact, nonnegative solution of the
    rows, an infeasible one with none."""
    feasible, _, vertex = result
    if not feasible:
        assert vertex is None
        return
    assert len(vertex) == n_vars
    assert all(isinstance(x, Fraction) and x >= 0 for x in vertex)
    for coeffs, b in rows:
        assert sum(c * vertex[v] for v, c in coeffs.items()) == b


def echelon(result):
    """An elimination result with each row's coefficient order spelled out."""
    consistent, pivots, rows = result
    return consistent, pivots, [(list(r.coeffs.items()), r.rhs, r.kind) for r in rows]


@st.composite
def linear_rows(draw, kinds=(flows._EQ, flows._GE)):
    """Small systems: non-unit and negative coefficients, explicit zero
    entries, negative right-hand sides, all-zero rows, inequality rows."""
    n_vars = draw(st.integers(1, 6))
    coeffs = st.dictionaries(st.integers(0, n_vars - 1), st.integers(-4, 4),
                             max_size=n_vars)
    rows = draw(st.lists(st.builds(flows._Row, coeffs, st.integers(-5, 5),
                                   st.sampled_from(kinds)), max_size=8))
    return rows, n_vars


INCONSISTENT = (
    [flows._Row({0: 1, 1: 1}, 1, flows._EQ), flows._Row({0: 2, 1: 2}, 3, flows._EQ)],
    2,
)
ZERO_ROWS = (
    [flows._Row({0: 0}, 0, flows._EQ), flows._Row({1: -3}, -6, flows._EQ),
     flows._Row({}, 4, flows._GE)],
    2,
)


@settings(max_examples=200, deadline=None)
@given(linear_rows())
@example(INCONSISTENT)
@example(ZERO_ROWS)
def test_eliminate_matches_dense_reference(system):
    rows, n_vars = system
    assert echelon(flows._eliminate(rows, n_vars)) == \
        echelon(reference_eliminate(rows, n_vars))


@settings(max_examples=200, deadline=None)
@given(linear_rows(kinds=(flows._EQ,)))
@example(([], 1))
@example(INCONSISTENT)
@example(ZERO_ROWS)
def test_lp_feasible_matches_dense_reference(system):
    rows, n_vars = system
    lp_rows = [(row.coeffs, row.rhs) for row in rows]
    result = flows._lp_feasible(lp_rows, n_vars)
    assert result[:2] == reference_lp_feasible(lp_rows, n_vars)
    check_vertex(lp_rows, n_vars, result)


@st.composite
def feasible_lp_rows(draw):
    """(rows, n_vars) with a nonnegative rational solution: each row is
    taken through a drawn point and scaled to integers."""
    n_vars = draw(st.integers(1, 10))
    point = [Fraction(draw(st.integers(0, 6)), draw(st.integers(1, 3)))
             for _ in range(n_vars)]
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        coeffs = draw(st.dictionaries(st.integers(0, n_vars - 1), st.integers(-4, 4),
                                      max_size=n_vars))
        value = sum(c * point[v] for v, c in coeffs.items())
        scale = value.denominator if coeffs else 1
        rows.append(({v: scale * c for v, c in coeffs.items()}, int(scale * value)))
    return rows, n_vars


@settings(max_examples=300, deadline=None)
@given(feasible_lp_rows())
def test_lp_vertex_solves_its_rows(system):
    rows, n_vars = system
    result = flows._lp_feasible(rows, n_vars)
    assert result[0]
    check_vertex(rows, n_vars, result)


# The node relaxation contracts every row c*x_a - c*x_b = 0 before the
# simplex runs.  Its answer must be the dense reference's on the rows it
# would hand the simplex without contracting, and the vertex it lifts
# back must solve the rows it was given, inside the node's intervals.

# the upper bound of an uncapped variable, standing for the search box
WIDE = 10 ** 12


def uncontracted_rows(rows, intervals, capped):
    """(lp_rows, n_cols) of a node before contraction: lower bounds
    shifted out, fixed variables substituted, a slack column for each >=
    row and for each capped variable's upper bound."""
    n_cols = len(intervals)
    out = []
    for row in rows:
        coeffs = {v: c for v, c in row.coeffs.items()
                  if c and intervals[v][0] < intervals[v][1]}
        rhs = row.rhs - sum(c * intervals[v][0] for v, c in row.coeffs.items())
        if row.kind == flows._GE:
            coeffs[n_cols] = -1
            n_cols += 1
        out.append((coeffs, rhs))
    for v in sorted(capped):
        lo, hi = intervals[v]
        if lo < hi:
            out.append(({v: 1, n_cols: 1}, hi - lo))
            n_cols += 1
    return out, n_cols


def _two_terms(a: int, b: int, c: int) -> dict:
    """c*x_a - c*x_b; an explicit 0 for x_a when a == b."""
    coeffs = {a: c}
    coeffs[b] = coeffs.get(b, 0) - c
    return coeffs


@st.composite
def relaxation_systems(draw):
    """(rows, intervals, capped): chains of two-term rows c*x_a - c*x_b,
    mostly with right-hand side 0; rows that cancel to nothing once the
    columns of two such rows are merged; random equality and >= rows;
    and per variable a fixed, a capped or an uncapped interval."""
    n_vars = draw(st.integers(2, 7))
    var = st.integers(0, n_vars - 1)
    rhs = st.sampled_from((0, 0, 0, 1, -2))
    rows, pairs = [], []
    for _ in range(draw(st.integers(0, 3))):
        chain = draw(st.lists(var, min_size=2, max_size=5))
        c = draw(st.sampled_from((1, -1, 2, -3)))
        for a, b in zip(chain, chain[1:]):
            pairs.append((a, b))
            rows.append(flows._Row(_two_terms(a, b, c), draw(rhs), flows._EQ))
    for _ in range(draw(st.integers(0, 2)) if len(pairs) > 1 else 0):
        (a, b), (d, e) = draw(st.lists(st.sampled_from(pairs), min_size=2, max_size=2))
        coeffs = _two_terms(a, b, draw(st.sampled_from((1, -2))))
        for v, c in _two_terms(d, e, draw(st.sampled_from((1, 3)))).items():
            coeffs[v] = coeffs.get(v, 0) + c
        rows.append(flows._Row(coeffs, draw(rhs), flows._EQ))
    coeffs = st.dictionaries(var, st.integers(-4, 4), max_size=n_vars)
    rows += draw(st.lists(st.builds(flows._Row, coeffs, st.integers(-5, 5),
                                    st.sampled_from((flows._EQ, flows._GE))),
                          max_size=4))
    intervals, capped = [], set()
    for v in range(n_vars):
        lo = draw(st.integers(0, 3))
        kind = draw(st.sampled_from(("fixed", "capped", "uncapped")))
        if kind == "fixed":
            intervals.append((lo, lo))
        elif kind == "capped":
            intervals.append((lo, lo + draw(st.integers(0, 4))))
            capped.add(v)
        else:
            intervals.append((lo, WIDE))
    return draw(st.permutations(rows)), intervals, frozenset(capped)


# x0 = x1 = x2 and x0 - x2 = 1: the merged row cancels to 0 = 1
CANCELLING_CHAIN = (
    [flows._Row({0: 1, 1: -1}, 0, flows._EQ), flows._Row({1: 2, 2: -2}, 0, flows._EQ),
     flows._Row({0: 1, 2: -1}, 1, flows._EQ)],
    [(0, WIDE)] * 3, frozenset(),
)
# x0 >= 0 becomes x0 - s = 0, which merges x0 into its slack s, and the
# cap x0 + t = 2 then reads s + t = 2
CAPPED_GE = (
    [flows._Row({0: 1}, 0, flows._GE), flows._Row({0: 1, 1: 1}, 3, flows._EQ)],
    [(0, 2), (0, WIDE)], frozenset({0}),
)

# a row of explicit zeros says nothing about x0 and x1
ZERO_PAIR = (
    [flows._Row({0: 0, 1: 0}, 0, flows._EQ), flows._Row({0: 1}, 1, flows._EQ),
     flows._Row({1: 1}, 2, flows._EQ)],
    [(0, WIDE)] * 2, frozenset(),
)


@settings(max_examples=300, deadline=None)
@given(relaxation_systems())
@example(CANCELLING_CHAIN)
@example(CAPPED_GE)
@example(ZERO_PAIR)
def test_relaxation_contracts_without_changing_the_answer(system):
    rows, intervals, capped = system
    _, vertex = flows._relaxation(rows, intervals, capped)
    lp_rows, n_cols = uncontracted_rows(rows, intervals, capped)
    assert (vertex is not None) == reference_lp_feasible(lp_rows, n_cols)[0]
    contracted = flows._contract(lp_rows)
    if contracted is not None:
        for coeffs, rhs in contracted[0]:
            assert coeffs
            two = len(coeffs) == 2 and not rhs
            assert not (two and sum(coeffs.values()) == 0), coeffs
    if vertex is None:
        return
    for row in rows:
        value = sum(c * vertex[v] for v, c in row.coeffs.items())
        assert value == row.rhs if row.kind == flows._EQ else value >= row.rhs
    for x, (lo, hi) in zip(vertex, intervals):
        assert lo <= x <= hi


def anbncn_word_product(word: str) -> FlowSystem:
    machine = load_machine(fixture_path("anbncn.ncm"))
    product = intersect_regular(machine, _word_nfa(tuple(word), machine.alphabet))
    return to_flow_system(phase_automaton(product))


@pytest.mark.parametrize("word, accepted", [
    ("a" * 16 + "b" * 16 + "c" * 16, True), ("a" * 16 + "b" * 16 + "c" * 15, False)])
def test_word_product_gate_lp_after_contraction(word, accepted):
    # Most rows of a word product's system say that one edge of the
    # word's chain is used as often as the next.  Contracted, the gate LP
    # of `member anbncn` on these words takes 1 pivot; without the
    # contraction it took 81 and 83.
    stats: dict = {}
    result = solve(anbncn_word_product(word), stats=stats)
    assert isinstance(result, FlowWitness) is accepted
    assert stats["lp_pivots"] == 1


def fixture_systems():
    """(name, flow system, kept edges, growth class, assembled problem)
    for every fixture, without the pump circulation (growth class None)
    and with it."""
    out = []
    for path in sorted(FIXTURES.glob("*.ncm")):
        fs = to_flow_system(phase_automaton(load_machine(str(path))))
        kept, kept_sinks = flows._trim(fs)
        for growth in (None, INPUT_CLASS):
            problem = flows._assemble(fs, kept, kept_sinks, growth)
            out.append((f"{path.stem}/{growth}", fs, kept, growth, problem))
    return out


def record_lp_systems(monkeypatch):
    """Make every _lp_feasible call append (rows, n_vars, result)."""
    seen = []
    real = flows._lp_feasible

    def spy(rows, n_vars):
        result = real(rows, n_vars)
        seen.append(([(dict(c), b) for c, b in rows], n_vars, result))
        return result

    monkeypatch.setattr(flows, "_lp_feasible", spy)
    return seen


def solve_briefly(fs, growth, stats=None):
    """solve, or solve_unbounded for a growth class, cut off after 50
    search nodes: the LP runs before the search."""
    try:
        if growth is None:
            solve(fs, Budget(limit=50), stats=stats)
        else:
            solve_unbounded(fs, growth, Budget(limit=50), stats=stats)
    except ResourceBudgetError:
        pass


SYSTEMS = fixture_systems()
on_fixture_systems = pytest.mark.parametrize(
    "name, fs, kept, growth, problem", SYSTEMS, ids=[s[0] for s in SYSTEMS])


class TestExactAlgebraOnFixtures:
    def test_every_fixture_is_covered(self):
        assert len(SYSTEMS) == 2 * len(list(FIXTURES.glob("*.ncm"))) > 0

    @on_fixture_systems
    def test_eliminate(self, name, fs, kept, growth, problem):
        n_vars = len(problem.var_names)
        assert echelon(flows._eliminate(problem.rows, n_vars)) == \
            echelon(reference_eliminate(problem.rows, n_vars))

    @on_fixture_systems
    def test_lp_feasible(self, monkeypatch, name, fs, kept, growth, problem):
        seen = record_lp_systems(monkeypatch)
        solve_briefly(fs, growth)
        monkeypatch.undo()
        assert seen
        # the LPs the solver runs are contracted; the gate's two blocks
        # of rows before contraction make larger ones with more pivots
        root = [(lo, problem.box) for lo in problem.lowers]
        z_vars = set(problem.z_of_edge.values())
        for circulation in (True, False):
            block = [row for row in problem.rows
                     if z_vars.isdisjoint(row.coeffs) is not circulation]
            seen.append((*uncontracted_rows(block, root, ()), None))
        for rows, n_vars, _ in seen:
            result = flows._lp_feasible(rows, n_vars)
            assert result[:2] == reference_lp_feasible(rows, n_vars)
            check_vertex(rows, n_vars, result)

    @on_fixture_systems
    def test_stats_count_lp_pivots(self, monkeypatch, name, fs, kept, growth,
                                   problem):
        seen = record_lp_systems(monkeypatch)
        stats: dict = {}
        solve_briefly(fs, growth, stats)
        assert seen
        assert stats["lp_pivots"] == sum(pivots for _, _, (_, pivots, _) in seen)


# ---------------------------------------------------------------------------
# Interval propagation against the full-sweep reference.
#
# reference_propagate is the propagation that flows._propagate replaced:
# it sweeps every row in order until a sweep changes nothing, without
# tracking which rows could change.  It is kept as a reference, with a
# counter of row visits and sweeps added.  The event-driven propagation
# skips only rows that would change nothing, so from the same intervals
# both must end with the same intervals, also when they stop at a
# contradiction or at the sweep cap.


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


def _floor_div(a: int, b: int) -> int:
    return a // b


def reference_propagate(rows, intervals: list, sweeps: int = 60,
                        counts: dict | None = None) -> bool:
    """Tighten [lo, hi] intervals against the rows; False on contradiction.

    counts, when given, gets the row visits ('visits') and the sweeps
    begun ('sweeps')."""
    if counts is not None:
        counts.setdefault("visits", 0)
        counts.setdefault("sweeps", 0)
    for _ in range(sweeps):
        changed = False
        if counts is not None:
            counts["sweeps"] += 1
        for row in rows:
            if counts is not None:
                counts["visits"] += 1
            lo_sum = 0
            hi_sum = 0
            for v, c in row.coeffs.items():
                lo, hi = intervals[v]
                if c >= 0:
                    lo_sum += c * lo
                    hi_sum += c * hi
                else:
                    lo_sum += c * hi
                    hi_sum += c * lo
            if row.kind == flows._EQ:
                if row.rhs < lo_sum or row.rhs > hi_sum:
                    return False
                g = 0
                fixed_part = 0
                any_unfixed = False
                for v, c in row.coeffs.items():
                    if intervals[v][0] == intervals[v][1]:
                        fixed_part += c * intervals[v][0]
                    else:
                        any_unfixed = True
                        g = gcd(g, abs(c))
                if not any_unfixed:
                    if fixed_part != row.rhs:
                        return False
                elif g and (row.rhs - fixed_part) % g != 0:
                    return False
            else:
                if hi_sum < row.rhs:
                    return False
            for v, c in row.coeffs.items():
                lo, hi = intervals[v]
                if c >= 0:
                    rest_lo = lo_sum - c * lo
                    rest_hi = hi_sum - c * hi
                else:
                    rest_lo = lo_sum - c * hi
                    rest_hi = hi_sum - c * lo
                needed_low = row.rhs - rest_hi
                if c > 0:
                    new_lo = max(lo, _ceil_div(needed_low, c))
                    new_hi = hi
                    if row.kind == flows._EQ:
                        new_hi = min(hi, _floor_div(row.rhs - rest_lo, c))
                else:
                    new_hi = min(hi, _floor_div(needed_low, c))
                    new_lo = lo
                    if row.kind == flows._EQ:
                        new_lo = max(lo, _ceil_div(row.rhs - rest_lo, c))
                if new_lo > new_hi:
                    return False
                if (new_lo, new_hi) != (lo, hi):
                    intervals[v] = (new_lo, new_hi)
                    changed = True
        if not changed:
            return True
    return True


# About the size of the search box of the larger fixtures (1,673 bits).
HUGE = 2 ** 1672 + 12345


@st.composite
def propagation_systems(draw, shifted=True, min_vars=1):
    """Rows with negative and non-unit coefficients (never zero: the
    assembled rows hold none), _EQ and _GE rows, and intervals of which
    some are fixed and some reach up to a huge bound.  The right-hand
    sides come from a point inside the intervals, so that the system is
    feasible; with shifted, some are moved off it."""
    n_vars = draw(st.integers(min_vars, 6))
    intervals, point = [], []
    for _ in range(n_vars):
        lo = draw(st.integers(0, 5))
        hi = draw(st.one_of(st.just(lo), st.integers(lo, lo + 8), st.just(HUGE)))
        intervals.append((lo, hi))
        point.append(draw(st.integers(lo, min(hi, lo + 8))))
    coeff = st.sampled_from((-4, -3, -2, -1, 1, 2, 3, 4))
    rows = []
    for _ in range(draw(st.integers(1, max(n_vars, 8 if shifted else 4)))):
        coeffs = draw(st.dictionaries(st.integers(0, n_vars - 1), coeff,
                                      min_size=1, max_size=n_vars))
        kind = draw(st.sampled_from((flows._EQ, flows._GE)))
        value = sum(c * point[v] for v, c in coeffs.items())
        shift = draw(st.one_of(st.just(0), st.integers(-3, 3))) if shifted else 0
        if kind == flows._GE:
            shift -= draw(st.integers(0, 3))
        rows.append(flows._Row(coeffs, value + shift, kind))
    return rows, n_vars, intervals


def event_propagate(rows, n_vars, intervals, dirty_vars=None, sweeps=60):
    """flows._propagate on a copy of intervals, with the rows of
    dirty_vars dirty (all rows when None): (outcome, moved, visits,
    final intervals)."""
    occurs = flows._occurrences(rows, n_vars)
    dirty = None
    if dirty_vars is not None:
        dirty = 0
        for v in dirty_vars:
            dirty |= occurs[v]
    out = list(intervals)
    outcome, moved, visits = flows._propagate(rows, occurs, out, dirty, sweeps)
    return outcome, moved, visits, out


# x0 - x1 = 1 and x0 - x1 = 0 contradict each other, but within huge
# bounds every sweep only takes 1 off each side of both intervals.
SLOW = ([flows._Row({0: 1, 1: -1}, 1, flows._EQ),
         flows._Row({0: 1, 1: -1}, 0, flows._EQ)], 2, [(0, HUGE), (0, HUGE)])


# Sweep caps: small ones stop most systems in mid-propagation, where the
# intervals depend on the order of the row visits, not only on the rows.
CAPS = st.sampled_from((1, 2, 3, 60))


@settings(max_examples=300, deadline=None)
@given(propagation_systems(), CAPS)
@example(SLOW, 60)
def test_propagate_matches_sweep_reference(system, sweeps):
    rows, n_vars, intervals = system
    expected = list(intervals)
    counts: dict = {}
    feasible = reference_propagate(rows, expected, sweeps, counts)
    outcome, moved, visits, got = event_propagate(rows, n_vars, intervals,
                                                  sweeps=sweeps)
    assert (outcome != flows._CONTRADICTION) == feasible
    assert got == expected
    assert moved == {v for v in range(n_vars) if got[v] != intervals[v]}
    assert visits <= counts["visits"]
    if outcome == flows._FIXPOINT:
        # one more full sweep changes nothing
        again = list(got)
        assert reference_propagate(rows, again, sweeps=1)
        assert again == got
    elif outcome == flows._CAPPED:
        assert counts["sweeps"] == sweeps


@settings(max_examples=300, deadline=None)
@given(propagation_systems(shifted=False, min_vars=2), CAPS, st.data())
def test_incremental_propagation_matches_full_reference(system, sweeps, data):
    """From a fixpoint, narrowing one variable and revisiting only its
    rows gives what full sweeps give, sweep for sweep."""
    rows, n_vars, intervals = system
    fixpoint = list(intervals)
    counts: dict = {}
    assume(reference_propagate(rows, fixpoint, counts=counts))
    assume(counts["sweeps"] < 60)
    open_vars = [v for v in range(n_vars) if fixpoint[v][0] < fixpoint[v][1]]
    assume(open_vars)
    v = data.draw(st.sampled_from(open_vars))
    lo, hi = fixpoint[v]
    step = data.draw(st.integers(0, min(hi - lo - 1, 10)))
    narrowed = list(fixpoint)
    narrowed[v] = data.draw(st.sampled_from(
        ((lo + step, lo + step), (lo + 1 + step, hi), (lo, hi - 1 - step))))
    expected = list(narrowed)
    feasible = reference_propagate(rows, expected, sweeps)
    outcome, _, _, got = event_propagate(rows, n_vars, narrowed, [v], sweeps)
    assert (outcome != flows._CONTRADICTION) == feasible
    assert got == expected


def test_sweep_cap_and_all_dirty_restart():
    rows, n_vars, intervals = SLOW
    expected = list(intervals)
    assert reference_propagate(rows, expected, sweeps=3)
    outcome, moved, _, got = event_propagate(rows, n_vars, intervals, sweeps=3)
    assert outcome == flows._CAPPED
    assert moved == {0, 1}
    assert got == expected == [(3, HUGE - 3), (3, HUGE - 3)]
    # A capped state is no fixpoint, so propagation from it (here with
    # x1 narrowed) starts with every row dirty, as the search does for
    # the children of a capped node.
    narrowed = list(got)
    narrowed[1] = (3, HUGE - 4)
    expected = list(narrowed)
    assert reference_propagate(rows, expected, sweeps=3)
    outcome, _, _, got = event_propagate(rows, n_vars, narrowed, sweeps=3)
    assert outcome == flows._CAPPED
    assert got == expected
    # The contradiction is found once the bounds are small enough.
    small = [(0, 10), (0, 10)]
    assert not reference_propagate(rows, list(small))
    assert event_propagate(rows, n_vars, small)[0] == flows._CONTRADICTION


@on_fixture_systems
def test_root_propagation_on_fixtures(name, fs, kept, growth, problem):
    search = flows._Search(problem, Budget(limit=1), "balanced-walk search")
    root = [(lo, problem.box) for lo in problem.lowers]
    expected = list(root)
    feasible = reference_propagate(search.rows, expected)
    n_vars = len(problem.var_names)
    outcome, _, _, got = event_propagate(search.rows, n_vars, root)
    assert (outcome != flows._CONTRADICTION) == feasible
    assert got == expected


def reference_driven(sweeps: int = 60):
    """A stand-in for flows._propagate that runs the full-sweep reference
    (ignoring the dirty rows) and reports its row visits.  It never
    claims a fixpoint, so the search hands every child all rows dirty."""
    def propagate(rows, occurs, intervals, dirty=None):
        before = list(intervals)
        counts: dict = {}
        feasible = reference_propagate(rows, intervals, sweeps, counts)
        moved = {v for v in range(len(intervals)) if intervals[v] != before[v]}
        outcome = flows._CAPPED if feasible else flows._CONTRADICTION
        return outcome, moved, counts["visits"]
    return propagate


def event_driven(sweeps: int = 60):
    """flows._propagate as the search calls it, under a sweep cap."""
    real = flows._propagate

    def propagate(rows, occurs, intervals, dirty=None):
        return real(rows, occurs, intervals, dirty, sweeps)
    return propagate


def traced_search(monkeypatch, propagate, fs, growth, budget):
    """(result, stats, trace) of solve or solve_unbounded with the given
    propagation.  result is ResourceBudgetError when the node budget runs
    out; trace holds, per expanded node, its outcome and its intervals
    after propagation."""
    trace = []

    def traced(rows, occurs, intervals, dirty=None):
        outcome, moved, visits = propagate(rows, occurs, intervals, dirty)
        trace.append((outcome == flows._CONTRADICTION, tuple(intervals)))
        return outcome, moved, visits

    monkeypatch.setattr(flows, "_propagate", traced)
    stats: dict = {}
    try:
        if growth is None:
            result = solve(fs, Budget(limit=budget), stats=stats)
        else:
            result = solve_unbounded(fs, growth, Budget(limit=budget), stats=stats)
    except ResourceBudgetError:
        result = ResourceBudgetError
    monkeypatch.undo()
    return result, stats, trace


class TestSearchWithReferencePropagation:
    """The search expands the same nodes, with the same intervals, and
    returns the same answer whether its propagation is event-driven or
    the full-sweep reference."""

    @on_fixture_systems
    def test_same_nodes_and_answer(self, monkeypatch, name, fs, kept, growth,
                                   problem):
        result, stats, trace = traced_search(
            monkeypatch, event_driven(), fs, growth, 200)
        expected, expected_stats, expected_trace = traced_search(
            monkeypatch, reference_driven(), fs, growth, 200)
        assert result == expected
        assert trace == expected_trace
        nodes = stats.get("nodes", 0)
        assert nodes == expected_stats.get("nodes", 0)
        # a node over the budget is counted but not expanded
        assert len(trace) == min(nodes, 200)
        assert stats.get("row_visits", 0) <= expected_stats.get("row_visits", 0)

    def test_capped_nodes(self, monkeypatch):
        """With a sweep cap of 1, every node whose propagation changes
        anything stops at the cap, and its children must start with
        every row dirty to match the reference under the same cap."""
        fs = to_flow_system(phase_automaton(load_machine(fixture_path("aibjcidj.ncm"))))
        outcomes = Counter()
        capped = event_driven(sweeps=1)

        def counted(rows, occurs, intervals, dirty=None):
            outcome, moved, visits = capped(rows, occurs, intervals, dirty)
            outcomes[outcome] += 1
            return outcome, moved, visits

        result, stats, trace = traced_search(
            monkeypatch, counted, fs, INPUT_CLASS, 300)
        assert outcomes[flows._CAPPED] > 0
        expected, expected_stats, expected_trace = traced_search(
            monkeypatch, reference_driven(sweeps=1), fs, INPUT_CLASS, 300)
        assert result == expected
        assert trace == expected_trace

    def test_row_visits_against_reference(self, monkeypatch):
        """stats['row_visits'] counts the rows the search visited: for the
        same nodes, a fraction of the full sweeps' visits."""
        fs = to_flow_system(phase_automaton(load_machine(fixture_path("anbncn.ncm"))))
        result, stats, _ = traced_search(
            monkeypatch, event_driven(), fs, INPUT_CLASS, 2000)
        expected, expected_stats, _ = traced_search(
            monkeypatch, reference_driven(), fs, INPUT_CLASS, 2000)
        assert isinstance(result, PumpWitness) and result == expected
        assert stats["nodes"] == expected_stats["nodes"] > 1
        assert stats["nodes"] <= stats["row_visits"] < expected_stats["row_visits"]
