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
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ncmkit import flows
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
from ncmkit.nfa import ResourceBudgetError
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


def walk_multisets(fs: FlowSystem, max_edges: int) -> set:
    """Usage multisets of all feasible source-to-sink walks, brute force."""
    by_src: dict = {}
    for e in fs.edges:
        by_src.setdefault(e.src, []).append(e)
    found = set()

    def ok(counts: Counter) -> bool:
        for e in fs.edges:
            if counts[e.eid] < e.lower:
                return False
        for cls_a, cls_b in fs.balance_pairs:
            total_a = sum(counts[e.eid] for e in fs.class_edges(cls_a))
            total_b = sum(counts[e.eid] for e in fs.class_edges(cls_b))
            if total_a != total_b:
                return False
        if fs.positive_class is not None:
            total = sum(counts[e.eid]
                        for e in fs.class_edges(fs.positive_class))
            if total < 1:
                return False
        return True

    def rec(node: str, counts: Counter, depth: int) -> None:
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

    def test_positive_class_forces_usage(self):
        fs = FlowSystem(
            nodes=frozenset({"s", "t"}),
            edges=(
                FlowEdge("short", "s", "t"),
                FlowEdge("marked", "s", "t", frozenset({"M"})),
            ),
            source="s",
            sinks=frozenset({"t"}),
            positive_class="M",
        )
        witness = solve(fs)
        assert isinstance(witness, FlowWitness)
        assert witness.multiplicities["marked"] >= 1
        assert validate_witness(fs, witness) == []

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

    def test_node_budget(self):
        with pytest.raises(ResourceBudgetError):
            solve(two_node_system(), node_budget=0)

    def test_stats_report_node_count(self):
        stats: dict = {}
        solve(two_node_system(), stats=stats)
        assert stats["nodes"] >= 1

    def test_random_systems_agree_with_brute_force(self):
        rng = random.Random(1312)
        nodes = ("n0", "n1", "n2")
        classes = ("C1", "D1")
        for trial in range(120):
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
                positive_class="C1" if rng.random() < 0.3 else None,
            )
            result = solve(fs)
            reachable = walk_multisets(fs, 6)
            if isinstance(result, FlowWitness):
                assert validate_witness(fs, result) == [], trial
            else:
                assert reachable == set(), (trial, reachable)


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
            dict(witness.multiplicities, b=5), witness.walk,
            witness.sink, witness.box_bound, witness.bound_note)
        assert validate_witness(fs, bumped) != []


# ---------------------------------------------------------------------------
# The exact linear algebra against dense rational references.
#
# The two functions below are the dense Fraction versions of
# flows._eliminate and flows._lp_feasible that the sparse integer ones
# replaced, kept as references; the simplex also counts its pivots.
# The sparse routines must give the same pivots, the same rows with the
# same coefficient order, the same answers and the same pivot counts.


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
        new_row = {j: v / pivot for j, v in tab[leave].items()}
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
    assert flows._lp_feasible(lp_rows, n_vars) == \
        reference_lp_feasible(lp_rows, n_vars)


def fixture_systems():
    """(name, flow system, kept edges, growth class, assembled problem)
    for every fixture, without the pump circulation (growth class None)
    and with it."""
    out = []
    for path in sorted(FIXTURES.glob("*.ncm")):
        fs = to_flow_system(phase_automaton(load_machine(str(path))))
        kept, kept_sinks = flows._trim(fs)
        for growth in (None, INPUT_CLASS):
            problem, _ = flows._assemble(fs, kept, kept_sinks,
                                         growth is not None, growth)
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
        flows._problem_lp_feasible(problem)
        if growth is not None:
            flows._growth_circulation_possible(kept, fs.balance_pairs, growth)
        assert seen
        for rows, n_vars, result in seen:
            assert result == reference_lp_feasible(rows, n_vars)

    @on_fixture_systems
    def test_stats_count_lp_pivots(self, monkeypatch, name, fs, kept, growth,
                                   problem):
        seen = record_lp_systems(monkeypatch)
        stats: dict = {}
        try:
            if growth is None:
                solve(fs, node_budget=50, stats=stats)
            else:
                solve_unbounded(fs, growth, node_budget=50, stats=stats)
        except ResourceBudgetError:
            pass
        assert seen
        assert stats["lp_pivots"] == sum(pivots for _, _, (_, pivots) in seen)
