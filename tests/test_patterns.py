"""Instruction patterns: parsing, automata, classification, generators.

The NFA and acceptor checks run against the recursive matcher in
conftest; the generator checks run against direct enumerations of each
family's defining predicate, written here from the definitions.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import expr_matches, words_over
from ncmkit.machine import c_sym, d_sym, instruction_alphabet
from ncmkit.oracle import caps_for, enumerate_language
from ncmkit.patterns import (
    FAMILY_TAGS,
    Alt,
    PatternSyntaxError,
    Plus,
    Seq,
    Shuffle,
    Star,
    Sym,
    all_pattern,
    classify_families,
    eq_acceptor,
    expr_to_nfa,
    generator,
    is_distinct,
    make_expr,
    parse_pattern,
    render,
)

EX2 = "C1* C2* D1* D2*"
EX3 = "(C1 C2)* (C3 C4)* D1* D3* D2* D4*"


def language(machine, max_len: int) -> set:
    sample = enumerate_language(machine, caps_for(max_len))
    assert not sample.truncated
    return sample.as_set()


class TestParsing:
    @pytest.mark.parametrize("text", [
        EX2, EX3, "C1", "(C1 | D1)* C2+", "(C1 # D1)*",
        "C1* (C2 D2 | C1)+ D1*",
    ])
    def test_parse_render_round_trip(self, text):
        expr = parse_pattern(text)
        assert parse_pattern(render(expr)) == expr

    def test_arity_is_max_counter_index(self):
        assert parse_pattern(EX3).k == 4
        assert parse_pattern("C1* D1*").k == 1

    @pytest.mark.parametrize("bad", ["C", "C0*", "C1* (", "C1 |", "*", "x"])
    def test_syntax_errors(self, bad):
        with pytest.raises(PatternSyntaxError):
            parse_pattern(bad)

    def test_postfix_run_is_one_repeat(self):
        assert parse_pattern("C1+++").root == Plus(Sym("C", 1))
        assert parse_pattern("C1+*+").root == Star(Sym("C", 1))
        assert parse_pattern("C1" + "*" * 5000).root == Star(Sym("C", 1))

    def test_interleavings_count_as_nesting(self):
        with pytest.raises(PatternSyntaxError, match="nested more than"):
            parse_pattern("(" + "C1 # " * 2000 + "C1)")


def pattern_trees():
    """Random trees in the shape the parser builds: no Alt directly under
    an Alt and no one-part Seq or Alt, since render flattens those."""
    leaves = st.builds(Sym, st.sampled_from("CD"), st.integers(1, 3))

    def extend(children):
        parts = st.lists(children, min_size=2, max_size=3).map(tuple)
        non_alt = children.filter(lambda n: not isinstance(n, Alt))
        return st.one_of(
            st.builds(Star, children),
            st.builds(Plus, children),
            st.builds(Shuffle, children, children),
            parts.map(Seq),
            st.lists(non_alt, min_size=2, max_size=3).map(tuple).map(Alt),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@settings(max_examples=300, deadline=None)
@given(pattern_trees())
def test_render_parse_round_trip_on_random_trees(tree):
    assert parse_pattern(render(tree)).root == tree


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="CD0123()|*+# ", max_size=30))
def test_random_text_parses_or_raises_syntax_error(text):
    try:
        expr = parse_pattern(text)
    except PatternSyntaxError:
        return
    assert parse_pattern(render(expr)) == expr


class TestExprToNfa:
    @pytest.mark.parametrize("text", [
        EX2, "C1* D1*", "(C1 | D1)*", "(C1 C2)* D1+",
        "(C1 # D1)", "(C1 C1 # D1)*", "C1+ (C2 | D2 D1)*",
    ])
    def test_agrees_with_recursive_matcher_exhaustively(self, text):
        expr = parse_pattern(text)
        nfa = expr_to_nfa(expr)
        for word in words_over(instruction_alphabet(expr.k), 5):
            assert nfa.accepts(word) == expr_matches(expr, word), word

    def test_agrees_on_random_words(self):
        rng = random.Random(7)
        exprs = [parse_pattern(t) for t in (EX2, EX3, "(C1 D1 # C2 D2)*")]
        for expr in exprs:
            nfa = expr_to_nfa(expr)
            letters = instruction_alphabet(expr.k)
            for _ in range(350):
                word = tuple(rng.choice(letters)
                             for _ in range(rng.randint(0, 9)))
                assert nfa.accepts(word) == expr_matches(expr, word), word


class TestClassification:
    def test_ex2_pattern_is_everything_but_stratified(self):
        tags = classify_families(parse_pattern(EX2))
        assert tags == frozenset(FAMILY_TAGS) - {"StLB"}

    def test_ex3_pattern_tags_exactly(self):
        tags = classify_families(parse_pattern(EX3))
        assert tags == frozenset({"BDiLBd", "BD", "LBd", "ALL"})

    def test_stratified_membership(self):
        yes = "C1* C2* C3* D3* C2* D2* C1* D1*"
        no = "C1* C2* C3* D3* C2* D2* C1* D2* C1* D1*"
        assert "StLB" in classify_families(parse_pattern(yes))
        assert "StLB" not in classify_families(parse_pattern(no))

    def test_union_intersects_disjunct_tags(self):
        tags = classify_families(parse_pattern("C1* D1* | (C1 D1)*"))
        assert "LB" not in tags
        assert "BD" in tags

    def test_union_under_star_defeats_templates(self):
        tags = classify_families(parse_pattern("(C1 D2 | C2 D1)*"))
        assert tags == frozenset({"ALL"})

    def test_projection_templates_survive_union_under_star(self):
        tags = classify_families(parse_pattern("((C1 | D1) C1)*"))
        assert tags == frozenset({"ALL", "LBd", "LBi", "LBunion"})

    def test_empty_concat_belongs_to_every_template(self):
        tags = classify_families(make_expr(Seq(())))
        assert tags == frozenset(FAMILY_TAGS)

    def test_template_subsumptions_on_random_star_patterns(self):
        rng = random.Random(11)
        letters = [Sym("C", 1), Sym("D", 1), Sym("C", 2), Sym("D", 2)]
        for _ in range(120):
            n = rng.randint(1, 5)
            parts = []
            for _ in range(n):
                size = rng.randint(1, 3)
                body = [rng.choice(letters) for _ in range(size)]
                parts.append(Star(body[0] if size == 1 else Seq(tuple(body))))
            tags = classify_families(make_expr(Seq(tuple(parts))))
            if "LB" in tags:
                assert "BD" in tags
            if "LBiLBd" in tags:
                assert "LB" in tags
            if "SBD" in tags:
                assert "BD" in tags
            assert "ALL" in tags

    def test_distinct_letters_predicate(self):
        assert is_distinct(parse_pattern(EX3))
        assert not is_distinct(parse_pattern("C1* C2* C1* D1* D2*"))
        assert not is_distinct(parse_pattern("C1* D1* | C1* D1* D1*"))


class TestEqAcceptor:
    def test_c1_star_d1_star(self):
        machine = eq_acceptor(parse_pattern("C1* D1*"))
        expected = {tuple(["C1"] * n + ["D1"] * n) for n in range(5)}
        assert language(machine, 8) == expected

    def test_ex2_pattern_language(self):
        machine = eq_acceptor(parse_pattern(EX2))
        expected = {
            tuple(["C1"] * i + ["C2"] * j + ["D1"] * i + ["D2"] * j)
            for i in range(5) for j in range(5) if i + j <= 4
        }
        assert language(machine, 8) == expected

    def test_members_are_balanced_ordered_and_in_the_pattern(self):
        for text in (EX2, "(C1 C2)* D1* D2*", "C1* (C2 | D1)* D2*"):
            expr = parse_pattern(text)
            machine = eq_acceptor(expr)
            for word in language(machine, 8):
                assert expr_matches(expr, word), word
                for i in range(1, expr.k + 1):
                    c, d = c_sym(i), d_sym(i)
                    assert word.count(c) == word.count(d), word
                    if c in word and d in word:
                        last_c = max(p for p, s in enumerate(word) if s == c)
                        first_d = min(p for p, s in enumerate(word) if s == d)
                        assert last_c < first_d, word


# ---------------------------------------------------------------------------
# Family-generator predicates, enumerated straight off the definitions.


def _perm_words(letters, exps):
    out = []
    for letter, e in zip(letters, exps):
        out.extend([letter] * e)
    return tuple(out)


def lb_language(k: int, max_len: int) -> set:
    """Permutation of all 2k letters, C_j before D_j, paired exponents."""
    out = set()
    for perm in itertools.permutations(instruction_alphabet(k)):
        if any(perm.index(c_sym(j)) > perm.index(d_sym(j))
               for j in range(1, k + 1)):
            continue
        for exps in itertools.product(range(max_len // 2 + 1), repeat=k):
            if 2 * sum(exps) > max_len:
                continue
            by_letter = {}
            for j in range(1, k + 1):
                by_letter[c_sym(j)] = exps[j - 1]
                by_letter[d_sym(j)] = exps[j - 1]
            out.add(_perm_words(perm, [by_letter[a] for a in perm]))
    return out


def lbilbd_language(k: int, max_len: int) -> set:
    """Increase permutation then decrease permutation, paired exponents."""
    out = set()
    ups = [c_sym(i) for i in range(1, k + 1)]
    downs = [d_sym(i) for i in range(1, k + 1)]
    for aperm in itertools.permutations(ups):
        for bperm in itertools.permutations(downs):
            for exps in itertools.product(range(max_len // 2 + 1), repeat=k):
                if 2 * sum(exps) > max_len:
                    continue
                word = _perm_words(
                    aperm, [exps[int(a[1:]) - 1] for a in aperm])
                word += _perm_words(
                    bperm, [exps[int(b[1:]) - 1] for b in bperm])
                out.add(word)
    return out


def _letter_partitions(letters):
    """Ordered partitions of the letters into nonempty ordered words."""
    if not letters:
        yield ()
        return
    items = list(letters)
    for size in range(1, len(items) + 1):
        for chosen in itertools.permutations(items, size):
            rest = [x for x in items if x not in chosen]
            for tail in _letter_partitions(rest):
                yield (chosen,) + tail


def bdilbd_language(k: int, max_len: int) -> set:
    """Repeated increase words, then D_1..D_k runs copying the exponents."""
    out = set()
    for words in _letter_partitions([c_sym(i) for i in range(1, k + 1)]):
        m = len(words)
        cap = max_len // 2 if words else 0
        for xs in itertools.product(range(1, cap + 1), repeat=m):
            ys = {}
            for j, w in enumerate(words):
                for letter in w:
                    ys[int(letter[1:])] = xs[j]
            word = []
            for j, w in enumerate(words):
                word.extend(list(w) * xs[j])
            for i in range(1, k + 1):
                word.extend([d_sym(i)] * ys[i])
            if len(word) <= max_len:
                out.add(tuple(word))
    return out


def lbibdd_language(k: int, max_len: int) -> set:
    """C_1..C_k runs, then repeated decrease words copying the exponents."""
    out = set()
    for words in _letter_partitions([d_sym(i) for i in range(1, k + 1)]):
        m = len(words)
        cap = max_len // 2 if words else 0
        for xs in itertools.product(range(1, cap + 1), repeat=m):
            ys = {}
            for j, w in enumerate(words):
                for letter in w:
                    ys[int(letter[1:])] = xs[j]
            word = []
            for i in range(1, k + 1):
                word.extend([c_sym(i)] * ys[i])
            for j, w in enumerate(words):
                word.extend(list(w) * xs[j])
            if len(word) <= max_len:
                out.add(tuple(word))
    return out


def _segment_words(alphabet, budget):
    """All words over the alphabet with length <= budget."""
    for n in range(budget + 1):
        yield from itertools.product(sorted(alphabet), repeat=n)


def lbd_language(k: int, max_len: int) -> set:
    """Segments w_0..w_k, w_i over {C_{i+1}..C_k, D_i}; the D_j count of
    segment j equals the C_j count of everything before it, positive."""
    out = set()

    def extend(i, prefix, counts):
        if i > k:
            out.add(tuple(prefix))
            return
        alphabet = [c_sym(j) for j in range(i + 1, k + 1)]
        if i >= 1:
            alphabet.append(d_sym(i))
        for seg in _segment_words(alphabet, max_len - len(prefix)):
            if i >= 1:
                need = counts.get(c_sym(i), 0)
                if need == 0 or list(seg).count(d_sym(i)) != need:
                    continue
            nxt = dict(counts)
            for s in seg:
                nxt[s] = nxt.get(s, 0) + 1
            extend(i + 1, prefix + list(seg), nxt)

    extend(0, [], {})
    return out


def lbi_language(k: int, max_len: int) -> set:
    """Segments w_0..w_k, w_i over {D_1..D_i, C_{i+1}}; the C_j count of
    segment j-1 equals the D_j count of everything after it, positive."""
    out = set()

    def extend(i, segments):
        if i > k:
            word = [s for seg in segments for s in seg]
            for j in range(1, k + 1):
                need = list(segments[j - 1]).count(c_sym(j))
                have = sum(list(seg).count(d_sym(j)) for seg in segments[j:])
                if need != have or need == 0:
                    return
            out.add(tuple(word))
            return
        used = sum(len(seg) for seg in segments)
        alphabet = [d_sym(j) for j in range(1, i + 1)]
        if i < k:
            alphabet.append(c_sym(i + 1))
        for seg in _segment_words(alphabet, max_len - used):
            extend(i + 1, segments + [seg])

    extend(0, [])
    return out


PREDICATES = {
    "LB": lb_language,
    "LBiLBd": lbilbd_language,
    "BDiLBd": bdilbd_language,
    "LBiBDd": lbibdd_language,
    "LBd": lbd_language,
    "LBi": lbi_language,
}


class TestGenerators:
    @pytest.mark.parametrize("tag", sorted(PREDICATES))
    @pytest.mark.parametrize("k", [1, 2])
    def test_language_equals_predicate(self, tag, k):
        horizon = 8
        machine = generator(tag, k)
        assert language(machine, horizon) == PREDICATES[tag](k, horizon)

    def test_lb1_members_of_c1d1_shape(self):
        words = language(generator("LB", 1), 10)
        shaped = {w for w in words
                  if w == tuple(["C1"] * w.count("C1") + ["D1"] * w.count("D1"))}
        assert shaped == {tuple(["C1"] * n + ["D1"] * n) for n in range(6)}

    def test_lbd1_is_positive_balanced_blocks(self):
        words = language(generator("LBd", 1), 10)
        assert words == {tuple(["C1"] * n + ["D1"] * n) for n in range(1, 6)}

    def test_bdilbd2_accepts_c1c2_cubed(self):
        target = tuple(["C1", "C2"] * 3 + ["D1"] * 3 + ["D2"] * 3)
        assert target in bdilbd_language(2, 12)
        assert target in language(generator("BDiLBd", 2), 12)

    def test_unknown_tag_rejected(self):
        with pytest.raises(ValueError):
            generator("BD", 1)


class TestAllPattern:
    def test_all_pattern_matches_everything(self):
        expr = all_pattern(2)
        nfa = expr_to_nfa(expr)
        for word in words_over(instruction_alphabet(2), 3):
            assert nfa.accepts(word)
