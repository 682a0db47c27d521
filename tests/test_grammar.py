"""Grammar analyses against hand-worked and brute-force oracles."""

import pickle
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachbench.grammar import (
    EOI,
    Grammar,
    GrammarError,
    Rule,
    check_ll1,
    check_productivity,
    compute_first_follow,
    parse_grammar,
    reachable_nonterminals,
    serialize_grammar,
)

from conftest import derive_strings

PLUS, ZERO, ONE = 43, 48, 49


def mk(nts, rules, start, terminals=None, unreachable=(), dead=()):
    if terminals is None:
        terminals = {s for _, rhs in rules for s in rhs if isinstance(s, int)}
    return Grammar(
        nonterminals=tuple(nts),
        terminals=frozenset(terminals),
        rules=tuple(Rule(i, lhs, tuple(rhs)) for i, (lhs, rhs) in enumerate(rules)),
        start=start,
        unreachable_marks=tuple(unreachable),
        dead_marks=tuple(dead),
    )


@pytest.fixture
def expr_grammar():
    # E -> D Es ; Es -> '+' D Es | eps ; D -> '0' | '1'
    return mk(
        ["E", "Es", "D"],
        [
            ("E", ["D", "Es"]),
            ("Es", [PLUS, "D", "Es"]),
            ("Es", []),
            ("D", [ZERO]),
            ("D", [ONE]),
        ],
        "E",
    )


class TestFirstFollow:
    def test_hand_worked_expression_grammar(self, expr_grammar):
        t = compute_first_follow(expr_grammar)
        assert t.first["D"] == {ZERO, ONE}
        assert t.first["Es"] == {PLUS}
        assert t.first["E"] == {ZERO, ONE}
        assert t.nullable == {"Es"}
        assert t.follow["E"] == {EOI}
        assert t.follow["Es"] == {EOI}
        assert t.follow["D"] == {PLUS, EOI}

    def test_predict_sets(self, expr_grammar):
        t = compute_first_follow(expr_grammar)
        assert t.predict[0] == {ZERO, ONE}
        assert t.predict[1] == {PLUS}
        assert t.predict[2] == {EOI}  # epsilon rule predicts FOLLOW(Es)
        assert t.predict[3] == {ZERO}
        assert t.predict[4] == {ONE}

    def test_fixpoint_idempotent(self, expr_grammar):
        a = compute_first_follow(expr_grammar)
        b = compute_first_follow(expr_grammar)
        assert a.first == b.first and a.follow == b.follow
        assert a.nullable == b.nullable and a.predict == b.predict

    def test_first_of_seq_epsilon_chain(self, expr_grammar):
        t = compute_first_follow(expr_grammar)
        fst, eps = t.first_of_seq(("Es", "Es"))
        assert fst == {PLUS} and eps
        fst, eps = t.first_of_seq(("Es", "D"))
        assert fst == {PLUS, ZERO, ONE} and not eps


class TestLL1:
    def test_expression_grammar_is_ll1(self, expr_grammar):
        assert check_ll1(expr_grammar, compute_first_follow(expr_grammar)) == []

    def test_common_prefix_conflict(self):
        g = mk(["S"], [("S", [97, 98]), ("S", [97, 99])], "S")
        conflicts = check_ll1(g, compute_first_follow(g))
        assert len(conflicts) == 1
        assert conflicts[0].tokens == {97}
        assert {conflicts[0].rule_a, conflicts[0].rule_b} == {0, 1}

    def test_left_recursion_conflict(self):
        g = mk(["S"], [("S", ["S", 97]), ("S", [98])], "S")
        conflicts = check_ll1(g, compute_first_follow(g))
        assert conflicts and conflicts[0].tokens == {98}

    def test_conflicts_reported_exhaustively(self):
        g = mk(["S"], [("S", [97]), ("S", [97]), ("S", [97])], "S")
        assert len(check_ll1(g, compute_first_follow(g))) == 3

    def test_cached_analyses_match_and_are_not_pickled(self):
        g = mk(["S"], [("S", [97, 98]), ("S", [97, 99])], "S")
        assert g.predict_table == compute_first_follow(g)
        assert g.ll1_conflicts == tuple(check_ll1(g, compute_first_follow(g)))
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and set(vars(copy)) == {f.name for f in fields(Grammar)}

    def test_ll1_parse_is_deterministic_by_simulation(self, expr_grammar):
        """At most one rule of each nonterminal is selectable per lookahead."""
        t = compute_first_follow(expr_grammar)
        for nt in expr_grammar.nonterminals:
            rules = expr_grammar.rules_of(nt)
            for tok in sorted(expr_grammar.terminals) + [EOI]:
                selectable = [r for r in rules if tok in t.predict[r.rule_id]]
                assert len(selectable) <= 1


class TestClosures:
    def test_reachability_examples(self):
        g = mk(["S", "A"], [("S", [97]), ("A", [98])], "S")
        assert reachable_nonterminals(g) == {"S"}
        g2 = mk(["S", "A"], [("S", ["A"]), ("A", [98])], "S")
        assert reachable_nonterminals(g2) == {"S", "A"}

    def test_productivity_examples(self):
        g = mk(["S"], [("S", [97])], "S")
        assert check_productivity(g) == {"S"}
        g2 = mk(["S"], [("S", ["S"])], "S")
        assert check_productivity(g2) == set()
        g3 = mk(["S", "A"], [("S", [97, "A"]), ("A", [98, "A"]), ("A", [99])], "S")
        assert check_productivity(g3) == {"S", "A"}

    def test_reachability_monotone_under_rule_addition(self):
        base = mk(["S", "A"], [("S", [97]), ("A", [98])], "S")
        before = reachable_nonterminals(base)
        extended = mk(["S", "A"], [("S", [97]), ("A", [98]), ("S", ["A"])], "S")
        assert before <= reachable_nonterminals(extended)


class TestLanguage:
    def test_expression_language_small_strings(self, expr_grammar):
        lang = derive_strings(expr_grammar, 3)
        expected = {b"0", b"1", b"0+0", b"0+1", b"1+0", b"1+1"}
        assert lang == expected


class TestValidation:
    def test_duplicate_nonterminal(self):
        g = mk(["S", "S"], [("S", [97])], "S")
        with pytest.raises(GrammarError, match="duplicate"):
            g.validate()

    def test_undeclared_start(self):
        g = mk(["S"], [("S", [97])], "T")
        with pytest.raises(GrammarError, match="start"):
            g.validate()

    def test_rule_for_undeclared_nonterminal(self):
        g = Grammar(("S",), frozenset({97}), (Rule(0, "S", (97,)), Rule(1, "T", ())), "S")
        with pytest.raises(GrammarError):
            g.validate()

    def test_nonterminal_without_rules(self):
        g = mk(["S", "A"], [("S", ["A"])], "S")
        with pytest.raises(GrammarError, match="without rules"):
            g.validate()

    def test_rule_id_order_enforced(self):
        g = Grammar(("S",), frozenset({97}), (Rule(1, "S", (97,)),), "S")
        with pytest.raises(GrammarError, match="rule_id"):
            g.validate()

    def test_terminal_out_of_byte_range(self):
        g = Grammar(("S",), frozenset({300}), (Rule(0, "S", (300,)),), "S")
        with pytest.raises(GrammarError, match="byte"):
            g.validate()


class TestSerialization:
    def test_roundtrip_identity(self, expr_grammar):
        text = serialize_grammar(expr_grammar)
        assert parse_grammar(text) == expr_grammar

    def test_roundtrip_byte_identical(self, expr_grammar):
        text = serialize_grammar(expr_grammar)
        assert serialize_grammar(parse_grammar(text)) == text

    def test_annotations_roundtrip(self):
        g = mk(
            ["S", "U"], [("S", [97]), ("U", [98])], "S",
            unreachable=["U"], dead=["S", "S"],
        )
        back = parse_grammar(serialize_grammar(g))
        assert back.unreachable_marks == ("U",)
        assert back.dead_marks == ("S", "S")

    def test_epsilon_rule_serialized_as_eps(self, expr_grammar):
        text = serialize_grammar(expr_grammar)
        assert "rule 2 Es := eps" in text

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "grammar v2\nstart S\n",
            "grammar v1\nterminals 97\nnonterminal S\nrule 0 S := t97\n",  # no start
            "grammar v1\nstart S\nterminals 97\nnonterminal S\nrule 0 S 97\n",
            "grammar v1\nstart S\nterminals 97\nnonterminal S\nbogus X\n",
        ],
    )
    def test_malformed_inputs_rejected(self, text):
        with pytest.raises(GrammarError):
            parse_grammar(text)


@st.composite
def small_grammars(draw):
    n = draw(st.integers(1, 4))
    nts = [f"N{i}" for i in range(n)]
    terminals = draw(st.sets(st.integers(0, 7), min_size=1, max_size=4))
    rules = []
    for i, nt in enumerate(nts):
        for _ in range(draw(st.integers(1, 2))):
            rhs = draw(
                st.lists(
                    st.one_of(
                        st.sampled_from(sorted(terminals)),
                        st.sampled_from(nts),
                    ),
                    max_size=3,
                )
            )
            rules.append((nt, rhs))
    return mk(nts, rules, nts[0], terminals=terminals)


@given(small_grammars())
@settings(max_examples=60, deadline=None)
def test_serialization_roundtrip_property(g):
    g.validate()
    assert parse_grammar(serialize_grammar(g)) == g


@given(small_grammars())
@settings(max_examples=60, deadline=None)
def test_closure_bounds_property(g):
    reach = reachable_nonterminals(g)
    assert g.start in reach
    assert reach <= set(g.nonterminals)
    assert check_productivity(g) <= set(g.nonterminals)
