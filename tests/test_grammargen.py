"""Generator contracts: determinism, LL(1) validity, exact labels, infeasibility."""

import pytest

from reachbench.grammar import (
    GrammarError,
    check_ll1,
    check_productivity,
    compute_first_follow,
    reachable_nonterminals,
    serialize_grammar,
)
from reachbench.grammargen import (
    GenConfig,
    GroundTruthLabel,
    InfeasibleConfigError,
    generate_grammar,
    label_for,
    parse_label,
    serialize_label,
)


class TestConfigValidation:
    def test_minimal_config(self):
        cfg = GenConfig(
            seed=0, n_nonterminals=1, rules_per_nonterminal=(1, 1),
            rule_length=(0, 0), alphabet_size=1,
            recursion_direct=0, recursion_indirect=0, recursion_linear=0,
        )
        g, label = generate_grammar(cfg)
        assert len(g.nonterminals) == 1
        assert len(g.rules) == 1
        assert label.unreachable_rules == frozenset()

    @pytest.mark.parametrize(
        "kw",
        [
            dict(n_nonterminals=0),
            dict(rules_per_nonterminal=(2, 1)),
            dict(rule_length=(3, 1)),
            dict(alphabet_size=0),
            dict(alphabet_size=257),
            dict(n_unreachable=-1),
            dict(n_unreachable=10, n_nonterminals=10),
            dict(recursion_direct=0.9, recursion_indirect=0.9, recursion_linear=0.9),
        ],
    )
    def test_invalid_configs_rejected(self, kw):
        with pytest.raises(InfeasibleConfigError):
            GenConfig(**kw).validate()

    def test_alphabet_too_small_for_disjoint_leads(self):
        cfg = GenConfig(rules_per_nonterminal=(1, 5), alphabet_size=3)
        with pytest.raises(InfeasibleConfigError, match="alphabet"):
            cfg.validate()


class TestGeneration:
    def test_deterministic_per_seed(self):
        cfg = GenConfig(seed=7, n_nonterminals=6, alphabet_size=8)
        a, _ = generate_grammar(cfg)
        b, _ = generate_grammar(cfg)
        assert serialize_grammar(a) == serialize_grammar(b)

    def test_different_seeds_differ(self):
        a, _ = generate_grammar(GenConfig(seed=1, n_nonterminals=6, alphabet_size=8))
        b, _ = generate_grammar(GenConfig(seed=2, n_nonterminals=6, alphabet_size=8))
        assert serialize_grammar(a) != serialize_grammar(b)

    @pytest.mark.parametrize("seed", range(8))
    def test_generated_grammars_are_ll1_and_productive(self, seed):
        cfg = GenConfig(seed=seed, n_nonterminals=8, alphabet_size=10,
                        n_unreachable=2, n_dead_branches=2)
        g, _ = generate_grammar(cfg)
        g.validate()
        assert check_ll1(g, compute_first_follow(g)) == []
        assert check_productivity(g) == set(g.nonterminals)
        assert len(g.dead_marks) == cfg.n_dead_branches

    @pytest.mark.parametrize("n_unreachable", [0, 1, 3])
    def test_exactly_n_unreachable_nonterminals(self, n_unreachable):
        cfg = GenConfig(seed=5, n_nonterminals=10, alphabet_size=12,
                        n_unreachable=n_unreachable)
        g, _ = generate_grammar(cfg)
        reach = reachable_nonterminals(g)
        assert len(set(g.nonterminals) - reach) == n_unreachable
        assert set(g.unreachable_marks) == set(g.nonterminals) - reach

    def test_label_matches_independent_reachability_closure(self):
        cfg = GenConfig(seed=9, n_nonterminals=10, alphabet_size=12, n_unreachable=3)
        g, label = generate_grammar(cfg)
        reach = reachable_nonterminals(g)
        expected = frozenset(r.rule_id for r in g.rules if r.lhs in reach)
        assert label.reachable_rules == expected
        assert label.unreachable_rules == frozenset(
            r.rule_id for r in g.rules
        ) - expected

    def test_epsilon_rules_absent_by_default(self):
        g, _ = generate_grammar(GenConfig(seed=3, n_nonterminals=6, alphabet_size=8))
        assert all(r.rhs for r in g.rules)

    def test_allow_epsilon_can_produce_epsilon_rules(self):
        for seed in range(30):
            cfg = GenConfig(seed=seed, n_nonterminals=6, alphabet_size=10,
                            allow_epsilon=True)
            g, _ = generate_grammar(cfg)
            if any(not r.rhs for r in g.rules):
                return
        pytest.fail("no epsilon rule generated across 30 seeds")


class TestLabels:
    def test_partition_validation(self):
        g, _ = generate_grammar(GenConfig(seed=0, n_nonterminals=3, alphabet_size=6))
        bad = GroundTruthLabel(frozenset({0}), frozenset({0, 1}))
        with pytest.raises(GrammarError, match="partition"):
            bad.validate_against(g)

    def test_label_roundtrip(self):
        label = GroundTruthLabel(frozenset({0, 2}), frozenset({1}))
        assert parse_label(serialize_label(label)) == label

    def test_label_for_is_validate_consistent(self):
        g, _ = generate_grammar(GenConfig(seed=11, n_nonterminals=7, alphabet_size=9,
                                          n_unreachable=2))
        label_for(g).validate_against(g)
