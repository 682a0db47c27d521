"""Fuzzing loop: seeds, mutation, campaign bookkeeping, persistence."""

import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachbench.codegen import compile_to_parser, execute_parser, interpret_parser
from reachbench.fuzzer import (
    CampaignConfig,
    CampaignError,
    MutationPolicy,
    generate_seed_corpus,
    mutate_input,
    parse_units,
    run_campaign,
    serialize_units,
)
from reachbench.grammar import min_derivation_length
from reachbench.grammargen import GenConfig, generate_grammar
from reachbench.incidence import build_incidence_matrix

from conftest import units_of
from test_grammar import mk


@pytest.fixture(scope="module")
def small_program():
    g, label = generate_grammar(GenConfig(seed=8, n_nonterminals=5, alphabet_size=8))
    return g, compile_to_parser(g, label)


class TestSeedInputs:
    def test_seeds_are_valid_sentences(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 20, 15, 3)
        assert len(corpus) == 20
        for s in corpus:
            assert execute_parser(prog, s).verdict == "accept"

    def test_deterministic(self, small_program):
        g, _ = small_program
        a = generate_seed_corpus(g, 10, 15, 5)
        b = generate_seed_corpus(g, 10, 15, 5)
        assert a == b

    def test_size_bounded(self, small_program):
        g, _ = small_program
        corpus = generate_seed_corpus(g, 30, 40, 1, max_len=64)
        # Bounded by max_len plus the minimal completion of the pending form.
        assert all(len(s) < 256 for s in corpus)

    @pytest.mark.parametrize("allow_epsilon", [False, True])
    def test_depth_zero_seeds_have_the_shortest_derivation_length(self, allow_epsilon):
        """At depth 0 every expansion takes its nonterminal's cheapest rule."""
        for seed in range(40):
            g, _ = generate_grammar(GenConfig(seed=seed, allow_epsilon=allow_epsilon))
            shortest = min_derivation_length(g)[g.start]
            assert {len(s) for s in generate_seed_corpus(g, 3, 0, seed)} == {shortest}


class TestMutation:
    def test_deterministic_per_rng_state(self):
        policy = MutationPolicy()
        a = mutate_input(b"hello", policy, random.Random(1), (b"x",))
        b = mutate_input(b"hello", policy, random.Random(1), (b"x",))
        assert a == b

    def test_zero_rates_identity(self):
        policy = MutationPolicy(flip_rate=0, insert_rate=0, delete_rate=0, splice_rate=0)
        assert mutate_input(b"abc", policy, random.Random(0)) == b"abc"

    def test_length_clamped(self):
        policy = MutationPolicy(max_len=8)
        rng = random.Random(0)
        data = bytes(100)
        for _ in range(50):
            data = mutate_input(data, policy, rng, (bytes(100),))
            assert len(data) <= 8 or len(data) <= 100  # first call clamps
        assert len(data) <= 8

    @given(st.binary(max_size=32), st.integers(0, 2 ** 31))
    @settings(max_examples=50, deadline=None)
    def test_single_operator_size_delta(self, data, seed):
        policy = MutationPolicy()
        out = mutate_input(data, policy, random.Random(seed), (data,))
        # One flip/insert/delete, or a splice clamped to max_len.
        assert len(out) <= max(policy.max_len, len(data))

    def test_invalid_policy_rejected(self):
        with pytest.raises(CampaignError):
            MutationPolicy(flip_rate=1.5).validate()


class TestCampaign:
    def test_bookkeeping_identity(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        log = run_campaign(prog, corpus, CampaignConfig(trial_seed=1, budget_n=100,
                                                        unit_size_r=10))
        m = log.matrix
        assert m.t == 10 and m.w.shape == (len(m.element_ids), 10)
        assert list(m.element_ids) == sorted(set(m.element_ids))
        assert m.w.any(axis=1).all()  # every listed element was covered

    def test_same_trial_seed_identical_log(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        cfg = CampaignConfig(trial_seed=42, budget_n=500, unit_size_r=50)
        a = run_campaign(prog, corpus, cfg)
        b = run_campaign(prog, corpus, cfg)
        assert a.matrix == b.matrix
        assert a.final_corpus_size == b.final_corpus_size

    def test_two_element_program_fully_discovered(self):
        g = mk(["S"], [("S", [97])], "S")
        prog = compile_to_parser(g)
        corpus_cfg = CampaignConfig(trial_seed=0, budget_n=10_000, unit_size_r=100)
        log = run_campaign(prog, (b"a",), corpus_cfg)
        assert set(log.matrix.element_ids) == prog.ground_truth
        assert len(prog.ground_truth) == 2

    def test_covered_subset_of_elements(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        log = run_campaign(prog, corpus, CampaignConfig(trial_seed=3, budget_n=1000,
                                                        unit_size_r=100))
        assert set(log.matrix.element_ids) <= {el.id for el in prog.elements}

    def test_budget_truncation_warns(self, small_program, caplog):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        log = run_campaign(prog, corpus, CampaignConfig(trial_seed=1, budget_n=105,
                                                        unit_size_r=10))
        assert log.matrix.t == 10

    @pytest.mark.parametrize("seed, alphabet, step_budget", [
        pytest.param(3, 24, 1_000_000, id="3"),
        pytest.param(11, 24, 1_000_000, id="11"),
        pytest.param(29, 24, 1_000_000, id="29"),
        # A step budget that some parses exhaust, so the runner falls back.
        pytest.param(5, 24, 20, id="small_step_budget"),
        # fuzz_large's alphabet; max_len is 256 in every case, as in fuzz_large.
        pytest.param(7, 64, 1_000_000, id="fuzz_large_shape"),
    ])
    def test_equals_interpreter_loop(self, seed, alphabet, step_budget):
        """The campaign loop on the reference interpreter and frozenset unions,
        parsing every candidate."""
        g, label = generate_grammar(GenConfig(seed=seed, n_nonterminals=10 + seed,
                                              alphabet_size=alphabet, n_dead_branches=2))
        prog = compile_to_parser(g, label)
        corpus = generate_seed_corpus(g, 8, 15, seed)
        config = CampaignConfig(trial_seed=seed, budget_n=1500, unit_size_r=30,
                                step_budget=step_budget)
        rng = random.Random(config.trial_seed)
        pool = list(corpus)
        seen, unit_cov, units = set(), set(), []
        for i in range(config.budget_n):
            seed_input = pool[rng.randrange(len(pool))]
            candidate = mutate_input(seed_input, config.policy, rng, pool)
            covered = interpret_parser(prog, candidate, config.step_budget).covered
            unit_cov |= covered
            if not covered <= seen:
                seen |= covered
                pool.append(candidate)
            if (i + 1) % config.unit_size_r == 0:
                units.append(frozenset(unit_cov))
                unit_cov = set()
        log = run_campaign(prog, corpus, config)
        assert log.matrix == build_incidence_matrix(units)
        assert log.final_corpus_size == len(pool)
        # Some mutants took their corpus entry's coverage without a parse.
        assert len(corpus) < log.parser_runs < config.budget_n

    def test_zero_unit_budget_rejected(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        with pytest.raises(CampaignError):
            run_campaign(prog, corpus, CampaignConfig(trial_seed=1, budget_n=5,
                                                      unit_size_r=10))


def reads_same(seed: bytes, h: int, candidate: bytes) -> bool:
    """Whether ``candidate`` agrees with ``seed`` on tokens 0..h, where token
    len(seed) is end-of-input."""
    if h < len(seed):
        return len(candidate) > h and candidate.startswith(seed[:h + 1])
    return candidate == seed


@lru_cache(maxsize=None)
def generated_program(seed):
    g, label = generate_grammar(GenConfig(
        seed=seed, n_nonterminals=4 + seed, alphabet_size=6 + 2 * seed,
        recursion_linear=0.4, n_dead_branches=seed % 3, allow_epsilon=seed % 2 == 0))
    return g, compile_to_parser(g, label)


class TestReadHorizon:
    @given(st.integers(0, 5), st.integers(0, 2 ** 31), st.binary(max_size=12),
           st.sampled_from([5, 50, 1_000_000]))
    @settings(max_examples=80, deadline=None)
    def test_reuse_rule_is_exact(self, grammar_seed, seed, noise, step_budget):
        """A candidate that reads the same tokens 0..h as the parsed input,
        h its ``consumed``, has that input's whole result.  80 examples, each
        with 30 mutation chains and one input cut after its horizon, take
        well under 1 s."""
        g, prog = generated_program(grammar_seed)
        rng = random.Random(seed)
        pool = list(generate_seed_corpus(g, 4, 10, seed)) + [noise]
        parent = pool[rng.randrange(len(pool))]
        res = execute_parser(prog, parent, step_budget)
        h = res.consumed
        candidates = [parent[:h + 1] + noise]
        for _ in range(30):
            cand = parent
            for _ in range(rng.randint(1, 3)):
                cand = mutate_input(cand, MutationPolicy(), rng, pool)
            candidates.append(cand)
        for cand in candidates:
            if reads_same(parent, h, cand):
                assert execute_parser(prog, cand, step_budget) == res
                assert interpret_parser(prog, cand, step_budget) == res


class TestUnitSerialization:
    def test_roundtrip(self):
        units = [frozenset({0, 3, 7}), frozenset(), frozenset({1})]
        assert parse_units(serialize_units(build_incidence_matrix(units))) == units

    def test_header_required(self):
        with pytest.raises(CampaignError):
            parse_units("t 2\nunit 0:\nunit 1:\n")

    def test_out_of_order_units_rejected(self):
        with pytest.raises(CampaignError, match="order"):
            parse_units("incidence v1\nt 2\nunit 1: 0\nunit 0: 1\n")

    @pytest.mark.parametrize("text", [
        "incidence v1\nt\n",
        "incidence v1\nt 1\nunit\n",
        "incidence v1\nt x\n",
        "incidence v1\nt 1\nunit x: 3\n",
        "incidence v1\nt 2\nunit 0: 9223372036854775808 1\nunit 1: 1\n",
    ])
    def test_malformed_record_reports_line(self, text):
        with pytest.raises(CampaignError, match="line"):
            parse_units(text)

    def test_count_mismatch_rejected(self):
        with pytest.raises(CampaignError):
            parse_units("incidence v1\nt 3\nunit 0: 1\n")

    @given(st.lists(st.frozensets(st.integers(0, 50) | st.integers(-2 ** 63, 2 ** 63 - 1),
                                  max_size=8), min_size=1, max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, units):
        """The stream of a matrix gives back its units, empty ones included."""
        m = build_incidence_matrix(units)
        assert parse_units(serialize_units(m)) == units_of(m) == units
