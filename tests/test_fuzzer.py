"""Fuzzing loop: seeds, mutation, campaign bookkeeping, persistence."""

import random

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
from reachbench.grammargen import GenConfig, generate_grammar

from test_grammar import mk


@pytest.fixture(scope="module")
def small_program():
    g, label = generate_grammar(GenConfig(seed=8, n_nonterminals=5, alphabet_size=8))
    return g, compile_to_parser(g, label)


class TestSeedCorpus:
    def test_seeds_are_valid_sentences(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 20, 15, 3)
        assert len(corpus.inputs) == 20
        for s in corpus.inputs:
            assert execute_parser(prog, s).verdict == "accept"

    def test_deterministic(self, small_program):
        g, _ = small_program
        a = generate_seed_corpus(g, 10, 15, 5)
        b = generate_seed_corpus(g, 10, 15, 5)
        assert a.inputs == b.inputs and a.provenance == b.provenance

    def test_size_bounded(self, small_program):
        g, _ = small_program
        corpus = generate_seed_corpus(g, 30, 40, 1, max_len=64)
        # Bounded by max_len plus the minimal completion of the pending form.
        assert all(len(s) < 256 for s in corpus.inputs)

    def test_provenance_records_rule_choices(self, small_program):
        g, _ = small_program
        corpus = generate_seed_corpus(g, 3, 15, 5)
        assert all(p.startswith("rules:") for p in corpus.provenance)


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
        assert log.t == 10
        union = set()
        for unit in log.unit_coverage:
            union |= unit
        assert union == set(log.discovered())
        assert log.discovery_curve[-1] == len(union)
        assert all(a <= b for a, b in zip(log.discovery_curve, log.discovery_curve[1:]))

    def test_same_trial_seed_identical_log(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        cfg = CampaignConfig(trial_seed=42, budget_n=500, unit_size_r=50)
        a = run_campaign(prog, corpus, cfg)
        b = run_campaign(prog, corpus, cfg)
        assert a.unit_coverage == b.unit_coverage
        assert a.final_corpus_size == b.final_corpus_size

    def test_two_element_program_fully_discovered(self):
        g = mk(["S"], [("S", [97])], "S")
        prog = compile_to_parser(g)
        corpus_cfg = CampaignConfig(trial_seed=0, budget_n=10_000, unit_size_r=100)
        from reachbench.fuzzer import SeedCorpus

        log = run_campaign(prog, SeedCorpus((b"a",)), corpus_cfg)
        assert log.discovered() == prog.ground_truth
        assert len(prog.ground_truth) == 2

    def test_covered_subset_of_elements(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        log = run_campaign(prog, corpus, CampaignConfig(trial_seed=3, budget_n=1000,
                                                        unit_size_r=100))
        assert log.discovered() <= {el.id for el in prog.elements}

    def test_budget_truncation_warns(self, small_program, caplog):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        log = run_campaign(prog, corpus, CampaignConfig(trial_seed=1, budget_n=105,
                                                        unit_size_r=10))
        assert log.t == 10

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_equals_interpreter_loop(self, seed):
        """The campaign loop on the reference interpreter and frozenset unions."""
        g, label = generate_grammar(GenConfig(seed=seed, n_nonterminals=10 + seed,
                                              alphabet_size=24, n_dead_branches=2))
        prog = compile_to_parser(g, label)
        corpus = generate_seed_corpus(g, 8, 15, seed)
        config = CampaignConfig(trial_seed=seed, budget_n=1500, unit_size_r=30)
        rng = random.Random(config.trial_seed)
        pool = list(corpus.inputs)
        seen, unit_cov, units, curve = set(), set(), [], []
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
                curve.append(len(seen))
                unit_cov = set()
        log = run_campaign(prog, corpus, config)
        assert log.unit_coverage == tuple(units)
        assert log.discovery_curve == tuple(curve)
        assert log.final_corpus_size == len(pool)

    def test_zero_unit_budget_rejected(self, small_program):
        g, prog = small_program
        corpus = generate_seed_corpus(g, 5, 15, 1)
        with pytest.raises(CampaignError):
            run_campaign(prog, corpus, CampaignConfig(trial_seed=1, budget_n=5,
                                                      unit_size_r=10))


class TestUnitSerialization:
    def test_roundtrip(self):
        units = [frozenset({0, 3, 7}), frozenset(), frozenset({1})]
        assert parse_units(serialize_units(units)) == units

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
    ])
    def test_malformed_record_reports_line(self, text):
        with pytest.raises(CampaignError, match="line"):
            parse_units(text)

    def test_count_mismatch_rejected(self):
        with pytest.raises(CampaignError):
            parse_units("incidence v1\nt 3\nunit 0: 1\n")

    @given(st.lists(st.frozensets(st.integers(0, 50), max_size=8), min_size=1,
                    max_size=12))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, units):
        assert parse_units(serialize_units(units)) == units
