"""Compiler, executor, ground truth, cyclomatic number, and C export."""

import random
import shutil
import subprocess
import sys

import pytest

from reachbench import codegen
from reachbench.codegen import (
    CompileError,
    GroundTruthMismatch,
    compile_to_parser,
    covered_ids,
    cyclomatic_complexity,
    element_manifest,
    execute_parser,
    export_c_source,
    interpret_parser,
)
from reachbench.grammar import EOI
from reachbench.grammargen import GenConfig, GroundTruthLabel, generate_grammar
from reachbench.fuzzer import MutationPolicy, generate_seed_corpus, mutate_input

from conftest import cfg_cyclomatic, derive_strings, exhaustive_coverage
from test_grammar import mk

A, Z, T, F = 97, 122, 84, 70
B, C, D, E, G, H = 98, 99, 100, 101, 103, 104


@pytest.fixture
def bsearch_grammar():
    """Loop-and-branch shape of a binary search control flow.

    One procedure per construct: the function body, the while loop (exit
    token F), and two nested if/else dispatches.
    """
    return mk(
        ["bsearch", "while3", "if5", "if8"],
        [
            ("bsearch", [A, "while3", Z]),
            ("while3", [T, B, C, "if5", "while3"]),
            ("while3", [F]),
            ("if5", [T, D]),
            ("if5", [F, E, "if8"]),
            ("if8", [T, G]),
            ("if8", [F, H]),
        ],
        "bsearch",
    )


class TestCompile:
    def test_element_ids_dense_and_ordered(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        assert [el.id for el in prog.elements] == list(range(prog.n_elements))
        kinds = [el.kind for el in prog.elements]
        # Per procedure: its arms, then its error exit.
        assert kinds == [
            "rule-arm", "error-exit",
            "rule-arm", "rule-arm", "error-exit",
            "rule-arm", "rule-arm", "error-exit",
            "rule-arm", "rule-arm", "error-exit",
        ]

    def test_loop_arm_detection(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        while3 = prog.procedures[1]
        assert [arm.is_loop for arm in while3.arms] == [True, False]
        assert all(not arm.is_loop for arm in prog.procedures[0].arms)

    def test_non_ll1_grammar_rejected(self):
        g = mk(["S"], [("S", [A, B]), ("S", [A, C])], "S")
        with pytest.raises(CompileError, match="LL"):
            compile_to_parser(g)

    def test_deterministic_digest(self, bsearch_grammar):
        p1 = compile_to_parser(bsearch_grammar)
        p2 = compile_to_parser(bsearch_grammar)
        assert p1.source_grammar_digest == p2.source_grammar_digest
        assert p1.ground_truth == p2.ground_truth

    def test_wrong_label_raises(self, bsearch_grammar):
        n = len(bsearch_grammar.rules)
        bad = GroundTruthLabel(frozenset(range(n - 1)), frozenset({n - 1}))
        with pytest.raises(GroundTruthMismatch):
            compile_to_parser(bsearch_grammar, bad)


class TestExecution:
    def test_accepts_valid_input(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        # a, loop iteration (T b c, then-if T d), loop exit F, z.
        res = execute_parser(prog, bytes([A, T, B, C, T, D, F, Z]))
        assert res.verdict == "accept"
        assert res.consumed == 8

    def test_rejects_truncated_input(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        res = execute_parser(prog, bytes([A, T, B]))
        assert res.verdict == "reject"

    def test_error_attributed_to_failing_procedure(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        # 'a' then a token outside while3's dispatch: while3's error exit.
        res = execute_parser(prog, bytes([A, 0]))
        assert prog.error_element["while3"] in res.covered
        assert prog.error_element["bsearch"] not in res.covered

    def test_error_on_empty_input_hits_start_procedure(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        res = execute_parser(prog, b"")
        assert res.covered == {prog.error_element["bsearch"]}

    def test_trailing_garbage_rejected(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        res = execute_parser(prog, bytes([A, F, Z, Z]))
        assert res.verdict == "reject"

    def test_acceptance_equals_derived_language(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        lang = derive_strings(bsearch_grammar, 9)
        probe = sorted(bsearch_grammar.terminals)
        rng = random.Random(0)
        for s in sorted(lang):
            assert execute_parser(prog, s).verdict == "accept"
        for _ in range(300):
            s = bytes(rng.choice(probe) for _ in range(rng.randrange(0, 9)))
            expected = "accept" if s in lang else "reject"
            assert execute_parser(prog, s).verdict == expected

    def test_step_budget_terminates(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        data = bytes([A] + [T, B, C, T, D] * 100)
        res = execute_parser(prog, data, step_budget=50)
        assert res.verdict == "reject"
        assert res.steps <= 51


def count_interpreter_calls(monkeypatch):
    """The argument tuples of every later call of ``codegen.interpret_parser``."""
    calls = []
    monkeypatch.setattr(codegen, "interpret_parser",
                        lambda *a: calls.append(a) or interpret_parser(*a))
    return calls


class TestGeneratedParser:
    """``execute_parser`` runs generated code; ``interpret_parser`` is its oracle."""

    def test_compiled_once_per_program(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        assert prog.runner is prog.runner

    def test_covered_ids_decodes_one_byte_per_element(self):
        assert covered_ids(0) == frozenset()
        assert covered_ids(1 | 1 << 8 * 300) == {0, 300}

    def test_within_budget_runs_without_interpreter(self, bsearch_grammar, monkeypatch):
        prog = compile_to_parser(bsearch_grammar)
        calls = count_interpreter_calls(monkeypatch)
        for data in (bytes([A, T, B, C, T, D, F, Z]), bytes([A, T, B]), bytes([A, T, 0]),
                     bytes([A, T, B, C, T, D, F, Z, Z]), b""):
            assert execute_parser(prog, data) == interpret_parser(prog, data)
        assert calls == []

    def test_step_budget_falls_back_to_interpreter(self, bsearch_grammar, monkeypatch):
        prog = compile_to_parser(bsearch_grammar)
        data = bytes([A] + [T, B, C, T, D] * 100)
        calls = count_interpreter_calls(monkeypatch)
        assert execute_parser(prog, data, 50) == interpret_parser(prog, data, 50)
        assert len(calls) == 1
        whole = data + bytes([F, Z])
        steps = interpret_parser(prog, whole).steps
        # Exact at every budget up to and past the whole parse.
        for budget in range(1, steps + 2):
            assert execute_parser(prog, whole, budget) == interpret_parser(prog, whole, budget)

    def test_deep_nesting_falls_back_to_interpreter(self, monkeypatch):
        # S -> a S b | c, nested beyond the recursion limit.
        prog = compile_to_parser(mk(["S"], [("S", [A, "S", B]), ("S", [C])], "S"))
        depth = sys.getrecursionlimit() + 100
        calls = count_interpreter_calls(monkeypatch)
        for data in (bytes([A] * depth + [C] + [B] * depth),
                     bytes([A] * depth + [C] + [B] * (depth - 1) + [A])):
            assert execute_parser(prog, data) == interpret_parser(prog, data)
        assert len(calls) == 2
        assert execute_parser(prog, bytes([A, C, B])) == interpret_parser(prog, bytes([A, C, B]))
        assert len(calls) == 2

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_interpreter_on_generated_grammars(self, seed):
        """Loops, epsilon arms and dead guards; seeds, mutants, random bytes
        and small step budgets."""
        g, label = generate_grammar(GenConfig(
            seed=seed, n_nonterminals=5 + seed, alphabet_size=8 + 2 * seed,
            recursion_linear=0.4, n_dead_branches=seed % 3, allow_epsilon=seed % 2 == 1))
        prog = compile_to_parser(g, label)
        pool = list(generate_seed_corpus(g, 8, 10, seed).inputs)
        rng = random.Random(seed)
        for i in range(400):
            if i % 4 == 0:
                data = bytes(rng.randrange(256) for _ in range(rng.randrange(10)))
            else:
                data = mutate_input(pool[rng.randrange(len(pool))], MutationPolicy(), rng, pool)
            budget = rng.choice([1, 2, 5, 13, 40, 1_000_000])
            assert execute_parser(prog, data, budget) == interpret_parser(prog, data, budget)


class TestGroundTruth:
    def test_bsearch_everything_reachable(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        assert prog.ground_truth == frozenset(range(prog.n_elements))

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_exhaustive_oracle_small(self, seed):
        cfg = GenConfig(seed=seed, n_nonterminals=3, alphabet_size=4,
                        rules_per_nonterminal=(1, 2), rule_length=(0, 1),
                        n_dead_branches=1)
        g, label = generate_grammar(cfg)
        prog = compile_to_parser(g, label)
        assert exhaustive_coverage(prog, g, 8) == prog.ground_truth

    def test_dead_guards_excluded_and_listed(self):
        g, label = generate_grammar(
            GenConfig(seed=2, n_nonterminals=4, alphabet_size=6, n_dead_branches=3)
        )
        prog = compile_to_parser(g, label)
        dead = [el.id for el in prog.elements if el.kind == "dead-guard"]
        assert len(dead) == 3
        assert prog.ground_truth.isdisjoint(dead)

    def test_unreachable_rule_arms_excluded(self):
        g, label = generate_grammar(
            GenConfig(seed=2, n_nonterminals=6, alphabet_size=8, n_unreachable=2)
        )
        prog = compile_to_parser(g, label)
        unreachable_arms = {
            el.id for el in prog.elements
            if el.kind == "rule-arm" and el.origin in label.unreachable_rules
        }
        assert unreachable_arms
        assert prog.ground_truth.isdisjoint(unreachable_arms)

    def test_error_exit_unreachable_when_dispatch_total(self):
        # The start symbol covers every byte with one rule each plus an
        # epsilon rule predicting FOLLOW(S) = {EOI}: no token can miss.
        rules = [("S", [b]) for b in range(256)] + [("S", [])]
        g = mk(["S"], rules, "S", terminals=set(range(256)))
        prog = compile_to_parser(g)
        assert prog.error_element["S"] not in prog.ground_truth
        assert len(prog.ground_truth) == 257  # every arm, no error exit
        rng = random.Random(1)
        for _ in range(300):
            data = bytes(rng.randrange(256) for _ in range(rng.randrange(3)))
            res = execute_parser(prog, data)
            assert prog.error_element["S"] not in res.covered


class TestCyclomatic:
    def test_straight_line_is_one(self):
        g = mk(["S"], [("S", [A])], "S")
        assert cyclomatic_complexity(compile_to_parser(g)) == 1

    def test_two_way_dispatch_is_two(self):
        g = mk(["S"], [("S", [A]), ("S", [B])], "S")
        assert cyclomatic_complexity(compile_to_parser(g)) == 2

    def test_bsearch_equals_cfg_walk(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        assert cyclomatic_complexity(prog) == cfg_cyclomatic(prog) == 7

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_programs_equal_cfg_walk(self, seed):
        cfg = GenConfig(seed=seed, n_nonterminals=10, alphabet_size=12,
                        n_unreachable=2, n_dead_branches=4)
        g, label = generate_grammar(cfg)
        prog = compile_to_parser(g, label)
        assert cyclomatic_complexity(prog) == cfg_cyclomatic(prog)


@pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")
class TestCExport:
    def _build(self, prog, tmp_path):
        src = tmp_path / "parser.c"
        src.write_text(export_c_source(prog))
        binary = tmp_path / "parser"
        subprocess.run(
            ["cc", "-O2", "-Wall", "-Wextra", "-Werror", "-o", str(binary), str(src)],
            check=True, capture_output=True,
        )
        return binary

    def _run(self, binary, data):
        proc = subprocess.run([str(binary)], input=data, capture_output=True)
        covered = frozenset(int(x) for x in proc.stdout.split())
        return covered, "accept" if proc.returncode == 0 else "reject"

    def test_differential_vs_executor(self, bsearch_grammar, tmp_path):
        """Interpreter, generated parser and C parser agree on seeds and mutants."""
        prog = compile_to_parser(bsearch_grammar)
        binary = self._build(prog, tmp_path)
        corpus = generate_seed_corpus(bsearch_grammar, 5, 10, 0)
        rng = random.Random(7)
        policy = MutationPolicy()
        for i in range(300):
            if i < len(corpus.inputs):
                data = corpus.inputs[i]
            else:
                data = mutate_input(
                    corpus.inputs[rng.randrange(len(corpus.inputs))],
                    policy, rng, corpus.inputs,
                )
            res = interpret_parser(prog, data)
            c_cov, c_verdict = self._run(binary, data)
            assert c_cov == res.covered
            assert c_verdict == res.verdict
            assert execute_parser(prog, data) == res

    def test_dead_guards_compile_but_never_fire(self, tmp_path):
        g, label = generate_grammar(
            GenConfig(seed=1, n_nonterminals=4, alphabet_size=6, n_dead_branches=2)
        )
        prog = compile_to_parser(g, label)
        binary = self._build(prog, tmp_path)
        dead = {el.id for el in prog.elements if el.kind == "dead-guard"}
        corpus = generate_seed_corpus(g, 5, 10, 0)
        for data in corpus.inputs:
            c_cov, _ = self._run(binary, data)
            assert c_cov.isdisjoint(dead)


class TestManifest:
    def test_manifest_lists_every_element(self, bsearch_grammar):
        prog = compile_to_parser(bsearch_grammar)
        lines = element_manifest(prog).splitlines()
        assert lines[0] == "elements v1"
        assert len(lines) == 1 + prog.n_elements
        for el, line in zip(prog.elements, lines[1:]):
            parts = line.split()
            assert int(parts[0]) == el.id
            assert parts[1] == el.kind
            assert parts[-1] == ("reachable" if el.id in prog.ground_truth
                                 else "unreachable")
