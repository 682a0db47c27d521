"""Shared test oracles, deliberately independent of the implementation paths.

Three brute-force oracles live here: a derivation enumerator for grammar
languages, an exhaustive pruned input-space walk for coverage ground truth,
and an explicit control-flow-graph walk (E - N + 2P) for cyclomatic
complexity.  They recompute from first principles what the implementation
computes by construction, so agreement is meaningful.
"""

import itertools
from itertools import compress
from pathlib import Path

import pytest

from reachbench.codegen import execute_parser
from reachbench.grammar import EOI

DATA_DIR = Path(__file__).parent / "data"


def derive_strings(grammar, max_len):
    """All terminal strings of length <= max_len, by BFS over sentential forms.

    Sentential forms whose minimal completion already exceeds max_len are
    pruned, so the enumeration terminates on recursive grammars.
    """
    by_lhs = {}
    for rule in grammar.rules:
        by_lhs.setdefault(rule.lhs, []).append(rule)
    min_cost = {nt: float("inf") for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            c = sum(1 if isinstance(s, int) else min_cost[s] for s in rule.rhs)
            if c < min_cost[rule.lhs]:
                min_cost[rule.lhs] = c
                changed = True

    def form_cost(form):
        return sum(1 if isinstance(s, int) else min_cost[s] for s in form)

    out = set()
    seen = set()
    work = [(grammar.start,)]
    while work:
        form = work.pop()
        nt_pos = next((i for i, s in enumerate(form) if isinstance(s, str)), None)
        if nt_pos is None:
            out.add(bytes(form))
            continue
        for rule in by_lhs[form[nt_pos]]:
            nxt = form[:nt_pos] + rule.rhs + form[nt_pos + 1:]
            if form_cost(nxt) > max_len:
                continue
            if nxt not in seen:
                seen.add(nxt)
                work.append(nxt)
    return out


def exhaustive_coverage(program, grammar, max_len):
    """Union of covered elements over all inputs of length <= max_len.

    Enumerates over a quotient alphabet: the declared terminals plus one
    representative byte outside the alphabet (all out-of-alphabet bytes
    fail every dispatch and terminal comparison identically, so one
    representative is exhaustive).  Prefixes the parser rejects before
    consuming all bytes are pruned: any extension replays the identical
    execution.
    """
    probe = sorted(grammar.terminals)
    outside = next((b for b in range(256) if b not in grammar.terminals), None)
    if outside is not None:
        probe.append(outside)
    covered = set()
    work = [b""]
    while work:
        prefix = work.pop()
        result = execute_parser(program, prefix)
        covered |= result.covered
        if result.consumed == len(prefix) and len(prefix) < max_len:
            work.extend(prefix + bytes([b]) for b in probe)
    return frozenset(covered)


def cfg_cyclomatic(program):
    """Cyclomatic complexity recomputed as E - N + 2P on an explicit CFG.

    Each procedure is lowered to its decision graph: a chain of dead-guard
    diamonds, then a chain of binary dispatch tests (k-way dispatch as k-1
    two-way tests), one node per arm, loop arms with a back edge to the
    dispatch head instead of an exit edge.  The error path is not part of
    the decision structure (it is the shared fall-through).
    """
    edges = 0
    nodes = 0
    for proc in program.procedures:
        n_arms = len(proc.arms)
        node_ids = []
        local_edges = []

        def node(tag, _ids=node_ids):
            _ids.append(tag)
            return tag

        entry = node("entry")
        # Dead-guard diamonds in sequence; 'pending' holds the nodes whose
        # fall-through edge targets the next sequence point.
        pending = [entry]
        for dead in proc.dead_element_ids:
            guard = node(f"guard{dead}")
            body = node(f"dead{dead}")
            local_edges += [(p, guard) for p in pending]
            local_edges.append((guard, body))
            pending = [guard, body]
        head = node("head")
        local_edges += [(p, head) for p in pending]

        exit_n = node("exit")
        tests = [node(f"test{i}") for i in range(n_arms - 1)]
        arms = [node(f"arm{i}") for i in range(n_arms)]
        chain = tests + [arms[-1]]
        local_edges.append((head, chain[0]))
        for i, t in enumerate(tests):
            local_edges.append((t, arms[i]))
            local_edges.append((t, chain[i + 1]))
        for i, arm in enumerate(proc.arms):
            local_edges.append((arms[i], head if arm.is_loop else exit_n))
        edges += len(local_edges)
        nodes += len(node_ids)
    return edges - nodes + 2 * len(program.procedures)


def units_of(matrix):
    """The per-unit id sets of an ``IncidenceMatrix``: unit j holds the ids of
    W's column j."""
    return [frozenset(compress(matrix.element_ids, col)) for col in matrix.w.T.tolist()]


@pytest.fixture(scope="session")
def fixture_units():
    from reachbench.fuzzer import parse_units

    return parse_units((DATA_DIR / "fixture_incidence.txt").read_text())


@pytest.fixture(scope="session")
def fixture_matrix(fixture_units):
    from reachbench.incidence import build_incidence_matrix

    return build_incidence_matrix(fixture_units)
