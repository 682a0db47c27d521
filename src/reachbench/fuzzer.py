"""Desk-scale coverage-guided fuzzing campaigns against compiled parsers.

The loop is deliberately simple: weighted-random seed scheduling, a small
mutation stack (flip / insert / delete / splice), and novelty-based corpus
addition (an input joins the corpus iff it covers a new element).  Coverage
is aggregated into sampling units of a fixed number of consecutive
executions, which keeps the incidence data independent of machine load and
makes every trial reproducible from its seed.
"""

from __future__ import annotations

import logging
import random
import time
from dataclasses import dataclass, field

from .codegen import ParserProgram, covered_ids, execute_parser
from .grammar import Grammar

log = logging.getLogger(__name__)


class CampaignError(ValueError):
    pass


@dataclass(frozen=True)
class SeedCorpus:
    inputs: tuple  # of bytes
    provenance: tuple = ()  # per-seed derivation metadata strings


@dataclass(frozen=True)
class MutationPolicy:
    flip_rate: float = 0.4
    insert_rate: float = 0.3
    delete_rate: float = 0.2
    splice_rate: float = 0.1
    max_len: int = 256

    def validate(self):
        for r in (self.flip_rate, self.insert_rate, self.delete_rate, self.splice_rate):
            if not 0.0 <= r <= 1.0:
                raise CampaignError("mutation rates must be in [0, 1]")


@dataclass(frozen=True)
class CampaignConfig:
    trial_seed: int = 0
    budget_n: int = 10_000
    unit_size_r: int = 100
    policy: MutationPolicy = field(default_factory=MutationPolicy)
    step_budget: int = 1_000_000

    def validate(self):
        if self.budget_n <= 0:
            raise CampaignError("budget_n must be > 0")
        if self.unit_size_r < 1:
            raise CampaignError("unit_size_r must be >= 1")
        self.policy.validate()


@dataclass(frozen=True)
class CampaignLog:
    unit_coverage: tuple  # of frozenset, one per sampling unit
    discovery_curve: tuple  # cumulative distinct-element count per unit
    executions_per_second: float
    final_corpus_size: int
    unit_size_r: int

    @property
    def t(self) -> int:
        return len(self.unit_coverage)

    def discovered(self) -> frozenset:
        out = set()
        for unit in self.unit_coverage:
            out |= unit
        return frozenset(out)


def _min_cost(grammar: Grammar):
    """Minimal terminal-string length derivable from each nonterminal."""
    INF = float("inf")
    cost = {nt: INF for nt in grammar.nonterminals}
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            c = 0
            for sym in rule.rhs:
                c += 1 if isinstance(sym, int) else cost[sym]
            if c < cost[rule.lhs]:
                cost[rule.lhs] = c
                changed = True
    return cost


def generate_seed_corpus(
    grammar: Grammar, n_seeds: int, max_depth: int, rng_seed: int,
    max_len: int = 256,
) -> SeedCorpus:
    """Valid inputs from random leftmost derivations, depth- and size-bounded.

    Beyond ``max_depth``, or once the emitted output plus the pending
    sentential form reaches ``max_len``, the derivation always picks a
    minimal-cost rule, so productive grammars terminate with inputs of
    roughly bounded length.  Deterministic per ``rng_seed``.
    """
    rng = random.Random(rng_seed)
    cost = _min_cost(grammar)
    by_lhs = {}
    for rule in grammar.rules:
        by_lhs.setdefault(rule.lhs, []).append(rule)

    def rule_cost(rule):
        # Tie-break on nonterminal count so epsilon-heavy grammars still terminate.
        c = sum(1 if isinstance(s, int) else cost[s] for s in rule.rhs)
        return (c, sum(1 for s in rule.rhs if isinstance(s, str)))

    seeds = []
    prov = []
    for i in range(n_seeds):
        out = bytearray()
        choices = []
        stack = [(grammar.start, 0)]
        while stack:
            sym, depth = stack.pop()
            if isinstance(sym, int):
                out.append(sym)
                continue
            rules = by_lhs[sym]
            if depth >= max_depth or len(out) + len(stack) >= max_len:
                rule = min(rules, key=rule_cost)
            else:
                rule = rules[rng.randrange(len(rules))]
            choices.append(rule.rule_id)
            stack.extend((s, depth + 1) for s in reversed(rule.rhs))
        seeds.append(bytes(out))
        prov.append("rules:" + ",".join(map(str, choices)))
    return SeedCorpus(tuple(seeds), tuple(prov))


def mutate_input(data: bytes, policy: MutationPolicy, rng: random.Random, corpus=()) -> bytes:
    """Apply one mutation operator chosen in proportion to the policy rates.

    All-zero rates yield the input unchanged.  Output length is clamped to
    ``policy.max_len``.
    """
    total = policy.flip_rate + policy.insert_rate + policy.delete_rate + policy.splice_rate
    if total <= 0.0:
        return data
    pick = rng.random() * total
    buf = bytearray(data)
    if pick < policy.flip_rate:
        if buf:
            buf[rng.randrange(len(buf))] = rng.randrange(256)
    elif pick < policy.flip_rate + policy.insert_rate:
        buf.insert(rng.randrange(len(buf) + 1), rng.randrange(256))
    elif pick < policy.flip_rate + policy.insert_rate + policy.delete_rate:
        if buf:
            del buf[rng.randrange(len(buf))]
    else:
        if corpus:
            other = corpus[rng.randrange(len(corpus))]
            cut_a = rng.randint(0, len(buf))
            cut_b = rng.randint(0, len(other))
            buf = buf[:cut_a] + bytearray(other[cut_b:])
    return bytes(buf[: policy.max_len])


def run_campaign(program: ParserProgram, corpus: SeedCorpus, config: CampaignConfig) -> CampaignLog:
    """Execute exactly budget_n inputs, logging coverage per sampling unit.

    Coverage-increasing inputs join the corpus.  Fully deterministic per
    ``config.trial_seed``.  Coverage stays in the executor's int mask form
    until each unit is decoded once at the end.
    """
    config.validate()
    rng = random.Random(config.trial_seed)
    budget = config.budget_n
    r = config.unit_size_r
    if budget % r:
        budget = (budget // r) * r
        log.warning("budget_n not divisible by unit_size_r; truncating to %d", budget)
    if budget == 0:
        raise CampaignError("budget smaller than one sampling unit")

    step_budget = config.step_budget
    pool = [s for s in corpus.inputs]
    if not pool:
        pool = [b""]
    seen = 0
    units = []
    curve = []
    unit_cov = 0
    t0 = time.perf_counter()
    for i in range(budget):
        seed = pool[rng.randrange(len(pool))]
        candidate = mutate_input(seed, config.policy, rng, pool)
        cov = execute_parser(program, candidate, step_budget).mask
        unit_cov |= cov
        if cov & ~seen:
            seen |= cov
            pool.append(candidate)
        if (i + 1) % r == 0:
            units.append(unit_cov)
            curve.append(seen.bit_count())
            unit_cov = 0
    elapsed = time.perf_counter() - t0
    return CampaignLog(
        unit_coverage=tuple(map(covered_ids, units)),
        discovery_curve=tuple(curve),
        executions_per_second=budget / elapsed if elapsed > 0 else float("inf"),
        final_corpus_size=len(pool),
        unit_size_r=r,
    )


# ---------------------------------------------------------------------------
# Sparse incidence stream persistence (also the external import format).
#
#   incidence v1
#   t <unit count>
#   unit <j>: <id> <id> ...      (sorted ids; a unit line may list none)
# ---------------------------------------------------------------------------

def serialize_units(units) -> str:
    lines = ["incidence v1", f"t {len(units)}"]
    for j, unit in enumerate(units):
        ids = " ".join(str(i) for i in sorted(unit))
        lines.append(f"unit {j}: {ids}".rstrip())
    return "\n".join(lines) + "\n"


def parse_units(text: str):
    """Parse the sparse incidence stream; returns a list of frozensets."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "incidence v1":
        raise CampaignError("missing 'incidence v1' header")
    t = None
    units = []
    for lineno, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        record = parts[0]
        if record not in ("t", "unit"):
            raise CampaignError(f"line {lineno}: unknown record {record!r}")
        if len(parts) < 2:
            raise CampaignError(f"line {lineno}: {record!r} record has no value")
        try:
            value = int(parts[1] if record == "t" else parts[1].rstrip(":"))
        except ValueError as exc:
            what = "t value" if record == "t" else "unit index"
            raise CampaignError(f"line {lineno}: {what} {parts[1]!r} is not an integer") from exc
        if record == "t":
            t = value
        else:
            if value != len(units):
                raise CampaignError(f"line {lineno}: unit records out of order")
            try:
                units.append(frozenset(int(p) for p in parts[2:]))
            except ValueError as exc:
                raise CampaignError(f"line {lineno}: non-integer element id") from exc
    if t is None or t != len(units):
        raise CampaignError("unit count does not match the t record")
    return units
