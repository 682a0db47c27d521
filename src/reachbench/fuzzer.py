"""Desk-scale coverage-guided fuzzing campaigns against compiled parsers.

The loop is deliberately simple: weighted-random seed scheduling, a small
mutation stack (flip / insert / delete / splice), and novelty-based corpus
addition (an input joins the corpus iff it covers a new element).  Coverage
is aggregated into sampling units of a fixed number of consecutive
executions, which keeps the incidence data independent of machine load and
makes every trial reproducible from its seed.  A mutant that agrees with its
corpus entry on every byte the entry's parse read (up to and including its
read horizon) has the entry's coverage, which the loop reuses instead of
parsing the mutant again.  A campaign's log holds its ``IncidenceMatrix``.
"""

from __future__ import annotations

import logging
import numbers
import random
import time
from dataclasses import dataclass, field
from itertools import compress

from .codegen import ParserProgram, execute_parser
from .grammar import Grammar, min_derivation_length
from .incidence import ID_MAX, ID_MIN, IncidenceMatrix, from_masks

log = logging.getLogger(__name__)


class CampaignError(ValueError):
    pass


def check_count(name, value):
    """Reject a count setting that is not an integer >= 1."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise CampaignError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class MutationPolicy:
    flip_rate: float = 0.4
    insert_rate: float = 0.3
    delete_rate: float = 0.2
    splice_rate: float = 0.1
    max_len: int = 256

    def validate(self):
        for r in (self.flip_rate, self.insert_rate, self.delete_rate, self.splice_rate):
            if isinstance(r, bool) or not isinstance(r, numbers.Real) or not 0.0 <= r <= 1.0:
                raise CampaignError(f"mutation rates must be in [0, 1], got {r!r}")
        check_count("max_len", self.max_len)


@dataclass(frozen=True)
class CampaignConfig:
    trial_seed: int = 0
    budget_n: int = 10_000
    unit_size_r: int = 100
    policy: MutationPolicy = field(default_factory=MutationPolicy)
    step_budget: int = 1_000_000

    def validate(self):
        check_count("budget_n", self.budget_n)
        check_count("unit_size_r", self.unit_size_r)
        if self.budget_n < self.unit_size_r:
            raise CampaignError("budget smaller than one sampling unit")
        self.policy.validate()


@dataclass(frozen=True)
class CampaignLog:
    matrix: IncidenceMatrix  # one unit per unit_size_r consecutive executions
    executions_per_second: float  # budget inputs per second; a reused parse counts
    final_corpus_size: int
    parser_runs: int  # execute_parser calls, the initial corpus entries' included


def generate_seed_corpus(
    grammar: Grammar, n_seeds: int, max_depth: int, rng_seed: int,
    max_len: int = 256,
) -> tuple:
    """Valid inputs from random leftmost derivations, depth- and size-bounded.

    Beyond ``max_depth``, or once the emitted output plus the pending
    sentential form reaches ``max_len``, the derivation always picks a
    minimal-cost rule, so productive grammars terminate with inputs of
    roughly bounded length.  Deterministic per ``rng_seed``.
    """
    rng = random.Random(rng_seed)
    cost = min_derivation_length(grammar)
    rules_of = grammar.rules_of

    def rule_cost(rule):
        # Tie-break on nonterminal count so epsilon-heavy grammars still terminate.
        c = sum(1 if isinstance(s, int) else cost[s] for s in rule.rhs)
        return (c, sum(1 for s in rule.rhs if isinstance(s, str)))

    cheapest = {nt: min(rules_of(nt), key=rule_cost) for nt in grammar.nonterminals}
    seeds = []
    for i in range(n_seeds):
        out = bytearray()
        stack = [(grammar.start, 0)]
        while stack:
            sym, depth = stack.pop()
            if isinstance(sym, int):
                out.append(sym)
                continue
            if depth >= max_depth or len(out) + len(stack) >= max_len:
                rule = cheapest[sym]
            else:
                rules = rules_of(sym)
                rule = rules[rng.randrange(len(rules))]
            stack.extend((s, depth + 1) for s in reversed(rule.rhs))
        seeds.append(bytes(out))
    return tuple(seeds)


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


def run_campaign(program: ParserProgram, corpus, config: CampaignConfig) -> CampaignLog:
    """Evaluate exactly budget_n inputs, from the seed inputs ``corpus`` on,
    logging coverage per sampling unit.

    Coverage-increasing inputs join the corpus.  Fully deterministic per
    ``config.trial_seed``.  Coverage stays in the executor's int mask form
    until the units' masks are decoded into W at the end.

    Each corpus entry keeps the mask of its parse, its read horizon
    h = ``consumed`` and the bytes ``entry[:h + 1]`` that its parse read.  A
    mutant whose ``[:h + 1]`` slice equals those bytes takes the entry's
    mask without a parse.  That is exact:

    - ``interpret_parser`` reads the input only at its current position,
      which never decreases, and it returns its last position as
      ``consumed``, whichever way the parse ends (accept, reject, error exit
      or step budget).  So its whole result is a function of tokens 0..h,
      where token n = len(input) is end-of-input.
    - Two inputs agree on tokens 0..h iff their ``[:h + 1]`` slices are
      equal: for h < n both slices hold h + 1 bytes, and for h = n the
      entry's slice is the whole entry, so only the entry itself matches.
    - ``execute_parser`` equals ``interpret_parser`` on every input (the
      codegen contract that tests/test_codegen.py checks), so a matching
      mutant has the entry's whole ``ExecutionResult``.

    Every initial entry is parsed once before the loop; those parses count
    in ``parser_runs`` but add to no unit.
    """
    config.validate()
    rng = random.Random(config.trial_seed)
    budget = config.budget_n
    r = config.unit_size_r
    if budget % r:
        budget = (budget // r) * r
        log.warning("budget_n not divisible by unit_size_r; truncating to %d", budget)

    step_budget = config.step_budget

    def parse(data):
        res = execute_parser(program, data, step_budget)
        return res.mask, res.consumed + 1, data[:res.consumed + 1]

    t0 = time.perf_counter()
    pool = list(corpus) or [b""]
    parses = [parse(entry) for entry in pool]  # (mask, h + 1, entry[:h + 1])
    parser_runs = len(pool)
    seen = 0
    units = []
    unit_cov = 0
    for i in range(budget):
        j = rng.randrange(len(pool))
        candidate = mutate_input(pool[j], config.policy, rng, pool)
        parsed = parses[j]
        if candidate[:parsed[1]] != parsed[2]:
            parsed = parse(candidate)
            parser_runs += 1
        cov = parsed[0]
        unit_cov |= cov
        if cov & ~seen:
            seen |= cov
            pool.append(candidate)
            parses.append(parsed)
        if (i + 1) % r == 0:
            units.append(unit_cov)
            unit_cov = 0
    elapsed = time.perf_counter() - t0
    return CampaignLog(
        matrix=from_masks(units, program.n_elements),
        executions_per_second=budget / elapsed if elapsed > 0 else float("inf"),
        final_corpus_size=len(pool),
        parser_runs=parser_runs,
    )


# ---------------------------------------------------------------------------
# Sparse incidence stream persistence (also the external import format).
#
#   incidence v1
#   t <unit count>
#   unit <j>: <id> <id> ...      (sorted ids; a unit line may list none)
# ---------------------------------------------------------------------------

def serialize_units(matrix: IncidenceMatrix) -> str:
    """The stream of ``matrix``: unit j lists the ids of W's column j."""
    ids = list(map(str, matrix.element_ids))
    lines = ["incidence v1", f"t {matrix.t}"]
    for j, col in enumerate(matrix.w.T):
        lines.append(" ".join([f"unit {j}:", *compress(ids, col.tolist())]))
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
                unit = frozenset(int(p) for p in parts[2:])
            except ValueError as exc:
                raise CampaignError(f"line {lineno}: non-integer element id") from exc
            if unit and not (ID_MIN <= min(unit) and max(unit) <= ID_MAX):
                raise CampaignError(f"line {lineno}: element id outside int64")
            units.append(unit)
    if t is None or t != len(units):
        raise CampaignError("unit count does not match the t record")
    return units
