"""Seeded random generation of LL(1) grammars with labeled ground truth.

The generator is constructive rather than rejection-based: every rule of a
nonterminal starts with a distinct terminal drawn without replacement from
the alphabet, so PREDICT sets of sibling rules are disjoint by construction
(no epsilon rules by default).  Productivity is also by construction: each
nonterminal gets at least one escape rule that references only strictly
lower-ranked nonterminals.

On top of the reachable core, the generator can inject fully formed but
unreachable nonterminals and dead-branch annotations, yielding an exactly
known ground-truth partition of the eventual coverage elements.
"""

from __future__ import annotations

import numbers
import random
from dataclasses import dataclass, field, fields, replace

from .grammar import (
    Grammar,
    GrammarError,
    Rule,
    check_productivity,
    reachable_nonterminals,
)


class InfeasibleConfigError(ValueError):
    """The generator cannot satisfy the configuration; names the binding constraint."""


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


@dataclass(frozen=True)
class GenConfig:
    seed: int = 0
    n_nonterminals: int = 10
    rules_per_nonterminal: tuple = (1, 3)  # inclusive range
    rule_length: tuple = (1, 4)  # inclusive range, counts symbols after the lead terminal
    alphabet_size: int = 16
    recursion_direct: float = 0.15
    recursion_indirect: float = 0.15
    recursion_linear: float = 0.15
    n_unreachable: int = 0
    n_dead_branches: int = 0
    allow_epsilon: bool = False
    max_attempts: int = 1000

    def validate(self) -> None:
        # Each field must have its default's type, before any comparison.
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(f.default, tuple):
                ok = isinstance(value, tuple) and len(value) == 2 and all(map(_is_int, value))
                kind = "a pair of integers"
            elif isinstance(f.default, bool):
                ok, kind = isinstance(value, bool), "true or false"
            elif isinstance(f.default, int):
                ok, kind = _is_int(value), "an integer"
            else:
                ok = isinstance(value, numbers.Real) and not isinstance(value, bool)
                kind = "a number"
            if not ok:
                raise InfeasibleConfigError(f"{f.name} must be {kind}, got {value!r}")
        if self.n_nonterminals < 1:
            raise InfeasibleConfigError("n_nonterminals must be >= 1")
        lo, hi = self.rules_per_nonterminal
        if not (1 <= lo <= hi):
            raise InfeasibleConfigError("rules_per_nonterminal range is empty")
        llo, lhi = self.rule_length
        if not (0 <= llo <= lhi):
            raise InfeasibleConfigError("rule_length range is empty")
        if not (1 <= self.alphabet_size <= 256):
            raise InfeasibleConfigError("alphabet_size must be in 1..256")
        if self.n_unreachable < 0 or self.n_dead_branches < 0:
            raise InfeasibleConfigError("injection counts must be >= 0")
        if self.n_unreachable >= self.n_nonterminals:
            raise InfeasibleConfigError("n_unreachable must be < n_nonterminals")
        mix = self.recursion_direct + self.recursion_indirect + self.recursion_linear
        if mix > 1.0 + 1e-9 or min(
            self.recursion_direct, self.recursion_indirect, self.recursion_linear
        ) < 0:
            raise InfeasibleConfigError("recursion proportions must be >= 0 and sum to <= 1")
        if hi > self.alphabet_size:
            raise InfeasibleConfigError(
                "alphabet_size too small: disjoint lead terminals need "
                f"alphabet_size >= max rules_per_nonterminal ({hi})"
            )


@dataclass(frozen=True)
class GroundTruthLabel:
    """Rule-level ground truth: reachable and unreachable rule ids partition all rules."""

    reachable_rules: frozenset
    unreachable_rules: frozenset

    def validate_against(self, grammar: Grammar) -> None:
        all_ids = {r.rule_id for r in grammar.rules}
        if self.reachable_rules | self.unreachable_rules != all_ids or (
            self.reachable_rules & self.unreachable_rules
        ):
            raise GrammarError("ground-truth label does not partition the rule ids")


def label_for(grammar: Grammar) -> GroundTruthLabel:
    """Ground-truth label recomputed from the grammar's reachability closure."""
    reach = reachable_nonterminals(grammar)
    reachable = frozenset(r.rule_id for r in grammar.rules if r.lhs in reach)
    unreachable = frozenset(r.rule_id for r in grammar.rules if r.lhs not in reach)
    return GroundTruthLabel(reachable, unreachable)


def _gen_component(rng, names, alphabet, config):
    """Generate rule right-hand sides for one connected component of nonterminals.

    ``names`` are ranked: names[0] is the component root.  Returns a list of
    (lhs, rhs) in declaration order.  Escape rules reference only
    lower-ranked nonterminals, so every nonterminal is productive; a
    spanning reference from some earlier nonterminal makes every
    nonterminal reachable from the root.
    """
    n = len(names)
    rank = {nt: i for i, nt in enumerate(names)}
    lo, hi = config.rules_per_nonterminal
    llo, lhi = config.rule_length
    n_rules = {nt: rng.randint(lo, hi) for nt in names}

    # Indirect-recursion cycles: chains of length 2..4 in the reference graph.
    cycle_edges = {}  # nt -> successor nt it must reference
    if n >= 2:
        n_cycles = int(round(config.recursion_indirect * n / 3))
        pool = [nt for nt in names[1:]]
        rng.shuffle(pool)
        while n_cycles > 0 and len(pool) >= 2:
            k = min(rng.randint(2, 4), len(pool))
            cyc = [pool.pop() for _ in range(k)]
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                cycle_edges[a] = b
            n_cycles -= 1

    # Spanning parents: every non-root nonterminal is referenced from an
    # earlier one, so the whole component hangs off the root.
    parent_children = {nt: [] for nt in names}
    for nt in names[1:]:
        parent = names[rng.randrange(rank[nt])]
        parent_children[parent].append(nt)

    out = []
    for nt in names:
        leads = rng.sample(sorted(alphabet), n_rules[nt])
        mandatory = list(parent_children[nt])
        if nt in cycle_edges:
            mandatory.append(cycle_edges[nt])
        rng.shuffle(mandatory)
        rules = []
        for ri in range(n_rules[nt]):
            body_len = rng.randint(llo, lhi)
            body = []
            for _ in range(body_len):
                if rng.random() < 0.5 and n > 1:
                    body.append(names[rng.randrange(n)])
                else:
                    body.append(rng.choice(sorted(alphabet)))
            rules.append([leads[ri]] + body)

        # The last rule is the escape: strictly lower-ranked references only.
        esc = rules[-1]
        for i in range(1, len(esc)):
            if isinstance(esc[i], str) and rank[esc[i]] >= rank[nt]:
                if rank[nt] > 0:
                    esc[i] = names[rng.randrange(rank[nt])]
                else:
                    esc[i] = rng.choice(sorted(alphabet))

        # Recursion shaping on the non-escape rules.
        for ri in range(len(rules) - 1):
            body = rules[ri]
            u = rng.random()
            if u < config.recursion_linear:
                # Fig-1 loop shape: self-reference only in tail position.
                body[:] = [s for s in body if s != nt]
                body.append(nt)
            elif u < config.recursion_linear + config.recursion_direct and len(body) > 1:
                body[rng.randrange(1, len(body))] = nt

        # Mandatory spanning/cycle references go into non-tail slots of
        # non-escape rules when possible, else extend the escape is not an
        # option (it must stay lower-ranked), so widen a non-escape rule.
        for target in mandatory:
            if rank.get(target, -1) < rank[nt] and rank.get(target, -1) >= 0:
                host = rules[rng.randrange(len(rules))]
            elif len(rules) > 1:
                host = rules[rng.randrange(len(rules) - 1)]
            else:
                # Single-rule nonterminal: the escape must carry an
                # equal-or-higher-ranked reference; retried by the caller
                # if productivity breaks, but a lower-ranked target is fine.
                host = rules[0]
                if rank.get(target, 10 ** 9) >= rank[nt]:
                    # Appending would break the productivity ordering; give
                    # this nonterminal an extra carrier rule instead.
                    if len(set(alphabet)) > len(rules):
                        lead = rng.choice(sorted(set(alphabet) - {r[0] for r in rules}))
                        host = [lead]
                        rules.insert(0, host)
                    # else: drop the reference; reachability is re-checked later.
            if host and host[-1] == nt:
                # Keep tail-linear shape: insert before the trailing self-ref.
                host.insert(len(host) - 1, target)
            else:
                host.append(target)

        # Optional epsilon rule replaces the escape body (kept LL(1) by the
        # caller's conflict check and retry loop).
        if config.allow_epsilon and rng.random() < 0.15 and len(rules) > 1:
            rules[-1] = ["__EPS__"]

        out.extend((nt, rule) for rule in rules)
    return out


def _build(rng, config, core_names, extra_names, alphabet):
    rows = _gen_component(rng, core_names, alphabet, config)
    for name in extra_names:
        rows.extend(_gen_component(rng, [name], alphabet, config))
    names = list(core_names) + list(extra_names)
    rules = []
    for rid, (lhs, body) in enumerate(rows):
        if body == ["__EPS__"]:
            rhs = ()
        else:
            rhs = tuple(body)
        rules.append(Rule(rid, lhs, rhs))
    dead_marks = tuple(
        core_names[rng.randrange(len(core_names))] for _ in range(config.n_dead_branches)
    )
    return Grammar(
        nonterminals=tuple(names),
        terminals=frozenset(alphabet),
        rules=tuple(rules),
        start=core_names[0],
        unreachable_marks=tuple(extra_names),
        dead_marks=dead_marks,
    )


def generate_grammar(config: GenConfig):
    """Generate an LL(1) grammar plus its ground-truth label, fully seed-deterministic.

    Returns ``(grammar, label)``.  Raises :class:`InfeasibleConfigError`
    after ``config.max_attempts`` failed construction attempts.
    """
    config.validate()
    rng = random.Random(config.seed)
    alphabet = list(range(config.alphabet_size))
    n_core = config.n_nonterminals - config.n_unreachable
    core_names = [f"N{i}" for i in range(n_core)]
    extra_names = [f"U{i}" for i in range(config.n_unreachable)]

    last_problem = "no attempt made"
    for _ in range(config.max_attempts):
        grammar = _build(rng, config, core_names, extra_names, alphabet)
        try:
            conflicts = grammar.ll1_conflicts
        except GrammarError as exc:
            last_problem = str(exc)
            continue
        if conflicts:
            last_problem = "PREDICT conflicts (epsilon rules overlap FOLLOW)"
            continue
        if reachable_nonterminals(grammar) != set(core_names):
            last_problem = "reachable closure does not match the intended core"
            continue
        if not set(grammar.nonterminals) <= check_productivity(grammar):
            last_problem = "a generated nonterminal is not productive"
            continue
        return grammar, label_for(grammar)
    raise InfeasibleConfigError(
        f"generation failed after {config.max_attempts} attempts; "
        f"binding constraint: {last_problem}"
    )


def serialize_label(label: GroundTruthLabel) -> str:
    lines = ["label v1"]
    for rid in sorted(label.reachable_rules):
        lines.append(f"rule {rid} reachable")
    for rid in sorted(label.unreachable_rules):
        lines.append(f"rule {rid} unreachable")
    return "\n".join(lines) + "\n"


def parse_label(text: str) -> GroundTruthLabel:
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1] != "label v1":
        raise GrammarError("missing 'label v1' header")
    verdicts = {"reachable": set(), "unreachable": set()}
    for lineno, ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] != "rule":
            raise GrammarError(f"line {lineno}: malformed label record: {ln!r}")
        if not (parts[1].isascii() and parts[1].isdigit()):
            raise GrammarError(f"line {lineno}: label rule id {parts[1]!r} is not an integer")
        if parts[2] not in verdicts:
            raise GrammarError(f"line {lineno}: unknown label verdict {parts[2]!r}")
        verdicts[parts[2]].add(int(parts[1]))
    return GroundTruthLabel(frozenset(verdicts["reachable"]), frozenset(verdicts["unreachable"]))
