"""LL(1) context-free grammars and their standard analyses.

A grammar here is deliberately lean: terminals are single bytes (ints in
0..255), nonterminals are names, and a rule's right-hand side is a tuple of
symbols (the empty tuple encodes an epsilon rule).  End-of-input is the
sentinel token 256, so the full token domain has 257 members.

The analyses are the classical fixpoint constructions: FIRST, FOLLOW,
nullability, PREDICT sets, LL(1) conflict detection, reachability, and
shortest derivations, whose finite entries are the productive
nonterminals.  All of them are pure functions of an immutable grammar
value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from functools import cached_property
from itertools import combinations

# End-of-input sentinel: outside the byte range on purpose.
EOI = 256

#: Size of the full token domain (all 256 bytes plus end-of-input).
TOKEN_DOMAIN_SIZE = 257


class GrammarError(ValueError):
    """A structural invariant of a grammar (or its serialized form) is violated."""


@dataclass(frozen=True)
class Rule:
    """One production rule.  An empty ``rhs`` is the epsilon rule."""

    rule_id: int
    lhs: str
    rhs: tuple  # of int (terminal byte) and str (nonterminal)


@dataclass(frozen=True)
class Grammar:
    """An immutable grammar with byte terminals and named nonterminals.

    ``unreachable_marks`` and ``dead_marks`` are generator-provided
    annotations: nonterminals intended to be unreachable from the start
    symbol, and one entry per injected dead branch (naming the procedure
    the dead guard lives in).
    """

    nonterminals: tuple  # of str, declaration order
    terminals: frozenset  # of int
    rules: tuple  # of Rule, rule_id order
    start: str
    unreachable_marks: tuple = ()
    dead_marks: tuple = ()

    def rules_of(self, nt: str) -> tuple:
        """The rules of ``nt``, in rule_id order."""
        return self._rules_by_lhs.get(nt, ())

    @cached_property
    def _rules_by_lhs(self) -> dict:
        by_lhs = {}
        for rule in self.rules:
            by_lhs.setdefault(rule.lhs, []).append(rule)
        return {nt: tuple(rules) for nt, rules in by_lhs.items()}

    @cached_property
    def predict_table(self) -> PredictTable:
        """``compute_first_follow(self)``, computed once per grammar, so that
        the generator's LL(1) check and the parser compiler share it."""
        return compute_first_follow(self)

    @cached_property
    def ll1_conflicts(self) -> tuple:
        """``check_ll1`` of ``predict_table``, computed once per grammar;
        empty when the grammar is LL(1)."""
        return tuple(check_ll1(self, self.predict_table))

    def __getstate__(self):
        # A pickle holds the fields; the cached analyses, several times the
        # grammar's size in memory, are computed again where they are needed.
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def validate(self) -> None:
        declared = set(self.nonterminals)
        if len(declared) != len(self.nonterminals):
            raise GrammarError("duplicate nonterminal declaration")
        if self.start not in declared:
            raise GrammarError(f"start symbol {self.start!r} is not declared")
        for b in self.terminals:
            if not (isinstance(b, int) and 0 <= b <= 255):
                raise GrammarError(f"terminal {b!r} is not a byte value")
        defined = set()
        for i, rule in enumerate(self.rules):
            if rule.rule_id != i:
                raise GrammarError(f"rule_id {rule.rule_id} out of order at index {i}")
            if rule.lhs not in declared:
                raise GrammarError(f"rule {i}: lhs {rule.lhs!r} is not declared")
            defined.add(rule.lhs)
            for sym in rule.rhs:
                if isinstance(sym, int):
                    if sym not in self.terminals:
                        raise GrammarError(f"rule {i}: terminal {sym} is not declared")
                elif isinstance(sym, str):
                    if sym not in declared:
                        raise GrammarError(f"rule {i}: nonterminal {sym!r} is not declared")
                else:
                    raise GrammarError(f"rule {i}: bad symbol {sym!r}")
        missing = declared - defined
        if missing:
            raise GrammarError(f"nonterminals without rules: {sorted(missing)}")
        for nt in self.unreachable_marks:
            if nt not in declared:
                raise GrammarError(f"unreachable annotation names unknown {nt!r}")
        for nt in self.dead_marks:
            if nt not in declared:
                raise GrammarError(f"dead-branch annotation names unknown {nt!r}")


@dataclass(frozen=True)
class Conflict:
    """An LL(1) violation: two rules of one nonterminal share lookahead tokens."""

    nonterminal: str
    rule_a: int
    rule_b: int
    tokens: frozenset


@dataclass(frozen=True)
class PredictTable:
    """FIRST/FOLLOW/nullable plus per-rule PREDICT sets.

    Token sets contain terminal bytes and possibly ``EOI``.
    """

    first: dict  # nt -> frozenset of tokens (no EOI)
    follow: dict  # nt -> frozenset of tokens
    nullable: frozenset  # of nt
    predict: dict  # rule_id -> frozenset of tokens

    def first_of_seq(self, rhs) -> tuple:
        """FIRST set of a symbol sequence and whether it derives epsilon."""
        out = set()
        eps = _add_first(out, rhs, self.first, self.nullable)
        return frozenset(out), eps


def _add_first(out: set, rhs, first, nullable) -> bool:
    """Add FIRST(rhs) to ``out``, given FIRST and the nullable set of each
    nonterminal; return whether ``rhs`` derives epsilon."""
    for sym in rhs:
        if isinstance(sym, int):
            out.add(sym)
            return False
        out |= first[sym]
        if sym not in nullable:
            return False
    return True


def compute_first_follow(grammar: Grammar) -> PredictTable:
    """Fixpoint FIRST/FOLLOW/nullable computation plus PREDICT sets."""
    grammar.validate()
    first = {nt: set() for nt in grammar.nonterminals}
    nullable = set()
    changed = True
    while changed:
        changed = False
        for rule in grammar.rules:
            f = first[rule.lhs]
            size = len(f) + len(nullable)
            if _add_first(f, rule.rhs, first, nullable):
                nullable.add(rule.lhs)
            changed |= len(f) + len(nullable) != size

    # FIRST is final now, so each occurrence of B in a rule of A adds
    # FIRST(its tail) to FOLLOW(B) once; the fixpoint adds FOLLOW(A) to
    # FOLLOW(B) wherever the tail is nullable.
    follow = {nt: set() for nt in grammar.nonterminals}
    follow[grammar.start].add(EOI)
    ends = []  # (FOLLOW(B), FOLLOW(A))
    for rule in grammar.rules:
        for i, sym in enumerate(rule.rhs):
            if isinstance(sym, str) and _add_first(follow[sym], rule.rhs[i + 1:], first, nullable):
                ends.append((follow[sym], follow[rule.lhs]))
    changed = True
    while changed:
        changed = False
        for f, lhs_follow in ends:
            size = len(f)
            f |= lhs_follow
            changed |= len(f) != size

    predict = {}
    for rule in grammar.rules:
        toks = set()
        if _add_first(toks, rule.rhs, first, nullable):
            toks |= follow[rule.lhs]
        predict[rule.rule_id] = frozenset(toks)
    return PredictTable(
        first={nt: frozenset(s) for nt, s in first.items()},
        follow={nt: frozenset(s) for nt, s in follow.items()},
        nullable=frozenset(nullable),
        predict=predict,
    )


def check_ll1(grammar: Grammar, table: PredictTable):
    """All pairwise PREDICT overlaps, reported exhaustively.  Empty list = LL(1)."""
    conflicts = []
    for nt in grammar.nonterminals:
        for a, b in combinations(grammar.rules_of(nt), 2):
            overlap = table.predict[a.rule_id] & table.predict[b.rule_id]
            if overlap:
                conflicts.append(Conflict(nt, a.rule_id, b.rule_id, frozenset(overlap)))
    return conflicts


def reachable_nonterminals(grammar: Grammar) -> frozenset:
    """Least set containing the start symbol and closed under rule references."""
    seen = {grammar.start}
    work = [grammar.start]
    while work:
        nt = work.pop()
        for rule in grammar.rules_of(nt):
            for sym in rule.rhs:
                if isinstance(sym, str) and sym not in seen:
                    seen.add(sym)
                    work.append(sym)
    return frozenset(seen)


def min_derivation_length(grammar: Grammar) -> dict:
    """Length of the shortest terminal string each nonterminal derives,
    ``inf`` for one that derives none: a fixpoint iterated down from ``inf``."""
    cost = dict.fromkeys(grammar.nonterminals, float("inf"))
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


def check_productivity(grammar: Grammar) -> frozenset:
    """The nonterminals that derive some finite terminal string."""
    cost = min_derivation_length(grammar)
    return frozenset(nt for nt, c in cost.items() if c != float("inf"))


# ---------------------------------------------------------------------------
# Serialization: a line-oriented UTF-8 schema with a canonical form.
#
#   grammar v1
#   start <name>
#   terminals <b> <b> ...          (ascending byte values)
#   nonterminal <name>             (one line each, declaration order)
#   rule <id> <lhs> := <sym> ...   (sym is t<byte> or a nonterminal name; eps)
#   unreachable <name>             (annotation lines, in mark order)
#   dead <name>
# ---------------------------------------------------------------------------

def _sym_to_text(sym) -> str:
    return f"t{sym}" if isinstance(sym, int) else sym


def serialize_grammar(grammar: Grammar) -> str:
    lines = ["grammar v1", f"start {grammar.start}"]
    lines.append("terminals " + " ".join(str(b) for b in sorted(grammar.terminals)))
    for nt in grammar.nonterminals:
        lines.append(f"nonterminal {nt}")
    for rule in grammar.rules:
        rhs = " ".join(_sym_to_text(s) for s in rule.rhs) if rule.rhs else "eps"
        lines.append(f"rule {rule.rule_id} {rule.lhs} := {rhs}")
    for nt in grammar.unreachable_marks:
        lines.append(f"unreachable {nt}")
    for nt in grammar.dead_marks:
        lines.append(f"dead {nt}")
    return "\n".join(lines) + "\n"


def parse_grammar(text: str) -> Grammar:
    lines = [(n, ln) for n, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not lines or lines[0][1].strip() != "grammar v1":
        raise GrammarError("missing 'grammar v1' header")
    start = None
    terminals = set()
    nonterminals = []
    rules = []
    unreachable = []
    dead = []
    for lineno, ln in lines[1:]:
        parts = ln.split()
        kind = parts[0]
        try:
            if kind == "start":
                start = parts[1]
            elif kind == "terminals":
                terminals = {int(p) for p in parts[1:]}
            elif kind == "nonterminal":
                nonterminals.append(parts[1])
            elif kind == "rule":
                rid = int(parts[1])
                lhs = parts[2]
                if parts[3] != ":=":
                    raise GrammarError(f"line {lineno}: expected ':='")
                syms = parts[4:]
                if syms == ["eps"]:
                    rhs = ()
                else:
                    rhs = tuple(
                        int(s[1:]) if s.startswith("t") and s[1:].isdigit() else s
                        for s in syms
                    )
                rules.append(Rule(rid, lhs, rhs))
            elif kind == "unreachable":
                unreachable.append(parts[1])
            elif kind == "dead":
                dead.append(parts[1])
            else:
                raise GrammarError(f"line {lineno}: unknown record {kind!r}")
        except (IndexError, ValueError) as exc:
            raise GrammarError(f"line {lineno}: malformed record: {ln!r}") from exc
    if start is None:
        raise GrammarError("missing start record")
    g = Grammar(
        nonterminals=tuple(nonterminals),
        terminals=frozenset(terminals),
        rules=tuple(rules),
        start=start,
        unreachable_marks=tuple(unreachable),
        dead_marks=tuple(dead),
    )
    g.validate()
    return g
