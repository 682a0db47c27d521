"""Compile a grammar into an executable recursive-descent parser program.

The control flow mirrors the grammar directly: each nonterminal becomes a
procedure, each rule becomes a dispatch arm keyed by its PREDICT set, and
tail-linear recursive arms are lowered to while loops.  Every arm carries a
coverage element, every procedure carries an error-exit element, and
injected dead branches become statically false guards with an element
inside.  The element ids are dense and deterministic from the grammar, so
three executors report identical sets: ``interpret_parser``, the reference
stack interpreter; ``execute_parser``, which runs Python source generated
per grammar and compiled once, and which the fuzzer calls; and the C
translation unit of ``export_c_source``.  The generated parser hands an
input back to the interpreter when it would exceed the step budget or the
recursion limit, so ``execute_parser`` equals ``interpret_parser`` on every
input, step count included.
"""

from __future__ import annotations

import hashlib
import marshal
import zlib
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import compress, count, groupby
from typing import NamedTuple

from .grammar import (
    EOI,
    TOKEN_DOMAIN_SIZE,
    Grammar,
    GrammarError,
    reachable_nonterminals,
    serialize_grammar,
)
from .grammargen import GroundTruthLabel, label_for


class CompileError(ValueError):
    """Grammar rejected by the code generator (usually: not LL(1))."""


class GroundTruthMismatch(ValueError):
    """The provided label disagrees with the grammar's own reachability closure."""


@dataclass(frozen=True)
class CoverageElement:
    id: int
    kind: str  # 'rule-arm' | 'error-exit' | 'dead-guard'
    origin: object  # rule_id for rule-arm, nonterminal name otherwise


@dataclass(frozen=True)
class Arm:
    rule_id: int
    rhs: tuple
    predict: frozenset
    element_id: int
    is_loop: bool  # tail-linear self-recursive arm, lowered to a while loop


@dataclass(frozen=True)
class Procedure:
    nonterminal: str
    arms: tuple
    error_element_id: int
    dead_element_ids: tuple


def covered_ids(mask: int) -> frozenset:
    """The element ids in a coverage mask, which has bit ``8 * id`` set for
    each: the little-endian bytes of a bytearray with one byte per element."""
    return frozenset(compress(count(), mask.to_bytes((mask.bit_length() + 7) // 8, "little")))


class ExecutionResult(NamedTuple):
    mask: int  # the covered element ids, as read by covered_ids
    verdict: str  # 'accept' | 'reject'
    consumed: int
    steps: int

    @property
    def covered(self) -> frozenset:
        return covered_ids(self.mask)


@dataclass(frozen=True)
class ParserProgram:
    start: str
    procedures: tuple  # of Procedure, nonterminal declaration order
    elements: tuple  # of CoverageElement, dense ids
    ground_truth: frozenset  # element ids
    source_grammar_digest: str
    dispatch: dict  # nonterminal -> {token: (element_id, push_items)}
    error_element: dict  # nonterminal -> element id

    @property
    def n_elements(self) -> int:
        return len(self.elements)

    @cached_property
    def runner_code(self) -> bytes:
        """The generated parser's module, compiled once per program,
        marshalled and compressed.  It is pickled with the program, and a
        forked worker inherits it, so a worker builds ``runner`` without
        compiling.  Compressed, it is a quarter of its size (about 30 kB
        for a 120-nonterminal grammar): ``run`` holds one per program."""
        return _runner_code(self)

    @cached_property
    def runner(self):
        """The generated parser that ``execute_parser`` runs, built from
        ``runner_code``: ``runner(data, step_budget) -> ExecutionResult``."""
        return _make_runner(self)


def compile_to_parser(grammar: Grammar, label: GroundTruthLabel = None) -> ParserProgram:
    """Lower a validated LL(1) grammar to a ParserProgram with coverage elements."""
    if grammar.ll1_conflicts:
        raise CompileError(f"grammar is not LL(1): {list(grammar.ll1_conflicts)}")
    if label is None:
        label = label_for(grammar)
    label.validate_against(grammar)

    predict = grammar.predict_table.predict
    elements = []
    procedures = []
    dispatch = {}
    error_element = {}
    next_id = 0
    dead_by_nt = {}
    for nt in grammar.dead_marks:
        dead_by_nt[nt] = dead_by_nt.get(nt, 0) + 1

    for nt in grammar.nonterminals:
        arms = []
        for rule in grammar.rules_of(nt):
            is_loop = bool(rule.rhs) and rule.rhs[-1] == nt and nt not in rule.rhs[:-1]
            arms.append(
                Arm(rule.rule_id, rule.rhs, predict[rule.rule_id], next_id, is_loop)
            )
            elements.append(CoverageElement(next_id, "rule-arm", rule.rule_id))
            next_id += 1
        err_id = next_id
        elements.append(CoverageElement(next_id, "error-exit", nt))
        next_id += 1
        dead_ids = []
        for _ in range(dead_by_nt.get(nt, 0)):
            dead_ids.append(next_id)
            elements.append(CoverageElement(next_id, "dead-guard", nt))
            next_id += 1
        procedures.append(Procedure(nt, tuple(arms), err_id, tuple(dead_ids)))
        error_element[nt] = err_id
        # Executor dispatch: token -> (arm element, rhs items tagged with owner).
        dmap = {}
        for arm in arms:
            push = tuple(reversed([(sym, nt) for sym in arm.rhs]))
            for tok in arm.predict:
                dmap[tok] = (arm.element_id, push)
        dispatch[nt] = dmap

    digest = hashlib.sha256(serialize_grammar(grammar).encode()).hexdigest()
    truth = _ground_truth(procedures, grammar, label)
    return ParserProgram(
        start=grammar.start,
        procedures=tuple(procedures),
        elements=tuple(elements),
        ground_truth=truth,
        source_grammar_digest=digest,
        dispatch=dispatch,
        error_element=error_element,
    )


def _ground_truth(procedures, grammar, label):
    """The exact set of reachable element ids (true maximum reachability S).

    A rule-arm element is reachable iff its rule is ground-truth reachable;
    dead guards never are; an error exit is reachable iff its procedure is
    start-reachable and the union of its arms' PREDICT sets leaves some
    token (byte or end-of-input) unclaimed.
    """
    reach = reachable_nonterminals(grammar)
    expect_reachable = {r.rule_id for r in grammar.rules if r.lhs in reach}
    if expect_reachable != set(label.reachable_rules):
        raise GroundTruthMismatch(
            "label.reachable_rules disagrees with the reachability closure"
        )
    truth = set()
    for proc in procedures:
        predict_union = set()
        for arm in proc.arms:
            predict_union |= arm.predict
            if arm.rule_id in label.reachable_rules:
                truth.add(arm.element_id)
        if proc.nonterminal in reach and len(predict_union) < TOKEN_DOMAIN_SIZE:
            truth.add(proc.error_element_id)
    return frozenset(truth)


def execute_parser(program: ParserProgram, data: bytes, step_budget: int = 1_000_000) -> ExecutionResult:
    """Run the program's generated parser on a byte string.

    The result equals ``interpret_parser``'s on every input: the covered
    elements, the verdict, the bytes consumed and the step count.
    """
    if step_budget <= 0:
        raise ValueError("step_budget must be > 0")
    return program.runner(data, step_budget)


def interpret_parser(program: ParserProgram, data: bytes, step_budget: int = 1_000_000) -> ExecutionResult:
    """The reference stack interpreter of a parser program.

    Dispatch failures and terminal mismatches cover the owning procedure's
    error-exit element and unwind; accept requires the start procedure to
    return with all input consumed.  Each popped stack item is one step;
    the run stops, rejecting, at the first step past ``step_budget``.
    """
    if step_budget <= 0:
        raise ValueError("step_budget must be > 0")
    dispatch = program.dispatch
    error_element = program.error_element
    hit = bytearray(program.n_elements)
    n = len(data)
    pos = 0
    steps = 0
    stack = [(program.start, None)]
    while stack:
        steps += 1
        if steps > step_budget:
            return ExecutionResult(int.from_bytes(hit, "little"), "reject", pos, steps)
        sym, owner = stack.pop()
        if type(sym) is int:
            if pos < n and data[pos] == sym:
                pos += 1
            else:
                hit[error_element[owner]] = 1
                return ExecutionResult(int.from_bytes(hit, "little"), "reject", pos, steps)
        else:
            tok = data[pos] if pos < n else EOI
            entry = dispatch[sym].get(tok)
            if entry is None:
                hit[error_element[sym]] = 1
                return ExecutionResult(int.from_bytes(hit, "little"), "reject", pos, steps)
            hit[entry[0]] = 1
            stack.extend(entry[1])
    verdict = "accept" if pos == n else "reject"
    return ExecutionResult(int.from_bytes(hit, "little"), verdict, pos, steps)


def cyclomatic_complexity(program: ParserProgram) -> int:
    """Sum of per-procedure McCabe numbers of the compiled program.

    Per procedure: one path plus one decision per extra dispatch arm plus
    one per injected dead guard, i.e. M = arms + dead_guards.
    """
    total = 0
    for proc in program.procedures:
        total += len(proc.arms) + len(proc.dead_element_ids)
    return total


# ---------------------------------------------------------------------------
# Generated Python backend
# ---------------------------------------------------------------------------

def _emit_py_arm(lines, arm, proc, index, ind, strip_tail_self):
    """Emit one arm's body; a plain arm ends by returning the position.

    The arm's dispatch and all its terminals are counted as steps on entry;
    an error exit inside the arm takes back the terminals it never reads.
    A run of terminals is tested in one condition and consumed in one step.
    A leading terminal is not tested: it is the arm's whole PREDICT set,
    which the dispatch matched.  A trailing call is returned directly.
    """
    rhs = arm.rhs[:-1] if strip_tail_self else arm.rhs
    unread = sum(isinstance(sym, int) for sym in rhs)
    lines.append(f"{ind}hit[{arm.element_id}] = 1")
    lines.append(f"{ind}steps += {1 + unread}")
    done = 0
    for is_terminal, group in groupby(rhs, lambda sym: isinstance(sym, int)):
        group = tuple(group)
        if is_terminal:
            unread -= len(group)
            checks = [f"toks[pos + {o}] != {sym}" if o else f"toks[pos] != {sym}"
                      for o, sym in enumerate(group) if done + o]
            if checks:
                lines.append(f"{ind}if {' or '.join(checks)}: "
                             f"return mismatch({proc.error_element_id}, pos, {group}, {unread})")
            lines.append(f"{ind}pos += {len(group)}")
            done += len(group)
            continue
        for sym in group:
            done += 1
            call = f"p{index[sym]}(pos)"
            if done == len(rhs) and not strip_tail_self:
                lines.append(f"{ind}return {call}")
                return
            lines.append(f"{ind}pos = {call}")
            take_back = f"steps -= {unread}; " if unread else ""
            lines.append(f"{ind}if pos < 0: {take_back}return pos")
    if not strip_tail_self:
        lines.append(f"{ind}return pos")


def _python_source(program: ParserProgram) -> str:
    """Python source of ``make_runner(tables, result, fallback)``; mirrors
    export_c_source.

    One nested function per procedure takes the input position and returns
    the position after its nonterminal, -1 once an error exit is hit, or
    -2 once a loop has run past the step budget.  ``toks`` (the input bytes
    plus EOI), ``hit`` (one byte per element), ``steps`` and ``end`` (the
    position of an error exit) are closure cells.  ``steps`` counts the
    interpreter's steps: one per dispatch (procedure entry or loop
    re-dispatch) and one per terminal read, the failing one included.  If
    the count exceeds the budget, or the recursion limit is hit, the input
    is re-run through ``fallback``, the reference interpreter, which stops
    where the budget runs out.  Dead guards emit nothing, since they never
    fire.
    """
    index = {proc.nonterminal: i for i, proc in enumerate(program.procedures)}
    names = ", ".join(f"d{i}" for i in range(len(program.procedures)))
    out = [
        "def make_runner(tables, result, fallback):",
        f"    {names}, = tables",
        "    toks = hit = None",
        "    steps = budget = end = 0",
        "    def mismatch(err, pos, group, unread):",
        "        # Error exit at the first terminal of group that differs from the input.",
        "        nonlocal steps, end",
        "        o = 0",
        "        while toks[pos + o] == group[o]:",
        "            o += 1",
        "        steps -= len(group) - o - 1 + unread",
        "        end = pos + o",
        "        hit[err] = 1",
        "        return -1",
    ]
    for i, proc in enumerate(program.procedures):
        loop_arms = [j for j, arm in enumerate(proc.arms) if arm.is_loop]
        out.append(f"    def p{i}(pos):")
        out.append("        nonlocal steps, end")
        out.append(f"        a = d{i}[toks[pos]]")
        if loop_arms:
            cond = f"a == {loop_arms[0]}" if len(loop_arms) == 1 else f"a in {tuple(loop_arms)}"
            out.append(f"        while {cond}:")
            for j in loop_arms:
                ind = "            "
                if len(loop_arms) > 1:
                    out.append(f"            {'if' if j == loop_arms[0] else 'elif'} a == {j}:")
                    ind += "    "
                _emit_py_arm(out, proc.arms[j], proc, index, ind, strip_tail_self=True)
            # Ends a loop that would outrun the budget; run() then falls back.
            out.append("            if steps > budget: return -2")
            out.append(f"            a = d{i}[toks[pos]]")
        for j, arm in enumerate(proc.arms):
            if arm.is_loop:
                continue
            out.append(f"        if a == {j}:")
            _emit_py_arm(out, arm, proc, index, "            ", strip_tail_self=False)
        out.append(f"        hit[{proc.error_element_id}] = 1")
        out.append("        steps += 1")
        out.append("        end = pos")
        out.append("        return -1")
    out += [
        "    def run(data, step_budget):",
        "        nonlocal toks, hit, steps, budget",
        "        toks = list(data)",
        f"        toks.append({EOI})",
        f"        hit = bytearray({program.n_elements})",
        "        steps = 0",
        "        budget = step_budget",
        "        try:",
        f"            pos = p{index[program.start]}(0)",
        "        except RecursionError:",
        "            return fallback(data, step_budget)",
        "        if pos == -2 or steps > step_budget:",
        "            return fallback(data, step_budget)",
        "        if pos < 0:",
        '            return result((int.from_bytes(hit, "little"), "reject", end, steps))',
        '        verdict = "accept" if pos == len(data) else "reject"',
        '        return result((int.from_bytes(hit, "little"), verdict, pos, steps))',
        "    return run",
        "",
    ]
    return "\n".join(out)


def _dispatch_table(proc: Procedure) -> list:
    """Token -> local arm index, -1 for the error exit."""
    tbl = [-1] * TOKEN_DOMAIN_SIZE
    for j, arm in enumerate(proc.arms):
        for tok in arm.predict:
            tbl[tok] = j
    return tbl


def _runner_code(program: ParserProgram) -> bytes:
    name = f"<parser {program.source_grammar_digest[:12]}>"
    return zlib.compress(marshal.dumps(compile(_python_source(program), name, "exec")), 1)


def _make_runner(program: ParserProgram):
    def fallback(data, step_budget):
        return interpret_parser(program, data, step_budget)

    namespace = {}
    exec(marshal.loads(zlib.decompress(program.runner_code)), namespace)
    tables = [_dispatch_table(proc) for proc in program.procedures]
    # Builds an ExecutionResult from a tuple in half the time its __new__ takes.
    result = partial(tuple.__new__, ExecutionResult)
    return namespace["make_runner"](tables, result, fallback)


# ---------------------------------------------------------------------------
# C export backend
# ---------------------------------------------------------------------------

def _c_name(nt: str) -> str:
    return "parse_" + "".join(ch if ch.isalnum() else f"_{ord(ch)}_" for ch in nt)


def _emit_arm_body(lines, arm, proc, strip_tail_self):
    rhs = arm.rhs
    if strip_tail_self:
        rhs = rhs[:-1]
    for sym in rhs:
        if isinstance(sym, int):
            lines.append(f"      if (look() != {sym}) {{ hit[{proc.error_element_id}] = 1; return 1; }}")
            lines.append("      pos++;")
        else:
            lines.append(f"      if ({_c_name(sym)}()) return 1;")


def export_c_source(program: ParserProgram) -> str:
    """Emit a self-contained C translation unit for the compiled parser.

    One function per procedure, byte-stream lookahead, an element-hit
    bitmap keyed by the same element ids, and a main that reads all of
    standard input as the test input and prints one covered element id per
    line on exit (exit status 0 on accept, 1 on reject).
    """
    out = [
        "/* Auto-generated recursive-descent parser with element-hit instrumentation. */",
        "#include <stdio.h>",
        "#include <stdlib.h>",
        "",
        f"#define N_ELEMENTS {program.n_elements}",
        "#define TOK_EOI 256",
        "",
        "static unsigned char *inp;",
        "static size_t inp_len, pos;",
        "static unsigned char hit[N_ELEMENTS];",
        "",
        "static int look(void) { return pos < inp_len ? inp[pos] : TOK_EOI; }",
        "",
    ]
    for proc in program.procedures:
        out.append(f"static int {_c_name(proc.nonterminal)}(void);")
    out.append("")

    for proc in program.procedures:
        name = _c_name(proc.nonterminal)
        tbl = _dispatch_table(proc)
        rows = [", ".join(str(v) for v in tbl[i:i + 16]) for i in range(0, TOKEN_DOMAIN_SIZE, 16)]
        out.append(f"static const short dispatch_{name}[{TOKEN_DOMAIN_SIZE}] = {{")
        for row in rows:
            out.append(f"  {row},")
        out.append("};")
        out.append(f"static int {name}(void) {{")
        out.append("  int a;")
        for dead_id in proc.dead_element_ids:
            out.append(f"  if (0) {{ hit[{dead_id}] = 1; }}")
        loop_arms = [i for i, arm in enumerate(proc.arms) if arm.is_loop]
        plain_arms = [i for i, arm in enumerate(proc.arms) if not arm.is_loop]
        out.append(f"  a = dispatch_{name}[look()];")
        if loop_arms:
            cond = " || ".join(f"a == {i}" for i in loop_arms)
            out.append(f"  while ({cond}) {{")
            for i in loop_arms:
                arm = proc.arms[i]
                kw = "if" if i == loop_arms[0] else "} else if"
                out.append(f"    {kw} (a == {i}) {{")
                out.append(f"      hit[{arm.element_id}] = 1;")
                _emit_arm_body(out, arm, proc, strip_tail_self=True)
            out.append("    }")
            out.append(f"    a = dispatch_{name}[look()];")
            out.append("  }")
        for i in plain_arms:
            arm = proc.arms[i]
            out.append(f"  if (a == {i}) {{")
            out.append(f"      hit[{arm.element_id}] = 1;")
            _emit_arm_body(out, arm, proc, strip_tail_self=False)
            out.append("      return 0;")
            out.append("  }")
        out.append(f"  hit[{proc.error_element_id}] = 1;")
        out.append("  return 1;")
        out.append("}")
        out.append("")

    out += [
        "int main(void) {",
        "  size_t cap = 1u << 16;",
        "  size_t got;",
        "  unsigned i;",
        "  int err, ok;",
        "  inp = (unsigned char *)malloc(cap);",
        "  if (!inp) return 2;",
        "  inp_len = 0;",
        "  while ((got = fread(inp + inp_len, 1, cap - inp_len, stdin)) > 0) {",
        "    inp_len += got;",
        "    if (inp_len == cap) {",
        "      cap *= 2;",
        "      inp = (unsigned char *)realloc(inp, cap);",
        "      if (!inp) return 2;",
        "    }",
        "  }",
        f"  err = {_c_name(program.start)}();",
        "  ok = !err && pos == inp_len;",
        "  for (i = 0; i < N_ELEMENTS; i++)",
        '    if (hit[i]) printf("%u\\n", i);',
        "  free(inp);",
        "  return ok ? 0 : 1;",
        "}",
        "",
    ]
    return "\n".join(out)


def element_manifest(program: ParserProgram) -> str:
    """Element-id manifest: id, kind, origin, ground-truth flag (one line each)."""
    lines = ["elements v1"]
    for el in program.elements:
        flag = "reachable" if el.id in program.ground_truth else "unreachable"
        lines.append(f"{el.id} {el.kind} {el.origin} {flag}")
    return "\n".join(lines) + "\n"
