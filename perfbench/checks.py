"""Correctness checks of a workload's outputs, made apart from reachbench.

Every check recomputes what it verifies from the inputs and the artifacts on
disk: unit logs are parsed and recounted in plain Python, element ids are
re-derived from the grammar text, closed-form and NPMLE points come from the
test suite's reference transcriptions (``tests/reference_estimators.py``),
and p-values from ``scipy.stats``.  None compares against a stored copy of
earlier output.  Each check returns a list of failure messages; an empty
list means it passed.
"""

from __future__ import annotations

import csv
import importlib.util
import json
import math
from pathlib import Path

STATUSES = ("ok", "degenerate-fallback", "failed")
#: Methods whose point can never fall below the observed richness.
FLOOR_METHODS = ("chao2", "chao2_bc", "ichao2", "jk1", "bootstrap", "unpmle", "pnpmle")
NPMLE_METHODS = ("unpmle", "pnpmle")
CLOSED_REL = 1e-6  # acceptance criterion 05, closed forms
NPMLE_REL = 1e-3  # acceptance criterion 05, EM estimators
P_ABS = 1e-6  # acceptance criterion 09
REPORT_TOL = 1e-9


def load_reference(checkout: Path):
    """The reference estimator transcriptions of the checkout's test suite."""
    path = checkout / "tests" / "reference_estimators.py"
    spec = importlib.util.spec_from_file_location("reference_estimators", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# ---------------------------------------------------------------------------
# Plain-Python views of the artifacts.
# ---------------------------------------------------------------------------

def read_units(path):
    """The per-unit element sets of a sparse ``incidence v1`` log."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if lines[0] != "incidence v1" or not lines[1].startswith("t "):
        raise ValueError(f"{path}: not an incidence v1 log")
    units = []
    for line in lines[2:]:
        head, _, ids = line.partition(":")
        if head != f"unit {len(units)}":
            raise ValueError(f"{path}: unexpected record {line!r}")
        units.append({int(i) for i in ids.split()})
    if int(lines[1].split()[1]) != len(units):
        raise ValueError(f"{path}: t record disagrees with the unit records")
    return units


def write_units(path, units):
    lines = ["incidence v1", f"t {len(units)}"]
    lines += [f"unit {j}: {' '.join(map(str, sorted(u)))}".rstrip() for j, u in enumerate(units)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def frequencies(units):
    """(t, y, f, s_obs): incidence frequency per element and its counts f_k."""
    y = {}
    for unit in units:
        for el in unit:
            y[el] = y.get(el, 0) + 1
    f = {}
    for count in y.values():
        f[count] = f.get(count, 0) + 1
    return len(units), y, f, len(y)


def merge_units(units, m):
    """OR every m consecutive units; a trailing remainder is dropped."""
    return [set().union(*units[j * m:(j + 1) * m]) for j in range(len(units) // m)]


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def element_table(grammar_text):
    """Element id -> (kind, origin), re-derived from the grammar text.

    Ids are dense in nonterminal declaration order: one per rule arm (rule
    record order), then the procedure's error exit, then one per dead mark.
    """
    nonterminals, rules, dead = [], [], {}
    for line in grammar_text.splitlines():
        parts = line.split()
        if parts and parts[0] == "nonterminal":
            nonterminals.append(parts[1])
        elif parts and parts[0] == "rule":
            rules.append((parts[1], parts[2]))
        elif parts and parts[0] == "dead":
            dead[parts[1]] = dead.get(parts[1], 0) + 1
    table = {}
    for nt in nonterminals:
        for rule_id, lhs in rules:
            if lhs == nt:
                table[len(table)] = ("rule-arm", rule_id)
        table[len(table)] = ("error-exit", nt)
        for _ in range(dead.get(nt, 0)):
            table[len(table)] = ("dead-guard", nt)
    return table


def unreachable_rules(label_text):
    return {p[1] for p in (ln.split() for ln in label_text.splitlines())
            if len(p) == 3 and p[0] == "rule" and p[2] == "unreachable"}


# ---------------------------------------------------------------------------
# Reference points.
# ---------------------------------------------------------------------------

def reference_point(ref, method, t, y, f):
    """The reference point of a closed-form method, or None where the method
    must report ``failed``; raises KeyError for methods without one."""
    s_obs = len(y)
    f1, f2 = f.get(1, 0), f.get(2, 0)
    if method == "chao2":
        return ref.ref_chao2(t, f)
    if method == "chao2_bc":
        return ref.ref_chao2_bc(t, f)
    if method == "ichao2":
        return ref.ref_ichao2(t, f) if t >= 4 else None
    if method == "jk1":
        return ref.ref_jk1(t, f)
    if method == "jk2":
        return ref.ref_jk2(t, f)
    if method in ("ice", "ice1"):
        return ref.ref_ice(t, f, bias_corrected=method == "ice1")
    if method == "zelterman":
        return ref.ref_zelterman(t, f) if f1 and f2 else None
    if method == "bootstrap":
        return ref.ref_bootstrap(t, list(y.values()))
    if method == "chao_bunge":
        incidences = sum(k * fk for k, fk in f.items())
        if f1 and f1 * sum(k * k * fk for k, fk in f.items()) >= incidences ** 2:
            return None  # theta >= 1
        return max(ref.ref_chao_bunge(t, f), float(s_obs))
    raise KeyError(method)


def _close(a, b, rel, abs_tol=0.0):
    if isinstance(a, float) and isinstance(b, float) and math.isnan(a) and math.isnan(b):
        return True
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_tol)


# ---------------------------------------------------------------------------
# Checks.
# ---------------------------------------------------------------------------

def check_units(units, where, expected_t, forbidden=frozenset(), n_elements=None,
                nonempty=True):
    """Unit count, non-empty units, and no covered element that cannot be reached."""
    out = []
    if len(units) != expected_t:
        out.append(f"{where}: {len(units)} units, expected {expected_t}")
    empty = [j for j, u in enumerate(units) if not u]
    if nonempty and empty:
        out.append(f"{where}: units {empty[:5]} cover no element")
    covered = set().union(*units)
    bad = sorted(covered & forbidden)
    if bad:
        out.append(f"{where}: covers unreachable elements {bad[:5]} (dead guards or "
                   "arms of rules the label marks unreachable)")
    if n_elements is not None and covered and max(covered) >= n_elements:
        out.append(f"{where}: covers element {max(covered)} outside the program's "
                   f"{n_elements} elements")
    return out


def check_row(row, s_obs, where):
    """Status contract, finiteness, CI order and the S_obs floor of one estimate."""
    method, status = row["method"], row["status"]
    if status not in STATUSES:
        return [f"{where} {method}: invalid status {status!r}"]
    if status == "failed":
        return []
    point, lo, hi = float(row["point"]), float(row["ci_low"]), float(row["ci_high"])
    if not all(map(math.isfinite, (point, lo, hi))):
        return [f"{where} {method}: non-finite estimate {point}, [{lo}, {hi}]"]
    out = []
    if not lo <= point <= hi:
        out.append(f"{where} {method}: point {point} outside its CI [{lo}, {hi}]")
    if method in FLOOR_METHODS and point < s_obs:
        out.append(f"{where} {method}: point {point} below S_obs {s_obs}")
    return out


def check_closed_form(row, ref, t, y, f, where):
    try:
        expected = reference_point(ref, row["method"], t, y, f)
    except KeyError:
        return []
    if expected is None:
        if row["status"] != "failed":
            return [f"{where} {row['method']}: status {row['status']}, the reference is undefined"]
        return []
    if row["status"] == "failed":
        return [f"{where} {row['method']}: failed, the reference gives {expected}"]
    point = float(row["point"])
    if not _close(point, expected, CLOSED_REL):
        return [f"{where} {row['method']}: point {point} != reference {expected}"]
    return []


def check_npmle(row, ref, t, f, where):
    """One NPMLE point against the fine-grid reference EM."""
    if row["status"] == "failed":
        return [f"{where} {row['method']}: failed ({row['diagnostics']})"]
    expected, _ = ref.ref_npmle(t, f, penalized=row["method"] == "pnpmle")
    point = float(row["point"])
    if not _close(point, expected, NPMLE_REL):
        return [f"{where} {row['method']}: point {point} != reference {expected}"]
    return []


def check_estimates(rows, units, ref, where, npmle_at=None):
    """Every row of an estimate CSV; the NPMLE rows at ``t == npmle_at`` are
    also checked against the reference."""
    out = []
    counts = {}
    for row in rows:
        t = int(row["t"])
        if t not in counts:
            counts[t] = frequencies(units[:t])
        t_, y, f, s_obs = counts[t]
        here = f"{where} t={t}"
        out += check_row(row, s_obs, here)
        out += check_closed_form(row, ref, t_, y, f, here)
        if t == npmle_at and row["method"] in NPMLE_METHODS:
            out += check_npmle(row, ref, t_, f, here)
    return out


def _expected_p(test_used, a, b):
    import scipy.stats

    if test_used == "welch":
        return float(scipy.stats.ttest_ind(a, b, equal_var=False).pvalue)
    if len(set(a) | set(b)) == 1:
        return 1.0  # all values tied: the documented convention
    tie_free = len(set(a) | set(b)) == len(a) + len(b)
    if tie_free and len(a) <= 20 and len(b) <= 20:
        return float(scipy.stats.mannwhitneyu(a, b, method="exact").pvalue)
    return float(scipy.stats.mannwhitneyu(a, b, method="asymptotic", use_continuity=True).pvalue)


def _expected_test(a, b, alpha):
    import scipy.stats

    def normal(sample):
        return len(sample) >= 3 and len(set(sample)) > 1 and \
            scipy.stats.shapiro(sample).pvalue >= alpha

    return "welch" if normal(a) and normal(b) else "mann-whitney"


def check_verdicts(rows, unit_logs, base_r, ref, alpha, where):
    """Means, test choice and p-values of the closed-form verdicts, from
    per-trial reference points on logs rebinned here."""
    out = []
    samples = {}

    def sample(method, r):
        if (method, r) not in samples:
            points = []
            for units in unit_logs:
                t, y, f, _ = frequencies(merge_units(units, r // base_r))
                points.append(reference_point(ref, method, t, y, f))
            samples[method, r] = points
        return samples[method, r]

    for row in rows:
        method, ra, rb = row["method"], int(row["r_a"]), int(row["r_b"])
        here = f"{where} {method} r={ra}/{rb}"
        try:
            a, b = sample(method, ra), sample(method, rb)
        except KeyError:
            continue
        if None in a or None in b:
            continue  # failed trials: verdict rules are not recomputed here
        if row["inconclusive"] == "True":
            out.append(f"{here}: inconclusive with every trial estimated")
            continue
        for got, sample_ in ((row["mean_a"], a), (row["mean_b"], b)):
            mean = sum(sample_) / len(sample_)
            if not _close(float(got), mean, CLOSED_REL):
                out.append(f"{here}: mean {got} != reference {mean}")
        expected_test = _expected_test(a, b, alpha)
        if row["test_used"] != expected_test:
            out.append(f"{here}: used {row['test_used']}, expected {expected_test}")
            continue
        p, expected = float(row["p_value"]), _expected_p(row["test_used"], a, b)
        if not _close(p, expected, 0.0, P_ABS):
            out.append(f"{here}: p-value {p} != scipy {expected}")
    return out


def check_report(report, estimate_rows, true_s, where):
    """RQ1 metrics recomputed from the estimate rows and the true richness.

    ``estimate_rows`` is one list of CSV rows per trial, in trial order.
    """
    grouped = {}
    for rows in estimate_rows:
        for row in rows:
            grouped.setdefault((row["method"], int(row["t"])), []).append(row)
    out = []
    entries = {(e["estimator"], e["t"]): e for e in report}
    if set(entries) != set(grouped):
        out.append(f"{where}: report covers {len(entries)} (estimator, t) pairs, "
                   f"the estimates {len(grouped)}")
    for key, rows in grouped.items():
        entry = entries.get(key)
        if entry is None:
            continue
        ok = [r for r in rows if r["status"] != "failed"]
        biases = [(float(r["point"]) - true_s) / true_s for r in ok]
        mean = sum(biases) / len(biases) if biases else math.nan
        var = (sum((b - mean) ** 2 for b in biases) / (len(biases) - 1)
               if len(biases) >= 2 else math.nan)
        hits = sum(1 for r in ok if float(r["ci_low"]) <= true_s <= float(r["ci_high"]))
        expected = {
            "true_s": true_s,
            "mean_bias": mean,
            "imprecision": var,
            "ci_coverage": hits / len(ok) if ok else math.nan,
            "n_failed": len(rows) - len(ok),
            "k": len(rows),
        }
        for name, value in expected.items():
            if not _close(float(entry[name]), float(value), REPORT_TOL, 1e-12):
                out.append(f"{where} {key}: {name} {entry[name]} != recomputed {value}")
    return out


def check_rebin(program_rebin, units, m, where):
    """The program's rebinning against a plain OR over consecutive units."""
    merged = merge_units(units, m)
    matrix = program_rebin(m)
    expected_rows = {}
    for j, unit in enumerate(merged):
        for el in unit:
            expected_rows.setdefault(el, []).append(j)
    got = {el: list(cols) for el, cols in matrix.rows.items()}
    if matrix.t != len(merged) or got != expected_rows:
        return [f"{where}: rebin by {m} differs from the OR of consecutive units"]
    return []


def check_run_dir(out, cfg, ref):
    """Every independent check of one ``run_experiment`` output directory."""
    out = Path(out)
    failures = []
    campaign = cfg["campaign"]
    expected_t = campaign["budget_n"] // campaign["unit_size_r"]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    for b in range(cfg["n_programs"]):
        gdir = out / "grammars" / f"prog{b:03d}"
        where = f"prog{b:03d}"
        table = element_table((gdir / "grammar.txt").read_text(encoding="utf-8"))
        unreachable = unreachable_rules((gdir / "label.txt").read_text(encoding="utf-8"))
        forbidden = {i for i, (kind, origin) in table.items()
                     if kind == "dead-guard" or (kind == "rule-arm" and origin in unreachable)}
        manifest = [ln.split() for ln in
                    (gdir / "elements.txt").read_text(encoding="utf-8").splitlines()[1:]]
        if [(int(i), (kind, origin)) for i, kind, origin, _ in manifest] != list(table.items()):
            failures.append(f"{where}: elements.txt disagrees with the grammar's element ids")
        flagged = {int(i) for i, _, _, flag in manifest if flag == "reachable"}
        if flagged & forbidden:
            failures.append(f"{where}: elements {sorted(flagged & forbidden)[:5]} are "
                            "flagged reachable against the label")
        true_s = len(flagged)
        meta = json.loads((gdir / "meta.json").read_text(encoding="utf-8"))
        if meta["true_richness"] != true_s:
            failures.append(f"{where}: meta true_richness {meta['true_richness']} != {true_s}")

        logs, estimate_rows = [], []
        for k in range(cfg["trials_k"]):
            tag = f"{where} trial{k:03d}"
            units = read_units(out / "incidence" / f"prog{b:03d}" / f"trial{k:03d}.units.txt")
            logs.append(units)
            # budget_n / r units, each covering at least one element.
            failures += check_units(units, tag, expected_t, forbidden, len(table))
            rows = read_csv(out / "estimates" / f"prog{b:03d}" / f"trial{k:03d}.csv")
            estimate_rows.append(rows)
            checkpoints = sorted({max(2, expected_t // 8), max(2, expected_t // 4),
                                  max(2, expected_t // 2), expected_t})
            if sorted({int(r["t"]) for r in rows}) != checkpoints:
                failures.append(f"{tag}: estimates at t={sorted({int(r['t']) for r in rows})}, "
                                f"expected {checkpoints}")
            # The NPMLE reference runs once per program: trial 0, full log.
            failures += check_estimates(rows, units, ref, tag,
                                        npmle_at=expected_t if k == 0 else None)
        failures += check_report([e for e in report if e["program"] == b],
                                 estimate_rows, true_s, where)
        verdicts = read_csv(out / f"verdicts_prog{b:03d}.csv")
        failures += check_verdicts(verdicts, logs, campaign["unit_size_r"], ref,
                                   cfg["alpha"], where)
    return failures
