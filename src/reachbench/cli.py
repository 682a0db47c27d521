"""Command-line entry points and end-to-end experiment orchestration.

Subcommands cover each pipeline stage (gen-grammar, gen-parser, fuzz,
rebin, estimate, evaluate, sensitivity, import-incidence) plus ``run``,
which executes the whole RQ1+RQ2 pipeline from a single JSON config with a
master seed.  Every stage is deterministic: sub-seeds are derived as
sha256(master, purpose-label, index), and re-running a finished stage is
skipped when its outputs and config digest are unchanged.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 partial.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import sys
import time
from pathlib import Path

from . import __version__
from .codegen import (
    compile_to_parser,
    cyclomatic_complexity,
    element_manifest,
    export_c_source,
)
from .estimators import ALL_METHODS, estimate_all
from .evaluation import rq1_report, sensitivity_analysis
from .fuzzer import (
    CampaignConfig,
    MutationPolicy,
    generate_seed_corpus,
    parse_units,
    run_campaign,
    serialize_units,
)
from .grammar import parse_grammar, serialize_grammar
from .grammargen import GenConfig, generate_grammar, parse_label, serialize_label
from .incidence import build_incidence_matrix, from_dense_csv, head, rebin

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3

ESTIMATE_FIELDS = ["method", "t", "point", "ci_low", "ci_high", "status", "diagnostics"]
REPORT_FIELDS = ["estimator", "t", "mean_bias", "imprecision", "ci_coverage", "n_failed", "k"]
RUN_REPORT_FIELDS = ["program", "estimator", "t", "true_s"] + REPORT_FIELDS[2:]
VERDICT_FIELDS = [
    "method", "r_a", "r_b", "mean_a", "mean_b",
    "ci_a_low", "ci_a_high", "ci_b_low", "ci_b_high",
    "test_used", "p_value", "ci_overlap", "interval_intersect",
    "reliable", "inconclusive", "n_failed_a", "n_failed_b",
]


def derive_seed(master: int, label: str, index: int = 0) -> int:
    digest = hashlib.sha256(f"{master}:{label}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _read(path) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path, text: str):
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(text, encoding="utf-8")


def _write_csv(path, fields, rows):
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    with p.open("w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _gen_config_from_dict(d: dict, seed=None) -> GenConfig:
    kw = dict(d)
    for key in ("rules_per_nonterminal", "rule_length"):
        if key in kw:
            kw[key] = tuple(kw[key])
    if seed is not None:
        kw["seed"] = seed
    return GenConfig(**kw)


def _campaign_config_from_dict(d: dict, trial_seed=None) -> CampaignConfig:
    kw = dict(d)
    policy = MutationPolicy(**kw.pop("policy", {}))
    if trial_seed is not None:
        kw["trial_seed"] = trial_seed
    return CampaignConfig(policy=policy, **kw)


# ---------------------------------------------------------------------------
# Individual subcommands
# ---------------------------------------------------------------------------

def cmd_gen_grammar(args) -> int:
    cfg_dict = json.loads(_read(args.config)) if args.config else {}
    if args.seed is not None:
        cfg_dict["seed"] = args.seed
    config = _gen_config_from_dict(cfg_dict)
    grammar, label = generate_grammar(config)
    program = compile_to_parser(grammar, label)
    out = Path(args.out)
    _write(out / "grammar.txt", serialize_grammar(grammar))
    _write(out / "label.txt", serialize_label(label))
    meta = {
        "config": cfg_dict,
        "seed": config.seed,
        "cyclomatic_complexity": cyclomatic_complexity(program),
        "n_elements": program.n_elements,
        "true_richness": len(program.ground_truth),
    }
    _write(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_gen_parser(args) -> int:
    grammar = parse_grammar(_read(args.grammar))
    label = parse_label(_read(args.label)) if args.label else None
    program = compile_to_parser(grammar, label)
    out = Path(args.out)
    emit = set(args.emit.split(","))
    _write(out / "grammar.txt", serialize_grammar(grammar))
    if args.label:
        _write(out / "label.txt", _read(args.label))
    if "c" in emit:
        _write(out / "parser.c", export_c_source(program))
    if "ir" in emit:
        ir = {
            "start": program.start,
            "digest": program.source_grammar_digest,
            "procedures": [
                {
                    "nonterminal": p.nonterminal,
                    "error_element": p.error_element_id,
                    "dead_elements": list(p.dead_element_ids),
                    "arms": [
                        {
                            "rule": a.rule_id,
                            "element": a.element_id,
                            "loop": a.is_loop,
                            "predict": sorted(a.predict),
                        }
                        for a in p.arms
                    ],
                }
                for p in program.procedures
            ],
        }
        _write(out / "parser.ir.json", json.dumps(ir, indent=2) + "\n")
    _write(out / "elements.txt", element_manifest(program))
    return EXIT_OK


def _load_program_dir(program_dir):
    pdir = Path(program_dir)
    grammar = parse_grammar(_read(pdir / "grammar.txt"))
    label_path = pdir / "label.txt"
    label = parse_label(_read(label_path)) if label_path.exists() else None
    return grammar, compile_to_parser(grammar, label)


def cmd_fuzz(args) -> int:
    grammar, program = _load_program_dir(args.program)
    out = Path(args.out)
    failures = 0
    for k in range(args.trials):
        trial_seed = derive_seed(args.seed, "campaign", k)
        corpus = generate_seed_corpus(
            grammar, args.n_seeds, args.max_depth, derive_seed(args.seed, "seeds", k)
        )
        config = CampaignConfig(
            trial_seed=trial_seed, budget_n=args.budget, unit_size_r=args.unit_size
        )
        try:
            clog = run_campaign(program, corpus, config)
        except Exception:
            log.exception("trial %d failed", k)
            failures += 1
            continue
        _write(out / f"trial{k:03d}.units.txt", serialize_units(clog.unit_coverage))
        summary = {
            "trial": k,
            "t": clog.t,
            "unit_size_r": clog.unit_size_r,
            "discovered": len(clog.discovered()),
            "executions_per_second": round(clog.executions_per_second, 1),
            "final_corpus_size": clog.final_corpus_size,
            "budget_n": args.budget,
            "trial_seed": trial_seed,
        }
        _write(out / f"trial{k:03d}.summary.json", json.dumps(summary, indent=2) + "\n")
    if failures == args.trials:
        return EXIT_RUNTIME
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_rebin(args) -> int:
    units = parse_units(_read(args.incidence))
    matrix = rebin(build_incidence_matrix(units), args.merge)
    _write(args.out, serialize_units(matrix.units()))
    return EXIT_OK


def _estimate_rows(matrix, methods, level, seed, boot_b=500):
    rows = []
    for est in estimate_all(matrix, methods, level, seed=seed, boot_b=boot_b):
        rows.append(
            {
                "method": est.method,
                "t": matrix.t,
                "point": est.point,
                "ci_low": est.ci_low,
                "ci_high": est.ci_high,
                "status": est.status,
                "diagnostics": json.dumps(
                    {k: v for k, v in est.diagnostics.items() if k != "support"},
                    sort_keys=True, default=str,
                ),
            }
        )
    return rows


def cmd_estimate(args) -> int:
    units = parse_units(_read(args.incidence))
    matrix = build_incidence_matrix(units)
    methods = ALL_METHODS if args.methods == "all" else tuple(args.methods.split(","))
    rows = _estimate_rows(matrix, methods, args.level, args.seed)
    _write_csv(args.out, ESTIMATE_FIELDS, rows)
    return EXIT_OK


def _true_richness_from_manifest(path) -> int:
    lines = [ln for ln in _read(path).splitlines() if ln.strip()]
    if not lines or lines[0] != "elements v1":
        raise ValueError("not an element manifest")
    return sum(1 for ln in lines[1:] if ln.split()[-1] == "reachable")


def cmd_evaluate(args) -> int:
    report = rq1_report(args.estimates, _true_richness_from_manifest(args.truth))
    if Path(args.out).suffix == ".json":
        _write(args.out, json.dumps(report, indent=2) + "\n")
    else:
        _write_csv(args.out, REPORT_FIELDS, report)
    return EXIT_OK


def cmd_sensitivity(args) -> int:
    trials = [build_incidence_matrix(parse_units(_read(p)))
              for p in sorted(Path(args.logs).glob("*.units.txt"))]
    if not trials:
        log.error("no *.units.txt logs in %s", args.logs)
        return EXIT_CONFIG
    unit_sizes = [int(s) for s in args.unit_sizes.split(",")]
    methods = ALL_METHODS if args.methods == "all" else tuple(args.methods.split(","))
    verdicts = sensitivity_analysis(
        trials, unit_sizes, methods, alpha=args.alpha, level=args.level,
        base_r=unit_sizes[0], seed=args.seed,
    )
    _write_verdicts(args.out, verdicts)
    return EXIT_OK


def _write_verdicts(out, verdicts):
    _write_csv(out, VERDICT_FIELDS, (
        {
            "method": v.method, "r_a": v.r_a, "r_b": v.r_b,
            "mean_a": v.mean_a, "mean_b": v.mean_b,
            "ci_a_low": v.mean_ci_a[0], "ci_a_high": v.mean_ci_a[1],
            "ci_b_low": v.mean_ci_b[0], "ci_b_high": v.mean_ci_b[1],
            "test_used": v.test_used, "p_value": v.p_value,
            "ci_overlap": v.ci_overlap,
            "interval_intersect": v.interval_intersect,
            "reliable": v.reliable, "inconclusive": v.inconclusive,
            "n_failed_a": v.n_failed_a, "n_failed_b": v.n_failed_b,
        }
        for v in verdicts
    ))


def cmd_import_incidence(args) -> int:
    text = _read(args.input)
    if args.schema == "sparse":
        units = parse_units(text)
        matrix = build_incidence_matrix(units)
    else:
        matrix = from_dense_csv(text)
    _write(args.out, serialize_units(matrix.units()))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Full pipeline: run
# ---------------------------------------------------------------------------

DEFAULT_EXPERIMENT = {
    "master_seed": 1,
    "n_programs": 1,
    "generation": {"n_nonterminals": 8, "alphabet_size": 12},
    "campaign": {"budget_n": 10_000, "unit_size_r": 10},
    "trials_k": 2,
    "n_seeds": 10,
    "max_depth": 20,
    "unit_sizes": [10, 20],
    "estimators": "all",
    "ci_level": 0.90,
    "alpha": 0.05,
    "checkpoints": None,
    # Bootstrap replicates for experiment-stage CIs; the standalone estimate
    # API defaults to 500, smaller here to keep smoke runs fast on one core.
    "bootstrap_b": 200,
}


def _stage_done(stage_dir: Path, digest: str) -> bool:
    marker = stage_dir / ".stage.digest"
    return marker.exists() and marker.read_text().strip() == digest


def _stage_mark(stage_dir: Path, digest: str):
    _write(stage_dir / ".stage.digest", digest + "\n")


def run_experiment(config: dict, out_dir) -> int:
    """Generate -> compile -> fuzz -> estimate -> evaluate -> sensitivity."""
    cfg = dict(DEFAULT_EXPERIMENT)
    cfg.update(config)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    master = cfg["master_seed"]
    methods = ALL_METHODS if cfg["estimators"] == "all" else tuple(cfg["estimators"])
    level = cfg["ci_level"]
    timings = {}
    manifest = {"version": __version__, "config": cfg, "stages": {}, "artifacts": {}}
    cfg_digest = hashlib.sha256(
        json.dumps(cfg, sort_keys=True, default=str).encode()
    ).hexdigest()
    status = EXIT_OK

    # Stage 1: grammars + programs.
    t0 = time.perf_counter()
    gdir = out / "grammars"
    programs = []
    for b in range(cfg["n_programs"]):
        gsub = gdir / f"prog{b:03d}"
        gen = _gen_config_from_dict(cfg["generation"], seed=derive_seed(master, "grammar", b))
        grammar, label = generate_grammar(gen)
        program = compile_to_parser(grammar, label)
        programs.append((grammar, label, program))
        if not _stage_done(gsub, cfg_digest):
            _write(gsub / "grammar.txt", serialize_grammar(grammar))
            _write(gsub / "label.txt", serialize_label(label))
            _write(gsub / "parser.c", export_c_source(program))
            _write(gsub / "elements.txt", element_manifest(program))
            meta = {
                "seed": gen.seed,
                "cyclomatic_complexity": cyclomatic_complexity(program),
                "true_richness": len(program.ground_truth),
                "generation": cfg["generation"],
            }
            _write(gsub / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
            _stage_mark(gsub, cfg_digest)
    timings["generate"] = time.perf_counter() - t0

    # Stage 2: fuzzing campaigns.
    t0 = time.perf_counter()
    idir = out / "incidence"
    base_r = cfg["campaign"]["unit_size_r"]
    all_logs = {}
    for b, (grammar, label, program) in enumerate(programs):
        psub = idir / f"prog{b:03d}"
        logs = []
        if _stage_done(psub, cfg_digest):
            for k in range(cfg["trials_k"]):
                logs.append(build_incidence_matrix(
                    parse_units(_read(psub / f"trial{k:03d}.units.txt"))))
        else:
            for k in range(cfg["trials_k"]):
                corpus = generate_seed_corpus(
                    grammar, cfg["n_seeds"], cfg["max_depth"],
                    derive_seed(master, f"seeds:{b}", k),
                )
                camp = _campaign_config_from_dict(
                    cfg["campaign"], trial_seed=derive_seed(master, f"campaign:{b}", k)
                )
                clog = run_campaign(program, corpus, camp)
                _write(psub / f"trial{k:03d}.units.txt", serialize_units(clog.unit_coverage))
                logs.append(build_incidence_matrix(clog.unit_coverage))
            _stage_mark(psub, cfg_digest)
        all_logs[b] = logs
    timings["fuzz"] = time.perf_counter() - t0

    # Stage 3: estimates at checkpoints.
    t0 = time.perf_counter()
    edir = out / "estimates"
    for b, (grammar, label, program) in enumerate(programs):
        esub = edir / f"prog{b:03d}"
        if _stage_done(esub, cfg_digest):
            continue
        for k, trial in enumerate(all_logs[b]):
            t_max = trial.t
            checkpoints = cfg["checkpoints"] or sorted(
                {max(2, t_max // 8), max(2, t_max // 4), max(2, t_max // 2), t_max}
            )
            rows = []
            for t_cp in checkpoints:
                rows.extend(
                    _estimate_rows(head(trial, t_cp), methods, level,
                                   derive_seed(master, f"ci:{b}:{t_cp}", k),
                                   boot_b=cfg["bootstrap_b"])
                )
            _write_csv(esub / f"trial{k:03d}.csv", ESTIMATE_FIELDS, rows)
        _stage_mark(esub, cfg_digest)
    timings["estimate"] = time.perf_counter() - t0

    # Stage 4: RQ1 report against ground truth.
    t0 = time.perf_counter()
    report = []
    for b, (grammar, label, program) in enumerate(programs):
        report += rq1_report(edir / f"prog{b:03d}", len(program.ground_truth), program=b)
    _write(out / "report.json", json.dumps(report, indent=2) + "\n")
    _write_csv(out / "report.csv", RUN_REPORT_FIELDS, report)
    timings["evaluate"] = time.perf_counter() - t0

    # Stage 5: RQ2 sensitivity on rebinned logs.
    t0 = time.perf_counter()
    for b in all_logs:
        verdicts = sensitivity_analysis(
            all_logs[b], cfg["unit_sizes"], methods,
            alpha=cfg["alpha"], level=level, base_r=base_r,
            seed=derive_seed(master, f"sensitivity:{b}"),
            boot_b=cfg["bootstrap_b"],
        )
        _write_verdicts(out / f"verdicts_prog{b:03d}.csv", verdicts)
    timings["sensitivity"] = time.perf_counter() - t0

    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            manifest["artifacts"][str(path.relative_to(out))] = _sha256_file(path)
    manifest["stages"] = {k: round(v, 3) for k, v in timings.items()}
    _write(out / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return status


def cmd_run(args) -> int:
    config = json.loads(_read(args.config)) if args.config else {}
    if args.seed is not None:
        config["master_seed"] = args.seed
    return run_experiment(config, args.out)


def cmd_report(args) -> int:
    report = json.loads(_read(Path(args.run) / "report.json"))
    for entry in report:
        print(
            f"prog{entry['program']:03d} {entry['estimator']:<10} t={entry['t']:<6} "
            f"bias={entry['mean_bias']:+.4f} imprecision={entry['imprecision']:.5f} "
            f"coverage={entry['ci_coverage']:.2f} failed={entry['n_failed']}"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="reachbench",
        description="Synthesize parsers with known reachability, fuzz them, "
        "and evaluate species-richness reachability estimators.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-grammar", help="generate a labeled LL(1) grammar")
    p.add_argument("--config", help="JSON generator config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_grammar)

    p = sub.add_parser("gen-parser", help="compile a grammar to a parser program")
    p.add_argument("--grammar", required=True)
    p.add_argument("--label")
    p.add_argument("--emit", default="ir,c", help="comma list of ir,c")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_parser)

    p = sub.add_parser("fuzz", help="run fuzzing campaigns against a program dir")
    p.add_argument("--program", required=True, help="gen-parser output directory")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--budget", type=int, default=10_000)
    p.add_argument("--unit-size", type=int, default=100)
    p.add_argument("--n-seeds", type=int, default=10)
    p.add_argument("--max-depth", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser("rebin", help="merge sampling units of an incidence file")
    p.add_argument("--incidence", required=True)
    p.add_argument("-m", "--merge", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_rebin)

    p = sub.add_parser("estimate", help="run estimators on an incidence file")
    p.add_argument("--incidence", required=True)
    p.add_argument("--methods", default="all")
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="RQ1 metrics from estimates vs ground truth")
    p.add_argument("--truth", required=True, help="element manifest file")
    p.add_argument("--estimates", required=True, help="directory of estimate CSVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sensitivity", help="RQ2 sampling-unit sensitivity verdicts")
    p.add_argument("--logs", required=True, help="directory of *.units.txt logs")
    p.add_argument("--unit-sizes", required=True, help="comma list, e.g. 1,2,4,8")
    p.add_argument("--methods", default="all")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--level", type=float, default=0.90)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sensitivity)

    p = sub.add_parser("import-incidence", help="validate external incidence data")
    p.add_argument("--input", required=True)
    p.add_argument("--schema", choices=("sparse", "dense-csv"), default="sparse")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_import_incidence)

    p = sub.add_parser("run", help="full RQ1+RQ2 pipeline from a JSON config")
    p.add_argument("--config")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="print the report of a finished run")
    p.add_argument("--run", required=True)
    p.set_defaults(func=cmd_report)
    return ap


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG
    except Exception:
        log.exception("runtime failure")
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
