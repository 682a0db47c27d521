"""Command-line entry points and end-to-end experiment orchestration.

Subcommands cover each pipeline stage (gen-grammar, gen-parser, fuzz,
rebin, estimate, evaluate, sensitivity, import-incidence) plus ``run``,
which executes the whole RQ1+RQ2 pipeline from a single JSON config, read
into ``ExperimentConfig``.  ``run`` shares its generate stage with
``gen-grammar`` and its fuzz stage with ``fuzz``, in which ``fuzz`` is
program 0: ``fuzz --seed M`` on a run's ``grammars/prog000``, given the
run's campaign settings, reproduces its campaigns.  Every stage is
deterministic: sub-seeds are derived as sha256(master, purpose-label,
index).  A rerun into the same directory skips a program's campaigns and
estimates when their stage marker holds the digest of the same config and
the sha256 that each trial file the stage wrote still has.

The campaigns (one job per program and trial) and the estimate batches
(one job per estimator method) run on a ``fork`` pool of ``min(usable
CPUs, jobs)`` workers; see ``_pool_results``.  Results are taken in job
order, so the artifacts are byte-identical whatever the worker count.
Stage 1 (generate, compile, export) stays serial, and ``run`` writes each
program's files before it starts the next.

Exit codes: 0 success, 1 config error, 2 runtime failure, 3 partial.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import logging
import multiprocessing
import numbers
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing, contextmanager
from dataclasses import asdict, dataclass, fields, is_dataclass, replace
from functools import partial
from itertools import islice
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .codegen import (
    ParserProgram,
    compile_to_parser,
    cyclomatic_complexity,
    element_manifest,
    export_c_source,
)
from .estimators import ALL_METHODS, check_level, check_methods, estimate_many
from .evaluation import check_alpha, check_unit_sizes, rq1_report, sensitivity_analysis
from .fuzzer import (
    CampaignConfig,
    check_count,
    generate_seed_corpus,
    parse_units,
    run_campaign,
    serialize_units,
)
from .grammar import Grammar, parse_grammar, serialize_grammar
from .grammargen import GenConfig, generate_grammar, parse_label, serialize_label
from .incidence import IncidenceMatrix, build_incidence_matrix, from_dense_csv, head, rebin

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


@contextmanager
def _replacing(path, newline=None):
    """A text file that replaces ``path`` only once it is completely written.

    It is written under a temporary name in the same directory and moved
    over ``path`` with ``os.replace``, so a reader or a resumed run sees the
    old file or the new one, never a torn write.  On an error the temporary
    file is removed and ``path`` is left as it was.
    """
    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    tmp = p.with_name(f".{p.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, p)
    finally:
        tmp.unlink(missing_ok=True)


def _write(path, text: str):
    with _replacing(path) as fh:
        fh.write(text)


def _write_csv(path, fields, rows):
    with _replacing(path, newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)


def _sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# The run config
# ---------------------------------------------------------------------------

def _merged(defaults, data, path: str = ""):
    """The dataclass ``defaults`` with the fields that the JSON object
    ``data`` sets, nested objects merged in turn and lists made tuples.
    ``path`` names ``data`` in messages; it is empty for a run config."""
    what = path or "run config"
    if not isinstance(data, dict):
        raise ValueError(f"{what} must be a JSON object, got {data!r}")
    unknown = sorted(set(data) - {f.name for f in fields(defaults)})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(repr, unknown))}")
    changes = {}
    for key, value in data.items():
        default = getattr(defaults, key)
        if is_dataclass(default):
            value = _merged(default, value, f"{path}.{key}" if path else key)
        elif isinstance(value, list):
            value = tuple(value)
        changes[key] = value
    return replace(defaults, **changes)


@dataclass(frozen=True)
class ExperimentConfig:
    """The settings of ``run``, read from JSON by ``from_json``: each object
    is merged over the defaults of its level, and a key unknown at its level
    is an error.  Each program's ``generation.seed`` and each trial's
    ``campaign.trial_seed`` are derived from ``master_seed``, and a config
    that sets either is an error too."""

    master_seed: int = 1
    n_programs: int = 1
    generation: GenConfig = GenConfig(n_nonterminals=8, alphabet_size=12)
    campaign: CampaignConfig = CampaignConfig(unit_size_r=10)
    trials_k: int = 2
    n_seeds: int = 10
    max_depth: int = 20
    unit_sizes: tuple = (10, 20)
    estimators: str | tuple = "all"  # or method names
    ci_level: float = 0.90
    alpha: float = 0.05
    checkpoints: tuple | None = None  # unit counts; None: t/8, t/4, t/2 and t
    # Bootstrap replicates for experiment-stage CIs; the standalone estimate
    # API defaults to 500, smaller here to keep smoke runs fast on one core.
    bootstrap_b: int = 200

    @classmethod
    def from_json(cls, data) -> ExperimentConfig:
        """The defaults with what the JSON run config ``data`` sets."""
        if not isinstance(data, dict):
            raise ValueError(f"a run config must be a JSON object, got {data!r}")
        for level, key in (("generation", "seed"), ("campaign", "trial_seed")):
            if isinstance(data.get(level), dict) and key in data[level]:
                raise ValueError(f"{level}.{key} is derived from master_seed and cannot be set")
        return _merged(cls(), data)

    def to_json(self) -> dict:
        """The resolved config as JSON, without the derived seeds."""
        view = asdict(self)
        del view["generation"]["seed"], view["campaign"]["trial_seed"]
        return json.loads(json.dumps(view))

    def validate(self):
        """Every check of a run, made before it writes or forks anything."""
        check_level(self.ci_level)
        check_alpha(self.alpha)
        for key in ("n_programs", "trials_k", "n_seeds", "max_depth", "bootstrap_b"):
            check_count(key, getattr(self, key))
        if isinstance(self.master_seed, bool) or not isinstance(self.master_seed, numbers.Integral):
            raise ValueError(f"master_seed must be an integer, got {self.master_seed!r}")
        self.campaign.validate()
        check_unit_sizes(self.unit_sizes, self.campaign.unit_size_r)
        self.generation.validate()
        if self.estimators != "all":
            if not isinstance(self.estimators, tuple) or not self.estimators:
                raise ValueError("estimators must be 'all' or a non-empty list of method "
                                 f"names, got {self.estimators!r}")
            check_methods(self.estimators)
        if self.checkpoints is not None:
            if not isinstance(self.checkpoints, tuple):
                raise ValueError("checkpoints must be a list of unit counts, "
                                 f"got {self.checkpoints!r}")
            t_max = self.campaign.budget_n // self.campaign.unit_size_r  # every campaign's
            for t_cp in self.checkpoints:
                check_count("checkpoints", t_cp)
                if t_cp > t_max:
                    raise ValueError(f"checkpoint {t_cp} exceeds the campaigns' {t_max} units")
            if len(set(self.checkpoints)) < len(self.checkpoints):
                raise ValueError(f"checkpoints repeat a unit count: {list(self.checkpoints)!r}")


DEFAULT_EXPERIMENT = ExperimentConfig().to_json()


# ---------------------------------------------------------------------------
# The worker pool, and the jobs it runs
# ---------------------------------------------------------------------------

class CampaignJob(NamedTuple):
    grammar: Grammar
    program: ParserProgram
    n_seeds: int
    max_depth: int
    corpus_seed: int
    config: CampaignConfig


class CampaignResult(NamedTuple):
    units_text: str  # serialize_units of the campaign's unit coverage
    matrix: IncidenceMatrix
    executions_per_second: float  # timed inside the worker
    final_corpus_size: int
    parser_runs: int


def _fuzz_campaign(job: CampaignJob) -> CampaignResult:
    """Seed corpus, campaign and incidence matrix of one (program, trial)."""
    corpus = generate_seed_corpus(job.grammar, job.n_seeds, job.max_depth, job.corpus_seed)
    clog = run_campaign(job.program, corpus, job.config)
    return CampaignResult(serialize_units(clog.unit_coverage),
                          build_incidence_matrix(clog.unit_coverage),
                          clog.executions_per_second, clog.final_corpus_size,
                          clog.parser_runs)


_worker_task = (None, ())  # (function, jobs), set in each pool worker by _adopt_task


def _adopt_task(fn, jobs):
    global _worker_task
    _worker_task = fn, jobs


def _run_job(index: int):
    fn, jobs = _worker_task
    return fn(jobs[index])


def _available_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _pool_workers(n_jobs: int) -> int:
    """One worker per usable CPU, never more than there are jobs."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return min(1, n_jobs)
    return min(_available_cpus(), n_jobs)


def _in_order(futures):
    """Each future's ``result``, in order; a future is let go once handed out."""
    futures.reverse()
    while futures:
        yield futures.pop().result


@contextmanager
def _pool_results(fn, jobs):
    """One callable per job, in job order, returning ``fn(job)`` or raising
    what it raised.

    With two or more workers the jobs run on a ``fork`` pool as soon as it
    starts; only the job's index crosses the pipe, and the worker finds
    ``fn`` and the job in what it inherited.  ``fork``, not ``spawn``: a
    program's generated runner cannot be pickled, and a spawned worker would
    import reachbench and numpy again; reachbench starts no thread before it
    forks.  Otherwise each callable runs its job in this process when
    called.  Leaving the block cancels what has not started and waits for
    the pool's workers to exit.
    """
    workers = _pool_workers(len(jobs))
    if workers < 2:
        yield (partial(fn, job) for job in jobs)
        return
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_adopt_task, initargs=(fn, jobs))
    try:
        yield _in_order([pool.submit(_run_job, i) for i in range(len(jobs))])
    finally:
        pool.shutdown(cancel_futures=True)


def _estimate_shard(shard) -> list:
    """``estimate_many`` of one method's (matrix, method, seed) jobs."""
    jobs, level, kw = shard
    return estimate_many(jobs, level, **kw)


def _estimates(jobs, level: float = 0.90, **kw) -> list:
    """``estimate_many(jobs, level, **kw)``, one method per job on the pool.

    The jobs are split by method, in order of first appearance, and each
    method's jobs are one ``estimate_many`` batch, so an NPMLE still fits
    all its jobs' resamples in one queued EM.  An estimate does not depend
    on the batch it is in, so the results, put back in job order, are the
    same as from one batch of every job.  The level and method names are
    checked here, before any worker starts.
    """
    check_level(level)
    by_method = {}
    for i, (_, method, _) in enumerate(jobs):
        by_method.setdefault(method, []).append(i)
    check_methods(by_method)
    ests = [None] * len(jobs)
    shards = [([jobs[i] for i in members], level, kw) for members in by_method.values()]
    with _pool_results(_estimate_shard, shards) as results:
        for members, result in zip(by_method.values(), results):
            for i, est in zip(members, result()):
                ests[i] = est
    return ests


def _estimate_rows(jobs, level, boot_b=500):
    """One estimate-CSV row per (matrix, method, seed) job, in job order."""
    return [
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
        for (matrix, _, _), est in zip(jobs, _estimates(jobs, level, boot_b=boot_b))
    ]


# ---------------------------------------------------------------------------
# The subcommands, and the generate and fuzz stages they share with ``run``
# ---------------------------------------------------------------------------

def _generate(gen: GenConfig, out: Path):
    """Generate and compile the program of ``gen``, and write its grammar,
    label, C source, element manifest and ``meta.json`` to ``out``."""
    grammar, label = generate_grammar(gen)
    program = compile_to_parser(grammar, label)
    _write(out / "grammar.txt", serialize_grammar(grammar))
    _write(out / "label.txt", serialize_label(label))
    _write(out / "parser.c", export_c_source(program))
    _write(out / "elements.txt", element_manifest(program))
    meta = {
        "seed": gen.seed,
        "cyclomatic_complexity": cyclomatic_complexity(program),
        "n_elements": program.n_elements,
        "true_richness": len(program.ground_truth),
        "generation": {k: v for k, v in asdict(gen).items() if k != "seed"},
    }
    _write(out / "meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return grammar, program


def _fuzz(cfg: ExperimentConfig, programs):
    """Run ``cfg.trials_k`` campaigns on each of ``programs``, (b, grammar,
    program, out directory) tuples, on the worker pool, and write the units
    file of each trial that succeeds.  Per program, once its files are
    written, yield its trials' (job, result or raised exception) pairs."""
    jobs = [
        CampaignJob(grammar, program, cfg.n_seeds, cfg.max_depth,
                    derive_seed(cfg.master_seed, f"seeds:{b}", k),
                    replace(cfg.campaign,
                            trial_seed=derive_seed(cfg.master_seed, f"campaign:{b}", k)))
        for b, grammar, program, _ in programs for k in range(cfg.trials_k)
    ]
    with _pool_results(_fuzz_campaign, jobs) as results:
        pending = zip(jobs, results)
        for _, _, _, out in programs:
            trials = []
            for k, (job, result) in enumerate(islice(pending, cfg.trials_k)):
                try:
                    res = result()
                except Exception as exc:
                    trials.append((job, exc))
                    continue
                _write(out / f"trial{k:03d}.units.txt", res.units_text)
                trials.append((job, res._replace(units_text=None)))  # written: let it go
            yield trials


def cmd_gen_grammar(args) -> int:
    config = _merged(GenConfig(), json.loads(_read(args.config)) if args.config else {},
                     "generation")
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    _generate(config, Path(args.out))
    return EXIT_OK


def cmd_gen_parser(args) -> int:
    grammar = parse_grammar(_read(args.grammar))
    label = parse_label(_read(args.label)) if args.label else None
    program = compile_to_parser(grammar, label)
    out = Path(args.out)
    _write(out / "grammar.txt", serialize_grammar(grammar))
    if args.label:
        _write(out / "label.txt", _read(args.label))
    _write(out / "parser.c", export_c_source(program))
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
    """Program 0 of a run with these settings: ``--seed`` is the master seed."""
    cfg = ExperimentConfig(
        master_seed=args.seed, trials_k=args.trials, n_seeds=args.n_seeds,
        max_depth=args.max_depth,
        campaign=CampaignConfig(budget_n=args.budget, unit_size_r=args.unit_size))
    for key in ("trials_k", "n_seeds", "max_depth"):
        check_count(key, getattr(cfg, key))
    cfg.campaign.validate()
    grammar, program = _load_program_dir(args.program)
    out = Path(args.out)
    [trials] = _fuzz(cfg, [(0, grammar, program, out)])
    failures = 0
    for k, (job, res) in enumerate(trials):
        if isinstance(res, Exception):
            log.error("trial %d failed", k, exc_info=res)
            failures += 1
            continue
        summary = {
            "trial": k,
            "t": res.matrix.t,
            "unit_size_r": job.config.unit_size_r,
            "discovered": len(res.matrix.element_ids),
            "executions_per_second": round(res.executions_per_second, 1),
            "parser_runs": res.parser_runs,
            "final_corpus_size": res.final_corpus_size,
            "budget_n": args.budget,
            "trial_seed": job.config.trial_seed,
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


def cmd_estimate(args) -> int:
    units = parse_units(_read(args.incidence))
    matrix = build_incidence_matrix(units)
    methods = ALL_METHODS if args.methods == "all" else tuple(args.methods.split(","))
    rows = _estimate_rows([(matrix, m, args.seed) for m in methods], args.level)
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
        base_r=unit_sizes[0], seed=args.seed, batch=_estimates,
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

def _stage_marker(stage_dir: Path, digest: str, names) -> str:
    """What a stage's ``.stage.digest`` holds once its files ``names`` in
    ``stage_dir`` are written: the config ``digest``, then each file's sha256
    and name, one a line.  The stage is done while its marker reads so."""
    return digest + "\n" + "".join(f"{_sha256_file(stage_dir / n)}  {n}\n" for n in names)


def _stage_done(stage_dir: Path, digest: str, names) -> bool:
    try:
        marker = (stage_dir / ".stage.digest").read_bytes()
        return marker == _stage_marker(stage_dir, digest, names).encode()
    except OSError:  # the marker or a file is missing
        return False


def _stage_mark(stage_dir: Path, digest: str, names):
    _write(stage_dir / ".stage.digest", _stage_marker(stage_dir, digest, names))


def run_experiment(config: dict, out_dir) -> int:
    """Generate -> compile -> fuzz -> estimate -> evaluate -> sensitivity."""
    cfg = ExperimentConfig.from_json(config)
    cfg.validate()
    master = cfg.master_seed
    methods = ALL_METHODS if cfg.estimators == "all" else cfg.estimators
    out = Path(out_dir)
    timings = {}
    manifest = {"version": __version__, "config": cfg.to_json(), "stages": {}, "artifacts": {}}
    digest = hashlib.sha256(json.dumps(manifest["config"], sort_keys=True).encode()).hexdigest()

    # Stage 1: grammars + programs.
    t0 = time.perf_counter()
    programs = []
    for b in range(cfg.n_programs):
        programs.append(_generate(replace(cfg.generation, seed=derive_seed(master, "grammar", b)),
                                  out / "grammars" / f"prog{b:03d}"))
    timings["generate"] = time.perf_counter() - t0

    # Stage 2: fuzzing campaigns of the programs not fuzzed yet.
    t0 = time.perf_counter()
    logs, todo = [None] * cfg.n_programs, []
    units_files = [f"trial{k:03d}.units.txt" for k in range(cfg.trials_k)]
    for b, (grammar, program) in enumerate(programs):
        psub = out / "incidence" / f"prog{b:03d}"
        if _stage_done(psub, digest, units_files):
            logs[b] = [build_incidence_matrix(parse_units(_read(psub / name)))
                       for name in units_files]
        else:
            todo.append((b, grammar, program, psub))
    manifest["fuzz_workers"] = _pool_workers(len(todo) * cfg.trials_k)
    manifest["parser_runs"] = {}  # per program fuzzed in this run
    with closing(_fuzz(cfg, todo)) as stage:
        for (b, _, _, psub), trials in zip(todo, stage):
            for _, res in trials:
                if isinstance(res, Exception):
                    raise res
            logs[b] = [res.matrix for _, res in trials]
            manifest["parser_runs"][psub.name] = sum(res.parser_runs for _, res in trials)
            _stage_mark(psub, digest, units_files)
    timings["fuzz"] = time.perf_counter() - t0

    # Stage 3: estimates at checkpoints.  A method's jobs are one pool job.
    t0 = time.perf_counter()
    edir = out / "estimates"
    shard_workers = _pool_workers(len(set(methods)))
    manifest["estimate_workers"] = 0
    t_max = cfg.campaign.budget_n // cfg.campaign.unit_size_r  # every campaign's
    checkpoints = cfg.checkpoints or sorted(
        {max(2, t_max // 8), max(2, t_max // 4), max(2, t_max // 2), t_max})
    n_rows = len(checkpoints) * len(methods)  # per trial
    estimate_files = [f"trial{k:03d}.csv" for k in range(cfg.trials_k)]
    for b, trials in enumerate(logs):
        esub = edir / f"prog{b:03d}"
        if _stage_done(esub, digest, estimate_files):
            continue
        # One estimate batch for the program: every trial, checkpoint and method.
        jobs = []
        for k, trial in enumerate(trials):
            for t_cp in checkpoints:
                matrix, seed = head(trial, t_cp), derive_seed(master, f"ci:{b}:{t_cp}", k)
                jobs += [(matrix, m, seed) for m in methods]
        rows = _estimate_rows(jobs, cfg.ci_level, boot_b=cfg.bootstrap_b)
        manifest["estimate_workers"] = shard_workers
        for k, name in enumerate(estimate_files):
            _write_csv(esub / name, ESTIMATE_FIELDS, rows[k * n_rows:(k + 1) * n_rows])
        _stage_mark(esub, digest, estimate_files)
    timings["estimate"] = time.perf_counter() - t0

    # Stage 4: RQ1 report against ground truth.
    t0 = time.perf_counter()
    report = []
    for b, (_, program) in enumerate(programs):
        report += rq1_report(edir / f"prog{b:03d}", len(program.ground_truth), program=b)
    _write(out / "report.json", json.dumps(report, indent=2) + "\n")
    _write_csv(out / "report.csv", RUN_REPORT_FIELDS, report)
    timings["evaluate"] = time.perf_counter() - t0

    # Stage 5: RQ2 sensitivity on rebinned logs.
    t0 = time.perf_counter()
    manifest["sensitivity_workers"] = shard_workers
    for b, trials in enumerate(logs):
        verdicts = sensitivity_analysis(
            trials, cfg.unit_sizes, methods,
            alpha=cfg.alpha, level=cfg.ci_level, base_r=cfg.campaign.unit_size_r,
            seed=derive_seed(master, f"sensitivity:{b}"),
            batch=_estimates, boot_b=cfg.bootstrap_b,
        )
        _write_verdicts(out / f"verdicts_prog{b:03d}.csv", verdicts)
    timings["sensitivity"] = time.perf_counter() - t0

    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "run_manifest.json":
            manifest["artifacts"][str(path.relative_to(out))] = _sha256_file(path)
    manifest["stages"] = {k: round(v, 3) for k, v in timings.items()}
    _write(out / "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_run(args) -> int:
    config = json.loads(_read(args.config)) if args.config else {}
    if args.seed is not None and isinstance(config, dict):
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
