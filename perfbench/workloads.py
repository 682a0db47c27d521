"""The benchmark's workloads: their inputs, timed entry calls and checks.

Each workload turns a seed into input files, names the entry calls that are
timed (one round), checks a round's outputs with ``checks``, and digests a
round's artifacts so that repeated rounds can be compared.  The program
receives only the generated config or files, through its command line
entry point ``reachbench.cli.main``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from reachbench.cli import DEFAULT_EXPERIMENT, derive_seed, main
from reachbench.evaluation import BernoulliProductModel, simulate_incidence
from reachbench.fuzzer import parse_units
from reachbench.incidence import build_incidence_matrix, rebin

from . import checks


def digest_tree(root, skip=("run_manifest.json",)):
    """sha256 over every file under ``root`` (path and bytes), in path order."""
    h = hashlib.sha256()
    for path in sorted(Path(root).rglob("*")):
        if path.is_file() and path.name not in skip:
            h.update(str(path.relative_to(root)).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


class RunExperiment:
    """One ``reachbench run`` on a generated JSON config; a seeded workload
    takes its master seed from the benchmark's seed."""

    def __init__(self, name, config, seeded):
        self.name = name
        self.config = config
        self.seeded = seeded

    def setup(self, workdir, seed):
        config = dict(self.config, master_seed=seed) if self.seeded else dict(self.config)
        path = Path(workdir) / "config.json"
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        return {"config": config, "config_path": str(path)}

    def operations(self, inputs, round_dir):
        return [("run", lambda: main(["run", "--config", inputs["config_path"],
                                      "--out", str(round_dir)]))]

    def check(self, inputs, round_dir, ref):
        cfg = dict(DEFAULT_EXPERIMENT)
        cfg.update(inputs["config"])
        return {"run": checks.check_run_dir(round_dir, cfg, ref)}


# smoke: the default config of ``run_experiment({})``, as acceptance criterion
# 11 runs it.  It is not seeded: the master seed picks the grammar, and over
# master seeds 1-12 the run took from 7.2 to 13.7 s, a spread no usable bound
# can hold.
SMOKE_CONFIG = {}

# fuzz_large: eight generated grammars of 120 nonterminals, two campaigns of
# 10k executions each, and only ``chao2_bc``, whose CI is always analytic, so
# the parser executor and the campaign loop do most of the work and the
# bootstrap and the EM none.  (``chao2`` falls back to the bootstrap CI on a
# log without singletons; on these saturated campaigns that made 16 to 32
# bootstrap calls a round, up to a quarter of it, varying by seed.)
FUZZ_LARGE_CONFIG = {
    "n_programs": 8,
    "generation": {"n_nonterminals": 120, "alphabet_size": 64,
                   "n_unreachable": 6, "n_dead_branches": 6},
    "campaign": {"budget_n": 10_000, "unit_size_r": 50},
    "trials_k": 2,
    "unit_sizes": [50, 100],
    "estimators": ["chao2_bc"],
}


class Rq2Wide:
    """The RQ2 protocol on external incidence logs of a wide, heavy-tailed
    program: one ``reachbench estimate`` call with both NPMLEs on one log,
    and one ``reachbench sensitivity`` call with the bootstrap-CI closed forms
    on K logs.

    The simulated program (its detection probabilities) and the estimate
    call's log and bootstrap seed are fixed; the seed draws the K
    sensitivity logs.  The NPMLE bootstrap's cost is heavy-tailed in its
    input: when the seed also drew the estimate log (300 elements, 120
    units), the estimate call took from 1.0 to 8.8 s over eleven seeds.

    The log-normal law of the detection probabilities and its parameters
    are assumed, not fitted to a measured program; perfbench/README.md
    compares the logs it gives with the repository's incidence fixture.
    Only the sizes can be changed, so that the tests can run it small.
    """

    name = "rq2_wide"
    PI_SEED = 7
    LOG_PI_MEAN = float(np.log(0.01))
    LOG_PI_SD = 2.0
    ESTIMATE_LOG_SEED = 100
    ESTIMATE_BOOT_SEED = 1
    ESTIMATE_METHODS = "unpmle,pnpmle"
    SENSITIVITY_METHODS = "jk1,jk2,ice,bootstrap"

    def __init__(self, elements=400, units=200, estimate_units=50, trials_k=4,
                 unit_sizes=(5, 10, 20)):
        self.elements = elements  # true richness S
        self.units = units  # t of each sensitivity log
        self.estimate_units = estimate_units
        self.trials_k = trials_k
        self.unit_sizes = tuple(unit_sizes)

    def _simulate(self, t, sim_seed, path):
        rng = np.random.default_rng(self.PI_SEED)
        pi = np.clip(np.exp(rng.normal(self.LOG_PI_MEAN, self.LOG_PI_SD, self.elements)),
                     1e-4, 0.9)
        model = BernoulliProductModel(self.elements, tuple(float(x) for x in pi), t)
        matrix = simulate_incidence(model, sim_seed)
        units = [set() for _ in range(matrix.t)]
        for el, cols in matrix.rows.items():
            for j in cols:
                units[j].add(el)
        checks.write_units(path, units)
        return str(path)

    def setup(self, workdir, seed):
        logs = Path(workdir) / "logs"
        logs.mkdir()
        paths = [self._simulate(self.units, derive_seed(seed, "rq2_wide", k),
                                logs / f"trial{k:03d}.units.txt")
                 for k in range(self.trials_k)]
        estimate_log = self._simulate(self.estimate_units, self.ESTIMATE_LOG_SEED,
                                      Path(workdir) / "estimate.units.txt")
        return {"seed": seed, "logs": str(logs), "paths": paths, "estimate_log": estimate_log}

    def operations(self, inputs, round_dir):
        return [
            ("estimate", lambda: main([
                "estimate", "--incidence", inputs["estimate_log"],
                "--methods", self.ESTIMATE_METHODS, "--seed", str(self.ESTIMATE_BOOT_SEED),
                "--out", str(Path(round_dir) / "estimates.csv")])),
            ("sensitivity", lambda: main([
                "sensitivity", "--logs", inputs["logs"],
                "--unit-sizes", ",".join(map(str, self.unit_sizes)),
                "--methods", self.SENSITIVITY_METHODS, "--seed", str(inputs["seed"]),
                "--out", str(Path(round_dir) / "verdicts.csv")])),
        ]

    def check(self, inputs, round_dir, ref):
        base = self.unit_sizes[0]
        estimate_log = checks.read_units(inputs["estimate_log"])
        logs = [checks.read_units(path) for path in inputs["paths"]]
        estimate_failures, sensitivity_failures = [], []
        for where, units, t, out in (
                [("estimate log", estimate_log, self.estimate_units, estimate_failures)]
                + [(f"trial{k:03d}", units, self.units, sensitivity_failures)
                   for k, units in enumerate(logs)]):
            # Simulated units may be empty; the non-empty rule is the parser's.
            out += checks.check_units(units, where, t, nonempty=False)
            s_obs = checks.frequencies(units)[3]
            if s_obs > self.elements:
                out.append(f"{where}: S_obs {s_obs} exceeds the simulated S {self.elements}")
        for k, path in enumerate(inputs["paths"]):
            text = Path(path).read_text(encoding="utf-8")
            for r in self.unit_sizes[1:]:
                sensitivity_failures += checks.check_rebin(
                    lambda m: rebin(build_incidence_matrix(parse_units(text)), m),
                    logs[k], r // base, f"trial{k:03d}")
        rows = checks.read_csv(Path(round_dir) / "estimates.csv")
        # No NPMLE reference here: on this log the fine-grid reference runs
        # to its 100k-iteration cap, 20-30 s a fit, so the two fits would
        # outlast the rest of the run.
        estimate_failures += checks.check_estimates(rows, estimate_log, ref, "estimate")
        if sorted(r["method"] for r in rows) != sorted(self.ESTIMATE_METHODS.split(",")):
            estimate_failures.append("estimate: methods in the CSV differ from the call")
        verdicts = checks.read_csv(Path(round_dir) / "verdicts.csv")
        sensitivity_failures += checks.check_verdicts(verdicts, logs, base, ref, 0.05,
                                                      "sensitivity")
        return {"estimate": estimate_failures, "sensitivity": sensitivity_failures}


def workloads():
    return {w.name: w for w in (RunExperiment("smoke", SMOKE_CONFIG, seeded=False),
                                RunExperiment("fuzz_large", FUZZ_LARGE_CONFIG, seeded=True),
                                Rq2Wide())}
