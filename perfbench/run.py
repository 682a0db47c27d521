"""Benchmark of reachbench, timed end to end through its entry points.

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without ``--workload`` every workload runs, one after another, each in a
process of its own, and a table of every metric is printed.  With it, one
workload runs in this process: its inputs are generated from the seed, whole
rounds of its timed entry calls repeat until ``--seconds`` have passed (at
least two rounds), the first round's outputs are checked, every round's
artifacts must digest the same, and the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``run_s`` (median wall time of
a round's timed calls), ``setup_s`` (the median time to import the program
in a fresh interpreter plus the median time to generate the inputs, both
sampled twice before the first round, between rounds and after the last)
and ``peak_rss_mb``.  ``--trace 1`` runs
untraced and traced rounds in turn, and reports the per-layer metrics
(medians over the traced rounds) and the tracing overhead (median traced
minus median untraced ``run_s``).  Outputs and span files go to
``.perfbench_out/`` in the checkout.
"""

import os
import sys

# One BLAS thread per process; set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
OUT_DIR = CHECKOUT / ".perfbench_out"
WORKLOADS = ("smoke", "fuzz_large", "rq2_wide")
SETUP_PER_SLOT = 2
MIN_ROUNDS = 2
END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_program():
    """Import reachbench from the checkout's ``src``; never from elsewhere."""
    src = CHECKOUT / "src"
    if not (src / "reachbench" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no reachbench sources under {src}")
    sys.path[:0] = [str(src), str(CHECKOUT)]
    import reachbench

    if Path(reachbench.__file__).resolve().parent != (src / "reachbench").resolve():
        raise SystemExit(f"perfbench: imported reachbench from {reachbench.__file__}")


def time_import():
    """The time a fresh interpreter takes to import the program and the
    benchmark, from its first statement to the imports' end."""
    code = ("import time; t0 = time.perf_counter(); import perfbench.workloads; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(CHECKOUT / "src"), str(CHECKOUT)]))
    return float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                stdout=subprocess.PIPE, text=True).stdout)


def measure(workload, seed, seconds, trace, base, ref):
    """Set up, time whole rounds for ``seconds``, check; returns the result.

    Set-up is sampled in slots: before the first round, between rounds and
    after the last, so that a slow stretch of the machine a few seconds long
    cannot hold every sample.  The slots do not count against ``seconds``.
    """
    from perfbench import trace as tracing
    from perfbench.workloads import digest_tree

    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    failures = []

    import_s, generation_s, digests = [], [], set()

    def set_up_slot():
        """Time SETUP_PER_SLOT imports and input generations; returns the
        inputs of each generation.  Only ``inputs0`` is kept on disk."""
        generated = []
        for _ in range(SETUP_PER_SLOT):
            import_s.append(time_import())
            inputs_dir = base / f"inputs{len(generation_s)}"
            inputs_dir.mkdir()
            t0 = time.perf_counter()
            generated.append(workload.setup(inputs_dir, seed))
            generation_s.append(time.perf_counter() - t0)
            digests.add(digest_tree(inputs_dir, skip=()))
            if len(generation_s) > 1:
                shutil.rmtree(inputs_dir)
        return generated

    inputs = set_up_slot()[0]
    tracer = tracing.Tracer() if trace else None
    rounds = []  # per round: run_s, [op, ok] pairs, digest, layer metrics or None
    spans_out = []
    elapsed = 0.0  # the loop's wall time outside the set-up slots
    while len(rounds) < MIN_ROUNDS or elapsed < seconds:
        if rounds:
            set_up_slot()
        start = time.perf_counter()
        traced = bool(trace) and len(rounds) % 2 == 1
        round_dir = base / f"round{len(rounds)}"
        round_dir.mkdir()
        ops = []
        if traced:
            tracer.install()
        run_s = 0.0
        try:
            for op_name, call in workload.operations(inputs, round_dir):
                t0 = time.perf_counter()
                try:
                    code = tracer.span(tracing.ROOT_PREFIX + op_name, call) if traced else call()
                except Exception:
                    traceback.print_exc()
                    code = None
                run_s += time.perf_counter() - t0
                if code != 0:
                    failures.append(f"round {len(rounds)} {op_name}: exit code {code}")
                ops.append([op_name, code == 0])
        finally:
            if traced:
                tracer.uninstall()
        layers = None
        if traced:
            layers = tracing.layer_metrics(tracer.spans, tracer.counts)
            if not spans_out:  # one round's spans: fuzz_large makes 160k a round
                spans_out.append({"spans": list(tracer.spans), "counts": dict(tracer.counts)})
            tracer.reset()
        digest = digest_tree(round_dir)
        if rounds and digest != rounds[0]["digest"]:
            failures.append(f"round {len(rounds)}: artifacts differ from round 0")
            for op in ops:
                op[1] = False
        if rounds:
            shutil.rmtree(round_dir)
        rounds.append({"run_s": run_s, "ops": ops, "digest": digest, "layers": layers})
        print(f"perfbench {workload.name}: round {len(rounds) - 1} {run_s:.3f} s"
              f"{' traced' if traced else ''}", file=sys.stderr)
        elapsed += time.perf_counter() - start
    set_up_slot()
    if len(digests) != 1:
        failures.append("setup: the same seed gave different inputs")
    setup_s = statistics.median(import_s) + statistics.median(generation_s)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    try:
        check_failures = workload.check(inputs, base / "round0", ref)
    except Exception:
        check_failures = {op: [traceback.format_exc()] for op, _ in rounds[0]["ops"]}
    for op_name, messages in check_failures.items():
        failures += messages
        if messages:
            for r in rounds:
                for op in r["ops"]:
                    if op[0] == op_name:
                        op[1] = False

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for _, ok in r["ops"] if not ok)
    if trace:
        traced = [r for r in rounds if r["layers"] is not None]
        metrics = {
            name: {"value": statistics.median(r["layers"][name][0] for r in traced),
                   "unit": unit}
            for name, (_, unit) in traced[0]["layers"].items()
        }
        traced_run_s = statistics.median(r["run_s"] for r in traced)
        untraced_run_s = statistics.median(r["run_s"] for r in rounds if r["layers"] is None)
        metrics["trace.overhead_s"] = {"value": traced_run_s - untraced_run_s, "unit": "s"}
        (base / "trace.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "rounds": spans_out,
             "untraced_run_s": untraced_run_s, "traced_run_s": traced_run_s}),
            encoding="utf-8")
    else:
        values = {"run_s": statistics.median(r["run_s"] for r in rounds),
                  "setup_s": setup_s, "peak_rss_mb": peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    for message in failures:
        print(f"perfbench {workload.name}: {message}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def run_one(args):
    import_program()
    from perfbench import checks
    from perfbench.workloads import workloads

    workload = workloads()[args.workload]
    ref = checks.load_reference(CHECKOUT)
    base = OUT_DIR / args.workload / f"seed{args.seed}-trace{args.trace}"
    result = measure(workload, args.seed, args.seconds, args.trace, base, ref)
    (base / "result.json").write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


def run_all(args):
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            status = 1
        if not lines:
            print(f"{name:<11} no result (exit code {proc.returncode})")
            continue
        result = json.loads(lines[-1])
        print(f"{name:<11} attempted={result['attempted']} failed={result['failed']} "
              f"correct={result['correct']}")
        for metric, entry in result["metrics"].items():
            print(f"{name:<11} {metric:<28} {entry['value']:>14.6g} {entry['unit']}")
    return status


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    return run_one(args) if args.workload else run_all(args)


if __name__ == "__main__":
    sys.exit(main())
