"""Regenerate the golden oracle under ``tests/data/golden/``.

    PYTHONPATH=src python tests/make_golden.py

It writes two things, which ``tests/test_golden.py`` compares against:

- ``smoke/``: the artifacts of the smoke run, ``run_experiment({})`` at
  master seed 1, without ``run_manifest.json`` (it holds timings) and the
  ``.stage.digest`` markers (they hash the config, not results);
- ``fixture_estimates.csv``: ``reachbench estimate --methods all --seed 5``
  on ``tests/data/fixture_incidence.txt``.

Regenerate only for a change that alters results on purpose, and say in the
change which files changed and why.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from reachbench.cli import EXIT_OK, main, run_experiment

DATA = Path(__file__).resolve().parent / "data"
GOLDEN = DATA / "golden"
SKIP = ("run_manifest.json", ".stage.digest")


def regenerate():
    shutil.rmtree(GOLDEN / "smoke", ignore_errors=True)
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        if run_experiment({}, run) != EXIT_OK:
            sys.exit("the smoke run failed")
        for path in sorted(run.rglob("*")):
            if path.is_file() and path.name not in SKIP:
                dest = GOLDEN / "smoke" / path.relative_to(run)
                dest.parent.mkdir(parents=True, exist_ok=True)
                shutil.copyfile(path, dest)
    if main(["estimate", "--incidence", str(DATA / "fixture_incidence.txt"), "--methods", "all",
             "--seed", "5", "--out", str(GOLDEN / "fixture_estimates.csv")]) != EXIT_OK:
        sys.exit("the fixture estimate failed")


if __name__ == "__main__":
    regenerate()
