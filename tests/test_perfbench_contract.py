"""The names of reachbench that the benchmark harness in ``perfbench/`` uses.

``perfbench/workloads.py`` imports the program's entry points, and
``perfbench/trace.py`` wraps the functions it lists in ``TARGETS`` by name,
so a rename in ``src/reachbench`` would break the benchmark, whose own tests
are not part of this suite.  Importing the two modules reads them and runs
nothing; ``pythonpath`` in ``pyproject.toml`` puts the checkout root on
``sys.path``.
"""

import importlib
import json
from pathlib import Path

import pytest

from perfbench.trace import TARGETS
from perfbench.workloads import workloads

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", sorted(TARGETS))
def test_every_traced_target_is_a_function_of_its_module(name):
    module, attr = TARGETS[name]
    assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"


def test_every_benchmark_workload_is_defined():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    assert sorted(w["name"] for w in declared) == sorted(workloads())
