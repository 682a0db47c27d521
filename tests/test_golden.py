"""The golden oracle: the smoke run and the fixture's estimates, as committed.

``tests/make_golden.py`` wrote the files under ``tests/data/golden/``.  A
file matches its golden copy when the text between its floats is equal and
each float is within ``REL_TOL`` of the golden one: a float's last bits can
differ with the CPU's BLAS kernels, and nothing else may.
"""

import math
import re
from pathlib import Path

import pytest

from reachbench.cli import EXIT_OK, main, run_experiment

from conftest import DATA_DIR
from make_golden import GOLDEN, SKIP

REL_TOL = 1e-6
ABS_TOL = 1e-12  # for floats at or near zero
# A float as Python and the csv and json modules write it: a decimal point
# or an exponent, or nan/inf.
FLOAT = re.compile(r"(-?(?:\d+\.\d+(?:e[-+]?\d+)?|\d+e[-+]?\d+|nan|inf))")


def assert_matches(text, golden, where):
    parts, expected = FLOAT.split(text), FLOAT.split(golden)
    assert parts[0::2] == expected[0::2], f"{where}: text differs from the golden copy"
    for got, want in zip(parts[1::2], expected[1::2]):
        assert (got == want or math.isclose(float(got), float(want), rel_tol=REL_TOL,
                                            abs_tol=ABS_TOL)), f"{where}: {got} != {want}"


def test_assert_matches_compares_floats_by_tolerance_and_the_rest_exactly():
    assert_matches('a,1.0000000001,"{""k"": 2e-05}",nan\n', 'a,1.0,"{""k"": 2e-05}",nan\n', "x")
    for text in ("b,1.0\n", "a,1.1\n", "a,1.0,\n", "a,10\n"):
        with pytest.raises(AssertionError):
            assert_matches(text, "a,1.0\n", "x")


def _files(root):
    return {str(p.relative_to(root)): p for p in sorted(Path(root).rglob("*"))
            if p.is_file() and p.name not in SKIP}


def test_smoke_run_matches_golden(tmp_path):
    assert run_experiment({}, tmp_path) == EXIT_OK
    got, golden = _files(tmp_path), _files(GOLDEN / "smoke")
    assert got.keys() == golden.keys()
    for name, path in golden.items():
        assert_matches(got[name].read_text(), path.read_text(), name)


def test_fixture_estimates_match_golden(tmp_path):
    out = tmp_path / "estimates.csv"
    assert main(["estimate", "--incidence", str(DATA_DIR / "fixture_incidence.txt"),
                 "--methods", "all", "--seed", "5", "--out", str(out)]) == EXIT_OK
    assert_matches(out.read_text(), (GOLDEN / "fixture_estimates.csv").read_text(),
                   "fixture_estimates.csv")
