"""Checks state one bound; requirement text, pass/fail and margin derive from it."""

import csv
import itertools
import json
import math

import numpy as np
import pytest

from memstress.experiments import Check, ExperimentConfig, run

BOUNDS = [-2.0, -0.0, 0.0, 1e-12, 0.05, 0.99, 1.0 - 1e-9, 4.9, 1e300]
TOLS = [0.0, 1e-12, 0.05, 0.3]


def _neighbours(x: float) -> list[float]:
    return [x, float(np.nextafter(x, -np.inf)), float(np.nextafter(x, np.inf))]


VALUES = sorted({v for b in BOUNDS for v in _neighbours(b)} | {-0.0, 0.0})


def test_value_at_its_bound_passes_with_zero_margin():
    for check in (
        Check.at_most("c", 1e-12, 1e-12),
        Check.at_least("c", 0.99, 0.99),
        Check.within("c", -1.5, -2.0, 0.5),
        Check.within("c", -2.5, -2.0, 0.5),
    ):
        assert check.passed
        assert check.margin == 0.0


def test_nan_fails_every_form():
    nan = float("nan")
    for check in (Check.at_most("c", nan, 1.0), Check.at_least("c", nan, 1.0),
                  Check.within("c", nan, 1.0, 0.1)):
        assert not check.passed
        assert math.isnan(check.margin)


def test_bound_forms_pass_exactly_when_margin_is_nonnegative():
    for value, bound in itertools.product(VALUES, BOUNDS):
        for check, passed in ((Check.at_most("c", value, bound), value <= bound),
                              (Check.at_least("c", value, bound), value >= bound)):
            assert check.passed == passed
            assert math.isfinite(check.margin)
            assert check.passed == (check.margin >= 0), (value, bound, check)
    for target, tol in itertools.product(BOUNDS, TOLS):
        edges = [v for e in (target - tol, target + tol) for v in _neighbours(e)]
        for value in edges + [-0.0, 0.0]:
            check = Check.within("c", value, target, tol)
            assert check.passed == (abs(value - target) <= tol)
            assert math.isfinite(check.margin)
            assert check.passed == (check.margin >= 0), (value, target, tol, check)


@pytest.mark.parametrize(
    "check, text",
    [
        (Check.at_most("c", 0.0, 1e-12), "<= 1e-12"),
        (Check.at_most("c", 0.0, 1e-7), "<= 1e-07"),
        (Check.at_most("c", 0.0, 1.0), "<= 1"),
        (Check.at_least("c", 1.0, 0.99), ">= 0.99"),
        (Check.at_least("c", 1.0, 1.8), ">= 1.8"),
        (Check.at_least("c", 1.0, 1.0 - 1e-6), ">= 0.999999"),
        (Check.at_least("c", 1.0, 1.0 - 1e-9), ">= 0.999999999"),  # :g would print 1
        (Check.at_least("c", 5.0, 5 - 0.1), ">= 4.9"),
        (Check.within("c", -2.0, -2.0, 0.1), "-2 +/- 0.1"),
        (Check.within("c", 1.0, 1.0, 0.05), "1 +/- 0.05"),
        (Check.within("c", 9.0, 9, 0.3), "9 +/- 0.3"),
        (Check("c", 1.0, "exact", True), "exact"),
    ],
)
def test_requirement_text(check, text):
    assert check.requirement == text


def test_plain_check_has_no_margin():
    assert Check("c", 1.0, "exact", True).margin is None


def test_oracle_verify_table_is_its_check_list(tmp_path):
    assert run(ExperimentConfig(experiment="oracle-verify", N_range=[2],
                                output_dir=str(tmp_path))) == 0
    with open(tmp_path / "oracle_verify.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    checks = json.loads((tmp_path / "oracle_verify_summary.json").read_text())["checks"]
    assert [r["check"] for r in rows] == [c["name"] for c in checks]
    for row, check in zip(rows, checks):
        assert row["bound"] == check["requirement"]
        assert row["passed"] == str(check["passed"]).lower()
        assert float(row["value"]) == check["value"]
        assert check["passed"] == (check["margin"] >= 0)
