"""The check-suite harness: registration, order, and argument validation."""
import re
from pathlib import Path

import pytest

from ssattn import checks
from ssattn.checks import BUDGETS, CHECKS, run_checks
from ssattn.errors import ConfigError

README = Path(__file__).resolve().parents[1] / "README.md"


def test_registry_order_is_shared_by_run_checks_budgets_and_readme():
    results = run_checks(cases=1)
    assert [r.name for r in results] == list(CHECKS)
    assert all(r.passed and r.seconds >= 0 for r in results), [r.name for r in results if not r.passed]
    assert list(BUDGETS) == list(CHECKS)
    assert all(CHECKS[name] is getattr(checks, f"check_{name}") for name in CHECKS)
    text = " ".join(README.read_text(encoding="utf-8").split())
    listed = text.split("`check` runs, in order: ", 1)[1].split(".", 1)[0]
    assert re.findall(r"`(\w+)`", listed) == list(CHECKS)


@pytest.mark.parametrize("name", list(CHECKS))
def test_every_suite_rejects_bad_cases_and_tolerances_when_called_directly(name):
    for suite in (getattr(checks, f"check_{name}"), CHECKS[name]):
        for bad in (
            {"cases": 0}, {"cases": -3}, {"cases": 1.5}, {"tol": float("nan")}, {"tol": -1.0}, {"tol": "1"},
            {"tol": True}, {"seed": 2.9}, {"seed": True}, {"seed": -1},
        ):
            with pytest.raises(ConfigError, match="must be "):
                suite(**bad)
