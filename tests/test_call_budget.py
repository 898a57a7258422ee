"""Fixed cost of a one-point row: the Python calls into the package's own
code that one `compute_row` makes on each nominal benchmark workload.

A one-point row is almost all fixed cost, which `row_ms_p50` times.  Each
count may rise at most 5% above the count it was set at, so that fixed cost
cannot creep back unseen; a change that lowers a count should lower its
budget too.  Only calls into code under the package directory count (numpy,
the standard library and generated dataclass code do not), so the budget
does not move with the versions of the libraries.
"""

import math
import os
import sys
from pathlib import Path

import pytest

import ltrans
from ltrans.config import parse_config_text
from ltrans.sweep import compute_row

from test_config import benchmark_config_text

PACKAGE = str(Path(ltrans.__file__).resolve().parent) + os.sep

# calls per one-point row at grid point 1, when the budget was set
CALLS = {"tls_partial_lowT": 124, "rabi5_full_T": 88, "rabi21_partial_g": 140}


def package_calls(fn) -> int:
    """The calls into code under PACKAGE that fn() makes (generator resumes
    included)."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            count += 1

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return count


@pytest.mark.parametrize("name", sorted(CALLS))
def test_a_one_point_row_stays_within_its_call_budget(monkeypatch, name):
    cfg = parse_config_text(benchmark_config_text(monkeypatch, name))
    value = float(cfg.grid()[1])
    compute_row(cfg, value)          # the first row imports what it needs
    calls = package_calls(lambda: compute_row(cfg, value))
    budget = math.ceil(1.05 * CALLS[name])
    assert calls <= budget, f"{name}: {calls} calls into ltrans, budget {budget}"
