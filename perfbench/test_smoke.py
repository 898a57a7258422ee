"""Smoke test of the benchmark on a two-point grid of every workload.

    python3 -m pytest perfbench

Takes about a minute: the Rabi rows cost one to three seconds each.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import gate
import run
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(run.SRC))


def declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCH[section]}


def test_declared_workloads_exist():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("name", workloads.NAMES)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(name, trace):
    r = run.Run(name, seed=1, seconds=0.0, points=2)
    metrics = r.traced() if trace else r.end_to_end()
    out = run.report(r, metrics, trace)
    assert out["correct"], r.errors
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared(
        "per_layer" if trace else "end_to_end")
    assert all(isinstance(v["value"], float) for v in out["metrics"].values())
    assert out["attempted"] >= 1
    if name == "tls_partial_lowT":
        # T = 1e-6 fails in the Matsubara sums; the row is counted, not dropped
        assert 0 < out["failed"] < out["attempted"]


def _rabi21_reference():
    ref = gate.read_reference(run.HERE / "reference" / "rabi21_partial_g.csv")
    return ref, list(ref.values())


def test_gate_accepts_the_reference():
    ref, rows = _rabi21_reference()
    w = workloads.workload("rabi21_partial_g", workloads.DEFAULT_SEED)
    assert gate.check_reference(rows, ref) == []
    assert gate.check_invariants(w, rows) == []


def test_gate_rejects_a_perturbed_kappa2_cell():
    ref, rows = _rabi21_reference()
    w = workloads.workload("rabi21_partial_g", workloads.DEFAULT_SEED)
    cells = rows[5].split(",")
    k2 = float(cells[2])
    cells[2] = format(k2 * (1 + 1e-4), ".17g")
    bad = rows[:5] + [",".join(cells)] + rows[6:]
    assert any(e.startswith("kappa2 ") for e in gate.check_reference(bad, ref))
    assert any("kappa_total" in e for e in gate.check_invariants(w, bad))


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *BENCH["command"][1:], "--workload", "tls_partial_lowT",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
