import math
import sys

import numpy as np
import pytest

from ltrans import currents, redfield
from ltrans.config import parse_config_text
from ltrans.currents import tls_closed_forms
from ltrans.sweep import compute_row, run_sweep
from ltrans.validate import run_validation

RABI = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.2
retained_levels = 3
fock_cutoff = 30
[baths]
T_left = 0.12
T_right = 0.08
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
[sweep]
variable = g
start = 0.05
stop = 0.3
points = 3
"""

TLS = """
[model]
type = tls
epsilon = 0.3
delta = 1.0
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
[sweep]
variable = T
scale = log
start = 0.05
stop = 2
points = 4
"""


@pytest.mark.parametrize("text", [RABI, TLS], ids=["rabi", "tls"])
def test_csv_byte_identical_for_any_worker_count(tmp_path, text):
    out = {}
    for workers in (1, 2):
        csv = tmp_path / f"w{workers}.csv"
        cfg = parse_config_text(text + f"[output]\ncsv = {csv}\n")
        result = run_sweep(cfg, workers=workers)
        assert result.ok and result.rows == cfg.points
        out[workers] = csv.read_bytes()
    assert out[1] == out[2]


def test_validation_suite_passes():
    lines = []
    assert run_validation(out=lines.append) == 0
    assert lines[-1].startswith("OK")


@pytest.mark.filterwarnings("error")
def test_cold_tls_partial_row_matches_closed_form(tmp_path):
    # T = 1e-6 omega_ref: the bath rates are far beyond reach of a Matsubara series
    cfg = parse_config_text(TLS + f"[output]\ncsv = {tmp_path / 'cold.csv'}\n")
    cells = compute_row(cfg, 1e-6).split(",")
    values = [float(c) for c in cells[1:9]]
    assert all(math.isfinite(v) for v in values)
    omega_q = math.hypot(0.3, 1.0)
    q = 1.0 / omega_q                 # |<0|sigma_z|1>| in the eigenbasis
    _, _, k4 = tls_closed_forms(omega_q, q, q, 1e-3, 1e-6, 1e-6, omega_c=5.0)
    assert float(cells[3]) == pytest.approx(k4, rel=1e-9)


def test_partial_row_never_builds_the_full_kernel_tensor(tmp_path, monkeypatch):
    # a 21-level partial-secular row needs only the retained kernel block:
    # building all N^4 entries (through k2_tensor_from_w or a block over all
    # N^2 pairs) is a regression of the retained-block path
    def full_tensor(*args, **kwargs):
        raise AssertionError("full N^4 kernel tensor built on a partial-secular row")

    block_sizes = []
    pair_block = redfield.k2_pair_block

    def counting_pair_block(q, w, rows, cols):
        block_sizes.append((len(rows), len(cols)))
        return pair_block(q, w, rows, cols)

    monkeypatch.setattr(redfield, "k2_tensor_from_w", full_tensor)
    monkeypatch.setattr(redfield, "k2_pair_block", counting_pair_block)
    monkeypatch.setattr(currents, "k2_pair_block", counting_pair_block)
    cfg = parse_config_text(RABI.replace("retained_levels = 3", "retained_levels = 21")
                            .replace("fock_cutoff = 30", "fock_cutoff = 40")
                            + f"[output]\ncsv = {tmp_path / 'r21.csv'}\n")
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert cells[-1] == "21"
    # the nominal state, the kappa2 state and its temperature derivative
    assert len(block_sizes) == 3
    assert all(r < 21 * 21 and c < 21 * 21 for r, c in block_sizes)


@pytest.mark.parametrize("secular", ["partial", "full"])
def test_rabi_row_makes_no_dense_diagonalization(tmp_path, monkeypatch, secular):
    # the Rabi junction is solved as a band: a dense Hermitian solve on a
    # Rabi row is a regression of the banded path
    def dense(*args, **kwargs):
        raise AssertionError("dense eigensolver called on a Rabi row")

    for name, module in list(sys.modules.items()):
        if name.startswith("ltrans") and hasattr(module, "hermitian_eigensystem"):
            monkeypatch.setattr(module, "hermitian_eigensystem", dense)
    monkeypatch.setattr(np.linalg, "eigh", dense)
    cfg = parse_config_text(RABI.replace("secular = partial", f"secular = {secular}")
                            + f"[output]\ncsv = {tmp_path / 'rabi.csv'}\n")
    cells = compute_row(cfg, 0.2).split(",")
    assert all(math.isfinite(float(c)) for c in cells[1:9])
    assert cells[-1] == "3"
