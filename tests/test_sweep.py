import pytest

from ltrans.config import parse_config_text
from ltrans.sweep import run_sweep
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
