import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

CONFIG = """
[model]
type = tls
epsilon = 0.3
delta = 1.0
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[sweep]
variable = T
start = 0.05
stop = 2
points = 5
[output]
csv = out.csv
"""

# quadrature and the solvers it pulls in belong to the test oracles only
HEAVY = ("scipy.integrate", "scipy.optimize", "scipy.sparse")


def test_cold_start_leaves_quadrature_unimported(tmp_path):
    ini = tmp_path / "sweep.ini"
    ini.write_text(CONFIG, encoding="utf-8")
    script = ("import json, sys\n"
              "import ltrans, ltrans.cli\n"
              "from ltrans.config import load_config\n"
              f"load_config({str(ini)!r})\n"
              "print(json.dumps(sorted(sys.modules)))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = set(json.loads(out))
    assert "ltrans.cli" in loaded
    assert [m for m in HEAVY if m in loaded] == []
