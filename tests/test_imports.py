import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

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


def test_every_benchmark_span_target_exists():
    # perfbench/spans.py wraps each LAYERS name by getattr on its ltrans
    # module, so a name that is gone makes `perfbench/run.py --trace 1` raise
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [f"{layer}.{name}" for layer, names in spans.LAYERS.items()
               for name in names
               if not callable(getattr(importlib.import_module(f"ltrans.{layer}"),
                                       name, None))]
    assert missing == []
