import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ltrans
from ltrans.sweep import _usable_cpus

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

BATHS = """
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
"""

CONFIGS = {
    "tls": """
[model]
type = tls
epsilon = 0.3
delta = 1.0
""" + BATHS + """
[sweep]
variable = T
start = 0.05
stop = 2
points = 5
""",
    "dot": """
[model]
type = dot
epsilon = 0.5
[baths]
statistics = fermi
gamma_left = 0.01
gamma_right = 0.01
T_left = 0.1
T_right = 0.1
[sweep]
variable = epsilon
start = -1
stop = 1
points = 5
""",
    "rabi": """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 0.2
retained_levels = 3
fock_cutoff = 16
""" + BATHS + """
[sweep]
variable = g
start = 0.1
stop = 0.3
points = 2
""",
}

# a fresh interpreter: the scipy modules loaded after the imports and the
# config, then after a sweep; and, for each child process the sweep starts,
# whether scipy.linalg was loaded when it started
SCRIPT = """\
import json, multiprocessing, sys
import ltrans, ltrans.cli
from ltrans.config import load_config
from ltrans.sweep import run_sweep

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

forks = []
start = multiprocessing.Process.start

def recorded_start(self):
    forks.append("scipy.linalg" in sys.modules)
    start(self)

multiprocessing.Process.start = recorded_start
cfg = load_config(sys.argv[1])
loaded = scipy_modules()
result = run_sweep(cfg, workers=int(sys.argv[2]))
assert result.ok, result.failures
print(json.dumps([loaded, scipy_modules(), forks]))
"""


def scipy_modules(tmp_path, model: str, workers: int = 1):
    """(scipy modules after the config, after the sweep, the fork records)."""
    ini = tmp_path / f"{model}.ini"
    ini.write_text(CONFIGS[model] + f"[output]\ncsv = {tmp_path / 'out.csv'}\n",
                   encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SCRIPT, str(ini), str(workers)],
                         env=env, check=True, capture_output=True, text=True).stdout
    return json.loads(out)


@pytest.mark.parametrize("model", ["tls", "dot"])
def test_two_level_and_dot_sweeps_load_no_scipy(tmp_path, model):
    # the bath tables and the dense eigensolver are numpy alone
    assert scipy_modules(tmp_path, model) == [[], [], []]


def test_rabi_sweeps_load_only_scipy_linalg_at_the_first_model(tmp_path):
    after_config, after_sweep, forks = scipy_modules(tmp_path, "rabi")
    assert after_config == [] and forks == []
    assert "scipy.linalg" in after_sweep
    # the quadrature oracles and scipy.special belong to the tests and validate
    oracles = ("scipy.special", "scipy.integrate")
    assert [m for m in after_sweep if m.startswith(oracles)] == []


def test_a_parallel_rabi_sweep_loads_scipy_linalg_before_it_forks(tmp_path):
    if _usable_cpus() < 2:
        pytest.skip("one usable CPU: the sweep starts no child")
    after_config, after_sweep, forks = scipy_modules(tmp_path, "rabi", workers=2)
    assert after_config == [] and "scipy.linalg" in after_sweep
    assert forks == [True]


def test_every_benchmark_span_target_exists():
    # perfbench/spans.py wraps each LAYERS name by getattr on its ltrans
    # module, so a name that is gone makes `perfbench/run.py --trace 1` raise;
    # each PROBES key names one of them
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    targets = [(layer, name) for layer, names in spans.LAYERS.items() for name in names]
    targets += [tuple(key.split(".")) for key in spans.PROBES]
    missing = [f"{layer}.{name}" for layer, name in targets
               if not callable(getattr(importlib.import_module(f"ltrans.{layer}"),
                                       name, None))]
    assert missing == []


def test_every_name_the_benchmark_imports_exists():
    # for example perfbench/gate.py checks the TLS rows against
    # ltrans.currents.tls_closed_forms
    missing = []
    for path in sorted((ROOT / "perfbench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ltrans":
                module = importlib.import_module(node.module)
                missing += [f"{path.name}: {node.module}.{alias.name}" for alias in node.names
                            if not hasattr(module, alias.name)
                            and importlib.util.find_spec(f"{node.module}.{alias.name}") is None]
    assert missing == []


MODULES = sorted(p.stem for p in (SRC / "ltrans").glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    # a name deleted from a module must leave its __all__ too
    module = importlib.import_module(f"ltrans.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []


def test_the_package_exports_exactly_what_it_imports():
    tree = ast.parse((SRC / "ltrans" / "__init__.py").read_text(encoding="utf-8"))
    imported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(ltrans.__all__) == sorted(imported)


# the modules a sweep row runs through, and what they must not import: the
# diagram and oracle layer that checks the kernels, and the tests' oracles
ROW_PATH = ("sweep", "currents", "steady", "redfield", "rabi", "linalg", "model",
            "config", "baths")
ORACLE_MODULES = ("ltrans.oracle", "ltrans.diagrams", "ltrans.validate")
TEST_MODULES = {p.stem for p in (ROOT / "tests").glob("*.py")}


def oracle_imports(name):
    """The oracle and test modules that module ltrans.<name> imports, anywhere in it."""
    tree = ast.parse((SRC / "ltrans" / f"{name}.py").read_text(encoding="utf-8"))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:                  # relative, within the package
                base = "ltrans" + ("." + base if base else "")
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found += [t for t in targets
                  if t.split(".")[0] in TEST_MODULES
                  or any(t == o or t.startswith(o + ".") for o in ORACLE_MODULES)]
    return found


@pytest.mark.parametrize("name", ROW_PATH)
def test_row_path_modules_import_no_oracle(name):
    assert oracle_imports(name) == []


def test_the_oracle_import_check_sees_an_oracle_import():
    # validate runs the oracles, so the check must find them there
    assert "ltrans.oracle" in oracle_imports("validate")
    assert "ltrans.diagrams" in oracle_imports("oracle")
