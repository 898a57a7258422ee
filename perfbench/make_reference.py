"""Write reference/<workload>.csv: the nominal-seed sweep of every workload.

    python3 perfbench/make_reference.py [workload ...]

Regenerate only when a change is meant to alter the numbers, and say so in
the change.  The correctness gate compares nominal rows against these files.
"""

from __future__ import annotations

import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from ltrans.config import load_config  # noqa: E402
from ltrans.sweep import run_sweep  # noqa: E402

WORK = ROOT / ".perfbench"


def main(names: list[str]) -> int:
    WORK.mkdir(exist_ok=True)
    (HERE / "reference").mkdir(exist_ok=True)
    for name in names or workloads.NAMES:
        w = workloads.workload(name, workloads.DEFAULT_SEED)
        ini = WORK / f"{name}-reference.ini"
        csv = WORK / f"{name}-reference.csv"
        ini.write_text(workloads.config_text(w, str(csv)), encoding="utf-8")
        result = run_sweep(load_config(str(ini)), workers=2)
        shutil.copyfile(csv, HERE / "reference" / f"{name}.csv")
        print(f"{name}: {result.rows} rows, {len(result.failures)} failed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
