"""Sweep-row benchmark of ltrans: one workload, one seed, one run.

    python3 perfbench/run.py --workload rabi5_full_T --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the program is imported from src/.
With --trace 0 the last stdout line reports the end-to-end metrics, their
times scaled to a reference machine speed by speed.py; with --trace 1 it
reports the per-layer metrics of a traced run.  Both runs are checked by
the correctness gate of gate.py.  See README.md for the
workloads and the meaning of every metric.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from math import gcd
from pathlib import Path

import gate
import speed
import workloads
from spans import UNITS as LAYER_UNITS, Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"            # configs, CSVs, timing samples and spans

WORKERS = 2                           # pool size of every run_sweep call
REPEATS = 3                           # serial calls per grid point and pass
SETUP_REPEATS = 5
SWEEP_PROBE_S = 0.25                  # probe interval during run_sweep calls
SERIAL_PROBE_S = 0.1                  # probe interval during serial compute_row calls
MAX_SPANS = 200_000                   # no further traced pass once this many are held
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

E2E_UNITS = {
    "rows_per_s": "1/s",
    "row_ms_p50": "ms",
    "row_ms_p90": "ms",
    "row_ok_frac": "frac",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Time from the start of a fresh interpreter's `import ltrans` to a loaded config.
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import ltrans
from ltrans.config import load_config
load_config(sys.argv[1])
print(repr(time.perf_counter() - t0))
"""


def spread_order(n: int) -> list[int]:
    """Grid indices in golden-ratio stride order, so any prefix spans the grid."""
    stride = max(1, round(0.618 * n))
    while gcd(stride, n) != 1:
        stride += 1
    return [(k * stride) % n for k in range(n)]


class Run:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, seed: int, seconds: float, points: int | None = None):
        # imported here, after main() has set the BLAS thread variables
        from ltrans import config, sweep

        self.sweep = sweep
        self.config_module = config
        self.w = workloads.workload(name, seed, points)
        self.nominal = workloads.workload(name, workloads.DEFAULT_SEED, points)
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.rows: set[str] = set()       # rows of self.w seen, for the invariants
        self.reference = gate.read_reference(HERE / "reference" / f"{name}.csv")
        WORK.mkdir(exist_ok=True)

    # -- program calls ---------------------------------------------------

    def config(self, w, tag: str):
        stem = WORK / f"{w.name}-seed{self.seed}-{tag}"
        ini = stem.with_suffix(".ini")
        ini.write_text(workloads.config_text(w, str(stem.with_suffix(".csv"))),
                       encoding="utf-8")
        return ini, self.config_module.load_config(str(ini))

    def row(self, cfg, value: float) -> tuple[str | None, float]:
        """compute_row at one grid point: (row text or None if it raised, seconds)."""
        t0 = time.perf_counter()
        try:
            text = self.sweep.compute_row(cfg, float(value))
        except Exception:  # noqa: BLE001  (a raising row is a counted failure)
            text = None
        dt = time.perf_counter() - t0
        self.attempted += 1
        self.failed += text is None
        return text, dt

    def run_sweep(self, cfg) -> tuple[str, float]:
        """run_sweep with WORKERS processes: (CSV text, wall seconds)."""
        t0 = time.perf_counter()
        result = self.sweep.run_sweep(cfg, workers=WORKERS)
        dt = time.perf_counter() - t0
        with open(result.csv_path, encoding="utf-8", newline="") as fh:
            text = fh.read()
        body = text.split("\n")[1:-1]
        nan_rows = sum(gate.is_failure(line) for line in body)
        if nan_rows != len(result.failures):
            self.errors.append(f"{nan_rows} NaN rows but {len(result.failures)} "
                               "failures reported by run_sweep")
        self.attempted += len(body)
        self.failed += nan_rows
        self.rows.update(line for line in body if not gate.is_failure(line))
        return text, dt

    # -- gate ------------------------------------------------------------

    def check_reference(self) -> None:
        """Recompute nominal rows, starting at a seed-chosen grid index."""
        _, cfg = self.config(self.nominal, "nominal")
        grid = cfg.grid()
        n = min(self.nominal.reference_rows, len(grid))
        start = self.seed % len(grid)
        rows = []
        for k in range(n):
            idx = (start + k) % len(grid)
            text, _ = self.row(cfg, grid[idx])
            if text is not None:
                rows.append(text)
        self.errors += gate.check_reference(rows, self.reference)
        self.errors += gate.check_invariants(self.nominal, rows)

    def check_parity(self, cfg, csv_texts: list[str], serial: dict) -> None:
        for text in csv_texts[1:]:
            if text != csv_texts[0]:
                self.errors.append("two run_sweep calls on one config wrote different CSVs")
                break
        self.errors += gate.check_parity(csv_texts[0], self.sweep.CSV_HEADER,
                                         cfg.points, serial)

    def serial_record(self, serial: dict, idx: int, text: str | None) -> None:
        if idx in serial and serial[idx] != text:
            self.errors.append(f"compute_row is not deterministic at grid index {idx}")
        serial[idx] = text
        if text is not None:
            self.rows.add(text)

    def finish_gate(self) -> bool:
        self.errors += gate.check_invariants(self.w, sorted(self.rows))
        for err in self.errors[:20]:
            print(f"gate: {err}", file=sys.stderr)
        return not self.errors

    # -- end-to-end run --------------------------------------------------

    def end_to_end(self) -> dict[str, float]:
        ini, cfg = self.config(self.w, "run")
        grid = cfg.grid()
        self.check_reference()

        t0 = time.perf_counter()
        csv_texts, walls = [], []
        # whole sweeps while the next one is expected to end within half the
        # run; the probe samples every CPU the pool workers may run on
        with speed.Meter(SWEEP_PROBE_S, cpus=os.sched_getaffinity(0)) as sweep_meter:
            while not walls or time.perf_counter() - t0 + walls[-1] <= 0.5 * self.seconds:
                text, wall = self.run_sweep(cfg)
                csv_texts.append(text)
                walls.append(wall)
        sweep_factor = sweep_meter.factor(t0, time.perf_counter())

        # serial passes over a fixed set of grid points, while the next pass
        # is expected to end within the run; a pass visits every point
        # REPEATS times, spread out so that one slow spell hits few calls
        points = spread_order(len(grid))[:self.w.serial_points]
        serial: dict[int, str | None] = {}
        calls: list[tuple[int, float, float]] = []    # (grid index, start, end)
        passes = 0
        t1 = time.perf_counter()
        # one CPU for the calls and the probe thread, so that the probe
        # measures the CPU the rows run on (see speed.py)
        with speed.one_cpu(), speed.Meter(SERIAL_PROBE_S) as meter:
            while not passes or (time.perf_counter() - t0
                                 + (time.perf_counter() - t1) / passes <= self.seconds):
                for idx in points * REPEATS:
                    meter.tick()
                    text, dt = self.row(cfg, grid[idx])
                    end = time.perf_counter()
                    self.serial_record(serial, idx, text)
                    calls.append((idx, end - dt, end))
                passes += 1
        self.check_parity(cfg, csv_texts, serial)
        raw: dict[int, list[float]] = {idx: [] for idx in points}
        times: dict[int, list[float]] = {idx: [] for idx in points}
        for idx, start, end in calls:
            raw[idx].append(end - start)
            times[idx].append(meter.scale(start, end))
        # a grid point's latency is the median of its calls, each scaled to
        # the reference speed (see speed.py and README.md, "Noise")
        latency = [statistics.median(v) for v in times.values()]
        factors = [speed.REF_PROBE_S / p for _, _, p in meter.samples]
        (WORK / f"{self.w.name}-seed{self.seed}-samples.json").write_text(
            json.dumps({"sweep_s": walls, "sweep_speed_samples": sweep_meter.samples,
                        "speed_samples": meter.samples,
                        "row_s": {str(k): v for k, v in raw.items()},
                        "row_scaled_s": {str(k): v for k, v in times.items()}}),
            encoding="utf-8")
        setup_s, setup_raw_s = setup_seconds(ini)

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        self.info = {"sweeps": len(walls), "sweep_rows": len(walls) * len(grid),
                     "serial_rows": passes * REPEATS * len(points),
                     "serial_points": len(points),
                     "speed_factor_median": statistics.median(factors),
                     "sweep_speed_factor": sweep_factor,
                     "raw_rows_per_s": len(grid) / statistics.median(walls),
                     "raw_row_ms_p50": 1e3 * statistics.median(
                         statistics.median(v) for v in raw.values()),
                     "raw_setup_s": setup_raw_s}
        return {
            "rows_per_s": len(grid) / (statistics.median(walls) * sweep_factor),
            "row_ms_p50": 1e3 * statistics.median(latency),
            # over the 2 serial points of a Rabi run, close to the larger one
            "row_ms_p90": 1e3 * statistics.quantiles(latency, n=10, method="inclusive")[8],
            "row_ok_frac": 1.0 - self.failed / self.attempted,
            "setup_s": setup_s,
            "peak_rss_mb": max(own, workers) / 1024.0,
        }

    # -- traced run ------------------------------------------------------

    def traced(self) -> dict[str, float]:
        self.check_reference()
        tracer = Tracer()
        tracer.install()
        try:
            _, cfg = self.config(self.w, "traced")
            grid = cfg.grid()
            n = len(grid)
            t0 = time.perf_counter()
            traced_s: dict[int, list[float]] = {i: [] for i in range(n)}
            rows = 0
            while not rows or (time.perf_counter() - t0 < 0.5 * self.seconds
                               and len(tracer.spans) < MAX_SPANS):
                for idx in range(n):
                    tracer.row = rows
                    text, dt = self.row(cfg, grid[idx])
                    traced_s[idx].append(dt)
                    if text is not None:
                        self.rows.add(text)
                    rows += 1
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics(rows, first_pass_rows=n)
        tracer.write(WORK / f"{self.w.name}-seed{self.seed}-spans.jsonl")

        # the same window of rows untraced, serially and through run_sweep
        k = min(self.w.trace_window, n)
        i0 = (n - k) // 2
        win = replace(self.w, start=float(grid[i0]), stop=float(grid[i0 + k - 1]),
                      points=k)
        _, wcfg = self.config(win, "window")
        wgrid = wcfg.grid()
        untraced_s: dict[int, list[float]] = {i: [] for i in range(k)}
        serial: dict[int, str | None] = {}
        csv_texts, walls = [], []
        while not walls or time.perf_counter() - t0 < self.seconds:
            for idx in range(k):
                text, dt = self.row(wcfg, wgrid[idx])
                self.serial_record(serial, idx, text)
                untraced_s[idx].append(dt)
            text, wall = self.run_sweep(wcfg)
            csv_texts.append(text)
            walls.append(wall)
        self.check_parity(wcfg, csv_texts, serial)

        # fastest calls and sweeps, as in the end-to-end run
        untraced = sum(min(v) for v in untraced_s.values())
        traced = sum(min(traced_s[i0 + i]) for i in range(k))
        metrics["sweep.run_sweep.overhead_frac"] = min(walls) / (untraced / WORKERS) - 1.0
        metrics["trace.overhead_frac"] = traced / untraced - 1.0
        metrics["row_fail_frac"] = self.failed / self.attempted
        self.info = {"traced_rows": rows, "window_rows": k, "window_sweeps": len(walls),
                     "spans": len(tracer.spans)}
        return metrics


def report(run: Run, metrics: dict[str, float], trace: int) -> dict:
    """The result object: gate verdict, row counts and every declared metric."""
    units = LAYER_UNITS if trace else E2E_UNITS
    return {
        "correct": run.finish_gate(),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }


def setup_seconds(ini: Path) -> tuple[float, float]:
    """Medians over SETUP_REPEATS fresh interpreters, after one untimed warm-up.

    Returns (scaled, raw) seconds; each start-up is scaled by the speed
    measured before and after it (speed.py).
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", SETUP_CODE, str(ini)]

    def once() -> float:
        out = subprocess.run(cmd, env=env, cwd=ROOT, check=True, capture_output=True,
                             text=True, timeout=60).stdout
        return float(out.strip().splitlines()[-1])

    # one CPU, so that the probe measures the CPU the interpreter starts on
    with speed.one_cpu():
        once()
        raw, scaled = [], []
        before = speed.factor()
        for _ in range(SETUP_REPEATS):
            raw.append(once())
            after = speed.factor()
            scaled.append(raw[-1] * 0.5 * (before + after))
            before = after
    return statistics.median(scaled), statistics.median(raw)


def set_thread_env() -> dict[str, str]:
    """BLAS/OpenMP threads per process, so WORKERS pool processes fit in nproc."""
    nproc = len(os.sched_getaffinity(0))
    per = str(max(1, nproc // WORKERS))
    for var in THREAD_VARS:
        os.environ[var] = per
    return {"nproc": nproc, **{var: per for var in THREAD_VARS}}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "ltrans" / "__init__.py").is_file():
        print(f"perfbench: no ltrans sources under {SRC}", file=sys.stderr)
        return 2
    env = set_thread_env()          # before numpy is imported
    sys.path.insert(0, str(SRC))
    import numpy
    import scipy
    logging.getLogger("ltrans").setLevel(logging.ERROR)

    env.update(numpy=numpy.__version__, scipy=scipy.__version__,
               python=platform.python_version(), loadavg_before=os.getloadavg())
    run = Run(args.workload, args.seed, args.seconds)
    metrics = run.traced() if args.trace else run.end_to_end()
    result = report(run, metrics, args.trace)
    env.update(run.info, loadavg_after=os.getloadavg(), workload=args.workload,
               seed=args.seed, gate_errors=len(run.errors))
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
