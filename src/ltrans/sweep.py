"""Parameter sweeps: one conductance/current row per grid point, CSV out.

Each row takes its currents from the steady state of the configured solver
and kappa2 from one linear-response `kappa2` call with the same solver.
Grid points are independent; they are dispatched to a process pool and
gathered in index order, so the output is byte-identical for any worker
count.  Solver failures poison single rows with NaN rather than the run.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import SweepConfig
from .currents import (dot_transport, heat_current_2nd_general,
                       heat_current_2nd_secular, kappa2, kappa4_lowT,
                       partial_secular_state)
from .linalg import ValidationError, hermitian_eigensystem, to_eigenbasis
from .model import JunctionModel, Reservoir, SpectralDensity, build_junction
from .rabi import RabiParams, build_rabi_junction, kondo_temperature
from .redfield import gamma_rates
from .steady import full_secular_steady

__all__ = ["run_sweep", "compute_row", "SweepResult", "CSV_HEADER", "worker_count"]

CSV_HEADER = "sweep_var,value,kappa2,kappa4,kappa_total,I_L,I_R,omega_10,T_K,solver,levels"
_NAN_FIELDS = 7


@dataclass(frozen=True)
class SweepResult:
    csv_path: str
    rows: int
    failures: list[tuple[int, str]]

    @property
    def ok(self) -> bool:
        return not self.failures


def worker_count(flag: int | None = None) -> int:
    """--workers flag beats LT_THREADS beats available cores."""
    if flag is not None and flag > 0:
        return flag
    env = os.environ.get("LT_THREADS", "").strip()
    if env:
        try:
            n = int(env)
        except ValueError:
            raise ValidationError(f"LT_THREADS is not an integer: {env!r}") from None
        if n > 0:
            return n
    return os.cpu_count() or 1


def _tls_junction(epsilon: float, delta: float) -> JunctionModel:
    h = np.array([[-0.5 * epsilon, -0.5 * delta],
                  [-0.5 * delta, 0.5 * epsilon]], dtype=complex)
    _, v = hermitian_eigensystem(h)
    sz = np.diag([1.0, -1.0]).astype(complex)
    q = to_eigenbasis(sz, v).real
    wq = float(np.hypot(epsilon, delta))
    return build_junction([-0.5 * wq, 0.5 * wq], {"L": q, "R": q.copy()})


def _bose_baths(cfg_baths: dict, t_left: float, t_right: float) -> list[Reservoir]:
    sd = SpectralDensity(alpha=float(cfg_baths["alpha"]),
                         omega_c=float(cfg_baths["omega_c"]))
    return [Reservoir("L", "bose", 1.0 / t_left, 0.0, sd),
            Reservoir("R", "bose", 1.0 / t_right, 0.0, sd)]


def compute_row(cfg: SweepConfig, value: float) -> str:
    """One CSV data row (no newline) at sweep value `value`."""
    sweep_t = cfg.variable == "T"
    t_left = value if sweep_t else float(cfg.baths["T_left"])
    t_right = value if sweep_t else float(cfg.baths["T_right"])
    t_mean = 0.5 * (t_left + t_right)

    model_args = dict(cfg.model)
    if not sweep_t:
        model_args[cfg.variable] = value

    if cfg.model_type == "dot":
        leads = [dict(id="L", gamma=float(cfg.baths["gamma_left"]),
                      beta=1.0 / t_left, mu=float(cfg.baths["mu_left"])),
                 dict(id="R", gamma=float(cfg.baths["gamma_right"]),
                      beta=1.0 / t_right, mu=float(cfg.baths["mu_right"]))]
        level = float(model_args["epsilon"])
        res = dot_transport(level, leads)
        fields = [res.kappa, 0.0, res.kappa, res.heat["L"], res.heat["R"],
                  level, level]
        return _format_row(cfg, value, fields, levels=3)

    if cfg.model_type == "rabi":
        params = RabiParams(**model_args)
        model = build_rabi_junction(params)
        levels = params.retained_levels
    else:
        model = _tls_junction(float(model_args["epsilon"]), float(model_args["delta"]))
        levels = 2

    baths = _bose_baths(cfg.baths, t_left, t_right)
    omega10 = kondo_temperature(model)
    alpha = float(cfg.baths["alpha"])

    k2v = kappa2(model, baths, t_mean, solver=cfg.solver, c=cfg.cluster_factor,
                 lamb_shift=cfg.lamb_shift)
    if cfg.solver == "partial":
        state, _ = partial_secular_state(model, baths, c=cfg.cluster_factor,
                                         lamb_shift=cfg.lamb_shift)
        i_l = heat_current_2nd_general(model, baths, "L", state)
        i_r = heat_current_2nd_general(model, baths, "R", state)
    else:
        rates = gamma_rates(model, baths)
        state = full_secular_steady(rates)
        cur = heat_current_2nd_secular(model, rates, state)
        i_l, i_r = cur.per_reservoir["L"], cur.per_reservoir["R"]

    k4v = kappa4_lowT(model, alpha, t_mean)
    fields = [k2v, k4v, k2v + k4v, i_l, i_r, omega10, omega10]
    return _format_row(cfg, value, fields, levels=levels)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _format_row(cfg: SweepConfig, value: float, fields: list[float],
                levels: int) -> str:
    cells = [cfg.variable, _fmt(value)] + [_fmt(f) for f in fields]
    cells += [cfg.solver, str(levels)]
    return ",".join(cells)


def _row_task(args) -> tuple[int, str, str]:
    cfg, idx, value = args
    try:
        return idx, compute_row(cfg, value), ""
    except Exception as exc:  # noqa: BLE001  (per-row isolation is the point)
        nan_fields = [float("nan")] * _NAN_FIELDS
        return idx, _format_row(cfg, value, nan_fields, levels=0), f"{type(exc).__name__}: {exc}"


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Run the sweep, write the CSV, and report per-row failures."""
    grid = cfg.grid()
    tasks = [(cfg, i, float(v)) for i, v in enumerate(grid)]
    nworkers = worker_count(workers)
    if nworkers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=nworkers) as pool:
            results = list(pool.map(_row_task, tasks, chunksize=1))
    else:
        results = [_row_task(t) for t in tasks]
    results.sort(key=lambda r: r[0])
    failures = [(i, err) for (i, _, err) in results if err]
    with open(cfg.csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for _, row, _ in results:
            fh.write(row + "\n")
    return SweepResult(csv_path=cfg.csv_path, rows=len(results), failures=failures)
