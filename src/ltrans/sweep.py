"""Parameter sweeps: one conductance/current row per grid point, CSV out.

Each row takes kappa2 from one linear-response `kappa2_response` call with
the configured solver.  On a zero-bias row (T_left = T_right, as on every T
sweep row) the steady state of that call is also the state of the row's
currents; a biased row solves its own state for them.

The grid is cut into one contiguous chunk per worker process (the whole grid
when serial).  The calling process computes the first chunk itself; each
other chunk runs in its own child process, started before any row is
computed, which sends its rows back through a pipe.  The rows are gathered
in index order, so the output is byte-identical for any worker count.  A T
sweep builds its junction model once per chunk and clears the model's W memo
at the start of each row; every other sweep builds the model per row.
Solver failures poison single rows with NaN rather than the run; a model
build that fails poisons its chunk.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .config import SweepConfig
from .currents import (dot_transport, heat_current_2nd_general,
                       heat_current_2nd_secular, kappa2_response, kappa4_lowT,
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
    """Processes, this one included: --workers beats LT_THREADS; 1 if neither is set."""
    if flag is not None:
        if flag < 1:
            raise ValidationError(f"--workers must be at least 1, got {flag}")
        return flag
    env = os.environ.get("LT_THREADS", "").strip()
    if not env:
        return 1
    try:
        n = int(env)
    except ValueError:
        raise ValidationError(f"LT_THREADS is not an integer: {env!r}") from None
    if n < 1:
        raise ValidationError(f"LT_THREADS must be at least 1, got {env!r}")
    return n


def _tls_junction(epsilon: float, delta: float) -> JunctionModel:
    h = np.array([[-0.5 * epsilon, -0.5 * delta],
                  [-0.5 * delta, 0.5 * epsilon]], dtype=complex)
    _, v = hermitian_eigensystem(h)
    sz = np.diag([1.0, -1.0]).astype(complex)
    q = to_eigenbasis(sz, v).real
    wq = float(np.hypot(epsilon, delta))
    return build_junction([-0.5 * wq, 0.5 * wq], {"L": q, "R": q.copy()})


def _junction(cfg: SweepConfig, model_args: dict) -> tuple[JunctionModel, int]:
    """The junction model of a rabi or tls config and its level count."""
    if cfg.model_type == "rabi":
        params = RabiParams(**model_args)
        return build_rabi_junction(params), params.retained_levels
    return _tls_junction(float(model_args["epsilon"]), float(model_args["delta"])), 2


def _bose_baths(cfg_baths: dict, t_left: float, t_right: float) -> list[Reservoir]:
    sd = SpectralDensity(alpha=float(cfg_baths["alpha"]),
                         omega_c=float(cfg_baths["omega_c"]))
    return [Reservoir("L", "bose", 1.0 / t_left, 0.0, sd),
            Reservoir("R", "bose", 1.0 / t_right, 0.0, sd)]


def compute_row(cfg: SweepConfig, value: float) -> str:
    """One CSV data row (no newline) at sweep value `value`; raises if it fails."""
    [(row, exc)] = _chunk_rows(cfg, [value])
    if exc is not None:
        raise exc
    return row


def _chunk_rows(cfg: SweepConfig,
                values: list[float]) -> list[tuple[str, Exception | None]]:
    """(row, exception or None) per value of one contiguous chunk of the grid.

    A T sweep of a rabi or tls model builds the model once for the chunk; if
    that build raises, every row of the chunk fails with its exception.
    """
    junction = None
    if cfg.variable == "T" and cfg.model_type != "dot":
        try:
            junction = _junction(cfg, cfg.model)
        except Exception as exc:  # noqa: BLE001  (reported per row by the caller)
            return [(_failed_row(cfg, v), exc) for v in values]
    out = []
    for value in values:
        try:
            out.append((_row(cfg, value, junction), None))
        except Exception as exc:  # noqa: BLE001  (per-row isolation is the point)
            out.append((_failed_row(cfg, value), exc))
    return out


def _row(cfg: SweepConfig, value: float,
         junction: tuple[JunctionModel, int] | None) -> str:
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

    model, levels = junction if junction is not None else _junction(cfg, model_args)
    model.tables.clear()           # W tables of earlier rows' temperatures
    baths = _bose_baths(cfg.baths, t_left, t_right)
    omega10 = kondo_temperature(model)
    alpha = float(cfg.baths["alpha"])

    k2 = kappa2_response(model, baths, t_mean, solver=cfg.solver,
                         c=cfg.cluster_factor, lamb_shift=cfg.lamb_shift)
    # at zero bias the baths are those of kappa2's common temperature, so its
    # steady state (and rate matrix) are the row's own
    zero_bias = t_left == t_right
    if cfg.solver == "partial":
        state = k2.state if zero_bias else partial_secular_state(
            model, baths, c=cfg.cluster_factor, lamb_shift=cfg.lamb_shift)[0]
        i_l = heat_current_2nd_general(model, baths, "L", state)
        i_r = heat_current_2nd_general(model, baths, "R", state)
    else:
        if zero_bias:
            rates, state = k2.rates, k2.state
        else:
            rates = gamma_rates(model, baths)
            state = full_secular_steady(rates)
        cur = heat_current_2nd_secular(model, rates, state)
        i_l, i_r = cur.per_reservoir["L"], cur.per_reservoir["R"]

    k4v = kappa4_lowT(model, alpha, t_mean)
    fields = [k2.kappa2, k4v, k2.kappa2 + k4v, i_l, i_r, omega10, omega10]
    return _format_row(cfg, value, fields, levels=levels)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _format_row(cfg: SweepConfig, value: float, fields: list[float],
                levels: int) -> str:
    cells = [cfg.variable, _fmt(value)] + [_fmt(f) for f in fields]
    cells += [cfg.solver, str(levels)]
    return ",".join(cells)


def _failed_row(cfg: SweepConfig, value: float) -> str:
    return _format_row(cfg, value, [float("nan")] * _NAN_FIELDS, levels=0)


def _chunk_task(args) -> list[tuple[str, str]]:
    """(row, failure message or "") per row of one chunk."""
    cfg, values = args
    return [(row, "" if exc is None else f"{type(exc).__name__}: {exc}")
            for row, exc in _chunk_rows(cfg, values)]


def _chunk_child(send, chunk) -> None:
    """Body of a child process: send the rows of `chunk` through `send`."""
    send.send(_chunk_task(chunk))
    send.close()


def _run_chunks(chunks: list) -> list[list[tuple[str, str]]]:
    """`_chunk_task` of every chunk, in chunk order.

    One child process per chunk after the first, all started before this
    process computes the first chunk.  Each child's part is received before
    the child is joined, so a child blocked on a full pipe cannot deadlock the
    join.  However this function leaves, no child outlives it.
    """
    children = []
    try:
        for chunk in chunks[1:]:
            recv, send = multiprocessing.Pipe(duplex=False)
            proc = multiprocessing.Process(target=_chunk_child, args=(send, chunk))
            proc.start()
            send.close()           # the child's copy is now the only writer
            children.append((recv, proc))
        parts = [_chunk_task(chunks[0])]
        for k, (recv, proc) in enumerate(children, start=1):
            try:
                parts.append(recv.recv())
            except EOFError:
                proc.join()
                raise RuntimeError(f"sweep chunk {k} ended without its rows "
                                   f"(exitcode {proc.exitcode})") from None
            proc.join()
        return parts
    finally:
        for recv, proc in children:
            if proc.is_alive():
                proc.terminate()
            proc.join()
            recv.close()


def run_sweep(cfg: SweepConfig, workers: int | None = None) -> SweepResult:
    """Run the sweep, write the CSV, and report per-row failures.

    `workers` counts processes, this one included: the grid is cut into one
    contiguous chunk per worker, this process computes the first chunk, and
    one child process per remaining chunk computes the rest.  One worker, or
    a one-chunk grid, starts no child.
    """
    grid = [float(v) for v in cfg.grid()]
    size = -(-len(grid) // min(worker_count(workers), len(grid)))
    chunks = [(cfg, grid[i:i + size]) for i in range(0, len(grid), size)]
    parts = _run_chunks(chunks)
    results = [r for part in parts for r in part]      # chunks are in index order
    failures = [(i, err) for i, (_, err) in enumerate(results) if err]
    with open(cfg.csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for row, _ in results:
            fh.write(row + "\n")
    return SweepResult(csv_path=cfg.csv_path, rows=len(results), failures=failures)
