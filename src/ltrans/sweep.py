"""Parameter sweeps: one conductance/current row per grid point, CSV out.

The unit of work is a chunk: one contiguous run of grid points.  The grid is
cut into one chunk per worker process (the whole grid when serial), and a T
sweep or a dot sweep of n rows into at most ceil(n / `_ROWS_PER_STACK`)
chunks.  A rabi or tls chunk is computed in stacks of up to
`_ROWS_PER_STACK` rows, so that a long chunk holds the models and states
of one stack at a time, and each stack is one `kappa2_sweep` call.  A T
sweep builds its junction model once per chunk, and its stack runs over
the temperatures of its rows: one model, n temperatures.  Any other sweep
builds the model of each row, and its stack runs over the models that were
built (`stack_models`), at the mean temperature: R models, one temperature.
`kappa2_sweep` evaluates the bath tables once per stack, solves each set of
slices that share a retained-pair set (across models, on a parameter
sweep) in one batched call, and contracts their conductances and
steady-state currents in one call per set and bath; the low-T kappa4 sums
its model-only factor once per model.  `compute_row` is the one-point
chunk.  A biased row (T_left != T_right, not a T sweep) takes its currents
from the steady state at (T_left, T_right), which `kappa2_sweep` solves as
one more slice per model of the stack it solves at the mean temperature:
one W-table call, one kernel-block evaluation and, when both states keep
the same retained pairs, one factorization serve both.  Each row is
formatted by one `%` format, and the CSV is written in one call.

The worker count is an upper bound on the processes, and so are the CPUs
this process may run on (`_usable_cpus`): a process beyond them only waits
for a CPU.  A child process costs a few milliseconds to start and join,
more than a short T sweep takes in all, but less than a stack of
`_ROWS_PER_STACK` rows; so a T sweep starts its k-th process only beyond
k - 1 full stacks of rows, and one of up to `_ROWS_PER_STACK` rows runs in
the calling process alone.  A dot sweep, whose rows are closed forms of a
few tens of microseconds, follows the same rule.  Any other sweep gets one
chunk per worker, up to one per row.  The calling process computes the
first chunk itself; each other chunk runs in its own child process,
started before any row is computed, which sends its rows back through a
pipe.  The rows are gathered in index order, so the output is
byte-identical for any worker count, and every row is byte-identical to
`compute_row` at its point.  Solver failures poison single rows with NaN
rather than the run, each failing row carrying the exception that
`compute_row` raises there; a model build that fails poisons every row it
serves: the whole chunk on a T sweep, its own row on any other sweep.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import dataclass

import numpy as np

from .config import SweepConfig
from .currents import dot_transport, kappa2_sweep, kappa4_lowT
from .linalg import ValidationError, hermitian_eigensystem
from .model import Q_SYMMETRY_RTOL, JunctionModel, Reservoir, SpectralDensity, stack_models
from .rabi import RabiParams, build_rabi_junction, kondo_temperature

__all__ = ["run_sweep", "compute_row", "SweepResult", "CSV_HEADER", "worker_count",
           "check_writable"]

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


def check_writable(path: str) -> None:
    """Raise ValidationError if `path` cannot be created or overwritten."""
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        reason = "its directory does not exist"
    elif os.path.isdir(path):
        reason = "it is a directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise ValidationError(f"cannot write {path!r}: {reason}")


def worker_count(flag: int | None = None) -> int:
    """The most processes a sweep may use, this one included: --workers beats
    LT_THREADS; 1 if neither is set.  `run_sweep` starts no more than
    `_usable_cpus`, and fewer on a short grid: a T sweep or a dot sweep of n
    rows uses at most ceil(n / `_ROWS_PER_STACK`)."""
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


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    keeps one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _tls_junction(epsilon: float, delta: float) -> JunctionModel:
    """The two-level junction H = -(epsilon sigma_z + delta sigma_x) / 2,
    both baths coupled through sigma_z.

    At epsilon = 0 the levels are the sigma_x eigenstates, under whose
    parity sigma_z is odd: they are labelled with their sigma_x eigenvalue,
    sign(delta) for the ground state (`JunctionModel.sector`).  Where delta
    = 0 as well, H = 0 and both levels share sector 0.  A biased model
    carries no labels.  Built directly, the model is bitwise `build_junction`'s
    of the eigenbasis: the levels -+omega_q / 2 ascend, and sigma_z is checked
    for symmetry and symmetrized once.
    """
    h = np.array([[-0.5 * epsilon, -0.5 * delta],
                  [-0.5 * delta, 0.5 * epsilon]], dtype=complex)
    _, v = hermitian_eigensystem(h)
    sz = np.diag([1.0, -1.0]).astype(complex)
    q = (v.conj().T @ sz @ v).real
    if abs(q[0, 1] - q[1, 0]) > Q_SYMMETRY_RTOL * max(np.abs(q).max(), 1e-300):
        raise ValidationError("sigma_z in the eigenbasis is asymmetric")
    q = 0.5 * (q + q.T)
    wq = float(np.hypot(epsilon, delta))
    sector = np.array([1, -1]) * int(np.sign(delta)) if epsilon == 0.0 else None
    return JunctionModel(np.array([-0.5 * wq, 0.5 * wq]), {"L": q, "R": q.copy()}, sector)


def _junction(cfg: SweepConfig, model_args: dict) -> JunctionModel:
    """The junction model of a rabi or tls config."""
    if cfg.model_type == "rabi":
        return build_rabi_junction(RabiParams(**model_args))
    return _tls_junction(float(model_args["epsilon"]), float(model_args["delta"]))


def _bose_baths(cfg_baths: dict, t_left: float, t_right: float) -> list[Reservoir]:
    sd = SpectralDensity(alpha=float(cfg_baths["alpha"]),
                         omega_c=float(cfg_baths["omega_c"]))
    return [Reservoir("L", 1.0 / t_left, sd), Reservoir("R", 1.0 / t_right, sd)]


def compute_row(cfg: SweepConfig, value: float) -> str:
    """One CSV data row (no newline) at sweep value `value`; raises if it fails."""
    [(row, exc)] = _chunk_rows(cfg, [value])
    if exc is not None:
        raise exc
    return row


def _chunk_rows(cfg: SweepConfig,
                values: list[float]) -> list[tuple[str, Exception | None]]:
    """(row, exception or None) per value of one contiguous chunk of the grid.

    A rabi or tls chunk is computed in stacks of up to `_ROWS_PER_STACK`
    rows (`_stack_rows`).  A T sweep builds its model once for the chunk;
    if that build raises, every row of the chunk fails with its exception.
    Any other sweep builds the model of each row of a stack, and a build
    that raises fails its own row.
    """
    if cfg.model_type == "dot":
        out = []
        for value in values:
            try:
                out.append((_dot_row(cfg, value), None))
            except Exception as exc:  # noqa: BLE001  (per-row isolation is the point)
                out.append((_failed_row(cfg, value), exc))
        return out
    if cfg.variable == "T":
        built = [_row_model(cfg, cfg.model)]
    out = []
    for i in range(0, len(values), _ROWS_PER_STACK):
        part = values[i:i + _ROWS_PER_STACK]
        if cfg.variable != "T":
            built = [_row_model(cfg, {**cfg.model, cfg.variable: v}) for v in part]
        out += _stack_rows(cfg, part, built)
    return out


# rows per `kappa2_sweep` call: a long chunk holds the models (on a parameter
# sweep) and the steady states of one such stack at a time
_ROWS_PER_STACK = 256


def _row_model(cfg: SweepConfig, model_args: dict) -> JunctionModel | Exception:
    """The junction model of `model_args`, which rows of a stack are computed
    on; or the exception its build raises, which fails those rows."""
    try:
        return _junction(cfg, model_args)
    except Exception as exc:  # noqa: BLE001  (reported per row by the caller)
        return exc


def _stack_rows(cfg: SweepConfig, values: list[float],
                built: list) -> list[tuple[str, Exception | None]]:
    """The rows of `values`: on the one model of `built` on a T sweep, else
    each on its own model (`built` holds one `_row_model` per value).

    kappa2 and the currents of every row's own steady state (rho0 at zero
    bias, the state at (T_left, T_right) on a biased row) come from one
    `kappa2_sweep` call: over the temperatures of a T sweep, or over the
    stack of the models that were built (or the one model), at the mean
    temperature.  kappa4 comes from `kappa4_lowT`, once per model.  A row
    fails with the exception of its model's build, else with one that every
    row alone would raise (the baths, or invalid arguments of
    `kappa2_sweep`), else with its own first exception, in the order
    kappa2, currents, kappa4.
    """
    t_left, t_right = float(cfg.baths["T_left"]), float(cfg.baths["T_right"])
    sweep_t = cfg.variable == "T"
    per_row = built * len(values) if sweep_t else built
    models = [b for b in built if not isinstance(b, Exception)]
    t_mean = (np.asarray(values, dtype=float) if sweep_t
              else np.array([0.5 * (t_left + t_right)]))
    try:
        # kappa2_sweep reads the temperatures of the baths on biased rows only
        baths = _bose_baths(cfg.baths, t_left, t_right)
        responses = kappa2_sweep(
            models[0] if len(models) == 1 else stack_models(models), baths, t_mean,
            solver=cfg.solver, c=cfg.cluster_factor, lamb_shift=cfg.lamb_shift,
            biased=not (sweep_t or t_left == t_right)) if models else []
    except Exception as exc:  # noqa: BLE001  (reported per row by the caller)
        return [(_failed_row(cfg, v), b if isinstance(b, Exception) else exc)
                for v, b in zip(values, per_row)]
    alpha = float(cfg.baths["alpha"])
    k4 = None           # kappa4_lowT of the last model, over t_mean, or its exception
    out, j = [], 0      # j: the index of the next row's response
    for i, (value, model) in enumerate(zip(values, per_row)):
        try:
            if isinstance(model, Exception):
                raise model
            k2, j = responses[j], j + 1
            if k4 is None or not sweep_t:
                try:
                    k4 = kappa4_lowT(model, alpha, t_mean).tolist()
                except Exception as exc:  # noqa: BLE001  (raised after kappa2, per row)
                    k4 = exc
            if isinstance(k2, Exception):
                raise k2
            if isinstance(k4, Exception):
                raise k4
            kappa4, omega_10 = k4[i if sweep_t else 0], kondo_temperature(model)
            fields = [k2.kappa2, kappa4, k2.kappa2 + kappa4, k2.currents["L"],
                      k2.currents["R"], omega_10, omega_10]
            out.append((_format_row(cfg, value, fields, levels=model.dim), None))
        except Exception as exc:  # noqa: BLE001  (per-row isolation is the point)
            out.append((_failed_row(cfg, value), exc))
    return out


def _dot_row(cfg: SweepConfig, value: float) -> str:
    sweep_t = cfg.variable == "T"
    t_left = value if sweep_t else float(cfg.baths["T_left"])
    t_right = value if sweep_t else float(cfg.baths["T_right"])
    level = value if cfg.variable == "epsilon" else float(cfg.model["epsilon"])
    leads = [dict(id="L", gamma=float(cfg.baths["gamma_left"]),
                  beta=1.0 / t_left, mu=float(cfg.baths["mu_left"])),
             dict(id="R", gamma=float(cfg.baths["gamma_right"]),
                  beta=1.0 / t_right, mu=float(cfg.baths["mu_right"]))]
    res = dot_transport(level, leads)
    fields = [res.kappa, 0.0, res.kappa, res.heat["L"], res.heat["R"], level, level]
    return _format_row(cfg, value, fields, levels=3)


# sweep variable, value, the _NAN_FIELDS numbers, solver, levels; "%.17g" % x
# is the text of format(x, ".17g")
_ROW_FORMAT = "%s," + "%.17g," * (1 + _NAN_FIELDS) + "%s,%d"


def _format_row(cfg: SweepConfig, value: float, fields: list[float],
                levels: int) -> str:
    return _ROW_FORMAT % (cfg.variable, value, *fields, cfg.solver, levels)


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
    """Run the sweep, write the CSV in one call, and report per-row failures.

    The CSV path is checked for writing before any row is computed.  The
    grid is cut into chunks as the module docstring sets out: `workers` is
    the most processes to use, this one included; this process computes the
    first chunk, and one child process per remaining chunk the rest.  A
    Rabi sweep that starts a child first imports scipy.linalg, which its
    models' eigensolver loads at the first build, so that each child
    inherits the module instead of importing it again.
    """
    check_writable(cfg.csv_path)
    grid = [float(v) for v in cfg.grid()]
    stacked = cfg.variable == "T" or cfg.model_type == "dot"
    most = -(-len(grid) // _ROWS_PER_STACK) if stacked else len(grid)
    size = -(-len(grid) // min(worker_count(workers), _usable_cpus(), most))
    chunks = [(cfg, grid[i:i + size]) for i in range(0, len(grid), size)]
    if cfg.model_type == "rabi" and len(chunks) > 1:
        import scipy.linalg  # noqa: F401  (before the fork, for the children)
    parts = _run_chunks(chunks)
    results = [r for part in parts for r in part]      # chunks are in index order
    failures = [(i, err) for i, (_, err) in enumerate(results) if err]
    with open(cfg.csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join([CSV_HEADER, *(row for row, _ in results), ""]))
    return SweepResult(csv_path=cfg.csv_path, rows=len(results), failures=failures)
