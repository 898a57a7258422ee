"""The three sweep workloads and the seeded jitter of their parameters.

Each workload is an `ltrans sweep` configuration.  Seed 0 is the nominal
point, whose rows are stored under reference/.  Any other seed scales each
jittered parameter by a factor drawn uniformly from [1 - JITTER, 1 + JITTER].
The jitter never changes the grid size, the solver or the model type.

Jitter that changes what a row costs or whether it fails would turn the
seed into noise, so the seed moves only the bath temperatures:

* The Rabi workloads keep their models and jitter only the temperatures
  (the T endpoints of rabi5_full_T, T_left and T_right of
  rabi21_partial_g).  The Jacobi sweep count of the Rabi model, and with
  it the row cost, changes with delta and g.
* tls_partial_lowT is not jittered: every seed runs the same rows.
  Whether its sixth row (T ~ 2.05e-5) fails is erratic: moving T in steps
  of 0.025% makes about one point in five succeed, so its failing rows
  would become a random count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

DEFAULT_SEED = 0
JITTER = 0.02

# Ohmic-Drude baths shared by every workload.
ALPHA = 1e-3
OMEGA_C = 5.0


@dataclass(frozen=True)
class Workload:
    name: str
    model: dict        # [model] section
    baths: dict        # T_left / T_right (ignored by T sweeps, but required)
    solver: str        # full | partial
    variable: str      # T | g
    scale: str         # log | linear
    start: float
    stop: float
    points: int
    jittered: tuple    # keys of model/baths/start/stop that the seed scales
    reference_rows: int  # nominal rows each run recomputes for the reference check
    serial_points: int   # grid points timed serially, in golden-ratio stride order
    trace_window: int    # grid rows of the untraced and pool comparison when traced


NOMINAL = {
    # One model for the whole T sweep; the rows are two Jacobi
    # diagonalizations (80x80 and 100x100) and no Matsubara sums.
    "rabi5_full_T": Workload(
        name="rabi5_full_T",
        model=dict(type="rabi", epsilon=0.0, delta=0.9, g=0.2, omega_r=1.0,
                   fock_cutoff=40, retained_levels=5),
        baths=dict(T_left=0.1, T_right=0.1),
        solver="full", variable="T", scale="log", start=0.02, stop=1.0, points=25,
        jittered=("start", "stop"), reference_rows=1, serial_points=2,
        trace_window=6),
    # The model changes on every row; 21-level kernels, partial secular,
    # a thermal bias so that I_L = -I_R is nonzero.
    "rabi21_partial_g": Workload(
        name="rabi21_partial_g",
        model=dict(type="rabi", epsilon=0.0, delta=0.9, g=0.2, omega_r=1.0,
                   fock_cutoff=40, retained_levels=21),
        baths=dict(T_left=0.12, T_right=0.08),
        solver="partial", variable="g", scale="linear", start=0.02, stop=0.4,
        points=12,
        jittered=("T_left", "T_right"), reference_rows=1, serial_points=2,
        trace_window=4),
    # 2x2 eigenproblem; the cold rows are dominated by Matsubara sums and
    # the six coldest fail with NumericError in the seed program.
    "tls_partial_lowT": Workload(
        name="tls_partial_lowT",
        model=dict(type="tls", epsilon=0.3, delta=1.0),
        baths=dict(T_left=0.1, T_right=0.1),
        solver="partial", variable="T", scale="log", start=1e-6, stop=2.0,
        points=25,
        jittered=(), reference_rows=25, serial_points=25,
        trace_window=25),
}

NAMES = tuple(NOMINAL)


def workload(name: str, seed: int, points: int | None = None) -> Workload:
    """The workload `name` with its parameters jittered by `seed`.

    `points` shrinks the grid for the smoke test; the benchmark never sets it.
    """
    if name not in NOMINAL:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    w = NOMINAL[name]
    model, baths = dict(w.model), dict(w.baths)
    ends = {"start": w.start, "stop": w.stop}
    if seed != DEFAULT_SEED:
        rng = random.Random(f"{name}:{seed}")
        for key in w.jittered:
            factor = 1.0 + JITTER * rng.uniform(-1.0, 1.0)
            for section in (model, baths, ends):
                if key in section:
                    section[key] = section[key] * factor
    return replace(w, model=model, baths=baths, start=ends["start"],
                   stop=ends["stop"], points=points or w.points)


def config_text(w: Workload, csv_path: str) -> str:
    """The workload as the INI text that `ltrans sweep` reads."""
    model = "\n".join(f"{k} = {v!r}" if not isinstance(v, str) else f"{k} = {v}"
                      for k, v in w.model.items())
    return f"""[model]
{model}

[baths]
statistics = bose
alpha = {ALPHA!r}
omega_c = {OMEGA_C!r}
T_left = {w.baths['T_left']!r}
T_right = {w.baths['T_right']!r}

[solver]
secular = {w.solver}

[sweep]
variable = {w.variable}
scale = {w.scale}
start = {w.start!r}
stop = {w.stop!r}
points = {w.points}

[output]
csv = {csv_path}
"""
