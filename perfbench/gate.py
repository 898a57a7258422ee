"""Correctness gate applied to every benchmark run.

Four checks, each returning a list of error strings (empty = pass):

* `check_reference`: nominal-seed rows against reference/<workload>.csv,
  per column, relative to the column's largest magnitude in the sweep.
* `check_invariants`: every row of every seed is either a NaN failure row
  or finite, with kappa_total = kappa2 + kappa4, I_L = -I_R under a thermal
  bias, and, on the two-level junction, kappa4 equal to the closed form.
* `check_parity`: the CSV written by `run_sweep` holds, at each index the
  benchmark also computed serially, exactly the serial `compute_row` text.
* `is_failure`: NaN rows are failures; callers count them, never drop them.
"""

from __future__ import annotations

import math
import warnings

from workloads import ALPHA, OMEGA_C

COLUMNS = ("sweep_var", "value", "kappa2", "kappa4", "kappa_total", "I_L", "I_R",
           "omega_10", "T_K", "solver", "levels")
NUMERIC = COLUMNS[1:9]
FIELDS = COLUMNS[2:9]          # the values compute_row computes

# Reference rows agree to RTOL of the column's largest magnitude.  Heat
# currents below CURRENT_FLOOR (units omega_ref^2) are roundoff: the
# zero-bias I_L and I_R of a T sweep sit near 1e-20, while the smallest
# biased current of these workloads is about 1e-7.
RTOL = 1e-6
CURRENT_FLOOR = 1e-12
SUM_RTOL = 1e-12               # kappa_total against kappa2 + kappa4
CONSERVATION_RTOL = 1e-9       # |I_L + I_R| against max(|I_L|, |I_R|)
CLOSED_FORM_RTOL = 1e-9        # TLS kappa4 against tls_closed_forms


def cells(row: str) -> dict:
    parts = row.split(",")
    if len(parts) != len(COLUMNS):
        raise ValueError(f"row has {len(parts)} cells, expected {len(COLUMNS)}: {row!r}")
    out = dict(zip(COLUMNS, parts))
    for key in NUMERIC:
        out[key] = float(out[key])
    return out


def is_failure(row: str) -> bool:
    """A row that run_sweep wrote for a grid point whose compute_row raised."""
    c = cells(row)
    return c["levels"] == "0" and all(math.isnan(c[k]) for k in FIELDS)


def check_invariants(workload, rows: list[str]) -> list[str]:
    errors = []
    biased = (workload.variable != "T"
              and workload.baths["T_left"] != workload.baths["T_right"])
    for row in rows:
        if is_failure(row):
            continue
        c = cells(row)
        bad = [k for k in NUMERIC if not math.isfinite(c[k])]
        if bad:
            errors.append(f"non-finite {bad} in a successful row: {row}")
            continue
        total = c["kappa2"] + c["kappa4"]
        if abs(c["kappa_total"] - total) > SUM_RTOL * max(abs(total), 1e-300):
            errors.append(f"kappa_total != kappa2 + kappa4: {row}")
        if biased:
            scale = max(abs(c["I_L"]), abs(c["I_R"]))
            if abs(c["I_L"] + c["I_R"]) > CONSERVATION_RTOL * scale:
                errors.append(f"I_L != -I_R under thermal bias: {row}")
        if workload.model["type"] == "tls":
            errors += _check_tls_kappa4(workload, c, row)
    return errors


def _check_tls_kappa4(workload, c: dict, row: str) -> list[str]:
    from ltrans.currents import tls_closed_forms

    eps, delta = workload.model["epsilon"], workload.model["delta"]
    omega_q = math.hypot(eps, delta)
    q = delta / omega_q          # |<0|sigma_z|1>| in the eigenbasis
    t = c["value"] if workload.variable == "T" else 0.5 * (
        workload.baths["T_left"] + workload.baths["T_right"])
    with warnings.catch_warnings():
        # only kappa4 is used; the kappa2 closed form overflows sinh at low T
        warnings.simplefilter("ignore", RuntimeWarning)
        _, _, k4 = tls_closed_forms(omega_q, q, q, ALPHA, t, t, omega_c=OMEGA_C)
    if abs(c["kappa4"] - k4) > CLOSED_FORM_RTOL * abs(k4):
        return [f"TLS kappa4 {c['kappa4']!r} != closed form {k4!r}: {row}"]
    return []


def read_reference(path) -> dict[str, str]:
    """Reference rows keyed by their sweep-value cell."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    return {line.split(",")[1]: line for line in lines[1:]}


def check_reference(rows: list[str], reference: dict[str, str]) -> list[str]:
    """Compare nominal-seed rows with the stored reference.

    A row that fails now but succeeded in the reference is a failure, which
    the caller counts; a row that succeeds now but failed in the reference
    is checked by the invariants only.  Neither is a mismatch here.
    """
    ok_ref = [cells(r) for r in reference.values() if not is_failure(r)]
    scale = {k: max((abs(c[k]) for c in ok_ref), default=0.0) for k in NUMERIC}
    for k in ("I_L", "I_R"):
        scale[k] = max(scale[k], CURRENT_FLOOR)
    errors = []
    for row in rows:
        key = row.split(",")[1]
        if key not in reference:
            errors.append(f"no reference row for sweep value {key}")
            continue
        ref = reference[key]
        if is_failure(row) or is_failure(ref):
            continue
        c, r = cells(row), cells(ref)
        for k in COLUMNS:
            if k in NUMERIC:
                if not abs(c[k] - r[k]) <= RTOL * scale[k]:
                    errors.append(f"{k} = {c[k]!r} differs from reference {r[k]!r} "
                                  f"by more than {RTOL:g} x {scale[k]:.3e} at {k} "
                                  f"row {key}")
            elif c[k] != r[k]:
                errors.append(f"{k} = {c[k]!r} differs from reference {r[k]!r} "
                              f"at row {key}")
    return errors


def check_parity(csv_text: str, header: str, points: int,
                 serial: dict[int, str | None]) -> list[str]:
    """run_sweep's CSV against serial compute_row results.

    serial maps a grid index to the row text compute_row returned, or to
    None when it raised; such a grid point must be a NaN row in the CSV.
    """
    lines = csv_text.split("\n")
    if lines[-1] != "":
        return ["CSV does not end with a newline"]
    lines = lines[:-1]
    if lines[0] != header:
        return [f"CSV header {lines[0]!r} != {header!r}"]
    body = lines[1:]
    if len(body) != points:
        return [f"CSV holds {len(body)} rows for a grid of {points}"]
    errors = []
    for idx, row in serial.items():
        if row is None:
            if not is_failure(body[idx]):
                errors.append(f"row {idx}: compute_row raised but run_sweep wrote "
                              f"{body[idx]!r}")
        elif body[idx] != row:
            errors.append(f"row {idx}: run_sweep wrote {body[idx]!r}, "
                          f"compute_row returned {row!r}")
    return errors
