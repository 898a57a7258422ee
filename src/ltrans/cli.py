"""Command-line interface.

Subcommands:
    sweep <config>            run a parameter sweep, write CSV (and SVG)
    spectrum <config>         print eigenfrequencies, coupling elements and
                              the analytic-approximation comparison
    diagrams count --order N  diagram counts (total, irreducible)
    validate                  run the invariant self-check suite
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .config import load_config
from .diagrams import irreducible_count
from .linalg import ValidationError
from .plotting import emit_plot
from .rabi import (RabiParams, build_rabi_junction, grwa_spectrum,
                   kondo_temperature, rwa_spectrum, vvpt_spectrum)
from .sweep import _ROWS_PER_STACK, check_writable, run_sweep
from .validate import run_validation


def _cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    for path in (cfg.csv_path, cfg.svg_path):
        if path:
            check_writable(path)       # before any row is computed
    result = run_sweep(cfg, workers=args.workers)
    print(f"wrote {result.csv_path} ({result.rows} rows)")
    for idx, err in result.failures:
        print(f"row {idx} failed: {err}", file=sys.stderr)
    if cfg.svg_path:
        try:
            emit_plot(cfg.csv_path, cfg.svg_path, logx=cfg.scale == "log",
                      x_label=f"{cfg.variable} (omega_ref units)")
        except ValidationError as exc:
            # the rows are written; only the plot of them failed
            print(f"error: {exc}; {cfg.svg_path} not written", file=sys.stderr)
            return 1
        print(f"wrote {cfg.svg_path}")
    return 0 if result.ok else 1


def _cmd_spectrum(args) -> int:
    cfg = load_config(args.config)
    if cfg.model_type != "rabi":
        print("spectrum requires a rabi model config", file=sys.stderr)
        return 2
    params = RabiParams(**cfg.model)
    model = build_rabi_junction(params)
    print(f"# numeric spectrum, lowest {model.dim} levels (units omega_r)")
    for i, w in enumerate(model.omega):
        print(f"level {i}: {w:+.12f}")
    print(f"omega_10 = {kondo_temperature(model):.12f} (= T_K)")
    ql, qr = model.q("L"), model.q("R")
    for k in range(1, model.dim):
        print(f"Q_L[0,{k}] = {ql[0, k]:+.6e}   Q_R[0,{k}] = {qr[0, k]:+.6e}")
    n_doublets = (model.dim - 1) // 2 + 1
    approx = [rwa_spectrum(params, n_doublets), vvpt_spectrum(params, n_doublets),
              grwa_spectrum(params, n_doublets)]
    print("# approximation comparison (sorted levels, error vs numeric)")
    for ap in approx:
        lv = ap.sorted()
        k = min(model.dim, len(lv))
        err = np.max(np.abs(lv[:k] - model.omega[:k]))
        print(f"{ap.method:5s}: max |d omega| over {k} levels = {err:.3e}")
    return 0


def _cmd_diagrams(args) -> int:
    if args.order % 2 != 0 or args.order < 2:
        print("--order must be a positive even integer", file=sys.stderr)
        return 2
    total, irr = irreducible_count(args.order // 2)
    print(f"order {args.order}: total {total}, irreducible {irr}")
    return 0


def _cmd_validate(_args) -> int:
    failures = run_validation()
    return 0 if failures == 0 else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="ltrans",
        description="steady-state quantum transport for multi-level junctions")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a config file")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--workers", type=int, default=None,
                         help="most processes, this one included (default: "
                              "LT_THREADS, else 1), and no more than the CPUs "
                              "this process may use; a T sweep or a dot sweep of "
                              f"n rows uses at most ceil(n / {_ROWS_PER_STACK}) "
                              "processes")
    p_sweep.set_defaults(fn=_cmd_sweep)

    p_spec = sub.add_parser("spectrum", help="dump spectrum and coupling elements")
    p_spec.add_argument("config")
    p_spec.set_defaults(fn=_cmd_spectrum)

    p_diag = sub.add_parser("diagrams", help="diagram bookkeeping")
    p_diag.add_argument("action", choices=["count"])
    p_diag.add_argument("--order", type=int, required=True)
    p_diag.set_defaults(fn=_cmd_diagrams)

    p_val = sub.add_parser("validate", help="run the invariant self-checks")
    p_val.set_defaults(fn=_cmd_validate)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
