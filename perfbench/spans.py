"""Span tracing of one sweep row, by wrapping the public functions of ltrans.

`Tracer.install` replaces each function in LAYERS with a wrapper in every
ltrans module that binds the name, so the call sites inside the program
reach the wrapper (for example `ltrans.rabi.hermitian_eigensystem` and
`ltrans.sweep.kappa2`).  Each span records its name, start, end, parent
span and row id; spans stay in memory until `write` is called.

`redfield._w_matrix` binds `w_rate` as a default argument, so a wrapper on
`w_rate` would miss the kernel path.  The baths layer is timed at
`matsubara_sums`, which runs exactly once per `w_rate` call.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# layer (ltrans module) -> public functions a sweep row passes through
LAYERS = {
    "config": ("load_config",),
    "rabi": ("build_rabi_junction",),
    "linalg": ("hermitian_eigensystem",),
    "baths": ("matsubara_sums",),
    "redfield": ("gamma_rates", "build_k2_boson", "k2_tensor_from_w"),
    "steady": ("full_secular_steady", "cluster_bohr_frequencies",
               "partial_secular_steady"),
    "currents": ("kappa2", "partial_secular_state", "heat_current_2nd_general",
                 "heat_current_2nd_secular", "kappa4_lowT"),
    "sweep": ("compute_row",),
}

# what a span remembers besides its timing, per function
PROBES = {
    "linalg.hermitian_eigensystem": lambda args, result: args[0].shape[0],
    "rabi.build_rabi_junction": lambda args, result: args[0],
    "baths.matsubara_sums": lambda args, result: tuple(args[:3]),
    "steady.partial_secular_steady": (
        lambda args, result: None if result is None else len(result.retained_pairs)),
}

# per-layer metric -> unit; "ms" is self time per row unless named otherwise
UNITS = {
    "linalg.hermitian_eigensystem.ms": "ms",
    "linalg.hermitian_eigensystem.calls": "count",
    "linalg.hermitian_eigensystem.dim": "count",
    "rabi.build_rabi_junction.ms": "ms",
    "rabi.build_rabi_junction.calls": "count",
    "rabi.build_rabi_junction.distinct_frac": "frac",
    "baths.matsubara_sums.ms": "ms",
    "baths.matsubara_sums.calls": "count",
    "baths.matsubara_sums.errors": "count",
    "baths.matsubara_sums.distinct_frac": "frac",
    "redfield.gamma_rates.ms": "ms",
    "redfield.build_k2_boson.ms": "ms",
    "redfield.build_k2_boson.calls": "count",
    "redfield.k2_tensor_from_w.ms": "ms",
    "steady.full_secular_steady.ms": "ms",
    "steady.cluster_bohr_frequencies.ms": "ms",
    "steady.partial_secular_steady.ms": "ms",
    "steady.partial_secular_steady.unknowns": "count",
    "currents.kappa2.ms": "ms",
    "currents.partial_secular_state.ms": "ms",
    "currents.heat_current_2nd_general.ms": "ms",
    "currents.heat_current_2nd_secular.ms": "ms",
    "currents.kappa4_lowT.ms": "ms",
    "sweep.compute_row.ms": "ms",
    "sweep.compute_row.self_ms": "ms",
    "sweep.run_sweep.overhead_frac": "frac",
    "trace.overhead_frac": "frac",
    "row_fail_frac": "frac",
}


class Tracer:
    """In-memory spans: [name, start, end, parent index, row id, error, probe]."""

    def __init__(self):
        self.spans: list[list] = []
        self.row = -1
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def install(self) -> None:
        modules = {m: importlib.import_module(f"ltrans.{m}") for m in LAYERS}
        for layer, names in LAYERS.items():
            for fname in names:
                orig = getattr(modules[layer], fname)
                wrapper = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules.values():
                    if getattr(mod, fname, None) is orig:
                        self._patched.append((mod, fname, orig))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, orig in reversed(self._patched):
            setattr(mod, fname, orig)
        self._patched.clear()

    def _wrap(self, name, fn):
        probe = PROBES.get(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.row, False, None]
            idx = len(spans)
            spans.append(span)
            stack.append(idx)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if probe is not None:
                    span[6] = probe(args, result)

        traced.__wrapped__ = fn
        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, row, error, probe in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "row": row, "error": error,
                                     "probe": _jsonable(probe)}) + "\n")

    def layer_metrics(self, rows: int, first_pass_rows: int) -> dict[str, float]:
        """Per-row averages over `rows` traced compute_row calls.

        distinct_frac counts distinct arguments among the calls of the first
        pass over the grid, whose row ids are below `first_pass_rows`.
        """
        self_s = defaultdict(float)
        total_s = defaultdict(float)
        calls = defaultdict(int)
        errors = defaultdict(int)
        probes = defaultdict(list)
        first_pass = defaultdict(list)
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, row, error, probe in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, parent, row, error, probe) in enumerate(self.spans):
            total_s[name] += end - start
            self_s[name] += end - start - child_s[i]
            calls[name] += 1
            errors[name] += error
            if probe is not None:
                probes[name].append(probe)
                if row < first_pass_rows:
                    first_pass[name].append(probe)

        def per_row(x):
            return x / rows

        def distinct_frac(name):
            keys = first_pass[name]
            return len(set(keys)) / len(keys) if keys else 0.0

        def mean(name):
            vals = probes[name]
            return sum(vals) / len(vals) if vals else 0.0

        out = {}
        for metric in UNITS:
            fn, _, stat = metric.rpartition(".")
            if stat == "ms":
                out[metric] = 1e3 * per_row(self_s[fn])
            elif stat == "calls":
                out[metric] = per_row(calls[fn])
            elif stat == "errors":
                out[metric] = per_row(errors[fn])
        out["linalg.hermitian_eigensystem.dim"] = mean("linalg.hermitian_eigensystem")
        out["rabi.build_rabi_junction.distinct_frac"] = distinct_frac(
            "rabi.build_rabi_junction")
        out["baths.matsubara_sums.distinct_frac"] = distinct_frac("baths.matsubara_sums")
        out["steady.partial_secular_steady.unknowns"] = mean(
            "steady.partial_secular_steady")
        out["sweep.compute_row.ms"] = 1e3 * per_row(total_s["sweep.compute_row"])
        out["sweep.compute_row.self_ms"] = 1e3 * per_row(self_s["sweep.compute_row"])
        return out


def _jsonable(probe):
    if probe is None or isinstance(probe, (int, float)):
        return probe
    if isinstance(probe, tuple):
        return list(probe)
    return repr(probe)
