"""Sweep configuration: a small typed INI dialect.

Grammar (configparser syntax, all keys required unless noted):

    [model]
    type = rabi | tls | dot
    epsilon, delta, g, omega_r          (rabi; tls uses epsilon/delta;
    fock_cutoff, retained_levels         dot uses epsilon as level energy
                                         and gamma_left/gamma_right)
    [baths]
    statistics = bose | fermi
    alpha, omega_c                      (bose)
    gamma_left, gamma_right, mu_left, mu_right   (fermi; gammas >= 0,
                                         not both 0)
    T_left, T_right

    [solver]                            (optional; rabi and tls only)
    secular = full | partial            (optional, default full)
    cluster_factor = <float >= 0>       (optional, default 10)
    lamb_shift = true | false           (optional, default true)

    [sweep]
    variable = T | epsilon | delta | g  (g: rabi only; delta: rabi and tls)
    scale = linear | log
    start, stop = <float>               (start > 0 and stop > 0 for log
                                         and for T; >= 0 for g)
    points = <int >= 1>

    [output]
    csv = <path>
    svg = <path>                        (optional)

Values are plain floats/ints/booleans; no schema inference is performed.
A section or key that the model type and statistics do not read is an error:
a dot config takes no [solver] section, since its closed form is the
full-secular rate equation, and its rows name the solver `full`.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass

import numpy as np

from .linalg import ValidationError
from .rabi import RabiParams

__all__ = ["SweepConfig", "load_config", "parse_config_text"]

SWEEP_VARIABLES = ("T", "epsilon", "delta", "g")
# the (lower-case) keys each section reads: [model] by type, [baths] by statistics
_KEYS = {"model": {"rabi": "type epsilon delta g omega_r fock_cutoff retained_levels",
                   "tls": "type epsilon delta", "dot": "type epsilon"},
         "baths": {"bose": "statistics t_left t_right alpha omega_c",
                   "fermi": "statistics t_left t_right gamma_left gamma_right mu_left mu_right"},
         "solver": "secular cluster_factor lamb_shift",
         "sweep": "variable scale start stop points", "output": "csv svg"}


@dataclass(frozen=True)
class SweepConfig:
    model_type: str
    model: dict[str, float]
    baths: dict[str, float | str]
    solver: str
    cluster_factor: float
    lamb_shift: bool
    variable: str
    scale: str
    start: float
    stop: float
    points: int
    csv_path: str
    svg_path: str | None = None

    def grid(self) -> np.ndarray:
        if self.scale == "log":
            return np.geomspace(self.start, self.stop, self.points)
        return np.linspace(self.start, self.stop, self.points)


def _getfloat(section, key, default=None):
    if key not in section:
        if default is None:
            raise ValidationError(f"missing key {key!r} in [{section.name}]")
        return default
    try:
        val = float(section[key])
    except ValueError:
        raise ValidationError(f"key {key!r} is not a number: {section[key]!r}") from None
    if not np.isfinite(val):
        raise ValidationError(f"key {key!r} must be finite: {section[key]!r}")
    return val


def _getint(section, key, default=None):
    val = _getfloat(section, key, default)
    if val != int(val):
        raise ValidationError(f"key {key!r} must be an integer")
    return int(val)


def _getbool(section, key, default):
    if key not in section:
        return default
    raw = section[key].strip().lower()
    if raw in ("true", "yes", "1", "on"):
        return True
    if raw in ("false", "no", "0", "off"):
        return False
    raise ValidationError(f"key {key!r} is not a boolean: {raw!r}")


def parse_config_text(text: str) -> SweepConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config syntax error: {exc}") from exc
    for sec in ("model", "baths", "sweep", "output"):
        if sec not in cp:
            raise ValidationError(f"missing section [{sec}]")

    msec = cp["model"]
    mtype = msec.get("type", "").strip().lower()
    if mtype not in ("rabi", "tls", "dot"):
        raise ValidationError(f"unknown model type {mtype!r}")
    bsec = cp["baths"]
    statistics = bsec.get("statistics", "bose").strip().lower()
    if statistics not in ("bose", "fermi"):
        raise ValidationError(f"unknown statistics {statistics!r}")
    if mtype == "dot" and statistics != "fermi":
        raise ValidationError("dot model needs fermionic leads")
    if mtype in ("rabi", "tls") and statistics != "bose":
        raise ValidationError(f"{mtype} model needs bosonic baths")
    read = {**_KEYS, "model": _KEYS["model"][mtype], "baths": _KEYS["baths"][statistics]}
    if mtype == "dot" and "solver" in cp:
        raise ValidationError("a dot config takes no [solver] section: its closed form "
                              "is the full-secular rate equation")
    for name in cp.sections():
        if name not in read:
            raise ValidationError(f"unknown section [{name}]")
        for key in (k for k in cp[name] if k not in read[name].split()):
            where = "DEFAULT" if key in cp.defaults() else name
            raise ValidationError(f"unknown key {key!r} in [{where}] of a {mtype} config "
                                  f"with {statistics} baths")

    model: dict[str, float] = {}
    if mtype in ("rabi", "tls"):
        model["epsilon"] = _getfloat(msec, "epsilon")
        model["delta"] = _getfloat(msec, "delta")
    if mtype == "rabi":
        model["g"] = _getfloat(msec, "g")
        model["omega_r"] = _getfloat(msec, "omega_r", 1.0)
        model["fock_cutoff"] = _getint(msec, "fock_cutoff", 40)
        model["retained_levels"] = _getint(msec, "retained_levels", 5)
        RabiParams(**model)        # the model section's own checks, at load time
    if mtype == "dot":
        model["epsilon"] = _getfloat(msec, "epsilon")

    baths: dict[str, float | str] = {"statistics": statistics}
    baths["T_left"] = _getfloat(bsec, "T_left")
    baths["T_right"] = _getfloat(bsec, "T_right")
    if baths["T_left"] <= 0 or baths["T_right"] <= 0:
        raise ValidationError("bath temperatures must be positive")
    if statistics == "bose":
        baths["alpha"] = _getfloat(bsec, "alpha")
        baths["omega_c"] = _getfloat(bsec, "omega_c")
    else:
        for key in ("gamma_left", "gamma_right"):
            baths[key] = _getfloat(bsec, key)
            if baths[key] < 0:
                raise ValidationError(f"key {key!r} must be >= 0: {baths[key]!r}")
        if baths["gamma_left"] + baths["gamma_right"] == 0:
            raise ValidationError("the dot is coupled to no lead: gamma_left + "
                                  "gamma_right must be positive")
        baths["mu_left"] = _getfloat(bsec, "mu_left", 0.0)
        baths["mu_right"] = _getfloat(bsec, "mu_right", 0.0)

    solver = "full"
    cluster_factor = 10.0
    lamb_shift = True
    if "solver" in cp:
        ssec = cp["solver"]
        solver = ssec.get("secular", "full").strip().lower()
        if solver not in ("full", "partial"):
            raise ValidationError(f"unknown secular mode {solver!r}")
        cluster_factor = _getfloat(ssec, "cluster_factor", 10.0)
        if cluster_factor < 0:
            raise ValidationError(f"key 'cluster_factor' must be >= 0: {cluster_factor!r}")
        lamb_shift = _getbool(ssec, "lamb_shift", True)

    wsec = cp["sweep"]
    variable = wsec.get("variable", "").strip()
    if variable not in SWEEP_VARIABLES:
        raise ValidationError(
            f"sweep variable must be one of {SWEEP_VARIABLES}, got {variable!r}")
    if variable != "T" and variable not in model:
        raise ValidationError(f"sweep variable {variable!r} is not a parameter of the "
                              f"{mtype} model")
    scale = wsec.get("scale", "linear").strip().lower()
    if scale not in ("linear", "log"):
        raise ValidationError(f"unknown scale {scale!r}")
    start = _getfloat(wsec, "start")
    stop = _getfloat(wsec, "stop")
    points = _getint(wsec, "points")
    if points < 1:
        raise ValidationError("points must be >= 1 (zero-point grids are degenerate)")
    if scale == "log" and (start <= 0 or stop <= 0):
        raise ValidationError("log-spaced grids need positive endpoints")
    if variable == "T" and (start <= 0 or stop <= 0):
        raise ValidationError(f"a T sweep needs positive temperatures: 'start' = {start!r}, "
                              f"'stop' = {stop!r}")
    if variable == "g" and min(start, stop) < 0:
        raise ValidationError(f"a g sweep needs g >= 0: 'start' = {start!r}, "
                              f"'stop' = {stop!r}")

    osec = cp["output"]
    if "csv" not in osec:
        raise ValidationError("missing key 'csv' in [output]")
    csv_path = osec["csv"].strip()
    svg_path = osec["svg"].strip() if "svg" in osec else None

    return SweepConfig(model_type=mtype, model=model, baths=baths, solver=solver,
                       cluster_factor=cluster_factor, lamb_shift=lamb_shift,
                       variable=variable, scale=scale, start=start, stop=stop,
                       points=points, csv_path=csv_path, svg_path=svg_path)


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
