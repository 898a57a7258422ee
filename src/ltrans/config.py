"""Sweep configuration: a small typed INI dialect.

Grammar (configparser syntax; one key per line, required unless noted):

    [model]
    type = rabi | tls | dot
    epsilon = <number>                  (rabi, tls; the level energy of a dot)
    delta = <number>                    (rabi, tls)
    g = <number >= 0>                   (rabi)
    omega_r = <number > 0>              (rabi; optional)
    fock_cutoff = <integer>             (rabi; optional; > retained_levels + 10)
    retained_levels = <integer >= 2>    (rabi; optional)
    [baths]
    statistics = bose | fermi           (optional; bose for rabi and tls, fermi for dot)
    T_left = <number > 0>
    T_right = <number > 0>
    alpha = <number > 0>                (bose)
    omega_c = <number > 0>              (bose)
    gamma_left = <number >= 0>          (fermi; gamma_left + gamma_right > 0)
    gamma_right = <number >= 0>         (fermi)
    mu_left = <number>                  (fermi; optional, default 0)
    mu_right = <number>                 (fermi; optional, default 0)

    [solver]                            (optional; rabi and tls only)
    secular = full | partial            (optional, default full)
    cluster_factor = <number >= 0>      (optional)
    lamb_shift = <boolean>              (optional, default true)

    [sweep]
    variable = T | epsilon | delta | g  (g: rabi only; delta: rabi and tls)
    scale = linear | log                (optional, default linear)
    start = <number>                    (> 0 for log and for T; >= 0 for g)
    stop = <number>                     (as start)
    points = <integer >= 1>

    [output]
    csv = <path>
    svg = <path>                        (optional)

A number is a finite float, an integer a whole number, a boolean one of
true/yes/on/1 or false/no/off/0, and a word matches in any case.  The rabi
defaults are those of `RabiParams`, and cluster_factor's is
`steady.DEFAULT_CLUSTER_FACTOR`.  A section or key that the model type and
statistics do not read is an error: a dot config takes no [solver] section,
since its closed form is the full-secular rate equation, and its rows name
the solver `full`.
"""

from __future__ import annotations

import configparser
from collections import namedtuple
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .linalg import ValidationError
from .model import SpectralDensity
from .rabi import RabiParams
from .steady import DEFAULT_CLUSTER_FACTOR

__all__ = ["SweepConfig", "load_config", "parse_config_text"]

SWEEP_VARIABLES = ("T", "epsilon", "delta", "g")

# Each key is (kind, default): kind is float (a number), int, bool, str (a
# path) or _Words (one of `words`; `noun` names the key in errors), and the
# default is MISSING where the key is required.
_Words = namedtuple("_Words", "noun words")
_NUMBER = (float, MISSING)
# [model] by type: the statistics its baths need, and its keys besides `type`
_MODELS = {"rabi": ("bose", {f.name: ({"float": float, "int": int}[f.type], f.default)
                             for f in fields(RabiParams)}),
           "tls": ("bose", {"epsilon": _NUMBER, "delta": _NUMBER}),
           "dot": ("fermi", {"epsilon": _NUMBER})}
# [baths] by statistics: its keys besides `statistics` and the temperatures
_BATHS = {"bose": {"alpha": _NUMBER, "omega_c": _NUMBER},
          "fermi": {"gamma_left": _NUMBER, "gamma_right": _NUMBER,
                    "mu_left": (float, 0.0), "mu_right": (float, 0.0)}}
_SECTIONS = {
    "model": {"type": (_Words("model type", tuple(_MODELS)), MISSING)},
    # statistics defaults (None) to the one the model type needs
    "baths": {"statistics": (_Words("statistics", tuple(_BATHS)), None),
              "T_left": _NUMBER, "T_right": _NUMBER},
    "solver": {"secular": (_Words("secular mode", ("full", "partial")), "full"),
               "cluster_factor": (float, DEFAULT_CLUSTER_FACTOR), "lamb_shift": (bool, True)},
    "sweep": {"variable": (_Words("sweep variable", SWEEP_VARIABLES), MISSING),
              "scale": (_Words("scale", ("linear", "log")), "linear"),
              "start": _NUMBER, "stop": _NUMBER, "points": (int, MISSING)},
    "output": {"csv": (str, MISSING), "svg": (str, None)},
}
_NEEDS = {"bose": "bosonic baths", "fermi": "fermionic leads"}


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


def _value(section, key: str, kind, default):
    """`key` of a configparser section ({} for an absent one) read as `kind`."""
    if key not in section:
        if default is MISSING:
            raise ValidationError(f"missing key {key!r} in [{section.name}]")
        return default
    raw = section[key].strip()
    if isinstance(kind, _Words):
        word = {w.lower(): w for w in kind.words}.get(raw.lower())
        if word is None:
            raise ValidationError(f"unknown {kind.noun} {raw!r}: {kind.noun} must be "
                                  f"one of {kind.words}")
        return word
    if kind is bool:
        if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
            raise ValidationError(f"key {key!r} is not a boolean: {raw.lower()!r}")
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    if kind is str:
        return raw
    try:
        val = float(raw)
    except ValueError:
        raise ValidationError(f"key {key!r} is not a number: {raw!r}") from None
    if not np.isfinite(val):
        raise ValidationError(f"key {key!r} must be finite: {raw!r}")
    if kind is int and val != int(val):
        raise ValidationError(f"key {key!r} must be an integer")
    return kind(val)


def parse_config_text(text: str) -> SweepConfig:
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"config syntax error: {exc}") from exc
    for sec in ("model", "baths", "sweep", "output"):
        if sec not in cp:
            raise ValidationError(f"missing section [{sec}]")

    mtype = _value(cp["model"], "type", *_SECTIONS["model"]["type"])
    need, model_keys = _MODELS[mtype]
    statistics = _value(cp["baths"], "statistics", *_SECTIONS["baths"]["statistics"]) or need
    if statistics != need:
        raise ValidationError(f"{mtype} model needs {_NEEDS[need]}")
    if mtype == "dot" and "solver" in cp:
        raise ValidationError("a dot config takes no [solver] section: its closed form "
                              "is the full-secular rate equation")
    table = {**_SECTIONS, "model": {**_SECTIONS["model"], **model_keys},
             "baths": {**_SECTIONS["baths"], **_BATHS[statistics]}}
    for name in cp.sections():
        if name not in table:
            raise ValidationError(f"unknown section [{name}]")
        for key in (k for k in cp[name] if k not in {t.lower() for t in table[name]}):
            where = "DEFAULT" if key in cp.defaults() else name
            raise ValidationError(f"unknown key {key!r} in [{where}] of a {mtype} config "
                                  f"with {statistics} baths")
    model, baths, solver, sweep, output = (
        {key: _value(cp[name] if name in cp else {}, key, *spec) for key, spec in keys.items()}
        for name, keys in table.items())
    del model["type"]
    baths["statistics"] = statistics
    # each section's checks, at load time rather than in every row
    if mtype == "rabi":
        RabiParams(**model)
    if baths["T_left"] <= 0 or baths["T_right"] <= 0:
        raise ValidationError("bath temperatures must be positive")
    if statistics == "bose":
        SpectralDensity(baths["alpha"], baths["omega_c"])
        if baths["alpha"] == 0:
            raise ValidationError("the junction is coupled to no bath: alpha must be "
                                  "positive")
    for key, val in {**baths, **solver}.items():
        if key in ("gamma_left", "gamma_right", "cluster_factor") and val < 0:
            raise ValidationError(f"key {key!r} must be >= 0: {val!r}")
    if statistics == "fermi" and baths["gamma_left"] + baths["gamma_right"] == 0:
        raise ValidationError("the dot is coupled to no lead: gamma_left + "
                              "gamma_right must be positive")

    variable, start, stop = sweep["variable"], sweep["start"], sweep["stop"]
    if variable != "T" and variable not in model:
        raise ValidationError(f"sweep variable {variable!r} is not a parameter of the "
                              f"{mtype} model")
    if sweep["points"] < 1:
        raise ValidationError("points must be >= 1 (zero-point grids are degenerate)")
    if sweep["scale"] == "log" and (start <= 0 or stop <= 0):
        raise ValidationError("log-spaced grids need positive endpoints")
    if variable == "T" and (start <= 0 or stop <= 0):
        raise ValidationError(f"a T sweep needs positive temperatures: 'start' = {start!r}, "
                              f"'stop' = {stop!r}")
    if variable == "g" and min(start, stop) < 0:
        raise ValidationError(f"a g sweep needs g >= 0: 'start' = {start!r}, "
                              f"'stop' = {stop!r}")
    return SweepConfig(model_type=mtype, model=model, baths=baths, solver=solver["secular"],
                       cluster_factor=solver["cluster_factor"], lamb_shift=solver["lamb_shift"],
                       csv_path=output["csv"], svg_path=output["svg"], **sweep)


def load_config(path: str) -> SweepConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())
