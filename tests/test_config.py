import pytest

from ltrans.config import parse_config_text
from ltrans.linalg import ValidationError

BASE = {
    "g": "0.2",
    "T_left": "0.1",
    "fock_cutoff": "30",
    "start": "0.05",
    "stop": "1",
}

TEMPLATE = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = {g}
fock_cutoff = {fock_cutoff}
retained_levels = 3
[baths]
T_left = {T_left}
T_right = 0.1
alpha = 1e-3
omega_c = 5
[sweep]
variable = T
start = {start}
stop = {stop}
points = 3
[output]
csv = out.csv
"""


def config_text(**overrides):
    return TEMPLATE.format(**{**BASE, **overrides})


def test_valid_config_parses():
    cfg = parse_config_text(config_text())
    assert cfg.model["g"] == 0.2 and cfg.model["fock_cutoff"] == 30
    assert cfg.baths["T_left"] == 0.1


@pytest.mark.parametrize("key,raw", [("g", "nan"), ("T_left", "inf"),
                                     ("fock_cutoff", "nan")])
def test_non_finite_value_is_rejected_by_name(key, raw):
    with pytest.raises(ValidationError, match=repr(key)):
        parse_config_text(config_text(**{key: raw}))


@pytest.mark.parametrize("start,stop", [("0.0", "1"), ("-0.5", "1"), ("0.05", "0")])
def test_linear_t_sweep_reaching_zero_temperature_is_rejected(start, stop):
    with pytest.raises(ValidationError, match="'start'.*'stop'"):
        parse_config_text(config_text(start=start, stop=stop))
    # other sweep variables may cross zero
    cfg = parse_config_text(config_text(start=start, stop=stop)
                            .replace("variable = T", "variable = g"))
    assert cfg.grid()[0] == float(start)


def test_negative_cluster_factor_is_rejected():
    with pytest.raises(ValidationError, match="'cluster_factor'"):
        parse_config_text(config_text() + "[solver]\ncluster_factor = -3\n")
    cfg = parse_config_text(config_text() + "[solver]\ncluster_factor = 0\n")
    assert cfg.cluster_factor == 0.0
