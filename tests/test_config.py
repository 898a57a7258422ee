import importlib.util
import re
import sys
from pathlib import Path

import pytest

from ltrans import config
from ltrans.cli import main
from ltrans.config import parse_config_text
from ltrans.linalg import ValidationError
from ltrans.rabi import RabiParams
from ltrans.steady import DEFAULT_CLUSTER_FACTOR
from ltrans.sweep import compute_row

ROOT = Path(__file__).resolve().parents[1]

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
                            .replace("variable = T", "variable = epsilon"))
    assert cfg.grid()[0] == float(start)


@pytest.mark.parametrize("start,stop", [("-0.2", "0.4"), ("0.4", "-0.2")])
def test_g_sweep_below_zero_coupling_is_rejected(start, stop):
    text = config_text(start=start, stop=stop).replace("variable = T", "variable = g")
    with pytest.raises(ValidationError, match="g sweep.*'start'.*'stop'"):
        parse_config_text(text)
    # the grid may start at zero coupling
    cfg = parse_config_text(config_text(start="0", stop="0.4")
                            .replace("variable = T", "variable = g"))
    assert cfg.grid()[0] == 0.0


@pytest.mark.parametrize("old,new,message", [
    ("retained_levels = 3", "retained_levels = 1", "retained_levels must be at least 2"),
    ("delta = 0.9", "delta = 0.9\nomega_r = -1", "omega_r must be positive"),
    ("g = 0.2", "g = -0.1", "g must be >= 0"),
    ("fock_cutoff = 30", "fock_cutoff = 12", "fock_cutoff must exceed"),
], ids=["retained_levels", "omega_r", "g", "fock_cutoff"])
def test_rabi_model_errors_fail_at_load(old, new, message):
    # each would otherwise fail every row of the sweep, one row at a time
    text = config_text()
    assert old in text
    with pytest.raises(ValidationError, match=message):
        parse_config_text(text.replace(old, new))


def test_negative_cluster_factor_is_rejected():
    with pytest.raises(ValidationError, match="'cluster_factor'"):
        parse_config_text(config_text() + "[solver]\ncluster_factor = -3\n")
    cfg = parse_config_text(config_text() + "[solver]\ncluster_factor = 0\n")
    assert cfg.cluster_factor == 0.0


DOT = """
[model]
type = dot
epsilon = 0.5
[baths]
statistics = fermi
gamma_left = 0.01
gamma_right = 0.01
T_left = 0.1
T_right = 0.1
[sweep]
variable = {variable}
start = 0.1
stop = 1
points = 3
[output]
csv = out.csv
"""


# the rabi config as a tls one, without the keys a tls model does not read
TLS = (config_text().replace("type = rabi", "type = tls").replace("g = 0.2\n", "")
       .replace("fock_cutoff = 30\n", "").replace("retained_levels = 3\n", ""))


@pytest.mark.parametrize("text,variable", [
    (DOT, "delta"), (DOT, "g"), (TLS, "g"),
], ids=["dot-delta", "dot-g", "tls-g"])
def test_sweep_variable_the_model_lacks_is_rejected(text, variable):
    # the row would never read it, and every row would be the same
    text = text.replace("variable = T", "variable = {variable}").format(variable=variable)
    with pytest.raises(ValidationError, match=f"sweep variable {variable!r}"):
        parse_config_text(text)


@pytest.mark.parametrize("variable", ["T", "epsilon"])
def test_dot_sweep_variables_parse(variable):
    assert parse_config_text(DOT.format(variable=variable)).variable == variable


def edit(old, new, text=None):
    """`text` (the rabi config by default) with its one `old` replaced by `new`."""
    text = config_text() if text is None else text
    assert text.count(old) == 1, old
    return text.replace(old, new)


@pytest.mark.parametrize("text,message", [
    ("type = rabi\n", "config syntax error"),
    (edit("[output]\ncsv = out.csv\n", ""), "missing section [output]"),
    (edit("type = rabi", "type = spin"), "unknown model type 'spin'"),
    (edit("delta = 0.9\n", ""), "missing key 'delta' in [model]"),
    (edit("alpha = 1e-3", "alpha = small"), "key 'alpha' is not a number: 'small'"),
    (edit("fock_cutoff = 30", "fock_cutoff = 30.5"), "key 'fock_cutoff' must be an integer"),
    (config_text() + "[solver]\nlamb_shift = maybe\n",
     "key 'lamb_shift' is not a boolean: 'maybe'"),
    (edit("[baths]", "[baths]\nstatistics = boltzmann"), "unknown statistics 'boltzmann'"),
    (edit("statistics = fermi", "statistics = bose", DOT.format(variable="T")),
     "dot model needs fermionic leads"),
    (edit("[baths]", "[baths]\nstatistics = fermi"), "rabi model needs bosonic baths"),
    (edit("[baths]", "[baths]\nstatistics = fermi", edit("type = rabi", "type = tls")),
     "tls model needs bosonic baths"),
    (edit("T_right = 0.1", "T_right = 0"), "bath temperatures must be positive"),
    (config_text() + "[solver]\nsecular = semi\n", "unknown secular mode 'semi'"),
    (edit("variable = T", "variable = omega"), "sweep variable must be one of"),
    (edit("variable = T", "variable = T\nscale = cubic"), "unknown scale 'cubic'"),
    (edit("points = 3", "points = 0"), "points must be >= 1"),
    (edit("variable = T\nstart = 0.05", "variable = epsilon\nscale = log\nstart = -0.5"),
     "log-spaced grids need positive endpoints"),
    (edit("csv = out.csv", "svg = out.svg"), "missing key 'csv' in [output]"),
], ids=["syntax", "missing-section", "model-type", "missing-key", "not-a-number",
        "not-an-integer", "not-a-boolean", "statistics", "dot-needs-fermi",
        "rabi-needs-bose", "tls-needs-bose", "temperature", "secular-mode",
        "sweep-variable", "scale", "points", "log-endpoint", "missing-csv"])
def test_config_error_is_rejected_with_its_message(text, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config_text(text)


def test_a_tls_config_parses():
    cfg = parse_config_text(TLS)
    assert cfg.model == {"epsilon": 0.0, "delta": 0.9}


@pytest.mark.parametrize("text,message", [
    (edit("fock_cutoff = 30", "fock_cuttoff = 12"), "unknown key 'fock_cuttoff' in [model]"),
    (edit("type = tls", "type = tls\ng = 0.3", TLS), "unknown key 'g' in [model]"),
    (edit("type = tls", "type = tls\nomega_r = 1", TLS), "unknown key 'omega_r' in [model]"),
    (edit("type = dot", "type = dot\ndelta = 1", DOT), "unknown key 'delta' in [model]"),
    (edit("T_right = 0.1", "T_right = 0.1\ngamma_left = 0.01"),
     "unknown key 'gamma_left' in [baths]"),
    (edit("statistics = fermi", "statistics = fermi\nalpha = 1e-3", DOT),
     "unknown key 'alpha' in [baths]"),
    (edit("T_left = 0.1", "T_lfet = 0.1"), "unknown key 't_lfet' in [baths]"),
    (edit("points = 3", "points = 3\nstep = 0.1"), "unknown key 'step' in [sweep]"),
    (edit("csv = out.csv", "csv = out.csv\npng = out.png"), "unknown key 'png' in [output]"),
    (config_text() + "[solver]\nsecular = full\nlambshift = false\n",
     "unknown key 'lambshift' in [solver]"),
    (config_text() + "[extra]\nnote = 1\n", "unknown section [extra]"),
    (config_text() + "[Model]\ntype = rabi\n", "unknown section [Model]"),
    ("[DEFAULT]\nnote = 1\n" + config_text(), "unknown key 'note' in [DEFAULT]"),
], ids=["misspelled-default", "tls-g", "tls-omega_r", "dot-delta", "bose-gamma",
        "fermi-alpha", "misspelled-required", "sweep", "output", "solver", "section",
        "section-case", "default-section"])
def test_a_key_or_section_that_is_not_read_is_rejected(text, message):
    # a misspelled key would otherwise fall back to its default, or be ignored
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config_text(text)


def benchmark_config_text(monkeypatch, name, csv_path="out.csv"):
    """The INI text of the nominal benchmark workload `name`, as the
    benchmark's workloads.py writes it."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)    # for its dataclasses
    spec.loader.exec_module(workloads)
    return workloads.config_text(workloads.NOMINAL[name], csv_path)


@pytest.mark.parametrize("name", ["rabi5_full_T", "rabi21_partial_g", "tls_partial_lowT"])
def test_benchmark_configs_parse(monkeypatch, name):
    # the INI texts the benchmark writes read every key they hold
    cfg = parse_config_text(benchmark_config_text(monkeypatch, name))
    assert cfg.csv_path == "out.csv"


@pytest.mark.parametrize("section", ["[solver]\nsecular = partial\n",
                                     "[solver]\nsecular = full\nlamb_shift = false\n",
                                     "[solver]\n"])
def test_a_dot_config_takes_no_solver_section(tmp_path, capsys, section):
    # dot rows are the closed form dot_transport, the full-secular rate
    # equation, which reads no solver key; their solver cell reads full
    text = DOT.format(variable="epsilon")
    message = "a dot config takes no [solver] section"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config_text(text + section)
    cfg = parse_config_text(text)
    assert cfg.solver == "full"
    assert compute_row(cfg, 0.2).split(",")[-2] == "full"
    ini = tmp_path / "dot.ini"
    ini.write_text(text.replace("out.csv", str(tmp_path / "out.csv")) + section,
                   encoding="utf-8")
    assert main(["sweep", str(ini)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("key", ["gamma_left", "gamma_right"])
def test_negative_dot_coupling_is_rejected(key):
    text = edit(f"{key} = 0.01", f"{key} = -0.02", DOT.format(variable="epsilon"))
    with pytest.raises(ValidationError, match=re.escape(f"key {key!r} must be >= 0")):
        parse_config_text(text)
    # a lead may decouple
    cfg = parse_config_text(text.replace("-0.02", "0"))
    assert cfg.baths[key] == 0.0


def test_a_dot_coupled_to_no_lead_is_rejected(tmp_path, capsys):
    # with both couplings 0 every row would divide by zero; the config names
    # the fault at load time, and `ltrans sweep` exits 2 before any row
    text = (DOT.format(variable="epsilon").replace("gamma_left = 0.01", "gamma_left = 0")
            .replace("gamma_right = 0.01", "gamma_right = 0"))
    message = "the dot is coupled to no lead: gamma_left + gamma_right must be positive"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config_text(text)
    ini = tmp_path / "dot.ini"
    ini.write_text(text.replace("out.csv", str(tmp_path / "out.csv")), encoding="utf-8")
    assert main(["sweep", str(ini)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("old,new,message", [
    ("alpha = 1e-3", "alpha = -1e-3", "alpha must be >= 0"),
    ("omega_c = 5", "omega_c = 0", "omega_c must be positive"),
], ids=["alpha", "omega_c"])
def test_a_bath_its_spectral_density_rejects_fails_at_load(tmp_path, capsys, old, new,
                                                          message):
    # SpectralDensity's own checks: each would otherwise fail every row
    text = edit(old, new, TLS)
    with pytest.raises(ValidationError, match=message):
        parse_config_text(text)
    ini = tmp_path / "tls.ini"
    ini.write_text(text.replace("out.csv", str(tmp_path / "out.csv")), encoding="utf-8")
    assert main(["sweep", str(ini)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("text", [config_text(), TLS], ids=["rabi", "tls"])
def test_a_junction_coupled_to_no_bath_fails_at_load(tmp_path, capsys, text):
    # at alpha = 0 every rate vanishes and every row would fail
    text = edit("alpha = 1e-3", "alpha = 0", text)
    message = "the junction is coupled to no bath: alpha must be positive"
    with pytest.raises(ValidationError, match=re.escape(message)):
        parse_config_text(text)
    ini = tmp_path / "zero.ini"
    ini.write_text(text.replace("out.csv", str(tmp_path / "out.csv")), encoding="utf-8")
    assert main(["sweep", str(ini)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def grammar():
    """{section: [(key, its default or None)]}, as the module docstring states them."""
    out = {}
    for line in config.__doc__.splitlines():
        if head := re.match(r" {4}\[(\w+)\]", line):
            keys = out.setdefault(head[1], [])
        elif entry := re.match(r" {4}(\w+) = .*?(?:default (\w+))?\)?$", line):
            keys.append(entry.groups())
    return out


def test_the_grammar_names_each_key_the_table_reads_once():
    table = {name: dict(keys) for name, keys in config._SECTIONS.items()}
    for _, keys in config._MODELS.values():
        table["model"].update(keys)
    for keys in config._BATHS.values():
        table["baths"].update(keys)
    stated = grammar()
    assert {name: sorted(key for key, _ in keys) for name, keys in stated.items()} == {
        name: sorted(keys) for name, keys in table.items()}
    for name, keys in stated.items():
        for key, default in keys:
            if default is not None:     # the default the table holds, as the text writes it
                assert str(table[name][key][1]).lower().removesuffix(".0") == default


def test_a_key_left_out_takes_the_default_of_the_type_that_owns_it():
    text = edit("retained_levels = 3\n", "", edit("fock_cutoff = 30\n", ""))
    owner = RabiParams(epsilon=0.0, delta=0.9, g=0.2)
    for cfg in (parse_config_text(text), parse_config_text(text + "[solver]\n")):
        assert cfg.model == {"epsilon": 0.0, "delta": 0.9, "g": 0.2,
                             "omega_r": owner.omega_r, "fock_cutoff": owner.fock_cutoff,
                             "retained_levels": owner.retained_levels}
        assert cfg.cluster_factor == DEFAULT_CLUSTER_FACTOR


def test_a_dot_config_needs_no_statistics_key():
    # the statistics default to the ones the model type needs
    text = DOT.format(variable="T")
    cfg = parse_config_text(edit("statistics = fermi\n", "", text))
    assert cfg.baths["statistics"] == "fermi"
    assert cfg == parse_config_text(text)


def test_a_word_matches_in_any_case():
    text = edit("type = rabi", "type = Rabi", edit("variable = T", "variable = t"))
    cfg = parse_config_text(text + "[solver]\nsecular = PARTIAL\nlamb_shift = Off\n")
    assert (cfg.model_type, cfg.variable, cfg.solver, cfg.lamb_shift) == (
        "rabi", "T", "partial", False)
