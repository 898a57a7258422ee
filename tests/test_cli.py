import pytest

from ltrans import cli
from ltrans.cli import main

TLS = """
[model]
type = tls
epsilon = 0.3
delta = 1.0
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[sweep]
variable = T
scale = {scale}
start = {start}
stop = 2
points = 5
[output]
csv = {csv}
svg = {svg}
"""

UNCONVERGED_RABI = """
[model]
type = rabi
epsilon = 0
delta = 0.9
g = 1.5
retained_levels = 5
fock_cutoff = 16
[baths]
T_left = 0.1
T_right = 0.1
alpha = 1e-3
omega_c = 5
[sweep]
variable = T
start = 0.05
stop = 0.5
points = 3
[output]
csv = {csv}
"""


def write_config(tmp_path, template, **fields):
    fields = {"csv": tmp_path / "out.csv", "svg": tmp_path / "out.svg", **fields}
    ini = tmp_path / "sweep.ini"
    ini.write_text(template.format(**fields), encoding="utf-8")
    return str(ini)


def test_sweep_writes_csv_and_svg(tmp_path, capsys):
    ini = write_config(tmp_path, TLS, scale="log", start="0.05")
    assert main(["sweep", ini]) == 0
    csv = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv) == 1 + 5
    svg = (tmp_path / "out.svg").read_text(encoding="utf-8")
    # emit_plot draws kappa2, kappa4 and kappa_total, one polyline each
    assert svg.count("<polyline") == 3
    out = capsys.readouterr()
    assert "wrote" in out.out and out.err == ""


def test_a_one_point_log_sweep_plots_its_point(tmp_path, capsys):
    # a single point widens its x axis; on a log axis by halving and
    # doubling it, which keeps both ends positive
    one_point = TLS.replace("stop = 2\npoints = 5", "stop = 0.2\npoints = 1")
    ini = write_config(tmp_path, one_point, scale="log", start="0.2")
    assert main(["sweep", ini]) == 0
    assert len((tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()) == 2
    svg = (tmp_path / "out.svg").read_text(encoding="utf-8")
    assert svg.count("<polyline") == 3
    assert capsys.readouterr().err == ""


def test_sweep_with_failing_rows_exits_1(tmp_path, capsys):
    ini = write_config(tmp_path, UNCONVERGED_RABI)
    assert main(["sweep", ini]) == 1
    err = capsys.readouterr().err
    for k in range(3):
        assert f"row {k} failed: ValidationError: Fock truncation not converged" in err


def test_sweep_with_nothing_to_plot_reports_its_rows_and_exits_1(tmp_path, capsys):
    # a gapless two-level junction fails every row, so the plot has no
    # point: the row failures are still reported, and the missing plot is a
    # failed run (1), not a config error (2)
    gapless = TLS.replace("epsilon = 0.3", "epsilon = 0").replace("delta = 1.0", "delta = 0")
    ini = write_config(tmp_path, gapless, scale="log", start="0.05")
    assert main(["sweep", ini]) == 1
    csv = (tmp_path / "out.csv").read_text(encoding="utf-8").splitlines()
    assert len(csv) == 1 + 5 and all(",nan," in row for row in csv[1:])
    assert not (tmp_path / "out.svg").exists()
    err = capsys.readouterr().err.splitlines()
    assert err[:5] == [f"row {k} failed: ValidationError: rate graph is disconnected; "
                       "stationary state not unique. Components: [[0], [1]]"
                       for k in range(5)]
    assert err[5:] == [f"error: no plottable data; {tmp_path / 'out.svg'} not written"]


@pytest.mark.parametrize("start", ["0.0", "-0.1"])
def test_sweep_to_zero_temperature_exits_2(tmp_path, capsys, start):
    ini = write_config(tmp_path, TLS, scale="linear", start=start)
    assert main(["sweep", ini]) == 2
    assert "'start'" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_with_a_bad_rabi_model_exits_2(tmp_path, capsys):
    ini = write_config(tmp_path, UNCONVERGED_RABI.replace("retained_levels = 5",
                                                          "retained_levels = 1"))
    assert main(["sweep", ini]) == 2
    assert "retained_levels must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


def test_sweep_with_a_misspelled_key_exits_2(tmp_path, capsys):
    # fock_cuttoff would otherwise leave the cutoff at its default of 40
    ini = write_config(tmp_path, UNCONVERGED_RABI.replace("fock_cutoff", "fock_cuttoff"))
    assert main(["sweep", ini]) == 2
    assert "unknown key 'fock_cuttoff' in [model]" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("args,env", [(["--workers", "0"], None), ([], "0")],
                         ids=["workers-flag", "LT_THREADS"])
def test_sweep_with_no_worker_exits_2(tmp_path, capsys, monkeypatch, args, env):
    if env is None:
        monkeypatch.delenv("LT_THREADS", raising=False)
    else:
        monkeypatch.setenv("LT_THREADS", env)
    ini = write_config(tmp_path, TLS, scale="log", start="0.05")
    assert main(["sweep", ini, *args]) == 2
    assert "must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("key", ["csv", "svg"])
@pytest.mark.parametrize("where,reason", [
    ("missing/out", "its directory does not exist"),
    ("", "it is a directory"),
], ids=["missing-dir", "directory"])
def test_sweep_to_an_unwritable_output_exits_2_before_any_row(tmp_path, capsys,
                                                               monkeypatch, key,
                                                               where, reason):
    def no_rows(*args, **kwargs):
        raise AssertionError("a row was computed")

    monkeypatch.setattr(cli, "run_sweep", no_rows)
    bad = str(tmp_path / where) if where else str(tmp_path)
    ini = write_config(tmp_path, TLS, scale="log", start="0.05", **{key: bad})
    assert main(["sweep", ini]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot write {bad!r}: {reason}\n"
    assert not (tmp_path / "out.csv").exists()
