import pytest

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


def test_sweep_with_failing_rows_exits_1(tmp_path, capsys):
    ini = write_config(tmp_path, UNCONVERGED_RABI)
    assert main(["sweep", ini]) == 1
    err = capsys.readouterr().err
    for k in range(3):
        assert f"row {k} failed: ValidationError: Fock truncation not converged" in err


@pytest.mark.parametrize("start", ["0.0", "-0.1"])
def test_sweep_to_zero_temperature_exits_2(tmp_path, capsys, start):
    ini = write_config(tmp_path, TLS, scale="linear", start=start)
    assert main(["sweep", ini]) == 2
    assert "'start'" in capsys.readouterr().err
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
