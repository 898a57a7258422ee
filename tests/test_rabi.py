import numpy as np
import pytest

from ltrans.cli import main
from ltrans.linalg import ValidationError, hermitian_eigensystem
from ltrans.rabi import (RabiParams, _rabi_hamiltonian, build_rabi_junction,
                         grwa_spectrum, vvpt_spectrum)


def test_numeric_levels_match_vvpt_at_weak_coupling():
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.01)
    model = build_rabi_junction(p)
    levels, _ = vvpt_spectrum(p, n_max=3).sorted()
    assert np.max(np.abs(levels[:model.dim] - model.omega)) < 1e-6


def test_zero_bias_couplings_real_symmetric_parity_odd():
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.2)
    _, v = hermitian_eigensystem(_rabi_hamiltonian(p, p.fock_cutoff))
    assert np.max(np.abs(v.imag)) < 1e-12
    model = build_rabi_junction(p)
    for rid in ("L", "R"):
        q = model.q(rid)
        assert np.isrealobj(q)
        assert np.array_equal(q, q.T)
        # both quadrature and sigma_z are odd under the Rabi parity
        assert np.max(np.abs(np.diag(q))) < 1e-12


def test_unconverged_fock_cutoff_rejected():
    with pytest.raises(ValidationError, match="Fock truncation"):
        build_rabi_junction(RabiParams(epsilon=0.0, delta=0.9, g=1.5, fock_cutoff=20))


def test_build_bitwise_repeatable():
    p = RabiParams(epsilon=0.1, delta=0.9, g=0.3, retained_levels=7)
    m1, m2 = build_rabi_junction(p), build_rabi_junction(p)
    assert np.array_equal(m1.omega, m2.omega)
    for rid in ("L", "R"):
        assert np.array_equal(m1.q(rid), m2.q(rid))


def test_grwa_finite_where_dressed_gap_vanishes():
    # g = 0.5 gives alpha = 1, a zero of L_1(alpha): the n = 1 dressed gap is 0
    spec = grwa_spectrum(RabiParams(epsilon=0.0, delta=0.9, g=0.5))
    assert np.all(np.isfinite(spec.levels))
    assert all(np.isfinite(v) for v in spec.q_elements.values())
    near = grwa_spectrum(RabiParams(epsilon=0.0, delta=0.9, g=0.5 + 1e-9))
    assert np.max(np.abs(spec.levels - near.levels)) < 1e-6


def test_spectrum_command_prints_no_nan(tmp_path, capsys):
    ini = tmp_path / "rabi.ini"
    ini.write_text(
        "[model]\ntype = rabi\nepsilon = 0\ndelta = 0.9\ng = 0.5\n"
        "[baths]\nT_left = 0.1\nT_right = 0.1\nalpha = 1e-3\nomega_c = 5\n"
        "[sweep]\nvariable = T\nstart = 0.1\nstop = 1\npoints = 2\n"
        f"[output]\ncsv = {tmp_path / 'out.csv'}\n")
    assert main(["spectrum", str(ini)]) == 0
    assert "nan" not in capsys.readouterr().out.lower()
