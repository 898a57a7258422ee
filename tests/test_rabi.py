import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltrans.cli import main
from ltrans.linalg import ValidationError, hermitian_eigensystem
from ltrans.rabi import (RabiParams, build_rabi_junction, grwa_spectrum, rwa_spectrum,
                         vvpt_spectrum)
from rabi_oracle import dense_rabi_junction, rabi_hamiltonian


def test_numeric_levels_match_vvpt_at_weak_coupling():
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.01)
    model = build_rabi_junction(p)
    levels, _ = vvpt_spectrum(p, n_max=3).sorted()
    assert np.max(np.abs(levels[:model.dim] - model.omega)) < 1e-6


def _level_error(spectrum, p):
    """Largest distance of the approximate levels from the numeric ones."""
    model = build_rabi_junction(p)
    levels, _ = spectrum.sorted()
    return np.max(np.abs(levels[:model.dim] - model.omega))


@pytest.mark.parametrize("epsilon,delta", [(0.0, 1.0), (0.0, 0.9), (0.3, 1.0)])
def test_rwa_spectrum_is_exact_without_coupling(epsilon, delta):
    p = RabiParams(epsilon=epsilon, delta=delta, g=0.0)
    rwa = rwa_spectrum(p, n_max=3)
    assert _level_error(rwa, p) <= 1e-15
    assert rwa.doublet_norm_residual() <= 1e-15


def test_rwa_spectrum_misses_the_bloch_siegert_shift_only():
    # at resonance the counter-rotating terms that RWA drops shift the
    # levels by O(g^2): the error stays below g^2 and quadruples as g doubles
    errors = []
    for g in (0.01, 0.02, 0.04):
        p = RabiParams(epsilon=0.0, delta=1.0, g=g)
        rwa = rwa_spectrum(p, n_max=3)
        assert rwa.doublet_norm_residual() <= 1e-15
        errors.append(_level_error(rwa, p))
        assert errors[-1] < g**2
    assert errors[1] / errors[0] == pytest.approx(4.0, rel=0.05)
    assert errors[2] / errors[1] == pytest.approx(4.0, rel=0.05)


def test_zero_bias_couplings_real_symmetric_parity_odd():
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.2)
    _, v = hermitian_eigensystem(rabi_hamiltonian(p, p.fock_cutoff))
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


def _build_or_error(build, p):
    try:
        return build(p)
    except ValidationError as exc:
        return exc


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(epsilon=st.sampled_from([0.0]) | st.floats(-0.6, 0.6),
       delta=st.floats(0.1, 1.6), g=st.floats(0.0, 1.6),
       keep=st.integers(2, 12), extra=st.integers(10, 30))
def test_banded_junction_matches_dense_oracle(epsilon, delta, g, keep, extra):
    p = RabiParams(epsilon=epsilon, delta=delta, g=g, retained_levels=keep,
                   fock_cutoff=keep + extra)
    banded = _build_or_error(build_rabi_junction, p)
    dense = _build_or_error(dense_rabi_junction, p)
    if isinstance(dense, ValidationError):
        # the unconverged Fock cutoff is rejected for the same parameters
        assert isinstance(banded, ValidationError)
        assert str(banded).split(":")[0] == str(dense).split(":")[0]
        return
    assert not isinstance(banded, ValidationError), str(banded)
    assert np.max(np.abs(banded.omega - dense.omega)) <= 1e-12 * p.omega_r
    # eigenvectors of quasi-degenerate levels (parity crossings at epsilon = 0)
    # are fixed only to rounding / gap; compare Q where the retained levels
    # and the first discarded one are resolved
    levels = np.linalg.eigvalsh(rabi_hamiltonian(p, p.fock_cutoff))[:keep + 1]
    assume(np.min(np.diff(levels)) > 1e-3 * p.omega_r)
    for rid in ("L", "R"):
        assert np.max(np.abs(banded.q(rid) - dense.q(rid))) <= 1e-10


@pytest.mark.parametrize("keep", [5, 21])
def test_zero_bias_coupling_signs_match_dense_oracle(keep):
    # parity eigenstates have |v(0, n)| = |v(1, n)| exactly; the phase
    # convention's tie rule gives the banded and the dense solve the same sign
    for g in np.linspace(0.05, 0.6, 12):
        p = RabiParams(epsilon=0.0, delta=0.9, g=float(g), retained_levels=keep)
        banded, dense = build_rabi_junction(p), dense_rabi_junction(p)
        for rid in ("L", "R"):
            assert np.max(np.abs(banded.q(rid) - dense.q(rid))) <= 1e-10, (g, rid)


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
