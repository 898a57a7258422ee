import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltrans.cli import main
from ltrans.linalg import ValidationError, hermitian_eigensystem, lowest_band_eigensystem
from ltrans.rabi import (CONVERGENCE_EXTRA, CONVERGENCE_TOL, RabiParams, _fock_drift_bound,
                         _rabi_band, build_rabi_junction, grwa_spectrum, rwa_spectrum,
                         vvpt_spectrum)
from rabi_oracle import dense_rabi_junction, rabi_hamiltonian, two_solve_fock_check
from test_linalg import recorded_selects


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


@pytest.mark.parametrize("keep,gs", [(5, [0.2]), (21, np.linspace(0.02, 0.4, 12))])
def test_benchmark_models_make_one_banded_solve(monkeypatch, keep, gs):
    # the drift bound settles the Fock check of the benchmark's models; a
    # bound that fell back would cost a second solve, about 0.3 ms a model
    calls = recorded_selects(monkeypatch)
    for g in gs:
        calls.clear()
        build_rabi_junction(RabiParams(epsilon=0.0, delta=0.9, g=float(g), fock_cutoff=40,
                                       retained_levels=keep))
        assert len(calls) == 1, g


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("epsilon,delta,keep,solves", [
    (0.3, 0.9, 5, 1), (0.3, 0.9, 21, 1), (0.0, 1.0, 5, 1),
    # lambda_(keep-1) = lambda_keep, by bisection (keep 4) and the full solve
    (0.0, 1.0, 4, 2), (0.0, 1.0, 12, 2)])
def test_uncoupled_model_bound_is_zero_or_falls_back(monkeypatch, epsilon, delta, keep,
                                                     solves):
    # at g = 0 the larger band splits into blocks: the bound is 0 unless the
    # retained levels are degenerate with the next one, where the second
    # solve runs; neither divides 0 by 0
    p = RabiParams(epsilon=epsilon, delta=delta, g=0.0, retained_levels=keep)
    calls = recorded_selects(monkeypatch)
    model = build_rabi_junction(p)
    assert len(calls) == solves
    assert _fock_drift_bound(p, *_drift_bound_inputs(p)) == (0.0 if solves == 1 else np.inf)
    n = np.arange(p.fock_cutoff)
    levels = np.sort(np.concatenate([n - 0.5 * p.omega_q, n + 0.5 * p.omega_q]))
    assert np.max(np.abs(model.omega - levels[:keep])) <= 1e-13


def _drift_bound_inputs(p):
    band = _rabi_band(p, p.fock_cutoff + CONVERGENCE_EXTRA)
    lam, v = lowest_band_eigensystem(band[:, :2 * p.fock_cutoff], p.retained_levels)
    return band, lam, v


@pytest.mark.parametrize("keep,cutoff,g", [(3, 13, 1.0), (5, 15, 1.0), (21, 33, 0.8)])
def test_drift_bound_is_the_residual_of_the_padded_eigenvectors(keep, cutoff, g):
    # rho = g sqrt(N) |V[-2:]|_F is |H_big X - X Lambda|_F for X = [V; 0],
    # after bisection (keep 3) and the full solve; rho is 1e-9 to 1e-3 here
    p = RabiParams(epsilon=0.1, delta=0.9, g=g, fock_cutoff=cutoff, retained_levels=keep)
    band, lam, v = _drift_bound_inputs(p)
    order = band.shape[1]
    h = np.diag(band[2])
    for d in (1, 2):
        h += np.diag(band[2 - d, d:], d) + np.diag(band[2 - d, d:], -d)
    x = np.zeros((order, keep))
    x[:2 * cutoff] = v
    resid = np.linalg.norm(h @ x - x * lam)
    assert _fock_drift_bound(p, band, lam, v) == pytest.approx(resid, rel=1e-9)


@pytest.mark.parametrize("keep,cutoff,g", [(2, 12, 1.5), (3, 13, 1.3), (21, 31, 2.0)])
def test_a_vanishing_residual_alone_certifies_no_drift(keep, cutoff, g):
    # with the residual zeroed, the bound still needs the added Fock levels
    # to stay above the retained ones, which their Gershgorin floor cannot
    # show at this coupling
    p = RabiParams(epsilon=0.0, delta=0.9, g=g, fock_cutoff=cutoff, retained_levels=keep)
    band, lam, v = _drift_bound_inputs(p)
    v = v.copy()
    v[-2:] = 0.0
    assert _fock_drift_bound(p, band, lam, v) == np.inf


def test_large_cutoff_skips_the_dense_certificate(monkeypatch):
    # above 400 Fock states the dense certificate would cost more than the
    # second banded solve, so that solve measures the drift
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.2, fock_cutoff=401)
    assert _fock_drift_bound(p, *_drift_bound_inputs(p)) == np.inf
    calls = recorded_selects(monkeypatch)
    build_rabi_junction(p)
    assert len(calls) == 2


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(epsilon=st.floats(-1.0, 1.0), delta=st.floats(0.1, 2.0), g=st.floats(0.0, 2.0),
       sizes=st.integers(2, 25).flatmap(
           lambda keep: st.tuples(st.just(keep), st.integers(keep + 10, 60))))
def test_drift_bound_accepts_and_rejects_as_the_two_solve_check(epsilon, delta, g, sizes):
    # both solver paths: bisection up to keep = order / 8, the full solve above
    keep, cutoff = sizes
    p = RabiParams(epsilon=epsilon, delta=delta, g=g, retained_levels=keep,
                   fock_cutoff=cutoff)
    drift, error = two_solve_fock_check(p)
    built = _build_or_error(build_rabi_junction, p)
    if error is None:
        assert not isinstance(built, ValidationError), str(built)
    else:
        assert isinstance(built, ValidationError) and str(built) == str(error)
    bound = _fock_drift_bound(p, *_drift_bound_inputs(p))
    if bound <= 0.5 * CONVERGENCE_TOL * p.omega_r:
        # the margin is the roundoff of the measured drift itself
        assert bound + 1e-13 * p.omega_r >= drift


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
