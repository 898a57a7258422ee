import re

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltrans import currents, rabi, steady, sweep
from ltrans.cli import main
from ltrans.config import parse_config_text
from ltrans.linalg import ValidationError, hermitian_eigensystem, lowest_band_eigensystem
from ltrans.rabi import (CONVERGENCE_EXTRA, CONVERGENCE_TOL, RabiParams, _fock_drift_bound,
                         _levels_at_or_below, _lowest_levels, _rabi_band, build_rabi_junction,
                         grwa_spectrum, rwa_spectrum, vvpt_spectrum)
from ltrans.sweep import compute_row
from rabi_oracle import dense_rabi_junction, rabi_hamiltonian, two_solve_fock_check
from test_config import benchmark_config_text
from test_linalg import recorded_selects
from test_sweep import RABI as RABI_G
from test_sweep import RABI_FULL_T


def test_numeric_levels_match_vvpt_at_weak_coupling():
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.01)
    model = build_rabi_junction(p)
    levels = vvpt_spectrum(p, n_max=3).sorted()
    assert np.max(np.abs(levels[:model.dim] - model.omega)) < 1e-6


def _level_error(spectrum, p):
    """Largest distance of the approximate levels from the numeric ones."""
    model = build_rabi_junction(p)
    levels = spectrum.sorted()
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


@pytest.mark.parametrize("epsilon,delta", [(0.0, 1.0), (0.0, 0.9), (0.3, 1.0)])
def test_vvpt_spectrum_reduces_to_the_rwa_as_g_vanishes(epsilon, delta):
    # the Van Vleck corrections are O(g^2): their largest effect on the
    # sorted levels falls about fourfold per halving of g, and is nil at g = 0
    def gap(g):
        p = RabiParams(epsilon=epsilon, delta=delta, g=g)
        return np.max(np.abs(vvpt_spectrum(p, n_max=3).sorted()
                             - rwa_spectrum(p, n_max=3).sorted()))

    gaps = [gap(g) for g in (0.02, 0.01, 0.005)]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 3.0 < coarse / fine < 4.5
    assert gap(0.0) <= 1e-15


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


def recorded_solves(monkeypatch):
    """The `keep` of every eigensolve of a Rabi model build, on either route."""
    keeps = []
    orig = rabi._lowest_levels

    def recorded(p, band, keep, *args, **kwargs):
        keeps.append(keep)
        return orig(p, band, keep, *args, **kwargs)

    monkeypatch.setattr(rabi, "_lowest_levels", recorded)
    return keeps


@pytest.mark.parametrize("keep,gs", [(5, [0.2]), (21, np.linspace(0.02, 0.4, 12))])
def test_benchmark_models_make_one_eigensolve(monkeypatch, keep, gs):
    # the drift bound settles the Fock check of the benchmark's models; a
    # bound that fell back would cost a second solve, about 0.1 ms a model.
    # At zero bias both solves are the parity chains', never the band's
    calls = recorded_solves(monkeypatch)
    banded = recorded_selects(monkeypatch)
    for g in gs:
        calls.clear()
        build_rabi_junction(RabiParams(epsilon=0.0, delta=0.9, g=float(g), fock_cutoff=40,
                                       retained_levels=keep))
        assert len(calls) == 1, g
    assert banded == []


def test_benchmark_g_chunk_solves_one_system_per_parity_retained_set(monkeypatch):
    # the nominal 12-row chunk of the 21-level g sweep: the parity labels
    # keep every retained pair within one sector, which leaves 6 retained-pair
    # groups of the 24 slices (8 when opposite-parity coherences were kept)
    cfg = parse_config_text(benchmark_config_text(monkeypatch, "rabi21_partial_g"))
    solves, groups = [], []
    orig_solve, orig_groups = steady._solve_retained, currents._cluster_groups

    def solve(*args):
        solves.append(args[2])
        return orig_solve(*args)

    def cluster_groups(model, scales, c, at):
        found, out = orig_groups(model, scales, c, at)
        groups.extend((model.take(at[rows]), kept) for kept, rows in found)
        return found, out

    monkeypatch.setattr(steady, "_solve_retained", solve)
    monkeypatch.setattr(currents, "_cluster_groups", cluster_groups)
    rows = sweep._chunk_rows(cfg, [float(v) for v in cfg.grid()])
    assert all(exc is None for _, exc in rows)
    assert len(solves) == len(groups) == 6
    for models, kept in groups:
        assert kept in solves
        assert all((models.sector[:, n] == models.sector[:, m]).all()
                   for n, m in kept.retained)


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
    calls = recorded_solves(monkeypatch)
    model = build_rabi_junction(p)
    assert len(calls) == solves
    assert _fock_drift_bound(p, *_drift_bound_inputs(p)) == (0.0 if solves == 1 else np.inf)
    n = np.arange(p.fock_cutoff)
    levels = np.sort(np.concatenate([n - 0.5 * p.omega_q, n + 0.5 * p.omega_q]))
    assert np.max(np.abs(model.omega - levels[:keep])) <= 1e-13


def _drift_bound_inputs(p):
    """The bound's inputs as `build_rabi_junction` computes them."""
    band = _rabi_band(p, p.fock_cutoff + CONVERGENCE_EXTRA)
    lam, v = _lowest_levels(p, band[:, :2 * p.fock_cutoff], p.retained_levels)
    return band, lam, v


def _dense(band):
    """The symmetric matrix of the upper band storage `band`, half-width 2."""
    h = np.diag(band[2])
    for d in (1, 2):
        h += np.diag(band[2 - d, d:], d) + np.diag(band[2 - d, d:], -d)
    return h


@pytest.mark.parametrize("keep,cutoff,g", [(3, 13, 1.0), (5, 15, 1.0), (21, 33, 0.8)])
def test_drift_bound_is_the_residual_of_the_padded_eigenvectors(keep, cutoff, g):
    # rho = g sqrt(N) |V[-2:]|_F is |H_big X - X Lambda|_F for X = [V; 0],
    # after bisection (keep 3) and the full solve; rho is 1e-9 to 1e-3 here
    p = RabiParams(epsilon=0.1, delta=0.9, g=g, fock_cutoff=cutoff, retained_levels=keep)
    band, lam, v = _drift_bound_inputs(p)
    x = np.zeros((band.shape[1], keep))
    x[:2 * cutoff] = v
    resid = np.linalg.norm(_dense(band) @ x - x * lam)
    assert _fock_drift_bound(p, band, lam, v) == pytest.approx(resid, rel=1e-9)


@pytest.mark.parametrize("keep,cutoff,g", [(2, 12, 1.5), (3, 13, 1.3), (21, 31, 2.0)])
@pytest.mark.parametrize("epsilon", [0.0, 0.3], ids=["parity", "band"])
def test_an_added_level_at_the_last_retained_one_fails_the_count(epsilon, keep, cutoff, g):
    # with Fock level N + 5, which the retained eigenvectors do not reach, at
    # lambda_(k-1), the larger band has at least k + 1 eigenvalues at or
    # below y = lambda_(k-1) + tol (Courant-Fischer on the padded
    # eigenvectors and that level), however small the residual; both qubit
    # states keep the level parity-symmetric, so the chains still describe it
    p = RabiParams(epsilon=epsilon, delta=0.9, g=g, fock_cutoff=cutoff, retained_levels=keep)
    band, lam, v = _drift_bound_inputs(p)
    assert _fock_drift_bound(p, band, lam, v) < np.inf
    doctored = band.copy()
    level = p.fock_cutoff + 5
    doctored[2, 2 * level:2 * level + 2] = lam[-1]
    assert _fock_drift_bound(p, doctored, lam, v) == np.inf


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(epsilon=st.sampled_from([0.0]) | st.floats(-1.0, 1.0),
       delta=st.sampled_from([0.0, 1e-12]) | st.floats(0.0, 2.0),
       g=st.sampled_from([0.0]) | st.floats(0.0, 2.0), n_fock=st.integers(2, 60),
       where=st.floats(0.0, 1.0))
def test_the_count_is_the_number_of_eigenvalues_at_or_below_y(epsilon, delta, g, n_fock,
                                                             where):
    # both routes, split chains (g = 0) and degenerate ones (Delta near 0);
    # y anywhere from below the spectrum to above its lower half
    p = RabiParams(epsilon=epsilon, delta=delta, g=g)
    band = _rabi_band(p, n_fock)
    levels = np.linalg.eigvalsh(_dense(band))
    y = levels[0] - 1.0 + where * (levels[len(levels) // 2] - levels[0] + 2.0)
    assume(np.min(np.abs(levels - y)) > 1e-9 * max(abs(y), 1.0))
    assert _levels_at_or_below(p, band, y) == np.sum(levels <= y)


@pytest.mark.parametrize("epsilon,routine,count_at", [(0.0, "dstebz", 0),
                                                       (0.3, "dsbevx", 2)])
def test_a_failed_count_never_certifies(monkeypatch, epsilon, routine, count_at):
    # LAPACK reporting a failure of the count (RANGE = 'V'), with a count
    # that would certify: the bound is inf, and the second solve runs
    p = RabiParams(epsilon=epsilon, delta=0.9, g=0.2)
    inputs = _drift_bound_inputs(p)
    assert _fock_drift_bound(p, *inputs) <= 0.5 * CONVERGENCE_TOL * p.omega_r
    orig = getattr(scipy.linalg.lapack, routine)

    def failed(*args, **kwargs):
        out = list(orig(*args, **kwargs))
        if kwargs.get("range", args[2]) == 1:
            out[count_at], out[-1] = 0, 1
        return tuple(out)

    monkeypatch.setattr(scipy.linalg.lapack, routine, failed)
    assert _fock_drift_bound(p, *inputs) == np.inf
    calls = recorded_solves(monkeypatch)
    model = build_rabi_junction(p)
    assert len(calls) == 2
    assert np.array_equal(model.omega, inputs[1])


@pytest.mark.parametrize("epsilon", [0.0, 0.3], ids=["parity", "band"])
def test_the_count_leaves_the_band_as_it_was(epsilon):
    # the fallback solve reads the same band; LAPACK would overwrite a
    # Fortran-ordered one in place
    p = RabiParams(epsilon=epsilon, delta=0.9, g=0.2)
    band, lam, _ = _drift_bound_inputs(p)
    for ab in (band, np.asfortranarray(band)):
        before = ab.copy()
        assert _levels_at_or_below(p, ab, lam[-1] + CONVERGENCE_TOL) == len(lam)
        assert np.array_equal(ab, before)


@pytest.mark.parametrize("epsilon,cutoff", [(0.0, 401), (0.0, 1000), (0.3, 401)])
def test_large_cutoffs_make_one_eigensolve(monkeypatch, epsilon, cutoff):
    # the count costs O(N) on the parity chains, and less than the second
    # banded solve on the band, at any cutoff; the reference levels of both
    # cutoffs are the band's eigenvalues alone (its lowest pairs by
    # bisection would take about 1.7 s each at N = 1000)
    p = RabiParams(epsilon=epsilon, delta=0.9, g=0.2, fock_cutoff=cutoff)
    calls = recorded_solves(monkeypatch)
    model = build_rabi_junction(p)
    assert len(calls) == 1
    band = _rabi_band(p, cutoff + CONVERGENCE_EXTRA)
    small = scipy.linalg.eigvals_banded(band[:, :2 * cutoff])[:5]
    large = scipy.linalg.eigvals_banded(band)[:5]
    assert np.max(np.abs(model.omega - small)) <= 1e-12 * p.omega_r
    assert np.max(np.abs(model.omega - large)) <= 0.5 * CONVERGENCE_TOL * p.omega_r


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(epsilon=st.sampled_from([0.0]) | st.floats(-1.0, 1.0), delta=st.floats(0.1, 2.0),
       g=st.floats(0.0, 2.0), sizes=st.integers(2, 25).flatmap(
           lambda keep: st.tuples(st.just(keep), st.integers(keep + 10, 60))))
def test_drift_bound_accepts_and_rejects_as_the_two_solve_check(epsilon, delta, g, sizes):
    # both routes, the parity chains at epsilon = 0 and the band elsewhere,
    # and on each both solver paths (bisection for a few levels, the full
    # solve for more)
    keep, cutoff = sizes
    p = RabiParams(epsilon=epsilon, delta=delta, g=g, retained_levels=keep,
                   fock_cutoff=cutoff)
    drift, error = two_solve_fock_check(p)
    built = _build_or_error(build_rabi_junction, p)
    if error is None:
        assert not isinstance(built, ValidationError), str(built)
    else:
        # the parity route measures the drift to roundoff of the banded one,
        # which can move its 4th printed digit
        assert isinstance(built, ValidationError)
        printed = re.fullmatch(r"Fock truncation not converged: retained levels move "
                               r"by (\S+); increase fock_cutoff", str(built))
        assert printed, str(built)
        assert float(printed.group(1)) == pytest.approx(drift, rel=1e-3)
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


def _banded_build(p):
    """`build_rabi_junction(p)` with both solves on the band, as at epsilon != 0."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rabi, "_lowest_levels",
                   lambda p, band, keep: lowest_band_eigensystem(band, keep))
        return _build_or_error(build_rabi_junction, p)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(0.05, 2.0), g=st.floats(0.0, 2.0),
       sizes=st.integers(2, 25).flatmap(
           lambda keep: st.tuples(st.just(keep), st.integers(keep + 10, 60))))
def test_parity_chains_match_the_band_at_zero_bias(delta, g, sizes):
    # both solver paths of the chains: bisection for a few levels, divide
    # and conquer for more; the band's solve is the reference
    keep, cutoff = sizes
    p = RabiParams(epsilon=0.0, delta=delta, g=g, retained_levels=keep, fock_cutoff=cutoff)
    band = _rabi_band(p, cutoff)
    ref, _ = lowest_band_eigensystem(band, keep + 1)
    lam, _ = _lowest_levels(p, band, keep)
    assert np.max(np.abs(lam - ref[:keep])) <= 1e-12 * p.omega_r
    parity, banded = _build_or_error(build_rabi_junction, p), _banded_build(p)
    assert type(parity) is type(banded)
    # Q is fixed only where the retained levels and the first discarded one
    # are resolved (parity doublets cross at strong coupling)
    assume(not isinstance(parity, ValidationError))
    assume(np.min(np.diff(ref)) > 1e-3 * p.omega_r)
    for rid in ("L", "R"):
        assert np.max(np.abs(parity.q(rid) - banded.q(rid))) <= 1e-10


@pytest.mark.parametrize("delta,g", [(np.nan, 0.2), (0.9, np.nan), (np.inf, 0.2),
                                     (0.9, np.inf)])
def test_non_finite_input_is_rejected_before_any_solve(monkeypatch, delta, g):
    # the same error on both routes, and no NaN reaches LAPACK
    reached = []
    for name in ("dstebz", "dstein", "dstevd"):
        monkeypatch.setattr(scipy.linalg.lapack, name, lambda *args, _name=name, **kwargs:
                            reached.append(_name))
    for epsilon in (0.0, 1e-9):
        with pytest.raises(ValidationError, match="^band has non-finite entries$"):
            build_rabi_junction(RabiParams(epsilon=epsilon, delta=delta, g=g))
    assert reached == []


def test_large_cutoff_parity_levels_match_the_band():
    # the parity chains cost O(N k), where the band's bisection path would
    # accumulate its dense order-2N reduction (about 1.4 s at N = 1000); the
    # reference is LAPACK's banded eigenvalue solve
    p = RabiParams(epsilon=0.0, delta=0.9, g=0.2, fock_cutoff=1000, retained_levels=5)
    model = build_rabi_junction(p)
    band = _rabi_band(p, p.fock_cutoff)
    levels = scipy.linalg.eigvals_banded(band)
    assert np.max(np.abs(model.omega - levels[:5])) <= 1e-12 * p.omega_r


@pytest.mark.parametrize("text,value", [(RABI_G, 0.2), (RABI_FULL_T, 0.1)],
                         ids=["partial_g_biased", "full_T"])
def test_zero_bias_row_agrees_with_the_banded_route(tmp_path, text, value):
    # epsilon = +-1e-9 takes the band; the zero-bias T row's currents are
    # roundoff of an exact zero
    def row(epsilon):
        cfg = parse_config_text(text.replace("epsilon = 0", f"epsilon = {epsilon}")
                                + f"[output]\ncsv = {tmp_path / 'out.csv'}\n")
        cells = compute_row(cfg, value).split(",")
        return np.array([float(c) for c in cells[1:9]])

    for epsilon in (1e-9, -1e-9):
        np.testing.assert_allclose(row(0), row(epsilon), rtol=1e-6, atol=1e-18)


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
