import logging

import numpy as np
import pytest

from ltrans.linalg import NumericError, ValidationError
from ltrans.model import Reservoir, SpectralDensity, build_junction
from ltrans.rabi import RabiParams, build_rabi_junction
from ltrans.redfield import (KernelBlock, RateMatrix, all_pairs, build_k2_boson,
                             gamma_rates)
from ltrans.steady import (FrequencyClusters, SteadyState, cluster_bohr_frequencies,
                           full_secular_steady, partial_secular_steady,
                           retained_pair_array, three_level_coherence_analytic)

from rate_oracle import propagate_rate_equation


def drude_baths(t_left=1.0, t_right=0.5, alpha=1e-3, omega_c=5.0):
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    return [Reservoir("L", 1.0 / t_left, sd),
            Reservoir("R", 1.0 / t_right, sd)]


def random_model(rng, dim=4):
    omega = np.sort(rng.uniform(0.0, 2.5, size=dim)) + 0.3 * np.arange(dim)
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((dim, dim))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)


def gathered_block(k, clusters):
    """The `KernelBlock` over the solver's pairs of `clusters`, gathered from
    the rank-4 tensor k."""
    dim = len(k)
    pairs = retained_pair_array(dim, clusters)
    n, m = pairs[:, 0], pairs[:, 1]
    return KernelBlock(dim, pairs, k[n[:, None], m[:, None], n[None, :], m[None, :]])


def all_pairs_clusters(dim):
    pairs = frozenset((i, j) for i in range(dim) for j in range(dim))
    return FrequencyClusters(retained=pairs, threshold=np.inf)


# ---------------------------------------------------------------------------
# clustering
# ---------------------------------------------------------------------------

def test_cluster_limits():
    rng = np.random.default_rng(0)
    model = random_model(rng)
    diag_only = cluster_bohr_frequencies(model, 1e-6, c=0.0)
    assert diag_only.retained == frozenset((i, i) for i in range(model.dim))
    everything = cluster_bohr_frequencies(model, 1.0, c=np.inf)
    assert len(everything.retained) == model.dim**2


def test_cluster_monotone_in_c():
    rng = np.random.default_rng(1)
    model = random_model(rng)
    prev = frozenset()
    for c in (0.0, 1.0, 10.0, 1e3, 1e9):
        cl = cluster_bohr_frequencies(model, 0.05, c=c)
        assert prev <= cl.retained
        prev = cl.retained


def test_cluster_rabi_resonance_point():
    params = RabiParams(epsilon=0.8, delta=0.6, g=0.01, fock_cutoff=20,
                        retained_levels=5)
    model = build_rabi_junction(params)
    baths = drude_baths(t_left=0.2, t_right=0.2)
    rates = gamma_rates(model, baths)
    gamma_scale = np.max(np.abs(rates.gamma - np.diag(np.diag(rates.gamma))))
    clusters = cluster_bohr_frequencies(model, gamma_scale, c=10.0)
    assert (1, 2) in clusters.retained and (2, 1) in clusters.retained
    assert (0, 1) not in clusters.retained


def test_cluster_validation():
    rng = np.random.default_rng(2)
    model = random_model(rng)
    with pytest.raises(ValidationError):
        cluster_bohr_frequencies(model, 0.0)
    with pytest.raises(ValidationError, match="cluster factor"):
        cluster_bohr_frequencies(model, 1.0, c=-3.0)


# ---------------------------------------------------------------------------
# full secular
# ---------------------------------------------------------------------------

def test_tls_balance():
    g = np.array([[-0.2, 0.5], [0.2, -0.5]])
    state = full_secular_steady(RateMatrix(gamma=g))
    p = state.populations
    assert p[1] / p[0] == pytest.approx(g[1, 0] / g[0, 1], rel=1e-12)


def test_gibbs_at_equal_temperature():
    rng = np.random.default_rng(3)
    model = random_model(rng)
    beta = 0.8
    state = full_secular_steady(
        gamma_rates(model, drude_baths(1 / beta, 1 / beta)))
    boltz = np.exp(-beta * (model.omega - model.omega[0]))
    boltz /= boltz.sum()
    assert np.max(np.abs(state.populations / boltz - 1.0)) < 1e-10


def test_full_secular_vs_time_propagation():
    rng = np.random.default_rng(4)
    model = random_model(rng)
    rates = gamma_rates(model, drude_baths(1.3, 0.6))
    state = full_secular_steady(rates)
    g = rates.gamma
    offdiag = g[~np.eye(4, dtype=bool)]
    gamma_min = np.min(offdiag[offdiag > 0])
    p0 = np.full(4, 0.25)
    p_t = propagate_rate_equation(rates, p0, t=50.0 / gamma_min)
    assert np.max(np.abs(p_t - state.populations)) < 1e-8


def test_disconnected_graph_rejected():
    g = np.zeros((4, 4))
    g[0, 1] = g[1, 0] = 0.3
    g[2, 3] = g[3, 2] = 0.2
    g[np.diag_indices(4)] = -np.sum(g, axis=0)
    with pytest.raises(ValidationError, match="disconnected"):
        full_secular_steady(RateMatrix(gamma=g))


def test_positivity_watchdog_logs(caplog):
    rho = np.diag([1.0 + 2e-8, -2e-8, 0.0]).astype(complex)
    state = SteadyState(rho=rho, retained_pairs=((0, 0),), solver_tag="FullSecular")
    with caplog.at_level(logging.WARNING, logger="ltrans.steady"):
        state.check()
    assert any("population below zero" in r.message for r in caplog.records)


# ---------------------------------------------------------------------------
# partial secular
# ---------------------------------------------------------------------------

def test_partial_reduces_to_full_secular():
    rng = np.random.default_rng(5)
    model = random_model(rng)
    baths = drude_baths(1.1, 0.7)
    k2 = build_k2_boson(model, baths)
    diag_only = cluster_bohr_frequencies(model, 1e-9, c=0.0)
    ps = partial_secular_steady(model, k2, diag_only)
    fs = full_secular_steady(gamma_rates(model, baths))
    assert np.max(np.abs(ps.rho - fs.rho)) < 1e-12


def test_partial_secular_well_separated_limit():
    # |omega_nm| >= 1e4 gamma: retained coherences stay tiny and populations
    # match the secular solution
    rng = np.random.default_rng(6)
    model = random_model(rng)
    baths = drude_baths(1.1, 0.7, alpha=5e-8)   # gamma << 1e-4 * min |omega_nm|
    k2 = build_k2_boson(model, baths)
    state = partial_secular_steady(model, k2, all_pairs_clusters(model.dim))
    fs = full_secular_steady(gamma_rates(model, baths))
    pop_scale = np.max(fs.populations)
    coh = state.rho[~np.eye(model.dim, dtype=bool)]
    assert np.max(np.abs(coh)) < 1e-3 * pop_scale
    assert np.max(np.abs(state.populations - fs.populations)) < 1e-6


def test_partial_secular_converges_with_c():
    rng = np.random.default_rng(7)
    model = random_model(rng)
    baths = drude_baths(1.1, 0.7)
    k2 = build_k2_boson(model, baths)
    full = partial_secular_steady(model, k2, all_pairs_clusters(model.dim))
    rates = gamma_rates(model, baths)
    gamma_scale = np.max(np.abs(rates.gamma))
    dists = []
    for c in (0.0, 1.0, 1e2, 1e12):
        cl = cluster_bohr_frequencies(model, gamma_scale, c=c)
        st = partial_secular_steady(model, k2, cl)
        dists.append(np.max(np.abs(st.rho - full.rho)))
    assert dists[-1] < 1e-14
    assert all(b <= a + 1e-15 for a, b in zip(dists, dists[1:]))


def test_partial_secular_singular_system():
    model = build_junction([0.0, 1.0], {"L": np.zeros((2, 2))})
    clusters = all_pairs_clusters(2)
    k2 = gathered_block(np.zeros((2, 2, 2, 2), dtype=complex), clusters)
    with pytest.raises((NumericError, np.linalg.LinAlgError)):
        partial_secular_steady(model, k2, clusters)


def test_partial_secular_condition_warning(caplog):
    # level 2 hangs on the others by rates 1e-14 of the rest: the 1-norm
    # condition estimate of the system is about 1e14
    g = np.array([[0.0, 1.0, 2e-14], [0.5, 0.0, 1e-14], [1e-14, 1e-14, 0.0]])
    g[np.diag_indices(3)] = -g.sum(axis=0)
    k = np.zeros((3, 3, 3, 3), dtype=complex)
    for n in range(3):
        k[n, n] = np.diag(g[n])
    model = build_junction([0.0, 1.0, 2.0], {"L": np.zeros((3, 3))})
    diag_only = cluster_bohr_frequencies(model, 1e-9, c=0.0)
    with caplog.at_level(logging.WARNING, logger="ltrans.steady"):
        state = partial_secular_steady(model, gathered_block(k, diag_only), diag_only)
    assert any("badly conditioned" in r.message for r in caplog.records)
    assert np.abs(g @ state.populations).max() < 1e-15


# ---------------------------------------------------------------------------
# analytic three-level coherence
# ---------------------------------------------------------------------------

def quasi_degenerate_model(rng, split=4e-3):
    omega = np.array([0.0, 1.0, 1.0 + split])
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((3, 3))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)


def retained_12():
    return FrequencyClusters(
        retained=frozenset({(0, 0), (1, 1), (2, 2), (1, 2), (2, 1)}),
        threshold=0.01)


def test_three_level_no_source_no_coherence():
    # kill every coupling into the coherence equation: rho_12 must vanish
    rng = np.random.default_rng(8)
    model = quasi_degenerate_model(rng)
    k2 = build_k2_boson(model, drude_baths(0.9, 0.9))
    k = k2.block(all_pairs(3)).k.reshape(3, 3, 3, 3)
    for i in range(3):
        k[1, 2, i, i] = 0.0
        k[2, 1, i, i] = 0.0
    k[1, 2, 1, 2] = k[1, 2, 1, 2].real      # keep omega_pm finite
    k[1, 2, 2, 1] = 0.0
    k[2, 1, 2, 1] = k[2, 1, 2, 1].real
    k[2, 1, 1, 2] = 0.0
    rho12, pops = three_level_coherence_analytic(
        KernelBlock(3, all_pairs(3), k.reshape(9, 9)), model.omega[1] - model.omega[2])
    assert abs(rho12) < 1e-16
    assert pops.sum() == pytest.approx(1.0, abs=1e-12)


def test_three_level_matches_partial_secular_equilibrium():
    rng = np.random.default_rng(9)
    model = quasi_degenerate_model(rng)
    baths = drude_baths(0.8, 0.8, alpha=1e-3)
    k2 = build_k2_boson(model, baths)
    state = partial_secular_steady(model, k2, retained_12())
    rho12, pops = three_level_coherence_analytic(k2, model.omega[1] - model.omega[2])
    assert abs(rho12) > 0
    assert abs(state.rho[1, 2] - rho12) < 1e-10 * abs(rho12) + 1e-16
    assert np.max(np.abs(state.populations - pops)) < 1e-12


def test_three_level_matches_partial_secular_biased():
    rng = np.random.default_rng(10)
    model = quasi_degenerate_model(rng)
    baths = drude_baths(1.4, 0.5, alpha=1e-3)
    k2 = build_k2_boson(model, baths)
    state = partial_secular_steady(model, k2, retained_12())
    rho12, _ = three_level_coherence_analytic(k2, model.omega[1] - model.omega[2])
    assert abs(state.rho[1, 2] - rho12) < 1e-8 * abs(rho12)


def test_three_level_coherence_peaks_at_rabi_resonance():
    # equilibrium coherence of the three-level truncation: largest near the
    # resonance condition, and growing with temperature
    peaks = []
    eps_grid = np.linspace(0.4, 1.2, 17)
    for t in (0.1, 0.2, 0.5):
        baths = drude_baths(t, t)
        best_eps, best_val = None, -1.0
        for eps in eps_grid:
            params = RabiParams(epsilon=float(eps), delta=0.6, g=0.01,
                                fock_cutoff=13, retained_levels=3)
            model = build_rabi_junction(params)
            k2 = build_k2_boson(model, baths)
            rho12, _ = three_level_coherence_analytic(
                k2, model.omega[1] - model.omega[2])
            if abs(rho12) > best_val:
                best_eps, best_val = float(eps), abs(rho12)
        assert abs(best_eps - 0.8) <= 0.1
        peaks.append(best_val)
    assert peaks[0] < peaks[1] < peaks[2]


def test_three_level_requires_dim3():
    with pytest.raises(ValidationError):
        three_level_coherence_analytic(
            KernelBlock(2, all_pairs(2), np.zeros((4, 4), dtype=complex)), 0.1)
