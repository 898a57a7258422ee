import dataclasses

import numpy as np
import pytest

from ltrans.linalg import ValidationError
from ltrans.model import JunctionModel, Reservoir, SpectralDensity, build_junction


def test_spectral_density_validation():
    with pytest.raises(ValidationError):
        SpectralDensity(alpha=-1e-3, omega_c=5.0)
    with pytest.raises(ValidationError):
        SpectralDensity(alpha=1e-3, omega_c=0.0)


def test_reservoir_validation():
    sd = SpectralDensity(alpha=1e-3, omega_c=5.0)
    with pytest.raises(ValidationError):
        Reservoir("L", beta=-1.0, spectral=sd)
    r = Reservoir("L", beta=4.0, spectral=sd)
    assert r.temperature == 0.25
    assert r.with_temperature(0.5).beta == 2.0


def test_reservoir_rejects_a_spectral_that_is_not_a_spectral_density():
    for spectral in (None, (1e-3, 5.0)):
        with pytest.raises(ValidationError, match="needs an Ohmic-Drude SpectralDensity"):
            Reservoir("L", beta=2.0, spectral=spectral)


def test_build_junction_tls():
    q = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = build_junction([0.0, 1.0], {"L": q, "R": q})
    assert m.dim == 2
    assert np.array_equal(m.omega, [0.0, 1.0])
    assert np.allclose(m.bohr_matrix(), [[0, -1], [1, 0]])


def test_build_junction_sorting_permutes_q():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((3, 3))
    q = 0.5 * (x + x.T)
    omega = np.array([2.0, 0.5, 1.0])
    m = build_junction(omega, {"L": q})
    order = np.argsort(omega)
    assert np.array_equal(m.omega, omega[order])
    assert np.array_equal(m.q("L"), q[np.ix_(order, order)])


def test_build_junction_rejects_asymmetric():
    q = np.array([[0.0, 1.0], [1.0 + 1e-3, 0.0]])
    with pytest.raises(ValidationError):
        build_junction([0.0, 1.0], {"L": q})


def test_build_junction_symmetrizes_tiny_asymmetry():
    q = np.array([[0.0, 1.0], [1.0 + 1e-14, 0.0]])
    m = build_junction([0.0, 1.0], {"L": q})
    assert np.array_equal(m.q("L"), m.q("L").T)


def test_build_junction_duplicate_ids():
    q = np.zeros((2, 2))
    with pytest.raises(ValidationError):
        build_junction([0.0, 1.0], [("L", q), ("L", q)])


def test_junction_model_holds_levels_and_couplings_only():
    # no bath data: the W tables live with the kernel that evaluates them;
    # the optional sector labels belong to the levels, one per level
    assert [f.name for f in dataclasses.fields(JunctionModel)] == ["omega", "q_ops", "sector"]
    m = build_junction([0.0, 1.0], {"L": np.zeros((2, 2))})
    assert m.sector is None


def test_unknown_reservoir():
    m = build_junction([0.0, 1.0], {"L": np.zeros((2, 2))})
    with pytest.raises(ValidationError):
        m.q("R")
