"""Parity sectors of the zero-bias junctions.

At epsilon = 0 the Rabi Hamiltonian commutes with the parity
Pi = sigma_x (-1)^(a^dag a), and the two-level one with sigma_x; both bath
couplings are odd under it.  The builders label each level with its parity
(`JunctionModel.sector`), and the partial-secular clustering then retains no
coherence between two sectors.  Such a coherence is zero in the dense
Redfield steady state, so dropping it changes no result beyond roundoff, and
a sweep that mixes labelled and unlabelled models in one stack writes the
rows of its one-point solves.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ltrans import sweep
from ltrans.baths import coupled_frequencies, dw_dt_table, w_table
from ltrans.config import parse_config_text
from ltrans.currents import kappa2_sweep
from ltrans.linalg import ValidationError
from ltrans.model import COUPLING_RTOL, Reservoir, SpectralDensity, stack_models
from ltrans.rabi import RabiParams, build_rabi_junction

from kappa2_oracle import current_terms
from rabi_oracle import rabi_hamiltonian
from test_paper_claims import dense_redfield_state

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def rabi_or_none(delta, g, keep, cutoff=40):
    """The zero-bias Rabi junction, or None where its Fock cutoff is too small."""
    try:
        return build_rabi_junction(RabiParams(0.0, delta, g, fock_cutoff=cutoff,
                                              retained_levels=keep))
    except ValidationError:
        return None


# zero-bias junctions: Rabi (delta, g, retained levels) or the two-level one
# (|delta|, its sign); the Rabi levels come in near-degenerate parity
# doublets from g ~ 0.5 on
JUNCTIONS = (st.tuples(st.just("rabi"), st.floats(0.1, 2.0), st.floats(0.0, 1.0),
                       st.integers(2, 10))
             | st.tuples(st.just("tls"), st.floats(0.1, 2.0), st.sampled_from([1.0, -1.0])))


def zero_bias_junction(spec):
    if spec[0] == "tls":
        return sweep._tls_junction(0.0, spec[1] * spec[2])
    model = rabi_or_none(*spec[1:])
    assume(model is not None)
    return model


def bath_pair(t_left, t_right, alpha=1e-3, omega_c=5.0):
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    return [Reservoir("L", 1.0 / t_left, sd), Reservoir("R", 1.0 / t_right, sd)]


def cross_sector(model):
    """The mask of the level pairs (n, m) whose labels differ."""
    return model.sector[:, None] != model.sector[None, :]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(delta=st.floats(0.1, 2.0), g=st.floats(0.0, 1.0), keep=st.integers(2, 12))
def test_rabi_labels_are_the_parities_of_the_dense_eigenvectors(delta, g, keep):
    # Pi on the block-ordered Fock space of the dense oracle, index
    # s * N + n; within a cluster of degenerate levels (g = 0 at integer
    # delta) the dense eigenvectors may mix two parities, so the labels of
    # each cluster are compared as the eigenvalues of Pi on it
    model = rabi_or_none(delta, g, keep)
    assume(model is not None)
    n = 40
    h = rabi_hamiltonian(RabiParams(0.0, delta, g, fock_cutoff=n), n)
    parity = np.kron(SIGMA_X, np.diag(np.where(np.arange(n) % 2, -1.0, 1.0)))
    assert np.array_equal(h @ parity, parity @ h)
    lam, v = np.linalg.eigh(h)
    lam, v = lam[:keep], v[:, :keep]
    assert np.max(np.abs(lam - model.omega)) <= 1e-12
    assert set(model.sector.tolist()) <= {-1, 1}
    edges = np.flatnonzero(np.diff(lam) > 1e-9) + 1
    for cluster in np.split(np.arange(keep), edges):
        block = v[:, cluster].T @ parity @ v[:, cluster]
        parities = np.linalg.eigvalsh(0.5 * (block + block.T))
        assert np.max(np.abs(np.abs(parities) - 1.0)) <= 1e-10
        assert sorted(model.sector[cluster].tolist()) == sorted(np.rint(parities).tolist())


@pytest.mark.parametrize("delta", [1.0, 0.3, -0.7])
def test_tls_labels_are_the_sigma_x_eigenvalues(delta):
    h = -0.5 * delta * SIGMA_X
    _, v = np.linalg.eigh(h)
    model = sweep._tls_junction(0.0, delta)
    assert model.sector.tolist() == np.rint(np.diag(v.T @ SIGMA_X @ v)).tolist()
    # H = 0 at delta = 0: any basis diagonalizes it, so both levels share one
    # sector; a biased qubit has no parity
    assert sweep._tls_junction(0.0, 0.0).sector.tolist() == [0, 0]
    assert sweep._tls_junction(0.3, delta).sector is None


def test_a_biased_rabi_model_has_no_labels():
    assert build_rabi_junction(RabiParams(0.2, 0.9, 0.2)).sector is None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=JUNCTIONS, t_left=st.floats(0.05, 1.0), t_right=st.floats(0.05, 1.0))
def test_the_dense_redfield_state_has_no_coherence_across_two_sectors(spec, t_left,
                                                                      t_right):
    # every pair retained, no clustering: the odd block of the Redfield map
    # decouples from the populations, up to the roundoff of the coupling
    # entries that the parity makes zero
    model = zero_bias_junction(spec)
    rho = dense_redfield_state(model, bath_pair(t_left, t_right))
    assert np.max(np.abs(rho[cross_sector(model)])) <= 1e-12 * np.max(np.abs(rho))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(spec=JUNCTIONS, cutoff=st.integers(30, 60))
def test_two_sectors_mean_odd_couplings(spec, cutoff):
    # the builders label two sectors only where every coupling is odd: no
    # coupling joins two levels of one sector beyond roundoff of the model's
    # largest coupling over both baths (the floor of `gamma_rates`; one
    # bath's couplings among the retained levels may all be roundoff, as
    # the resonator's at g = 0 between the two lowest levels)
    if spec[0] == "rabi":
        model = rabi_or_none(*spec[1:], cutoff=cutoff)
        assume(model is not None)
    else:
        model = zero_bias_junction(spec)
    assume(len(set(model.sector.tolist())) == 2)
    same = ~cross_sector(model)
    largest = max(np.abs(q).max() for q in model.q_ops.values())
    for q in model.q_ops.values():
        assert np.abs(q[same]).max() <= COUPLING_RTOL * largest


@pytest.mark.parametrize("even,rejected", [(1e-3, True), (1e-14, False)])
def test_a_two_sector_model_with_an_even_coupling_is_rejected(even, rejected):
    # the coupled-pair tables hold zeros between two levels of one sector, so
    # a model that labels two sectors and couples two such levels beyond
    # roundoff is refused, alone or in a stack with an unlabelled model;
    # roundoff of a same-sector coupling is not
    model = sweep._tls_junction(0.0, 0.7)
    q = model.q("R") + np.diag([even, -even])
    mixed = replace(model, q_ops={**model.q_ops, "R": q})
    stack = stack_models([sweep._tls_junction(0.3, 0.7), mixed])
    baths = bath_pair(0.12, 0.08)
    for candidate in (mixed, stack):
        if rejected:
            with pytest.raises(ValidationError, match="odd couplings"):
                coupled_frequencies(candidate)
        else:
            assert coupled_frequencies(candidate).mask is not None
    if rejected:
        with pytest.raises(ValidationError, match="odd couplings"):
            kappa2_sweep(mixed, baths, [0.1], "partial", biased=True)
    else:
        entry = kappa2_sweep(mixed, baths, [0.1], "partial", biased=True)[0]
        assert np.isfinite(entry.kappa2)


def stack_member(kind, epsilon, delta, g, keep, labelled):
    """A model of a stack that mixes labelled and unlabelled models: the
    Rabi or two-level junction at qubit bias epsilon, with its labels or
    without them."""
    if kind == "tls":
        model = sweep._tls_junction(epsilon, delta)
    else:
        try:
            model = build_rabi_junction(RabiParams(epsilon, delta, g, fock_cutoff=40,
                                                   retained_levels=keep))
        except ValidationError:
            assume(False)
    return model if labelled else replace(model, sector=None)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(kind=st.sampled_from(["rabi", "tls"]), keep=st.integers(2, 8),
       members=st.lists(st.tuples(st.sampled_from([0.0, 0.0, 0.15, -0.3]),
                                  st.floats(0.0, 2.0), st.floats(0.0, 0.6), st.booleans()),
                        min_size=1, max_size=4),
       temps=st.lists(st.floats(1e-3, 3.0), min_size=1, max_size=3))
def test_coupled_pair_tables_are_bitwise_the_dense_ones(kind, keep, members, temps):
    # W and dW/dT on the coupled pairs carry the bits of the dense tables
    # there, model by model of a stack that mixes zero-bias (two sectors, or
    # one at epsilon = delta = 0) and biased or unlabelled models, as an
    # epsilon sweep through zero stacks them; the pairs no coupling joins
    # hold zeros
    models = [stack_member(kind, eps, delta, g, keep if kind == "rabi" else 2, labelled)
              for eps, delta, g, labelled in members]
    stack = stack_models(models)
    coupled = coupled_frequencies(stack)
    mask = np.ones(stack.bohr_matrix().shape, dtype=bool)
    for r, model in enumerate(models):
        if model.sector is not None and len(set(model.sector.tolist())) == 2:
            mask[r] = cross_sector(model)
    assert np.array_equal(mask, np.ones_like(mask) if coupled.mask is None else coupled.mask)
    bath = Reservoir("L", 1.0 / np.array(temps), SpectralDensity(alpha=1e-3, omega_c=5.0))
    for table in (w_table, dw_dt_table):
        got = table(coupled, bath)
        want = table(stack.bohr_matrix(), bath)
        assert got[..., mask].tobytes() == want[..., mask].tobytes()
        assert not got[..., ~mask].any()


def entry_or_error(model, baths, t_mean, solver, c, biased):
    """The `kappa2_sweep` entry of one model, or the ValidationError it raises."""
    try:
        return kappa2_sweep(model, baths, [t_mean], solver, c=c, biased=biased)[0]
    except ValidationError as exc:
        return exc


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=JUNCTIONS, solver=st.sampled_from(["full", "partial"]),
       c=st.sampled_from([10.0, 1e3, 1e12]), t_left=st.floats(0.05, 1.0),
       bias=st.sampled_from([1.0, 1.5]))
def test_the_labelled_solve_is_the_unlabelled_one(spec, solver, c, t_left, bias):
    # the unlabelled model retains the cross-sector coherences that the
    # labelled one drops (every pair at c = 1e12), and the two agree to
    # roundoff: 1e-12 relative, above a floor at 1e-13 of the current's
    # terms (of the terms over T for kappa2).  The floor covers zero-bias
    # currents, which are roundoff of an exact zero on the full solver, and
    # the currents and kappa2 that cancel to a small part of their terms (a
    # weak qubit-resonator coupling, a large c): there any two solves differ
    # by up to 1e-15 of the terms.  A model the solver rejects is rejected
    # alike
    model = zero_bias_junction(spec)
    t_right = t_left * bias
    t_mean = 0.5 * (t_left + t_right)
    baths = bath_pair(t_left, t_right)
    got, want = (entry_or_error(m, baths, t_mean, solver, c, bias != 1.0)
                 for m in (model, replace(model, sector=None)))
    if isinstance(want, Exception):
        assert type(got) is type(want) and str(got) == str(want)
        return
    assert not isinstance(got, Exception), got
    terms = current_terms(model, baths, want.state.rho)
    assert got.kappa2 == pytest.approx(want.kappa2, rel=1e-12,
                                       abs=1e-13 * terms["R"] / t_mean)
    for rid in ("L", "R"):
        assert got.currents[rid] == pytest.approx(want.currents[rid], rel=1e-12,
                                                  abs=1e-13 * terms[rid])
    if solver == "partial":
        kept = np.zeros(cross_sector(model).shape, dtype=bool)
        for n, m in got.state.retained_pairs:
            kept[n, m] = True
        assert not (kept & cross_sector(model)).any()


EPSILON_SWEEP = """
[model]
type = {model_type}
{model}
[baths]
T_left = 0.12
T_right = 0.08
alpha = 1e-3
omega_c = 5
[solver]
secular = partial
cluster_factor = {c}
[sweep]
variable = epsilon
start = -0.2
stop = 0.2
points = 9
"""


@pytest.mark.parametrize("model_type,model", [
    ("rabi", "epsilon = 0\ndelta = 0.9\ng = 0.3\nretained_levels = 6\nfock_cutoff = 30"),
    ("tls", "epsilon = 0\ndelta = 1"),
])
@pytest.mark.parametrize("c", [10.0, 1e4])
def test_an_epsilon_sweep_through_zero_writes_its_one_point_rows(tmp_path, model_type,
                                                                 model, c):
    # the grid holds epsilon = 0, whose labelled model is stacked with the
    # unlabelled biased ones in one chunk; at c = 1e4 its labels drop
    # retained pairs that its neighbours keep
    text = EPSILON_SWEEP.format(model_type=model_type, model=model, c=c)
    cfg = parse_config_text(text + f"[output]\ncsv = {tmp_path / 'out.csv'}\n")
    grid = [float(v) for v in cfg.grid()]
    models = [sweep._junction(cfg, {**cfg.model, "epsilon": v}) for v in grid]
    assert [m.sector is not None for m in models] == [v == 0.0 for v in grid]
    assert 0.0 in grid
    result = sweep.run_sweep(cfg, workers=1)
    assert result.ok, result.failures
    with open(result.csv_path, encoding="utf-8") as fh:
        rows = fh.read().splitlines()[1:]
    assert rows == [sweep.compute_row(cfg, v) for v in grid]


@pytest.mark.parametrize("keep,cutoff", [(5, 40), (21, 60)])
@pytest.mark.parametrize("solver", ["full", "partial"])
def test_the_resonant_uncoupled_rabi_row_is_finite_and_carries_no_heat(solver, keep,
                                                                      cutoff):
    # at g = 0 and delta = omega_r, levels 1 and 2 (both at 1/2) are exactly
    # degenerate within one sector, and their coupling is roundoff of an
    # exact zero (Q_L[1, 2] = 4e-17 of max|Q| = 1.41 at 5 levels), so the
    # full-secular rate equation is defined there.  The qubit and the
    # resonator are apart, so no heat passes between the baths: kappa2 and
    # the biased currents vanish to the roundoff of their terms
    model = build_rabi_junction(RabiParams(0.0, 1.0, 0.0, fock_cutoff=cutoff,
                                           retained_levels=keep))
    assert abs(model.q("L")[1, 2]) > 0.0 and model.sector[1] == model.sector[2]
    [res] = kappa2_sweep(model, bath_pair(0.12, 0.08), [0.1], solver, biased=True)
    assert not isinstance(res, Exception), res
    terms = current_terms(model, bath_pair(0.1, 0.1), res.state.rho)
    assert abs(res.kappa2) <= 1e-13 * terms["R"] / 0.1
    biased_terms = current_terms(model, bath_pair(0.12, 0.08), res.state.rho)
    for rid in ("L", "R"):
        assert abs(res.currents[rid]) <= 1e-13 * biased_terms[rid]
    text = EPSILON_SWEEP.format(model_type="rabi", c=10.0, model=(
        f"epsilon = 0\ndelta = 1\ng = 0\nretained_levels = {keep}\nfock_cutoff = {cutoff}"))
    cfg = parse_config_text(text.replace("secular = partial", f"secular = {solver}")
                            + "[output]\ncsv = out.csv\n")
    cells = sweep.compute_row(cfg, 0.0).split(",")
    assert np.isfinite([float(v) for v in cells[1:-2]]).all()
    assert float(cells[2]) == res.kappa2
