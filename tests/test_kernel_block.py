"""Retained-block kernel: the block formula against the full tensor, and the
index-array partial-secular solver against a loop transcription of the same
real linear system solved on entries gathered from the full tensor."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrans.config import parse_config_text
from ltrans.currents import partial_secular_state
from ltrans.linalg import ValidationError
from ltrans.model import Reservoir, SpectralDensity, build_junction
from ltrans.rabi import RabiParams, build_rabi_junction
from ltrans.redfield import BosonKernel, KernelBlock, PairLayout, all_pairs, build_k2_boson
from ltrans.steady import partial_secular_steady
from ltrans.sweep import compute_row

import kernel_oracle
from layout_oracle import retained_layout, retained_mask, retained_pair_array


def drude_baths(t_left, t_right, alpha=1e-3, omega_c=5.0):
    sd = SpectralDensity(alpha=alpha, omega_c=omega_c)
    return [Reservoir("L", 1.0 / t_left, sd),
            Reservoir("R", 1.0 / t_right, sd)]


def full_kernel(k2):
    """The rank-4 tensor K[n, m, n', m'] of a kernel: its block over all pairs."""
    n = k2.dim
    return k2.block(all_pairs(n)).k.reshape(n, n, n, n)


def random_junction(seed, dim):
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.uniform(0.0, 2.5, size=dim)) + 0.3 * np.arange(dim)
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((dim, dim))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)


def reference_partial_secular(model, k, retained, lamb_shift):
    """Loop transcription of the partial-secular real system on a full tensor k.

    Unknowns: populations, then (Re, Im) of each retained coherence n < m;
    rows: the same equations, population row 0 replaced by the trace.
    """
    n = model.dim
    bohr = model.bohr_matrix()
    cohs = sorted((a, b) for (a, b) in retained if a < b)
    nun = n + 2 * len(cohs)

    def coeffs(coeff, src):
        out = np.zeros(nun, dtype=complex)
        a, b = src
        if a == b:
            out[a] = coeff
        elif a < b:
            j = n + 2 * cohs.index((a, b))
            out[j], out[j + 1] = coeff, 1j * coeff
        else:
            j = n + 2 * cohs.index((b, a))
            out[j], out[j + 1] = coeff, -1j * coeff
        return out

    mat = np.zeros((nun, nun))
    for r, (rn, rm) in enumerate([(i, i) for i in range(n)] + cohs):
        row = coeffs(-1j * bohr[rn, rm], (rn, rm))
        for (sn, sm) in retained:
            kval = k[rn, rm, sn, sm]
            if not lamb_shift and (sn, sm) == (rn, rm) and rn != rm:
                kval = kval.real
            row += coeffs(kval, (sn, sm))
        if rn == rm:
            mat[rn] = row.real
        else:
            j = n + 2 * cohs.index((rn, rm))
            mat[j], mat[j + 1] = row.real, row.imag
    mat[0] = 0.0
    mat[0, :n] = 1.0
    rhs = np.zeros(nun)
    rhs[0] = 1.0
    x = np.linalg.solve(mat, rhs)
    rho = np.diag(x[:n]).astype(complex)
    for j, (a, b) in enumerate(cohs):
        rho[a, b] = x[n + 2 * j] + 1j * x[n + 2 * j + 1]
        rho[b, a] = np.conj(rho[a, b])
    return rho


@st.composite
def junction_and_retained(draw):
    dim = draw(st.integers(2, 6))
    seed = draw(st.integers(0, 2**32 - 1))
    upper = [(a, b) for a in range(dim) for b in range(a + 1, dim)]
    keep = draw(st.lists(st.booleans(), min_size=len(upper), max_size=len(upper)))
    retained = {(i, i) for i in range(dim)}
    for (a, b), k in zip(upper, keep):
        if k:
            retained |= {(a, b), (b, a)}
    temps = (draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0)))
    return random_junction(seed, dim), frozenset(retained), temps


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=junction_and_retained())
def test_block_equals_full_tensor_entries(case):
    model, retained, (t_l, t_r) = case
    k2 = build_k2_boson(model, drude_baths(t_l, t_r))
    pairs = retained_layout(model.dim, retained).pairs
    block = k2.block(pairs)
    k = full_kernel(k2)
    pn, pm = pairs[:, 0], pairs[:, 1]
    gathered = k[pn[:, None], pm[:, None], pn[None, :], pm[None, :]]
    assert np.max(np.abs(block.k - gathered)) <= 1e-14 * np.max(np.abs(block.k))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(case=junction_and_retained(), lamb_shift=st.booleans())
def test_partial_secular_steady_matches_full_tensor_solve(case, lamb_shift):
    model, retained, (t_l, t_r) = case
    k2 = build_k2_boson(model, drude_baths(t_l, t_r))
    clusters = retained_layout(model.dim, retained)
    state = partial_secular_steady(model, k2, clusters, lamb_shift=lamb_shift)
    ref = reference_partial_secular(model, full_kernel(k2), retained, lamb_shift)
    assert np.max(np.abs(state.rho - ref)) <= 1e-11 * np.max(np.abs(ref))


def test_rabi21_nominal_partial_state_matches_full_tensor_solve():
    # the nominal point of the 21-level partial-secular benchmark sweep
    model = build_rabi_junction(RabiParams(epsilon=0.0, delta=0.9, g=0.2, omega_r=1.0,
                                           fock_cutoff=40, retained_levels=21))
    baths = drude_baths(0.12, 0.08)
    state, _ = partial_secular_state(model, baths)
    n = model.dim
    assert n < len(state.retained_pairs) < n * n  # a proper retained block
    ref = reference_partial_secular(model, full_kernel(build_k2_boson(model, baths)),
                                    frozenset(state.retained_pairs), True)
    assert np.max(np.abs(state.rho - ref)) <= 1e-12


def test_block_breaking_hermiticity_is_rejected():
    model = random_junction(3, 3)
    k2 = build_k2_boson(model, drude_baths(1.0, 0.5))
    pairs = all_pairs(3)
    good = k2.block(pairs)
    bad = good.k.copy()
    bad[1, 3] += 1e-6 * good.norm_max()          # K[(0,1),(1,0)] loses its mirror
    with pytest.raises(ValidationError, match="Hermiticity"):
        PairLayout(3, pairs).check(KernelBlock(3, pairs, bad))
    # an asymmetric coupling matrix breaks the symmetry of the formula itself
    q = k2.q.copy()
    q[0, 0, 1] += 0.1
    with pytest.raises(ValidationError, match="Hermiticity"):
        BosonKernel(q=q, w=k2.w).block(pairs)


def test_block_breaking_the_sum_rule_is_rejected():
    model = random_junction(4, 3)
    block = build_k2_boson(model, drude_baths(1.0, 0.5)).block(all_pairs(3))
    bad = block.k.copy()
    bad[0, 0] += 1e-6 * block.norm_max()         # population rates no longer sum to 0
    with pytest.raises(ValidationError, match="sum rule"):
        PairLayout(3, block.pairs).check(KernelBlock(3, block.pairs, bad))


def test_blocks_need_diagonals_and_swap_closure():
    model = random_junction(5, 3)
    k2 = build_k2_boson(model, drude_baths(1.0, 0.5))
    with pytest.raises(ValidationError, match="closed"):
        k2.block(np.array([[0, 0], [1, 1], [2, 2], [0, 1]]))
    with pytest.raises(ValidationError, match="diagonal"):
        k2.block(np.array([[0, 0], [1, 1], [0, 1], [1, 0]]))
    for retained in ({(0, 0), (1, 1), (2, 2), (1, 2)},
                     {(0, 0), (1, 1), (2, 2), (0, 1), (2, 1)}):
        with pytest.raises(ValidationError, match="closed"):
            PairLayout.retained(retained_mask(3, retained))
    block = k2.block(all_pairs(3))
    assert block.block(all_pairs(3)) is block
    with pytest.raises(ValidationError, match="requested pairs"):
        block.block(all_pairs(3)[::-1])


@st.composite
def symmetric_masks(draw):
    """A symmetric (N, N) retained mask with every diagonal pair, N = 1-8."""
    dim = draw(st.integers(1, 8))
    keep = np.array(draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim)),
                    dtype=bool).reshape(dim, dim)
    keep = np.triu(keep, 1)
    return keep | keep.T | np.eye(dim, dtype=bool)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(keep=symmetric_masks(), pick=st.integers(0, 2**16))
def test_the_retained_layout_is_the_set_transcription(keep, pick):
    # the one layout constructor against the set-based layout it replaced:
    # diagonal pairs, coherences n < m in row-major order, then swapped
    dim = len(keep)
    layout = PairLayout.retained(keep)
    rows = tuple(zip(*(idx.tolist() for idx in np.nonzero(keep))))
    want = retained_pair_array(dim, set(rows))
    assert layout.dim == dim
    assert layout.pairs.dtype == want.dtype and np.array_equal(layout.pairs, want)
    assert layout.retained_pairs == rows
    assert [(n, m) for n, m in zip(*layout.coherences)] == [(n, m) for n, m in rows if n < m]
    rng = np.random.default_rng(pick)
    n, m = rng.integers(dim, size=2)
    if n != m:          # one half of a coherence
        lopsided = keep.copy()
        lopsided[n, m] = ~lopsided[n, m]
        with pytest.raises(ValidationError, match="not closed"):
            PairLayout.retained(lopsided)
    missing = keep.copy()
    missing[n, n] = False
    q, w = np.ones((1, dim, dim)), np.ones((1, dim, dim), dtype=complex)
    with pytest.raises(ValidationError, match="lacks diagonal pairs"):
        PairLayout.retained(missing).block(q, w)


@st.composite
def kernel_inputs(draw):
    """A layout (diagonal pairs alone, a retained set with coherences, or
    every pair), and random Q and W for it over B baths, with no leading
    axis, a temperature axis, or temperature and model axes."""
    kind = draw(st.sampled_from(["diagonal", "retained", "all_pairs"]))
    keep = draw(symmetric_masks())
    dim = len(keep)
    layout = (PairLayout.retained(np.eye(dim, dtype=bool)) if kind == "diagonal" else
              PairLayout.retained(keep) if kind == "retained" else
              PairLayout(dim, all_pairs(dim)))
    lead = draw(st.sampled_from([(), (3,), (3, 2)]))          # (), (T,), (T, R)
    baths = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    x = rng.standard_normal(lead[1:] + (baths, dim, dim))     # Q leads with the models
    w = rng.standard_normal((2,) + lead + (baths, dim, dim))
    return kind, layout, x + x.swapaxes(-1, -2), w[0] + 1j * w[1]


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(inputs=kernel_inputs())
def test_gathered_entries_are_the_matmul_and_mask_entries(inputs):
    # each Kronecker term, gathered where its delta holds, against both terms
    # as full matrix products masked off their deltas: bitwise on diagonal
    # pairs alone (no Kronecker entry outside the sum-rule diagonals), to
    # roundoff of the reordered sums elsewhere; a stacked slice is bitwise
    # its one-slice block
    kind, layout, q, w = inputs
    got = layout.entries(q, w)
    want = kernel_oracle.block_entries(layout.dim, layout.pairs, q, w)
    assert got.shape == want.shape and got.dtype == want.dtype
    if kind == "diagonal":
        assert got.tobytes() == want.tobytes()
    else:
        scale = np.abs(want).max(axis=(-2, -1), keepdims=True)
        assert (np.abs(got - want) <= 1e-14 * scale).all()
    for i in np.ndindex(w.shape[:-3]):
        one = layout.entries(q[i[1:]] if q.ndim > 3 else q, w[i])
        assert one.tobytes() == got[i].tobytes()


TLS_DELTA = """
[model]
type = tls
epsilon = 0.3
delta = 1e-9
[baths]
T_left = {t_left!r}
T_right = {t_right!r}
alpha = 1e-3
omega_c = 5
[solver]
secular = {solver}
[sweep]
variable = delta
scale = log
start = 1e-9
stop = 1e-2
points = 15
[output]
csv = unused.csv
"""


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("bias", [0.0, 0.2])
def test_weakly_mixed_levels_keep_their_population_rates(t, bias):
    # at delta << epsilon no coherence is retained, so the partial solver is
    # the full rate equation; the population diagonal of the kernel is minus
    # the rate out of its level, not the roundoff of two cancelling sums
    rows = {}
    for solver in ("full", "partial"):
        cfg = parse_config_text(TLS_DELTA.format(t_left=t * (1 + bias), t_right=t * (1 - bias),
                                                 solver=solver))
        rows[solver] = np.array([[float(c) for c in compute_row(cfg, d).split(",")[2:7]]
                                 for d in cfg.grid()])
    cells = [0, 3, 4] if bias else [0]      # kappa2, and I_L, I_R of a biased row
    full, partial = rows["full"][:, cells], rows["partial"][:, cells]
    assert np.all(full != 0)
    assert np.all(np.abs(partial - full) <= 1e-12 * np.abs(full))
