"""Steady-state heat and particle currents and linear thermal conductances.

Second-order (sequential) currents come in a secular population form and a
general form with coherences; currents per bath are a plain dict
{bath id: heat current into the bath}, as `heat_current_2nd_secular`,
`partial_secular_state`, `Kappa2Response.currents` and `DotTransport`
return them.  The sequential conductance is their linear response to the
heated bath's temperature, one closed-form derivative for both secular
solvers.  `kappa2_sweep` computes it over a whole temperature
axis, or at one temperature over a stack of models, in slices of bounded
size: one set of bath tables per slice, and one pair layout, one batched
solve and one contraction of kappa2 and of each bath's current per set of
temperatures (or models) that share a retained-pair set, the set that
`ltrans.steady.retained_pair_mask` gives each slice; `kappa2` is its
one-temperature, one-model case.  A biased row's own steady state, at the
baths' temperatures, is one more slice of that stack.  A failing entry
fails alone, and `kappa2_sweep` is the one place that sees to it: it
solves again each half of a slice of entries that raises, down to single
entries, while everything below it lets an exception rise; a call with a
single entry raises its failure.  The
fourth-order (cotunneling) channel is the closed-form low-temperature T^3
conductance; its frequency-quadrature kernel is a test oracle and lives
with the tests.  Closed-form two-level and single-dot expressions are kept
alongside as regression anchors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baths import (bose_signed, coupled_frequencies, dw_dt_real, dw_dt_table, occupation,
                    w_table)
from .linalg import ValidationError
from .model import JunctionModel, Reservoir
from .redfield import (DEGENERACY_TOL, BosonKernel, PairLayout, RateMatrix, _find,
                       build_k2_boson, gamma_rates, stacked_w_tables)
from .steady import (DEFAULT_CLUSTER_FACTOR, SteadyState, check_cluster_scale,
                     cluster_bohr_frequencies, full_secular_steady, partial_secular_response,
                     partial_secular_steady, retained_pair_mask)

__all__ = ["heat_current_2nd_secular",
           "heat_current_2nd_general", "kappa4_lowT", "kappa2", "kappa2_sweep",
           "Kappa2Response", "tls_closed_forms", "dot_transport",
           "DotTransport", "partial_secular_state"]


# ---------------------------------------------------------------------------
# second order
# ---------------------------------------------------------------------------

def _secular_current(wdiff: np.ndarray, g: np.ndarray, p: np.ndarray):
    """sum_{n,m} wdiff[n, m] g[n, m] p[m], per slice.

    g and p may carry a leading axis over slices (temperatures, or models),
    and wdiff the same axis or none: the result is then an array over it,
    each entry bitwise the one-slice sum (a float).
    """
    out = np.einsum("...nm,...nm,...m->...", wdiff, g, p)
    return out if out.ndim else float(out)


def heat_current_2nd_secular(model: JunctionModel, rates: RateMatrix,
                             state: SteadyState) -> dict[str, float]:
    """{bath id: I_r}, I_r = sum_{n,m} (w_m - w_n) gamma^r[n, m] rho_mm.

    Each current is into its bath, in units of omega_ref^2.
    """
    p = state.populations
    wdiff = model.omega[None, :] - model.omega[:, None]   # w_m - w_n
    return {rid: _secular_current(wdiff, g, p) for rid, g in rates.per_reservoir.items()}


def heat_current_2nd_general(model: JunctionModel, baths: list[Reservoir],
                             reservoir_id: str, state: SteadyState) -> float:
    """Coherence-resolved current -2 Re sum Q_mn Q_nm' Wbar(w_nm) rho_m'm."""
    bath = _find(baths, reservoir_id)
    bohr = model.bohr_matrix()
    return _wbar_current(model.q(bath.id), bohr * w_table(bohr, bath), state.rho)


# from this many levels on, the current sums over p first as q @ rho; below,
# one einsum pass over all N^3 index triples is quicker
_MATMUL_FROM_DIM = 8


def _wbar_current(q: np.ndarray, wbar: np.ndarray, rho: np.ndarray):
    """The current into the bath of coupling q and table wbar = w_nm W, for the state rho.

    -2 Re sum_{m,n,p} q[m,n] q[n,p] wbar[n,m] rho[p,m], per slice: wbar and
    rho may carry a leading axis over slices (temperatures, or models), and
    q the same axis (one model per slice) or none; the result is then an
    array over it, each entry bitwise the one-slice sum (a float).  The
    formally divergent zero-time correlation term i <B(0)B(0)> of wbar is
    omitted: it multiplies Im Tr(Q^2 rho), which vanishes for Hermitian rho.
    """
    if q.shape[-1] < _MATMUL_FROM_DIM:
        total = np.einsum("...mn,...np,...nm,...pm->...", q, q, wbar, rho)
    else:
        total = (q.swapaxes(-1, -2) * wbar * (q @ rho)).sum(axis=(-2, -1))
    out = -2.0 * total.real
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# fourth order, low temperature
# ---------------------------------------------------------------------------

def _virtual_state_terms(model: JunctionModel, q_r: np.ndarray, q_o: np.ndarray,
                         states=None) -> np.ndarray:
    """Terms of the low-T virtual-state sums, t[k, j] = q_o[n, k] q_r[k, n] / w_kn.

    n = states[j] (every level by default) and w_kn = omega_k - omega_n; the
    entry k = n is zero, and sum_k t[k, j] is the virtual-state amplitude of
    level n.  Raises ValidationError when a level k != n is degenerate with
    n (|w_kn| <= DEGENERACY_TOL, the rule of `gamma_rates`), where the
    sums diverge.
    """
    cols = np.arange(model.dim) if states is None else np.asarray(states)
    bohr = model.bohr_matrix()[:, cols]
    bohr[cols, np.arange(len(cols))] = np.inf      # k = n: no term
    if not np.abs(bohr).min() > DEGENERACY_TOL:
        k, j = np.argwhere(np.abs(bohr) <= DEGENERACY_TOL)[0]
        raise ValidationError(f"levels {k} and {cols[j]} are degenerate; the "
                              "low-temperature virtual-state sum diverges")
    return q_o[cols, :].T * q_r[:, cols] / bohr


def _ground_virtual_sum_squared(model: JunctionModel, q_r: np.ndarray,
                                q_o: np.ndarray) -> float:
    """(sum_{k >= 1} Q_o[0,k] Q_r[k,0] / w_k0)^2, the ground-state cotunneling weight."""
    amplitude = float(_virtual_state_terms(model, q_r, q_o, [0]).sum())
    return amplitude * amplitude


def kappa4_lowT(model: JunctionModel, alpha: float, temperature):
    """Closed-form cotunneling conductance (32 pi^5 / 15) alpha^2 T^3 * S^2.

    S sums the signed products of the coupling matrix elements to the baths
    "L" and "R" over the virtual intermediate states; opposite signs between
    quasi-degenerate levels interfere destructively and suppress the
    conductance.  S depends on the model alone: over an array of
    temperatures it is summed once, and the result is an array of their
    shape (a float for one temperature).
    """
    if model.omega.ndim != 1:
        raise ValidationError("kappa4_lowT takes one model, not a model stack")
    if model.dim < 2 or not (model.omega[1] - model.omega[0]) > 0:
        raise ValidationError("kappa4 needs a gapped, non-degenerate ground state")
    s = _ground_virtual_sum_squared(model, model.q("R"), model.q("L"))
    head = 32.0 * np.pi**5 * alpha**2
    # float arithmetic per temperature: numpy's t**3 differs from it in the
    # last bit, and each entry stays bitwise the one-temperature value
    t = np.asarray(temperature, dtype=float)
    k4 = np.array([head * v**3 / 15.0 * s for v in t.ravel().tolist()]).reshape(t.shape)
    return k4 if k4.ndim else float(k4)


# ---------------------------------------------------------------------------
# linear conductance, second order
# ---------------------------------------------------------------------------

def _rate_scale(rates: np.ndarray):
    """The largest of the population rates 2 sum_baths Q_nm Q_mn Re W_nm
    (`BosonKernel.population_rates`), per temperature."""
    return np.abs(rates).max(axis=(-2, -1))


def partial_secular_state(model: JunctionModel, baths: list[Reservoir],
                          c: float = DEFAULT_CLUSTER_FACTOR, lamb_shift: bool = True
                          ) -> tuple[SteadyState, dict[str, float]]:
    """Build the kernel, cluster the spectrum, and solve; returns (state, currents).

    currents maps each bath id to the heat current of the state into it.  The
    W tables of the kernel (`build_k2_boson`) serve the clustering scale (the
    population rates 2 sum_baths Q_nm Q_mn Re W_nm), the kernel and the
    currents, and live only for this call.  The solver evaluates (and checks)
    only the kernel block of the retained pairs, so no N^4 array is built.
    One temperature per bath.
    """
    k2 = build_k2_boson(model, baths)
    clusters = cluster_bohr_frequencies(model, float(_rate_scale(k2.population_rates())), c)
    state = partial_secular_steady(model, k2, clusters, lamb_shift=lamb_shift)
    wbar = model.bohr_matrix() * k2.w
    return state, {b.id: _wbar_current(q, wb, state.rho)
                   for b, q, wb in zip(baths, k2.q, wbar)}


@dataclass(frozen=True)
class Kappa2Response:
    """kappa2, the steady state rho0 it solved at the common temperature, and
    the currents of the row's own steady state: one entry of `kappa2_sweep`.

    currents maps each bath id to the heat current into it of rho0 at zero
    bias, or, on a biased stack (`kappa2_sweep` with biased=True), of the
    steady state of the baths at their own temperatures: from
    `heat_current_2nd_secular` of the full solver's rate matrix, or from the
    W tables of the partial solver's kernel.
    """

    kappa2: float
    state: SteadyState
    currents: dict[str, float]


def _isolated(rows: np.ndarray, solve, *args) -> list:
    """solve(rows, *args), one result per row; if it raises, each half again,
    down to single rows, which then get their exception in place of a result.

    One failing row of n costs about 2 log2(n) calls; a stacked slice is
    bitwise its one-slice value, so the split does not change a result.
    """
    try:
        return solve(rows, *args)
    except Exception as exc:  # noqa: BLE001  (per-row isolation is the point)
        if len(rows) == 1:
            return [exc]
        half = len(rows) // 2
        return _isolated(rows[:half], solve, *args) + _isolated(rows[half:], solve, *args)


# the most entries of one stacked array (W tables of a slice of temperatures
# or models, or the systems of a slice of a retained-pair group): a long
# sweep is solved in slices of this size, so its memory does not grow with
# its length
_STACK_ENTRIES = 1 << 14


def kappa2_sweep(model: JunctionModel, baths: list[Reservoir], temperatures,
                 solver: str = "full", c: float = DEFAULT_CLUSTER_FACTOR,
                 lamb_shift: bool = True,
                 biased: bool = False) -> list[Kappa2Response | Exception]:
    """Sequential-tunneling thermal conductance dI_r/dT_h at every temperature
    of a 1-d array, or at one temperature on every model of a model stack.

    r is the measured bath, the last of `baths`, and h the heated one.
    Linear response: the steady state rho0 of L at T, then L drho =
    -(dL/dT_h) rho0, and kappa2 is the current into r of drho.  The
    kernel is linear in W, so dL/dT_h is the kernel of bath h alone over the
    table dW/dT.  solver="full" reads its population rates, which need only
    Re dW/dT (`dw_dt_real`), and solves with the rate matrix of
    `gamma_rates`; solver="partial" reads its block over the pairs retained
    at T (clusters held fixed, `dw_dt_table`) and solves the partial-secular
    system (`partial_secular_response`).  At zero bias rho0 is the steady
    state of the baths themselves, so their currents need no second solve.

    A single model is a one-model stack.  Returns one entry per temperature
    of a one-model stack, or per model of a model stack: its
    `Kappa2Response`, or, when there are several entries, the exception
    that the entry alone raises.  The W (or Re W) and
    dW/dT tables are evaluated once per slice of temperatures or models
    (`_STACK_ENTRIES` bounds its arrays).  The full solver solves a slice
    in one batched `full_secular_steady`; the partial solver groups the
    entries of a slice by the retained-pair set their rate scales give
    (`_cluster_groups`, `ltrans.steady.retained_pair_mask`), across models,
    and solves each group in one batched `partial_secular_response` (in
    slices, for large sets).  kappa2 and each bath's current are contracted
    once per stacked solve, every entry bitwise the one-temperature,
    one-model contraction.
    A failure is isolated here and nowhere below: if a slice of entries
    raises, each half of it is solved again, down to single entries
    (`_isolated`), so that a failure stays with its own entry, whether a
    solve or a check of one model (`gamma_rates` rejects a degenerate
    coupled pair) raised it.  A call with a single entry has no neighbours
    to protect and raises its failure.  Invalid arguments raise at once.

    Only the ids and spectral densities of the baths are read, unless
    `biased`: then `temperatures` holds one temperature (the mean of the
    baths'), and the steady state of the baths at their own temperatures
    (one per bath) is one more slice of the stack per model.  It shares the
    W-table call, the kernel-block evaluation and, when it keeps the same
    retained pairs, the factorization of the state at the mean temperature;
    no response is solved for it, and its currents replace rho0's.  An
    entry that fails is then kappa2's exception if kappa2 fails alone, else
    the biased entry's.
    """
    ts = np.asarray(temperatures, dtype=float)
    if ts.ndim != 1:
        raise ValidationError("temperatures must be a 1-d array")
    if not (ts > 0).all():
        raise ValidationError("temperature must be positive")
    if len(baths) != 2:
        raise ValidationError("kappa2 needs exactly two baths")
    if solver not in ("full", "partial"):
        raise ValidationError(f"unknown solver {solver!r}")
    if not c >= 0:
        raise ValidationError(f"cluster factor must be >= 0, got {c!r}")
    if biased and (len(ts) != 1 or any(np.ndim(b.beta) for b in baths)):
        raise ValidationError("a biased stack takes one mean temperature and one "
                              "temperature per bath")
    if model.omega.ndim == 1:
        model = model.take(None)
    models = len(model.omega)
    if models > 1 and len(ts) != 1:
        raise ValidationError("a model stack takes one temperature")
    args = (model, ts, baths, solver, c, lamb_shift, biased)
    entries = max(models, len(ts))
    if entries == 1:
        return _entries(np.arange(1), *args)
    # per slice, the W table holds up to three distinct temperatures
    step = max(1, _STACK_ENTRIES // (model.dim**2 * (3 if biased else 1)))
    return [res for i in range(0, entries, step)
            for res in _isolated(np.arange(i, min(i + step, entries)), _entries, *args)]


def _entries(rows: np.ndarray, model: JunctionModel, ts: np.ndarray, baths: list[Reservoir],
             solver: str, c: float, lamb_shift: bool, biased: bool) -> list:
    """`_kappa2_stack` on the entries `rows` of a `kappa2_sweep` call: the
    temperatures `rows` of a one-model stack, or its models `rows`.

    A single biased entry that raises is solved again without its biased
    slice, so that kappa2's own exception, if it fails alone, is the entry's.
    """
    model, ts = (model.take(rows), ts) if len(model.omega) > 1 else (model, ts[rows])
    try:
        return _kappa2_stack(model, ts, baths, solver, c, lamb_shift, biased)
    except Exception:
        if biased and len(rows) == 1:
            _kappa2_stack(model, ts, baths, solver, c, lamb_shift, False)
        raise


def _kappa2_stack(model: JunctionModel, ts: np.ndarray, baths: list[Reservoir],
                  solver: str, c: float, lamb_shift: bool, biased: bool) -> list:
    """`kappa2_sweep` at the temperatures ts on a model stack, one stack of
    tables; raises if any slice fails.

    The slices of the stack run over the temperatures and, within each, over
    the R models: slice j < n = len(ts) * R holds both baths at ts[j // R]
    on model j % R, and a biased stack adds slice n + j for model j, each
    bath at its own temperature.  Every slice is solved for its steady
    state, the first n also for their response.  The tables lead with
    (temperature, model) axes, which `flat` joins into the slice axis.
    """
    models = len(model.omega)
    n = len(ts) * models
    at = np.arange(n + models * biased) % models       # the model of each slice
    beta = 1.0 / ts         # one object for all baths, whose W tables it shares
    heated = Reservoir(baths[0].id, beta, baths[0].spectral)  # baths[1] is the measured one
    stacked = ([Reservoir(b.id, np.append(beta, b.beta), b.spectral) for b in baths]
               if biased else [heated, Reservoir(baths[1].id, beta, baths[1].spectral)])
    q_h = model.q(heated.id)[:, None]
    bohr = model.bohr_matrix()
    flat = (-1,) + bohr.shape[1:]                      # (slice, N, N)

    def slices(state, kappa2, currents):
        """(state, kappa2, currents) per slice of a stacked solve.

        kappa2 is an array over the first slices (those with a response,
        perhaps none); currents maps each bath id to an array over every slice.
        """
        kappa2 = kappa2.tolist() + [None] * (len(state.rho) - len(kappa2))
        per_slice = zip(*[v.tolist() for v in currents.values()])
        return [(SteadyState(rho, state.retained_pairs), k, dict(zip(currents, c)))
                for rho, k, c in zip(state.rho, kappa2, per_slice)]

    if solver == "full":
        rates = gamma_rates(model, stacked)
        rates = RateMatrix(rates.gamma.reshape(flat),
                           {k: g.reshape(flat) for k, g in rates.per_reservoir.items()})
        dgamma = BosonKernel(q=q_h, w=dw_dt_real(bohr, heated)[..., None, :, :]
                             ).population_rates().reshape(flat)
        d = np.arange(model.dim)
        dgamma[..., d, d] = -dgamma.sum(axis=-2)
        wdiff = (model.omega[:, None, :] - model.omega[:, :, None])[at]
        state = full_secular_steady(rates)
        currents = {k: _secular_current(wdiff, g, state.populations)
                    for k, g in rates.per_reservoir.items()}
        a = rates.gamma[:n].copy()
        a[..., 0, :] = 1.0
        rhs = -(dgamma @ state.populations[:n, :, None])
        rhs[..., 0, :] = 0.0
        dp = np.linalg.solve(a, rhs)[..., 0]
        kappa2 = _secular_current(wdiff[:n], rates.per_reservoir[baths[1].id][:n], dp)
        return _responses(slices(state, kappa2, currents), n, biased)

    # the W and dW/dT tables of the stack share one set of coupled pairs
    # and one sort of their Bohr frequencies
    coupled = coupled_frequencies(model)
    q = np.stack([model.q(b.id) for b in stacked], axis=-3)
    w = stacked_w_tables(coupled, stacked)
    rates = BosonKernel(q=q, w=w).population_rates().reshape(flat)
    w = w.reshape(flat[:1] + w.shape[-3:])
    # dK/dT_h is evaluated unchecked: on cold rows its entries cancel far
    # below the dephasing terms they are made of, so a sum-rule test against
    # the block's own largest entry would fail on roundoff
    dw = dw_dt_table(coupled, heated).reshape(flat)[:, None]

    # solve the slices of each retained-pair set together
    solved: list = [None] * len(at)
    for layout, rows in _cluster_groups(model, _rate_scale(rates), c):
        size = max(1, _STACK_ENTRIES // len(layout.pairs)**2)
        for s in range(0, len(rows), size):
            # the models, coupling matrices (all baths, heated bath) and
            # tables of the slices idx, on the group's retained pairs
            idx = rows[s:s + size]
            mi = at[idx]
            sub = JunctionModel(model.omega[mi])
            q_s, w_s = q[mi], w[idx]
            wbar = sub.bohr_matrix()[:, None] * w_s
            kernel = layout.block(q_s, w_s, rates[idx])
            m = np.count_nonzero(idx < n)          # idx ascends, so these lead it
            dk = layout.entries(q_h[mi[:m]], dw[idx[:m]])
            state, drho = partial_secular_response(sub, kernel, dk, layout, lamb_shift)
            kappa2 = _wbar_current(q_s[:m, 1], wbar[:m, 1], drho)
            currents = {b.id: _wbar_current(q_s[:, j], wbar[:, j], state.rho)
                        for j, b in enumerate(baths)}
            for i, res in zip(idx.tolist(), slices(state, kappa2, currents)):
                solved[i] = res
    return _responses(solved, n, biased)


def _cluster_groups(model: JunctionModel, scales: np.ndarray, c: float) -> list:
    """The retained-pair sets of the Bohr spectra of a stack of R models at
    the rate scales `scales`, scale i on model i % R.

    Returns (layout, rows) per distinct set, in the order of their first
    rows: the `PairLayout.retained` layout of the set
    (`retained_pair_mask`, at the threshold of the first of the rows) and
    the ascending indices of the scales that retain it.  The mask of the
    retained pairs names the set, across the models of the stack as within
    one.  Raises the error of `check_cluster_scale` for the first scale it
    rejects; `kappa2_sweep` keeps that failure with its own entry.
    """
    scales = scales.tolist()
    for scale in scales:
        check_cluster_scale(scale, c)
    thresholds = [c * s for s in scales]       # in floats: 0 * inf is a silent NaN
    keep = retained_pair_mask(model, np.array(thresholds).reshape(-1, len(model.omega)))
    keep = keep.reshape((len(scales),) + keep.shape[-2:])
    groups: dict = {}
    for i in range(len(scales)):
        groups.setdefault(keep[i].tobytes(), []).append(i)
    return [(PairLayout.retained(keep[rows[0]]), np.array(rows)) for rows in groups.values()]


def _responses(solved: list, n: int, biased: bool) -> list:
    """The `kappa2_sweep` entries of the first n slices of a solved stack.

    solved holds (state, kappa2, currents) per slice.  The entry of slice j
    is its kappa2 and state, with the currents of slice n + j on a biased
    stack and its own otherwise.  A failure never reaches here: the stack
    raises it, and `kappa2_sweep` isolates it.
    """
    return [Kappa2Response(k, state, own[2])
            for (state, k, _), own in zip(solved[:n], solved[n:] if biased else solved)]


def kappa2(model: JunctionModel, baths: list[Reservoir], temperature: float,
           solver: str = "full", c: float = DEFAULT_CLUSTER_FACTOR,
           lamb_shift: bool = True) -> float:
    """Sequential-tunneling thermal conductance dI_r/dT_h at common temperature T.

    The conductance of the one entry of `kappa2_sweep` at T, which
    documents the method and raises that entry's failure.
    """
    return kappa2_sweep(model, baths, [temperature], solver, c, lamb_shift)[0].kappa2


# ---------------------------------------------------------------------------
# closed forms: two-level junction
# ---------------------------------------------------------------------------

def tls_current(omega10: float, gamma_left: float, gamma_right: float,
                t_left: float, t_right: float) -> float:
    """Heat current into the right bath of a two-level junction."""
    n_l = bose_signed(omega10, 1.0 / t_left)
    n_r = bose_signed(omega10, 1.0 / t_right)
    num = omega10 * gamma_left * gamma_right * (n_l - n_r)
    den = gamma_right * (1.0 + 2.0 * n_r) + gamma_left * (1.0 + 2.0 * n_l)
    return float(num / den)


def tls_kappa2(omega10: float, gamma_left: float, gamma_right: float,
               temperature: float) -> float:
    """Exact temperature derivative of tls_current at zero bias."""
    x = omega10 / temperature
    gsum = gamma_left + gamma_right
    # 1/sinh(x) = -2 e^{-x} / expm1(-2x): finite and silent for any x > 0
    inv_sinh = -2.0 * np.exp(-x) / np.expm1(-2.0 * x)
    return float(omega10**2 * gamma_left * gamma_right * inv_sinh
                 / (2.0 * temperature**2 * gsum))


def tls_kappa4(omega10: float, q_left: float, q_right: float, alpha: float,
               temperature: float) -> float:
    return float(32.0 * np.pi**5 * alpha**2 * temperature**3 / 15.0
                 * q_left**2 * q_right**2 / omega10**2)


def tls_closed_forms(omega10: float, q_left: float, q_right: float, alpha: float,
                     t_left: float, t_right: float,
                     omega_c: float | None = None) -> tuple[float, float, float]:
    """(heat current to the right bath, kappa2, kappa4) of a two-level junction.

    The sequential pieces use J(omega10) with the Drude cutoff when omega_c is
    given (else the plain Ohmic slope); the conductances are evaluated at the
    mean temperature.
    """
    if not omega10 > 0:
        raise ValidationError("omega10 must be positive")
    j10 = alpha * omega10 / (1.0 + (omega10 / omega_c)**2) if omega_c else alpha * omega10
    gl = 2.0 * np.pi * j10 * q_left**2
    gr = 2.0 * np.pi * j10 * q_right**2
    t_mean = 0.5 * (t_left + t_right)
    i2 = tls_current(omega10, gl, gr, t_left, t_right)
    k2 = tls_kappa2(omega10, gl, gr, t_mean)
    k4 = tls_kappa4(omega10, q_left, q_right, alpha, t_mean)
    return i2, k2, k4


# ---------------------------------------------------------------------------
# closed forms: fermionic dot
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DotTransport:
    particle: dict[str, float]
    energy: dict[str, float]
    heat: dict[str, float]
    kappa: float


def dot_transport(delta_dot: float, leads: list[dict]) -> DotTransport:
    """Sequential transport through a spin-degenerate dot with two leads.

    Each lead dict needs id, gamma, beta, mu.  Currents are positive into the
    lead; kappa is the zero-bias thermal conductance with both leads at the
    mean of their temperatures and the mean of their chemical potentials, as
    a rabi or tls row takes kappa2 at the mean bath temperature.
    """
    if len(leads) != 2:
        raise ValidationError("dot_transport needs exactly two leads")
    (l0, l1) = leads
    gl, gr = float(l0["gamma"]), float(l1["gamma"])
    if gl < 0 or gr < 0:
        raise ValidationError("lead gamma must be >= 0")
    if gl + gr == 0:
        raise ValidationError("the dot is coupled to no lead: gamma_left + gamma_right "
                              "must be positive")
    f = {lead["id"]: occupation("fermi", delta_dot, float(lead["beta"]),
                                float(lead.get("mu", 0.0))) for lead in leads}
    den = gl * (1.0 + f[l0["id"]]) + gr * (1.0 + f[l1["id"]])
    particle, energy, heat = {}, {}, {}
    for me, other, gme, goth in ((l0, l1, gl, gr), (l1, l0, gr, gl)):
        ip = 2.0 * gme * goth * (f[other["id"]] - f[me["id"]]) / den
        particle[me["id"]] = float(ip)
        energy[me["id"]] = float(delta_dot * ip)
        heat[me["id"]] = float((delta_dot - float(me.get("mu", 0.0))) * ip)

    # linear conductance at the mean (T, mu): 1 / beta is the mean of 1 / beta_l,
    # and equal betas give beta itself, bit for bit;
    # x^2 / (2 cosh^2(x/2)) with x = |delta_dot - mu| / T, written as h^2 / 2
    # with h = 2 x e^{-x/2} / (1 + e^{-x}), which no finite x overflows
    b0, b1 = float(l0["beta"]), float(l1["beta"])
    beta = b0 * (2.0 * b1 / (b0 + b1))
    mu = 0.5 * (float(l0.get("mu", 0.0)) + float(l1.get("mu", 0.0)))
    x = abs(delta_dot - mu) * beta
    h = 2.0 * x * np.exp(-0.5 * x) / (1.0 + np.exp(-x))
    kappa = 0.5 * h * h * gl * gr / (gl + gr) / (1.0 + occupation("fermi", delta_dot, beta, mu))
    return DotTransport(particle=particle, energy=energy, heat=heat,
                        kappa=float(kappa))
