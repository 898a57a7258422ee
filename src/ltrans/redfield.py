"""Second-order kernel blocks and population rate matrices.

The kernel K[n, m, n', m'] generates the weak-coupling master equation
resolved in the junction eigenbasis; its population block K[n,n,m,m] is the
classical rate matrix.  A `PairLayout` is one set of level pairs (n, m)
with its index maps, and `PairLayout.entries` is the one vectorized
formula of the kernel of bosonic baths between the pairs of a set, from
the coupling matrices Q and the rate tables W of all baths stacked.  Its
two Kronecker terms are evaluated only on the entries their deltas keep
(same m', or same n), off the population diagonals that the sum rule sets:
each entry one sum over (bath, k), gathered by index lists built once per
layout, so a layout of diagonal pairs alone does no Kronecker work.  A
retained set of the partial-secular solver is one layout
(`PairLayout.retained`), built once from its mask and read by its kernel
and dK/dT blocks, their sum-rule and Hermiticity checks and its solves.
`build_k2_boson` evaluates the tables (`stacked_w_tables`: `w_table`, once
per spectral density) and returns a `BosonKernel` that holds them: the
heat currents of a steady state are read from the same tables.  Entries
are evaluated on demand, as a `KernelBlock` over a set of pairs: the
partial-secular solver asks for the block of its retained pairs only, and
the full kernel is the block over `all_pairs(N)`, whose `.k.reshape(N, N,
N, N)` is the rank-4 tensor.  The checks run on every block that is
evaluated, except the temperature derivative's.  The partial-secular rows
of a sweep (`ltrans.currents`) evaluate their tables only on the level
pairs a coupling joins (`ltrans.baths.coupled_frequencies`, zeros
elsewhere), which their blocks over pairs within sectors never read
without a vanishing coupling; `build_k2_boson` keeps the dense tables, so
every block of its kernel is the full Redfield map's.  The single-level
fermionic dot gets its own rate constructor.

Baths with a temperature axis (a 1-d beta, see `ltrans.baths`) give W
tables, kernel blocks, population rates and `gamma_rates` matrices with a
leading axis over it, each slice bitwise that of its one temperature.  A
model stack (`ltrans.model.stack_models`) adds a model axis after it: its
Bohr matrices and coupling matrices Q lead with the model axis, and every
table, block and rate matrix carries it, each slice bitwise that of its one
model.  Q leads with the model axis alone (or with the slice axis of W,
one model per slice), which broadcasts against the axes of W.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .baths import Frequencies, bose_signed, by_magnitude, occupation, w_table
from .linalg import ValidationError
from .model import COUPLING_RTOL, JunctionModel, Reservoir

__all__ = ["KernelBlock", "BosonKernel", "RateMatrix", "PairLayout",
           "build_k2_boson", "stacked_w_tables", "k2_tensor_from_w", "all_pairs",
           "gamma_rates", "build_current_kernel_2nd", "fermion_dot_rates"]

SUM_RULE_RTOL = 1e-12
DEGENERACY_TOL = 1e-12


def all_pairs(dim: int) -> np.ndarray:
    """Every pair (n, m) as an (N^2, 2) array, in the row-major order of K.reshape."""
    return np.indices((dim, dim)).reshape(2, -1).T


def _find(baths: list[Reservoir], rid: str) -> Reservoir:
    for b in baths:
        if b.id == rid:
            return b
    raise ValidationError(f"unknown reservoir id {rid!r}")


def _entry_maps(n: int, pairs: np.ndarray) -> tuple:
    """The index maps of `PairLayout.entries` over `pairs` of n levels: the
    pairs' first levels, the positions of the population diagonals and the
    level of each, the flat indices n * N + m of the direct term's four
    gathers, the Kronecker terms' gathers, and the row of each pair's
    mirror (m, n), -1 where the set lacks it (`PairLayout.mirror`).

    A Kronecker term is read only where its delta holds, off the population
    diagonals: at the entries (i, j) with m_i = m'_j (the first term) and
    n_i = n'_j (the second).  Per term, kron holds the flat indices into the
    (n, m) planes of its Q, Q and W (W*) factors, per entry and k, and the
    flat positions i * P + j of its entries; kron is None where neither term
    has an entry, as on a layout of diagonal pairs alone.
    """
    pn, pm = pairs[:, 0], pairs[:, 1]
    p = len(pairs)
    population = (pn == pm).nonzero()[0]        # K[(n,n),(n,n)]
    nn, mm = n * pn[:, None], pm[:, None]
    # Q_nn', Q_m'm, W_nm' and W*_mn'
    direct = (nn + pn, n * pm + mm, nn + pm, n * mm + pn)
    same_m, same_n = pm[:, None] == pm, pn[:, None] == pn
    same_m[population, population] = same_n[population, population] = False
    (i, j), (u, v) = same_m.nonzero(), same_n.nonzero()
    kron = None
    if len(i) + len(u):
        k = np.arange(n)
        # Q_nk Q_kn' W_km' for the first term, Q_km Q_m'k W*_kn' for the second
        kron = ((pn[i, None] * n + k, k * n + pn[j, None], k * n + pm[j, None], i * p + j),
                (k * n + pm[u, None], pm[v, None] * n + k, k * n + pn[v, None], u * p + v))
    position = np.full(n * n, -1)               # n * N + m -> row of (n, m)
    position[nn[:, 0] + pm] = np.arange(p)
    return pn, population, pn[population], direct, kron, position[n * pm + pn]


def _block_entries(q: np.ndarray, w: np.ndarray, maps: tuple,
                   rates: np.ndarray) -> np.ndarray:
    """`PairLayout.entries` over the pairs of `maps` (`_entry_maps`), its
    population diagonals from the population rates `rates`
    (`_population_rates(q, w)`)."""
    pn, population, population_level, direct, kron, _ = maps
    p, b, n = len(pn), q.shape[-3], q.shape[-1]
    w_conj = np.conj(w)
    # the direct term, gathered by flat index n * N + m from the (n, m) planes
    qf, wf = q.reshape(q.shape[:-2] + (n * n,)), w.reshape(w.shape[:-2] + (n * n,))
    q_first, q_second, w_first, w_second = direct
    qq = qf.take(q_first, axis=-1)
    qq *= qf.take(q_second, axis=-1)
    ww = wf.take(w_first, axis=-1)
    ww += w_conj.reshape(wf.shape).take(w_second, axis=-1)
    ww *= qq
    k = ww.sum(axis=-3)
    if kron is not None:
        # each Kronecker entry is one sum over (k, bath), contiguous and in the
        # same order on every slice of a stack; a term at a time, a one-point
        # row's temporaries stay below the 128 KiB above which each is mapped afresh
        qt = qf.swapaxes(-1, -2)                                   # (..., N*N, B)
        flat = k.reshape(k.shape[:-2] + (p * p,))
        for table, (first, second, rate, at) in zip((wf, w_conj.reshape(wf.shape)), kron):
            terms = table.swapaxes(-1, -2).take(rate, axis=-2)     # (..., E, N, B)
            terms *= qt.take(second, axis=-2)
            terms *= qt.take(first, axis=-2)
            flat[..., at] -= terms.reshape(terms.shape[:-2] + (n * b,)).sum(axis=-1)
    k[..., population, population] = -rates.sum(axis=-2)[..., population_level]
    return k


class PairLayout:
    """One set of level pairs (n, m) over `dim` levels, with the index maps
    that every evaluation on it reads, built once on first use.

    pairs is a (P, 2) integer array.  The maps are those of the kernel block
    over the set (`entries`) and of the block's sum-rule and Hermiticity
    checks (the diagonal pairs, and each pair's mirror (m, n)).  A retained
    set is one layout (`retained`), which its kernel and dK/dT blocks, their
    checks and both solves share; it also holds the pairs in row-major
    order (`retained_pairs`, as `SteadyState.retained_pairs` holds them)
    and the levels (n, m) of its coherences n < m (`coherences`).
    """

    def __init__(self, dim: int, pairs: np.ndarray):
        self.dim, self.pairs = dim, pairs
        self.retained_pairs = self.coherences = None         # set by `retained`

    @classmethod
    def retained(cls, keep: np.ndarray) -> "PairLayout":
        """The solver's layout of the pairs where the symmetric (N, N) mask
        keep holds (`ltrans.steady.retained_pair_mask`): the diagonal pairs
        (n, n), then the retained coherences (n, m), n < m, in row-major
        order, then the same coherences swapped to (m, n); its pairs are
        read-only.  A mask without every diagonal pair gives a layout whose
        blocks fail their check."""
        if (keep != keep.T).any():
            raise ValidationError("retained pairs are not closed under (n, m) -> (m, n)")
        rows = np.array(keep.nonzero()).T           # (n, m) in row-major order
        n, m = rows.T
        coherence = rows[n < m]
        pairs = np.concatenate([rows[n == m], coherence, coherence[:, ::-1]])
        pairs.flags.writeable = False
        layout = cls(len(keep), pairs)
        layout.retained_pairs = tuple(map(tuple, rows.tolist()))
        layout.coherences = tuple(coherence.T)
        return layout

    @cached_property
    def _maps(self) -> tuple:
        return _entry_maps(self.dim, self.pairs)

    def entries(self, q: np.ndarray, w: np.ndarray, rates=None) -> np.ndarray:
        """Kernel entries K[(n,m), (n',m')] between the pairs of the set, unchecked.

        q and w are the coupling matrices and rate tables W(omega_nm), stacked
        over baths with shape (B, N, N); w may lead with a temperature axis,
        (n_T, B, N, N), and q with axes that broadcast against those of w (one
        model per slice, or per model of a stack).  The result, shape (P, P)
        after those axes, is summed over baths:

        K[n,m,n',m'] = -( delta_{m m'} sum_k Q_nk Q_kn' W_km'
                        + delta_{n n'} sum_k Q_m'k Q_km W*_kn'
                        - Q_nn' Q_m'm (W_nm' + W*_mn') )

        except on the population diagonals K[(n,n),(n,n)], which are minus
        the total rate out of level n over all N levels (the sum rule): the
        formula's k = n terms cancel there exactly, and their roundoff would
        swamp the entry of a weakly mixed level, whose |Q_nk / Q_nn| is
        small.  Each Kronecker term is a sum over (bath, k) gathered at the
        entries its delta keeps, off those diagonals, and nowhere else.
        rates, if given, are the population rates
        `BosonKernel.population_rates` of q and w, which the diagonals read.
        """
        return _block_entries(q, w, self._maps,
                              _population_rates(q, w) if rates is None else rates)

    def block(self, q: np.ndarray, w: np.ndarray, rates=None) -> "KernelBlock":
        """The `KernelBlock` of `entries`, checked (`check`)."""
        block = KernelBlock(self.dim, self.pairs, self.entries(q, w, rates))
        self.check(block)
        return block

    @property
    def diagonal(self) -> np.ndarray:
        """The positions of the diagonal pairs (n, n), one per level."""
        diag = self._maps[1]
        if len(diag) != self.dim:
            raise ValidationError("kernel block lacks diagonal pairs; no sum rule")
        return diag

    @property
    def mirror(self) -> np.ndarray:
        """The flat index in a (P, P) block of K[(m,n),(m',n')], per entry
        K[(n,m),(n',m')]."""
        swap = self._maps[-1]
        if (swap < 0).any():
            raise ValidationError("kernel block is not closed under (n, m) -> (m, n)")
        return swap[:, None] * len(swap) + swap

    def sum_rule_residual(self, k: np.ndarray):
        """max |sum_n K[(n,n), c]| over the columns of the block k."""
        return np.abs(k[..., self.diagonal, :].sum(axis=-2)).max(axis=-1)

    def hermiticity_residual(self, k: np.ndarray):
        """max |K[(n,m),(n',m')] - conj(K[(m,n),(m',n')])| over the block k."""
        flat = k.reshape(k.shape[:-2] + (k.shape[-1] * k.shape[-1],))
        mirror = flat.take(self.mirror, axis=-1)
        np.conjugate(mirror, out=mirror)
        mirror -= k            # |conj(K') - K| is |K - conj(K')|, bit for bit
        return np.abs(mirror).max(axis=(-2, -1))

    def check(self, block: "KernelBlock") -> None:
        """Raise ValidationError unless, at every slice of the block, the sum
        rule and Hermiticity hold to SUM_RULE_RTOL of its largest entry, both
        compared in one pass (a set without every diagonal pair fails first,
        even an empty one)."""
        sum_rule = self.sum_rule_residual(block.k)
        tol = SUM_RULE_RTOL * np.maximum(block.norm_max(), 1e-300)
        if (np.maximum(sum_rule, self.hermiticity_residual(block.k)) > tol).any():
            raise ValidationError("kernel violates the probability sum rule"
                                  if (sum_rule > tol).any() else
                                  "kernel violates the Hermiticity symmetry")


def _population_rates(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """g[..., n, m] = 2 sum_baths Q_nm Q_mn Re W_nm, the rate into n from m, for
    n != m; zero diagonal."""
    g = 2.0 * (q * q.swapaxes(-1, -2) * w.real).sum(axis=-3)
    d = np.arange(q.shape[-1])
    g[..., d, d] = 0.0
    return g


def k2_tensor_from_w(q: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Full rank-4 kernel tensor from Q and W: `PairLayout.entries` over all N^2 pairs.

    q and w are one bath's (N, N) matrices or (B, N, N) stacks summed over
    baths.
    """
    q, w = np.asarray(q), np.asarray(w)
    if q.ndim == 2:
        q, w = q[None], w[None]
    n = q.shape[-1]
    return PairLayout(n, all_pairs(n)).entries(q, w).reshape(n, n, n, n)


@dataclass(frozen=True, eq=False)
class KernelBlock:
    """Kernel entries K[(n,m), (n',m')] between the pairs of a set: a retained
    set, or `all_pairs(dim)` for the full kernel.

    pairs is a (P, 2) integer array and k the (P, P) complex matrix whose
    row and column order follow it, or a (n_T, P, P) stack of them over a
    temperature axis; the norms and residuals are then per temperature.  A
    set that holds every diagonal pair and is closed under (n, m) -> (m, n)
    carries the full sum rule and Hermiticity symmetry of the kernel, which
    `PairLayout.check` verifies.
    """

    dim: int
    pairs: np.ndarray
    k: np.ndarray

    def norm_max(self):
        """max |K| per slice, computed once: the checks and the solve's
        residual test read it."""
        return self._norm_max

    @cached_property
    def _norm_max(self):
        return np.abs(self.k).max(axis=(-2, -1))

    def block(self, pairs: np.ndarray) -> "KernelBlock":
        """This block, which must hold exactly `pairs`, in that order."""
        if not np.array_equal(pairs, self.pairs):
            raise ValidationError("kernel block does not hold the requested pairs")
        return self


@dataclass(frozen=True, eq=False)
class BosonKernel:
    """Second-order kernel of a bosonic junction, held as the inputs of its formula.

    q and w stack the coupling matrices and the W tables of every bath,
    shape (B, N, N); w may lead with a temperature axis, (n_T, B, N, N), q
    and w with a model axis after it, and the population rates and blocks
    then lead with those axes too.  Entries are
    evaluated on demand, by `block(pairs)`: a retained block, or the full
    kernel over `all_pairs(N)`.  Every evaluated block is checked against
    the sum rule and Hermiticity.
    """

    q: np.ndarray
    w: np.ndarray

    @property
    def dim(self) -> int:
        return self.q.shape[-1]

    def population_rates(self) -> np.ndarray:
        """K[n,n,m,m] = 2 sum_baths Q_nm Q_mn Re W_nm for n != m; zero diagonal."""
        return _population_rates(self.q, self.w)

    def block(self, pairs: np.ndarray) -> KernelBlock:
        """The block over `pairs`, which must hold every diagonal pair and be
        closed under (n, m) -> (m, n); raises ValidationError if its sum rule
        or Hermiticity fails."""
        return PairLayout(self.dim, pairs).block(self.q, self.w)


@dataclass(frozen=True)
class RateMatrix:
    """Population rates; gamma[n, m] is the rate into n from m (columns sum to 0).

    gamma and each per-reservoir matrix may lead with a temperature axis.
    """

    gamma: np.ndarray
    per_reservoir: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.gamma.shape[-1]

    def column_sum_residual(self) -> float:
        return float(np.max(np.abs(np.sum(self.gamma, axis=-2))))


def build_k2_boson(model: JunctionModel, baths: list[Reservoir]) -> BosonKernel:
    """Kernel of a bosonic junction, summed over baths.

    Stacks Q and the closed-form W table of every bath (`stacked_w_tables`,
    on every level pair, so that every block is the full Redfield map's).
    The kernel entries themselves are evaluated by the returned
    `BosonKernel`, block by block.
    """
    return BosonKernel(q=np.stack([model.q(b.id) for b in baths], axis=-3),
                       w=stacked_w_tables(by_magnitude(model.bohr_matrix()), baths))


def stacked_w_tables(frequencies: Frequencies, baths: list[Reservoir]) -> np.ndarray:
    """The W table of every bath on the Bohr frequencies of a model (stack),
    stacked at axis -3 after the temperature and model axes.

    `w_table` is evaluated once per distinct spectral density, on the one
    sort of `frequencies` (the whole Bohr matrix, or its coupled pairs,
    `ltrans.baths.coupled_frequencies`, zero on the others), and for every
    model of a model stack: at the betas of its baths where they all hold
    one beta object, else over the distinct betas of them all, from which
    each bath gathers its own slices.  Each slice is bitwise its
    one-temperature, one-model table.
    """
    tables = {}        # spectral density -> (its distinct betas, ascending, or None; W)
    for b in baths:
        if b.spectral not in tables:
            share = [o.beta for o in baths if o.spectral == b.spectral]
            betas = (None if all(beta is b.beta for beta in share)
                     else np.unique(np.concatenate([np.ravel(beta) for beta in share])))
            tables[b.spectral] = betas, w_table(frequencies, b if betas is None
                                                else Reservoir(b.id, betas, b.spectral))
    return np.stack([table if betas is None else table[betas.searchsorted(b.beta)]
                     for b in baths for betas, table in [tables[b.spectral]]], axis=-3)


def gamma_rates(model: JunctionModel, baths: list[Reservoir]) -> RateMatrix:
    """Golden-rule population rates gamma[n, m] = 2 pi J(w_nm) Q_nm^2 n(w_nm).

    A single signed-frequency expression covers absorption and emission via
    the odd spectral density and the continued Bose function.  Degenerate
    coupled pairs (w_nm = 0 with |Q_nm| above COUPLING_RTOL of the model's
    largest |Q| over the baths) are rejected: they belong to the
    partial-secular solver; in a model stack the first such pair of any
    model raises.  A coupling at or below that floor is roundoff of an exact
    zero (two levels of one symmetry sector), and the pair, like every
    unresolved one, gets no rate.  Baths with a temperature axis give rates
    that lead with it, and a model stack adds its model axis after it.
    """
    bohr = model.bohr_matrix()
    resolved = np.abs(bohr) > DEGENERACY_TOL
    unresolved_off = ~resolved & ~np.eye(model.dim, dtype=bool)
    aq = np.abs([model.q(b.id) for b in baths])         # (bath, ..., N, N)
    coupled = unresolved_off & (aq > COUPLING_RTOL * aq.max(axis=(0, -2, -1),
                                                           keepdims=True))
    if coupled.any():
        i, j = np.argwhere(coupled)[0][-2:]
        raise ValidationError(f"levels {i} and {j} are degenerate but coupled; "
                              "use the partial-secular solver")
    w_safe = np.where(resolved, bohr, 1.0)
    per: dict[str, np.ndarray] = {}
    total = np.zeros_like(bohr)
    d = np.arange(model.dim)
    for bath in baths:
        q = model.q(bath.id)
        g = np.where(resolved, 2.0 * np.pi * bath.spectral.value(w_safe) * q**2
                     * bose_signed(w_safe, bath.beta), 0.0)
        g[..., d, d] = -g.sum(axis=-2)
        per[bath.id] = g
        total = total + g
    return RateMatrix(gamma=total, per_reservoir=per)


def build_current_kernel_2nd(model: JunctionModel, baths: list[Reservoir],
                             reservoir_id: str) -> np.ndarray:
    """Heat-current kernel tensor K_I[n, m, n', m'] for one bosonic reservoir.

    K_I[n,m,n',m'] = -( delta_{m m'} sum_k Q_nk Q_kn' Wbar_km'
                      + Q_n'n Q_mm' Wbar*_mn' )

    with Wbar(w) = w * W(w).  The population block satisfies
    2 Re K_I[n,n,m,m] = w_mn * gamma^r[n,m].
    """
    bath = _find(baths, reservoir_id)
    n = model.dim
    q = model.q(bath.id)
    bohr = model.bohr_matrix()
    wbar = bohr * w_table(bohr, bath)
    k = np.zeros((n, n, n, n), dtype=complex)
    t1 = np.einsum("nk,kq,km->nqm", q, q, wbar)
    for i in range(n):
        k[:, i, :, i] -= t1[:, :, i]
    k -= np.einsum("qn,mp,mq->nmqp", q, q, np.conj(wbar))
    return k


# ---------------------------------------------------------------------------
# fermionic dot (states |0>, |up>, |down>; double occupancy frozen out)
# ---------------------------------------------------------------------------

def fermion_dot_rates(delta_dot: float, leads: list[dict]) -> RateMatrix:
    """Sequential-tunneling rates of a spin-degenerate single-level dot.

    Each lead is a dict with keys gamma, beta, mu (and optionally id).  The
    dot level sits at delta_dot; strong Coulomb repulsion removes the doubly
    occupied state, and no direct spin-flip rate exists at this order.
    State order: (empty, up, down).
    """
    total = np.zeros((3, 3))
    per: dict[str, np.ndarray] = {}
    for k, lead in enumerate(leads):
        gamma_l = float(lead["gamma"])
        if gamma_l < 0:
            raise ValidationError("lead gamma must be >= 0")
        f = occupation("fermi", delta_dot, float(lead["beta"]), float(lead.get("mu", 0.0)))
        g = np.zeros((3, 3))
        for s in (1, 2):                     # up, down
            g[s, 0] = gamma_l * f            # 0 -> sigma
            g[0, s] = gamma_l * (1.0 - f)    # sigma -> 0
        g[np.diag_indices(3)] = -np.sum(g, axis=0)
        per[str(lead.get("id", k))] = g
        total += g
    return RateMatrix(gamma=total, per_reservoir=per)
