"""The kernel block as it was first vectorized (test oracle only).

`ltrans.redfield.PairLayout.entries` evaluates each Kronecker term only on
the entries its delta keeps, as a gathered sum over (bath, k).  This is the
matmul-and-mask form it replaced: both Kronecker terms as full (P, P)
matrix products over (bath, k), zeroed off their deltas.  It must agree
with the gathered entries bitwise on a layout of diagonal pairs alone
(whose Kronecker entries are all population diagonals, which the sum rule
sets) and to roundoff elsewhere, where the two orders of the sums differ.
"""

import numpy as np

from ltrans.redfield import _population_rates


def block_entries(dim, pairs, q, w, rates=None):
    """K[(n,m), (n',m')] over `pairs` of `dim` levels, from Q and W stacked
    over baths at axis -3 (see `PairLayout.entries`)."""
    if rates is None:
        rates = _population_rates(q, w)
    pn, pm = pairs[:, 0], pairs[:, 1]
    same_m, same_n = pm[:, None] == pm[None, :], pn[:, None] == pn[None, :]
    population = np.flatnonzero(pn == pm)
    nn, mm = dim * pn[:, None], pm[:, None]
    p, b, n = len(pn), q.shape[-3], q.shape[-1]
    lead = q.shape[:-3]

    def stacked(x):        # (..., P, B, N) -> (..., B*N, P)
        return x.reshape(x.shape[:-3] + (p, b * n)).swapaxes(-1, -2)

    left = q.take(pn, axis=-2).swapaxes(-3, -2).reshape(lead + (p, b * n))   # Q_nk
    right = (q.take(pn, axis=-1) * w.take(pm, axis=-1)).swapaxes(-1, -2).swapaxes(-2, -3)
    k = -(left @ stacked(right))
    k *= same_m
    w_conj = np.conj(w)
    left = q.take(pm, axis=-1).swapaxes(-1, -2).swapaxes(-2, -3).reshape(lead + (p, b * n))
    right = (q.take(pm, axis=-2) * w_conj.take(pn, axis=-1).swapaxes(-1, -2)
             ).swapaxes(-3, -2)
    kron = left @ stacked(right)
    kron *= same_n
    k -= kron
    qf, wf = q.reshape(q.shape[:-2] + (n * n,)), w.reshape(w.shape[:-2] + (n * n,))
    qq = qf.take(nn + pn, axis=-1)
    qq *= qf.take(n * pm + mm, axis=-1)
    ww = wf.take(nn + pm, axis=-1)
    ww += w_conj.reshape(wf.shape).take(n * mm + pn, axis=-1)
    ww *= qq
    k += ww.sum(axis=-3)
    k[..., population, population] = -rates.sum(axis=-2)[..., pn[population]]
    return k
