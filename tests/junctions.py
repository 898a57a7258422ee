"""Random junctions for property tests (test helper only)."""

import numpy as np

from ltrans.model import build_junction


def random_junction(seed, dim, split=None):
    """A junction of `dim` levels with random symmetric couplings to baths L
    and R.  Given a `split`, two adjacent levels are moved `split` apart, so
    that the retained pairs change with the temperature on the partial
    solver."""
    rng = np.random.default_rng(seed)
    omega = np.sort(rng.uniform(0.0, 2.5, size=dim)) + 0.3 * np.arange(dim)
    if split is not None:
        k = int(rng.integers(dim - 1))
        omega[k + 1:] += omega[k] + split - omega[k + 1]
    qs = {}
    for rid in ("L", "R"):
        x = rng.standard_normal((dim, dim))
        qs[rid] = 0.5 * (x + x.T)
    return build_junction(omega, qs)
