"""The partial-secular pair layout built from a set of retained pairs, as it
was first written (test oracle only), and the retained mask of such a set.

`ltrans.redfield.PairLayout.retained` builds the layout straight from the
clustering mask; `retained_pair_array` is the set-based transcription it
must reproduce.
"""

import numpy as np

from ltrans.linalg import ValidationError
from ltrans.redfield import PairLayout


def retained_mask(dim, retained):
    """The (dim, dim) mask that holds at each pair (n, m) of `retained`."""
    keep = np.zeros((dim, dim), dtype=bool)
    for n, m in retained:
        keep[n, m] = True
    return keep


def retained_layout(dim, retained):
    """The `PairLayout.retained` layout of a set of retained pairs."""
    return PairLayout.retained(retained_mask(dim, retained))


def retained_pair_array(dim, retained):
    """The solver's pair layout as a (N + 2C, 2) array.

    Every diagonal pair (n, n) in order, then the C retained coherences
    (n, m), n < m, sorted, then the same coherences swapped to (m, n).  The
    retained set must be closed under (n, m) -> (m, n).
    """
    retained = set(retained)
    if {(m, n) for (n, m) in retained} != retained:
        raise ValidationError("retained pairs are not closed under (n, m) -> (m, n)")
    cohs = sorted((n, m) for (n, m) in retained if n < m)
    cohs = np.array(cohs, dtype=int).reshape(-1, 2)
    diag = np.repeat(np.arange(dim), 2).reshape(dim, 2)
    return np.concatenate([diag, cohs, cohs[:, ::-1]])
