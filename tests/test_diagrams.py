"""The fermionic reordering sign of a diagram does not depend on how its arcs
are disentangled (`diagrams.fermion_sign`)."""

import itertools
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from ltrans.diagrams import enumerate_matchings, fermion_sign


def route_transpositions(m, rng):
    """The vertex pairs that one random route swaps to disentangle the arcs of m.

    Starting from the word 2n .. 1 (left to right), the arcs are taken in a
    random order, and each is joined by moving either its start vertex left
    to its free vertex or its free vertex right to its start, one adjacent
    transposition at a time, until the free vertex is just left of the start.
    """
    word = list(range(2 * m.n, 0, -1))
    swaps = []
    for f, s in rng.sample(m.pairs, len(m.pairs)):
        move_start = rng.random() < 0.5
        while word.index(s) > word.index(f) + 1:
            i = word.index(s) - 1 if move_start else word.index(f)
            swaps.append((word[i], word[i + 1]))
            word[i], word[i + 1] = word[i + 1], word[i]
    # each arc is adjacent, free left of start
    for f, s in m.pairs:
        assert word.index(s) == word.index(f) + 1
    return swaps


@settings(max_examples=6, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_the_fermion_sign_is_independent_of_the_sorting_route(seed):
    # every matching of up to 8 vertices and every nu: a random route's
    # product of -nu_i nu_j over its transpositions is fermion_sign's
    rng = random.Random(seed)
    for n in range(1, 5):
        nus = np.array(list(itertools.product((1, -1), repeat=2 * n)))
        for m in enumerate_matchings(n):
            want = [fermion_sign(m, tuple(nu)) for nu in nus.tolist()]
            got = np.ones(len(nus), dtype=int)
            for i, j in route_transpositions(m, rng):
                got *= -nus[:, i - 1] * nus[:, j - 1]
            assert got.tolist() == want, m
