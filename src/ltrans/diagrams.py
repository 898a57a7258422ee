"""Contraction diagrams of the coupling expansion and their evaluation.

A diagram of order 2n is a perfect matching of 2n vertices (numbered 1..2n
from the right) by n reservoir arcs.  Only irreducible matchings -- those
with no vertical cut avoiding every arc -- contribute to the kernel.  Each
arc carries a Fock index p = +-1 and a reservoir assignment; each vertex a
Liouville index nu = +-1 selecting left or right action on the density
matrix.  For fermionic reservoirs each transposition needed to disentangle
crossing arcs contributes a factor -nu_i nu_j.

evaluate_kernel_from_diagrams sums the generated terms over discrete
reservoir modes at finite Laplace variable, producing the kernel as an
N^2 x N^2 superoperator matrix; it is checked against a brute-force
superoperator expansion in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .baths import occupation
from .linalg import ValidationError

__all__ = ["Matching", "DiagramTerm", "DiscreteModeBath", "enumerate_matchings",
           "is_irreducible", "fermion_sign", "irreducible_count",
           "generate_kernel_terms", "evaluate_kernel_from_diagrams",
           "double_factorial"]

MAX_ORDER_ENUM = 12       # 2n <= 12  (10395 matchings)
EVAL_ORDERS = (2, 4)


# ---------------------------------------------------------------------------
# matchings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Matching:
    """Perfect matching; each pair (f, s) connects free vertex f > start s."""

    n: int
    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        seen = set()
        for (f, s) in self.pairs:
            if not (1 <= s < f <= 2 * self.n):
                raise ValidationError(f"bad pair {(f, s)}")
            seen.update((f, s))
        if len(seen) != 2 * self.n or len(self.pairs) != self.n:
            raise ValidationError("pairs must cover all vertices exactly once")


def double_factorial(k: int) -> int:
    out = 1
    while k > 1:
        out *= k
        k -= 2
    return out


def enumerate_matchings(n: int) -> list[Matching]:
    """All (2n-1)!! perfect matchings of 2n vertices, lexicographic in pairs."""
    if n < 1 or 2 * n > MAX_ORDER_ENUM:
        raise ValidationError(f"order 2n = {2 * n} outside supported range")
    out: list[Matching] = []

    def rec(remaining: tuple[int, ...], acc: list[tuple[int, int]]):
        if not remaining:
            out.append(Matching(n=n, pairs=tuple(acc)))
            return
        s = remaining[0]
        for f in remaining[1:]:
            rest = tuple(v for v in remaining if v not in (s, f))
            acc.append((f, s))
            rec(rest, acc)
            acc.pop()

    rec(tuple(range(1, 2 * n + 1)), [])
    return out


def is_irreducible(m: Matching) -> bool:
    """True iff every cut between consecutive vertices is spanned by an arc."""
    for cut in range(1, 2 * m.n):
        if not any(s <= cut < f for (f, s) in m.pairs):
            return False
    return True


def irreducible_count(n: int) -> tuple[int, int]:
    """(total, irreducible) matching counts at order 2n."""
    ms = enumerate_matchings(n)
    return len(ms), sum(1 for m in ms if is_irreducible(m))


def fermion_sign(m: Matching, nu: dict[int, int] | tuple[int, ...]) -> int:
    """Reordering factor prod(-nu_i nu_j) that disentangles the arcs.

    The word of vertices (2n .. 1, left to right) is bubble-sorted until each
    arc's vertices are adjacent (free left of start); every adjacent
    transposition of vertices i, j from different arcs contributes -nu_i nu_j.
    The result is independent of the sorting route.
    """
    if not isinstance(nu, dict):
        nu = {i + 1: nu[i] for i in range(2 * m.n)}
    word = list(range(2 * m.n, 0, -1))
    sign = 1
    for (f, s) in sorted(m.pairs):
        i_f = word.index(f)
        i_s = word.index(s)
        while i_s > i_f + 1:
            x = word[i_s - 1]
            sign *= -nu[x] * nu[s]
            word[i_s - 1], word[i_s] = word[i_s], word[i_s - 1]
            i_s -= 1
    return int(sign)


# ---------------------------------------------------------------------------
# kernel terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiagramTerm:
    """One fully index-assigned diagram contributing to the kernel.

    segments[i] lists (p_a, arc_index) for every arc spanning the gap between
    vertices i+1 and i+2 (0-based); sign bundles prod(nu) with the fermionic
    reordering factor.
    """

    matching: Matching
    fock: tuple[int, ...]                      # p_a per arc
    reservoirs: tuple[str, ...]                # reservoir id per arc
    nu: tuple[int, ...]                        # nu_1 .. nu_2n
    sign: int
    segments: tuple[tuple[tuple[int, int], ...], ...] = field(default=())

    def vertex_roles(self):
        """vertex -> (arc_index, is_start) in vertex order 1..2n."""
        roles: dict[int, tuple[int, bool]] = {}
        for a, (f, s) in enumerate(self.matching.pairs):
            roles[s] = (a, True)
            roles[f] = (a, False)
        return roles


def _segments(m: Matching, fock: tuple[int, ...]):
    segs = []
    for cut in range(1, 2 * m.n):
        segs.append(tuple((fock[a], a) for a, (f, s) in enumerate(m.pairs)
                          if s <= cut < f))
    return tuple(segs)


def generate_kernel_terms(order: int, reservoir_ids: list[str],
                          statistics: str) -> list[DiagramTerm]:
    """Expand all irreducible diagrams of the given order over their indices.

    statistics applies to every reservoir ("bose" or "fermi"); mixed
    assignments are not generated here.
    """
    if order not in EVAL_ORDERS:
        raise ValidationError(f"kernel terms supported for orders {EVAL_ORDERS}")
    if statistics not in ("bose", "fermi"):
        raise ValidationError(f"unknown statistics {statistics!r}")
    n = order // 2
    terms: list[DiagramTerm] = []
    for m in enumerate_matchings(n):
        if not is_irreducible(m):
            continue
        for rids in itertools.product(reservoir_ids, repeat=n):
            for fock in itertools.product((+1, -1), repeat=n):
                segs = _segments(m, fock)
                for nus in itertools.product((+1, -1), repeat=2 * n):
                    sign = int(np.prod(nus))
                    if statistics == "fermi":
                        sign *= fermion_sign(m, nus)
                    terms.append(DiagramTerm(matching=m, fock=fock,
                                             reservoirs=rids, nu=nus,
                                             sign=sign, segments=segs))
    return terms


# ---------------------------------------------------------------------------
# evaluation on discrete-mode baths
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DiscreteModeBath:
    """Reservoir represented by explicit modes [(omega_j, coupling_j), ...]."""

    id: str
    statistics: str
    beta: float
    modes: tuple[tuple[float, float], ...]
    mu: float = 0.0

    def occupation(self, omega, pnu: int):
        """The occupation factor n^{pnu} of a mode at omega, or of each of an
        array of modes (`ltrans.baths.occupation`)."""
        return occupation(self.statistics, omega, self.beta, self.mu, p=pnu)


def _super_left(op: np.ndarray, n: int) -> np.ndarray:
    return np.kron(op, np.eye(n))


def _super_right(op: np.ndarray, n: int) -> np.ndarray:
    return np.kron(np.eye(n), op.T)


def evaluate_kernel_from_diagrams(omega_sys: np.ndarray,
                                  d_ops: dict[str, np.ndarray],
                                  baths: list[DiscreteModeBath],
                                  lam: complex, order: int) -> np.ndarray:
    """Kernel superoperator (N^2 x N^2) at finite Laplace variable Re lam > 0.

    omega_sys are the system eigenfrequencies; d_ops maps each reservoir id
    to the system-side coupling operator in that basis (Hermitian Q for
    bosons, the annihilation-type operator for fermions; the adjoint is used
    where the Fock index demands it).  The result is the exact finite sum
    over modes, linear in each squared mode coupling.
    """
    if not np.real(lam) > 0:
        raise ValidationError("need Re lam > 0")
    omega_sys = np.asarray(omega_sys, dtype=float)
    nsys = len(omega_sys)
    bohr_flat = (omega_sys[:, None] - omega_sys[None, :]).reshape(nsys * nsys)
    bath_by_id = {b.id: b for b in baths}
    stats = {b.statistics for b in baths}
    if len(stats) != 1:
        raise ValidationError("mixed reservoir statistics are not supported")
    terms = generate_kernel_terms(order, [b.id for b in baths], stats.pop())

    n_arcs = order // 2
    kernel = np.zeros((nsys * nsys, nsys * nsys), dtype=complex)
    eye = np.eye(nsys * nsys, dtype=complex)

    if order == 2:
        # one arc: the mode sum only enters through a scalar per propagator
        # entry, so it vectorizes; needed for fine bath discretizations
        for term in terms:
            bath = bath_by_id[term.reservoirs[0]]
            p = term.fock[0]
            omegas, couplings = np.array(bath.modes, dtype=float).reshape(-1, 2).T
            weights = couplings**2 * bath.occupation(omegas, p * term.nu[0])
            prop_sum = np.sum(weights[None, :]
                              / (lam + 1j * bohr_flat[:, None] - 1j * p * omegas[None, :]),
                              axis=1)
            base = d_ops[term.reservoirs[0]]
            op_start = base.conj().T if p == +1 else base
            op_free = base.conj().T if -p == +1 else base
            s1 = (_super_left(op_start, nsys) if term.nu[0] == +1
                  else _super_right(op_start, nsys))
            s2 = (_super_left(op_free, nsys) if term.nu[1] == +1
                  else _super_right(op_free, nsys))
            kernel += term.sign * (-1.0) * (s2 @ (prop_sum[:, None] * s1))
        return kernel

    for term in terms:
        roles = term.vertex_roles()
        arc_baths = [bath_by_id[rid] for rid in term.reservoirs]
        mode_ranges = [range(len(b.modes)) for b in arc_baths]
        for mode_choice in itertools.product(*mode_ranges):
            arc_omega = [arc_baths[a].modes[mode_choice[a]][0] for a in range(n_arcs)]
            arc_coupling = [arc_baths[a].modes[mode_choice[a]][1] for a in range(n_arcs)]
            coeff = complex(term.sign)
            for a, (f, s) in enumerate(term.matching.pairs):
                coeff *= arc_baths[a].occupation(arc_omega[a],
                                                 term.fock[a] * term.nu[s - 1])
                coeff *= arc_coupling[a] ** 2
            mat = eye
            for vertex in range(1, 2 * n_arcs + 1):
                arc, is_start = roles[vertex]
                p = term.fock[arc] if is_start else -term.fock[arc]
                base = d_ops[term.reservoirs[arc]]
                op = base.conj().T if p == +1 else base
                nu_v = term.nu[vertex - 1]
                s_op = _super_left(op, nsys) if nu_v == +1 else _super_right(op, nsys)
                mat = s_op @ mat
                if vertex < 2 * n_arcs:
                    shift = sum(pa * arc_omega[ai]
                                for (pa, ai) in term.segments[vertex - 1])
                    prop = 1.0 / (lam + 1j * bohr_flat - 1j * shift)
                    mat = prop[:, None] * mat
            kernel += coeff * (-1.0) ** n_arcs * mat
    return kernel
