"""Steady-state quantum transport for multi-level junctions.

Second- and fourth-order kernel expansions for bosonic Ohmic-Drude
reservoirs (and closed forms for a fermionic dot), full/partial secular
steady states, heat currents and thermal conductances, a qubit-resonator
application, and a diagrammatic bookkeeping layer with a brute-force oracle
for self-validation.
"""

from .baths import fermi_pv_integral, occupation
from .currents import (dot_transport, heat_current_2nd_general, heat_current_2nd_secular,
                       kappa2, kappa4_lowT, tls_closed_forms)
from .diagrams import (DiscreteModeBath, enumerate_matchings,
                       evaluate_kernel_from_diagrams, fermion_sign,
                       generate_kernel_terms, is_irreducible)
from .linalg import (NumericError, ValidationError, hermitian_eigensystem,
                     lowest_band_eigensystem, lowest_tridiagonal_eigensystem)
from .model import JunctionModel, Reservoir, SpectralDensity, build_junction
from .oracle import CompositeSpace, exact_kernel_order
from .rabi import (ApproxSpectrum, RabiParams, build_rabi_junction, grwa_spectrum,
                   kondo_temperature, rwa_spectrum, vvpt_spectrum)
from .redfield import (BosonKernel, KernelBlock, RateMatrix, build_current_kernel_2nd,
                       build_k2_boson, fermion_dot_rates, gamma_rates)
from .steady import (FrequencyClusters, SteadyState, cluster_bohr_frequencies,
                     full_secular_steady, partial_secular_steady)

__version__ = "0.1.0"

__all__ = [
    "JunctionModel", "Reservoir", "SpectralDensity", "build_junction",
    "hermitian_eigensystem", "lowest_band_eigensystem",
    "lowest_tridiagonal_eigensystem", "ValidationError", "NumericError",
    "occupation", "fermi_pv_integral",
    "BosonKernel", "KernelBlock", "RateMatrix", "build_k2_boson", "gamma_rates",
    "build_current_kernel_2nd", "fermion_dot_rates",
    "SteadyState", "FrequencyClusters", "cluster_bohr_frequencies",
    "full_secular_steady", "partial_secular_steady",
    "heat_current_2nd_secular", "heat_current_2nd_general",
    "kappa2", "kappa4_lowT", "tls_closed_forms", "dot_transport",
    "RabiParams", "ApproxSpectrum", "build_rabi_junction", "rwa_spectrum",
    "vvpt_spectrum", "grwa_spectrum", "kondo_temperature",
    "enumerate_matchings", "is_irreducible", "fermion_sign", "generate_kernel_terms",
    "evaluate_kernel_from_diagrams", "DiscreteModeBath",
    "CompositeSpace", "exact_kernel_order",
]
