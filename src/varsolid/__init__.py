"""Variational treatment of a model solid built from localized exponential
orbitals interacting through a two-Yukawa pair potential, together with the
center-of-mass statistics of the resulting many-body state and the analogous
scaling laws for self-gravitating bosons and fermions.
"""

from .energy import EnergyBreakdown, SameSiteW, energy_per_particle, \
    kinetic_per_particle, same_site_W
from .lattice import LatticeKind, LatticeShells, build_cluster, \
    enumerate_shells
from .model import (DEGENERACY_WINDOW, OrbitalParams, TwoYukawaParams,
                    density_fourier, pair_energy, two_yukawa,
                    two_yukawa_fourier)
from .observables import (ComStatistics, SuperpositionSpec, com_statistics,
                          free_spread, galilean_boost, superposition_spread)
from .optimize import (BulkModulusResult, ConvergenceError, OptimizeOptions,
                       SolidSolution, bulk_modulus, minimize_solid,
                       minimum_certificate, solve_solid)
from .oracle import (McEstimate, QuadratureError, mc_com_variance,
                     mc_momentum_axis_variance, mc_pair_energy,
                     mc_pair_integral, pair_energy_quadrature,
                     pair_energy_realspace_reference,
                     radial_transform_check, sample_exponential_cloud)
from .selfgrav import (BosonSolution, FermionSolution, boson_energy,
                       boson_solve, fermion_solve, fermion_tf_energy)
from .units import UnitSystem, make_krypton_units

__version__ = "0.1.0"

__all__ = [
    "BosonSolution", "BulkModulusResult", "ComStatistics",
    "ConvergenceError", "DEGENERACY_WINDOW", "EnergyBreakdown",
    "FermionSolution", "LatticeKind", "LatticeShells",
    "McEstimate", "OptimizeOptions", "OrbitalParams", "QuadratureError",
    "SameSiteW", "SolidSolution", "SuperpositionSpec", "TwoYukawaParams",
    "UnitSystem", "boson_energy", "boson_solve", "build_cluster",
    "bulk_modulus", "com_statistics", "density_fourier",
    "energy_per_particle", "enumerate_shells", "fermion_solve",
    "fermion_tf_energy", "free_spread", "galilean_boost",
    "kinetic_per_particle", "make_krypton_units", "mc_com_variance",
    "mc_momentum_axis_variance", "mc_pair_energy", "mc_pair_integral",
    "minimize_solid",
    "minimum_certificate", "pair_energy", "pair_energy_quadrature",
    "pair_energy_realspace_reference", "radial_transform_check",
    "same_site_W", "sample_exponential_cloud", "solve_solid",
    "superposition_spread", "two_yukawa", "two_yukawa_fourier",
]
