"""Natural-unit system and lab-unit conversions.

All internal computation uses the natural units of the pair potential:
length sigma, energy epsilon, mass mu (the particle mass).  In these units
the only trace of hbar is the dimensionless coupling

    Lambda = hbar^2 / (mu sigma^2 epsilon_J),

which multiplies every kinetic term.  SI constants appear exclusively here,
at the boundary; everything downstream works with pure numbers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

# CODATA 2018 / exact SI-2019 values.
HBAR_SI = 1.054571817e-34  # J s
KB_SI = 1.380649e-23  # J/K (exact)
AMU_SI = 1.66053906660e-27  # kg
AVOGADRO = 6.02214076e23  # 1/mol (exact)
CAL_TO_J = 4.184  # thermochemical calorie (exact)

KRYPTON_SIGMA_M = 3.6e-10
KRYPTON_EPSILON_K = 170.0
KRYPTON_MASS_U = 83.798  # standard atomic weight


def check_positive(**values: float) -> None:
    """ValueError naming the first of `values` that is not finite and > 0
    (NaN fails too): the one positivity rule of every module's inputs."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class UnitSystem:
    """Length/energy/mass scales plus the derived kinetic coupling.

    The SI constants are the module's own; ``coupling`` is computed in
    ``__post_init__`` from the three scales, each positive and finite
    (check_positive), and cannot be supplied by hand.
    """

    sigma_m: float
    epsilon_K: float
    mass_u: float
    coupling: float = field(init=False)

    def __post_init__(self) -> None:
        check_positive(sigma_m=self.sigma_m, epsilon_K=self.epsilon_K, mass_u=self.mass_u)
        try:
            coupling = HBAR_SI**2 / (
                self.mass_u * AMU_SI * self.sigma_m**2 * self.epsilon_J)
        except (OverflowError, ZeroDivisionError):
            coupling = math.nan
        if not (math.isfinite(coupling) and coupling > 0.0):
            raise ValueError("the scales give no positive finite kinetic coupling "
                             f"(sigma_m={self.sigma_m!r}, mass_u={self.mass_u!r}, "
                             f"epsilon_K={self.epsilon_K!r})")
        object.__setattr__(self, "coupling", coupling)

    @property
    def epsilon_J(self) -> float:
        """Well depth in joules."""
        return KB_SI * self.epsilon_K

    @property
    def mass_kg(self) -> float:
        return self.mass_u * AMU_SI

    @property
    def sigma_angstrom(self) -> float:
        return self.sigma_m * 1e10

    def energy_to_cal_per_mole(self, u: float) -> float:
        """Per-particle energy in epsilon units -> cal/mole."""
        return u * self.epsilon_J * AVOGADRO / CAL_TO_J

    def pressure_to_kbar(self, p: float) -> float:
        """Pressure in epsilon/sigma^3 units -> kbar (1 kbar = 1e8 Pa)."""
        return p * self.epsilon_J / self.sigma_m**3 / 1e8


def make_krypton_units() -> UnitSystem:
    """Unit system for solid Krypton: sigma = 3.6 A, epsilon = 170 K.

    The mass is the modern standard atomic weight, 83.798 u.  The coupling
    comes out near 2.6e-4, i.e. kinetic energy is a small perturbation on
    the potential landscape, which is what makes the lattice-localized
    product state competitive in the first place.
    """
    return UnitSystem(sigma_m=KRYPTON_SIGMA_M,
                      epsilon_K=KRYPTON_EPSILON_K,
                      mass_u=KRYPTON_MASS_U)
