"""Energy per particle of the lattice-localized product state.

With one particle per site the expectation of H splits into the analytic
kinetic term of the exponential orbital and a shell sum of pair energies,

    u(lam, d) = Lambda lam^2 / 8 + (1/2) sum_n c_n E_pair(r_n),

where c_n is the coordination count of shell n and the 1/2 stops double
counting.  Everything is per particle; surface corrections of a finite body
are O(N^{-1/3}) and ignored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .lattice import LatticeShells
from .model import OrbitalParams, TwoYukawaParams, pair_energy
from .units import UnitSystem


@dataclass(frozen=True)
class EnergyBreakdown:
    """Kinetic, potential, and total energy per particle (epsilon).

    lam_derivatives holds d total/d lam and d2 total/d lam2 up to the order
    asked of energy_per_particle; it is empty at order 0.
    """

    kinetic: float
    potential_total: float
    total: float
    lam_derivatives: tuple[float, ...] = ()


class SameSiteW(NamedTuple):
    W: float
    ratio: float


def kinetic_per_particle(p: OrbitalParams, units: UnitSystem) -> float:
    """hbar^2 lam^2 / (8 mu) = Lambda lam^2 / 8 in epsilon units.

    For phi ~ e^{-lam r/2} the gradient is radial with |grad phi| =
    (lam/2) phi, so int |grad phi|^2 = lam^2/4 and T = (hbar^2/2mu)(lam^2/4).
    A lam whose kinetic energy is not a finite double is rejected.
    """
    try:
        kinetic = units.coupling * p.lam**2 / 8.0
    except OverflowError:  # lam**2 beyond the doubles
        kinetic = math.inf
    if not math.isfinite(kinetic):
        raise ValueError(f"lam={p.lam!r}: the kinetic energy Lambda lam^2/8 overflows")
    return kinetic


def energy_per_particle(p: OrbitalParams, pot: TwoYukawaParams,
                        shells: LatticeShells, units: UnitSystem,
                        order: int = 0) -> EnergyBreakdown:
    """Average energy per particle for orbital p on the given shell structure.

    order 1 or 2 also sums the lam-derivative rows of the same pair_energy
    call and adds the kinetic derivatives Lambda lam/4 and Lambda/4.  Each
    sum is math.fsum of the products 0.5 c_n E_n, with the shells' own
    weights 0.5 c_n, so it is correctly rounded whatever the shell order.
    A lam outside pair_energy's domain (LAM_RANGE) raises ValueError.
    """
    weights = shells.weights
    if weights.size == 0:
        raise ValueError("shell list is empty")
    kinetic = kinetic_per_particle(p, units)
    weighted = (weights * pair_energy(p, pot, shells.distances_r, order)).tolist()
    if order == 0:
        potential_total = math.fsum(weighted)
        return EnergyBreakdown(kinetic, potential_total, kinetic + potential_total)
    potential_total, *potential_derivatives = map(math.fsum, weighted)
    kinetic_derivatives = (units.coupling * p.lam / 4.0, units.coupling / 4.0)
    return EnergyBreakdown(kinetic, potential_total, kinetic + potential_total,
                           tuple([k + v for k, v in zip(kinetic_derivatives,
                                                        potential_derivatives)]))


def same_site_W(p: OrbitalParams, pot: TwoYukawaParams,
                shells: LatticeShells, units: UnitSystem) -> SameSiteW:
    """Double-occupancy penalty W = E_pair(0) and its size relative to binding.

    The ratio compares W against |potential energy per particle| (the
    interaction part alone, not the total): at the solid's optimum it is of
    order 1e7, which is what forbids multiply-occupied sites energetically.
    """
    w = pair_energy(p, pot, 0.0)
    potential = energy_per_particle(p, pot, shells, units).potential_total
    ratio = math.inf if potential == 0.0 else w / abs(potential)
    return SameSiteW(W=w, ratio=ratio)
