"""Self-gravitating ground states: bosons in closed form, fermions Thomas-Fermi.

Both problems use the attractive pair interaction -kappa/r and exponential
trial profiles, so every integral closes analytically:

* N bosons, each in phi ~ e^{-beta r}:

      <E> = N hbar^2 beta^2/(2 mu) - 5 kappa N(N-1) beta/16,

  minimized at beta* = 5 kappa mu (N-1)/(16 hbar^2).  The per-axis CoM
  variance is chi = 1/(beta*^2 N) = g^2/(N(N-1)^2) with g = 16 hbar^2/(5 kappa mu),
  shrinking as 1/N^3 while the uncertainty product stays hbar/sqrt(3).

* N fermions (occupation q per level), Thomas-Fermi functional on the trial
  density rho(r) = N gamma^3 e^{-gamma r}/(8 pi):

      E(gamma) = e_coeff hbar^2/(q^{2/3} mu) * int rho^{5/3}  -  (kappa/2) int int rho rho'/|r-r'|
               = A N^{5/3} gamma^2 - (5/32) kappa N^2 gamma,

  where the exponential profile gives int rho^{5/3} = C_KIN N^{5/3} gamma^2
  with C_KIN = (27/125)(8 pi)^{-2/3}, and the Coulomb self-energy is
  int int rho rho'/|r-r'| = (5/16) gamma N^2.  The minimum sits at
  gamma* = f kappa mu N^{1/3}/hbar^2 with the pure number
  f = 5 q^{2/3}/(64 e_coeff C_KIN), of order unity; chi = 4/(gamma*^2 N)
  then falls off as 1/N^{5/3}.

Every closed-form coefficient here (5/16, 5/32, C_KIN, the per-axis momentum
variance hbar^2 beta^2/3) is pinned against quadrature/Monte-Carlo oracles in
the test suite before being trusted.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

#: coefficient of N^{5/3} gamma^2 in int rho^{5/3} d^3r for the exponential
#: profile: int (N g^3 e^{-g r}/8 pi)^{5/3} 4 pi r^2 dr = (27/125)(8 pi)^{-2/3} N^{5/3} g^2
C_KIN = (27.0 / 125.0) * (8.0 * math.pi) ** (-2.0 / 3.0)


@dataclass(frozen=True)
class BosonSolution:
    beta_star: float
    energy: float
    chi: float  # per-axis CoM position variance
    omega: float  # per-axis total-momentum variance, hbar^2 units
    product_hbar: float  # sqrt(chi * omega) / hbar
    g_const: float  # 16 hbar^2/(5 kappa mu)
    N: int


@dataclass(frozen=True)
class FermionSolution:
    gamma_star: float
    f_factor: float
    energy: float
    chi: float
    q: int
    e_coeff: float
    N: int


def _fails_closed(solve):
    """`solve`, raising ValueError for a solution outside the double range."""
    @functools.wraps(solve)
    def checked(N, *args, **kwargs):
        try:
            sol = solve(N, *args, **kwargs)
        except (OverflowError, ZeroDivisionError) as exc:  # x**2 overflow, 1/underflow
            raise ValueError(f"the N={N} solution leaves the double range: {exc}") from exc
        if not all(math.isfinite(v) for v in dataclasses.astuple(sol)):
            raise ValueError(f"the N={N} solution leaves the double range: {sol}")
        return sol
    return checked


def boson_energy(beta: float, N: int, kappa: float = 1.0, mu: float = 1.0,
                 hbar: float = 1.0) -> float:
    """<E> = N hbar^2 beta^2/(2 mu) - 5 kappa N(N-1) beta/16.

    The pair term comes from the Coulomb integral of two e^{-2 beta r}
    densities, -5 kappa beta/8 per pair, times N(N-1)/2 pairs.
    """
    if not beta >= 0.0:  # NaN fails it too
        raise ValueError(f"beta must be >= 0, got {beta}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return N * hbar**2 * beta**2 / (2.0 * mu) - 5.0 * kappa * N * (N - 1) * beta / 16.0


@_fails_closed
def boson_solve(N: int, kappa: float = 1.0, mu: float = 1.0,
                hbar: float = 1.0) -> BosonSolution:
    """Variational optimum for N >= 2 self-gravitating bosons."""
    if N < 2:
        raise ValueError(f"need N >= 2 for a bound state, got {N}")
    if not all(math.isfinite(x) and x > 0.0 for x in (kappa, mu, hbar)):
        raise ValueError("kappa, mu, hbar must all be positive and finite")
    beta_star = 5.0 * kappa * mu * (N - 1) / (16.0 * hbar**2)
    g = 16.0 * hbar**2 / (5.0 * kappa * mu)
    chi = g * g / (N * float(N - 1) ** 2)
    omega = beta_star**2 * N / 3.0  # hbar^2 units; per-particle var is (hbar beta)^2/3
    return BosonSolution(beta_star=beta_star,
                         energy=boson_energy(beta_star, N, kappa, mu, hbar),
                         chi=chi,
                         omega=omega,
                         product_hbar=math.sqrt(chi * omega),
                         g_const=g,
                         N=N)


def fermion_tf_energy(gamma: float, N: int, q: int = 2, kappa: float = 1.0,
                      mu: float = 1.0, e_coeff: float = 5.0,
                      hbar: float = 1.0) -> float:
    """Thomas-Fermi energy of the exponential trial density at decay gamma."""
    if not gamma > 0.0:  # NaN fails it too
        raise ValueError(f"gamma must be positive, got {gamma}")
    if N < 1 or q < 1:
        raise ValueError(f"need N >= 1 and q >= 1, got N={N}, q={q}")
    a_kin = e_coeff * hbar**2 * C_KIN / (q ** (2.0 / 3.0) * mu)
    return a_kin * N ** (5.0 / 3.0) * gamma**2 - 5.0 / 32.0 * kappa * N**2 * gamma


@_fails_closed
def fermion_solve(N: int, q: int = 2, kappa: float = 1.0, mu: float = 1.0,
                  e_coeff: float = 5.0, hbar: float = 1.0) -> FermionSolution:
    """Thomas-Fermi optimum: gamma* = f kappa mu N^{1/3}/hbar^2.

    The linear-over-quadratic structure gives the minimum in closed form;
    f = 5 q^{2/3}/(64 e_coeff C_KIN) stays order unity for any sensible
    kinetic prefactor e_coeff.
    """
    if N < 2:
        raise ValueError(f"need N >= 2 for a bound state, got {N}")
    if q < 1:
        raise ValueError(f"occupation must be >= 1, got {q}")
    if not all(math.isfinite(x) and x > 0.0 for x in (kappa, mu, e_coeff, hbar)):
        raise ValueError("kappa, mu, e_coeff, hbar must all be positive and finite")
    f = 5.0 * q ** (2.0 / 3.0) / (64.0 * e_coeff * C_KIN)
    gamma_star = f * kappa * mu * N ** (1.0 / 3.0) / hbar**2
    chi = 4.0 / (gamma_star**2 * N)
    return FermionSolution(gamma_star=gamma_star,
                           f_factor=f,
                           energy=fermion_tf_energy(gamma_star, N, q, kappa,
                                                    mu, e_coeff, hbar),
                           chi=chi,
                           q=q,
                           e_coeff=e_coeff,
                           N=N)
