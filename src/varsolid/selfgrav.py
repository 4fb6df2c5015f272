"""Self-gravitating ground states: bosons in closed form, fermions Thomas-Fermi.

Both problems use the attractive pair interaction -kappa/r and exponential
trial profiles, so every integral closes analytically.  Units have hbar = 1,
as in the rest of the package: hbar enters every formula below only as
hbar^2/mu, so another hbar is the same problem at mass mu/hbar^2.

* N bosons, each in phi ~ e^{-beta r}:

      <E> = N beta^2/(2 mu) - 5 kappa N(N-1) beta/16,

  minimized at beta* = 5 kappa mu (N-1)/16.  The density e^{-2 beta r} is
  com_statistics' orbital at lam = 2 beta, so chi = 4/((2 beta*)^2 N) =
  g^2/(N(N-1)^2), g = 16/(5 kappa mu): 1/N^3, at product 1/sqrt(3).

* N fermions (occupation q per level), Thomas-Fermi functional on the trial
  density rho(r) = N gamma^3 e^{-gamma r}/(8 pi):

      E(gamma) = e_coeff/(q^{2/3} mu) * int rho^{5/3}  -  (kappa/2) int int rho rho'/|r-r'|
               = A N^{5/3} gamma^2 - (5/32) kappa N^2 gamma,

  where the exponential profile gives int rho^{5/3} = C_KIN N^{5/3} gamma^2
  with C_KIN = (27/125)(8 pi)^{-2/3}, and the Coulomb self-energy is
  int int rho rho'/|r-r'| = (5/16) gamma N^2.  The minimum sits at
  gamma* = f kappa mu N^{1/3} with the pure number
  f = 5 q^{2/3}/(64 e_coeff C_KIN), of order unity; chi = 4/(gamma*^2 N),
  com_statistics at lam = gamma*, then falls off as 1/N^{5/3}.

Every closed-form coefficient here (5/16, 5/32, C_KIN, the per-axis momentum
variance beta^2/3) is pinned against quadrature/Monte-Carlo oracles in the
test suite before being trusted.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
from dataclasses import dataclass

from .observables import com_statistics
from .units import check_positive

#: coefficient of N^{5/3} gamma^2 in int rho^{5/3} d^3r for the exponential
#: profile: int (N g^3 e^{-g r}/8 pi)^{5/3} 4 pi r^2 dr = (27/125)(8 pi)^{-2/3} N^{5/3} g^2
C_KIN = (27.0 / 125.0) * (8.0 * math.pi) ** (-2.0 / 3.0)


@dataclass(frozen=True)
class BosonSolution:
    beta_star: float
    energy: float
    chi: float  # per-axis CoM position variance
    omega: float  # per-axis total-momentum variance
    product_hbar: float  # sqrt(chi * omega), in units of hbar


@dataclass(frozen=True)
class FermionSolution:
    gamma_star: float
    f_factor: float
    energy: float
    chi: float


def _fails_closed(f):
    """`f`, raising ValueError that names the arguments of the call where f
    raises ValueError, overflows or divides by zero, or returns a value (a
    float, or a tuple or record of floats) that leaves the doubles."""
    signature = inspect.signature(f)

    @functools.wraps(f)
    def checked(*args, **kwargs):
        try:
            out = f(*args, **kwargs)
        except ValueError as exc:
            reason = str(exc)
        except (OverflowError, ZeroDivisionError) as exc:  # x**2 overflow, 1/underflow
            reason = f"leaves the doubles: {exc}"
        else:
            values = (dataclasses.astuple(out) if dataclasses.is_dataclass(out)
                      else out if isinstance(out, tuple) else (out,))
            if all(map(math.isfinite, values)):  # inf - inf = NaN fails too
                return out
            reason = f"leaves the doubles: {out}"
        call = ", ".join(f"{name}={value!r}" for name, value
                         in signature.bind(*args, **kwargs).arguments.items())
        raise ValueError(f"{f.__name__}({call}): {reason}")
    return checked


@_fails_closed
def boson_energy(beta: float, N: int, kappa: float = 1.0,
                 mu: float = 1.0) -> float:
    """<E> = N beta^2/(2 mu) - 5 kappa N(N-1) beta/16, with hbar = 1.

    The pair term comes from the Coulomb integral of two e^{-2 beta r}
    densities, -5 kappa beta/8 per pair, times N(N-1)/2 pairs.
    """
    if not beta >= 0.0:  # NaN fails it too
        raise ValueError(f"beta must be >= 0, got {beta}")
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    check_positive(mu=mu)
    return N * beta**2 / (2.0 * mu) - 5.0 * kappa * N * (N - 1) * beta / 16.0


@_fails_closed
def boson_solve(N: int, kappa: float = 1.0, mu: float = 1.0) -> BosonSolution:
    """Variational optimum for N >= 2 self-gravitating bosons (hbar = 1)."""
    if N < 2:
        raise ValueError(f"need N >= 2 for a bound state, got {N}")
    check_positive(kappa=kappa, mu=mu)
    beta_star = 5.0 * kappa * mu * (N - 1) / 16.0
    com = com_statistics(2.0 * beta_star, N)  # density e^{-2 beta r}
    return BosonSolution(beta_star=beta_star,
                         energy=boson_energy(beta_star, N, kappa, mu),
                         chi=com.chi,
                         omega=com.omega,
                         product_hbar=com.product)


@_fails_closed
def fermion_tf_energy(gamma: float, N: int, q: int = 2, kappa: float = 1.0,
                      mu: float = 1.0, e_coeff: float = 5.0) -> float:
    """Thomas-Fermi energy of the exponential density at decay gamma (hbar = 1)."""
    if not gamma > 0.0:  # NaN fails it too
        raise ValueError(f"gamma must be positive, got {gamma}")
    if N < 1 or not 1 <= q < math.inf:
        raise ValueError(f"need N >= 1 and a finite q >= 1, got N={N}, q={q}")
    check_positive(mu=mu, e_coeff=e_coeff)
    a_kin = e_coeff * C_KIN / (q ** (2.0 / 3.0) * mu)
    return a_kin * N ** (5.0 / 3.0) * gamma**2 - 5.0 / 32.0 * kappa * N**2 * gamma


@_fails_closed
def fermion_solve(N: int, q: int = 2, kappa: float = 1.0, mu: float = 1.0,
                  e_coeff: float = 5.0) -> FermionSolution:
    """Thomas-Fermi optimum: gamma* = f kappa mu N^{1/3}, with hbar = 1.

    The linear-over-quadratic structure gives the minimum in closed form;
    f = 5 q^{2/3}/(64 e_coeff C_KIN) stays order unity for any sensible
    kinetic prefactor e_coeff.
    """
    if N < 2:
        raise ValueError(f"need N >= 2 for a bound state, got {N}")
    if q < 1:
        raise ValueError(f"occupation must be >= 1, got {q}")
    check_positive(kappa=kappa, mu=mu, e_coeff=e_coeff)
    f = 5.0 * q ** (2.0 / 3.0) / (64.0 * e_coeff * C_KIN)
    gamma_star = f * kappa * mu * N ** (1.0 / 3.0)
    return FermionSolution(gamma_star=gamma_star,
                           f_factor=f,
                           energy=fermion_tf_energy(gamma_star, N, q, kappa,
                                                    mu, e_coeff),
                           chi=com_statistics(gamma_star, N).chi)
