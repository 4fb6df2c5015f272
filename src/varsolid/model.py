"""Site orbital, pair potentials, Fourier transforms, and the pair energy.

The trial state is a product of exponential site orbitals

    phi_i(r) = D exp(-lam |r - x_i| / 2),

whose normalized density n(r) = lam^3 e^{-lam r}/(8 pi) has the 3-D Fourier
transform n~(k) = (1 + (k/lam)^2)^{-2}.  The interaction of two sites a
distance s apart is the six-dimensional smearing integral

    E_pair(s) = int n(r) v(|r - r' + s z^|) n(r') d^3r d^3r'
             = (1/2 pi^2) int_0^inf k^2 v~(k) n~(k)^2 j0(k s) dk.

For the two-Yukawa potential this integral is evaluated in closed form
rather than by quadrature.  Each Yukawa piece contributes, per unit
coupling, the smeared kernel

    I(alpha; lam, s) = FT^{-1}[ 1/(k^2+alpha^2) * lam^8/(k^2+lam^2)^4 ](s),

and the rational factor splits by partial fractions (D = alpha^2 - lam^2):

    lam^8/((k^2+alpha^2)(k^2+lam^2)^4)
        = (lam^8/D^4)/(k^2+alpha^2) + (lam^8/D^3)/(k^2+lam^2)^2
          - (lam^8/D^2)/(k^2+lam^2)^3 + (lam^8/D)/(k^2+lam^2)^4,

each term inverting through the standard table

    1/(k^2+a^2)   -> e^{-a w}/(4 pi w)
    1/(k^2+a^2)^2 -> e^{-a w}/(8 pi a)
    1/(k^2+a^2)^3 -> e^{-a w}(1 + a w)/(32 pi a^3)
    1/(k^2+a^2)^4 -> e^{-a w}(3 + 3 a w + a^2 w^2)/(192 pi a^5).

(The k^{-2} partial-fraction term with numerator lam^8/D^4 cancels between
alpha- and lam-poles, leaving no 1/w Coulomb remnant; the difference
(e^{-alpha s} - e^{-lam s})/s is computed with expm1 to keep full precision
at small s, with the smaller exponential factored out, e^{-min(alpha, lam) s},
so that the expm1 argument is never positive and nothing overflows at large
s.)  The closed form is exact for every s, including s = 0 (the
same-site penalty W) and the far tail where quadrature loses all digits to
cancellation.

Arrays: pair_energy takes one separation or an array of them, so a shell
sum is one call.  Over an array the float closed form runs as numpy
arithmetic: the coefficients lam^8/D^k are scalars computed once per call,
and e^{-lam s} and the polynomials in lam s are shared by both Yukawa
pieces.  Every entry is bitwise equal to the same formula evaluated in
Python floats one separation at a time, the way the recorded optimum was
computed.  For that the arithmetic keeps the scalar expression order
((3 lam) s, not 3 (lam s)), the square of lam s is written x*x (Python's
x**2 calls libm pow, which differs from the correctly rounded x*x on about
0.1% of arguments), and the exponentials are math.exp and math.expm1
mapped over the elements, not np.exp: np.exp differs from math.exp by one
ulp on about 5% of arguments, enough to move the solid's optimum by ~1e-7
relative.

One closed form in two precisions: the partial-fraction coefficients blow
up like D^{-4} when lam approaches a potential exponent.  Within a +-5%
relative window around alpha the same expression runs on an object array
of mpmath mpf separations, with mp.exp, mp.expm1 and mp.pi and with digits
scaled to the gap, so the result stays correct to full double precision
through exact degeneracy; the solid's optimum (lam ~ 91) never comes near
it.  A scalar times or plus an array keeps the array on the left (s * lam):
an mpf on the left makes mpmath convert the whole array through its string
form.  IEEE * and + commute, so the float results keep every bit.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np

#: relative |lam - alpha|/alpha below which pair_energy uses mpmath
DEGENERACY_WINDOW = 0.05

#: largest potential exponent n whose weight e^n is a finite double (~709.78)
MAX_EXPONENT = math.log(sys.float_info.max)


@dataclass(frozen=True)
class OrbitalParams:
    """Exponential site orbital with decay rate lam (1/sigma), untruncated."""

    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class TwoYukawaParams:
    """v(r) = -epsilon b [e^{-m(r/sigma-1)} - e^{-n(r/sigma-1)}] / (r/sigma).

    Defaults are the Van der Waals fit for noble gases; with them the well
    depth is ~ -1 epsilon near r ~ 1.1 sigma and v(sigma) = 0.
    """

    b: float = 2.026
    m: float = 2.69
    n: float = 14.70
    epsilon: float = 1.0
    sigma: float = 1.0

    def __post_init__(self) -> None:
        for name in ("b", "m", "n", "epsilon", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (MAX_EXPONENT >= self.n > self.m > 0.0):  # e^n must be a finite double
            raise ValueError(f"need {MAX_EXPONENT:.6g} >= n > m > 0 (e^n finite), "
                             f"got m={self.m}, n={self.n}")
        if self.b <= 0.0 or self.epsilon <= 0.0 or self.sigma <= 0.0:
            raise ValueError("b, epsilon, sigma must all be positive")


def orbital_norm_constant(lam: float, cutoff_a: float = math.inf) -> float:
    """D^2 normalizing phi = D e^{-lam r/2} inside radius a.

    int_0^a 4 pi r^2 e^{-lam r} dr = (8 pi / lam^3) [1 - e^{-la}(1 + la + (la)^2/2)]
    with la = lam a; the bracket -> 1 as a -> inf.
    """
    if not (math.isfinite(lam) and lam > 0.0):
        raise ValueError(f"lam must be positive and finite, got {lam}")
    if not cutoff_a > 0.0:
        raise ValueError(f"cutoff_a must be positive, got {cutoff_a}")
    if math.isinf(cutoff_a):
        return lam**3 / (8.0 * math.pi)
    la = lam * cutoff_a
    bracket = -math.expm1(-la) - math.exp(-la) * (la + 0.5 * la * la)
    return lam**3 / (8.0 * math.pi * bracket)


def density_fourier(p: OrbitalParams, k):
    """n~(k) = (1 + (k/lam)^2)^{-2}, the transform of lam^3 e^{-lam r}/(8 pi).

    n~(0) = 1 by normalization and n~ decreases monotonically to 0.
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("wavenumber must be >= 0")
    out = (1.0 + (k / p.lam) ** 2) ** -2
    return float(out) if out.ndim == 0 else out


def two_yukawa(r, p: TwoYukawaParams = TwoYukawaParams()):
    """Two-Yukawa potential at separation r (> 0); accepts arrays."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("two_yukawa is defined for r > 0 only")
    x = r / p.sigma
    out = -p.epsilon * p.b * (np.exp(-p.m * (x - 1.0)) - np.exp(-p.n * (x - 1.0))) / x
    return float(out) if out.ndim == 0 else out


def two_yukawa_fourier(k, p: TwoYukawaParams = TwoYukawaParams()):
    """v~(k) = -4 pi eps b sigma^3 [e^m/((k sig)^2+m^2) - e^n/((k sig)^2+n^2)].

    Follows from int e^{-a r}/r e^{-i k.r} d^3r = 4 pi/(k^2 + a^2) applied to
    each Yukawa piece (with its e^{+a} offset absorbing the r/sigma - 1 shift).
    """
    k = np.asarray(k, dtype=float)
    if np.any(k < 0.0):
        raise ValueError("wavenumber must be >= 0")
    ks2 = (k * p.sigma) ** 2
    out = -4.0 * np.pi * p.epsilon * p.b * p.sigma**3 * (
        np.exp(p.m) / (ks2 + p.m**2) - np.exp(p.n) / (ks2 + p.n**2))
    return float(out) if out.ndim == 0 else out


def _map(fn):
    """fn (math.exp or math.expm1) over every element of a 1-D float array."""
    return lambda x: np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)


#: (exp, expm1, pi) of the float branch and of the mpmath window branch
_FLOAT_OPS = (_map(math.exp), _map(math.expm1), math.pi)
_MP_OPS = (np.frompyfunc(mp.exp, 1, 1), np.frompyfunc(mp.expm1, 1, 1), mp.pi)


def _closed_form(lam, pot: TwoYukawaParams, pieces, s: np.ndarray, ops) -> np.ndarray:
    """The closed form (module docstring) over a 1-D array s of separations.

    `pieces` holds the two Yukawa terms as (weight e^m or e^n, exponent
    alpha).  Floats and a float64 array run with _FLOAT_OPS; mpf lam and
    alpha (promoted before any arithmetic, or alpha^2 - lam^2 cancels in
    double) and an object array of mpf run with _MP_OPS.
    """
    exp, expm1, pi = ops
    zero = s == 0.0
    s_div = np.where(zero, 1.0, s)
    x = s * lam
    els = exp(s * -lam)
    poly3 = 1.0 + x
    poly4 = 3.0 + s * (3.0 * lam) + x * x

    def smeared(alpha):
        d = (alpha - lam) * (alpha + lam)
        lam8 = lam**8
        a_ = lam8 / d**4
        b2 = lam8 / d**3
        b3 = -lam8 / d**2
        b4 = lam8 / d
        if lam < alpha:  # factor out the smaller exponent: no expm1 overflow
            tail = els * expm1(s * -(alpha - lam))
        else:
            tail = -exp(s * -alpha) * expm1(s * -(lam - alpha))
        core = np.where(zero, lam - alpha, tail / s_div)
        return (core * a_ / (4.0 * pi)
                + els * (poly3 * b3 / (32.0 * pi * lam**3)
                         + b2 / (8.0 * pi * lam)
                         + poly4 * b4 / (192.0 * pi * lam**5)))

    (weight_m, alpha_m), (weight_n, alpha_n) = pieces
    return ((smeared(alpha_m) * weight_m - smeared(alpha_n) * weight_n)
            * (-4.0 * pi * pot.epsilon * pot.b * pot.sigma))


def pair_energy(p: OrbitalParams, pot: TwoYukawaParams, s):
    """Interaction energy of two exponential site densities at separation s.

    Exact closed form of the convolution-theorem integral
    (1/2 pi^2) int k^2 v~(k) n~(k)^2 j0(ks) dk; positive at s = 0 (the
    same-site penalty), negative around the solid's neighbor distances,
    and exponentially small once the densities separate.

    `s` is a number or an array of separations.  A number gives a Python
    float; an array gives an array of its shape, each entry bitwise equal to
    the call with that entry alone (inside DEGENERACY_WINDOW too, where
    the array runs in mpmath as one object array).  Every entry must be
    finite and >= 0.
    """
    arr = np.asarray(s, dtype=float)
    flat = arr.reshape(-1)
    bad = ~(np.isfinite(flat) & (flat >= 0.0))
    if bad.any():
        raise ValueError(f"separation must be finite and >= 0, got {flat[bad][0]}")
    lam = p.lam
    alpha_m = pot.m / pot.sigma
    alpha_n = pot.n / pot.sigma
    gap = min(abs(lam - alpha_m) / alpha_m, abs(lam - alpha_n) / alpha_n)
    if gap < DEGENERACY_WINDOW:
        # 4 digits per decade lost to cancellation (~ gap^-3); an exact
        # coincidence is nudged by 1e-30 relative, invisible in a double
        digits = 30 + 4 * max(0, math.ceil(-math.log10(max(gap, 1e-30))))
        with mp.workdps(digits):
            lam_mp = mp.mpf(lam)
            am, an = mp.mpf(pot.m) / pot.sigma, mp.mpf(pot.n) / pot.sigma
            if lam_mp == am or lam_mp == an:
                lam_mp = lam_mp * (1 + mp.mpf(10) ** -30)
            pieces = ((mp.exp(pot.m), am), (mp.exp(pot.n), an))
            s_mp = np.frompyfunc(mp.mpf, 1, 1)(flat)
            out = _closed_form(lam_mp, pot, pieces, s_mp, _MP_OPS).astype(float)
    else:
        pieces = ((math.exp(pot.m), alpha_m), (math.exp(pot.n), alpha_n))
        out = _closed_form(lam, pot, pieces, flat, _FLOAT_OPS)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
