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
relative.  Two maps are skipped, bitwise: an array whose every argument lies
at or below a saturation floor is the constant the map would give, 0.0 for
exp at EXP_FLOOR = -746 and -1.0 for expm1 at EXPM1_FLOOR = -40.  At the
solid's optimum (lam ~ 91, every s >= d ~ 1.1) both expm1 maps are wholly
saturated, two of the five maps of a call, and core skips them outright:
the smallest separation settles it, and -e^{-alpha s} * -1.0 is
e^{-alpha s} bitwise.  Likewise the masks that put core's s -> 0 limit at
s = 0 run only when some separation is that small.  pair_energy validates
its separations with one min and one max, and hands the min on.

One closed form in two precisions: the partial-fraction coefficients blow
up like D^{-4} when lam approaches a potential exponent.  Within a +-5%
relative window around alpha the same expression runs on an object array
of mpmath mpf separations, with mp.exp, mp.expm1 and mp.pi and with digits
scaled to the gap, so the result stays correct to full double precision
through exact degeneracy; the solid's optimum (lam ~ 91) never comes near
it.  A scalar times or plus an array keeps the array on the left (s * lam):
an mpf on the left makes mpmath convert the whole array through its string
form.  IEEE * and + commute, so the float results keep every bit.

Derivatives in lam: pair_energy(..., order=1 or 2) returns the rows
(value, d/dlam, d2/dlam2) of one call, and the optimizer's Newton step in
lam uses them.  Every lam-dependent coefficient is a term lam^p D^-k with
D = alpha^2 - lam^2, whose derivatives follow from its log-derivative
p/lam + 2k lam/D; the arrays need only core' = e^{-lam s} (1 at s = 0),
core'' = -s e^{-lam s} and (e^{-lam s})' = -s e^{-lam s}.  The rows are
written once (_lam_rows) and run in both precisions, with 4 + order digits
per decade of closeness in the mpmath window.  The value row is the order 0
expression, bitwise in the float branch; in the window it runs at those
extra digits, and rounds to the same double unless it lies within ~1e-30
relative of a rounding boundary.  The derivative rows have no bitwise
contract, and they sum the two Yukawa pieces' scalar coefficients before
any array work, so an order 2 call costs about 1.5 value calls.  In the
float branch their cancellation grows like gap^-(3 + order) towards the
window, where it reaches a few 1e-9 relative for the second derivative.
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
    if not np.all(k >= 0.0):  # NaN fails it too
        raise ValueError("wavenumber must be >= 0")
    out = (1.0 + (k / p.lam) ** 2) ** -2
    return float(out) if out.ndim == 0 else out


def two_yukawa(r, p: TwoYukawaParams = TwoYukawaParams()):
    """Two-Yukawa potential at separation r (> 0); accepts arrays."""
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):  # NaN fails it too
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
    if not np.all(k >= 0.0):  # NaN fails it too
        raise ValueError("wavenumber must be >= 0")
    ks2 = (k * p.sigma) ** 2
    out = -4.0 * np.pi * p.epsilon * p.b * p.sigma**3 * (
        np.exp(p.m) / (ks2 + p.m**2) - np.exp(p.n) / (ks2 + p.n**2))
    return float(out) if out.ndim == 0 else out


#: arguments at or below which math.exp and math.expm1 are exactly 0.0 and
#: -1.0: e^-746 is below half the smallest subnormal (~4.9e-324), and e^-40
#: below half an ulp of 1 (~5.6e-17)
EXP_FLOOR = -746.0
EXPM1_FLOOR = -40.0


def _map(fn, floor: float, saturated: float):
    """fn (math.exp or math.expm1) over every element of a 1-D float array.

    An array wholly at or below `floor` is `saturated` in every entry,
    which is what the map would give, without running it.
    """
    def apply(x: np.ndarray) -> np.ndarray:
        # shell distances ascend, so x[0] is the largest argument there
        # and usually settles the test without the reduction
        if x.size and x[0] <= floor and x.max() <= floor:
            return np.full(x.size, saturated)
        return np.fromiter(map(fn, x.tolist()), dtype=float, count=x.size)
    return apply


#: (exp, expm1, pi, expm1's saturation floor) of the float branch and of
#: the mpmath window branch, where no finite argument saturates expm1
_FLOAT_OPS = (_map(math.exp, EXP_FLOOR, 0.0), _map(math.expm1, EXPM1_FLOOR, -1.0),
              math.pi, EXPM1_FLOOR)
_MP_OPS = (np.frompyfunc(mp.exp, 1, 1), np.frompyfunc(mp.expm1, 1, 1), mp.pi, -math.inf)


#: the lam-dependent scalars of one Yukawa piece, each lam^p D^-k/(c pi) as
#: (c, p, k): the coefficient of core, then those of 1, poly3 and poly4 in
#: the e^{-lam s} bracket (b2/(8 pi lam), b3/(32 pi lam^3), b4/(192 pi lam^5))
_TERMS = ((4.0, 8, 4), (8.0, 7, 3), (-32.0, 5, 2), (192.0, 3, 1))


def _lam_jets(weight, lam, alpha) -> list:
    """(f, df/dlam, d2f/dlam2) of each f = weight lam^p D^-k / c of _TERMS.

    With D = alpha^2 - lam^2 the log-derivative is g = f'/f = p/lam +
    2k lam/D and f'' = f (g^2 + g'), g' = -p/lam^2 + 2k (alpha^2 + lam^2)/D^2.
    Both are put over one denominator, where the lam^2 terms that cancel
    for lam >> alpha (p = 2k) drop out exactly.
    """
    a2, l2 = alpha * alpha, lam * lam
    d = (alpha - lam) * (alpha + lam)
    lam_d, l2_d2 = lam * d, l2 * d * d
    jets = []
    for c, p, k in _TERMS:
        f = lam**p / d**k * (weight / c)
        g = (p * a2 + (2 * k - p) * l2) / lam_d
        dg = (((2 * p + 2 * k) * l2 - p * a2) * a2 + (2 * k - p) * l2 * l2) / l2_d2
        jets.append((f, f * g, f * (g * g + dg)))
    return jets


def _horner(s: np.ndarray, coefs) -> np.ndarray:
    """sum_i coefs[i] s^i, in place, the array on the left of every operation."""
    acc = s * coefs[-1]
    for c in coefs[-2:0:-1]:
        acc += c
        acc *= s
    acc += coefs[0]
    return acc


def _closed_form(lam, pot: TwoYukawaParams, pieces, s: np.ndarray, smin, ops,
                 order: int = 0) -> np.ndarray:
    """The closed form (module docstring) over a 1-D array s of separations.

    `smin` is the smallest entry of s (inf if s is empty).  `pieces` holds
    the two Yukawa terms as (weight e^m or e^n, exponent alpha).  Floats
    and a float64 array run with _FLOAT_OPS; mpf lam and alpha (promoted
    before any arithmetic, or alpha^2 - lam^2 cancels in double) and an
    object array of mpf run with _MP_OPS.  order 0 gives the values; order
    1 or 2 stacks the lam-derivative rows under them.
    """
    exp, expm1, pi, expm1_floor = ops
    # where s |lam - alpha| is 0 or subnormal, expm1's argument has lost its
    # relative precision and core is its s -> 0 limit lam - alpha; the masks
    # run only when some s is that small
    tiny = sys.float_info.min / min(abs(lam - alpha) for _, alpha in pieces)
    has_tiny = smin < tiny
    x = s * lam
    els = exp(s * -lam)
    poly3 = 1.0 + x
    poly4 = 3.0 + s * (3.0 * lam) + x * x

    def core(alpha):
        """(e^{-alpha s} - e^{-lam s})/s, and lam - alpha at s = 0."""
        if lam < alpha:  # factor out the smaller exponent: no expm1 overflow
            tail = els * expm1(s * -(alpha - lam))
        elif smin * -(lam - alpha) <= expm1_floor:
            # expm1's largest argument, at smin, is saturated: it is -1.0 at
            # every s, and -e^{-alpha s} * -1.0 is e^{-alpha s} bitwise
            tail = exp(s * -alpha)
        else:
            tail = -exp(s * -alpha) * expm1(s * -(lam - alpha))
        if not has_tiny:
            return tail / s
        limit = s * abs(lam - alpha) < sys.float_info.min
        return np.where(limit, lam - alpha, tail / np.where(limit, 1.0, s))

    def smeared(alpha, core_a):
        d = (alpha - lam) * (alpha + lam)
        lam8 = lam**8
        a_ = lam8 / d**4
        b2 = lam8 / d**3
        b3 = -lam8 / d**2
        b4 = lam8 / d
        return (core_a * a_ / (4.0 * pi)
                + els * (poly3 * b3 / (32.0 * pi * lam**3)
                         + b2 / (8.0 * pi * lam)
                         + poly4 * b4 / (192.0 * pi * lam**5)))

    (weight_m, alpha_m), (weight_n, alpha_n) = pieces
    core_m, core_n = core(alpha_m), core(alpha_n)
    scale = -4.0 * pi * pot.epsilon * pot.b * pot.sigma
    value = ((smeared(alpha_m, core_m) * weight_m - smeared(alpha_n, core_n) * weight_n)
             * scale)
    if order == 0:
        return value
    return np.stack([value, *_lam_rows(order, lam, pieces, scale, pi, s, els,
                                       (core_m, core_n))])


def _lam_rows(order: int, lam, pieces, scale, pi, s, els, cores) -> list:
    """d/dlam and d2/dlam2 of the closed form, from its shared arrays.

    Per piece the closed form is h core + e^{-lam s} P(s), with a scalar h
    and P(s) = p0 + p1 s + p2 s^2, all from the _TERMS scalars.  The two
    pieces' scalars are summed first, so each row is two core terms plus
    e^{-lam s} times one polynomial in s.  With core' = e^{-lam s},
    core'' = -s e^{-lam s} and (e^{-lam s})' = -s e^{-lam s}:

        row 1 = sum h' core + e^{-lam s} (P' - s P + H)
        row 2 = sum h'' core + e^{-lam s} (P'' - 2 s P' + s^2 P + 2 H' - s H),

    where H = sum h and a prime acts on the coefficients of P at fixed s.
    The scalars leave out `scale`, which multiplies each row last: folded
    into them first, a large b overflows them while the rows stay finite.
    """
    (weight_m, alpha_m), (weight_n, alpha_n) = pieces
    hm, *gm = _lam_jets(weight_m / pi, lam, alpha_m)
    hn, *gn = _lam_jets(-weight_n / pi, lam, alpha_n)
    g2, g3, g4 = ([u + v for u, v in zip(jm, jn)] for jm, jn in zip(gm, gn))
    # with poly3 = 1 + lam s and poly4 = 3 + 3 lam s + lam^2 s^2:
    # p0 = g2 + q, p1 = lam q and p2 = lam^2 g4, where q = g3 + 3 g4
    q = [u + 3.0 * v for u, v in zip(g3, g4)]
    p0 = [u + v for u, v in zip(g2, q)]
    p1 = [lam * q[0], q[0] + lam * q[1], 2.0 * q[1] + lam * q[2]]
    p2 = [lam * lam * g4[0], 2.0 * lam * g4[0] + lam * lam * g4[1],
          2.0 * g4[0] + 4.0 * lam * g4[1] + lam * lam * g4[2]]
    h0, h1 = hm[0] + hn[0], hm[1] + hn[1]
    rows = [cores[0] * hm[1] + cores[1] * hn[1]
            + els * _horner(s, (p0[1] + h0, p1[1] - p0[0], p2[1] - p1[0], -p2[0]))]
    if order == 2:
        rows.append(cores[0] * hm[2] + cores[1] * hn[2]
                    + els * _horner(s, (p0[2] + 2.0 * h1, p1[2] - 2.0 * p0[1] - h0,
                                        p2[2] - 2.0 * p1[1] + p0[0],
                                        p1[0] - 2.0 * p2[1], p2[0])))
    return [row * scale for row in rows]


def pair_energy(p: OrbitalParams, pot: TwoYukawaParams, s, order: int = 0):
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

    order 1 or 2 returns the rows (value, d/dlam, d2/dlam2)[:order + 1] as
    one array of shape (order + 1, *shape of s); its value row is the order
    0 result (module docstring).
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    arr = np.asarray(s, dtype=float)
    flat = arr.reshape(-1)
    # NaN fails smin >= 0, and -inf or +inf fails it or isfinite(smax)
    smin, smax = (float(flat.min()), float(flat.max())) if flat.size else (math.inf, 0.0)
    if not (smin >= 0.0 and math.isfinite(smax)):
        bad = ~(np.isfinite(flat) & (flat >= 0.0))
        raise ValueError(f"separation must be finite and >= 0, got {flat[bad][0]}")
    lam = p.lam
    alpha_m = pot.m / pot.sigma
    alpha_n = pot.n / pot.sigma
    gap = min(abs(lam - alpha_m) / alpha_m, abs(lam - alpha_n) / alpha_n)
    if gap < DEGENERACY_WINDOW:
        # 4 digits per decade lost to cancellation (~ gap^-3), one more per
        # derivative order; an exact coincidence is nudged by 1e-30
        # relative, invisible in a double
        decades = max(0, math.ceil(-math.log10(max(gap, 1e-30))))
        with mp.workdps(30 + (4 + order) * decades):
            lam_mp = mp.mpf(lam)
            am, an = mp.mpf(pot.m) / pot.sigma, mp.mpf(pot.n) / pot.sigma
            if lam_mp == am or lam_mp == an:
                lam_mp = lam_mp * (1 + mp.mpf(10) ** -30)
            pieces = ((mp.exp(pot.m), am), (mp.exp(pot.n), an))
            s_mp = np.frompyfunc(mp.mpf, 1, 1)(flat)
            out = _closed_form(lam_mp, pot, pieces, s_mp, smin, _MP_OPS,
                               order).astype(float)
    else:
        pieces = ((math.exp(pot.m), alpha_m), (math.exp(pot.n), alpha_n))
        out = _closed_form(lam, pot, pieces, flat, smin, _FLOAT_OPS, order)
    if order:
        return out.reshape((order + 1, *arr.shape))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
