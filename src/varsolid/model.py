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
at small s; in float64 the smaller exponential is factored out,
e^{-min(alpha, lam) s}, so that the expm1 argument is never positive and
nothing overflows at large s.)  The closed form is exact for every s,
including s = 0 (the same-site penalty W) and the far tail where
quadrature loses all digits to cancellation.

Arrays: pair_energy takes one separation or an array of them, so a shell
sum is one call.  Over an array the float closed form runs as numpy
arithmetic, in place: the coefficients lam^8/D^k and the pi factors are
scalars computed once per call, and e^{-lam s} and the polynomials in lam s
are shared by both Yukawa pieces.  Every entry is bitwise equal to the same
formula evaluated in Python floats one separation at a time, the way the
recorded optimum was computed.  For that the arithmetic keeps the scalar
expression's operations in their order ((3 lam) s, not 3 (lam s); a
product, then a quotient), the square of lam s is written x*x (Python's
x**2 calls libm pow, which differs from the correctly rounded x*x on about
0.1% of arguments), and the exponentials are libm's exp and expm1, the
functions math.exp and math.expm1 call.  numpy's float64 np.exp and
np.expm1 are numpy's own SIMD code, one ulp off libm on a few percent of
arguments, enough to move the solid's optimum by ~1e-7 relative; their
complex128 forms call libm once per entry, and at x + 0i their real parts
are libm's values exactly (_libm).  One call makes one exp pass, over
e^{-lam s} and the pieces' e^{-alpha s} stacked as rows, and at most one
expm1 pass.  A piece's expm1 is skipped, bitwise, when its largest
argument, at the smallest separation, is at or below EXPM1_FLOOR = -40,
where expm1 is -1.0 at every s: -e^{-alpha s} * -1.0 is e^{-alpha s}.  At
the solid's optimum (lam ~ 91, every s >= d ~ 1.1) both pieces skip it, and
the exp pass is the call's only one.  Likewise the masks that put core's
s -> 0 limit at s = 0 run only when some separation is that small.
pair_energy validates its separations with one min and one max, and hands
the min on.  Its per-call set-up is scalar work only: the same outer
product gives the exponent arguments and lam s, 3 lam s for the
polynomials, and the rows of an order 1 or 2 call are written into one
array.  That set-up, and the ~35 numpy operations of a call, each ~1 us
whatever its length, make most of its cost: a float call on 133
separations costs about what a call on one does.

One closed form in two precisions: the partial-fraction coefficients blow
up like D^{-4} when lam approaches a potential exponent.  Within a +-5%
relative window around alpha the closed form runs on an object array of
mpmath mpf separations, with digits scaled to the gap, so the result stays
correct to full double precision through exact degeneracy; the solid's
optimum (lam ~ 91) never comes near it.  There exp is libmp's mpf_exp at
working precision, the call mp.exp makes, and expm1 is mpf_exp with as
many extra bits as the subtraction of 1 cancels, minus 1, rounded back:
within an ulp of mp.expm1 at about the cost of one exp.  An mpf cannot
overflow, so the window needs neither the smaller-exponent split nor its
extra e^{-alpha s}: each piece's core is e^{-lam s} E/s with
E = expm1((lam - alpha) s), for either sign of lam - alpha, and every row
is e^{-lam s} [sum h E/s + P(s)] (below), the bracket summed first and
multiplied by e^{-lam s} once.  That is three exponentials per separation,
where the float branch takes up to five.  A scalar times or plus an array
keeps the array on the left (s * lam): an mpf on the left makes mpmath
convert the whole array through its string form.  IEEE * and + commute, so
the float results keep every bit.

Derivatives in lam: pair_energy(..., order=1 or 2) returns the rows
(value, d/dlam, d2/dlam2) of one call, and the optimizer's Newton step in
lam uses them.  Every lam-dependent coefficient is a term lam^p D^-k with
D = alpha^2 - lam^2, whose derivatives follow from its log-derivative
p/lam + 2k lam/D; the arrays need only core' = e^{-lam s} (1 at s = 0),
core'' = -s e^{-lam s} and (e^{-lam s})' = -s e^{-lam s}.  The rows are
written once (_lam_rows) as h core + e^{-lam s} P(s) summed over the two
pieces, with scalar jets h and P's coefficients, and run in both
precisions, with 4 + order digits per decade of closeness in the mpmath
window.  The float branch keeps the term-by-term value expression
(_closed_form), bitwise the formula the recorded optimum was computed
with, and stacks rows 1..order under it.  The window takes rows 0..order
from the jets with e^{-lam s} factored out: at order 0 a separation costs
its three exponentials and 14 other mpf operations, against ~41 for the
term-by-term value.  At its extra digits each row rounds to the double the
term-by-term form gives unless it lies within ~1e-30 relative of a
rounding boundary, and _closed_form keeps that form in both precisions as
the window's reference.  The derivative rows sum the two Yukawa pieces'
scalar coefficients before any array work, so an order 2 call costs about
1.5 value calls.  In the float branch their cancellation grows like
gap^-(3 + order) towards the window, where it reaches a few 1e-9 relative
for the second derivative.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import mpmath as mp
import numpy as np
from mpmath.libmp import fone, fzero, mpf_exp, mpf_sub

#: relative |lam - alpha|/alpha below which pair_energy uses mpmath
DEGENERACY_WINDOW = 0.05

#: the orbital decay rates pair_energy accepts, 2^-126 ~ 1.2e-38 to 2^126 ~
#: 8.5e37: lam^8, the closed form's largest power, and 192 pi lam^5, its
#: smallest divisor, are normal doubles there; outside, they overflow or
#: underflow to NaN
LAM_RANGE = (2.0**-126, 2.0**126)

#: lam s past which pair_energy evaluates the polynomials that e^{-lam s}
#: multiplies at a stand-in separation FAR_LAM_S/lam: e^{-lam s} is 0.0
#: long before (from ~745), and near the top of the doubles the
#: polynomials overflow
FAR_LAM_S = 1e20

#: largest potential exponent n whose weight e^n is a finite double (~709.78)
MAX_EXPONENT = math.log(sys.float_info.max)

#: binary exponent of the largest Yukawa weight the float jets take (_lam_rows)
WEIGHT_EXP = 512

#: ln b + n past which the potential's largest weight b e^n exceeds
#: 2^WEIGHT_EXP (~354.9): only there can a pair energy leave the doubles
#: (from n ~ 700 at the default b, or b ~ 1e300 at the default n), and only
#: there does pair_energy check that it has not
HEAVY_N = WEIGHT_EXP * math.log(2.0)


@dataclass(frozen=True)
class OrbitalParams:
    """Exponential site orbital with decay rate lam (1/sigma), untruncated."""

    lam: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lam) and self.lam > 0.0):
            raise ValueError(f"lam must be positive and finite, got {self.lam}")


@dataclass(frozen=True)
class TwoYukawaParams:
    """v(r) = -b [e^{-m(r-1)} - e^{-n(r-1)}] / r, in the natural units of
    the potential: r in sigma and v in epsilon (UnitSystem holds both).

    Defaults are the Van der Waals fit for noble gases; with them the well
    depth is ~ -1 near r ~ 1.1 and v(1) = 0.
    """

    b: float = 2.026
    m: float = 2.69
    n: float = 14.70

    #: the length unit, a class constant, not a field: only perfbench reads it
    sigma = 1.0

    def __post_init__(self) -> None:
        for name in ("b", "m", "n"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if not (MAX_EXPONENT >= self.n > self.m > 0.0):  # e^n must be a finite double
            raise ValueError(f"need {MAX_EXPONENT:.6g} >= n > m > 0 (e^n finite), "
                             f"got m={self.m}, n={self.n}")
        if self.b <= 0.0:
            raise ValueError("b must be positive")


def density_fourier(p: OrbitalParams, k):
    """n~(k) = (1 + (k/lam)^2)^{-2}, the transform of lam^3 e^{-lam r}/(8 pi).

    n~(0) = 1 by normalization and n~ decreases monotonically to 0.  From
    k = 2^511 lam, where (k/lam)^2 nears the top of the doubles, n~ is 0.0,
    the value it underflows to there.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k >= 0.0):  # NaN fails it too
        raise ValueError("wavenumber must be >= 0")
    out = (1.0 + (np.where(k < 2.0**511 * p.lam, k, np.inf) / p.lam) ** 2) ** -2
    return float(out) if out.ndim == 0 else out


def two_yukawa(r, p: TwoYukawaParams = TwoYukawaParams()):
    """Two-Yukawa potential at separation r (> 0); accepts arrays.

    A float takes the same expression without the array round trip, which
    costs the quadrature oracles most of each call; np.exp keeps it bitwise,
    and Python float arithmetic overflows to inf without a warning.  An r
    so small that the value leaves the doubles raises ValueError naming it.
    """
    if isinstance(r, float):
        if not r > 0.0:  # NaN fails it too
            raise ValueError("two_yukawa is defined for r > 0 only")
        out = -p.b * float(np.exp(-p.m * (r - 1.0)) - np.exp(-p.n * (r - 1.0))) / r
        if not math.isfinite(out):
            raise ValueError(f"two_yukawa at r={r!r} leaves the doubles")
        return out
    r = np.asarray(r, dtype=float)
    if not np.all(r > 0.0):  # NaN fails it too
        raise ValueError("two_yukawa is defined for r > 0 only")
    with np.errstate(over="ignore"):  # checked below
        out = -p.b * (np.exp(-p.m * (r - 1.0)) - np.exp(-p.n * (r - 1.0))) / r
    if not np.all(np.isfinite(out)):
        raise ValueError(f"two_yukawa at r={float(r[~np.isfinite(out)].flat[0])!r} "
                         "leaves the doubles")
    return float(out) if out.ndim == 0 else out


def two_yukawa_fourier(k, p: TwoYukawaParams = TwoYukawaParams()):
    """v~(k) = -4 pi b [e^m/(k^2 + m^2) - e^n/(k^2 + n^2)].

    Follows from int e^{-a r}/r e^{-i k.r} d^3r = 4 pi/(k^2 + a^2) applied to
    each Yukawa piece (with its e^{+a} offset absorbing the r - 1 shift).
    From k = 2^512, where k^2 leaves the doubles and m^2, n^2 are below its
    rounding, v~ is the tail -4 pi b (e^m - e^n)/k/k, 0.0 at k = inf.  A b
    and n whose v~ leaves the doubles raise ValueError naming them.
    """
    k = np.asarray(k, dtype=float)
    if not np.all(k >= 0.0):  # NaN fails it too
        raise ValueError("wavenumber must be >= 0")
    near = k < 2.0**512
    ks2 = np.where(near, k, 0.0) ** 2
    far_k = np.where(near, 1.0, k)
    with np.errstate(over="ignore"):  # checked below
        out = -4.0 * np.pi * p.b * np.where(
            near, np.exp(p.m) / (ks2 + p.m**2) - np.exp(p.n) / (ks2 + p.n**2),
            (np.exp(p.m) - np.exp(p.n)) / far_k / far_k)
    if not np.all(np.isfinite(out)):
        raise ValueError(f"two_yukawa_fourier with b={p.b!r} and n={p.n!r} "
                         "leaves the doubles")
    return float(out) if out.ndim == 0 else out


#: the smallest normal double: a product below it has lost relative precision
_FLOAT_MIN = sys.float_info.min

#: the argument at or below which math.expm1 is exactly -1.0: e^-40 is
#: below half an ulp of 1 (~5.6e-17)
EXPM1_FLOOR = -40.0


def _libm(ufunc):
    """ufunc (np.exp or np.expm1) over a float array, each entry bitwise
    math.exp or math.expm1 of it: libm's exp or expm1, which math calls.

    numpy's float64 exp and expm1 run numpy's own SIMD code, an ulp off
    libm on a few percent of arguments.  Their complex128 forms call libm
    once per entry, and at x + 0i, for every x the float branch makes
    (none is positive), their real parts are exact: exp(x) cos 0 = exp(x)
    * 1.0 (libm's cexp, or numpy's own where libm has none) and expm1(x)
    cos 0 - 2 sin^2 0.  That is one loop in C, where a map of the math
    functions costs ~70 ns an entry in the interpreter.
    """
    def apply(x: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(ufunc(x.astype(complex)).real)
    return apply


#: guard bits of _mp_expm1 beyond the bits that exp(x) - 1 cancels
EXPM1_GUARD_BITS = 10


def _mp_exp(x):
    """mp.exp of an mpf, the libmp call mp.exp makes, without its dispatch."""
    return mp.mp.make_mpf(mpf_exp(x._mpf_, *mp.mp._prec_rounding))


def _mp_expm1(x):
    """e^x - 1 of an mpf to within an ulp, 0 exactly at x = 0.

    mp.expm1 adds exp(x) and -1 in an adaptive loop at two to six times
    the cost of an exp.  Here exp(x) runs once with as many extra bits as the
    subtraction of 1 cancels (-mag x, for |x| < 1) plus guard bits, and the
    difference rounds to working precision.
    """
    v = x._mpf_
    if v == fzero:
        return x
    prec, rounding = mp.mp._prec_rounding
    _, _, exponent, bitcount = v  # |x| < 2^(exponent + bitcount)
    wp = prec + max(0, -(exponent + bitcount)) + EXPM1_GUARD_BITS
    return mp.mp.make_mpf(mpf_sub(mpf_exp(v, wp, rounding), fone, prec, rounding))


#: (exp, expm1, pi, expm1's saturation floor) of the float branch and of
#: the mpmath window branch, where no finite argument saturates expm1
_FLOAT_OPS = (_libm(np.exp), _libm(np.expm1), math.pi, EXPM1_FLOOR)
_MP_OPS = (np.frompyfunc(_mp_exp, 1, 1), np.frompyfunc(_mp_expm1, 1, 1), mp.pi, -math.inf)


#: the lam-dependent scalars of one Yukawa piece, each lam^p D^-k/(c pi) as
#: (c, p, k): the coefficient of core, then those of 1, poly3 and poly4 in
#: the e^{-lam s} bracket (b2/(8 pi lam), b3/(32 pi lam^3), b4/(192 pi lam^5))
_TERMS = ((4.0, 8, 4), (8.0, 7, 3), (-32.0, 5, 2), (192.0, 3, 1))


def _lam_jets(weight, lam, alpha, order: int) -> list:
    """(f, df/dlam, d2f/dlam2) of each f = weight lam^p D^-k / c of _TERMS,
    or (f,) at order 0.

    With D = alpha^2 - lam^2 the log-derivative is g = f'/f = p/lam +
    2k lam/D and f'' = f (g^2 + g'), g' = -p/lam^2 + 2k (alpha^2 + lam^2)/D^2.
    Both are put over one denominator, where the lam^2 terms that cancel
    for lam >> alpha (p = 2k) drop out exactly.
    """
    d = (alpha - lam) * (alpha + lam)
    fs = [lam**p / d**k * (weight / c) for c, p, k in _TERMS]
    if order == 0:
        return [(f,) for f in fs]
    a2, l2 = alpha * alpha, lam * lam
    lam_d, l2_d2 = lam * d, l2 * d * d
    jets = []
    for f, (c, p, k) in zip(fs, _TERMS):
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
                 order: int = 0, factored: bool = False, poly_s=None) -> np.ndarray:
    """The closed form (module docstring) over a 1-D array s of separations.

    `smin` is the smallest entry of s (inf if s is empty).  `pieces` holds
    the two Yukawa terms as (weight e^m or e^n, exponent alpha).  Floats
    and a float64 array run with _FLOAT_OPS; mpf lam and alpha (promoted
    before any arithmetic, or alpha^2 - lam^2 cancels in double) and an
    object array of mpf run with _MP_OPS.  order 0 gives the values; order
    1 or 2 stacks the lam-derivative rows under them.  The values are the
    term-by-term expression, or with `factored` row 0 of _lam_rows, every
    row with e^{-lam s} factored out; that needs mpf, where e^{(lam -
    alpha) s} cannot overflow.  `poly_s`, if given, is where the
    polynomials that e^{-lam s} multiplies are evaluated in place of s.
    """
    exp, expm1, pi, expm1_floor = ops
    (weight_m, alpha_m), (weight_n, alpha_n) = pieces
    # per piece how its core starts: with `factored`, expm1((lam - alpha)
    # s) alone; otherwise the smaller exponent is factored out, so that
    # expm1 never overflows, as e^{-lam s} expm1((lam - alpha) s) for lam <
    # alpha ("below") and -e^{-alpha s} expm1((alpha - lam) s) above.  There
    # an expm1 that is saturated at smin, its largest argument, is -1.0 at
    # every s, and -e^{-alpha s} * -1.0 is e^{-alpha s} bitwise.  Every
    # exponential of the call runs in one exp pass, e^{-lam s} first, and
    # one expm1 pass, each over its arguments stacked as rows; outside the
    # window the same product gives lam s and 3 lam s, the first terms of
    # the polynomials below, unless they run at `poly_s`
    exp_rates, expm1_rates, paths = [-lam], [], []
    for alpha in (alpha_m, alpha_n):
        below = factored or lam < alpha
        saturated = not below and smin * (alpha - lam) <= expm1_floor
        if not below:
            exp_rates.append(-alpha)
        if not saturated:
            expm1_rates.append(lam - alpha if below else alpha - lam)
        paths.append((alpha, below, saturated))
    n_exp = len(exp_rates)
    n_args = n_exp + len(expm1_rates)
    polys = [] if factored or poly_s is not None else [lam, 3.0 * lam]
    args = np.multiply.outer(exp_rates + expm1_rates + polys, s)
    els, *exp_rows = exp(args[:n_exp])
    exp_rows = iter(exp_rows)
    expm1_rows = iter(expm1(args[n_exp:n_args]) if expm1_rates else ())
    # where s |lam - alpha| is 0 or subnormal, expm1's argument has lost its
    # relative precision and core is its s -> 0 limit lam - alpha; the masks
    # run only when some s is that small, tested as the masks test it (a
    # quotient FLOAT_MIN/|lam - alpha| underflows to 0 for lam past ~5e15)
    has_tiny = smin * min(abs(lam - alpha_m), abs(lam - alpha_n)) < _FLOAT_MIN
    # the cores (e^{-alpha s} - e^{-lam s})/s, or e^{lam s} times that if
    # `factored`, and lam - alpha at s = 0, in place on the rows they take
    cores = []
    for alpha, below, saturated in paths:
        if below:
            core = next(expm1_rows)
            if not factored:
                core *= els
        else:
            core = next(exp_rows)
            if not saturated:
                core *= next(expm1_rows)
                np.negative(core, out=core)
        if has_tiny:
            limit = s * abs(lam - alpha) < _FLOAT_MIN
            core = np.where(limit, lam - alpha, core / np.where(limit, 1.0, s))
        else:
            core /= s
        cores.append(core)
    scale = -4.0 * pi * pot.b
    if factored:
        rows = np.empty((order + 1, s.size), dtype=s.dtype)
        _lam_rows(rows, 0, lam, pieces, scale, pi, s, els, cores, factored=True)
        return rows if order else rows[0]
    # poly3 = 1 + lam s and poly4 = 3 + 3 lam s + (lam s)^2
    if poly_s is None:
        poly_s = s
        x, poly4 = args[n_args:]
    else:
        x, poly4 = np.multiply.outer([lam, 3.0 * lam], poly_s)
    poly4 += 3.0
    poly4 += x * x
    poly3 = x
    poly3 += 1.0
    lam8 = lam**8
    c4, c8, c32, c192 = 4.0 * pi, 8.0 * pi * lam, 32.0 * pi * lam**3, 192.0 * pi * lam**5

    def smeared(weight, alpha, core_a):
        """weight (a_ core/(4 pi) + e^{-lam s} (b3 poly3/(32 pi lam^3)
        + b2/(8 pi lam) + b4 poly4/(192 pi lam^5))), with a_ = lam^8/D^4,
        b2 = lam^8/D^3, b3 = -lam^8/D^2 and b4 = lam^8/D, every operation
        in place and in the order of that expression."""
        d = (alpha - lam) * (alpha + lam)
        out = core_a * (lam8 / d**4)
        out /= c4
        bracket = poly3 * (-lam8 / d**2)
        bracket /= c32
        bracket += lam8 / d**3 / c8
        term4 = poly4 * (lam8 / d)
        term4 /= c192
        bracket += term4
        bracket *= els
        out += bracket
        out *= weight
        return out

    value = smeared(weight_m, alpha_m, cores[0])
    value -= smeared(weight_n, alpha_n, cores[1])
    if order == 0:
        value *= scale
        return value
    rows = np.empty((order + 1, s.size), dtype=s.dtype)
    np.multiply(value, scale, out=rows[0])
    _lam_rows(rows, 1, lam, pieces, scale, pi, poly_s, els, cores)
    return rows


def _lam_rows(rows: np.ndarray, first: int, lam, pieces, scale, pi, s, els, cores,
              factored: bool = False) -> None:
    """Rows first..order of (value, d/dlam, d2/dlam2), from the shared
    arrays, into rows[first:], where order is len(rows) - 1.

    Per piece the closed form is h core + e^{-lam s} P(s), with a scalar h
    and P(s) = p0 + p1 s + p2 s^2, all from the _TERMS scalars.  The two
    pieces' scalars are summed first, so each row is two core terms plus
    e^{-lam s} times one polynomial in s.  With core' = e^{-lam s},
    core'' = -s e^{-lam s} and (e^{-lam s})' = -s e^{-lam s}:

        row 0 = sum h core + e^{-lam s} P
        row 1 = sum h' core + e^{-lam s} (P' - s P + H)
        row 2 = sum h'' core + e^{-lam s} (P'' - 2 s P' + s^2 P + 2 H' - s H),

    where H = sum h and a prime acts on the coefficients of P at fixed s.
    The scalars leave out `scale`, which multiplies each row last: folded
    into them first, a large b overflows them while the rows stay finite.
    The scalars reach ~lam^3 e^n, which overflows at n ~ 709, so weights
    above 2^WEIGHT_EXP (n > ~355) hand an exact power of two to `scale`.
    With `factored` (mpf only) the cores are e^{lam s} core, each row's
    bracket sum h core + P is summed first and multiplied by e^{-lam s}
    once, and `scale`, which cannot overflow an mpf, goes into the scalars.
    """
    order = len(rows) - 1
    (weight_m, alpha_m), (weight_n, alpha_n) = pieces
    if factored:
        weight_m, weight_n = weight_m * scale, weight_n * scale
    elif weight_n > 2.0**WEIGHT_EXP:  # a float e^n, the larger weight
        shift = math.frexp(weight_n)[1] - WEIGHT_EXP
        weight_m, weight_n = math.ldexp(weight_m, -shift), math.ldexp(weight_n, -shift)
        scale = math.ldexp(scale, shift)
    hm, *gm = _lam_jets(weight_m / pi, lam, alpha_m, order)
    hn, *gn = _lam_jets(-weight_n / pi, lam, alpha_n, order)
    g2, g3, g4 = ([u + v for u, v in zip(jm, jn)] for jm, jn in zip(gm, gn))
    # with poly3 = 1 + lam s and poly4 = 3 + 3 lam s + lam^2 s^2:
    # p0 = g2 + q, p1 = lam q and p2 = lam^2 g4, where q = g3 + 3 g4
    q = [u + 3.0 * v for u, v in zip(g3, g4)]
    p0 = [u + v for u, v in zip(g2, q)]
    p1, p2 = [lam * q[0]], [lam * lam * g4[0]]

    def row(k: int, coefs) -> None:
        """rows[k] = cores[0] hm[k] + cores[1] hn[k] + e^{-lam s} poly, then
        times `scale`, or with `factored` the bracket times e^{-lam s}."""
        out = cores[0] * hm[k]
        out += cores[1] * hn[k]
        poly = _horner(s, coefs)
        if not factored:
            poly *= els
        out += poly
        np.multiply(out, els if factored else scale, out=rows[k])

    if first == 0:
        row(0, (p0[0], p1[0], p2[0]))
    if order >= 1:
        p1 += [q[0] + lam * q[1], 2.0 * q[1] + lam * q[2]]
        p2 += [2.0 * lam * g4[0] + lam * lam * g4[1],
               2.0 * g4[0] + 4.0 * lam * g4[1] + lam * lam * g4[2]]
        h0, h1 = hm[0] + hn[0], hm[1] + hn[1]
        row(1, (p0[1] + h0, p1[1] - p0[0], p2[1] - p1[0], -p2[0]))
    if order == 2:
        row(2, (p0[2] + 2.0 * h1, p1[2] - 2.0 * p0[1] - h0,
                p2[2] - 2.0 * p1[1] + p0[0], p1[0] - 2.0 * p2[1], p2[0]))


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

    lam must lie in LAM_RANGE, or ValueError names it.  Where lam s is
    beyond FAR_LAM_S, the terms e^{-lam s} P(s) of every row are 0.0 (the
    polynomials P may overflow there, and 0.0 * inf would be NaN), and the
    core terms are those of the real s.  The default path pays one scalar
    test for it.  For ln b + n > HEAVY_N, where the value can overflow, a
    row entry that is not finite raises ValueError naming lam, n and b.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"order must be 0, 1 or 2, got {order!r}")
    arr = np.asarray(s, dtype=float)
    flat = arr.reshape(-1)
    # NaN fails smin >= 0, and -inf or +inf fails it or isfinite(smax)
    smin, smax = ((float(np.minimum.reduce(flat)), float(np.maximum.reduce(flat)))
                  if flat.size else (math.inf, 0.0))
    if not (smin >= 0.0 and math.isfinite(smax)):
        bad = ~(np.isfinite(flat) & (flat >= 0.0))
        raise ValueError(f"separation must be finite and >= 0, got {flat[bad][0]}")
    lam = p.lam
    if not LAM_RANGE[0] <= lam <= LAM_RANGE[1]:
        raise ValueError(f"lam must lie in [{LAM_RANGE[0]:.6g}, {LAM_RANGE[1]:.6g}], "
                         f"where lam^8 and lam^5 are normal doubles, got {lam!r}")
    gap = min(abs(lam - pot.m) / pot.m, abs(lam - pot.n) / pot.n)
    heavy = math.log(pot.b) + pot.n > HEAVY_N
    if gap < DEGENERACY_WINDOW:
        # 4 digits per decade lost to cancellation (~ gap^-3), one more per
        # derivative order; an exact coincidence is nudged by 1e-30
        # relative, invisible in a double
        decades = max(0, math.ceil(-math.log10(max(gap, 1e-30))))
        with mp.workdps(30 + (4 + order) * decades):
            lam_mp = mp.mpf(lam)
            am, an = mp.mpf(pot.m), mp.mpf(pot.n)
            if lam_mp == am or lam_mp == an:
                lam_mp = lam_mp * (1 + mp.mpf(10) ** -30)
            pieces = ((mp.exp(pot.m), am), (mp.exp(pot.n), an))
            s_mp = np.frompyfunc(mp.mpf, 1, 1)(flat)
            out = _closed_form(lam_mp, pot, pieces, s_mp, smin, _MP_OPS, order,
                               factored=True).astype(float)
    else:
        pieces = ((math.exp(pot.m), pot.m), (math.exp(pot.n), pot.n))
        far = smax * lam > FAR_LAM_S
        if not (far or heavy):
            out = _closed_form(lam, pot, pieces, flat, smin, _FLOAT_OPS, order)
        else:
            # past FAR_LAM_S, e^{-lam s} is 0.0 but the polynomials it
            # multiplies may overflow, and 0.0 * inf is NaN: they run at a
            # stand-in separation, where they are finite and their product
            # with e^{-lam s} is still 0.0.  The cores keep the real s; an
            # exponent argument that overflows there is -inf, whose exp is
            # 0.0 and expm1 -1.0, as for any argument past the floors, and
            # an overflowed s |lam - alpha| of the s -> 0 mask is not small.
            # Past HEAVY_N an overflow is caught below, not warned of
            with np.errstate(over="ignore", invalid="ignore" if heavy else None):
                out = _closed_form(lam, pot, pieces, flat, smin, _FLOAT_OPS, order,
                                   poly_s=np.minimum(flat, FAR_LAM_S / lam) if far else None)
    if heavy and not np.isfinite(out).all():
        raise ValueError(f"lam={lam!r} with n={pot.n!r} and b={pot.b!r} gives a "
                         "pair energy beyond the doubles")
    if order:
        return out.reshape((order + 1, *arr.shape))
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)
