"""The 2D completion, its residual and its singular class in exact arithmetic.

Every finite float converts exactly to a ``fractions.Fraction``, so these
functions give the values the closed forms of ``ncphase.nc2d`` stand for,
free of rounding: the oracle the engine's floats are measured against,
in ulps.  A complex value is an ``Exact`` pair of Fractions.
"""
import math
from dataclasses import dataclass
from fractions import Fraction

SINGULAR_RTOL = Fraction(1, 10**10)


@dataclass(frozen=True)
class Exact:
    """re + i im, both Fractions."""
    re: Fraction
    im: Fraction = Fraction(0)

    @classmethod
    def of(cls, v):
        v = complex(v)
        return cls(Fraction(v.real), Fraction(v.imag))

    def __add__(self, o):
        o = _exact(o)
        return Exact(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = _exact(o)
        return Exact(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Exact(-self.re, -self.im)

    def __mul__(self, o):
        o = _exact(o)
        return Exact(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = _exact(o)
        d = o.abs2()
        return Exact((self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d)

    def conj(self):
        return Exact(self.re, -self.im)

    def abs2(self):
        return self.re * self.re + self.im * self.im

    def magnitude(self):
        """|re + i im|, as a float."""
        return math.hypot(float(self.re), float(self.im))


def _exact(v):
    return v if isinstance(v, Exact) else Exact.of(v)


def completion(theta, eta, f_theta, f_eta, f_theta_x=None, f_theta_y=None, f_theta_imag=0.0):
    """The exact completed fields (f_theta_x, f_theta_y, f_eta_x, f_eta_y),
    each an Exact.

    A nonzero f_theta_imag completes from f_theta_x with the conjugate
    product, as the imaginary variant does; otherwise the draw completes
    from f_theta_y when it is given, else from f_theta_x.
    """
    t, e, fe = Exact.of(theta), Exact.of(eta), Exact.of(f_eta)
    f = Exact(Fraction(f_theta), Fraction(f_theta_imag))
    square = f * f.conj() if f_theta_imag else f * f
    if f_theta_imag or f_theta_y is None:
        fx = Exact.of(f_theta_x)
        fy = (square - t * t) / fx
        return fx, fy, -(f - t) * (fe + e) / fx, -((fe - e) / (f - t)) * fx
    fy = Exact.of(f_theta_y)
    fx = (square - t * t) / fy
    return fx, fy, -((fe + e) / (f + t)) * fy, -(f + t) * (fe - e) / fy


def residual(p):
    """The four entries of B C^T (2 hbar)^2 of a completed Params2D, row-major,
    exact, each paired with the float |b1 g1| + |b2 g2| of its two products,
    the scale its rounding is bounded by.  In imaginary mode conj(f_theta)
    sits in the lower-left entry of B."""
    t, e, f, fe = map(_exact, (p.theta, p.eta, p.f_theta, p.f_eta))
    lower = f.conj() if p.imaginary_mode else f
    B = ((_exact(p.f_theta_x), f - t), (lower + t, _exact(p.f_theta_y)))
    G = ((_exact(p.f_eta_x), fe - e), (fe + e, _exact(p.f_eta_y)))
    out = []
    for i in range(2):
        for j in range(2):
            first, second = B[i][0] * G[0][j], B[i][1] * G[1][j]
            out.append((first + second, first.magnitude() + second.magnitude()))
    return out


def singular_class(theta, eta, f_theta, f_eta, pivot):
    """The singular class name, detected exactly: a line is hit when the
    distance to it is at most 1e-10 times the largest of 1 and the two
    magnitudes of its sector; the pivot belongs to the theta sector."""
    t, e, f, fe, pv = map(_exact, (theta, eta, f_theta, f_eta, pivot))

    def near(gap, x, fx):
        return gap.abs2() <= SINGULAR_RTOL ** 2 * max(x.abs2(), fx.abs2(), 1)

    for name, hit in (("FThetaPlus", near(f - t, t, f)), ("FThetaMinus", near(f + t, t, f)),
                      ("FEtaPlus", near(fe - e, e, fe)), ("FEtaMinus", near(fe + e, e, fe)),
                      ("ZeroPivot", near(pv, t, f))):
        if hit:
            return name
    return "Regular"


def ulps(got, exact):
    """|got - exact| in units in the last place of |exact|: for a complex
    value, of its magnitude."""
    err2 = (_exact(got) - exact).abs2()
    if err2 == 0:
        return 0.0
    return math.sqrt(float(err2 / Fraction(math.ulp(exact.magnitude())) ** 2))
