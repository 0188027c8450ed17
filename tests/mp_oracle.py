"""The embedded-chain root s = 1 - rho1 at 40 digits, the oracle for the rho1 solve,
and the weighted first moment W1(z) = int_0^inf x f(x) e^{-z x} dx and the
Laplace transform L(z) = 1 - z phi(z) of each family, the scaled
complementary error function erfcx(x) = e^{x^2} erfc(x) that the folded-normal
transforms are built on, and the optimal load of each one-parameter family.

With s = 1 - rho1, the fixed point rho1 = L(mu s) is the root in (0, 1) of

    h(s) = mu phi(mu s) - 1,   phi(z) = int_0^inf exp(-z x) (1 - F(x)) dx,

phi the survival transform of the inter-arrival law.  phi decreases from
E[X] at z = 0, so h falls from 1/rho - 1 > 0 at s -> 0 to -L(mu) < 0 at
s = 1, and the root is unique.  (The fixed-point equation itself,
s h(s) = 0, has a second root at s = 0, which h divides out.)

Each family's phi is written here from its survival function 1 - F, not
from ``audkit.dist``:

    exp(lam)             e^{-lam x}                  1 / (lam + z)
    uniform(beta)        1 - x/beta on (0, beta)     beta (u - 1 + e^{-u}) / u^2,  u = beta z
    lomax(alpha, beta)   (beta / (x + beta))^alpha   beta e^u E_alpha(u),          u = beta z
    det(P)               1 on (0, P)                 (1 - e^{-z P}) / z
    fnorm(a, sigma)      P(|N(a, sigma^2)| > x)      (1 - L(z)) / z,
                         L(z) = e^{q - a z} Phi(a/sigma - sigma z)
                              + e^{q + a z} Phi(-a/sigma - sigma z),  q = (sigma z)^2 / 2

W1 is written from each density f, with u = beta z where a scale beta
enters:

    exp(lam)             lam e^{-lam x}              lam / (lam + z)^2
    uniform(beta)        1/beta on (0, beta)         (1 - e^{-u} (1 + u)) / (beta z^2)
    lomax(alpha, beta)   alpha beta^alpha            alpha beta e^u (E_alpha(u) - E_{alpha+1}(u))
                         / (x + beta)^(alpha+1)
    det(P)               point mass at P             P e^{-z P}
    fnorm(a, sigma)      |N(a, sigma^2)|             -L'(z) = (a - sigma^2 z) T1 - (a + sigma^2 z) T2
                                                     + sigma sqrt(2/pi) e^{-a^2/(2 sigma^2)},
                         T1, T2 the two terms of L(z) above, each Phi(x) = erfc(-x/sqrt 2)/2
                         (the Gaussian-density terms of L' meet in one e^{-a^2/(2 sigma^2)}).

and the weighted second moment W2(z) = int_0^inf x^2 f(x) e^{-z x} dx of
the one-parameter families, from the same densities:

    exp(lam)             2 lam / (lam + z)^3
    uniform(beta)        (2 - e^{-u} (u^2 + 2 u + 2)) / (beta z^3)
    det(P)               P^2 e^{-z P}

The Lomax form follows from x = beta (t - 1), as its survival transform
does.  Above shape ``_CF_SHAPE`` (1e3), where mpmath's expint does not
converge, its E_alpha pair comes from the continued fraction instead
(``scaled_expint_tail``).  At z = 0, where the uniform form is 0/0, ``weighted_first_moment``
returns E[X].

Both are evaluated with ``_GUARD`` extra digits, which absorb the
cancellation in the uniform and folded-normal forms at small z (and in the
folded-normal W1 at large sigma z), and the
inputs enter at their exact binary values.  The bracket's lower end starts
at (1 - rho)/2 and halves until h > 0 there, so it never reaches the
removable root at s = 0, where a 40-digit h has no correct sign left.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpf

from audkit.dist import FAMILIES

DPS = 40
_GUARD = 60


def _phi_exp(z, lam):
    return 1 / (lam + z)


def _phi_uniform(z, beta):
    u = beta * z
    return beta * (u - 1 + mpmath.exp(-u)) / (u * u)


def scaled_expint_tail(p, u):
    """g = 1 - E_{p+1}(u)/E_p(u) at the working precision, by modified Lentz on
    the continued fraction e^u E_p(u) = 1/(u+p - p g),
    g = 1/(u+p+2 - 2(p+1)/(u+p+4 - 3(p+2)/(u+p+6 - ...))) (A&S 5.1.22), run
    until a step moves g by under 10^-dps.  e^u E_p = 1/(u+p - p g) and
    e^u (E_p - E_{p+1}) = g e^u E_p follow.  The Lomax oracle for shapes above
    ``_CF_SHAPE``, and the deep reference of ``audkit.dist``'s backward form."""
    p, u = mpf(p), mpf(u)
    tol = mpf(10) ** -mp.dps
    b = u + p + 2
    c, d = 1 / tol, 1 / b
    g = d
    i = 1
    while True:
        i += 1
        an = -i * (p - 1 + i)
        b += 2
        d = 1 / (an * d + b)
        c = b + an / c
        delta = c * d
        g *= delta
        if abs(delta - 1) < tol:
            return g


# mpmath's expint, an incomplete gamma, does not converge at shapes in the
# millions; above this the continued fraction serves, which converges there
# in a few tens of terms
_CF_SHAPE = 1e3


def _scaled_expint_pair(alpha, u):
    """(e^u E_alpha(u), e^u (E_alpha(u) - E_{alpha+1}(u)))."""
    if alpha > _CF_SHAPE:
        g = scaled_expint_tail(alpha, u)
        f = 1 / (u + alpha - alpha * g)
        return f, g * f
    eu = mpmath.exp(u)
    f = eu * mpmath.expint(alpha, u)
    return f, f - eu * mpmath.expint(alpha + 1, u)


def _phi_lomax(z, alpha, beta):
    return beta * _scaled_expint_pair(alpha, beta * z)[0]


def _phi_det(z, period):
    return -mpmath.expm1(-z * period) / z


def _phi_fnorm(z, a, sigma):
    q = (sigma * z) ** 2 / 2
    laplace = (mpmath.exp(q - a * z) * mpmath.ncdf(a / sigma - sigma * z)
               + mpmath.exp(q + a * z) * mpmath.ncdf(-a / sigma - sigma * z))
    return (1 - laplace) / z


_PHI = {
    "exp": _phi_exp,
    "uniform": _phi_uniform,
    "lomax": _phi_lomax,
    "det": _phi_det,
    "fnorm": _phi_fnorm,
}


def _w1_exp(z, lam):
    return lam / (lam + z) ** 2


def _w1_uniform(z, beta):
    u = beta * z
    return (1 - mpmath.exp(-u) * (1 + u)) / (beta * z * z)


def _w1_lomax(z, alpha, beta):
    return alpha * beta * _scaled_expint_pair(alpha, beta * z)[1]


def _w1_det(z, period):
    return period * mpmath.exp(-z * period)


def _ncdf(x):
    return mpmath.erfc(-x / mpmath.sqrt(2)) / 2


def _w1_fnorm(z, a, sigma):
    q = (sigma * z) ** 2 / 2
    t1 = mpmath.exp(q - a * z) * _ncdf(a / sigma - sigma * z)
    t2 = mpmath.exp(q + a * z) * _ncdf(-a / sigma - sigma * z)
    gauss = sigma * mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-(a / sigma) ** 2 / 2)
    return (a - sigma * sigma * z) * t1 - (a + sigma * sigma * z) * t2 + gauss


_W1 = {
    "exp": _w1_exp,
    "uniform": _w1_uniform,
    "lomax": _w1_lomax,
    "det": _w1_det,
    "fnorm": _w1_fnorm,
}


def _w2_exp(z, lam):
    return 2 * lam / (lam + z) ** 3


def _w2_uniform(z, beta):
    u = beta * z
    return (2 - mpmath.exp(-u) * (u * u + 2 * u + 2)) / (beta * z ** 3)


def _w2_det(z, period):
    return period * period * mpmath.exp(-z * period)


_W2 = {
    "exp": _w2_exp,
    "uniform": _w2_uniform,
    "det": _w2_det,
}


def erfcx(x) -> mpf:
    """e^{x^2} erfc(x), to about 40 digits.

    Up to 1e3 from mpmath's erfc, whose exponent range holds e^{x^2} and
    erfc(x) apart; above it (mpmath's erfc raises OverflowError at 1e200)
    from Laplace's continued fraction
    erfcx(x) = 1/(sqrt(pi) (x + (1/2)/(x + 1/(x + (3/2)/(x + ...))))),
    run backwards from 40 terms, far past the working precision there."""
    with mp.workdps(DPS + _GUARD):
        x = mpf(x)
        if x <= 1000:
            return mpmath.exp(x * x) * mpmath.erfc(x)
        tail = mpf(0)
        for k in range(40, 0, -1):
            tail = (mpf(k) / 2) / (x + tail)
        return 1 / (mpmath.sqrt(mpmath.pi) * (x + tail))


def weighted_first_moment(arrival, z) -> mpf:
    """W1(z) of ``arrival``, to about 40 digits; E[X] at z = 0."""
    with mp.workdps(DPS + _GUARD):
        params = _params(arrival)
        if z == 0:
            return _mean(arrival.tag, params)
        return _W1[arrival.tag](mpf(z), *params)


def laplace(arrival, z) -> mpf:
    """L(z) = 1 - z phi(z) of ``arrival``, to about 40 digits; 1 at z = 0.

    The working precision's guard digits absorb the cancellation of
    1 - z phi(z) as z phi(z) -> 1 at large z."""
    with mp.workdps(DPS + _GUARD):
        if z == 0:
            return mpf(1)
        return 1 - mpf(z) * _PHI[arrival.tag](mpf(z), *_params(arrival))


def survival_laplace(arrival, z) -> mpf:
    """phi(z) of ``arrival``, to about 40 digits."""
    with mp.workdps(DPS + _GUARD):
        return _PHI[arrival.tag](mpf(z), *_params(arrival))


def _params(arrival):
    return [mpf(getattr(arrival, k)) for k in arrival.keys]


def s_root(arrival, mu: float) -> mpf:
    """1 - rho1 of ``arrival`` at service rate ``mu``, to about 40 digits."""
    with mp.workdps(DPS + _GUARD):
        phi, params, m = _PHI[arrival.tag], _params(arrival), mpf(mu)

        def h(s):
            return m * phi(m * s, *params) - 1

        rho = 1 / (m * _mean(arrival.tag, params))
        lo, hi = (1 - rho) / 2, mpf(1)
        while h(lo) <= 0:
            lo /= 2
        assert h(hi) < 0
        return mpmath.findroot(h, (lo, hi), solver="anderson", tol=mpf(10) ** (-2 * DPS))


def arrival_optimum(tag: str) -> tuple:
    """(load, mean AuD) at the least mean AuD of one-parameter family ``tag``
    under Poisson decisions at mu = 1, to about 40 digits.

    With the unit-mean law xi of the family, u = (1 - rho1)/lambda gives
    rho1 = L(u), lambda = (1 - L(u))/u and the mean AuD
    A(u) = 1 + (E[xi^2] u/2 + W1(u)) / (1 - L(u)), whose derivative vanishes
    where g(u) = (E[xi^2]/2 - W2(u)) (1 - L(u)) - (E[xi^2] u/2 + W1(u)) W1(u)
    does.  g falls to -1 as u -> 0 and rises to E[xi^2]/2 as u -> inf; the
    root is bracketed in (1/4, 4) for exp, uniform and det."""
    with mp.workdps(DPS + _GUARD):
        unit = FAMILIES[tag].with_rate(1.0)
        (p,) = _params(unit)
        m2 = {"exp": 2 / p ** 2, "uniform": p ** 2 / 3, "det": p ** 2}[tag]

        def g(u):
            w1 = weighted_first_moment(unit, u)
            return (m2 / 2 - _W2[tag](u, p)) * (1 - laplace(unit, u)) - (m2 * u / 2 + w1) * w1

        lo, hi = mpf(1) / 4, mpf(4)
        assert g(lo) < 0 < g(hi)
        u = mpmath.findroot(g, (lo, hi), solver="anderson", tol=mpf(10) ** (-2 * DPS))
        head = 1 - laplace(unit, u)
        return head / u, 1 + (m2 * u / 2 + weighted_first_moment(unit, u)) / head


def _mean(tag: str, params) -> mpf:
    """E[X], that is phi(0), from the same parameters."""
    if tag == "exp":
        return 1 / params[0]
    if tag == "uniform":
        return params[0] / 2
    if tag == "lomax":
        return params[1] / (params[0] - 1)
    if tag == "det":
        return params[0]
    a, sigma = params  # fnorm: E|N(a, sigma^2)|
    return (sigma * mpmath.sqrt(2 / mpmath.pi) * mpmath.exp(-(a / sigma) ** 2 / 2)
            + a * mpmath.erf(a / (sigma * mpmath.sqrt(2))))


def s_rel_error(rho1: float, arrival, mu: float) -> float:
    """Relative error of 1 - rho1 (formed exactly) against the oracle's s."""
    with mp.workdps(DPS + _GUARD):
        exact = s_root(arrival, mu)
        return float(abs((1 - mpf(rho1)) - exact) / exact)


def rho1_rel_error(rho1: float, arrival, mu: float) -> float:
    """Relative error of rho1 against the oracle's 1 - s."""
    with mp.workdps(DPS + _GUARD):
        exact = 1 - s_root(arrival, mu)
        return float(abs(mpf(rho1) - exact) / exact)
