"""Dickman-de Bruijn machinery: the exact P and Q series, numeric evaluators
for s(eta), its integral and rho(u), and the radius-of-convergence constants.

Notation: X(eta) = loglog(eta)/log(eta) and Y(eta) = 1/log(eta).  s(eta) is
the positive root of s = log(1 + s*eta); s(eta)/log(eta) expands as the
bivariate series P(X, Y), built from its closed form in the signed Stirling
numbers of the first kind (p_series), and (1/(u log u)) * integral_e^u s
d(eta) expands as Q(X, Y) with

    Q = (1-Y)*P + Y*(1+Delta)^(-1)*(1 - Y^(-1))*Delta(P),

so neither series needs a series log.

rho is evaluated two ways: a per-unit-interval spectral collocation of the
delay equation u*rho'(u) = -rho(u-1) carrying log(rho), one linear solve per
interval, and the asymptotic form log(rho(u)) ~ -u*log(u)*Q(X(u), Y(u)) which
only converges for large u.  The integral of s has the closed form
integral_1^u s d(eta) = u*s - Ei(s) + log(s) + gamma with s = s(u), so the de
Bruijn evaluators are pure Python.  numpy loads on the first rho_numeric
call, and only there.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import LogConstant
from .pseries import TruncatedBiSeries, delta, neumann_inverse_one_plus_delta

EULER_GAMMA = 0.5772156649015329


class DomainError(ValueError):
    pass


class RangeError(ValueError):
    pass


# ---------------------------------------------------------------------------
# The P and Q series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PSeries:
    series: TruncatedBiSeries

    def __post_init__(self):
        one = LogConstant.one()
        if self.series.constant_term() != one:
            raise ValueError("P series must have constant term 1")
        if self.series.order2 >= 2 and self.series.coefficient(1, 0) != one:
            raise ValueError("P series must have X coefficient 1")
        for e, c in self.series.terms.items():
            if not c.is_rational():
                raise ValueError(f"non-rational P coefficient at {e}")


@dataclass(frozen=True)
class QSeries:
    series: TruncatedBiSeries

    def __post_init__(self):
        expect = cep_series().terms
        got = {e: c for e, c in self.series.terms.items() if e[0] + e[1] <= min(4, self.series.order2)}
        want = {e: c for e, c in expect.items() if e[0] + e[1] <= min(4, self.series.order2)}
        if got != want:
            raise ValueError("Q series disagrees with the fixed degree-2 part")


@dataclass(frozen=True)
class RhoValue:
    u: float
    log_rho: float

    @property
    def rho(self) -> float:
        return math.exp(self.log_rho)


def p_series(n: int) -> PSeries:
    """P in closed form,

        P = 1 + X + Y * sum_{i>=1} sum_{j=1..i} S(i, i-j+1)/j! * X^j Y^(i-j),

    with S(i, k) the signed Stirling numbers of the first kind (the
    coefficients of x(x-1)...(x-i+1)); the term at i has degree i + 1.
    """
    if n < 0:
        raise DomainError("series order must be >= 0")
    one = LogConstant.one()
    terms = {(0, 0): one}
    if n >= 1:
        terms[(2, 0)] = one
    stirling = [1]  # S(i, k) for k = 0..i, from S(i, k) = S(i-1, k-1) - (i-1) S(i-1, k)
    for i in range(1, n):
        stirling = [a - (i - 1) * b for a, b in zip([0] + stirling, stirling + [0])]
        for j in range(1, i + 1):
            c = Fraction(stirling[i - j + 1], math.factorial(j))
            terms[(2 * j, 2 * (i - j) + 2)] = LogConstant.from_fraction(c)
    return PSeries(TruncatedBiSeries(n, terms))


@lru_cache(maxsize=None)
def q_series(n: int) -> QSeries:
    """Q = (1-Y)P + Y*(1+Delta)^(-1)(1 - Y^(-1))(Delta P), truncated at n."""
    if n < 0:
        raise DomainError("series order must be >= 0")
    p = p_series(n).series
    dp = delta(p)
    operand = dp - dp.divide_by_y()
    resolved = neumann_inverse_one_plus_delta(operand)
    one = TruncatedBiSeries.one(n)
    y = TruncatedBiSeries.monomial(0, 1, max(n, 1)).truncate(n)
    q = (one - y) * p + resolved.shift(0, 1).truncate(n)
    return QSeries(q.with_order(n))


def q_truncation(n: int) -> TruncatedBiSeries:
    return q_series(n).series


@lru_cache(maxsize=1)
def cep_series() -> TruncatedBiSeries:
    """The fixed degree-2 smoothness polynomial 1 + X - Y + XY - Y^2."""
    one_ = LogConstant.one()
    return TruncatedBiSeries(
        2, {(0, 0): one_, (2, 0): one_, (0, 2): -one_, (2, 2): one_, (0, 4): -one_}
    )


# ---------------------------------------------------------------------------
# Numeric evaluators
# ---------------------------------------------------------------------------

def xy_of(eta: float) -> tuple[float, float]:
    """(X(eta), Y(eta)) = (loglog eta / log eta, 1/log eta)."""
    if not 1.0 < eta < math.inf:
        raise DomainError(f"X and Y need finite eta > 1, got {eta}")
    l = math.log(eta)
    return math.log(l) / l, 1.0 / l


def s_numeric(eta: float) -> float:
    """The positive root of s = log(1 + s*eta), to 1e-13 relative.

    Newton iteration started at log(eta) + loglog(eta), safeguarded by a
    bracket: f(s) = s - log(1+s*eta) is negative between 0 and the root.
    Where s*eta would overflow (eta above about 2.6e305), log(1 + s*eta) is
    taken as log(eta) + log(s + 1/eta).
    """
    if not eta > 1.0:
        raise DomainError(f"s(eta) needs eta > 1, got {eta}")
    log_eta = math.log(eta)

    def f(s):
        if s * eta < math.inf:
            return s - math.log1p(s * eta)
        return s - (log_eta + math.log(s + 1.0 / eta))

    def fp(s):
        if s * eta < math.inf:
            return 1.0 - eta / (1.0 + s * eta)
        return 1.0 - 1.0 / (s + 1.0 / eta)

    s0 = log_eta + math.log(log_eta) if log_eta > 1.0 else max(log_eta, 0.5)
    s0 = max(s0, 1e-8)
    lo = 1e-300  # f(lo) < 0 for any eta > 1
    hi = max(2.0 * s0, 4.0)
    while f(hi) <= 0.0:
        hi *= 2.0
    s = min(max(s0, lo), hi)
    for _ in range(200):
        fs = f(s)
        if fs < 0.0:
            lo = s
        else:
            hi = s
        step_ok = False
        d = fp(s)
        if d != 0.0:
            s_new = s - fs / d
            if lo < s_new < hi:
                step_ok = True
        if not step_ok:
            s_new = 0.5 * (lo + hi)
        if abs(s_new - s) <= 1e-13 * abs(s_new):
            return s_new
        s = s_new
    return s


_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _ei(x: float, log_scale: float = 0.0) -> float:
    """Ei(x) * exp(-log_scale) for x > 0; inf where that exceeds float range.

    Up to x = 40 the convergent series gamma + log x + sum x^k/(k k!), whose
    terms are all positive; above it the asymptotic series
    e^x/x * sum k!/x^k, cut off at its smallest term (below 1e-16 there).
    """
    if x <= 40.0:
        total, term, k = 0.0, 1.0, 0
        while True:
            k += 1
            term *= x / k
            total += term / k
            if term < 1e-17 * total:
                break
        return (EULER_GAMMA + math.log(x) + total) * math.exp(-log_scale)
    total, term, k = 1.0, 1.0, 0
    while True:
        k += 1
        next_term = term * k / x
        if next_term >= term or next_term < 1e-17 * total:
            break
        term = next_term
        total += term
    # e^(x - log_scale) as two halves, so math.exp stays in range while the
    # product is still finite
    exponent = x - log_scale
    if exponent > 2.0 * _LOG_FLOAT_MAX:
        return math.inf
    half = math.exp(0.5 * exponent)
    return half * (half / x * total)


def _antiderivative(eta: float) -> float:
    """F(eta) = eta*s - Ei(s) + log s with s = s(eta), written as
    eta*(s - Ei(s)/eta) + log s so that nothing overflows before the value.

    dF/d(eta) = s because e^s = 1 + s*eta at the root, and dF/ds vanishes
    there, so the root's error enters F only to second order.
    """
    s = s_numeric(eta)
    return eta * (s - _ei(s, math.log(eta))) + math.log(s)


@lru_cache(maxsize=1)
def _antiderivative_at_e() -> float:
    return _antiderivative(math.e)


def integral_s_numeric(u: float) -> float:
    """integral_e^u s(eta) d(eta) in closed form, F(u) - F(e).

    F is the antiderivative eta*s - Ei(s) + log s (de Bruijn 1951); against
    a 40-digit quadrature it is good to 1e-13 * u * s(u) absolute from just
    above e to 1e300, and it is inf only where the integral exceeds float
    range (u above about 2.5e305).
    """
    if not math.e < u < math.inf:
        raise DomainError(f"integral needs finite u > e, got {u}")
    return _antiderivative(u) - _antiderivative_at_e()


def _integral_s_one_to_e() -> float:
    # offset used by the de Bruijn form: s -> 0 as eta -> 1+, where
    # F -> -gamma, so integral_1^e s d(eta) = F(e) + gamma
    return _antiderivative_at_e() + EULER_GAMMA


class _RhoTable:
    """Collocation table for rho on [1, u_max].

    The delay equation u*rho'(u) = -rho(u-1) is integrated once into the
    equivalent self-referential form

        u * rho(u) = integral_{u-1}^{u} rho(t) dt,

    which is numerically stable: values on the right are of the same size as
    the value computed, so relative error is preserved instead of being
    amplified by rho(u-1)/rho(u) at every step (that amplification is what
    wrecks naive forward steppers).  Per unit interval [k, k+1] the ratio
    q(u) = rho(u)/rho(k) is the degree-d polynomial whose values v at the
    d+1 Chebyshev points u_i of the interval satisfy the linear system

        (diag(u_i) - J) v = r_k,   r_k = (w.v_prev - J v_prev) / (e.v_prev),

    where J maps node values to the node values of int_k^u, w integrates over
    the whole interval, e evaluates at its right end, and v_prev holds the
    previous interval's node values (all ones on [0, 1]).  All intervals have
    unit width, so J, w and e are built once per table.  log rho is carried
    as per-interval offsets, so nothing underflows up to u = 500.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.offsets = [0.0]  # log rho(k) for k = 1, 2, ...
        self.ratios: list = []  # numpy Chebyshev interpolants of rho(u)/rho(k)
        self.lock = threading.Lock()
        self._operators = None  # (nodes, values->coefficients, J, w, e)
        self._values = None  # the last built interval's node values

    def _build_operators(self):
        import numpy as np
        from numpy.polynomial import chebyshev as cheb

        n = self.degree + 1
        x = cheb.chebpts1(n)  # the nodes of Chebyshev.interpolate on [-1, 1]
        to_coef = cheb.chebvander(x, self.degree).T
        to_coef[0] /= n
        to_coef[1:] /= 0.5 * n
        # integral from the left end in u = (x + 1)/2, so d(u) = d(x)/2
        integ = cheb.chebint(np.eye(n), lbnd=-1.0, scl=0.5, axis=0) @ to_coef
        jmat = cheb.chebvander(x, self.degree + 1) @ integ
        whole = cheb.chebvander(np.array([1.0]), self.degree + 1)[0] @ integ
        # the right-end row in closed form: (-1)^i cot(theta_i/2) / n at
        # x = cos(theta_i), theta_i = pi (i + 1/2) / n, listed as x ascends;
        # summing the columns of to_coef instead loses 2e-14
        i = np.arange(n)[::-1]
        right = np.where(i % 2, -1.0, 1.0) / (n * np.tan(0.5 * np.pi * (i + 0.5) / n))
        return x, to_coef, jmat, whole, right

    def _build_interval(self, k: int) -> None:
        import numpy as np
        from numpy.polynomial.chebyshev import Chebyshev

        if self._operators is None:
            self._operators = self._build_operators()
            self._values = np.ones(self.degree + 1)  # rho = 1 on [0, 1]
        x, to_coef, jmat, whole, right = self._operators
        prev = self._values
        rhs = (whole @ prev - jmat @ prev) / (right @ prev)
        nodes = k + 0.5 + 0.5 * x
        values = np.linalg.solve(np.diag(nodes) - jmat, rhs)
        self._values = values
        self.ratios.append(Chebyshev(to_coef @ values, domain=[k, k + 1]))
        self.offsets.append(self.offsets[-1] + math.log(float(right @ values)))

    def log_rho(self, u: float) -> float:
        if u <= 1.0:
            return 0.0
        k = int(math.floor(u))  # u reads the interval [k, k + 1]
        with self.lock:
            while len(self.ratios) < k:
                self._build_interval(len(self.ratios) + 1)
        r = float(self.ratios[k - 1](u))
        return self.offsets[k - 1] + math.log(r)


RHO_DEGREE = 30
RHO_U_MAX = 500.0
_rho_table = _RhoTable(RHO_DEGREE)


def rho_numeric(u: float) -> RhoValue:
    """Dickman rho from the delay equation u*rho' = -rho(u-1), rho = 1 on [0,1]."""
    if not u >= 0:  # also rejects nan
        raise DomainError(f"rho needs u >= 0, got {u}")
    if u > RHO_U_MAX:
        raise RangeError(
            f"rho_numeric is limited to u <= {RHO_U_MAX}; use log_rho_debruijn for the tail"
        )
    return RhoValue(u, _rho_table.log_rho(u))


@dataclass(frozen=True)
class DeBruijnRho:
    """Both asymptotic conventions for log rho at large u."""
    u: float
    order: int
    log_rho_series: float      # -u log u * Q^(order)(X(u), Y(u))
    log_rho_integral: float    # e^gamma/sqrt(2 pi u) * exp(-int_1^u s d eta), in log form


def log_rho_debruijn(u: float, order: int) -> DeBruijnRho:
    if not math.e < u < math.inf:
        raise DomainError(f"asymptotic rho needs finite u > e, got {u}")
    if order < 0:
        raise DomainError("order must be >= 0")
    x, y = xy_of(u)
    series_form = -u * math.log(u) * q_truncation(order).eval_f64(x, y)
    integral_form = (
        EULER_GAMMA
        - 0.5 * math.log(2.0 * math.pi * u)
        - (_integral_s_one_to_e() + integral_s_numeric(u))
    )
    return DeBruijnRho(u, order, series_form, integral_form)


# ---------------------------------------------------------------------------
# Radius of convergence
# ---------------------------------------------------------------------------

_LAMBERT_TOL = 1e-15


def lambert_w_minus1_at_minus_exp_minus2() -> float:
    """W(-1, -e^-2) by Halley iteration from w0 = -3."""
    z = -math.exp(-2.0)
    w = -3.0
    for _ in range(60):
        ew = math.exp(w)
        f = w * ew - z
        if f == 0.0:
            break
        denom = ew * (w + 1.0) - (w + 2.0) * f / (2.0 * w + 2.0)
        w_new = w - f / denom
        if abs(w_new - w) <= _LAMBERT_TOL * abs(w_new):
            w = w_new
            break
        w = w_new
    return w


@lru_cache(maxsize=1)
def radius_constant() -> float:
    """-1/W(-1, -e^-2), the convergence radius in the X variable."""
    return -1.0 / lambert_w_minus1_at_minus_exp_minus2()


def radius_threshold_check(eta: float) -> bool:
    """True when X(eta) is inside the convergence radius."""
    if not eta > 1.0:
        raise DomainError(f"threshold check needs eta > 1, got {eta}")
    x, _ = xy_of(eta)
    return x <= radius_constant()
