"""Dickman-de Bruijn machinery: the exact P and Q series, numeric evaluators
for s(eta), its integral and rho(u), and the radius-of-convergence constants.

Notation: X(eta) = loglog(eta)/log(eta) and Y(eta) = 1/log(eta).  s(eta) is
the positive root of s = log(1 + s*eta); s(eta)/log(eta) expands as the
bivariate series P(X, Y), built from its closed form in the signed Stirling
numbers of the first kind (p_series), and (1/(u log u)) * integral_e^u s
d(eta) expands as Q(X, Y).  Q comes from de Bruijn's closed form of that
integral (below): at the root e^s = 1 + u*s, so the asymptotic series
Ei(s) ~ (e^s/s) * sum_{k>=0} k!/s^k gives u*s - Ei(s) = u*(s - 1 -
sum_{k>=1} k!/s^k) up to terms smaller by a power of u, as are log(s),
gamma and the lower limit.  Dividing by u*log(u), with s = log(u)*P and
Y = 1/log(u),

    Q = P - Y - sum_{k>=1} k! * Y^(k+1) * P^(-k),

so neither series needs a series log.

rho is evaluated two ways: a power series of the delay equation
u*rho'(u) = -rho(u-1) about the right end of each unit interval, with
non-negative coefficients and log(rho) carried as offsets (van de Lune and
Wattel 1969; Marsaglia, Zaman and Marsaglia 1989), and the asymptotic form
log(rho(u)) ~ -u*log(u)*Q(X(u), Y(u)) which only converges for large u.  The
integral of s has the closed form integral_1^u s d(eta) = u*s - Ei(s) +
log(s) + gamma with s = s(u).  Everything here is pure Python.
"""

from __future__ import annotations

import math
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .exact import LogConstant
from .pseries import TruncatedBiSeries

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
    """Q = P - Y - sum_{k=1..n-1} k! Y^(k+1) P^(-k), truncated at n (the Ei
    expansion of the module docstring).  The k-th term is Y^(k+1) times a
    series, so P^(-k) is needed only to order n-k-1: P is inverted once, at
    order n-2, and each power is the previous one times that inverse."""
    if n < 0:
        raise DomainError("series order must be >= 0")
    p = p_series(n).series
    q = p - TruncatedBiSeries.monomial(0, 1, max(n, 1)).truncate(n)
    if n >= 2:
        p_inv = p.truncate(n - 2).inverse()
        power = p_inv  # P^(-k) at order n-k-1
        for k in range(1, n):
            q = q - power.shift(0, k + 1).scale(math.factorial(k))
            if k < n - 1:
                power = power.truncate(n - k - 2) * p_inv
    return QSeries(q)


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
    """Power-series table for rho on [1, u_max].

    On [k, k+1] the table holds rho(k+1-t) = rho(k) * sum_i c_i t^i for t in
    [0, 1], a power series about the interval's right end.  With b the
    previous interval's coefficients over rho(k) (b = [1] on [0, 1]), the
    delay equation u*rho'(u) = -rho(u-1) reads (k+1-t) f'(t) = g(t) for
    f = sum c_i t^i and g = sum b_i t^i, so

        c_{i+1} = (b_i + i*c_i) / ((k+1)(i+1)),

    and the integral form u*rho(u) = integral_{u-1}^{u} rho(t) dt at
    u = k+1 reads (k+1)*c_0 = sum_i c_i/(i+1), that is

        c_0 = rho(k+1)/rho(k) = (sum_{i>=1} c_i/(i+1)) / k.

    b starts as [1] and each next b is c/c_0, so every b_i and c_i is a sum
    and quotient of non-negative numbers and nothing cancels; the continuity
    form c_0 = 1 - sum_{i>=1} c_i would lose digits at every step.  log rho
    is carried as the offsets log rho(k+1) = log rho(k) + log c_0, so
    nothing underflows up to u = 500.

    Tail bound: summing (k+1)(j+1) c_{j+1} - j*c_j = b_j over j >= N gives
    k * sum_{j>N} j*c_j = N*c_N + sum_{j>=N} b_j, so the terms dropped after
    c_N add up to at most (N*c_N + sum_{j>=N} b_j) / (k(N+1)).  An interval
    stops at the first N where c_N and the next forcing term
    b_N/((k+1)(N+1)) are both below delta = eps*c_1/(2k), eps = 2^-56;
    delta <= eps*c_0, since c_0 has the summand c_1/(2k).  Past
    the first few terms the b_j fall by at least half per step (the series
    of rho on [k-1, k] about u = k converges up to its singularity at
    u = k-2, t = 2; checked for every interval to u = 500), so
    sum_{j>=N} b_j <= 2*b_N and the dropped terms add up to less than
    (2k+3)/k * delta <= 5*eps*c_0, below 2^-53 of f(t) >= c_0.
    """

    def __init__(self):
        self.offsets = [0.0]  # log rho(k) for k = 1, 2, ...
        self.series: list[list[float]] = []  # c for [k, k + 1], over rho(k)
        self.lock = threading.Lock()

    def _build_interval(self, k: int) -> None:
        prev = self.series[-1] if self.series else [1.0]  # rho = 1 on [0, 1]
        b = [c / prev[0] for c in prev]
        delta = _RHO_EPS / (2 * k * (k + 1))
        c = [0.0]
        while True:
            i = len(c) - 1
            c.append(((b[i] if i < len(b) else 0.0) + i * c[i]) / ((k + 1) * (i + 1)))
            forcing = (b[i + 1] if i + 1 < len(b) else 0.0) / ((k + 1) * (i + 2))
            if c[-1] < delta and forcing < delta:
                break
        c[0] = math.fsum([c[i] / (i + 1) for i in range(1, len(c))]) / k
        self.series.append(c)
        self.offsets.append(self.offsets[-1] + math.log(c[0]))

    def log_rho(self, u: float) -> float:
        if u <= 1.0:
            return 0.0
        k = math.ceil(u) - 1  # u reads the interval [k, k + 1] at t = k + 1 - u
        with self.lock:
            while len(self.series) < k:
                self._build_interval(len(self.series) + 1)
        return self.offsets[k - 1] + math.log(_horner(self.series[k - 1], k + 1 - u))


def _horner(coefficients: list[float], t: float) -> float:
    value = 0.0
    for c in reversed(coefficients):
        value = value * t + c
    return value


_RHO_EPS = 2.0 ** -56
RHO_U_MAX = 500.0
_rho_table = _RhoTable()


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
