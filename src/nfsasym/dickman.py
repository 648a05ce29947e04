"""Dickman-de Bruijn machinery: the exact P and Q series, numeric evaluators
for s(eta), its integral and rho(u), and the radius-of-convergence constants.

Notation: X(eta) = loglog(eta)/log(eta) and Y(eta) = 1/log(eta).  s(eta) is
the positive root of s = log(1 + s*eta); s(eta)/log(eta) expands as the
bivariate series P(X, Y), and (1/(u log u)) * integral_e^u s d(eta) expands
as Q(X, Y) with

    Q = (1-Y)*P + Y*(1+Delta)^(-1)*(1 - Y^(-1))*Delta(P).

rho is evaluated two ways: a per-unit-interval spectral collocation of the
delay equation u*rho'(u) = -rho(u-1) carrying log(rho), and the asymptotic
form log(rho(u)) ~ -u*log(u)*Q(X(u), Y(u)) which only converges for large u.
numpy and scipy load on the first rho or de Bruijn call, so the exact engine
and the read path never load them.
"""

from __future__ import annotations

import math
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
# Signed Stirling numbers of the first kind
# ---------------------------------------------------------------------------

_stirling_rows: list[list[int]] = [[1]]
_stirling_lock = threading.Lock()


def stirling_first_signed(i: int, k: int) -> int:
    """Coefficient of x^k in x(x-1)...(x-i+1), via s(i+1,k) = s(i,k-1) - i*s(i,k)."""
    if i < 0 or k < 0:
        raise DomainError("stirling_first_signed needs i, k >= 0")
    if k > i:
        return 0
    with _stirling_lock:
        while len(_stirling_rows) <= i:
            n = len(_stirling_rows) - 1
            prev = _stirling_rows[n]
            row = [0] * (n + 2)
            for j in range(n + 2):
                above = prev[j] if j <= n else 0
                left = prev[j - 1] if 1 <= j <= n + 1 else 0
                row[j] = left - n * above
            _stirling_rows.append(row)
        return _stirling_rows[i][k]


# ---------------------------------------------------------------------------
# The P and Q series
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PSeries:
    series: TruncatedBiSeries
    method: str  # "recurrence" | "stirling"

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
    method: str  # "dde" | "debruijn_integral"

    @property
    def rho(self) -> float:
        return math.exp(self.log_rho)


def p_series_recurrence(n: int) -> PSeries:
    """P_0 = 1, then P_{k+1} = trunc_{k+1}[1 + X + Y*log P_k]."""
    if n < 0:
        raise DomainError("series order must be >= 0")
    p = TruncatedBiSeries.one(0)
    for k in range(n):
        order = k + 1
        # the iterate is polynomial, so it is exact at any order
        p = (TruncatedBiSeries.one(order) + TruncatedBiSeries.x(order)
             + TruncatedBiSeries.y(order) * p.with_order(order).log())
    return PSeries(p.with_order(n), "recurrence")


def p_series_stirling(n: int) -> PSeries:
    """P = 1 + X + Y * sum_{i>=1} sum_{j=1..i} S(i, i-j+1)/j! * X^j Y^{i-j}."""
    if n < 0:
        raise DomainError("series order must be >= 0")
    one = LogConstant.one()
    terms = {(0, 0): one}
    if n >= 1:
        terms[(2, 0)] = one
    fact = [1]
    for i in range(1, n + 1):
        fact.append(fact[-1] * i)
    for i in range(1, n):  # term degree is i+1
        for j in range(1, i + 1):
            c = Fraction(stirling_first_signed(i, i - j + 1), fact[j])
            if c:
                terms[(2 * j, 2 * (i - j) + 2)] = LogConstant.from_fraction(c)
    return PSeries(TruncatedBiSeries(n, terms), "stirling")


@lru_cache(maxsize=None)
def q_series(n: int) -> QSeries:
    """Q = (1-Y)P + Y*(1+Delta)^(-1)(1 - Y^(-1))(Delta P), truncated at n."""
    if n < 0:
        raise DomainError("series order must be >= 0")
    p = p_series_recurrence(n).series
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
    """
    if not eta > 1.0:
        raise DomainError(f"s(eta) needs eta > 1, got {eta}")

    def f(s):
        return s - math.log1p(s * eta)

    def fp(s):
        return 1.0 - eta / (1.0 + s * eta)

    log_eta = math.log(eta)
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


def integral_s_numeric(u: float) -> float:
    """integral_e^u s(eta) d(eta) by adaptive quadrature after eta = e^t."""
    if not math.e < u < math.inf:
        raise DomainError(f"integral needs finite u > e, got {u}")
    from scipy import integrate

    value, _err = integrate.quad(
        lambda t: s_numeric(math.exp(t)) * math.exp(t),
        1.0, math.log(u), epsrel=1e-10, epsabs=0.0, limit=400,
    )
    return value


@lru_cache(maxsize=1)
def _integral_s_one_to_e() -> float:
    # offset used by the de Bruijn form; s -> 0 as eta -> 1+ so the
    # integrand is bounded
    from scipy import integrate

    value, _err = integrate.quad(
        lambda t: (s_numeric(math.exp(t)) if t > 1e-14 else 0.0) * math.exp(t),
        0.0, 1.0, epsrel=1e-12, epsabs=1e-14, limit=400,
    )
    return value


class _RhoTable:
    """Collocation table for rho on [1, u_max].

    The delay equation u*rho'(u) = -rho(u-1) is integrated once into the
    equivalent self-referential form

        u * rho(u) = integral_{u-1}^{u} rho(t) dt,

    which is numerically stable: values on the right are of the same size as
    the value computed, so relative error is preserved instead of being
    amplified by rho(u-1)/rho(u) at every step (that amplification is what
    wrecks naive forward steppers).  Per unit interval [k, k+1] the ratio
    rho(u)/rho(k) is found as the fixed point of

        q(u) = (R * int_{u-1}^{k} q_prev + int_k^u q) / u,   R = rho(k-1)/rho(k),

    represented as a Chebyshev interpolant of the configured degree; log rho
    is carried as per-interval offsets, so nothing underflows up to u = 500.
    """

    def __init__(self, degree: int):
        self.degree = degree
        self.offsets = [0.0]  # log rho(k) for k = 1, 2, ...
        self.ratios: list = []  # numpy Chebyshev interpolants of rho(u)/rho(k)
        self.lock = threading.Lock()

    def _build_interval(self, k: int) -> None:
        import numpy as np
        from numpy.polynomial.chebyshev import Chebyshev

        if k == 1:
            # rho = 1 on [0, 1]: known part of the integral is 2 - u
            def known(u):
                return 2.0 - np.asarray(u, dtype=float)
        else:
            q_prev = self.ratios[k - 2]
            r_scale = 1.0 / float(q_prev(float(k)))  # rho(k-1)/rho(k)
            prim = q_prev.integ(lbnd=k - 1)
            prim_at_k = float(prim(float(k)))

            def known(u, r_scale=r_scale, prim=prim, prim_at_k=prim_at_k):
                u = np.asarray(u, dtype=float)
                return r_scale * (prim_at_k - prim(u - 1.0))

        q = Chebyshev.interpolate(
            lambda u: known(u) / np.asarray(u, dtype=float),
            self.degree, domain=[k, k + 1],
        )
        for _ in range(400):
            def step(u, q=q):
                u = np.asarray(u, dtype=float)
                return (known(u) + q.integ(lbnd=k)(u)) / u

            q_next = Chebyshev.interpolate(step, self.degree, domain=[k, k + 1])
            delta_coef = np.max(np.abs(q_next.coef - q.coef))
            q = q_next
            if delta_coef <= 1e-16 * max(1.0, np.max(np.abs(q.coef))):
                break
        self.ratios.append(q)
        self.offsets.append(self.offsets[-1] + math.log(float(q(k + 1.0))))

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
    return RhoValue(u, _rho_table.log_rho(u), "dde")


@dataclass(frozen=True)
class DeBruijnRho:
    """Both asymptotic conventions for log rho at large u."""
    u: float
    order: int
    log_rho_series: float      # -u log u * Q^(order)(X(u), Y(u))
    log_rho_integral: float    # e^gamma/sqrt(2 pi u) * exp(-int_1^u s d eta), in log form

    @property
    def q_value(self) -> float:
        return -self.log_rho_series / (self.u * math.log(self.u))


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
