"""Calculus of asymptotic-scale elements: values of the form

    scale * nu**alpha * (log nu)**beta * F(X(nu), Y(nu))

with ``scale`` a radical-monomial constant, rational exponents alpha and
beta, and F a truncated bivariate series.  These model functions of nu whose
error is o(scale * nu^alpha (log nu)^beta * Y^order).

Addition implements the absorption rules used throughout the expansion of
the optimization constraint:

* different alpha: the smaller-alpha term is o(Y^n) relative to the other
  for every n (a negative power of nu beats every power of 1/log nu), so it
  is dropped outright; the drop is recorded in the caller's audit trail;
* equal alpha, beta gap k a half-integer >= 0 and rational scale ratio r:
  the smaller term folds in as r * Y^k * (its series); a fold at k > 0 is
  recorded in the audit trail as well;
* anything else is a modeling bug and raises.

A zero series whose Y exponent is bounded (pseries.y_bounded) is not the
zero element: the terms it dropped may be nonzero, so which term dominates
cannot be decided, and asym_add raises rather than guess.

log, X(.) and Y(.) of an element follow the direct expansions

    log f     = log nu * (alpha + beta*X + Y*(log scale + log F)),
    Y(f)      = Y / (alpha + beta*X + Y*(log scale + log F)),
    X(f)      = (X + Y*log(alpha + ...)) / (alpha + ...),

and the log-smoothness-probability map is

    p_of(u, n) = -u * log(u) * Q^(n)(X(u), Y(u))

with Q the Dickman exponent series from the dickman module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .dickman import q_truncation
from .exact import RadicalScale, scale_log, scale_ratio_as_rational
from .pseries import TruncatedBiSeries


class AsymError(ValueError):
    pass


class ScaleIncompatibleError(AsymError):
    def __init__(self, message, left=None, right=None):
        super().__init__(message)
        self.left = left
        self.right = right


@dataclass(frozen=True)
class AbsorptionEvent:
    """One dominated term dropped by asym_add, for the proof transcripts."""
    dropped_scale: RadicalScale
    dropped_nu_exp: Fraction
    dropped_lognu_exp: Fraction
    kept_scale: RadicalScale
    kept_nu_exp: Fraction
    kept_lognu_exp: Fraction

    def describe(self) -> str:
        return (
            f"dropped {self.dropped_scale.to_string()}*nu^{self.dropped_nu_exp}"
            f"*(log nu)^{self.dropped_lognu_exp} against"
            f" {self.kept_scale.to_string()}*nu^{self.kept_nu_exp}"
            f"*(log nu)^{self.kept_lognu_exp}"
        )


@dataclass(frozen=True)
class FoldEvent:
    """A smaller term folded in at Y^gap, gap > 0, by asym_add."""
    gap: Fraction

    def describe(self) -> str:
        return f"folded a term in at Y^{self.gap}"


@dataclass(frozen=True)
class ScaledAsymptotic:
    scale: RadicalScale
    nu_exp: Fraction
    lognu_exp: Fraction
    series: TruncatedBiSeries

    def __post_init__(self):
        object.__setattr__(self, "nu_exp", Fraction(self.nu_exp))
        object.__setattr__(self, "lognu_exp", Fraction(self.lognu_exp))

    @property
    def order(self):
        return self.series.order

    def is_zero(self) -> bool:
        return self.series.is_zero()

    def __repr__(self):
        return (
            f"ScaledAsymptotic({self.scale.to_string()}; nu^{self.nu_exp}"
            f" (log nu)^{self.lognu_exp}; {self.series})"
        )


def asym_neg(f: ScaledAsymptotic) -> ScaledAsymptotic:
    return ScaledAsymptotic(f.scale, f.nu_exp, f.lognu_exp, -f.series)


def asym_scalar_mul(f: ScaledAsymptotic, q) -> ScaledAsymptotic:
    q = Fraction(q)
    if q == 0:
        return ScaledAsymptotic(f.scale, f.nu_exp, f.lognu_exp, f.series._zero_like())
    if q > 0:
        return ScaledAsymptotic(f.scale * RadicalScale(q), f.nu_exp, f.lognu_exp, f.series)
    return ScaledAsymptotic(f.scale * RadicalScale(-q), f.nu_exp, f.lognu_exp, -f.series)


def asym_mul(f: ScaledAsymptotic, g: ScaledAsymptotic) -> ScaledAsymptotic:
    return ScaledAsymptotic(
        f.scale * g.scale, f.nu_exp + g.nu_exp, f.lognu_exp + g.lognu_exp,
        f.series * g.series,
    )


def asym_inv(g: ScaledAsymptotic) -> ScaledAsymptotic:
    if g.is_zero():
        raise AsymError("division by a zero asymptotic element")
    return ScaledAsymptotic(
        RadicalScale.one() / g.scale, -g.nu_exp, -g.lognu_exp, g.series.inverse(),
    )


def asym_div(f: ScaledAsymptotic, g: ScaledAsymptotic) -> ScaledAsymptotic:
    return asym_mul(f, asym_inv(g))


def asym_add(
    f: ScaledAsymptotic, g: ScaledAsymptotic, audit: Optional[list] = None
) -> ScaledAsymptotic:
    for h in (f, g):
        if h.is_zero() and h.series.ymax2 is not None:
            raise AsymError("a Y-bounded zero may hide a nonzero term: cannot add it")
    if f.is_zero():
        return g
    if g.is_zero():
        return f
    if f.nu_exp != g.nu_exp:
        big, small = (f, g) if f.nu_exp > g.nu_exp else (g, f)
        if audit is not None:
            audit.append(AbsorptionEvent(
                small.scale, small.nu_exp, small.lognu_exp,
                big.scale, big.nu_exp, big.lognu_exp,
            ))
        return big
    big, small = (f, g) if f.lognu_exp >= g.lognu_exp else (g, f)
    gap = big.lognu_exp - small.lognu_exp  # small term carries Y^gap
    if (2 * gap).denominator != 1:
        raise ScaleIncompatibleError(
            f"log nu exponent gap {gap} is not a half-integer", f, g
        )
    ratio = scale_ratio_as_rational(small.scale, big.scale)
    if ratio is None:
        raise ScaleIncompatibleError(
            f"scale ratio {small.scale.to_string()} / {big.scale.to_string()}"
            " is not rational", f, g,
        )
    if gap and audit is not None:
        audit.append(FoldEvent(gap))
    folded = small.series.scale(ratio).shift(0, gap)
    return ScaledAsymptotic(big.scale, big.nu_exp, big.lognu_exp, big.series + folded)


def _log_series(f: ScaledAsymptotic) -> TruncatedBiSeries:
    """Series G with log f = log nu * G(X, Y); constant term is nu_exp."""
    F = f.series
    order = Fraction(F.order2, 2)
    slog = F.log()  # includes log of the positive constant term
    extra = scale_log(f.scale)
    if extra:
        slog = slog + TruncatedBiSeries.constant(extra, order)
    g = slog.shift(0, 1)
    if f.nu_exp:
        g = g + TruncatedBiSeries.constant(f.nu_exp, g.order)
    if f.lognu_exp:
        g = g + TruncatedBiSeries.monomial(1, 0, g.order, f.lognu_exp)
    return g


def _xy_series(f: ScaledAsymptotic):
    """(X(f), Y(f), G) with log f = log nu * G: Y(f) = Y/G and
    X(f) = (X + Y*log G)/G."""
    if f.nu_exp <= 0:
        raise AsymError(f"X(f), Y(f) expansion needs nu exponent > 0, got {f.nu_exp}")
    g = _log_series(f)
    g_inv, g_log = g.inverse_and_log()
    order = Fraction(g.order2, 2)
    ys = g_inv.shift(0, 1).truncate(order)
    xs = (TruncatedBiSeries.x(order) + g_log.shift(0, 1).truncate(order)) * g_inv
    return xs, ys, g


def p_of(u: ScaledAsymptotic, n: int, q: Optional[TruncatedBiSeries] = None) -> ScaledAsymptotic:
    """Log smoothness probability -u log u * Q^(n)(X(u), Y(u)) of e^u at bound
    e^b with u the size ratio; returns an element at (alpha, beta + 1)."""
    xs, ys, g = _xy_series(u)
    if q is None:
        q = q_truncation(n)
    composed = q.compose(xs, ys)
    return ScaledAsymptotic(
        u.scale, u.nu_exp, u.lognu_exp + 1, -(u.series * g * composed)
    )


# -- the standard NFS normalizations ----------------------------------------

def scale_a() -> RadicalScale:
    """(8/9)^(1/3), the common scale of the search and smoothness logs."""
    return RadicalScale.from_pow(Fraction(8, 9), Fraction(1, 3))


def scale_d() -> RadicalScale:
    """3^(1/3), the scale of the polynomial degree."""
    return RadicalScale.from_pow(3, Fraction(1, 3))


def nu_element(order) -> ScaledAsymptotic:
    return ScaledAsymptotic(RadicalScale.one(), 1, 0, TruncatedBiSeries.one(order))
