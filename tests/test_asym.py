import math
import random
from fractions import Fraction

import pytest

from nfsasym.asym import (
    AbsorptionEvent, AsymError, FoldEvent, ScaleIncompatibleError, ScaledAsymptotic,
    _log_series, _xy_series, asym_add, asym_div, asym_mul, asym_neg,
    asym_scalar_mul, nu_element, p_of, scale_a, scale_d,
)
from nfsasym.exact import LogConstant, RadicalScale, scale_ratio_as_rational
from nfsasym.pseries import TruncatedBiSeries

from conftest import L2, L3

F = Fraction


def elem(scale, a, b, series=None, order=4):
    return ScaledAsymptotic(scale, F(a), F(b),
                            series if series is not None else TruncatedBiSeries.one(order))


def same_function(f, g):
    """f and g are the same function of nu, whichever scale carries the series."""
    if f.is_zero() or g.is_zero():
        return f.is_zero() and g.is_zero()
    ratio = scale_ratio_as_rational(g.scale, f.scale)
    return ((f.nu_exp, f.lognu_exp) == (g.nu_exp, g.lognu_exp) and ratio is not None
            and f.series == g.series.scale(ratio))


class TestMulDiv:
    def test_exponent_addition(self):
        h = asym_mul(elem(RadicalScale.one(), F(1, 3), F(2, 3)),
                     elem(RadicalScale.one(), F(2, 3), F(1, 3)))
        assert (h.nu_exp, h.lognu_exp) == (1, 1)
        assert h.series == TruncatedBiSeries.one(4)

    def test_self_division(self):
        f = elem(scale_a(), F(1, 3), F(2, 3))
        q = asym_div(f, f)
        assert q.scale == RadicalScale.one() and q.nu_exp == 0 and q.lognu_exp == 0
        assert q.series == TruncatedBiSeries.one(4)

    def test_nu_over_d(self):
        D = TruncatedBiSeries.one(4) - TruncatedBiSeries.x(4).scale(F(2, 3))
        d = ScaledAsymptotic(scale_d(), F(1, 3), F(-1, 3), D)
        q = asym_div(nu_element(4), d)
        assert q.scale == RadicalScale.from_pow(3, F(-1, 3))
        assert (q.nu_exp, q.lognu_exp) == (F(2, 3), F(1, 3))
        assert q.series == D.inverse()

    def test_division_by_zero_element(self):
        z = ScaledAsymptotic(RadicalScale.one(), 0, 0, TruncatedBiSeries.zero(3))
        with pytest.raises(Exception):
            asym_div(nu_element(3), z)


class TestAdd:
    def test_drops_smaller_alpha(self):
        a = elem(scale_a(), F(1, 3), F(2, 3))
        nu_over_d = elem(RadicalScale.from_pow(3, F(-1, 3)), F(2, 3), F(1, 3))
        audit = []
        got = asym_add(a, nu_over_d, audit)
        assert got is nu_over_d
        assert len(audit) == 1 and isinstance(audit[0], AbsorptionEvent)
        assert audit[0].dropped_nu_exp == F(1, 3)

    def test_additive_cancellation(self):
        f = elem(scale_a(), F(1, 3), F(2, 3))
        assert asym_add(f, asym_neg(f)).is_zero()

    def test_fold_with_y_power(self):
        audit = []
        got = asym_add(nu_element(4), elem(RadicalScale.one(), 1, -1), audit)
        assert (got.nu_exp, got.lognu_exp) == (1, 0)
        assert got.series == TruncatedBiSeries.one(4) + TruncatedBiSeries.y(4)
        assert audit == [FoldEvent(F(1))]

    def test_fold_at_equal_log_exponent_not_recorded(self):
        audit = []
        asym_add(nu_element(4), nu_element(4), audit)
        assert audit == []

    def test_bounded_zero_refused(self):
        # Y modulo Y is zero, but the term it stands for is not
        y = ScaledAsymptotic(RadicalScale.one(), 1, 0, TruncatedBiSeries.y(4).y_bounded(0))
        with pytest.raises(AsymError):
            asym_add(nu_element(4), y)

    def test_zero_identity_and_commutativity(self):
        rng = random.Random(5)
        zero = ScaledAsymptotic(RadicalScale.one(), 0, 0, TruncatedBiSeries.zero(3))
        for _ in range(40):
            f = elem(scale_a(), F(rng.randint(0, 3), 3), F(rng.randint(-3, 3), 3),
                     order=3)
            g = elem(scale_a() * RadicalScale(rng.randint(1, 5)),
                     f.nu_exp, f.lognu_exp - rng.randint(0, 2), order=3)
            assert asym_add(f, zero) is f
            assert same_function(asym_add(f, g), asym_add(g, f))

    def test_irrational_ratio_rejected(self):
        f = elem(RadicalScale.from_pow(2, F(1, 2)), 1, 0)
        g = elem(RadicalScale.one(), 1, 0)
        with pytest.raises(ScaleIncompatibleError):
            asym_add(f, g)

    def test_non_half_integer_gap_rejected(self):
        f = elem(RadicalScale.one(), 1, F(1, 3))
        g = elem(RadicalScale.one(), 1, 0)
        with pytest.raises(ScaleIncompatibleError):
            asym_add(f, g)


class TestMulProperties:
    def test_commutative_associative(self):
        rng = random.Random(13)
        from conftest import random_series
        for _ in range(60):
            f = ScaledAsymptotic(scale_a(), F(1, 3), F(2, 3),
                                 random_series(rng, 3, invertible=True))
            g = ScaledAsymptotic(scale_d(), F(1, 3), F(-1, 3),
                                 random_series(rng, 3, invertible=True))
            h = ScaledAsymptotic(RadicalScale.one(), 1, 0,
                                 random_series(rng, 3, invertible=True))
            assert asym_mul(f, g).series == asym_mul(g, f).series
            assert asym_mul(asym_mul(f, g), h).series == asym_mul(f, asym_mul(g, h)).series


class TestLog:
    """G = log f / log nu, the third series of _xy_series."""

    def test_log_nu(self):
        g = _xy_series(nu_element(4))[2]
        assert g == TruncatedBiSeries.one(5)

    def test_log_cube_root(self):
        g = _xy_series(elem(RadicalScale.one(), F(1, 3), 0))[2]
        assert g.constant_term().as_fraction() == F(1, 3)
        assert len(g.terms) == 1

    def test_log_u0_leading(self):
        u0 = elem(scale_d() * RadicalScale(F(1, 2)), F(1, 3), F(-1, 3))
        g = _xy_series(u0)[2]
        assert g.constant_term() == LogConstant.from_fraction(F(1, 3))
        assert g.coefficient(1, 0) == LogConstant.from_fraction(F(-1, 3))
        assert g.coefficient(0, 1) == L3 * F(1, 3) - L2

    def test_degenerate_series_log(self):
        # nu exponent 0: log f = log F, so G = Y * log F
        series = TruncatedBiSeries.one(3) + TruncatedBiSeries.x(3)
        f = ScaledAsymptotic(RadicalScale.one(), 0, 0, series)
        assert _log_series(f) == series.log().shift(0, 1)


class TestXYOf:
    def test_of_nu(self):
        xs, ys, _ = _xy_series(nu_element(4))
        assert xs == TruncatedBiSeries.x(5)
        assert ys == TruncatedBiSeries.y(5)

    def test_of_cube_root(self):
        xs, ys, _ = _xy_series(elem(RadicalScale.one(), F(1, 3), 0))
        assert ys.coefficient(0, 1).as_fraction() == 3
        assert len(ys.terms) == 1
        assert xs.coefficient(1, 0).as_fraction() == 3
        assert xs.coefficient(0, 1) == L3 * (-3)

    def test_alpha_must_be_positive(self):
        with pytest.raises(AsymError):
            _xy_series(elem(RadicalScale.one(), 0, 1))

    def test_numeric_agreement_at_e30(self):
        u0 = elem(scale_d() * RadicalScale(F(1, 2)), F(1, 3), F(-1, 3))
        nu = math.exp(30.0)
        X, Y = math.log(30.0) / 30.0, 1.0 / 30.0
        u0f = (3.0 ** (1 / 3) / 2.0) * nu ** (1 / 3) * 30.0 ** (-1 / 3)
        x_direct = math.log(math.log(u0f)) / math.log(u0f)
        y_direct = 1.0 / math.log(u0f)
        xs, ys, _ = _xy_series(u0)
        assert abs(xs.eval_f64(X, Y) - x_direct) <= 1e-4 * abs(x_direct)
        assert abs(ys.eval_f64(X, Y) - y_direct) <= 1e-4 * abs(y_direct)


class TestPOf:
    def test_q0_with_nu(self):
        p = p_of(nu_element(3), 0)
        assert (p.nu_exp, p.lognu_exp) == (1, 1)
        assert p.scale == RadicalScale.one()
        assert p.series == TruncatedBiSeries.constant(-1, 3)

    def test_u0_leading_part(self):
        u0 = elem(scale_d() * RadicalScale(F(1, 2)), F(1, 3), F(-1, 3))
        p = p_of(u0, 2)
        assert (p.nu_exp, p.lognu_exp) == (F(1, 3), F(2, 3))
        # leading part -(3^(1/3)/6): scale 3^(1/3)/2 times constant -1/3
        assert p.scale == scale_d() * RadicalScale(F(1, 2))
        assert p.series.constant_term() == LogConstant.from_fraction(F(-1, 3))

    def test_u1_leading_part(self):
        u1 = elem(scale_d() * RadicalScale(F(3, 2)), F(1, 3), F(-1, 3))
        p = p_of(u1, 2)
        assert p.series.constant_term() == LogConstant.from_fraction(F(-1, 3))

    def test_constraint_constant_cancellation(self):
        # p(u0) + p(u1) + 2a - b vanishes at order zero for the leading terms
        u0 = elem(scale_d() * RadicalScale(F(1, 2)), F(1, 3), F(-1, 3))
        u1 = elem(scale_d() * RadicalScale(F(3, 2)), F(1, 3), F(-1, 3))
        a = elem(scale_a(), F(1, 3), F(2, 3))
        total = asym_add(p_of(u0, 2), p_of(u1, 2))
        total = asym_add(total, asym_scalar_mul(a, 2))
        total = asym_add(total, asym_neg(a))
        assert total.series.constant_term().is_zero()
