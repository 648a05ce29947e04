import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy.special import lambertw

from nfsasym import dickman
from nfsasym.dickman import (
    DomainError, RangeError,
    cep_series, integral_s_numeric, lambert_w_minus1_at_minus_exp_minus2,
    log_rho_debruijn, p_series, q_series,
    radius_constant, radius_threshold_check, rho_numeric, s_numeric, xy_of,
)
from nfsasym.exact import LogConstant
from nfsasym.pseries import TruncatedBiSeries

from conftest import p_series_recurrence, q_series_delta


def S(order, terms):
    return TruncatedBiSeries(order, {
        e: LogConstant.from_fraction(c) for e, c in terms.items()
    })


class TestPSeries:
    def test_early_iterates(self):
        assert p_series(1).series == S(1, {(0, 0): 1, (2, 0): 1})
        assert p_series(2).series == S(2, {(0, 0): 1, (2, 0): 1, (2, 2): 1})
        assert p_series(3).series == S(3, {
            (0, 0): 1, (2, 0): 1, (2, 2): 1, (4, 2): Fraction(-1, 2), (2, 4): 1,
        })

    def test_stirling_form_matches(self):
        assert p_series(2).series == p_series_recurrence(2)
        assert p_series(3).series == p_series_recurrence(3)

    def test_equality_through_degree_14(self):
        for n in range(15):
            assert p_series_recurrence(n) == p_series(n).series, n

    def test_all_coefficients_rational(self):
        for series in (p_series(8).series, q_series(8).series):
            assert all(c.is_rational() for c in series.terms.values())


class TestQSeries:
    def test_degree_three_display(self):
        assert q_series(3).series == S(3, {
            (0, 0): 1, (2, 0): 1, (0, 2): -1, (2, 2): 1, (0, 4): -1,
            (4, 2): Fraction(-1, 2), (2, 4): 2, (0, 6): -2,
        })

    def test_degree_two_is_cep(self):
        assert q_series(2).series == cep_series()

    def test_degree_zero(self):
        assert q_series(0).series == TruncatedBiSeries.one(0)

    def test_cep_fixed_polynomial(self):
        cep = cep_series()
        assert cep.eval_f64(0.0, 0.0) == 1.0
        assert cep.coefficient(1, 1) == LogConstant.one()

    def test_q_from_either_p_construction(self):
        # the Ei form must equal the Delta resolvent, applied to the P of the
        # recurrence oracle, as the identical series
        for n in range(15):
            assert q_series_delta(p_series_recurrence(n)) == q_series(n).series, n

    def test_built_without_series_log(self, monkeypatch):
        def refuse(self):
            raise AssertionError("q_series called the series log")

        q_series.cache_clear()
        monkeypatch.setattr(TruncatedBiSeries, "log", refuse)
        try:
            assert q_series(8).series.order == 8
        finally:
            q_series.cache_clear()


class TestSNumeric:
    def test_exact_root(self):
        # s = 1 gives (e - 1)/1 = e - 1
        assert s_numeric(math.e - 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_bracket_at_e10(self):
        s = s_numeric(math.exp(10.0))
        assert 10.0 < s < 10.0 * 1.001 * 1.4
        assert s > math.log(math.exp(10.0))

    def test_series_cross_check_e20(self):
        eta = math.exp(20.0)
        x, y = xy_of(eta)
        p6 = p_series(6).series.eval_f64(x, y)
        assert abs(s_numeric(eta) / 20.0 - p6) < 5e-6

    def test_error_decreases_with_order(self):
        # per-step factor-1.2 decrease holds at e^16 and e^20; at e^12 a
        # fortuitous near-cancellation makes the n=5 truncation anomalously
        # good, so only the overall n=2 -> n=8 collapse is asserted there
        for e in (16.0, 20.0):
            eta = math.exp(e)
            x, y = xy_of(eta)
            ratio = s_numeric(eta) / e
            errs = [abs(ratio - p_series(n).series.eval_f64(x, y))
                    for n in range(2, 9)]
            for k in range(len(errs) - 1):
                assert errs[k] > 1.2 * errs[k + 1], (e, errs)
        eta = math.exp(12.0)
        x, y = xy_of(eta)
        ratio = s_numeric(eta) / 12.0
        err2 = abs(ratio - p_series(2).series.eval_f64(x, y))
        err8 = abs(ratio - p_series(8).series.eval_f64(x, y))
        assert err8 < err2 / 1000.0

    def test_domain(self):
        with pytest.raises(DomainError):
            s_numeric(1.0)

    @pytest.mark.parametrize("eta", [1e306, 1.7e308])
    def test_root_where_s_times_eta_overflows(self, eta):
        with mpmath.workdps(40):
            e = mpmath.mpf(eta)
            want = mpmath.findroot(lambda s: s - mpmath.log(1 + s * e), math.log(eta) + 7)
        assert s_numeric(eta) == pytest.approx(float(want), rel=1e-13)


class TestIntegralS:
    def test_vanishes_at_lower_end(self):
        assert integral_s_numeric(math.e * (1 + 1e-9)) == pytest.approx(0.0, abs=1e-6)

    def test_series_cross_check_e8(self):
        u = math.exp(8.0)
        x, y = xy_of(u)
        q6 = q_series(6).series.eval_f64(x, y)
        assert abs(integral_s_numeric(u) / (u * 8.0) - q6) < 2e-3

    def test_monotone(self):
        assert integral_s_numeric(math.exp(9.0)) > integral_s_numeric(math.exp(8.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            integral_s_numeric(2.0)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            integral_s_numeric(math.inf)

    @staticmethod
    def root_free_oracle(s_lo, s_hi):
        """integral s d(eta) over eta(s_lo)..eta(s_hi), with eta(s) = (e^s - 1)/s
        the inverse of s(eta), as integral s * eta'(s) ds at 40 digits."""
        with mpmath.workdps(40):
            # s * eta'(s) = e^s * h(s), h(s) = 1 - (1 - e^-s)/s; integrate
            # e^-t * h(s_hi - t) over t in [0, s_hi - s_lo] on doubling panels
            def integrand(t):
                s = s_hi - t
                return mpmath.exp(-t) * (1 + mpmath.expm1(-s) / s)
            length = s_hi - s_lo
            knots = [mpmath.mpf(0)]
            while knots[-1] * 2 + 1 < length:
                knots.append(knots[-1] * 2 + 1)
            return mpmath.exp(s_hi) * mpmath.quad(integrand, knots + [length])

    @staticmethod
    def s_of(u):
        with mpmath.workdps(40):
            e = mpmath.mpf(u)
            return mpmath.findroot(lambda s: s - mpmath.log(1 + s * e), s_numeric(u))

    @pytest.mark.parametrize("u", [math.e * (1 + 1e-6), 3.0, 30.0, 500.0, math.exp(8.0), 1e30, 1e300])
    def test_closed_form_against_root_free_oracle(self, u):
        s_u = self.s_of(u)
        with mpmath.workdps(40):
            want = self.root_free_oracle(self.s_of(math.e), s_u)
            # absolute bound: near e the value is a difference of two close F values
            assert abs(integral_s_numeric(u) - want) <= 1e-13 * u * s_u

    def test_one_to_e_against_root_free_oracle(self):
        # eta -> 1+ as s -> 0+
        want = self.root_free_oracle(mpmath.mpf(0), self.s_of(math.e))
        assert dickman._integral_s_one_to_e() == pytest.approx(float(want), rel=1e-14)


class TestEi:
    # Ei has a simple zero at x0 = 0.37250741...; there no float evaluation
    # can hold a relative bound, so the geometric grid below stays clear of
    # it and the neighbourhood is checked in absolute terms
    POINTS = [10.0 ** (-8 + (8 + math.log10(709.0)) * i / 39) for i in range(40)] + [
        40.0 - 1e-9, 40.0, 40.0 + 1e-9, 1.0, 5.0, 39.5, 40.5, 100.0, 709.0]

    @pytest.mark.parametrize("x", POINTS)
    def test_against_mpmath(self, x):
        with mpmath.workdps(40):
            want = mpmath.ei(mpmath.mpf(x))
            assert abs(dickman._ei(x) - want) <= 2e-15 * abs(want)

    def test_near_its_zero(self):
        for x in (0.37, 0.3725, 0.37250741078136663, 0.3726, 0.375):
            with mpmath.workdps(40):
                assert abs(dickman._ei(x) - mpmath.ei(mpmath.mpf(x))) <= 2e-15

    def test_scaled_form(self):
        for x, log_scale in ((3.0, 1.2), (45.0, 41.0), (711.0, 704.6)):
            with mpmath.workdps(40):
                want = mpmath.ei(mpmath.mpf(x)) * mpmath.exp(-mpmath.mpf(log_scale))
                assert abs(dickman._ei(x, log_scale) - want) <= 2e-15 * abs(want)

    def test_no_overflow_error(self):
        with mpmath.workdps(40):
            assert dickman._ei(712.0) == pytest.approx(float(mpmath.ei(712)), rel=2e-15)
        for x in (716.5, 1000.0, 1e300):
            assert dickman._ei(x) == math.inf


def rho3_trapezoid_oracle(step: float = 1e-5) -> float:
    """Brute-force forward trapezoid integration of u rho'(u) = -rho(u-1)
    from 1 to 3 (stable in this short range)."""
    n_per_unit = int(round(1.0 / step))
    # values of rho on [0,1] are 1; integrate across [1,2] then [2,3]
    prev = np.ones(n_per_unit + 1)
    rho_at_k = 1.0
    for k in (1, 2):
        ts = np.linspace(k, k + 1, n_per_unit + 1)
        integrand = prev / ts
        increments = 0.5 * step * (integrand[1:] + integrand[:-1])
        vals = rho_at_k - np.concatenate([[0.0], np.cumsum(increments)])
        prev = vals
        rho_at_k = float(vals[-1])
    return rho_at_k


def reference_rho_table(degree: int, k_max: int):
    """Picard iteration of a Chebyshev collocation of the integral form per
    unit interval, an oracle independent of the table's power series.
    Returns the Chebyshev interpolants of rho(u)/rho(k) on [k, k+1] and
    log rho(k)."""
    from numpy.polynomial.chebyshev import Chebyshev

    ratios, offsets = [], [0.0]
    for k in range(1, k_max + 1):
        if k == 1:
            def known(u):  # rho = 1 on [0, 1]
                return 2.0 - u
        else:
            q_prev = ratios[-1]
            r_scale = 1.0 / float(q_prev(float(k)))
            prim = q_prev.integ(lbnd=k - 1)
            prim_at_k = float(prim(float(k)))

            def known(u, r_scale=r_scale, prim=prim, prim_at_k=prim_at_k):
                return r_scale * (prim_at_k - prim(u - 1.0))

        q = Chebyshev.interpolate(lambda u: known(u) / u, degree, domain=[k, k + 1])
        for _ in range(400):
            step = q.integ(lbnd=k)
            q_next = Chebyshev.interpolate(
                lambda u: (known(u) + step(u)) / u, degree, domain=[k, k + 1])
            change = np.max(np.abs(q_next.coef - q.coef))
            q = q_next
            if change <= 1e-16 * max(1.0, np.max(np.abs(q.coef))):
                break
        ratios.append(q)
        offsets.append(offsets[-1] + math.log(float(q(k + 1.0))))
    return ratios, offsets


def taylor_rho_oracle(k_max: int, dps: int = 60, terms: int = 200):
    """rho(k+1-x) = sum_i a_i x^i on [k, k+1] from u rho'(u) = -rho(u-1):
    (k+1)(i+1) a_{i+1} = b_i + i a_i with b the previous interval's
    coefficients, and a_0 = rho(k) - sum_{i>=1} a_i.  Returns log rho(u) as
    a function of u in (1, k_max + 1]."""
    with mpmath.workdps(dps):
        b = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (terms - 1)  # rho = 1 on [0, 1]
        coefficients = {}
        for k in range(1, k_max + 1):
            a = [mpmath.mpf(0)] * terms
            for i in range(terms - 1):
                a[i + 1] = (b[i] + i * a[i]) / ((k + 1) * (i + 1))
            a[0] = b[0] - mpmath.fsum(a[1:])  # b[0] = rho(k)
            coefficients[k] = b = a

    def log_rho(u: float) -> float:
        k = math.ceil(u) - 1
        with mpmath.workdps(dps):
            x = k + 1 - mpmath.mpf(u)
            return float(mpmath.log(mpmath.polyval(coefficients[k][::-1], x)))

    return log_rho


class TestRhoOracles:
    def test_against_picard_reference(self):
        ratios, offsets = reference_rho_table(30, 500)
        rng = random.Random(20)
        for u in [1.0 + 499.0 * (1.0 - rng.random()) for _ in range(200)]:
            k = min(int(u), 500)
            want = offsets[k - 1] + math.log(float(ratios[k - 1](u)))
            assert abs(rho_numeric(u).log_rho - want) <= 1e-13 * abs(want), u

    def test_against_taylor_oracle(self):
        """The oracle expands about each interval's right end, as the table
        does, and differs only in its 60 digits and its continuity form for
        a_0; so it checks the float arithmetic, and reference_rho_table stays
        the independent check up to u = 500."""
        log_rho = taylor_rho_oracle(19)
        points = [1.05 + 0.25 * i for i in range(76)] + [float(k) for k in range(2, 21)]
        for u in points:
            want = log_rho(u)
            assert abs(rho_numeric(u).log_rho - want) <= 1e-14 * abs(want), u

    def test_against_dilog_closed_form(self):
        # rho(u) = 1 - (1 - log(u-1)) log u + Li2(1-u) + pi^2/12 on [2, 3]
        rng = random.Random(23)
        for u in [2.0, 3.0] + [2.0 + rng.random() for _ in range(100)]:
            with mpmath.workdps(40):
                x = mpmath.mpf(u)
                want = mpmath.log(1 - (1 - mpmath.log(x - 1)) * mpmath.log(x)
                                  + mpmath.polylog(2, 1 - x) + mpmath.pi ** 2 / 12)
            assert abs(rho_numeric(u).log_rho - float(want)) <= 1e-15 * abs(float(want)), u


class TestRho:
    def test_flat_start(self):
        assert rho_numeric(0.5).rho == 1.0
        assert rho_numeric(0.0).rho == 1.0

    def test_analytic_interval(self):
        assert rho_numeric(2.0).rho == pytest.approx(1.0 - math.log(2.0), abs=1e-9)

    def test_against_trapezoid_oracle(self):
        assert rho_numeric(3.0).rho == pytest.approx(rho3_trapezoid_oracle(), abs=1e-7)

    def test_range_error(self):
        with pytest.raises(RangeError):
            rho_numeric(501.0)
        with pytest.raises(DomainError):
            rho_numeric(-1.0)

    def test_positive_and_nonincreasing(self):
        vals = [rho_numeric(float(u)).rho for u in np.linspace(1.0, 20.0, 96)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert all(vals[k + 1] <= vals[k] for k in range(len(vals) - 1))

    def test_continuity_at_left_ends(self):
        # c_0 comes from the integral form, so the series of [k, k+1] at t = 1
        # summing to rho(k)/rho(k) = 1 is a check the build never imposes
        table = dickman._RhoTable()
        table.log_rho(501.0)
        assert len(table.series) == 500
        for k, coefficients in enumerate(table.series, 1):
            assert abs(dickman._horner(coefficients, 1.0) - 1.0) <= 4 * math.ulp(1.0), k
            assert min(coefficients) > 0.0, k

    def test_builds_only_the_interval_it_reads(self):
        table = dickman._RhoTable()
        value = table.log_rho(2.5)
        assert len(table.series) == 2
        deep = dickman._RhoTable()
        deep.log_rho(6.0)  # u in (5, 6] reads [5, 6]
        assert len(deep.series) == 5
        assert deep.log_rho(2.5) == value

    def test_deep_range_survives(self):
        assert rho_numeric(500.0).log_rho < -3000.0


class TestDeBruijn:
    def test_integral_form_cross_method(self):
        # the integral convention agrees with the delay-equation evaluator in
        # absolute log terms; the truncated-series convention cannot (its log
        # error scales like u/(log u)^(n-1) and X(30) even sits outside the
        # convergence radius), so it is checked in relative Q units below
        for u in (30.0, 100.0):
            db = log_rho_debruijn(u, 6)
            dde = rho_numeric(u).log_rho
            assert abs(db.log_rho_integral - dde) < 0.5
        # the integral form's constant is a literal; numpy's value is the oracle
        assert dickman.EULER_GAMMA == float(np.euler_gamma)

    def test_series_form_vs_integral_in_q_units(self):
        u = math.exp(8.0)
        db = log_rho_debruijn(u, 6)
        scale = u * 8.0
        assert abs(db.log_rho_series - db.log_rho_integral) / scale < 2e-3

    def test_series_form_divergent_at_30(self):
        dde = rho_numeric(30.0).log_rho
        assert abs(log_rho_debruijn(30.0, 6).log_rho_series - dde) > 1.0

    @staticmethod
    def q_value(u, order):
        return -log_rho_debruijn(u, order).log_rho_series / (u * math.log(u))

    def test_convergence_at_e8(self):
        u = math.exp(8.0)
        q5 = self.q_value(u, 5)
        q6 = self.q_value(u, 6)
        assert abs(q5 - q6) / abs(q6) < 1e-3

    def test_spread_at_e4(self):
        u = math.exp(4.0)
        values = [self.q_value(u, n) for n in range(1, 7)]
        assert max(values) - min(values) > 1e-2

    def test_domain(self):
        with pytest.raises(DomainError):
            log_rho_debruijn(2.0, 4)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError, match="finite"):
            log_rho_debruijn(math.inf, 4)

    def test_both_forms_beyond_float_range_at_1e306(self):
        # -log rho(1e306) is about 7.1e308, past the largest float
        db = log_rho_debruijn(1e306, 3)
        assert db.log_rho_series == -math.inf
        assert db.log_rho_integral == -math.inf

    def test_never_nan_up_to_float_max(self):
        float_max = mpmath.mpf(sys.float_info.max)
        q3 = q_series(3).series
        for u in [math.e * (1 + 1e-12)] + [10.0 ** (k / 8) for k in range(4, 2465)] + [1.79e308]:
            db = log_rho_debruijn(u, 3)
            for value in (db.log_rho_series, db.log_rho_integral):
                assert not math.isnan(value) and value < math.inf, u
            # -inf only where the value is beyond float range
            with mpmath.workdps(30):
                e = mpmath.mpf(u)
                if db.log_rho_series == -math.inf:
                    assert e * mpmath.log(e) * q3.eval_f64(*xy_of(u)) > float_max, u
                if db.log_rho_integral == -math.inf:
                    s = mpmath.findroot(lambda s: s - mpmath.log(1 + s * e), s_numeric(u))
                    assert e * s - mpmath.ei(s) + mpmath.log(s) > float_max, u


class TestRadius:
    def test_constant_against_scipy_oracle(self):
        w_oracle = lambertw(-math.exp(-2.0), -1).real
        assert radius_constant() == pytest.approx(-1.0 / w_oracle, abs=1e-10)

    def test_lambert_residual(self):
        w = lambert_w_minus1_at_minus_exp_minus2()
        assert abs(w * math.exp(w) + math.exp(-2.0)) < 1e-12

    def test_thresholds(self):
        assert radius_threshold_check(176.0)
        assert not radius_threshold_check(150.0)
        x150, _ = xy_of(150.0)
        assert x150 == pytest.approx(0.3216, abs=2e-4)

    @pytest.mark.parametrize("evaluate, eta", [
        (xy_of, math.inf), (xy_of, math.nan), (radius_threshold_check, math.inf),
    ])
    def test_non_finite_rejected(self, evaluate, eta):
        with pytest.raises(DomainError, match="finite"):
            evaluate(eta)

    def test_leading_digits(self):
        assert f"{radius_constant():.4f}" == "0.3178"
