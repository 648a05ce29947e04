import math
import random
from fractions import Fraction

import mpmath
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from nfsasym.exact import (
    ExactError, LogConstant, NearZeroWarning, RadicalScale,
    factor_positive_rational, log_of_rational, scale_log, scale_ratio_as_rational,
)

from conftest import L2, L3, random_logconstant, random_rational


def random_smooth_rational(rng: random.Random) -> Fraction:
    """A random 2*3-smooth positive rational, 2**a * 3**b."""
    return Fraction(2) ** rng.randint(-8, 8) * Fraction(3) ** rng.randint(-6, 6)


class TestLogOfRational:
    def test_eight_ninths(self):
        assert log_of_rational(Fraction(8, 9)) == L2 * 3 - L3 * 2

    def test_one(self):
        assert log_of_rational(1) == LogConstant.zero()

    def test_new_generator_flagged(self):
        # log 5 is outside Q[l2, l3]: every way in raises
        with pytest.raises(ExactError):
            log_of_rational(Fraction(5, 3))
        with pytest.raises(ExactError):
            LogConstant.gen(5)
        with pytest.raises(ExactError):
            LogConstant.parse("(1)*l5 + (-1)*l3")

    def test_nonpositive_rejected(self):
        with pytest.raises(ExactError):
            log_of_rational(0)
        with pytest.raises(ExactError):
            log_of_rational(Fraction(-2, 3))

    def test_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(200):
            p, q = random_smooth_rational(rng), random_smooth_rational(rng)
            assert log_of_rational(p * q) == log_of_rational(p) + log_of_rational(q)
            with pytest.raises(ExactError):
                log_of_rational(p * rng.choice((5, 7, Fraction(1, 11))))


class TestScales:
    def test_scale_log_examples(self):
        s = RadicalScale.from_pow(3, Fraction(1, 3)) * RadicalScale(Fraction(1, 2))
        assert scale_log(s) == L3 * Fraction(1, 3) - L2
        s = RadicalScale.from_pow(Fraction(8, 9), Fraction(1, 3))
        assert scale_log(s) == L2 - L3 * Fraction(2, 3)
        assert scale_log(RadicalScale.one()) == LogConstant.zero()

    def test_ratio_examples(self):
        s1 = RadicalScale.from_pow(Fraction(8, 9), Fraction(1, 3))
        s2 = RadicalScale.from_pow(3, Fraction(1, 3)) * RadicalScale(Fraction(1, 6))
        assert scale_ratio_as_rational(s1, s2) == 4
        s3 = RadicalScale.from_pow(3, Fraction(1, 3))
        assert scale_ratio_as_rational(s3, s3) == 1
        assert scale_ratio_as_rational(RadicalScale.from_pow(2, Fraction(1, 2)),
                                       RadicalScale.one()) is None

    def test_ratio_of_random_scale_with_itself(self):
        rng = random.Random(3)
        for _ in range(50):
            s = RadicalScale(
                Fraction(rng.randint(1, 30), rng.randint(1, 30)),
                {2: Fraction(rng.randint(-4, 4), 3), 3: Fraction(rng.randint(-4, 4), 2)},
            )
            assert scale_ratio_as_rational(s, s) == 1

    def test_canonical_fold(self):
        s = RadicalScale(1, {3: Fraction(4, 3)})
        assert s.coeff == 3 and s.exps == {3: Fraction(1, 3)}
        s = RadicalScale(2, {3: Fraction(-2, 3)})
        assert s.coeff == Fraction(2, 3) and s.exps == {3: Fraction(1, 3)}

    def test_string_round_trip(self):
        s = RadicalScale.from_pow(3, Fraction(1, 3)) * RadicalScale(Fraction(1, 2))
        assert s.to_string() == "q=1/2;3^1/3"
        assert RadicalScale.parse(s.to_string()) == s

    def test_eval(self):
        s = RadicalScale.from_pow(Fraction(8, 9), Fraction(1, 3))
        assert abs(s.eval_f64() - (8 / 9) ** (1 / 3)) < 1e-15

    def test_positive_required(self):
        with pytest.raises(ExactError):
            RadicalScale(0)
        with pytest.raises(ExactError):
            RadicalScale(-1)


class TestEvalF64:
    def test_examples(self):
        assert abs(L2.eval_f64() - 0.6931471805599453) < 1e-15
        assert abs((L2 * 3 - L3 * 2).eval_f64() - math.log(8 / 9)) < 1e-15
        a01 = L2 * (-2) + L3 * Fraction(1, 6) - 2
        assert abs(a01.eval_f64() - (-3.203192)) < 1e-6

    def test_agrees_with_float_log(self):
        rng = random.Random(11)
        for _ in range(100):
            q = random_smooth_rational(rng)
            got = log_of_rational(q).eval_f64()
            if got == 0.0 and q == 1:
                continue
            assert abs(got - math.log(q)) <= 1e-12 * max(abs(math.log(q)), 1.0)
            with pytest.raises(ExactError):
                log_of_rational(q * 5)

    def test_equal_values_give_equal_floats(self):
        # the float does not depend on the order the monomial map was built in
        rng = random.Random(17)
        for _ in range(50):
            c = random_logconstant(rng) * random_logconstant(rng) * random_logconstant(rng)
            items = list(c.terms.items())
            rng.shuffle(items)
            assert LogConstant(dict(items)).eval_f64() == c.eval_f64()

    def test_near_zero_warning(self):
        tiny = LogConstant.from_fraction(Fraction(1, 10 ** 13))
        with pytest.warns(NearZeroWarning):
            tiny.eval_f64()

    def test_near_zero_denominator_rejected(self):
        # l2 - c with c a 16-digit rational approximation of log 2 is not a
        # unit, so the quotient is refused before anything is evaluated
        c = Fraction(6931471805599453, 10 ** 16)
        with pytest.raises(ExactError):
            LogConstant.one() / (L2 - c)


class TestEnclose:
    def test_brackets_the_value(self):
        rng = random.Random(5)
        with mpmath.workprec(400):
            l2, l3 = mpmath.log(2), mpmath.log(3)
            for bits in (8, 64, 300):
                for _ in range(40):
                    value = random_logconstant(rng) * random_logconstant(rng)
                    lo, hi = value.enclose(bits)
                    exact = sum(mpmath.mpf(c.numerator) / c.denominator * l2 ** i * l3 ** j
                                for (i, j), c in value.terms.items())
                    assert mpmath.mpf(lo.numerator) / lo.denominator <= exact
                    assert exact <= mpmath.mpf(hi.numerator) / hi.denominator


class TestFieldAxioms:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_ring_axioms(self, seed):
        rng = random.Random(seed)
        a = random_logconstant(rng)
        b = random_logconstant(rng)
        c = random_logconstant(rng)
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 2 ** 32 - 1))
    def test_multiplicative_inverse(self, seed):
        # the units of Q[l2, l3] are the nonzero rationals
        rng = random.Random(seed)
        a = random_logconstant(rng, allow_zero=False)
        unit = LogConstant.from_fraction(random_rational(rng) or 1)
        assert unit * unit.inverse() == LogConstant.one()
        assert (a / unit) * unit == a
        assert unit ** -2 * unit * unit == LogConstant.one()
        if not a.is_rational():
            with pytest.raises(ExactError):
                a.inverse()

    def test_non_unit_division_rejected(self):
        a = L2 + 1
        b = L3 * Fraction(1, 2) - L2
        for op in (lambda: a / b, lambda: 1 / b, lambda: b ** -1, b.inverse):
            with pytest.raises(ExactError):
                op()
        with pytest.raises(ZeroDivisionError):
            a / 0


class TestHashAgreesWithEq:
    def test_random_common_factors(self):
        # a common factor multiplied out or left in place: one value, built
        # with its terms in different orders
        rng = random.Random(31)
        for _ in range(300):
            x = random_logconstant(rng)
            h = random_logconstant(rng, allow_zero=False)
            g = random_logconstant(rng)
            a, b = x * h + g * h, h * (g + x)
            assert a == b
            assert a.to_string() == b.to_string()
            assert hash(a) == hash(b)

    def test_rational_value_hashes_as_fraction(self):
        v = (L2 * 3 + 3) - L2 * 3
        assert v == Fraction(3)
        assert hash(v) == hash(Fraction(3))
        assert hash(LogConstant.zero()) == hash(0)


def assert_canonical(value: LogConstant) -> None:
    """The stored form: a positive denominator coprime to the numerators
    taken together, and no zero numerator."""
    assert value.den > 0
    assert math.gcd(value.den, *value.num.values()) == 1
    assert all(value.num.values())


def random_wide_logconstant(rng: random.Random) -> LogConstant:
    """A random value, half the time times a rational of 40-bit numerator
    and denominator, so denominators meet with common factors and without."""
    value = random_logconstant(rng)
    if rng.random() < 0.5:
        value = value * Fraction(rng.getrandbits(40) + 1, rng.getrandbits(40) + 1)
    return value


class TestCanonicalForm:
    def test_every_operation_returns_the_canonical_form(self):
        rng = random.Random(20261020)
        for _ in range(400):
            a, b = random_wide_logconstant(rng), random_wide_logconstant(rng)
            q = random_rational(rng, span=30) * Fraction(rng.getrandbits(30) + 1, rng.getrandbits(30) + 1)
            unit = LogConstant.from_fraction(q or 1)
            results = [a + b, a - b, b - a, a * b, a * q, q * a, a + q, -a,
                       unit.inverse(), a / unit, (-unit) ** -3, a + (-a),
                       LogConstant.parse(a.to_string()), LogConstant(a.terms),
                       LogConstant({m: c * q for m, c in a.terms.items()})]
            for value in results:
                assert_canonical(value)
            assert LogConstant(a.terms) == a
            assert (a + (-a)).den == 1

    def test_constructor_reduces_and_drops_zeros(self):
        value = LogConstant({(1, 0): Fraction(2, 4), (0, 1): 0, (0, 0): 3, (2, 0): Fraction(-5, 6)})
        assert (value.den, value.num) == (6, {(1, 0): 3, (0, 0): 18, (2, 0): -5})
        assert value.terms == {(1, 0): Fraction(1, 2), (0, 0): 3, (2, 0): Fraction(-5, 6)}
        assert LogConstant({(1, 1): Fraction(7, 3), (0, 0): Fraction(14, 3)}).num == {(1, 1): 7, (0, 0): 14}
        zero = LogConstant({(1, 0): Fraction(0, 7)})
        assert (zero.den, zero.num) == (1, {}) and zero == LogConstant.zero()

    def test_equal_values_built_apart_are_equal(self):
        rng = random.Random(4041)
        for _ in range(300):
            a, b, c = (random_wide_logconstant(rng) for _ in range(3))
            x, y = (a + b) * c, c * b + a * c
            assert (x.den, x.num) == (y.den, y.num)
            assert x == y and hash(x) == hash(y)
            assert_canonical(x)
            z = (x * Fraction(13, 7) - a) * Fraction(7, 13) + a * Fraction(7, 13)
            assert z == x and hash(z) == hash(x)

    def test_rational_hashes_as_its_fraction(self):
        rng = random.Random(9)
        for _ in range(200):
            q = Fraction(rng.randint(-2 ** 70, 2 ** 70), rng.getrandbits(70) + 1)
            assert hash(LogConstant.from_fraction(q)) == hash(q)
            assert LogConstant.from_fraction(q) == q
            assert hash(LogConstant.from_fraction(q.numerator)) == hash(q.numerator)
        assert hash(L2 * 0 + Fraction(6, 4)) == hash(Fraction(3, 2))


class TestSerialization:
    def test_canonical_string(self):
        a01 = L2 * (-2) + L3 * Fraction(1, 6) - 2
        assert a01.to_string() == "(-2)*l2 + (1/6)*l3 + (-2)"

    def test_compact_string(self):
        assert (L2 * (-2) + L3 * Fraction(1, 6) - 2).to_compact_string() == "-2*l2 + (1/6)*l3 - 2"
        assert (L2 * L3 - Fraction(1, 2)).to_compact_string() == "l2*l3 - 1/2"
        assert LogConstant.from_fraction(Fraction(-4, 9)).to_compact_string() == "-4/9"

    def test_display_order(self):
        # by degree, then ascending in the power of l2 with the pure l3 power
        # last, the constant at the end
        v = L3 ** 3 + L2 ** 3 + L2 * L2 * L3 + L2 * L3 * L3 + L3 * L3 + L2 * L2 + L2 * L3 + L3 + L2 + 1
        assert v.to_compact_string() == (
            "l2*l3^2 + l2^2*l3 + l2^3 + l3^3 + l2*l3 + l2^2 + l3^2 + l2 + l3 + 1")

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(60):
            value = random_logconstant(rng)
            assert LogConstant.parse(value.to_string()) == value

    def test_zero_denominator_rejected(self):
        with pytest.raises(ExactError):
            LogConstant.parse("(1/0)*l2 + (1)")

    def test_fraction_string(self):
        # a quotient rendering is outside Q[l2, l3]
        with pytest.raises(ExactError):
            LogConstant.parse("((1)*l2 + (1)) / ((1)*l3 + (-1))")


def test_factorization():
    assert factor_positive_rational(Fraction(8, 9)) == {2: 3, 3: -2}
    assert factor_positive_rational(1) == {}
    assert factor_positive_rational(Fraction(50, 21)) == {2: 1, 5: 2, 3: -1, 7: -1}


class TestSympyOracle:
    """Ring operations of Q[l2, l3] against sympy's polynomials over QQ."""

    l2, l3 = sympy.symbols("l2 l3")

    def random_pair(self, rng: random.Random) -> tuple[LogConstant, sympy.Poly]:
        # the same random polynomial of degree <= 4, built independently
        value, poly = LogConstant.zero(), sympy.Poly(0, self.l2, self.l3, domain=sympy.QQ)
        for i in range(5):
            for j in range(5 - i):
                if rng.random() < 0.4:
                    c = random_rational(rng, span=40)
                    value = value + L2 ** i * L3 ** j * c
                    poly += sympy.Poly(sympy.Rational(c.numerator, c.denominator)
                                       * self.l2 ** i * self.l3 ** j,
                                       self.l2, self.l3, domain=sympy.QQ)
        return value, poly

    def to_sympy(self, value: LogConstant) -> sympy.Poly:
        return sympy.Poly.from_dict(
            {m: sympy.Rational(int(c.numerator), int(c.denominator))
             for m, c in value.terms.items()},
            self.l2, self.l3, domain=sympy.QQ)

    def test_add_sub_mul(self):
        rng = random.Random(20261019)
        for _ in range(150):
            (a, pa), (b, pb) = self.random_pair(rng), self.random_pair(rng)
            assert self.to_sympy(a) == pa and self.to_sympy(b) == pb
            assert self.to_sympy(a + b) == pa + pb
            assert self.to_sympy(a - b) == pa - pb
            assert self.to_sympy(a * b) == pa * pb
            assert all(c != 0 for c in (a * b).terms.values())

    def test_canonical_rendering_and_hash(self):
        rng = random.Random(77)
        for _ in range(150):
            (a, pa), (b, pb), (c, pc) = (self.random_pair(rng) for _ in range(3))
            x, y = (a + b) * c, c * b + a * c
            assert (pa + pb) * pc == pc * pb + pa * pc
            assert x == y
            assert x.to_string() == y.to_string()
            assert hash(x) == hash(y)
            assert LogConstant.parse(x.to_string()) == x
            assert (x == a) == (self.to_sympy(x) == pa)

    def test_non_rational_divisor_raises(self):
        rng = random.Random(3)
        for _ in range(100):
            (a, _), (b, pb) = self.random_pair(rng), self.random_pair(rng)
            if pb.is_ground:
                continue
            with pytest.raises(ExactError):
                a / b
