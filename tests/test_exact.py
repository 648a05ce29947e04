import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nfsasym.exact import (
    EvalError, ExactError, LogConstant, NearZeroWarning, RadicalScale,
    factor_positive_rational, generators_seen, log_of_rational,
    restore_generator_registry, scale_log,
    scale_ratio_as_rational, snapshot_generator_registry,
    unexpected_generator_events,
)

from conftest import L2, L3, random_logconstant


@pytest.fixture(autouse=True)
def _registry_guard():
    # several tests here introduce generators beyond l2, l3 on purpose;
    # keep that from leaking into the rest of the suite
    snapshot = snapshot_generator_registry()
    yield
    restore_generator_registry(snapshot)


class TestLogOfRational:
    def test_eight_ninths(self):
        assert log_of_rational(Fraction(8, 9)) == L2 * 3 - L3 * 2

    def test_one(self):
        assert log_of_rational(1) == LogConstant.zero()

    def test_new_generator_flagged(self):
        value = log_of_rational(Fraction(5, 3))
        assert value == LogConstant.gen(5) - L3
        assert 5 in generators_seen()
        assert 5 in unexpected_generator_events()

    def test_nonpositive_rejected(self):
        with pytest.raises(ExactError):
            log_of_rational(0)
        with pytest.raises(ExactError):
            log_of_rational(Fraction(-2, 3))

    def test_multiplicativity(self):
        rng = random.Random(7)
        for _ in range(200):
            p = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            q = Fraction(rng.randint(1, 60), rng.randint(1, 60))
            assert log_of_rational(p * q) == log_of_rational(p) + log_of_rational(q)


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
            q = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            got = log_of_rational(q).eval_f64()
            if got == 0.0 and q == 1:
                continue
            assert abs(got - math.log(q)) <= 1e-12 * max(abs(math.log(q)), 1.0)

    def test_near_zero_warning(self):
        tiny = LogConstant.from_fraction(Fraction(1, 10 ** 13))
        with pytest.warns(NearZeroWarning):
            tiny.eval_f64()

    def test_near_zero_denominator_rejected(self):
        # denominator l2 - c with c a 16-digit rational approximation of
        # log 2 evaluates below the guard band
        c = Fraction(6931471805599453, 10 ** 16)
        v = LogConstant.one() / (L2 - c)
        with pytest.raises(EvalError):
            v.eval_f64()


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
        rng = random.Random(seed)
        a = random_logconstant(rng, allow_zero=False)
        assert a * a.inverse() == LogConstant.one()
        assert a / a == LogConstant.one()

    def test_fraction_field_division(self):
        a = L2 + 1
        b = L3 * Fraction(1, 2) - L2
        q = a / b
        assert q * b == a


class TestHashAgreesWithEq:
    def test_exact_quotient_found(self):
        # l2^2 + l2*l3 = l2*(l2 + l3), so the value reduces to l2 itself
        v = (L2 * L2 + L2 * L3) / (L2 + L3)
        assert v.to_string() == L2.to_string()
        assert hash(v) == hash(L2)

    def test_common_factor_left_in_place(self):
        a = (L2 + 1) / (L2 + 2)
        b = ((L2 + 1) * (L3 + 1)) / ((L3 + 1) * (L2 + 2))
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_random_common_factors(self):
        rng = random.Random(31)
        for _ in range(300):
            x = random_logconstant(rng)
            h = random_logconstant(rng, allow_zero=False)
            g = random_logconstant(rng, allow_zero=False)
            a, b = x / h, (x * g) / (h * g)
            assert a == b
            assert hash(a) == hash(b)

    def test_rational_value_hashes_as_fraction(self):
        v = (L2 * 3 + 3) / (L2 + 1)
        assert v == Fraction(3)
        assert hash(v) == hash(Fraction(3))


class TestSerialization:
    def test_canonical_string(self):
        a01 = L2 * (-2) + L3 * Fraction(1, 6) - 2
        assert a01.to_string() == "(-2)*l2 + (1/6)*l3 + (-2)"

    def test_compact_string(self):
        assert (L2 * (-2) + L3 * Fraction(1, 6) - 2).to_compact_string() == "-2*l2 + (1/6)*l3 - 2"
        assert (L2 * L3 - Fraction(1, 2)).to_compact_string() == "l2*l3 - 1/2"
        assert LogConstant.from_fraction(Fraction(-4, 9)).to_compact_string() == "-4/9"
        v = (L2 + 1) / (L3 - 1)
        assert v.to_compact_string() == v.to_string()

    def test_round_trip(self):
        rng = random.Random(23)
        for _ in range(60):
            value = random_logconstant(rng)
            assert LogConstant.parse(value.to_string()) == value

    def test_fraction_string(self):
        v = (L2 + 1) / (L3 - 1)
        assert LogConstant.parse(v.to_string()) == v


def test_factorization():
    assert factor_positive_rational(Fraction(8, 9)) == {2: 3, 3: -2}
    assert factor_positive_rational(1) == {}
    assert factor_positive_rational(Fraction(50, 21)) == {2: 1, 5: 2, 3: -1, 7: -1}
