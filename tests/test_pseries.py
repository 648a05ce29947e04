import math
import random
from fractions import Fraction

import pytest

from nfsasym.exact import LogConstant
from nfsasym.pseries import (
    LOG_RING, SeriesError, SingularSeriesError, TruncatedBiSeries,
    delta, neumann_inverse_one_plus_delta,
)

from conftest import random_series

R = LOG_RING


def S(order, terms):
    return TruncatedBiSeries(R, order, {
        e: LogConstant.from_fraction(c) for e, c in terms.items()
    })


def one(order):
    return TruncatedBiSeries.one(R, order)


def X(order):
    return TruncatedBiSeries.x(R, order)


def Y(order):
    return TruncatedBiSeries.y(R, order)


class TestRingOps:
    def test_mul_example(self):
        assert (one(2) + X(2)) * (one(2) - X(2)) == S(2, {(0, 0): 1, (4, 0): -1})

    def test_add_cancels(self):
        a = one(5) + X(5)
        assert (a + (-a)).is_zero()

    def test_mul_identity(self):
        a = one(3) + X(3) + X(3) * Y(3)
        assert a * one(3) == a

    def test_order_is_min(self):
        assert (one(2) + X(5)).order == 2

    def test_equality_needs_equal_orders(self):
        assert S(2, {(0, 0): 1}) != S(3, {(0, 0): 1})

    def test_hash_agrees_with_eq(self):
        l2 = LogConstant.gen(2)
        f = TruncatedBiSeries(R, 1, {(0, 0): 1 + l2})
        g = TruncatedBiSeries(R, 1, {(0, 0): l2 + 1})
        assert f == g
        assert hash(f) == hash(g)
        assert len({f, g}) == 1


class TestInverse:
    def test_geometric(self):
        inv = (one(3) - X(3)).inverse()
        assert inv == S(3, {(0, 0): 1, (2, 0): 1, (4, 0): 1, (6, 0): 1})

    def test_constant(self):
        assert S(4, {(0, 0): 2}).inverse() == S(4, {(0, 0): Fraction(1, 2)})

    def test_hand_checked(self):
        # (1 + 2X + Y)^(-1) at order 2, verified by multiplying back by hand
        inv = S(2, {(0, 0): 1, (2, 0): 2, (0, 2): 1}).inverse()
        assert inv == S(2, {(0, 0): 1, (2, 0): -2, (0, 2): -1,
                            (4, 0): 4, (2, 2): 4, (0, 4): 1})

    def test_zero_constant_rejected(self):
        with pytest.raises(SingularSeriesError):
            X(3).inverse()

    def test_inverse_round_trip_200_random(self):
        rng = random.Random(42)
        count = 0
        while count < 200:
            a = random_series(rng, rng.randint(1, 4), invertible=True)
            prod = a * a.inverse()
            assert prod == one(a.order), a
            count += 1


class TestLogExp:
    def test_mercator(self):
        assert (one(3) + X(3)).log() == S(3, {(2, 0): 1, (4, 0): Fraction(-1, 2),
                                              (6, 0): Fraction(1, 3)})

    def test_log_of_rational_constant(self):
        got = S(2, {(0, 0): Fraction(8, 9)}).log()
        assert got.constant_term() == LogConstant.gen(2) * 3 - LogConstant.gen(3) * 2

    def test_exp_log_round_trip(self):
        a = one(4) + X(4) + Y(4)
        assert a.log().exp() == a

    def test_exp_needs_zero_constant(self):
        with pytest.raises(SeriesError):
            one(3).exp()

    def test_compose_needs_zero_constants(self):
        with pytest.raises(SeriesError):
            (one(2) + X(2)).compose(one(2), Y(2))

    def test_round_trips_200_random(self):
        # constant term 1 keeps the log inside the exponent-free part of the
        # field, which is where exp is defined
        rng = random.Random(9)
        for _ in range(200):
            order = rng.randint(1, 4)
            a = random_series(rng, order, rational_only=True)
            terms = dict(a.terms)
            terms[(0, 0)] = LOG_RING.one
            a = TruncatedBiSeries(R, order, terms)
            assert a.log().exp() == a
            b = random_series(rng, order, rational_only=True)
            bt = dict(b.terms)
            bt.pop((0, 0), None)
            b = TruncatedBiSeries(R, order, bt)
            assert b.exp().log() == b


class TestDelta:
    def test_generators(self):
        assert delta(X(3)) == S(3, {(0, 4): 1, (2, 2): -1})   # Y^2 - XY
        assert delta(Y(3)) == S(3, {(0, 4): -1})              # -Y^2
        assert delta(X(4) * Y(4)) == S(4, {(0, 6): 1, (2, 4): -2})  # Y^3 - 2XY^2

    def test_half_integer_rejected(self):
        s = TruncatedBiSeries(R, 2, {(1, 0): LOG_RING.one})
        with pytest.raises(SeriesError):
            delta(s)

    def test_derivation_law_200_random(self):
        rng = random.Random(17)
        for _ in range(200):
            u = random_series(rng, 6, integer_only=True)
            v = random_series(rng, 6, integer_only=True)
            assert delta(u * v) == u * delta(v) + delta(u) * v

    def test_image_divisible_by_y(self):
        rng = random.Random(19)
        for _ in range(100):
            t = random_series(rng, 5, integer_only=True)
            assert all(dy >= 2 for _, dy in delta(t).terms)


class TestNeumann:
    def test_one(self):
        assert neumann_inverse_one_plus_delta(one(4)) == one(4)

    def test_hand_iterated(self):
        got = neumann_inverse_one_plus_delta(Y(3))
        assert got == S(3, {(0, 2): 1, (0, 4): 1, (0, 6): 2})  # Y + Y^2 + 2Y^3

    def test_defining_identity_200_random(self):
        rng = random.Random(29)
        for _ in range(200):
            t = random_series(rng, 6, integer_only=True)
            r = neumann_inverse_one_plus_delta(t)
            assert r + delta(r) == t


class TestNumericalDerivativeIdentity:
    def test_delta_matches_eta_derivative(self):
        # centered finite difference of eta -> T(X(eta), Y(eta)) against
        # (1/eta) * (Delta T)(X(eta), Y(eta))
        rng = random.Random(31)
        cases = 0
        while cases < 200:
            t = random_series(rng, 4, integer_only=True, rational_only=True)
            dt = delta(t.with_order(6))
            for e in (4.0, 6.0, 8.0):
                eta = math.exp(e)
                h = eta * 1e-5

                def val(z):
                    lz = math.log(z)
                    return t.eval_f64(math.log(lz) / lz, 1.0 / lz)

                fd = (val(eta + h) - val(eta - h)) / (2.0 * h)
                exact = dt.eval_f64(math.log(e) / e, 1.0 / e) / eta
                if abs(exact) < 1e-18:
                    assert abs(fd) < 1e-12
                else:
                    assert abs(fd - exact) <= 1e-6 * abs(exact), (t, e, fd, exact)
            cases += 1


class TestEvalAndRendering:
    def test_eval_example(self):
        s = one(1) + X(1) - Y(1)
        assert s.eval_f64(0.1, 0.05) == pytest.approx(1.05, abs=1e-15)

    def test_eval_zero(self):
        assert TruncatedBiSeries.zero(R, 3).eval_f64(0.3, 0.9) == 0.0

    def test_rendering(self):
        a01 = LogConstant.gen(2) * (-2) + LogConstant.gen(3) * Fraction(1, 6) - 2
        s = TruncatedBiSeries(R, 2, {
            (0, 0): LOG_RING.one,
            (2, 0): LogConstant.from_fraction(Fraction(4, 3)),
            (0, 2): a01,
        })
        assert s.to_string() == "1 + (4/3)*X + (-2*l2 + (1/6)*l3 - 2)*Y"

    def test_half_exponent_rendering(self):
        s = TruncatedBiSeries(R, 2, {(1, 3): LOG_RING.one})
        assert s.to_string() == "X^(1/2)*Y^(3/2)"

    def test_graded_lex_order(self):
        s = S(2, {(0, 2): 1, (2, 0): 1, (4, 0): 1, (2, 2): 1, (0, 4): 1})
        assert s.to_string() == "X + Y + X^2 + X*Y + Y^2"
