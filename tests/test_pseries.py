import math
import random
from fractions import Fraction

import pytest

from nfsasym.exact import LogConstant
from nfsasym.nfsopt import Jet, UnknownPoly, UnknownShapeError
from nfsasym.pseries import SeriesError, SingularSeriesError, TruncatedBiSeries

from conftest import (
    L2, L3, delta, neumann_inverse_one_plus_delta, random_logconstant, random_series,
)


def S(order, terms):
    return TruncatedBiSeries(order, {
        e: LogConstant.from_fraction(c) for e, c in terms.items()
    })


def one(order):
    return TruncatedBiSeries.one(order)


def X(order):
    return TruncatedBiSeries.x(order)


def Y(order):
    return TruncatedBiSeries.y(order)


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

    def test_truncate_never_raises_the_order(self):
        s = one(1) + X(1)
        assert s.truncate(1) == s
        assert s.truncate(0) == one(0)
        with pytest.raises(SeriesError):
            s.truncate(3)

    def test_hash_agrees_with_eq(self):
        l2 = LogConstant.gen(2)
        f = TruncatedBiSeries(1, {(0, 0): 1 + l2})
        g = TruncatedBiSeries(1, {(0, 0): l2 + 1})
        assert f == g
        assert hash(f) == hash(g)
        assert len({f, g}) == 1


def reference_product(p, q):
    """The series product as a double loop over term pairs in the
    coefficients' own arithmetic: the oracle for the packed product."""
    order2 = min(p.order2, q.order2)
    bounds = [y for y in (p.ymax2, q.ymax2) if y is not None]
    ymax2 = min(bounds) if bounds else None
    a, b = p.terms, q.terms
    if ymax2 is not None:
        a = {e: c for e, c in a.items() if e[1] <= ymax2}
        b = {e: c for e, c in b.items() if e[1] <= ymax2}
    terms = {}
    for (ax, ay), ac in a.items():
        for (bx, by), bc in b.items():
            if ax + ay + bx + by > order2:
                continue
            e = (ax + bx, ay + by)
            s = terms.get(e)
            s = ac * bc if s is None else s + ac * bc
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
    return TruncatedBiSeries._make(order2, terms, ymax2)


def series_exp(s):
    """exp of a series with zero constant term, as the finite sum of s^k/k!:
    the inverse of the series log in the round-trip tests."""
    if s.constant_term():
        raise SeriesError("exp requires a zero constant term")
    acc = power = s._one_like()
    k = 0
    while True:
        k += 1
        power = (power * s).scale(Fraction(1, k))
        if power.is_zero():
            return acc
        acc = acc + power


SYMBOLS = [("a", 2, 0), ("b", 1, 0), ("d", 1, 1)]


def random_coefficient(rng, unknown_degree, big=False):
    """A LogConstant, or an UnknownPoly of unknown degree <= unknown_degree;
    big numerators (of both signs) and denominators when `big`."""
    def constant():
        c = random_logconstant(rng)
        if rng.random() < 0.3:
            c = c + L2 * L3 * L3 * Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if big:
            c = c * Fraction(rng.choice((-1, 1)) * rng.getrandbits(90), rng.getrandbits(70) | 1)
        return c

    if unknown_degree == 0 or rng.random() < 0.3:
        return constant()
    monos = [()] + [(s,) for s in SYMBOLS]
    if unknown_degree == 2:
        monos += [tuple(sorted((s, t))) for s in SYMBOLS for t in SYMBOLS]
    return UnknownPoly({m: constant() for m in rng.sample(monos, rng.randint(1, 3))})


def random_operand(rng, order2, unknown_degree=0, big=False):
    terms = {}
    for dx in range(order2 + 1):
        for dy in range(order2 + 1 - dx):
            if rng.random() < 0.35:
                terms[(dx, dy)] = random_coefficient(rng, unknown_degree, big)
    series = TruncatedBiSeries._make(order2, terms)
    if rng.random() < 0.25:
        series = series.y_bounded(Fraction(rng.randint(0, order2), 2))
    return series


def assert_same_product(p, q):
    got, want = p * q, reference_product(p, q)
    assert (got.order2, got.ymax2) == (want.order2, want.ymax2)
    assert got == want
    for e, c in want.terms.items():
        assert type(got.terms[e]) is type(c)
    assert q * p == want


class TestPackedProduct:
    """The Kronecker-packed product against the double-loop reference."""

    def test_random_mixed_operands(self):
        # half-integer exponents, Y bounds, LogConstant and UnknownPoly
        # coefficients; a pair of unknown degree 3 must raise in both
        rng = random.Random(2009)
        raised = 0
        for _ in range(300):
            p = random_operand(rng, rng.randint(0, 8), rng.choice((0, 1, 2)), big=rng.random() < 0.2)
            q = random_operand(rng, rng.randint(0, 8), rng.choice((0, 1)), big=rng.random() < 0.2)
            try:
                reference_product(p, q)
            except UnknownShapeError:
                raised += 1
                with pytest.raises(UnknownShapeError):
                    p * q
                continue
            assert_same_product(p, q)
        assert 0 < raised < 150

    def test_jet_operands(self):
        # Jet coefficients, alone and beside LogConstant ones: the packed
        # product keeps what the jets' own product keeps, the parts of order
        # <= 2 in the perturbations, and drops the third-order ones
        rng = random.Random(1981)
        parts = [()] + [(k,) for k in "abd"] + [(k, m) for k in "abd" for m in "abd" if k <= m]

        def operand(order2):
            terms = {}
            for dx in range(order2 + 1):
                for dy in range(order2 + 1 - dx):
                    if rng.random() < 0.4:
                        terms[(dx, dy)] = (
                            Jet({m: random_logconstant(rng) for m in rng.sample(parts, rng.randint(1, 7))})
                            if rng.random() < 0.7 else random_logconstant(rng))
            return TruncatedBiSeries._make(order2, terms)

        for _ in range(60):
            assert_same_product(operand(rng.randint(0, 6)), operand(rng.randint(0, 6)))
        s, t = Jet({("a",): LogConstant.one()}), Jet({("a", "b"): LogConstant.one()})
        assert str(s + t * 2 - 1) == "((-1)) + ((1))*ea + ((2))*ea*eb"
        assert not s * t
        p = TruncatedBiSeries(2, {(2, 0): s})
        assert p * TruncatedBiSeries(2, {(0, 0): LogConstant.one(), (2, 0): t}) == p

    def test_empty_operands(self):
        rng = random.Random(5)
        p = random_operand(rng, 6, 1)
        for zero in (TruncatedBiSeries.zero(4), TruncatedBiSeries.zero(Fraction(9, 2)).y_bounded(1)):
            assert_same_product(p, zero)
            assert (p * zero).is_zero()
        assert_same_product(TruncatedBiSeries.zero(3), TruncatedBiSeries.zero(2))

    def test_exact_cancellation_drops_the_term(self):
        x = TruncatedBiSeries.x(3)
        p = one(3).scale(L2) + x.scale(L2)
        q = one(3).scale(L3) - x.scale(L3)
        assert (2, 0) not in (p * q).terms
        assert_same_product(p, q)
        s = UnknownPoly.from_symbol(SYMBOLS[0])
        p = TruncatedBiSeries(3, {(0, 0): s, (2, 0): s})
        assert (2, 0) not in (p * (one(3) - x)).terms
        assert_same_product(p, one(3) - x)

    def test_slot_bound_is_reached(self):
        # sum_k M X^k times -(sum_k M X^k): the X^(n-1) coefficient is -n M^2,
        # n = min(N_a, N_b) products of the largest numerators in one slot
        for bits, n in ((1, 1), (61, 7), (200, 15), (64, 16)):
            m = (1 << bits) - 1
            for lmono in (LogConstant.one(), L2 * L3 * L3):
                p = TruncatedBiSeries(n, {(2 * k, 0): lmono * m for k in range(n)})
                q = TruncatedBiSeries(n, {(2 * k, 0): lmono * (-m) for k in range(n)})
                prod = p * q
                assert prod.terms[(2 * n - 2, 0)] == lmono * lmono * (-n * m * m)
                assert_same_product(p, q)
                assert_same_product(p, p)

    def test_cancelling_denominators_come_back_reduced(self):
        # (p/q) l2 times (q/p) l3 with large coprime p, q: each operand's
        # denominator is p*q, the product's content cancels, and every
        # product coefficient is stored over its reduced denominator
        rng = random.Random(1882)
        s, t = (UnknownPoly.from_symbol(sym) for sym in SYMBOLS[:2])
        for _ in range(40):
            p, q = rng.getrandbits(61) | 1, rng.getrandbits(59) | 1
            if math.gcd(p, q) != 1:
                continue
            a, b = L2 * Fraction(p, q), L3 * Fraction(q, p)
            left = TruncatedBiSeries(3, {(0, 0): a, (2, 0): s * b + a, (1, 2): L3 * Fraction(q, p)})
            right = TruncatedBiSeries(3, {(0, 0): b, (0, 2): t * a - b, (2, 0): L2 * Fraction(p, q)})
            assert_same_product(left, right)
            prod = left * right
            assert prod.terms[(0, 0)] == L2 * L3
            assert prod.terms[(0, 0)].den == 1
            for c in prod.terms.values():
                for lc in ((c,) if isinstance(c, LogConstant) else c.terms.values()):
                    assert lc.den > 0 and all(lc.num.values())
                    assert math.gcd(lc.den, *lc.num.values()) == 1

    def test_cubic_unknown_product_raises(self):
        s, t = (UnknownPoly.from_symbol(sym) for sym in SYMBOLS[:2])
        square = TruncatedBiSeries(2, {(0, 0): LogConstant.one(), (2, 0): s * t})
        linear = TruncatedBiSeries(2, {(0, 2): s})
        with pytest.raises(UnknownShapeError):
            square * linear
        # a cubic pair beyond the order is never formed
        assert_same_product(square, TruncatedBiSeries(1, {(0, 0): LogConstant.one(), (0, 2): s}))


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
        assert series_exp(a.log()) == a

    def test_exp_needs_zero_constant(self):
        with pytest.raises(SeriesError):
            series_exp(one(3))

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
            terms[(0, 0)] = LogConstant.one()
            a = TruncatedBiSeries(order, terms)
            assert series_exp(a.log()) == a
            b = random_series(rng, order, rational_only=True)
            bt = dict(b.terms)
            bt.pop((0, 0), None)
            b = TruncatedBiSeries(order, bt)
            assert series_exp(b).log() == b


class TestYBound:
    """Bound 0 drops every Y-carrying term.  Those terms form an ideal, so an
    operation on bounded operands must give the unbounded result with its
    Y-carrying terms dropped."""

    @staticmethod
    def cases(seed, count=60, **kwargs):
        rng = random.Random(seed)
        for _ in range(count):
            order = rng.randint(1, 4)
            yield rng, order, random_series(rng, order, integer_only=True, **kwargs)

    def test_ring_ops(self):
        for rng, order, u in self.cases(71):
            v = random_series(rng, order, integer_only=True)
            c = random_logconstant(rng)
            ub, vb = u.y_bounded(0), v.y_bounded(0)
            assert ub * vb == (u * v).y_bounded(0)
            assert ub * v == (u * v).y_bounded(0)  # the tighter bound wins
            assert ub + vb == (u + v).y_bounded(0)
            assert v + ub == (u + v).y_bounded(0)
            assert -ub == (-u).y_bounded(0)
            assert v - ub == (v - u).y_bounded(0)
            assert ub.scale(c) == u.scale(c).y_bounded(0)

    def test_inverse(self):
        for _, _, u in self.cases(73, invertible=True):
            assert u.y_bounded(0).inverse() == u.inverse().y_bounded(0)

    def test_log(self):
        for rng, order, u in self.cases(79):
            terms = dict(u.terms)
            smooth = (1, 2, 3, 4, 6, 8, 9)  # the log of the constant term is in Q[l2, l3]
            terms[(0, 0)] = LogConstant.from_fraction(Fraction(rng.choice(smooth), rng.choice(smooth)))
            u = TruncatedBiSeries(order, terms)
            assert u.y_bounded(0).log() == u.log().y_bounded(0)

    def test_compose(self):
        for rng, order, f in self.cases(83, count=30):
            xs, ys = (random_series(rng, order, integer_only=True) for _ in range(2))
            xs, ys = (TruncatedBiSeries(order, {e: c for e, c in s.terms.items() if e != (0, 0)})
                      for s in (xs, ys))
            want = f.compose(xs, ys).y_bounded(0)
            assert f.compose(xs.y_bounded(0), ys.y_bounded(0)) == want
            assert f.compose(xs, ys.y_bounded(0)) == want

    def test_shift_into_y_is_zero(self):
        for _, order, u in self.cases(89, count=20):
            assert u.y_bounded(0).shift(0, 1) == TruncatedBiSeries.zero(order + 1).y_bounded(0)

    def test_bound_is_part_of_the_value(self):
        assert one(2).y_bounded(0) != one(2)
        assert (one(2) + Y(2)).y_bounded(0) == one(2).y_bounded(0)

    def test_bounded_compose_refused(self):
        with pytest.raises(SeriesError):
            (one(2) + Y(2)).y_bounded(0).compose(X(2), Y(2))


class TestDelta:
    def test_generators(self):
        assert delta(X(3)) == S(3, {(0, 4): 1, (2, 2): -1})   # Y^2 - XY
        assert delta(Y(3)) == S(3, {(0, 4): -1})              # -Y^2
        assert delta(X(4) * Y(4)) == S(4, {(0, 6): 1, (2, 4): -2})  # Y^3 - 2XY^2

    def test_half_integer_rejected(self):
        s = TruncatedBiSeries(2, {(1, 0): LogConstant.one()})
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

    def test_eval_repeats_the_direct_sum(self):
        # the cached float coefficients give the same float, bit for bit
        rng = random.Random(31)
        for _ in range(20):
            s = random_series(rng, rng.randint(0, 5))
            for x, y in ((0.1, 0.05), (0.31, 0.2), (0.0, 0.7)):
                direct = 0.0
                for (dx, dy), c in sorted(s.terms.items(), key=lambda kv: (sum(kv[0]), -kv[0][0]),
                                          reverse=True):
                    direct += c.eval_f64() * (x ** (dx / 2.0)) * (y ** (dy / 2.0))
                assert s.eval_f64(x, y) == direct
                assert s.eval_f64(x, y) == direct

    def test_eval_zero(self):
        assert TruncatedBiSeries.zero(3).eval_f64(0.3, 0.9) == 0.0

    def test_rendering(self):
        a01 = LogConstant.gen(2) * (-2) + LogConstant.gen(3) * Fraction(1, 6) - 2
        s = TruncatedBiSeries(2, {
            (0, 0): LogConstant.one(),
            (2, 0): LogConstant.from_fraction(Fraction(4, 3)),
            (0, 2): a01,
        })
        assert s.to_string() == "1 + (4/3)*X + (-2*l2 + (1/6)*l3 - 2)*Y"

    def test_half_exponent_rendering(self):
        s = TruncatedBiSeries(2, {(1, 3): LogConstant.one()})
        assert s.to_string() == "X^(1/2)*Y^(3/2)"

    def test_graded_lex_order(self):
        s = S(2, {(0, 2): 1, (2, 0): 1, (4, 0): 1, (2, 2): 1, (0, 4): 1})
        assert s.to_string() == "X + Y + X^2 + X*Y + Y^2"
