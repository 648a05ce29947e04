import random
from fractions import Fraction

import pytest

from nfsasym.exact import LogConstant
from nfsasym.nfsopt import compute_proven_expansion
from nfsasym.pseries import TruncatedBiSeries


L2 = LogConstant.gen(2)
L3 = LogConstant.gen(3)


def reference_table() -> dict:
    """The ten known closed-form coefficients of A through total degree 3."""
    F = Fraction
    return {
        (0, 0): LogConstant.one(),
        (1, 0): LogConstant.from_fraction(F(4, 3)),
        (0, 1): L2 * (-2) + L3 * F(1, 6) - 2,
        (2, 0): LogConstant.from_fraction(F(-4, 9)),
        (1, 1): L2 * F(4, 3) - L3 * F(1, 9) + 4,
        (0, 2): -(L2 * L2) + L2 * L3 * F(1, 6) - L3 * L3 * F(7, 36) - L2 * 6 + L3 * F(1, 2) - 5,
        (3, 0): LogConstant.from_fraction(F(32, 81)),
        (2, 1): L2 * F(-16, 9) + L3 * F(4, 27) - F(56, 9),
        (1, 2): (L2 * L2 * F(8, 3) - L2 * L3 * F(4, 9) + L2 * F(56, 3)
                 + L3 * L3 * F(14, 27) - L3 * F(14, 9) + F(64, 3)),
        (0, 3): (L2 * L2 * L2 * F(-4, 3) + L2 * L2 * L3 * F(1, 3) - L2 * L2 * 14
                 - L2 * L3 * L3 * F(7, 9) + L2 * L3 * F(7, 3) - L2 * 32
                 + L3 * L3 * L3 * F(41, 648) - L3 * L3 * F(49, 18) + L3 * F(8, 3) - F(85, 3)),
    }


def p_series_recurrence(n: int) -> TruncatedBiSeries:
    """The oracle for dickman.p_series: P_0 = 1, then
    P_{k+1} = trunc_{k+1}[1 + X + Y*log P_k] (the iterate is polynomial, so
    it is exact at any order)."""
    p = TruncatedBiSeries.one(0)
    for order in range(1, n + 1):
        p = (TruncatedBiSeries.one(order) + TruncatedBiSeries.x(order)
             + TruncatedBiSeries.y(order) * p.with_order(order).log())
    return p.with_order(n)


def random_rational(rng: random.Random, span: int = 6) -> Fraction:
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return Fraction(num, den)


def random_logconstant(rng: random.Random, allow_zero: bool = True) -> LogConstant:
    value = LogConstant.from_fraction(random_rational(rng))
    for gen, p in ((L2, 2), (L3, 3)):
        if rng.random() < 0.6:
            value = value + gen * random_rational(rng)
        if rng.random() < 0.2:
            value = value + gen * gen * random_rational(rng)
    if not allow_zero and value.is_zero():
        value = value + 1
    return value


def random_series(rng: random.Random, order: int, *, integer_only: bool = False,
                  invertible: bool = False, rational_only: bool = False) -> TruncatedBiSeries:
    terms = {}
    step = 2 if integer_only else 1
    for dx in range(0, 2 * order + 1, step):
        for dy in range(0, 2 * order + 1 - dx, step):
            if rng.random() < 0.45:
                coeff = (LogConstant.from_fraction(random_rational(rng))
                         if rational_only else random_logconstant(rng))
                if coeff:
                    terms[(dx, dy)] = coeff
    if invertible:
        terms[(0, 0)] = LogConstant.from_fraction(rng.choice([1, -1, 2, 3]) * Fraction(1, rng.randint(1, 3)))
    return TruncatedBiSeries(order, terms)


@pytest.fixture(scope="session")
def cpe2():
    result = compute_proven_expansion(2)
    assert result.ok, result.failure
    return result


@pytest.fixture(scope="session")
def cpe4():
    result = compute_proven_expansion(4)
    assert result.ok, result.failure
    return result


@pytest.fixture(scope="session")
def cpe8():
    import time
    start = time.monotonic()
    result = compute_proven_expansion(8)
    result.elapsed_seconds = time.monotonic() - start
    assert result.ok, result.failure
    return result
