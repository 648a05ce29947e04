import random
from fractions import Fraction

import pytest

from nfsasym import nfsopt
from nfsasym.exact import LogConstant
from nfsasym.nfsopt import compute_proven_expansion
from nfsasym.pseries import SeriesError, TruncatedBiSeries


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


def delta(t: TruncatedBiSeries) -> TruncatedBiSeries:
    """The derivation with Delta X = Y(Y-X), Delta Y = -Y^2 on monomials:

        Delta(X^a Y^b) = a X^(a-1) Y^(b+2) - (a+b) X^a Y^(b+1).

    It encodes d/d(eta) of T(X(eta), Y(eta)) up to a 1/eta factor.  Only
    integer exponents are admitted; the image always carries a factor Y.
    """
    if not t.has_integer_exponents():
        raise SeriesError("Delta is defined on integer-exponent series only")
    terms: dict = {}

    def put(e, c):
        if e[0] + e[1] > t.order2 or not c:
            return
        s = terms.get(e)
        s = c if s is None else s + c
        if s:
            terms[e] = s
        else:
            terms.pop(e, None)

    for (dx, dy), c in t.terms.items():
        a, b = dx // 2, dy // 2
        if a:
            put((dx - 2, dy + 4), c * Fraction(a))
        if a + b:
            put((dx, dy + 2), c * Fraction(-(a + b)))
    return TruncatedBiSeries._make(t.order2, terms, t.ymax2)


def neumann_inverse_one_plus_delta(t: TruncatedBiSeries) -> TruncatedBiSeries:
    """sum_k (-Delta)^k t, finite at fixed truncation since Delta raises degree."""
    acc = t
    term = t
    while True:
        term = -delta(term)
        if term.is_zero():
            break
        acc = acc + term
    return acc


def divide_by_y(t: TruncatedBiSeries) -> TruncatedBiSeries:
    """Exact division by Y of an unbounded series whose every term carries Y."""
    assert t.ymax2 is None and all(dy >= 2 for _, dy in t.terms), t
    return TruncatedBiSeries._make(max(t.order2 - 2, 0),
                                   {(dx, dy - 2): c for (dx, dy), c in t.terms.items()})


def q_series_delta(p: TruncatedBiSeries) -> TruncatedBiSeries:
    """The oracle for dickman.q_series, from P by the Delta resolvent:

        Q = (1-Y)*P + Y*(1+Delta)^(-1)*(1 - Y^(-1))*Delta(P)

    truncated at P's order.  It shares no step with the Ei form beyond the
    series arithmetic."""
    n = p.order
    dp = delta(p)
    resolved = neumann_inverse_one_plus_delta(dp - divide_by_y(dp))
    y = TruncatedBiSeries.monomial(0, 1, max(n, 1)).truncate(n)
    return ((TruncatedBiSeries.one(n) - y) * p + resolved.shift(0, 1).truncate(n)).with_order(n)


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


@pytest.fixture
def record_builds(monkeypatch):
    """Install a recorder on nfsopt.build_constraint: `record_builds()`
    returns the list it fills with the (order, Y bound) of every build from
    then on.  With `fold`, that event is also appended to every absorption
    audit a build keeps.  The cached base-point build is made first, so a
    recorded sequence never depends on which test ran before."""
    nfsopt._base_point()
    build = nfsopt.build_constraint

    def install(fold=None):
        calls = []

        def recording(A, B, D, order, audit=None):
            calls.append((order, A.ymax2))
            if fold is not None and audit is not None:
                audit.append(fold)
            return build(A, B, D, order, audit=audit)

        monkeypatch.setattr(nfsopt, "build_constraint", recording)
        return calls

    return install
