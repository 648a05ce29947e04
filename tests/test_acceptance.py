"""Acceptance suite: one test per criterion, each at its stated tolerance,
printing a PASS line on success (run with -s or check the captured output).
"""

import math
import random
import time
from fractions import Fraction

import pytest

from nfsasym.dickman import (
    integral_s_numeric, lambert_w_minus1_at_minus_exp_minus2,
    p_series, q_series, q_truncation,
    radius_constant, radius_threshold_check, rho_numeric, s_numeric, xy_of,
)
from nfsasym.evalkit import g_demo, xi_eval
from nfsasym.exact import ExactError, LogConstant
from nfsasym.nfsopt import guess_terms, prove_existence
from nfsasym.pseries import TruncatedBiSeries

from conftest import (
    L2, L3, delta, neumann_inverse_one_plus_delta, p_series_recurrence,
    random_logconstant, random_rational, random_series, reference_table,
)
from test_dickman import rho3_trapezoid_oracle
from test_evalkit import xi_gap_loglog
from test_pseries import series_exp

F = Fraction


def _report(name: str):
    print(f"ACCEPTANCE PASS: {name}")


def test_criterion_01_q_series_exactness():
    start = time.monotonic()
    want = TruncatedBiSeries(3, {
        (0, 0): LogConstant.one(),
        (2, 0): LogConstant.one(),
        (0, 2): LogConstant.from_fraction(-1),
        (2, 2): LogConstant.one(),
        (0, 4): LogConstant.from_fraction(-1),
        (4, 2): LogConstant.from_fraction(F(-1, 2)),
        (2, 4): LogConstant.from_fraction(2),
        (0, 6): LogConstant.from_fraction(-2),
    })
    assert q_series(3).series == want
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    _report(f"1 Q-series degree-3 exact ({elapsed:.3f}s)")


def test_criterion_02_coefficient_table(cpe2):
    start = time.monotonic()
    cand = cpe2.candidate
    assert cand.status == "minimality-proven"
    for key, want in reference_table().items():
        assert cand.A.coefficient(*key) == want, key
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _report("2 proven degree-3 table matches all ten entries exactly")


def test_criterion_03_first_order_constants():
    start = time.monotonic()
    cand = guess_terms(2)
    assert cand.A.coefficient(1, 0) == LogConstant.from_fraction(F(4, 3))
    assert cand.A.coefficient(0, 1) == L2 * (-2) + L3 * F(1, 6) - 2
    assert cand.D.coefficient(1, 0) == LogConstant.from_fraction(F(-2, 3))
    assert cand.D.coefficient(0, 1) == L2 - L3 * F(5, 6) + 1
    table = reference_table()
    for key in ((2, 0), (1, 1), (0, 2)):
        assert cand.A.coefficient(*key) == table[key]
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _report(f"3 guessed+proven low-order constants exact ({elapsed:.1f}s)")


def test_criterion_04_existence_witness():
    cand = guess_terms(2)
    cert = prove_existence(1, cand)
    assert cert.kappa == LogConstant.from_fraction(F(32, 81))
    _report("4 existence witness kappa = 32/81 exact")


def test_criterion_05_deep_run(cpe8):
    cand = cpe8.candidate
    assert cand.status == "minimality-proven"
    assert cand.degA == 9 and cand.degB == 8
    assert cand.B == cand.A.truncate(8)
    for step in cpe8.proof_log.steps:
        if step.slot_is_integer:
            assert step.b_value == cand.A.coefficient(*step.slot)
    for (dx, dy), coeff in cand.A.terms.items():
        assert type(coeff) is LogConstant
        assert all(i + j <= dy // 2 for i, j in coeff.terms)
    halves = [s for s in cpe8.proof_log.steps if not s.slot_is_integer]
    assert halves and all(not s.b_value and not s.d_value for s in halves)
    assert cpe8.proof_log.check_pattern_adjacency()
    assert cpe8.elapsed_seconds < 600.0
    _report(f"5 degree-8 proven run, A = B, ({cpe8.elapsed_seconds:.0f}s < 600s)")


def test_criterion_06_p_series_cross_validation():
    start = time.monotonic()
    for n in range(13):
        assert p_series_recurrence(n) == p_series(n).series, n
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _report(f"6 P-series recurrence == Stirling form for n <= 12 ({elapsed:.2f}s)")


def test_criterion_07_dickman_rho():
    assert rho_numeric(2.0).rho == pytest.approx(1.0 - math.log(2.0), abs=1e-9)
    assert rho_numeric(3.0).rho == pytest.approx(rho3_trapezoid_oracle(1e-5), abs=1e-7)
    _report("7 rho(2) and rho(3) within 1e-9 / 1e-7 of independent oracles")


def test_criterion_08_radius():
    r = radius_constant()
    assert f"{r:.4f}" == "0.3178"
    assert radius_threshold_check(176.0)
    assert not radius_threshold_check(150.0)
    w = lambert_w_minus1_at_minus_exp_minus2()
    assert abs(w * math.exp(w) + math.exp(-2.0)) < 1e-12
    _report("8 radius 0.3178..., thresholds at 176/150, Lambert-W residual < 1e-12")


def test_criterion_09_divergence_demo():
    hi, lo = g_demo(2048.0), g_demo(512.0)
    assert abs(hi.g0_log2 - 61.0) <= 1.0
    assert abs(hi.g_log2 - 16.0) <= 1.0
    assert abs((hi.g0_log2 - lo.g0_log2) - 28.0) <= 1.0
    assert abs((hi.g_log2 - lo.g_log2) - 9.0) <= 1.0
    _report("9 g-demo exponents 61/16 and ratios 28/9 within +-1")


def test_criterion_10_series_vs_numeric_oracles():
    eta = math.exp(20.0)
    x, y = xy_of(eta)
    ratio = s_numeric(eta) / 20.0
    errs = [abs(ratio - p_series(n).series.eval_f64(x, y)) for n in range(2, 9)]
    assert errs[4] < 5e-6  # n = 6
    assert all(errs[k + 1] < errs[k] for k in range(len(errs) - 1))
    u = math.exp(8.0)
    xu, yu = xy_of(u)
    q6 = q_truncation(6).eval_f64(xu, yu)
    assert abs(integral_s_numeric(u) / (u * 8.0) - q6) < 2e-3
    _report("10 s/log eta vs P^(n) and integral vs Q^(6) oracles in tolerance")


def test_criterion_11_figure_surrogates(cpe8):
    u = math.exp(8.0)
    x, y = xy_of(u)
    assert abs(q_truncation(5).eval_f64(x, y) - q_truncation(6).eval_f64(x, y)) < 1e-3
    x3, y3 = xy_of(math.exp(3.0))
    values = [q_truncation(i).eval_f64(x3, y3) for i in range(1, 7)]
    assert max(values) - min(values) > 1e-2
    gaps = [xi_gap_loglog(cpe8.candidate, i, 26.0) for i in (1, 2, 3)]
    assert gaps[2] < gaps[1] < gaps[0]
    nu = 2048 * math.log(2.0)
    xs = [xi_eval(cpe8.candidate, i, nu) for i in range(6)]
    worst = max(abs(xs[i] - xs[j]) for i in (3, 4, 5) for j in (3, 4, 5) if i < j)
    assert worst > abs(xs[1] - xs[0])
    _report("11 logrho convergence at e^8, spread at e^3, ordered gaps, crypto divergence")


def test_criterion_12_property_suites():
    rng = random.Random(20260810)
    one = LogConstant.one()
    for _ in range(200):  # field axioms
        a, b, c = (random_logconstant(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        unit = LogConstant.from_fraction(random_rational(rng) or 1)
        assert unit * unit.inverse() == one
        nz = random_logconstant(rng, allow_zero=False)
        if not nz.is_rational():
            with pytest.raises(ExactError):
                nz.inverse()
    for _ in range(200):  # Delta derivation law
        u = random_series(rng, 6, integer_only=True)
        v = random_series(rng, 6, integer_only=True)
        assert delta(u * v) == u * delta(v) + delta(u) * v
    for _ in range(200):  # (1 + Delta) o (1 + Delta)^(-1) identity
        t = random_series(rng, 6, integer_only=True)
        r = neumann_inverse_one_plus_delta(t)
        assert r + delta(r) == t
    for _ in range(200):  # inverse / log / exp round trips
        s = random_series(rng, 3, invertible=True)
        assert s * s.inverse() == TruncatedBiSeries.one(s.order)
        terms = dict(random_series(rng, 3, rational_only=True).terms)
        terms[(0, 0)] = LogConstant.one()
        w = TruncatedBiSeries(3, terms)
        assert series_exp(w.log()) == w
    checked = 0
    while checked < 200:  # finite-difference check of the Delta identity
        t = random_series(rng, 4, integer_only=True, rational_only=True)
        dt = delta(t.with_order(6))
        e = rng.choice((4.0, 6.0, 8.0))
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
            assert abs(fd - exact) <= 1e-6 * abs(exact)
        checked += 1
    _report("12 five property suites x 200 randomized cases, zero failures")
