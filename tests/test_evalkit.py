import math
from fractions import Fraction

import pytest

from nfsasym.dickman import q_truncation, xy_of
from nfsasym.evalkit import (
    CBRT_64_9, DegreeUnavailableError, EvalError,
    complexity_log, figure_data, g_demo, rows_to_csv, rows_to_svg,
    xi_eval, xi_eval_loglog, xy_from_loglognu,
)
from nfsasym.pseries import TruncatedBiSeries

F = Fraction


def xi_gap_loglog(cand, i, loglognu):
    """|xi_i - xi_{i-1}| from the degree-i slice of A itself, so deep-tail
    gaps are free of floating cancellation."""
    piece = TruncatedBiSeries(i, {e: c for e, c in cand.A.terms.items() if e[0] + e[1] == 2 * i})
    return abs(piece.eval_f64(*xy_from_loglognu(loglognu)))


class TestXi:
    def test_degree_zero_is_zero(self, cpe4):
        for nu in (100.0, 1e4, 1e8):
            assert xi_eval(cpe4.candidate, 0, nu) == 0.0

    def test_value_at_lognu_e3(self, cpe4):
        # derived oracle: a10*X + a01*Y from the proven first-order constants
        nu = math.exp(math.exp(3.0))
        x, y = xy_of(nu)
        a01 = -2.0 * math.log(2.0) + math.log(3.0) / 6.0 - 2.0
        oracle = (4.0 / 3.0) * x + a01 * y
        got = xi_eval(cpe4.candidate, 1, nu)
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(0.03967, abs=1e-5)

    def test_leading_term_ratio(self, cpe4):
        # xi_1 * log2(N) / ((4/3) log3(N)) -> 1, at the O(1/loglog N) rate
        # set by the |a01|/(4/3 t) second term
        ts = (20.0, 26.0, 32.0)
        deviations = []
        for t in ts:
            xi1 = xi_eval_loglog(cpe4.candidate, 1, t)
            x, _ = xy_from_loglognu(t)
            deviations.append(abs(xi1 / ((4.0 / 3.0) * x) - 1.0))
        assert deviations[0] > deviations[1] > deviations[2]
        a01 = abs(-2.0 * math.log(2.0) + math.log(3.0) / 6.0 - 2.0)
        for t, dev in zip(ts, deviations):
            assert dev * t == pytest.approx(a01 / (4.0 / 3.0), rel=1e-9)

    @pytest.mark.parametrize("evaluate", [
        lambda cand: xy_from_loglognu(math.inf),
        lambda cand: xi_eval_loglog(cand, 1, math.inf),
    ], ids=["xy_from_loglognu", "xi_eval_loglog"])
    def test_infinite_loglog_rejected(self, cpe4, evaluate):
        with pytest.raises(EvalError, match="finite"):
            evaluate(cpe4.candidate)

    def test_degree_unavailable(self, cpe4):
        with pytest.raises(DegreeUnavailableError):
            xi_eval(cpe4.candidate, cpe4.candidate.degA + 1, 1e4)

    def test_tail_decrease(self, cpe4):
        for i in range(1, 6):
            vals = [abs(xi_eval_loglog(cpe4.candidate, i, t))
                    for t in (10, 12, 14, 16, 20, 24, 30)]
            assert all(vals[k + 1] < vals[k] for k in range(len(vals) - 1)), i

    def test_first_term_dominance_at_loglog30(self, cpe4):
        x1 = xi_eval_loglog(cpe4.candidate, 1, 30.0)
        for i in range(2, 6):
            assert abs(xi_eval_loglog(cpe4.candidate, i, 30.0) / x1 - 1.0) < 0.05


class TestComplexity:
    def test_rsa2048_order_zero(self, cpe4):
        nu = 2048 * math.log(2.0)
        log_c = complexity_log(cpe4.candidate, nu, 0)
        assert log_c == pytest.approx(81.0, abs=0.2)
        assert log_c / math.log(2.0) == pytest.approx(116.7, abs=0.5)

    def test_closed_form_scaling(self, cpe4):
        nu = 500.0
        got = complexity_log(cpe4.candidate, nu, 0)
        assert got / (nu ** (1 / 3) * math.log(nu) ** (2 / 3)) == pytest.approx(
            CBRT_64_9, abs=1e-14)

    def test_order_one_vs_two_near_convergence(self, cpe4):
        # at loglog nu = 25 the truncations agree to within 1%; the common
        # nu^(1/3) (log nu)^(2/3) factor cancels in the ratio
        r = (1 + xi_eval_loglog(cpe4.candidate, 1, 25.0)) / \
            (1 + xi_eval_loglog(cpe4.candidate, 2, 25.0))
        assert abs(r - 1.0) < 0.01


@pytest.mark.parametrize("evaluate", [
    lambda cand: xi_eval(cand, 1, math.inf),
    lambda cand: xi_eval_loglog(cand, 1, math.inf),
    lambda cand: complexity_log(cand, math.inf, 1),
    lambda cand: g_demo(math.inf),
], ids=["xi_eval", "xi_eval_loglog", "complexity_log", "g_demo"])
def test_non_finite_input_rejected(cpe2, evaluate):
    # an infinite size would evaluate to nan instead of failing
    with pytest.raises(EvalError, match="finite"):
        evaluate(cpe2.candidate)


class TestGDemo:
    def test_reference_exponents(self):
        d = g_demo(2048.0)
        assert abs(d.g0_log2 - 61.0) <= 1.0
        assert abs(d.g_log2 - 16.0) <= 1.0

    def test_reference_ratios(self):
        hi, lo = g_demo(2048.0), g_demo(512.0)
        assert abs((hi.g0_log2 - lo.g0_log2) - 28.0) <= 1.0
        assert abs((hi.g_log2 - lo.g_log2) - 9.0) <= 1.0

    def test_g_below_g0(self):
        for bits in (2.0, 64.0, 512.0, 4096.0):
            d = g_demo(bits)
            assert d.g_log2 < d.g0_log2


class TestFigures:
    def test_logrho_convergence_behavior(self):
        series = figure_data(None, "logrho", 6, points=64)
        for u, tol, spread in ((math.exp(8.0), 1e-3, False), (math.exp(3.0), None, True)):
            x, y = xy_of(u)
            q5 = q_truncation(5).eval_f64(x, y)
            q6 = q_truncation(6).eval_f64(x, y)
            if spread:
                assert abs(q5 - q6) > 1e-2
            else:
                assert abs(q5 - q6) < tol
        assert series.curve("Q_6")

    def test_convergence_ordered_gaps(self, cpe4):
        gaps = [xi_gap_loglog(cpe4.candidate, i, 26.0) for i in (1, 2, 3)]
        assert gaps[2] < gaps[1] < gaps[0]

    def test_zonecrypto_divergence_surrogate(self, cpe8):
        nu = 2048 * math.log(2.0)
        xs = [xi_eval(cpe8.candidate, i, nu) for i in range(6)]
        gap01 = abs(xs[1] - xs[0])
        worst = max(abs(xs[i] - xs[j]) for i in (3, 4, 5) for j in (3, 4, 5) if i < j)
        assert worst > gap01

    def test_deterministic_and_finite(self, cpe4):
        a = figure_data(cpe4.candidate, "convergence", 3, points=48)
        b = figure_data(cpe4.candidate, "convergence", 3, points=48)
        assert a == b
        assert all(math.isfinite(v) for _, _, v in a.rows)
        abscissas = sorted({r[0] for r in a.rows})
        assert abscissas == sorted(abscissas) and len(abscissas) == 48

    def test_i_max_below_first_curve(self, cpe4):
        for figure_id, cand, first in (("logrho", None, 1), ("convergence", cpe4.candidate, 0),
                                       ("zonecrypto", cpe4.candidate, 0)):
            with pytest.raises(EvalError, match=f"i_max >= {first}"):
                figure_data(cand, figure_id, first - 1, points=8)
            assert figure_data(cand, figure_id, first, points=8).rows

    def test_unknown_figure_id(self):
        with pytest.raises(EvalError):
            figure_data(None, "nope", 3)

    def test_csv_and_svg_emitters(self):
        series = figure_data(None, "logrho", 3, points=16)
        csv = rows_to_csv(series)
        assert csv.splitlines()[0] == "abscissa,curve,value"
        assert len(csv.splitlines()) == 1 + len(series.rows)
        svg = rows_to_svg(series)
        assert svg.startswith("<svg") and "polyline" in svg

    def test_q3_matches_figure_point(self):
        # cross-module consistency: the Q^(3) series evaluated directly
        # agrees with the figure generator's curve at u = e^8
        series = figure_data(None, "logrho", 3, points=22)
        u = math.exp(8.0)
        x, y = xy_of(u)
        direct = q_truncation(3).eval_f64(x, y)
        pts = series.curve("Q_3")
        nearest = min(pts, key=lambda p: abs(p[0] - 8.0))
        assert abs(nearest[1] - direct) < 5e-3
