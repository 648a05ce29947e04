import hashlib
import os
import random
from fractions import Fraction

import pytest

from nfsasym import nfsopt
from nfsasym.asym import FoldEvent
from nfsasym.dickman import q_truncation
from nfsasym.exact import LogConstant
from nfsasym.nfsopt import (
    CandidateExpansion, ExistenceFailure,
    UnknownPoly, UnknownShapeError,
    build_constraint, classify_pattern, compute_proven_expansion,
    constraint_residual, guess_terms, prove_existence,
)
from nfsasym.pseries import TruncatedBiSeries

from conftest import L2, L3, reference_table

F = Fraction


def reference_layer(A, D, symbols, order, y_max=None):
    """The oracle for nfsopt._expand_layer: the constraint built once with
    every unknown attached as an UnknownPoly coefficient of the trial, so
    each product of the build carries the unknowns (and a cubic term in
    them would raise)."""
    terms = {"a": dict(A), "b": dict(A), "d": dict(D)}
    for sym in symbols:
        terms[sym[0]][sym[1:]] = UnknownPoly.from_symbol(sym)
    trials = [TruncatedBiSeries(order, terms[kind]) for kind in "abd"]
    if y_max is not None:
        trials = [t.y_bounded(y_max) for t in trials]
    audit = []
    series = build_constraint(*trials, order, audit=audit)
    # coefficients no unknown reached come out as plain LogConstant values
    polys = {e: c if isinstance(c, UnknownPoly) else UnknownPoly.from_logconst(c)
             for e, c in series.terms.items()}
    return TruncatedBiSeries._make(series.order2, polys, series.ymax2), audit


def prove_against_reference(monkeypatch, n):
    """compute_proven_expansion(n) with every layer build checked against
    reference_layer, audit included; returns the result and the
    (order, y_max) of each checked build.  The check stays installed."""
    expand = nfsopt._expand_layer
    checked = []

    def checking(A, D, symbols, order, y_max=None):
        got = expand(A, D, symbols, order, y_max)
        assert got == reference_layer(A, D, symbols, order, y_max), (order, y_max)
        checked.append((order, y_max))
        return got

    monkeypatch.setattr(nfsopt, "_expand_layer", checking)
    result = compute_proven_expansion(n)
    assert result.ok, result.failure
    return result, checked


deep = pytest.mark.skipif(os.environ.get("NFSASY_DEEP") != "1",
                          reason="deep proof: set NFSASY_DEEP=1")


def _proof_digest(result) -> str:
    """sha256 of a canonical rendering of a proven expansion: str of A, B
    and D, the sorted pinned B slots, and repr of every ProofStep and
    certificate, one per line."""
    cand = result.candidate
    lines = [str(cand.A), str(cand.B), str(cand.D)]
    lines += [repr(item) for item in sorted(cand.b_pinned.items())]
    lines += [repr(step) for step in result.proof_log.steps]
    lines += [repr(cert) for cert in result.certificates]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class TestUnknownPoly:
    def test_arithmetic(self):
        a = UnknownPoly.from_symbol(("a", 2, 0))
        b = UnknownPoly.from_symbol(("b", 1, 0))
        p = (a + b) * b + 2
        assert p.coeff_square(("b", 1, 0)) == LogConstant.one()
        assert p.coeff_cross(("a", 2, 0), ("b", 1, 0)) == LogConstant.one()
        assert p.constant() == LogConstant.from_fraction(2)
        assert p.degree() == 2

    def test_degree_cap(self):
        b = UnknownPoly.from_symbol(("b", 1, 0))
        with pytest.raises(UnknownShapeError):
            (b * b) * b

    def test_substitute(self):
        a = UnknownPoly.from_symbol(("a", 2, 0))
        b = UnknownPoly.from_symbol(("b", 1, 0))
        p = a + b * b * 3 - 1
        got = p.substitute({("b", 1, 0): LogConstant.from_fraction(F(1, 2))})
        assert got == a + LogConstant.from_fraction(F(-1, 4))

    def test_str(self):
        # fewer distinct unknowns first, then by symbol, a square as s^2
        a = UnknownPoly.from_symbol(("a", 2, 0))
        b = UnknownPoly.from_symbol(("b", 1, 0))
        d = UnknownPoly.from_symbol(("d", 1, 0))
        p = (a + b) * b * 3 + d * d - b * d + a - 5
        assert str(p) == (
            "((-5)) + ((1))*a[1,0] + ((3))*b[1/2,0]^2 + ((1))*d[1/2,0]^2"
            " + ((3))*a[1,0]*b[1/2,0] + ((-1))*b[1/2,0]*d[1/2,0]"
        )

    def test_constant_hashes_as_its_constant(self):
        # eq and hash agree: a constant poly, its LogConstant and the number
        one = LogConstant.one()
        assert UnknownPoly.from_logconst(one) == 1
        assert len({UnknownPoly.from_logconst(one), one, 1}) == 1
        half = LogConstant.from_fraction(F(1, 2))
        assert len({UnknownPoly.from_logconst(half), half, F(1, 2)}) == 1
        assert len({UnknownPoly({}), LogConstant.zero(), 0}) == 1
        assert len({UnknownPoly.from_logconst(L2), L2}) == 1

    def test_nonconstant_inverse_rejected(self):
        with pytest.raises(UnknownShapeError):
            UnknownPoly.from_symbol(("a", 2, 0)).inverse()


class TestClassifyPattern:
    def test_quoted_rule(self):
        assert classify_pattern(1, 1) == "P1"
        assert classify_pattern(0, 2) == "P2"
        assert classify_pattern(3, 0) == "P3"
        assert classify_pattern(F(1, 2), F(3, 2)) == "P1"

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            classify_pattern(0, 0)


class TestBuildConstraint:
    def test_all_ones_constant_vanishes(self):
        one = TruncatedBiSeries.one(0)
        series = build_constraint(one, one, one, 0)
        assert series.constant_term().is_zero()

    def test_degree_one_candidate_vanishes_through_degree_one(self):
        cand = guess_terms(1)
        residual = constraint_residual(cand, order=1)
        assert residual.is_zero()

    def test_perturbed_coefficient_detected(self):
        cand = guess_terms(1)
        terms = dict(cand.A.truncate(1).terms)
        terms[(2, 0)] = terms[(2, 0)] + LogConstant.one()  # 4/3 -> 4/3 + 1
        bad = TruncatedBiSeries(1, terms)
        residual = build_constraint(bad, bad, cand.D.truncate(1), 1)
        assert residual.coefficient(1, 0)


class TestLayerExpansion:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_mixed_expansion_matches_plain(self, cpe2, k):
        """Substituting rationals for a layer's unknowns in its expansion
        gives the constraint of plain series carrying the same values."""
        cand = cpe2.candidate
        known_a = {m: c for m, c in cand.A.terms.items() if m[0] + m[1] < 2 * k}
        known_d = {m: c for m, c in cand.D.terms.items() if m[0] + m[1] < k}
        symbols = nfsopt._layer_symbols(k)
        series, _ = nfsopt._expand_layer(known_a, known_d, symbols, k)

        rng = random.Random(100 + k)
        values = {sym: LogConstant.from_fraction(F(rng.randint(-9, 9), rng.randint(1, 9)))
                  for sym in symbols}
        plain = {"a": dict(known_a), "b": dict(known_a), "d": dict(known_d)}
        for sym, value in values.items():
            plain[sym[0]][sym[1:]] = value
        trials = [TruncatedBiSeries(k, plain[kind]) for kind in "abd"]
        want = build_constraint(*trials, k)

        got = {}
        for e, poly in series.terms.items():
            poly = poly.substitute(values)
            assert poly.is_constant()
            got[e] = poly.constant()
        assert TruncatedBiSeries(k, got) == want

    def test_layers_match_reference(self, monkeypatch):
        # every layer of n = 6 (1..7) and its X-only existence build, then
        # the existence builds of n = 2..5 over the same candidate
        result, checked = prove_against_reference(monkeypatch, 6)
        assert checked == [(k, None) for k in range(1, 8)] + [(8, 0)]
        for n in range(2, 6):
            assert prove_existence(n, result.candidate) == result.certificates[n - 1]
        assert checked[8:] == [b for n in range(2, 6) for b in ((n + 2, 0), (n + 1, None))]

    def test_unknown_below_half_order_rejected(self):
        # the jet assembly is exact only for unknowns of degree >= order/2
        with pytest.raises(UnknownShapeError, match="order/2"):
            nfsopt._expand_layer({(0, 0): LogConstant.one()}, {(0, 0): LogConstant.one()},
                                 [("b", 1, 0)], 2)


class TestGuessTerms:
    def test_first_order_constants(self):
        cand = guess_terms(1)
        assert cand.A.coefficient(1, 0) == LogConstant.from_fraction(F(4, 3))
        assert cand.A.coefficient(0, 1) == L2 * (-2) + L3 * F(1, 6) - 2
        assert cand.D.coefficient(1, 0) == LogConstant.from_fraction(F(-2, 3))
        assert cand.D.coefficient(0, 1) == L2 - L3 * F(5, 6) + 1
        assert cand.status == "guessed"
        assert cand.degA == 2 and cand.degB == 1 and cand.degD == 1

    def test_second_order_constants(self):
        cand = guess_terms(2)
        table = reference_table()
        for key in ((2, 0), (1, 1), (0, 2)):
            assert cand.A.coefficient(*key) == table[key], key

    def test_third_order_constants(self):
        cand = guess_terms(3)
        table = reference_table()
        for key in ((3, 0), (2, 1), (1, 2), (0, 3)):
            assert cand.A.coefficient(*key) == table[key], key

    def test_b_slots_match_a(self):
        cand = guess_terms(2)
        assert cand.b_pinned[(2, 0)] == cand.A.coefficient(1, 0)
        assert cand.b_pinned[(0, 2)] == cand.A.coefficient(0, 1)

    def test_determinism(self):
        c1, c2 = guess_terms(2), guess_terms(2)
        assert c1.A == c2.A and c1.B == c2.B and c1.D == c2.D

    def test_needs_positive_degree(self):
        with pytest.raises(ValueError):
            guess_terms(0)


class TestProveExistence:
    def test_kappa_at_degree_one(self):
        cand = guess_terms(2)
        cert = prove_existence(1, cand)
        assert cert.kappa == LogConstant.from_fraction(F(32, 81))
        assert cert.slope == F(3, 2)

    def test_kappa_at_degree_two_is_shifted(self):
        # the D series is truncated at degree 3/2 in the trial, which shifts
        # the witness away from a40 by exactly the dropped square (1/3)*d20^2
        cand = guess_terms(3)
        cert = prove_existence(2, cand)
        deeper = guess_terms(4)
        a40 = deeper.A.coefficient(4, 0)
        d20 = deeper.D.coefficient(2, 0)
        assert cert.kappa == a40 + d20 * d20 * F(1, 3)
        assert cert.kappa == LogConstant.from_fraction(F(-16, 81))

    def test_corrupted_candidate_fails(self):
        cand = guess_terms(2)
        terms = dict(cand.A.terms)
        terms[(0, 4)] = terms[(0, 4)] + LogConstant.one()
        bad = CandidateExpansion(
            A=TruncatedBiSeries(cand.A.order, terms), B=cand.B, D=cand.D,
            degA=cand.degA, degB=cand.degB, degD=cand.degD, status="guessed",
        )
        with pytest.raises(ExistenceFailure):
            prove_existence(1, bad)

    def test_needs_enough_guessed_degree(self):
        cand = guess_terms(1)
        with pytest.raises(ValueError):
            prove_existence(2, cand)

    @pytest.mark.parametrize("kind", ["low", "x", "half"])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_corrupted_candidate_records(self, monkeypatch, k, kind):
        # "low" adds 1 to A's XY coefficient, "x" adds 1 to A's X^(k+1)
        # coefficient, "half" gives D a term X^(1/2).  The records were taken
        # when every certificate read one order-(k+2) bivariate build; a
        # half-integer trial still takes that build, the others an
        # order-(k+1) build and the order-(k+2) build modulo Y.  The tail
        # unknown sits at the order itself, so its jet build is at order 1/2.
        monomial = {"low": (1, 1), "x": (k + 1, 0), "half": (1, 0)}[kind]
        detail = "((-1/2))" if kind == "half" else "((3/2))"
        cand = guess_terms(3)
        A, D = dict(cand.A.terms), dict(cand.D.terms)
        if kind == "low":
            A[(2, 2)] = A[(2, 2)] + 1
        elif kind == "x":
            A[(2 * (k + 1), 0)] = A[(2 * (k + 1), 0)] + 1
        else:
            D[(1, 0)] = LogConstant.one()
        bad = CandidateExpansion(
            A=TruncatedBiSeries(cand.A.order, A), B=cand.B, D=TruncatedBiSeries(cand.D.order, D),
            degA=cand.degA, degB=cand.degB, degD=cand.degD, status="guessed",
        )
        builds = []
        build = nfsopt.build_constraint

        def recording(A, B, D, order, **kwargs):
            builds.append((order, A.ymax2))
            return build(A, B, D, order, **kwargs)

        monkeypatch.setattr(nfsopt, "build_constraint", recording)
        with pytest.raises(ExistenceFailure) as info:
            prove_existence(k, bad)
        record = info.value.record
        assert (record.stage, record.degree, record.monomial, record.detail) == (
            "existence", k, tuple(map(F, monomial)), detail)
        assert record.message == ("nonvanishing coefficient below the dominant monomial"
                                  " (candidate does not satisfy the constraint)")
        assert set(builds) == ({(k + 2, None), (F(1, 2), None)} if kind == "half"
                               else {(k + 1, None), (k + 2, 0), (F(1, 2), 0)})

    def test_half_integer_gap_takes_full_build(self, monkeypatch):
        # the constraint folds at integer gaps only; a build reporting a
        # half-integer one must not be trusted for the half-integer monomials
        builds = []
        build = nfsopt.build_constraint

        def half_gap(A, B, D, order, audit=None, **kwargs):
            builds.append((order, A.ymax2))
            if audit is not None:  # the jet builds keep no audit
                audit.append(FoldEvent(F(1, 2)))
            return build(A, B, D, order, audit=audit, **kwargs)

        cand = guess_terms(2)
        want = prove_existence(1, cand)
        monkeypatch.setattr(nfsopt, "build_constraint", half_gap)
        assert prove_existence(1, cand) == want
        assert builds == [(3, 0), (F(1, 2), 0), (3, None), (F(1, 2), None)]

    @pytest.mark.parametrize("n", [2, 3])
    def test_x_only_expansion_matches_full(self, n):
        cand = guess_terms(3)
        A = cand.A.truncate(n + 1).terms
        D = cand.D.truncate(F(n + 1, 2)).terms
        tail = [("a", 2 * (n + 2), 0)]
        full, _ = nfsopt._expand_layer(A, D, tail, n + 2)
        x_only, _ = nfsopt._expand_layer(A, D, tail, n + 2, y_max=0)
        dominant = (2 * (n + 2), 0)
        assert x_only.terms[dominant] == full.terms[dominant]
        assert x_only == full.y_bounded(0)


class TestProveMinimality:
    # the minimality proof is the schedule's own log, guess_terms(n).guess_log
    def test_five_step_prefix(self):
        log = guess_terms(1).guess_log
        assert log.pattern_sequence()[:5] == ["P3", "P2", "P3", "P1", "P2"]
        final = {tuple(s.target): s for s in log.steps}
        assert final[(1, 0)].kappa_a == LogConstant.from_fraction(F(4, 3))
        assert final[(0, 1)].kappa_a == L2 * (-2) + L3 * F(1, 6) - 2
        assert final[(2, 0)].d_value == LogConstant.from_fraction(F(-2, 3))
        assert final[(0, 2)].d_value == L2 - L3 * F(5, 6) + 1

    def test_a_equals_b_streams(self):
        cand = guess_terms(3)
        for step in cand.guess_log.steps:
            if step.slot_is_integer:
                i, j = step.slot
                assert step.b_value == cand.A.coefficient(i, j), step.slot

    def test_half_integer_slots_zero(self):
        halves = [s for s in guess_terms(1).guess_log.steps if not s.slot_is_integer]
        assert halves and all(not s.b_value and not s.d_value for s in halves)


class TestSolveTarget:
    @staticmethod
    def layer_three(scale, shift=0):
        # the degree-3 layer after layers 1 and 2 are solved, with the
        # equation that pins the B unknown of target X^3 linearly (at
        # X^(3/2) Y) multiplied by `scale` and shifted by `shift`
        state = nfsopt._run_schedule(1)
        series, _ = nfsopt._expand_layer(state.A, state.D, nfsopt._layer_symbols(3), 3)
        terms = dict(series.terms)
        terms[(3, 2)] = terms[(3, 2)] * scale + shift
        return state, TruncatedBiSeries._make(series.order2, terms, series.ymax2)

    def test_non_rational_coefficient_deferred(self):
        state, series = self.layer_three(1)
        nfsopt._solve_target(state, series, [], (6, 0))
        assert state.log.steps[-1].pinned_by == "b:linear,d:square"
        # l2 is not a unit, so the scaled equation is not solved for B; the
        # square pins B and the deferred equation then vanishes
        scaled, series = self.layer_three(L2)
        nfsopt._solve_target(scaled, series, [], (6, 0))
        step = scaled.log.steps[-1]
        assert step.pinned_by == "b:square,d:square"
        assert dict(step.pendings)[(F(3, 2), F(1))] == "vanished"
        assert scaled.A[(6, 0)] == state.A[(6, 0)] == LogConstant.from_fraction(F(32, 81))

    def test_non_rational_coefficient_unresolved(self):
        state, series = self.layer_three(L2, L3)
        with pytest.raises(nfsopt.GuessFailure, match="unresolved coefficient below the target"):
            nfsopt._solve_target(state, series, [], (6, 0))


class TestExactSign:
    def test_rational(self):
        assert nfsopt._exact_sign(LogConstant.from_fraction(F(-3, 2)), "t") == -1
        assert nfsopt._exact_sign(LogConstant.zero(), "t") == 0

    def test_close_to_log_two(self):
        # 9.4e-18 above 0: inside the old float guard band, decided by enclosure
        c = F(6931471805599453, 10 ** 16)
        assert nfsopt._exact_sign(L2 - c, "t") == 1
        assert nfsopt._exact_sign(c - L2, "t") == -1
        assert nfsopt._exact_sign(L2 * L3 - L3 * c, "t") == 1

    def test_undecided_past_the_cap(self):
        lo, hi = L2.enclose(2 * nfsopt._SIGN_MAX_BITS)
        with pytest.raises(nfsopt.NfsoptError, match="cannot certify sign"):
            nfsopt._exact_sign(L2 - (lo + hi) / 2, "t")


class TestComputeProvenExpansion:
    def test_degree_two_pipeline(self, cpe2):
        cand = cpe2.candidate
        assert cand.status == "minimality-proven"
        assert (cand.degA, cand.degB, cand.degD) == (3, 2, F(3, 2))
        table = reference_table()
        for key, want in table.items():
            assert cand.A.coefficient(*key) == want, key
        assert cand.B == cand.A.truncate(2)

    def test_requires_degree_two(self):
        with pytest.raises(ValueError):
            compute_proven_expansion(1)

    def test_constraint_vanishing_invariant(self, cpe2):
        assert constraint_residual(cpe2.candidate, order=3).is_zero()

    def test_reduced_q_order_is_not_silent(self, monkeypatch):
        # negative control for expanding Q to the constraint's own order:
        # capping the smoothness order must either break the run or visibly
        # change proven coefficients
        monkeypatch.setattr(nfsopt, "q_truncation", lambda m: q_truncation(min(m, 1)))
        table = reference_table()
        try:
            res = compute_proven_expansion(2)
        except Exception:
            return
        if res.failure is not None:
            return
        got = res.candidate.A
        assert any(got.coefficient(*key) != want for key, want in table.items())

    def test_coefficients_stay_in_q_l2_l3(self, cpe8):
        # every coefficient is a plain LogConstant, and the one at X^i Y^j has
        # degree at most j in l2, l3 (a01 is linear, a02 quadratic, ...)
        for (dx, dy), coeff in cpe8.candidate.A.terms.items():
            assert type(coeff) is LogConstant
            assert all(i + j <= dy // 2 for i, j in coeff.terms), (dx, dy)

    def test_proof_log_adjacency(self, cpe2):
        assert cpe2.proof_log.check_pattern_adjacency()

    def test_one_schedule_pass(self, monkeypatch):
        # 3 layer expansions (A's targets of degrees 1..3) + the degree-2
        # existence build, which is in X alone (bound 0 on Y): existence at
        # degree 1 reads layer 3 and at degree 2 layer 3 as well, and a
        # per-target expansion, a replayed schedule, a degree-4 layer, a
        # separate degree-1 certificate build or a bivariate degree-2 one
        # would add more.  Each of the four is a plain build followed by
        # its jet build, at order k/2 + 1/2 for layer k (the slot unknowns
        # have degree k/2) and at 1/2 for the existence build (its tail
        # unknown has degree 4)
        calls = []
        build = nfsopt.build_constraint

        def counting(A, B, D, order, **kwargs):
            calls.append((order, A.ymax2))
            return build(A, B, D, order, **kwargs)

        monkeypatch.setattr(nfsopt, "build_constraint", counting)
        assert compute_proven_expansion(2).ok
        assert len(calls) == 8
        assert calls == [(1, None), (1, None), (2, None), (F(3, 2), None),
                         (3, None), (2, None), (4, 0), (F(1, 2), 0)]

    # Golden digests of _proof_digest, recorded with the schedule that
    # expanded the constraint once per target (before the per-layer
    # expansion).  Any change to how the schedule computes must reproduce
    # them: they pin A, B, D, the pinned B slots, every ProofStep field
    # (pendings and absorptions included) and every certificate.
    def test_degree_3_golden_digest(self):
        result = compute_proven_expansion(3)
        assert result.ok, result.failure
        assert _proof_digest(result) == (
            "66a558fcc157eaffaf59012cf99fcec3036b85e41c4bb679be40d397d09b7997")

    def test_degree_8_golden_digest(self, cpe8):
        assert _proof_digest(cpe8) == (
            "2f9573164c2c551bfe9114ee1093c205ac4d9a06b755aeb7c6b4f39640c0e4d0")

    # Recorded with the symbol-attached layer builds (the reference_layer
    # oracle), before the jet assembly replaced them.
    @pytest.mark.deep
    @deep
    def test_degree_10_golden_digest(self):
        result = compute_proven_expansion(10)
        assert result.ok, result.failure
        assert _proof_digest(result) == (
            "cfcd45d88432d25a3987dd9311e8e93204848f28b88ad977d43ca8901677e8de")

    # Recorded from a run of the code that built Q by the Delta resolvent,
    # before the Ei form replaced it.
    @pytest.mark.deep
    @deep
    def test_degree_12_golden_digest(self):
        result = compute_proven_expansion(12)
        assert result.ok, result.failure
        assert _proof_digest(result) == (
            "857e05179f1184e4b98ab219e2fe886a84d22d82b0aef8bc1310fc777cc47277")

    @pytest.mark.deep
    @deep
    def test_degree_8_layers_match_reference(self, monkeypatch):
        result, checked = prove_against_reference(monkeypatch, 8)
        assert checked == [(k, None) for k in range(1, 10)] + [(10, 0)]
        assert _proof_digest(result) == (
            "2f9573164c2c551bfe9114ee1093c205ac4d9a06b755aeb7c6b4f39640c0e4d0")

    def test_proof_log_matches_minimality_replay(self, cpe2):
        # a second schedule walk gives the same log, and the certificates
        # read off the schedule's layers equal the standalone ones
        cand = guess_terms(2)
        assert cpe2.proof_log.steps == cand.guess_log.steps  # every ProofStep field
        assert cpe2.certificates == [prove_existence(k, cand) for k in (1, 2)]

    def test_contradiction_keeps_proven_prefix(self, monkeypatch):
        # shifting layer 3's coefficient at X^(3/2) Y by 1 makes the linear
        # equation there pin B at X^(3/2) to -1/3, against the a = b fill 0;
        # the failure carries the proven prefix through degree 2, as a
        # GuessFailure at that step would
        expand = nfsopt._expand_layer

        def shifted(A, D, symbols, order, y_max=None):
            series, audit = expand(A, D, symbols, order, y_max)
            if (order, y_max) == (3, None):
                terms = dict(series.terms)
                terms[(3, 2)] = terms[(3, 2)] + 1
                series = TruncatedBiSeries._make(series.order2, terms, series.ymax2)
            return series, audit

        monkeypatch.setattr(nfsopt, "_expand_layer", shifted)
        result = compute_proven_expansion(3)
        record = result.failure
        assert (record.stage, record.degree, record.monomial) == ("guess", 3, (F(3, 2), F(1)))
        assert record.message == "pinned b[3/2,0] = (-1/3) but the a=b fill expects 0"
        assert result.candidate.degA == 2
        assert len(result.proof_log.steps) == 5

    def test_absorption_events_recorded(self, cpe2):
        assert all(step.absorptions for step in cpe2.proof_log.steps)
