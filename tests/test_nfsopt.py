import hashlib
from fractions import Fraction

import pytest

from nfsasym import nfsopt
from nfsasym.exact import LogConstant, generators_seen
from nfsasym.nfsopt import (
    CandidateExpansion, ContradictionError, ExistenceFailure,
    UnknownPoly, UnknownShapeError,
    build_constraint, classify_pattern, compute_proven_expansion,
    constraint_residual, guess_terms, prove_existence, prove_minimality,
)
from nfsasym.pseries import LOG_RING, TruncatedBiSeries

from conftest import L2, L3, reference_table

F = Fraction


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
        one = TruncatedBiSeries.one(LOG_RING, 0)
        series = build_constraint(one, one, one, 0).series
        assert series.constant_term().is_zero()

    def test_degree_one_candidate_vanishes_through_degree_one(self):
        cand = guess_terms(1)
        residual = constraint_residual(cand, order=1)
        assert residual.is_zero()

    def test_perturbed_coefficient_detected(self):
        cand = guess_terms(1)
        terms = dict(cand.A.truncate(1).terms)
        terms[(2, 0)] = terms[(2, 0)] + LogConstant.one()  # 4/3 -> 4/3 + 1
        bad = TruncatedBiSeries(LOG_RING, 1, terms)
        residual = build_constraint(bad, bad, cand.D.truncate(1), 1).series
        assert residual.coefficient(1, 0)


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
            A=TruncatedBiSeries(LOG_RING, cand.A.order, terms), B=cand.B, D=cand.D,
            degA=cand.degA, degB=cand.degB, degD=cand.degD, status="guessed",
        )
        with pytest.raises(ExistenceFailure):
            prove_existence(1, bad)

    def test_needs_enough_guessed_degree(self):
        cand = guess_terms(1)
        with pytest.raises(ValueError):
            prove_existence(2, cand)


class TestProveMinimality:
    def test_five_step_prefix(self):
        cand = guess_terms(2)
        cert = prove_existence(1, cand)
        log = prove_minimality(1, cand, cert)
        assert log.pattern_sequence()[:5] == ["P3", "P2", "P3", "P1", "P2"]
        final = {tuple(s.target): s for s in log.steps}
        assert final[(1, 0)].kappa_a == LogConstant.from_fraction(F(4, 3))
        assert final[(0, 1)].kappa_a == L2 * (-2) + L3 * F(1, 6) - 2
        assert final[(2, 0)].d_value == LogConstant.from_fraction(F(-2, 3))
        assert final[(0, 2)].d_value == L2 - L3 * F(5, 6) + 1

    def test_limit_mismatch_contradicts(self):
        cand = guess_terms(2)
        cert = prove_existence(1, cand)
        terms = dict(cand.A.terms)
        terms[(2, 0)] = terms[(2, 0)] + 1  # tamper with a10
        bad = CandidateExpansion(
            A=TruncatedBiSeries(LOG_RING, cand.A.order, terms), B=cand.B, D=cand.D,
            degA=cand.degA, degB=cand.degB, degD=cand.degD, status="guessed",
        )
        with pytest.raises(ContradictionError):
            prove_minimality(1, bad, cert)

    def test_d_mismatch_contradicts(self):
        cand = guess_terms(2)
        cert = prove_existence(1, cand)
        terms = dict(cand.D.terms)
        terms[(0, 2)] = terms[(0, 2)] + 1  # tamper with d01
        bad = CandidateExpansion(
            A=cand.A, B=cand.B, D=TruncatedBiSeries(LOG_RING, cand.D.order, terms),
            degA=cand.degA, degB=cand.degB, degD=cand.degD, status="guessed",
        )
        with pytest.raises(ContradictionError):
            prove_minimality(1, bad, cert)

    def test_a_equals_b_streams(self):
        cand = guess_terms(3)
        cert = prove_existence(3, cand)
        log = prove_minimality(3, cand, cert)
        for step in log.steps:
            if step.slot_is_integer:
                i, j = step.slot
                assert step.b_value == cand.A.coefficient(i, j), step.slot

    def test_half_integer_slots_zero(self):
        cand = guess_terms(2)
        cert = prove_existence(1, cand)
        log = prove_minimality(1, cand, cert)
        halves = log.half_integer_values()
        assert halves and all(not b and not d for _, b, d in halves)


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

    def test_reduced_q_order_is_not_silent(self):
        # margin negative control: capping the smoothness order must either
        # break the run or visibly change proven coefficients
        table = reference_table()
        try:
            res = compute_proven_expansion(2, q_order_cap=1)
        except Exception:
            return
        if res.failure is not None:
            return
        got = res.candidate.A
        assert any(got.coefficient(*key) != want for key, want in table.items())

    def test_coefficients_stay_in_q_l2_l3(self, cpe8):
        assert generators_seen() <= {2, 3}
        for coeff in cpe8.candidate.A.terms.values():
            assert {p for mono in coeff.num for p, _ in mono} <= {2, 3}

    def test_proof_log_adjacency(self, cpe2):
        assert cpe2.proof_log.check_pattern_adjacency()

    def test_one_schedule_pass(self, monkeypatch):
        # 3 layer expansions (A's targets of degrees 1..3) + the degree-2
        # existence build; existence at degree 1 reads layer 3, and a
        # per-target expansion, a replayed schedule, a degree-4 layer or a
        # separate degree-1 certificate build would add more
        calls = 0
        build = nfsopt.build_constraint

        def counting(*args, **kwargs):
            nonlocal calls
            calls += 1
            return build(*args, **kwargs)

        monkeypatch.setattr(nfsopt, "build_constraint", counting)
        assert compute_proven_expansion(2).ok
        assert calls == 4

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

    def test_proof_log_matches_minimality_replay(self, cpe2):
        cand = guess_terms(2)
        certs = [prove_existence(k, cand) for k in (1, 2)]
        log = prove_minimality(2, cand, certs[-1])
        assert cpe2.proof_log.steps == log.steps  # every ProofStep field
        assert cpe2.certificates == certs

    def test_absorption_events_recorded(self, cpe2):
        assert all(step.absorptions for step in cpe2.proof_log.steps)
