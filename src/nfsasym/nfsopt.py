"""The optimization core: expansion of the parameter constraint over an
unknown-coefficient ring, the solving schedule whose log proves the
asymptotic series of the minimizing parameters term by term, and the
existence certificates for its truncations.

Setup.  The three parameter logs are normalized as

    a = (8/9)^(1/3) * nu^(1/3) (log nu)^(2/3) * A(X, Y),
    b = (8/9)^(1/3) * nu^(1/3) (log nu)^(2/3) * B(X, Y),
    d =     3^(1/3) * nu^(1/3) (log nu)^(-1/3) * D(X, Y),

with A(0,0) = B(0,0) = D(0,0) = 1, and the constraint

    p((a + nu/d)/b) + p((d*a + nu/d)/b) + 2a - b = 0

is expanded with the smoothness map p of the asym module, then divided by
the scale of a.  Each coefficient of the resulting series is an exact
polynomial (of degree <= 2) in the currently unknown coefficients.

Solving schedule.  A's monomials are targeted one at a time in graded-lex
order (X before Y), one degree layer after the other.  The constraint is
expanded once per layer k, with every unknown of the layer attached: abar
at each degree-k target m of A and B's a = b copy of it there, and bbar,
dbar at each slot sqrt(m) of B and D.  The step at target m substitutes
into that one expansion: targets solved earlier in the layer take their
values, later targets take 0, the other slots take A's value in B and the
pinned D value (or 0) in D, and only abar at m and bbar, dbar at sqrt(m)
stay free.  Below the layer B is filled in from A (the a = b working
assumption of the guessing algorithm), and D carries only its pinned
slots.  Walking the substituted constraint in graded-lex order produces:

* below m, coefficients that vanish identically or pin bbar / dbar through
  a linear equation (these encode the remainder-class upgrades; a pinned
  bbar value is immediately checked against A's coefficient, which is the
  mechanized a = b verification, and pinned half-integer slots must be 0);
* at m, the completing-the-square identity

    c * ( -abar + (2/3)*(bbar - kb)^2 + (1/3)*(dbar - kd)^2 + k )

  with c a nonzero rational and the 2/3, 1/3 diagonal exact.  dbar solves to
  its center kd.  bbar is constrained by minimality of max(a, b) to stay at
  or below A's value at its slot, so it solves to that value, and kb >= that
  value is required as the witness (kb equal to it in the pure-X steps);
  abar then follows.  Cross terms in bbar*dbar are rejected, not
  diagonalized: their appearance would be a genuine failure to surface.

Everything a proof step established is recorded in the ProofLog; failures
carry the longest proven prefix.

One pass.  The schedule reads nothing but the constraint and the values it
has already pinned, and every step certifies its own square, boundary sign,
half-integer zeros and vanishing below the target.  The log of the guessing
pass is therefore the minimality proof: compute_proven_expansion(n) walks the
schedule once, through degree n+1, certifies existence at degrees 1..n, and
checks the P2 -> P3 adjacency on that same log.  Existence at degree k is
read from the constraint at order k+2 with a pure-X tail unknown of A, and
for k <= n-1 that is layer k+2 of the schedule, already expanded with the
tail attached: the certificate substitutes the truncated candidate into it.
Only k = n needs an expansion of its own, so a proof makes n+2 expansions
(n+1 layers and one certificate).  Every step of a layer shares the layer's
absorption audit.  prove_minimality derives the log afresh to check a
candidate that came from elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Optional

from .asym import (
    ScaledAsymptotic, asym_add, asym_div, asym_mul, asym_neg, asym_scalar_mul,
    nu_element, p_of, scale_a, scale_d,
)
from .dickman import q_truncation
from .exact import LogConstant, scale_ratio_as_rational
from .pseries import LOG_RING, TruncatedBiSeries, _grlex_key

DEFAULT_Q_MARGIN = 2
SIGN_CHECK_EPS = 1e-12


# ---------------------------------------------------------------------------
# Failure taxonomy
# ---------------------------------------------------------------------------

@dataclass
class FailureRecord:
    stage: str            # "guess" | "existence" | "minimality"
    degree: Fraction | int
    monomial: Optional[tuple]  # (i, j) as Fractions, when applicable
    message: str
    detail: str = ""


class NfsoptError(Exception):
    pass


class UnknownShapeError(NfsoptError):
    """Constraint expansion left the quadratic-in-unknowns regime."""


class ProofFailure(NfsoptError):
    """A proof stage failed: record says where, partial is the proven prefix."""

    def __init__(self, record: FailureRecord, partial=None):
        super().__init__(record.message)
        self.record = record
        self.partial = partial


class GuessFailure(ProofFailure):
    pass


class ExistenceFailure(ProofFailure):
    pass


class MinimalityFailure(ProofFailure):
    pass


class ContradictionError(ProofFailure):
    """A proven limit disagrees with the guessed coefficient."""


# ---------------------------------------------------------------------------
# The unknown-coefficient ring
# ---------------------------------------------------------------------------

Symbol = tuple  # ("a", dx, dy) | ("b", dx, dy) | ("d", dx, dy)
UMono = tuple   # sorted tuple of (Symbol, power)


class UnknownPoly:
    """Polynomial in the current unknowns over LogConstant, degree <= 2.

    The degree cap is the structural invariant of the constraint expansion:
    a cubic term would mean the truncation-order bookkeeping is broken, so
    multiplication aborts instead of silently carrying it.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[UMono, LogConstant]):
        self.terms = {m: c for m, c in terms.items() if c}

    @classmethod
    def _make(cls, terms: dict[UMono, LogConstant]) -> "UnknownPoly":
        # internal constructor for dicts already free of zero coefficients
        out = object.__new__(cls)
        out.terms = terms
        return out

    @staticmethod
    def from_logconst(c: LogConstant) -> "UnknownPoly":
        return UnknownPoly({(): c})

    @staticmethod
    def from_symbol(sym: Symbol) -> "UnknownPoly":
        return UnknownPoly({((sym, 1),): LogConstant.one()})

    def _coerce(self, other):
        if isinstance(other, UnknownPoly):
            return other
        if isinstance(other, LogConstant):
            return UnknownPoly({(): other})
        if isinstance(other, (int, Fraction)):
            return UnknownPoly({(): LogConstant.from_fraction(other)})
        return NotImplemented

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m)
            s = c if s is None else s + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return UnknownPoly._make(out)

    __radd__ = __add__

    def __neg__(self):
        return UnknownPoly._make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[UMono, LogConstant] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = _umono_mul(m1, m2)
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return UnknownPoly._make(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    def __hash__(self):
        return hash(frozenset(self.terms))

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def constant(self) -> LogConstant:
        return self.terms.get((), LogConstant.zero())

    def unknowns(self) -> set[Symbol]:
        return {sym for m in self.terms for sym, _ in m}

    def degree(self) -> int:
        return max((sum(p for _, p in m) for m in self.terms), default=0)

    def coeff_linear(self, sym: Symbol) -> LogConstant:
        return self.terms.get(((sym, 1),), LogConstant.zero())

    def coeff_square(self, sym: Symbol) -> LogConstant:
        return self.terms.get(((sym, 2),), LogConstant.zero())

    def coeff_cross(self, s1: Symbol, s2: Symbol) -> LogConstant:
        key = tuple(sorted(((s1, 1), (s2, 1))))
        return self.terms.get(key, LogConstant.zero())

    def substitute(self, values: dict[Symbol, LogConstant]) -> "UnknownPoly":
        if not values or not any(sym in values for m in self.terms for sym, _ in m):
            return self
        out: dict[UMono, LogConstant] = {}
        for m, c in self.terms.items():
            residual = []
            for sym, p in m:
                if sym in values:
                    c = c * values[sym] ** p
                else:
                    residual.append((sym, p))
            key = tuple(residual)
            s = out.get(key)
            s = c if s is None else s + c
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return UnknownPoly._make(out)

    def inverse(self) -> "UnknownPoly":
        if not self.is_constant():
            raise UnknownShapeError(f"cannot invert non-constant unknown poly {self}")
        return UnknownPoly({(): self.constant().inverse()})

    def __repr__(self):
        return f"UnknownPoly({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            mono = "*".join(
                _symbol_name(sym) + ("" if p == 1 else f"^{p}") for sym, p in m
            )
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _umono_mul(m1: UMono, m2: UMono) -> UMono:
    if not m1:
        return m2
    if not m2:
        return m1
    merged = dict(m1)
    for sym, p in m2:
        merged[sym] = merged.get(sym, 0) + p
    if sum(merged.values()) > 2:
        raise UnknownShapeError(
            "constraint expansion produced unknown degree > 2: "
            + "*".join(f"{_symbol_name(s)}^{p}" for s, p in merged.items())
        )
    return tuple(sorted(merged.items()))


def _symbol_name(sym: Symbol) -> str:
    kind, dx, dy = sym
    return f"{kind}[{Fraction(dx, 2)},{Fraction(dy, 2)}]"


class UnknownRing:
    def __init__(self):
        self.zero = UnknownPoly({})
        self.one = UnknownPoly.from_logconst(LogConstant.one())

    def from_fraction(self, q) -> UnknownPoly:
        return UnknownPoly.from_logconst(LogConstant.from_fraction(q))

    def from_logconst(self, c: LogConstant) -> UnknownPoly:
        return UnknownPoly.from_logconst(c)

    def inverse(self, c: UnknownPoly) -> UnknownPoly:
        return c.inverse()

    def log_constant(self, c: UnknownPoly) -> UnknownPoly:
        if not c.is_constant():
            raise UnknownShapeError(f"log of non-constant unknown poly {c}")
        return UnknownPoly.from_logconst(LOG_RING.log_constant(c.constant()))

    def eval_f64(self, c: UnknownPoly) -> float:
        if not c.is_constant():
            raise UnknownShapeError("cannot evaluate a symbolic coefficient")
        return c.constant().eval_f64()


UNKNOWN_RING = UnknownRing()


# ---------------------------------------------------------------------------
# Candidate expansions and proof records
# ---------------------------------------------------------------------------

@dataclass
class ProofStep:
    target: tuple            # (i, j) as Fractions, A's monomial
    pattern: str             # "P1" | "P2" | "P3"
    kappa_b: Optional[LogConstant]
    kappa_d: Optional[LogConstant]
    kappa_a: LogConstant     # solved A coefficient
    b_value: LogConstant
    d_value: LogConstant
    b_offset: Optional[LogConstant]  # kappa_b - b_value (the boundary gap)
    slot: tuple              # (i, j) of the B/D slot
    slot_is_integer: bool
    pinned_by: str           # "square" | "linear"
    pendings: list = field(default_factory=list)      # monomials checked below target
    absorptions: list = field(default_factory=list)   # dominated-term drops


@dataclass
class ProofLog:
    steps: list[ProofStep] = field(default_factory=list)

    def pattern_sequence(self) -> list[str]:
        return [s.pattern for s in self.steps]

    def check_pattern_adjacency(self) -> bool:
        """Every P2 step is immediately followed by a P3 step (or is last)."""
        pats = self.pattern_sequence()
        return all(
            pats[i] != "P2" or i + 1 == len(pats) or pats[i + 1] == "P3"
            for i in range(len(pats))
        )

    def half_integer_values(self) -> list[tuple]:
        out = []
        for s in self.steps:
            if not s.slot_is_integer:
                out.append((s.slot, s.b_value, s.d_value))
        return out


@dataclass
class ExistenceCertificate:
    degree: int
    kappa: LogConstant
    slope: Fraction


@dataclass
class CandidateExpansion:
    A: TruncatedBiSeries
    B: TruncatedBiSeries
    D: TruncatedBiSeries
    degA: int
    degB: int
    degD: Fraction
    status: str                 # "guessed" | "existence-certified" | "minimality-proven"
    b_pinned: dict = field(default_factory=dict)   # doubled exponents -> LogConstant
    guess_log: ProofLog = field(default_factory=ProofLog)


@dataclass
class ExpansionResult:
    candidate: CandidateExpansion
    proof_log: ProofLog
    certificates: list
    failure: Optional[FailureRecord] = None

    @property
    def ok(self) -> bool:
        return self.failure is None


# ---------------------------------------------------------------------------
# Constraint assembly
# ---------------------------------------------------------------------------

def build_constraint(
    A: TruncatedBiSeries,
    B: TruncatedBiSeries,
    D: TruncatedBiSeries,
    order,
    q_order: Optional[int] = None,
    audit: Optional[list] = None,
) -> ScaledAsymptotic:
    """p(u0) + p(u1) + 2a - b, normalized by the scale of a.

    u0 = (a + nu/d)/b and u1 = (d*a + nu/d)/b; the smoothness order defaults
    to order + 2 so that truncation error of the Q series never reaches the
    extracted coefficients.
    """
    ring = A.ring
    if q_order is None:
        q_order = _q_order(int(order))
    q = q_truncation(q_order)
    if ring is not LOG_RING:
        q = q.map_coefficients(ring, ring.from_logconst)

    a = ScaledAsymptotic(scale_a(), Fraction(1, 3), Fraction(2, 3), A)
    b = ScaledAsymptotic(scale_a(), Fraction(1, 3), Fraction(2, 3), B)
    d = ScaledAsymptotic(scale_d(), Fraction(1, 3), Fraction(-1, 3), D)
    nu = nu_element(ring, order)

    nu_over_d = asym_div(nu, d)
    u0 = asym_div(asym_add(a, nu_over_d, audit), b)
    u1 = asym_div(asym_add(asym_mul(d, a), nu_over_d, audit), b)

    total = asym_add(p_of(u0, q_order, q), p_of(u1, q_order, q), audit)
    total = asym_add(total, asym_scalar_mul(a, 2), audit)
    total = asym_add(total, asym_neg(b), audit)

    if (total.nu_exp, total.lognu_exp) != (Fraction(1, 3), Fraction(2, 3)):
        raise NfsoptError(
            f"constraint landed at unexpected scale nu^{total.nu_exp}"
            f" (log nu)^{total.lognu_exp}"
        )
    ratio = scale_ratio_as_rational(total.scale, scale_a())
    if ratio is None:
        raise NfsoptError("constraint scale is not a rational multiple of scale(a)")
    series = total.series.scale(ratio).truncate(order)
    return ScaledAsymptotic(scale_a(), Fraction(1, 3), Fraction(2, 3), series)


def constraint_residual(cand: CandidateExpansion, order=None, q_order=None) -> TruncatedBiSeries:
    """Normalized constraint series for a plain candidate (no unknowns)."""
    if order is None:
        order = cand.degA
    A = cand.A.truncate(order)
    B = cand.B.truncate(order)
    D = cand.D.truncate(order)
    return build_constraint(A, B, D, order, q_order=q_order).series


# ---------------------------------------------------------------------------
# Pattern classification
# ---------------------------------------------------------------------------

def classify_pattern(i, j) -> str:
    """Equation pattern for remainder monomial X^i Y^j: mixed monomials are
    P1, pure-Y monomials are P2, pure-X monomials are P3."""
    i, j = Fraction(i), Fraction(j)
    if i == 0 and j == 0:
        raise ValueError("pattern classification needs (i, j) != (0, 0)")
    if i == 0:
        return "P2"
    if j == 0:
        return "P3"
    return "P1"


# ---------------------------------------------------------------------------
# The per-target solving engine
# ---------------------------------------------------------------------------

_TWO_THIRDS = Fraction(2, 3)
_ONE_THIRD = Fraction(1, 3)


class _State:
    """Known coefficients while the schedule advances (doubled exponents)."""

    def __init__(self):
        one = LogConstant.one()
        self.A: dict[tuple, LogConstant] = {(0, 0): one}
        self.D: dict[tuple, LogConstant] = {(0, 0): one}
        self.B_pinned: dict[tuple, LogConstant] = {}
        self.log = ProofLog()
        self.layers: dict[int, TruncatedBiSeries] = {}  # degree -> its expansion

    def a_value_at(self, mono: tuple) -> LogConstant:
        if mono[0] % 2 == 0 and mono[1] % 2 == 0:
            return self.A.get(mono, LogConstant.zero())
        return LogConstant.zero()

    def candidate(self, deg: int, status: str) -> CandidateExpansion:
        ring = LOG_RING
        a_terms = {m: c for m, c in self.A.items() if m[0] + m[1] <= 2 * deg}
        a_series = TruncatedBiSeries(ring, deg, a_terms)
        deg_b = max(deg - 1, 0)
        b_series = a_series.truncate(deg_b)
        deg_d = Fraction(deg, 2)
        d_terms = {m: c for m, c in self.D.items() if m[0] + m[1] <= deg}
        d_series = TruncatedBiSeries(ring, deg_d, d_terms)
        return CandidateExpansion(
            A=a_series, B=b_series, D=d_series,
            degA=deg, degB=deg_b, degD=deg_d, status=status,
            b_pinned=dict(self.B_pinned), guess_log=self.log,
        )


def _q_order(order: int, cap: Optional[int] = None) -> int:
    # smoothness order for an expansion at `order`: the Q-series margin, capped
    q_order = order + DEFAULT_Q_MARGIN
    return q_order if cap is None else min(q_order, cap)


def _integer_targets(k: int) -> list[tuple]:
    # doubled exponents of degree-k integer monomials, graded-lex (X-heavy first)
    return [(2 * (k - i), 2 * i) for i in range(k + 1)]


def _exact_sign(value: LogConstant, context: str) -> int:
    """Sign of an exact constant; 0 only for the exact zero.  Nonzero values
    are signed by float evaluation with a guard band, since algebraic
    independence of log 2 and log 3 is not something we get to assume."""
    if value.is_zero():
        return 0
    v = value.eval_f64()
    if abs(v) < SIGN_CHECK_EPS:
        raise NfsoptError(
            f"{context}: cannot certify sign of {value} (evaluates to {v})"
        )
    return 1 if v > 0 else -1


def _layer_symbols(k: int) -> list[Symbol]:
    # the unknowns of degree layer k: A and B's a = b copy of it at each
    # target, B and D at the target's slot
    out = []
    for t in _integer_targets(k):
        s = (t[0] // 2, t[1] // 2)
        out += [("a", *t), ("b", *t), ("b", *s), ("d", *s)]
    return out


def _expand_layer(A: dict, D: dict, symbols: list[Symbol], order: int,
                  q_order: int) -> tuple[TruncatedBiSeries, list]:
    """Expand the constraint once at `order` over the known A and D
    coefficients, B being A's a = b copy, with `symbols` attached on top.

    Returns the series and its absorption audit.
    """
    ring = UNKNOWN_RING
    lift = ring.from_logconst
    a_terms = {m: lift(c) for m, c in A.items()}
    terms = {"a": a_terms, "b": dict(a_terms), "d": {m: lift(c) for m, c in D.items()}}
    for sym in symbols:
        terms[sym[0]][sym[1:]] = UnknownPoly.from_symbol(sym)
    trials = [TruncatedBiSeries(ring, order, terms[kind]) for kind in "abd"]
    audit: list = []
    series = build_constraint(*trials, order, q_order=q_order, audit=audit).series
    return series, [ev.describe() for ev in audit]


def _solve_target(state: _State, series: TruncatedBiSeries, absorptions: list,
                  target: tuple) -> None:
    """Run one schedule step: substitute into the layer, pin coefficients."""
    k = (target[0] + target[1]) // 2
    slot = (target[0] // 2, target[1] // 2)
    slot_is_integer = slot[0] % 2 == 0 and slot[1] % 2 == 0

    a_sym: Symbol = ("a", *target)
    b_sym: Symbol = ("b", *slot)
    d_sym: Symbol = ("d", *slot)

    # the step's own a, b, d stay free; every other layer unknown takes its
    # known value: A (and B's a = b fill) as solved so far, D as pinned, else 0
    zero = LogConstant.zero()
    solved: dict[Symbol, LogConstant] = {
        sym: (state.D if sym[0] == "d" else state.A).get(sym[1:], zero)
        for sym in _layer_symbols(k) if sym not in (a_sym, b_sym, d_sym)
    }

    def fail(message, mono=None, detail=""):
        record = FailureRecord(
            "guess", k, _frac_pair(mono) if mono else _frac_pair(target), message, detail
        )
        raise GuessFailure(record, partial=state.candidate(k - 1, "guessed"))

    deferred: list[tuple[tuple, UnknownPoly]] = []
    pendings: list[tuple] = []
    pinned_by = {"b": None, "d": None}

    def try_linear(mono: tuple, poly: UnknownPoly) -> bool:
        unknowns = poly.unknowns()
        if len(unknowns) != 1 or poly.degree() != 1:
            return False
        sym = next(iter(unknowns))
        if sym == a_sym:
            fail(
                "target coefficient appeared below its own monomial",
                mono, detail=str(poly),
            )
        coeff = poly.coeff_linear(sym)
        value = -(poly.constant() / coeff)
        want = state.a_value_at(sym[1:])
        if sym[0] == "b" and value != want:
            raise ContradictionError(FailureRecord(
                "guess", k, _frac_pair(mono),
                f"pinned {_symbol_name(sym)} = {value} but the a=b fill expects {want}",
                detail=str(poly),
            ))
        solved[sym] = value
        pinned_by[sym[0]] = pinned_by[sym[0]] or "linear"
        pendings.append((_frac_pair(mono), f"pinned {_symbol_name(sym)} = {value}"))
        return True

    def drain_deferred():
        progress = True
        while progress:
            progress = False
            remaining = []
            for mono, poly in deferred:
                poly = poly.substitute(solved)
                if not poly:
                    pendings.append((_frac_pair(mono), "vanished"))
                    progress = True
                elif try_linear(mono, poly):
                    progress = True
                else:
                    remaining.append((mono, poly))
            deferred[:] = remaining

    step_record = None
    monos = sorted(series.terms, key=_grlex_key)
    target_key = _grlex_key(target)
    for mono in monos:
        if _grlex_key(mono) > target_key:
            continue  # belongs to a later step's schedule
        poly = series.terms[mono].substitute(solved)
        if not poly:
            continue
        if mono == target:
            step_record = _solve_square(
                state, poly, target, slot, slot_is_integer,
                a_sym, b_sym, d_sym, solved, pinned_by, fail,
            )
            drain_deferred()
        elif poly.is_constant():
            fail(
                "nonvanishing known coefficient below the target",
                mono, detail=str(poly),
            )
        elif not try_linear(mono, poly):
            deferred.append((mono, poly))
            drain_deferred()

    if step_record is None:
        fail("target coefficient missing from the expansion")
    drain_deferred()
    if deferred:
        mono, poly = deferred[0]
        fail("unresolved coefficient below the target", mono, detail=str(poly))

    # final sweep: everything at or below the target must vanish now
    for mono in monos:
        if _grlex_key(mono) > target_key:
            continue
        if series.terms[mono].substitute(solved):
            fail("residual coefficient after solving", mono,
                 detail=str(series.terms[mono].substitute(solved)))

    step_record.pendings = pendings
    step_record.absorptions = list(absorptions)
    state.A[target] = solved[a_sym]
    if solved[d_sym]:
        state.D[slot] = solved[d_sym]
    if solved[b_sym]:
        state.B_pinned[slot] = solved[b_sym]
    state.log.steps.append(step_record)


def _solve_square(
    state, poly, target, slot, slot_is_integer,
    a_sym, b_sym, d_sym, solved, pinned_by, fail,
) -> ProofStep:
    """Check the canonical quadratic shape at the target and pin values."""
    strays = poly.unknowns() - {a_sym, b_sym, d_sym}
    if strays:
        fail(
            "foreign unknowns in the target coefficient: "
            + ", ".join(sorted(map(_symbol_name, strays))),
            detail=str(poly),
        )
    c_a = poly.coeff_linear(a_sym)
    if not c_a.is_rational() or c_a.is_zero():
        fail("target coefficient is not rational-linear in the new A unknown",
             detail=str(poly))
    if poly.coeff_square(a_sym) or poly.coeff_cross(a_sym, b_sym) or poly.coeff_cross(a_sym, d_sym):
        fail("A unknown appears nonlinearly", detail=str(poly))
    c = -c_a.as_fraction()  # overall factor, poly = c * (-abar + ...)
    norm = poly * LogConstant.from_fraction(Fraction(1, 1) / c)

    if norm.coeff_cross(b_sym, d_sym):
        fail("cross term in the B and D unknowns (rejected, not diagonalized)",
             detail=str(poly))

    kappa_b = kappa_d = None
    b_free = b_sym not in solved
    d_free = d_sym not in solved
    if b_free:
        h_b = norm.coeff_square(b_sym)
        if not (h_b.is_rational() and h_b.as_fraction() == _TWO_THIRDS):
            fail(f"B-unknown square coefficient is {h_b}, not 2/3", detail=str(poly))
        kappa_b = -(norm.coeff_linear(b_sym) / LogConstant.from_fraction(2 * _TWO_THIRDS))
    if d_free:
        h_d = norm.coeff_square(d_sym)
        if not (h_d.is_rational() and h_d.as_fraction() == _ONE_THIRD):
            fail(f"D-unknown square coefficient is {h_d}, not 1/3", detail=str(poly))
        kappa_d = -(norm.coeff_linear(d_sym) / LogConstant.from_fraction(2 * _ONE_THIRD))

    # bbar: the a = b boundary value; kappa_b must not fall below it
    b_offset = None
    if b_free:
        b_value = state.a_value_at(slot)
        b_offset = kappa_b - b_value
        if _exact_sign(b_offset, "minimality boundary for the B unknown") < 0:
            fail(
                f"square center {kappa_b} lies below the a=b baseline {b_value}:"
                " the guessed A = B structure is violated (research event)",
                detail=str(poly),
            )
        solved[b_sym] = b_value
        pinned_by["b"] = pinned_by["b"] or "square"
    else:
        b_value = solved[b_sym]
    if d_free:
        solved[d_sym] = kappa_d
        pinned_by["d"] = pinned_by["d"] or "square"
    d_value = solved[d_sym]

    # abar follows from the vanishing of the completed square at the solution
    affine = poly.substitute(solved)
    if affine.unknowns() != {a_sym} or affine.degree() != 1:
        fail("target equation did not reduce to an affine equation in A's unknown",
             detail=str(affine))
    a_value = -(affine.constant() / affine.coeff_linear(a_sym))
    solved[a_sym] = a_value

    if not slot_is_integer:
        for sym, val, name in ((b_sym, b_value, "B"), (d_sym, d_value, "D")):
            if val:
                fail(f"half-integer {name} slot pinned to a nonzero value {val}",
                     detail=str(poly))

    i, j = _frac_pair(target)
    return ProofStep(
        target=(i, j),
        pattern=classify_pattern(i, j),
        kappa_b=kappa_b,
        kappa_d=kappa_d,
        kappa_a=a_value,
        b_value=b_value,
        d_value=d_value,
        b_offset=b_offset,
        slot=_frac_pair(slot),
        slot_is_integer=slot_is_integer,
        pinned_by=f"b:{pinned_by['b']},d:{pinned_by['d']}",
    )


def _frac_pair(mono: tuple) -> tuple:
    return (Fraction(mono[0], 2), Fraction(mono[1], 2))


def _run_schedule(n: int, q_order_cap: Optional[int] = None) -> _State:
    """Solve every integer target of A through degree n+1, in schedule order,
    expanding the constraint once per degree layer."""
    state = _State()
    for k in range(1, n + 2):
        series, absorptions = _expand_layer(
            state.A, state.D, _layer_symbols(k), k, _q_order(k, q_order_cap))
        state.layers[k] = series
        for target in _integer_targets(k):
            _solve_target(state, series, absorptions, target)
    return state


# ---------------------------------------------------------------------------
# Public algorithms
# ---------------------------------------------------------------------------

def guess_terms(n: int, q_order_cap: Optional[int] = None) -> CandidateExpansion:
    """Walk the solving schedule for a degree-n run and return its candidate.

    The slot schedule trails the targets at half their degree, so pinning
    B through degree n and D through degree (n+1)/2 requires targeting A's
    monomials through degree n+1; the returned candidate carries all of it
    (degA = n+1, degB = n, degD = (n+1)/2) with status guessed.  Its
    guess_log is the full proof log of the schedule: compute_proven_expansion
    walks the same schedule and adds only the existence certificates and the
    P2 -> P3 adjacency check.
    """
    if n < 1:
        raise ValueError("guess_terms needs n >= 1")
    return _run_schedule(n, q_order_cap).candidate(n + 1, "guessed")


def _certify_existence(k: int, series: TruncatedBiSeries,
                       cand: CandidateExpansion) -> ExistenceCertificate:
    """Read the degree-k existence certificate off an order-(k+2) expansion.

    The tail unknown is A's at X^(k+2).  Every other attached unknown takes
    its value in the truncated trial: A^(k+1) for a and b, D^((k+1)/2) for d,
    0 past the truncation.  Then the constraint must vanish below X^(k+2),
    and its coefficient there must be affine in the tail with a nonzero
    rational slope.
    """
    dominant = (2 * (k + 2), 0)
    tail: Symbol = ("a", *dominant)
    a_terms = cand.A.truncate(k + 1).terms
    d_terms = cand.D.truncate(Fraction(k + 1, 2)).terms
    zero = LogConstant.zero()
    values = {sym: (d_terms if sym[0] == "d" else a_terms).get(sym[1:], zero)
              for sym in _layer_symbols(k + 2) if sym != tail}
    dominant_key = _grlex_key(dominant)
    for mono in sorted(series.terms, key=_grlex_key):
        if _grlex_key(mono) >= dominant_key:
            break
        poly = series.terms[mono].substitute(values)
        if poly:
            raise ExistenceFailure(FailureRecord(
                "existence", k, _frac_pair(mono),
                "nonvanishing coefficient below the dominant monomial"
                " (candidate does not satisfy the constraint)",
                detail=str(poly),
            ))
    poly = series.terms.get(dominant, UNKNOWN_RING.zero).substitute(values)
    slope = poly.coeff_linear(tail)
    if poly.degree() != 1 or poly.unknowns() != {tail} or not slope.is_rational() or slope.is_zero():
        raise ExistenceFailure(FailureRecord(
            "existence", k, _frac_pair(dominant),
            "dominant coefficient is not affine in the tail unknown with"
            " nonzero rational slope",
            detail=str(poly),
        ))
    kappa = -(poly.constant() / slope)
    # For k = 1 the trial D = D^(1) is exact through every order the dominant
    # monomial can see, so kappa coincides with the next pure-X coefficient
    # of A; at higher degrees the (k+1)/2 truncation of D shifts the witness
    # by square terms of D's tail, so kappa is recorded, not matched.
    return ExistenceCertificate(degree=k, kappa=kappa, slope=slope.as_fraction())


def prove_existence(n: int, cand: CandidateExpansion,
                    q_order_cap: Optional[int] = None) -> ExistenceCertificate:
    """Certify functions matching A^(n+1), B^(n+1), D^((n+1)/2) exist on the
    constraint, by pinning a pure-X tail perturbation of A at degree n+2."""
    if n < 1:
        raise ValueError("prove_existence needs n >= 1")
    if cand.degA < n + 1:
        raise ValueError(f"candidate guessed only to degree {cand.degA}, need {n + 1}")
    series, _ = _expand_layer(
        cand.A.truncate(n + 1).terms, cand.D.truncate(Fraction(n + 1, 2)).terms,
        [("a", 2 * (n + 2), 0)], n + 2, _q_order(n + 2, q_order_cap))
    return _certify_existence(n, series, cand)


def prove_minimality(n: int, cand: CandidateExpansion,
                     cert: ExistenceCertificate,
                     q_order_cap: Optional[int] = None) -> ProofLog:
    """Check a supplied candidate against a freshly derived proof log.

    The schedule is walked once through degree n+1, independently of cand;
    then, step by step, the solved A coefficient at the target, A at an
    integer slot (the a = b value of B) and D at the slot must equal cand's.
    The first mismatch raises ContradictionError; otherwise the derived log
    is returned.  compute_proven_expansion does not call this: its own
    schedule pass is the proof.
    """
    if cert.degree < n:
        raise ValueError(f"existence certified only at degree {cert.degree}, need {n}")
    if cand.degA < n + 1:
        raise ValueError(f"candidate guessed only to degree {cand.degA}, need {n + 1}")
    log = _run_schedule(n, q_order_cap).log
    _check_adjacency(log, n)
    for step in log.steps:
        checks = [("A", step.target, step.kappa_a, cand.A)]
        if step.slot_is_integer:
            checks.append(("B", step.slot, step.b_value, cand.A))
        checks.append(("D", step.slot, step.d_value, cand.D))
        for name, (i, j), proven, series in checks:
            supplied = series.coefficient(i, j)
            if proven != supplied:
                raise ContradictionError(FailureRecord(
                    "minimality", int(sum(step.target)), step.target,
                    f"proven limit for {name}[{i},{j}] is {proven},"
                    f" contradicting the supplied {supplied}",
                ))
    return log


def compute_proven_expansion(n: int, q_order_cap: Optional[int] = None) -> ExpansionResult:
    """Prove the degree-n expansion in one schedule pass.

    The schedule solves A through degree n+1 and its log is the proof
    log; existence is certified at degrees 1..n-1 from the schedule's own
    layers k+2 and at degree n by prove_existence, and the log must satisfy
    the P2 -> P3 adjacency rule.  B is reported one degree behind A and D
    at half degree.
    """
    if n < 2:
        raise ValueError("compute_proven_expansion needs n >= 2")
    certificates: list[ExistenceCertificate] = []
    cand: Optional[CandidateExpansion] = None
    try:
        state = _run_schedule(n, q_order_cap)
        cand = state.candidate(n + 1, "guessed")
        for k in range(1, n):
            certificates.append(_certify_existence(k, state.layers[k + 2], cand))
        certificates.append(prove_existence(n, cand, q_order_cap=q_order_cap))
        _check_adjacency(cand.guess_log, n)
    except ProofFailure as exc:
        partial = exc.partial or cand or _State().candidate(0, "guessed")
        return ExpansionResult(partial, partial.guess_log, certificates, failure=exc.record)
    proven = replace(cand, status="minimality-proven")
    return ExpansionResult(proven, proven.guess_log, certificates)


def _check_adjacency(log: ProofLog, n: int) -> None:
    if not log.check_pattern_adjacency():
        raise MinimalityFailure(FailureRecord(
            "minimality", n, None,
            f"pattern sequence violates the P2->P3 adjacency rule: {log.pattern_sequence()}",
        ))
