"""The optimization core: expansion of the parameter constraint with
unknown coefficients attached, the solving schedule whose log proves the
asymptotic series of the minimizing parameters term by term, and the
existence certificates for its truncations.

Setup.  The three parameter logs are normalized as

    a = (8/9)^(1/3) * nu^(1/3) (log nu)^(2/3) * A(X, Y),
    b = (8/9)^(1/3) * nu^(1/3) (log nu)^(2/3) * B(X, Y),
    d =     3^(1/3) * nu^(1/3) (log nu)^(-1/3) * D(X, Y),

with A(0,0) = B(0,0) = D(0,0) = 1, and the constraint

    p((a + nu/d)/b) + p((d*a + nu/d)/b) + 2a - b = 0

is expanded with the smoothness map p of the asym module, its series Q
truncated at the expansion's own order, then divided by the scale of a.
With unknown coefficients attached, each in place of its slot's known
value, each coefficient of the expansion is an exact polynomial (of degree
<= 2) in them, an UnknownPoly, assembled by Taylor's formula from builds
over the known coefficients (see _expand_layer).

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
checks the P2 -> P3 adjacency on that same log.  Existence at degree k
substitutes the truncated candidate into the constraint at order k+2: it
must vanish below X^(k+2), and minus its coefficient there over F_A(0),
its slope in A's coefficient at X^(k+2), is the witness (_certify_existence).
The expansion read is layer k+2 of the schedule for k <= n-1, and at k = n
layer n+1 and one expansion in X alone (see prove_existence).  So a proof
makes n+1 layer expansions, each a plain build and a jet build, and one
plain build in X alone, none above order n+1 in both variables.  Every
step of a layer shares the layer's absorption audit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .asym import (
    FoldEvent, ScaledAsymptotic, asym_add, asym_div, asym_inv, asym_mul, asym_neg,
    asym_scalar_mul, nu_element, p_of, scale_a, scale_d,
)
from .exact import LogConstant, scale_ratio_as_rational
from .pseries import TruncatedBiSeries, _grlex_key

# the finest enclosure of log 2 and log 3, in bits, that _exact_sign tries
_SIGN_MAX_BITS = 4096


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
    """A linearly pinned B coefficient disagrees with A's a = b fill."""


# ---------------------------------------------------------------------------
# Polynomials in the unknown coefficients
# ---------------------------------------------------------------------------

Symbol = tuple  # ("a", dx, dy) | ("b", dx, dy) | ("d", dx, dy)
UMono = tuple   # sorted tuple of symbols, one per factor: (), (s,) or (s, t)


def _mono_product(m1: UMono, m2: UMono) -> Optional[UMono]:
    # the product of two unknown monomials, None past degree 2
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m1) + len(m2) > 2:
        return None
    return m1 + m2 if m1 <= m2 else m2 + m1


class UnknownPoly:
    """Polynomial in the current unknowns over LogConstant, degree <= 2.

    The degree cap is the structural invariant of the constraint expansion:
    a cubic term would mean the truncation-order bookkeeping is broken, so
    multiplication aborts instead of silently carrying it.  A monomial is
    the sorted tuple of its symbols, one entry per factor, so no power is
    ever stored: a square is (s, s).
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
    def mono_mul(m1: UMono, m2: UMono) -> UMono:
        """The product of two unknown monomials; past degree 2 it raises
        UnknownShapeError (the series product calls this too)."""
        m = _mono_product(m1, m2)
        if m is None:
            raise UnknownShapeError(
                "constraint expansion produced unknown degree > 2: " + _umono_str(m1 + m2, "^1"))
        return m

    @staticmethod
    def from_logconst(c: LogConstant) -> "UnknownPoly":
        return UnknownPoly({(): c})

    @staticmethod
    def from_symbol(sym: Symbol) -> "UnknownPoly":
        return UnknownPoly({(sym,): LogConstant.one()})

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
        return self._make(out)

    __radd__ = __add__

    def __neg__(self):
        return self._make({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, LogConstant):  # a scalar: Q[l2, l3] has no zero divisors
            return self._make({m: c * other for m, c in self.terms.items()} if other else {})
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[UMono, LogConstant] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = self.mono_mul(m1, m2)
                if m is None:
                    continue
                c = c1 * c2
                s = out.get(m)
                s = c if s is None else s + c
                if s:
                    out[m] = s
                else:
                    out.pop(m, None)
        return self._make(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if set(self.terms) != set(other.terms):
            return False
        return all(self.terms[m] == other.terms[m] for m in self.terms)

    def __hash__(self):
        # a constant poly equals its constant, so it hashes as that constant
        if self.is_constant():
            return hash(self.constant())
        return hash(frozenset(self.terms))

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {()}

    def constant(self) -> LogConstant:
        return self.terms.get((), LogConstant.zero())

    def unknowns(self) -> set[Symbol]:
        return {sym for m in self.terms for sym in m}

    def degree(self) -> int:
        return max(map(len, self.terms), default=0)

    def coeff_linear(self, sym: Symbol) -> LogConstant:
        return self.terms.get((sym,), LogConstant.zero())

    def coeff_square(self, sym: Symbol) -> LogConstant:
        return self.terms.get((sym, sym), LogConstant.zero())

    def coeff_cross(self, s1: Symbol, s2: Symbol) -> LogConstant:
        if s1 == s2:
            return LogConstant.zero()
        return self.terms.get((s1, s2) if s1 < s2 else (s2, s1), LogConstant.zero())

    def substitute(self, values: dict[Symbol, LogConstant]) -> "UnknownPoly":
        if not values or not any(sym in values for m in self.terms for sym in m):
            return self
        out: dict[UMono, LogConstant] = {}
        for m, c in self.terms.items():
            residual = []
            for sym in m:
                if sym in values:
                    c = c * values[sym]
                else:
                    residual.append(sym)
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
        return f"{type(self).__name__}({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        # fewer distinct unknowns first, then by symbol, a square after its linear term
        for m, c in sorted(self.terms.items(), key=lambda kv: (len(set(kv[0])), kv[0])):
            mono = _umono_str(m)
            parts.append(f"({c})" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


def _umono_str(m: UMono, first_power: str = "") -> str:
    # each distinct symbol once, in order of first appearance, as s^2 when repeated
    return "*".join(_symbol_name(sym) + (first_power if m.count(sym) == 1 else f"^{m.count(sym)}")
                    for sym in dict.fromkeys(m))


def _symbol_name(sym: Symbol) -> str:
    kind, dx, dy = sym
    return f"{kind}[{Fraction(dx, 2)},{Fraction(dy, 2)}]"


class Jet(UnknownPoly):
    """A first-order jet: a value over LogConstant plus its parts in the
    perturbations of the kinds _add_derivative_terms perturbs (B and D),
    each the symbol of its kind at X^(1/2).  A product drops every product
    of two perturbations: jets compute in the quotient of the coefficient
    ring by the ideal those products generate, a ring homomorphism, so the
    value and first-order parts they keep are exact.
    """

    __slots__ = ()

    @staticmethod
    def mono_mul(m1: UMono, m2: UMono) -> Optional[UMono]:
        return None if m1 and m2 else m1 or m2


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
    status: str                 # "guessed" | "minimality-proven" | "exact" (degree 0)
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
    audit: Optional[list] = None,
) -> TruncatedBiSeries:
    """The series F with p(u0) + p(u1) + 2a - b = scale(a) nu^(1/3) (log nu)^(2/3) F.

    u0 = (a + nu/d)/b and u1 = (d*a + nu/d)/b; the smoothness series Q is
    expanded to `order` itself.  That is exact: X(u) and Y(u) have no
    constant term, so a term of Q beyond degree `order` composes to terms
    beyond it.
    """
    n = int(order)

    a = ScaledAsymptotic(scale_a(), Fraction(1, 3), Fraction(2, 3), A)
    b = ScaledAsymptotic(scale_a(), Fraction(1, 3), Fraction(2, 3), B)
    d = ScaledAsymptotic(scale_d(), Fraction(1, 3), Fraction(-1, 3), D)
    nu = nu_element(order)

    nu_over_d = asym_div(nu, d)
    b_inv = asym_inv(b)
    u0 = asym_mul(asym_add(a, nu_over_d, audit), b_inv)
    u1 = asym_mul(asym_add(asym_mul(d, a), nu_over_d, audit), b_inv)

    total = asym_add(p_of(u0, n), p_of(u1, n), audit)
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
    return total.series.scale(ratio).truncate(order)


def constraint_residual(cand: CandidateExpansion, order=None) -> TruncatedBiSeries:
    """Normalized constraint series for a plain candidate (no unknowns).

    A series shorter than `order` enters zero-padded up to it.
    """
    if order is None:
        order = cand.degA
    A, B, D = (s.truncate(min(order, s.order)).with_order(order) for s in (cand.A, cand.B, cand.D))
    return build_constraint(A, B, D, order)


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
        a_terms = {m: c for m, c in self.A.items() if m[0] + m[1] <= 2 * deg}
        a_series = TruncatedBiSeries(deg, a_terms)
        deg_b = max(deg - 1, 0)
        b_series = a_series.truncate(deg_b)
        deg_d = Fraction(deg, 2)
        d_terms = {m: c for m, c in self.D.items() if m[0] + m[1] <= deg}
        d_series = TruncatedBiSeries(deg_d, d_terms)
        return CandidateExpansion(
            A=a_series, B=b_series, D=d_series,
            degA=deg, degB=deg_b, degD=deg_d, status=status,
            b_pinned=dict(self.B_pinned), guess_log=self.log,
        )


def _integer_targets(k: int) -> list[tuple]:
    # doubled exponents of degree-k integer monomials, graded-lex (X-heavy first)
    return [(2 * (k - i), 2 * i) for i in range(k + 1)]


def _exact_sign(value: LogConstant, context: str) -> int:
    """Sign of an exact constant; 0 only for the exact zero.  A non-rational
    value is signed by rational enclosures of log 2 and log 3, refined until
    its enclosure excludes 0, since algebraic independence of log 2 and log 3
    is not something we get to assume."""
    if value.is_rational():
        q = value.as_fraction()
        return (q > 0) - (q < 0)
    bits = 64
    while bits <= _SIGN_MAX_BITS:
        lo, hi = value.enclose(bits)
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        bits *= 2
    raise NfsoptError(
        f"{context}: cannot certify sign of {value}"
        f" (encloses 0 at {_SIGN_MAX_BITS} bits: [{float(lo)!r}, {float(hi)!r}])"
    )


def _layer_symbols(k: int) -> list[Symbol]:
    # the unknowns of degree layer k: A and B's a = b copy of it at each
    # target, B and D at the target's slot
    out = []
    for t in _integer_targets(k):
        s = (t[0] // 2, t[1] // 2)
        out += [("a", *t), ("b", *t), ("b", *s), ("d", *s)]
    return out


def _known_values(k: int, A: dict, D: dict, free: tuple) -> dict[Symbol, LogConstant]:
    # every unknown of layer k but the free ones at its known value: d from D,
    # a and b (B's a = b fill) from A, 0 where nothing is known
    zero = LogConstant.zero()
    return {sym: (D if sym[0] == "d" else A).get(sym[1:], zero)
            for sym in _layer_symbols(k) if sym not in free}


# every perturbation is the symbol of its kind at X^(1/2), of positive degree
_EPS = (1, 0)


def _trials(terms: dict, order, y_max) -> list[TruncatedBiSeries]:
    # the trial series of A, B and D at `order`, modulo Y^(> y_max) if given
    trials = [TruncatedBiSeries(order, terms[kind]) for kind in "abd"]
    return trials if y_max is None else [t.y_bounded(y_max) for t in trials]


def _expand_layer(A: dict, D: dict, symbols: list[Symbol], order: int,
                  y_max=None) -> tuple[TruncatedBiSeries, list]:
    """Expand the constraint once at `order` over the known A and D
    coefficients, B being A's a = b copy, with each of `symbols` in place
    of its slot's known value; modulo every term of Y exponent above
    `y_max` when it is given.  Returns the series, every coefficient an
    UnknownPoly, and the absorption audit of the build.

    No series is built over the unknowns.  Write the trial as P0 + dP, P0
    the known coefficients with the attached slots left empty and dP the
    attached unknowns themselves.  Every operation of build_constraint is a
    ring operation or an analytic map of the series ring (products,
    inverse, log, composition with Q, shifts), so Taylor's formula holds
    there:

        F(P0 + dP) = F0 + F_A dA + F_B dB + F_D dD + sum_{k<=l} c_kl dk dl + ...

    with F0 the plain build, c_kk = F_kk / 2 and c_kl = F_kl.  Every
    unknown has degree >= order/2 (checked), so at `order` the terms of
    order three in dP vanish, c_kl is needed at degree 0 only, and F_k
    through order minus the lowest degree of a k unknown: degree 0 for A,
    whose unknowns sit at the order, and order/2 for the B and D slots.
    The degree-0 parts are the same in every layer (_add_derivative_terms
    says why) and come from one cached build.  The formula is exact, so the
    series is the one the build with the unknowns attached would give.
    """
    base = {"a": dict(A), "b": dict(A), "d": dict(D)}
    for sym in symbols:
        base[sym[0]].pop(sym[1:], None)
    audit: list = []
    f0 = build_constraint(*_trials(base, order, y_max), order, audit=audit)
    out = {e: {(): c} for e, c in f0.terms.items()}
    if symbols:
        _add_derivative_terms(out, base, symbols, f0.order2)
    polys = {e: UnknownPoly(coeffs) for e, coeffs in out.items()}
    return TruncatedBiSeries._make(f0.order2, polys, f0.ymax2), audit


@lru_cache(maxsize=None)
def _base_point() -> tuple[dict, dict]:
    """F_k at degree 0 by kind k, and c_kl by pair of kinds (k, l), read off
    the build of A, B, D = 1 + a, b, d X^(1/2) with the symbols a, b, d
    attached, at order 1 modulo Y: its coefficient at X^(1/2) is sum F_k k,
    and the one at X has quadratic part sum c_kl k l.  Built on first use.
    F_A is the slope of every existence certificate, so it must be a
    nonzero rational (checked)."""
    trials = {k: {(0, 0): LogConstant.one(), _EPS: UnknownPoly.from_symbol((k, *_EPS))} for k in "abd"}
    f = build_constraint(*_trials(trials, 1, 0), 1)
    first = {kind: f.terms[_EPS].coeff_linear((kind, *_EPS)) for kind in "abd"}
    if not first["a"].is_rational() or first["a"].is_zero():
        raise NfsoptError(f"F_A at degree 0 is {first['a']}, not a nonzero rational")
    return first, {(m[0][0], m[1][0]): c for m, c in f.terms[(2, 0)].terms.items() if len(m) == 2}


def _add_derivative_terms(out: dict, base: dict, symbols: list[Symbol], order2: int) -> None:
    """Add the Taylor terms of first and second order in `symbols` to `out`,
    {exponent: {unknown monomial: LogConstant}}, through doubled order2.

    Truncation to degree 0 is a ring homomorphism every operation of the
    build respects, so F_k at degree 0 and c_kl see only A0 = B0 = D0 = 1
    (checked) and the fixed scales: they are the same for every layer, and
    come from _base_point.  Only a kind with an unknown below the order is
    perturbed, in one build over first-order Jets, whose part in kind k is
    F_k X^(1/2).  The jet build keeps no Y bound: dropping the terms past
    one commutes with the build, and _expand_layer's series drops them.
    """
    zero = LogConstant.zero()
    deltas: dict[str, list] = {kind: [] for kind in "abd"}  # (exponent, symbol)
    for sym in symbols:
        deltas[sym[0]].append((sym[1:], sym))
    low2 = min(sym[1] + sym[2] for sym in symbols)
    if not low2 or 2 * low2 < order2:
        raise UnknownShapeError(
            f"an unknown of degree {Fraction(low2, 2)} < order/2 = {Fraction(order2, 4)}")
    if any(terms.get((0, 0)) != 1 for terms in base.values()):
        raise NfsoptError("the derivatives at degree 0 are taken at A(0) = B(0) = D(0) = 1")

    f_zero, second = _base_point()
    first = {kind: {(0, 0): c} if c else {} for kind, c in f_zero.items()}  # F_k
    perturbed = {sym[0] for sym in symbols if sym[1] + sym[2] < order2}
    if perturbed:
        jet_order = Fraction(order2 - low2 + 1, 2)
        jets = {kind: {e: c for e, c in base[kind].items() if sum(e) <= 2 * jet_order} for kind in "abd"}
        for kind in perturbed:
            jets[kind][_EPS] = Jet({(): jets[kind].get(_EPS, zero), ((kind, *_EPS),): LogConstant.one()})
        for e, c in build_constraint(*_trials(jets, jet_order, None), jet_order).terms.items():
            if isinstance(c, Jet):
                for m, v in c.terms.items():
                    if m:
                        first[m[0][0]][(e[0] - _EPS[0], e[1])] = v

    def put(e, m, c):
        coeffs = out.setdefault(e, {})
        coeffs[m] = coeffs[m] + c if m in coeffs else c

    for kind, entries in deltas.items():
        for (sx, sy), sym in entries:
            for (fx, fy), c in first[kind].items():
                if fx + fy + sx + sy <= order2:
                    put((fx + sx, fy + sy), (sym,), c)
    # c_kl dk dl, summed over every ordered pair of a term of dk and one of dl
    for (k, l), c in second.items():
        for e1, s1 in deltas[k]:
            for e2, s2 in deltas[l]:
                if e1[0] + e1[1] + e2[0] + e2[1] <= order2:
                    put((e1[0] + e2[0], e1[1] + e2[1]), _mono_product((s1,), (s2,)), c)


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
    # value as solved or pinned so far
    solved = _known_values(k, state.A, state.D, (a_sym, b_sym, d_sym))

    def fail(message, mono=None, detail="", error=GuessFailure):
        record = FailureRecord(
            "guess", k, _frac_pair(mono) if mono else _frac_pair(target), message, detail
        )
        raise error(record, partial=state.candidate(k - 1, "guessed"))

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
        if not coeff.is_rational():
            return False  # not a unit of Q[l2, l3]: deferred like a nonlinear one
        value = -(poly.constant() / coeff)
        want = state.a_value_at(sym[1:])
        if sym[0] == "b" and value != want:
            fail(f"pinned {_symbol_name(sym)} = {value} but the a=b fill expects {want}",
                 mono, detail=str(poly), error=ContradictionError)
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


def _run_schedule(n: int) -> _State:
    """Solve every integer target of A through degree n+1, in schedule order,
    expanding the constraint once per degree layer."""
    state = _State()
    for k in range(1, n + 2):
        series, audit = _expand_layer(state.A, state.D, _layer_symbols(k), k)
        state.layers[k] = series
        absorptions = [ev.describe() for ev in audit]
        for target in _integer_targets(k):
            _solve_target(state, series, absorptions, target)
    return state


# ---------------------------------------------------------------------------
# Public algorithms
# ---------------------------------------------------------------------------

def guess_terms(n: int) -> CandidateExpansion:
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
    return _run_schedule(n).candidate(n + 1, "guessed")


def _certify_existence(k: int, series: TruncatedBiSeries, cand: CandidateExpansion,
                       top: Optional[TruncatedBiSeries] = None) -> ExistenceCertificate:
    """Read the degree-k existence certificate off an order-(k+2) expansion.

    Every unknown of layers k+1 and k+2 takes its value in the truncated
    trial: A^(k+1) for a and b, D^((k+1)/2) for d, 0 past the truncation.
    Then the constraint F must vanish below X^(k+2).  A perturbation t X^(k+2)
    of A adds F_A(0) t there and nothing below (_base_point), so the
    certificate's witness is kappa = -F[X^(k+2)] / F_A(0), with slope
    F_A(0).  When `top` is given, the coefficient at X^(k+2) is read from
    it, and `series` supplies only the monomials below.
    """
    dominant = (2 * (k + 2), 0)
    A, D = cand.A.truncate(k + 1).terms, cand.D.truncate(Fraction(k + 1, 2)).terms
    values = {**_known_values(k + 1, A, D, ()), **_known_values(k + 2, A, D, ())}
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
    if top is None:
        top = series
    slope = _base_point()[0]["a"]
    kappa = -(top.terms.get(dominant, UnknownPoly({})).substitute(values).constant() / slope)
    # For k = 1 the trial D = D^(1) is exact through every order the dominant
    # monomial can see, so kappa coincides with the next pure-X coefficient
    # of A; at higher degrees the (k+1)/2 truncation of D shifts the witness
    # by square terms of D's tail, so kappa is recorded, not matched.
    return ExistenceCertificate(degree=k, kappa=kappa, slope=slope.as_fraction())


def prove_existence(n: int, cand: CandidateExpansion,
                    *, _layer: Optional[TruncatedBiSeries] = None) -> ExistenceCertificate:
    """Certify functions matching A^(n+1), B^(n+1), D^((n+1)/2) exist on the
    constraint, by pinning a pure-X perturbation of A at degree n+2.

    The certificate reads the order-(n+2) constraint of the truncated trial,
    but it does not expand it:

    * its coefficients of degree <= n+1 come from an order-(n+1) plain
      build of the trial, or from `_layer`, compute_proven_expansion's layer
      n+1, whose unknowns _certify_existence sets to the trial's values;
    * its coefficients of degree n+3/2 vanish when every exponent of the
      trial and every asym_add gap is an integer, since the parity of the
      doubled exponents is then preserved by every operation of the build;
    * its coefficient at X^(n+2) comes from the expansion modulo Y, which
      drops every Y-carrying term (TruncatedBiSeries.y_bounded) and is exact
      on the powers of X: every series operation commutes with that drop,
      and asym_add multiplies by Y^gap with gap >= 0 only.

    A trial with a nonzero half-integer term, or a build with a non-integer
    gap, takes the full order-(n+2) expansion instead.  No build attaches
    an unknown.
    """
    if n < 1:
        raise ValueError("prove_existence needs n >= 1")
    if cand.degA < n + 1:
        raise ValueError(f"candidate guessed only to degree {cand.degA}, need {n + 1}")
    A, D = cand.A.truncate(n + 1), cand.D.truncate(Fraction(n + 1, 2))
    if A.has_integer_exponents() and D.has_integer_exponents():
        top, audit = _expand_layer(A.terms, D.terms, [], n + 2, y_max=0)
        if all(ev.gap.denominator == 1 for ev in audit if isinstance(ev, FoldEvent)):
            low = _layer if _layer is not None else _expand_layer(A.terms, D.terms, [], n + 1)[0]
            return _certify_existence(n, low, cand, top)
    series, _ = _expand_layer(A.terms, D.terms, [], n + 2)
    return _certify_existence(n, series, cand)


def compute_proven_expansion(n: int) -> ExpansionResult:
    """Prove the degree-n expansion in one schedule pass.

    The schedule solves A through degree n+1 and its log is the proof
    log; existence is certified at degrees 1..n-1 from the schedule's own
    layers k+2 and at degree n by prove_existence, which reads layer n+1
    and expands the constraint in X alone; and the log must satisfy the
    P2 -> P3 adjacency rule.  B is reported one degree behind A and D
    at half degree.
    """
    if n < 2:
        raise ValueError("compute_proven_expansion needs n >= 2")
    certificates: list[ExistenceCertificate] = []
    cand: Optional[CandidateExpansion] = None
    try:
        state = _run_schedule(n)
        cand = state.candidate(n + 1, "guessed")
        for k in range(1, n):
            certificates.append(_certify_existence(k, state.layers[k + 2], cand))
        certificates.append(prove_existence(n, cand, _layer=state.layers[n + 1]))
        if not state.log.check_pattern_adjacency():
            raise MinimalityFailure(FailureRecord(
                "minimality", n, None,
                f"pattern sequence violates the P2->P3 adjacency rule: {state.log.pattern_sequence()}",
            ))
    except ProofFailure as exc:
        partial = exc.partial or cand or _State().candidate(0, "guessed")
        return ExpansionResult(partial, partial.guess_log, certificates, failure=exc.record)
    proven = replace(cand, status="minimality-proven")
    return ExpansionResult(proven, proven.guess_log, certificates)

