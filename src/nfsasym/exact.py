"""Exact coefficient arithmetic: rationals, the field Q(log 2, log 3, ...),
and the multiplicative group of radical-monomial scales.

Conventions
-----------
* Rationals are ``fractions.Fraction`` (arbitrary precision, canonical
  gcd-reduced form with positive denominator).
* ``LogConstant`` is a quotient of two multivariate polynomials over Q in
  formal generators ``l_p`` standing for log(p), one generator per prime p.
  Generators are introduced lazily; any prime beyond {2, 3} is flagged,
  because the target computation is expected to stay inside Q(l2, l3).
* ``RadicalScale`` is a positive constant of the form q * prod(p**e_p) with
  q a positive rational and rational exponents e_p.  Canonical form keeps
  every stored exponent in (0, 1): integer parts are folded into q.

Equality of LogConstant values is decided by cross-multiplication of the
stored fractions, which is exact in the polynomial model regardless of how
far the internal reduction got.  A nonzero constant that evaluates below
1e-12 in floating point triggers ``NearZeroWarning`` so that potential
modeling artifacts surface instead of hiding in round-off.
"""

from __future__ import annotations

import logging
import math
import warnings
from fractions import Fraction
from typing import Optional

try:  # gmpy2's C rationals cut exact-arithmetic time by an order of magnitude
    from gmpy2 import mpq as _Q
except ImportError:  # optional: without gmpy2, Fraction is the rational backend
    _Q = Fraction

logger = logging.getLogger(__name__)

RATIONAL_TYPES = (int, Fraction, type(_Q(1)))

NEAR_ZERO_EVAL = 1e-12

# Generators seen so far.  log 2 and log 3 are expected; anything else is
# legal but surprising, so registering it emits a log record that tests can
# assert on.
_EXPECTED_GENERATORS = frozenset({2, 3})
_generators_seen: set[int] = set()
_unexpected_generator_events: list[int] = []


class ExactError(ValueError):
    pass


class EvalError(ExactError):
    pass


class NearZeroWarning(UserWarning):
    """A syntactically nonzero constant evaluated numerically below 1e-12."""


def register_generator(p: int) -> None:
    if p in _generators_seen:
        return
    _generators_seen.add(p)
    if p not in _EXPECTED_GENERATORS:
        _unexpected_generator_events.append(p)
        logger.warning("extending coefficient field with unexpected generator l%d", p)


def generators_seen() -> frozenset[int]:
    return frozenset(_generators_seen)


def unexpected_generator_events() -> tuple[int, ...]:
    return tuple(_unexpected_generator_events)


def snapshot_generator_registry() -> tuple:
    return (set(_generators_seen), list(_unexpected_generator_events))


def restore_generator_registry(snapshot: tuple) -> None:
    seen, events = snapshot
    _generators_seen.clear()
    _generators_seen.update(seen)
    _unexpected_generator_events[:] = list(events)


def factor_positive_rational(q) -> dict[int, int]:
    """Prime factorization of a positive rational as {prime: exponent}."""
    q = Fraction(q)
    if q <= 0:
        raise ExactError(f"cannot factor non-positive rational {q}")
    factors: dict[int, int] = {}

    def accumulate(n: int, sign: int) -> None:
        d = 2
        while d * d <= n:
            while n % d == 0:
                factors[d] = factors.get(d, 0) + sign
                n //= d
            d += 1 if d == 2 else 2
        if n > 1:
            factors[n] = factors.get(n, 0) + sign

    accumulate(q.numerator, +1)
    accumulate(q.denominator, -1)
    return {p: e for p, e in factors.items() if e != 0}


# ---------------------------------------------------------------------------
# Multivariate polynomials over Q in generators l_p.
#
# A monomial is a tuple of (prime, power) pairs sorted by prime, powers > 0;
# the empty tuple is the constant monomial.  A polynomial is a dict mapping
# monomials to nonzero rationals (gmpy2.mpq internally).  Polynomial dicts
# are never mutated after construction, so the ONE polynomial is shared.
# ---------------------------------------------------------------------------

Monomial = tuple[tuple[int, int], ...]
Poly = dict

_ZERO_P: Poly = {}
_ONE_P: Poly = {(): _Q(1)}


_MONO_MUL_CACHE: dict[tuple[Monomial, Monomial], Monomial] = {}


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    if not a:
        return b
    if not b:
        return a
    key = (a, b)
    cached = _MONO_MUL_CACHE.get(key)
    if cached is not None:
        return cached
    merged = dict(a)
    for p, e in b:
        merged[p] = merged.get(p, 0) + e
    out = tuple(sorted((p, e) for p, e in merged.items() if e != 0))
    _MONO_MUL_CACHE[key] = out
    return out


def _mono_degree(m: Monomial) -> int:
    return sum(e for _, e in m)


def _mono_key(m: Monomial) -> tuple:
    # graded lex with l2 > l3 > ...: a monomial order, so the leading term of
    # a product is the product of the leading terms
    return (_mono_degree(m), tuple((-p, e) for p, e in m))


def _p_add(a: Poly, b: Poly) -> Poly:
    if not a:
        return b
    if not b:
        return a
    out = dict(a)
    for m, c in b.items():
        s = out.get(m)
        if s is None:
            out[m] = c
        else:
            s = s + c
            if s:
                out[m] = s
            else:
                del out[m]
    return out


def _p_neg(a: Poly) -> Poly:
    return {m: -c for m, c in a.items()}


def _p_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return {}
    if len(a) == 1 and () in a:
        c = a[()]
        return {m: c * v for m, v in b.items()}
    if len(b) == 1 and () in b:
        c = b[()]
        return {m: c * v for m, v in a.items()}
    out: Poly = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = _mono_mul(m1, m2)
            s = out.get(m)
            if s is None:
                out[m] = c1 * c2
            else:
                s = s + c1 * c2
                if s:
                    out[m] = s
                else:
                    del out[m]
    return out


def _p_scale(a: Poly, c: Fraction) -> Poly:
    if not c:
        return {}
    return {m: c * v for m, v in a.items()}


def _p_is_constant(a: Poly) -> bool:
    return not a or (len(a) == 1 and () in a)


def _p_leading_coeff(a: Poly) -> Fraction:
    m = max(a, key=_mono_key)
    return a[m]


def _p_eval(a: Poly, log_of: dict[int, float]) -> float:
    total = 0.0
    for m, c in a.items():
        term = float(c)
        for p, e in m:
            term *= log_of[p] ** e
        total += term
    return total


class LogConstant:
    """Element of the fraction field of Q[l2, l3, ...] with l_p = log p."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None or den is _ONE_P:
            self.num = num
            self.den = _ONE_P
            return
        if not den:
            raise ExactError("zero denominator in LogConstant")
        self.num, self.den = _canonical_fraction(num, den)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "LogConstant":
        q = _Q(q)
        return LogConstant({(): q} if q else {})

    @staticmethod
    def zero() -> "LogConstant":
        return _LC_ZERO

    @staticmethod
    def one() -> "LogConstant":
        return _LC_ONE

    @staticmethod
    def gen(p: int) -> "LogConstant":
        """The generator l_p = log p."""
        register_generator(p)
        return LogConstant({((p, 1),): _Q(1)})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_rational(self) -> bool:
        return _p_is_constant(self.num) and _p_is_constant(self.den)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactError(f"{self} is not rational")
        if not self.num:
            return Fraction(0)
        v = self.num[()] / self.den[()]
        return Fraction(int(v.numerator), int(v.denominator))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LogConstant):
            return other
        if isinstance(other, RATIONAL_TYPES):
            return LogConstant.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.den is _ONE_P and other.den is _ONE_P:
            return LogConstant(_p_add(self.num, other.num))
        if self.den == other.den:
            return LogConstant(_p_add(self.num, other.num), self.den)
        num = _p_add(_p_mul(self.num, other.den), _p_mul(other.num, self.den))
        return LogConstant(num, _p_mul(self.den, other.den))

    __radd__ = __add__

    def __neg__(self):
        return LogConstant(_p_neg(self.num), self.den)

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
        if self.den is _ONE_P and other.den is _ONE_P:
            return LogConstant(_p_mul(self.num, other.num))
        return LogConstant(_p_mul(self.num, other.num), _p_mul(self.den, other.den))

    __rmul__ = __mul__

    def inverse(self) -> "LogConstant":
        if not self.num:
            raise ZeroDivisionError("inverse of zero LogConstant")
        return LogConstant(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        out = _LC_ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        # cross multiplication decides equality exactly in the polynomial model
        return _p_add(_p_mul(self.num, other.den), _p_neg(_p_mul(other.num, self.den))) == {}

    def __hash__(self):
        # LT(num)/LT(den) is the same for every representation of the value,
        # whatever common factor num and den still share
        if not self.num:
            return 0
        lead_num, lead_den = max(self.num, key=_mono_key), max(self.den, key=_mono_key)
        q = self.num[lead_num] / self.den[lead_den]
        coeff = Fraction(int(q.numerator), int(q.denominator))
        exps = dict(lead_num)
        for p, e in lead_den:
            exps[p] = exps.get(p, 0) - e
        mono = tuple(sorted((p, e) for p, e in exps.items() if e))
        return hash((coeff, mono)) if mono else hash(coeff)

    # -- evaluation and rendering -------------------------------------------

    def eval_f64(self) -> float:
        primes = {p for m in list(self.num) + list(self.den) for p, _ in m}
        table = {p: math.log(p) for p in primes}
        den = _p_eval(self.den, table)
        if abs(den) < NEAR_ZERO_EVAL:
            raise EvalError(f"denominator evaluates to (near-)zero: {den!r}")
        value = _p_eval(self.num, table) / den
        if self.num and abs(value) < NEAR_ZERO_EVAL:
            warnings.warn(
                f"nonzero exact constant evaluates to {value!r} (< {NEAR_ZERO_EVAL})",
                NearZeroWarning,
                stacklevel=2,
            )
        return value

    def __repr__(self):
        return f"LogConstant({self})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        """Canonical rendering, e.g. ``(-2)*l2 + (1/6)*l3 + (-2)``."""
        num = _poly_to_string(self.num)
        if _p_is_constant(self.den) and self.den.get((), Fraction(1)) == 1:
            return num
        return f"({num}) / ({_poly_to_string(self.den)})"

    def to_compact_string(self) -> str:
        """Sign-folded rendering for series and tables, e.g.
        ``-2*l2 + (1/6)*l3 - 2``; a non-constant denominator falls back to
        the canonical rendering."""
        if self.is_rational():
            q = self.as_fraction()
            return str(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        if self.den != _ONE_P:
            return self.to_string()
        text = ""
        for m in sorted(self.num, key=_mono_display_key):
            q = self.num[m]
            mag = abs(q)
            if not m:
                body = f"{mag}"
            elif mag == 1:
                body = _mono_to_string(m)
            else:
                mag_s = str(mag) if mag.denominator == 1 else f"({mag})"
                body = f"{mag_s}*{_mono_to_string(m)}"
            if not text:
                text = f"-{body}" if q < 0 else body
            else:
                text += f" {'-' if q < 0 else '+'} {body}"
        return text

    @staticmethod
    def parse(text: str) -> "LogConstant":
        return _parse_logconstant(text)


def _canonical_fraction(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    if not num:
        return {}, _ONE_P
    # fold a constant denominator into the numerator
    if _p_is_constant(den):
        c = den[()]
        if c != 1:
            num = _p_scale(num, 1 / c)
        return num, _ONE_P
    # normalize the denominator monic on its leading monomial
    lead = _p_leading_coeff(den)
    if lead != 1:
        num = _p_scale(num, 1 / lead)
        den = _p_scale(den, 1 / lead)
    # exact-division reduction (covers q*den / den and monomial factors)
    q = _try_exact_div(num, den)
    if q is not None:
        return q, _ONE_P
    return num, den


def _try_exact_div(num: Poly, den: Poly) -> Optional[Poly]:
    # long division attempt; succeeds only on exact division
    remainder = dict(num)
    quotient: Poly = {}
    den_lead = max(den, key=_mono_key)
    den_lead_c = den[den_lead]
    steps = 0
    while remainder:
        steps += 1
        if steps > 200:
            return None
        m = max(remainder, key=_mono_key)
        qm = _mono_div(m, den_lead)
        if qm is None:
            return None
        qc = remainder[m] / den_lead_c
        quotient[qm] = quotient.get(qm, _Q(0)) + qc
        for dm, dc in den.items():
            mm = _mono_mul(qm, dm)
            s = remainder.get(mm, _Q(0)) - qc * dc
            if s:
                remainder[mm] = s
            else:
                remainder.pop(mm, None)
    return {m: c for m, c in quotient.items() if c}


def _mono_div(a: Monomial, b: Monomial) -> Optional[Monomial]:
    da = dict(a)
    for p, e in b:
        r = da.get(p, 0) - e
        if r < 0:
            return None
        if r:
            da[p] = r
        else:
            da.pop(p, None)
    return tuple(sorted(da.items()))


def _mono_to_string(m: Monomial) -> str:
    parts = []
    for p, e in m:
        parts.append(f"l{p}" if e == 1 else f"l{p}^{e}")
    return "*".join(parts)


def _mono_display_key(m: Monomial) -> tuple:
    # higher degree first, l2 before l3 within a degree, constant last
    return (-_mono_degree(m), m)


def _poly_to_string(poly: Poly) -> str:
    if not poly:
        return "0"
    parts = []
    for m in sorted(poly, key=_mono_display_key):
        c = poly[m]
        cs = f"({c})"
        parts.append(cs if not m else f"{cs}*{_mono_to_string(m)}")
    return " + ".join(parts)


def _parse_logconstant(text: str) -> LogConstant:
    text = text.strip()
    if text == "0":
        return _LC_ZERO
    if text.startswith("(") and ") / (" in text:
        num_s, den_s = text[1:].split(") / (", 1)
        if not den_s.endswith(")"):
            raise ExactError(f"malformed LogConstant string: {text!r}")
        return LogConstant(_parse_poly(num_s), _parse_poly(den_s[:-1]))
    return LogConstant(_parse_poly(text))


def _parse_poly(text: str) -> Poly:
    poly: Poly = {}
    for chunk in text.split(" + "):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "*" in chunk:
            coeff_s, mono_s = chunk.split("*", 1)
        else:
            coeff_s, mono_s = chunk, ""
        coeff = _Q(coeff_s.strip("()"))
        mono: list[tuple[int, int]] = []
        if mono_s:
            for factor in mono_s.split("*"):
                if "^" in factor:
                    gen_s, exp_s = factor.split("^")
                    mono.append((int(gen_s[1:]), int(exp_s)))
                else:
                    mono.append((int(factor[1:]), 1))
        for p, _ in mono:
            register_generator(p)
        key = tuple(sorted(mono))
        poly[key] = poly.get(key, _Q(0)) + coeff
    return {m: c for m, c in poly.items() if c}


_LC_ZERO = LogConstant.__new__(LogConstant)
_LC_ZERO.num = {}
_LC_ZERO.den = _ONE_P
_LC_ONE = LogConstant.__new__(LogConstant)
_LC_ONE.num = _ONE_P
_LC_ONE.den = _ONE_P


# ---------------------------------------------------------------------------
# Operations of the coefficient field
# ---------------------------------------------------------------------------

def log_of_rational(q) -> LogConstant:
    """log q as an exact element sum(a_p * l_p) for q = prod(p**a_p) > 0."""
    q = Fraction(q)
    if q <= 0:
        raise ExactError(f"log of non-positive rational {q}")
    out = _LC_ZERO
    for p, e in sorted(factor_positive_rational(q).items()):
        out = out + LogConstant.gen(p) * Fraction(e)
    return out


class RadicalScale:
    """Positive constant q * prod(p**e_p), q rational > 0, e_p rational.

    Canonical form stores only fractional exponents in (0, 1); integer parts
    live in the rational coefficient.
    """

    __slots__ = ("coeff", "exps")

    def __init__(self, coeff, exps: dict[int, Fraction] | None = None):
        coeff = Fraction(coeff)
        if coeff <= 0:
            raise ExactError(f"RadicalScale coefficient must be positive, got {coeff}")
        folded: dict[int, Fraction] = {}
        for p, e in (exps or {}).items():
            e = Fraction(e)
            if e == 0:
                continue
            whole = e.numerator // e.denominator  # floor
            frac = e - whole
            if whole:
                coeff *= Fraction(p) ** whole
            if frac:
                folded[p] = folded.get(p, Fraction(0)) + frac
        self.coeff = coeff
        self.exps = {p: e for p, e in folded.items() if e}

    @staticmethod
    def one() -> "RadicalScale":
        return RadicalScale(1)

    @staticmethod
    def from_pow(base, exponent) -> "RadicalScale":
        """(base)**exponent for a positive rational base and rational exponent."""
        base = Fraction(base)
        exponent = Fraction(exponent)
        exps = {p: e * exponent for p, e in factor_positive_rational(base).items()}
        return RadicalScale(1, exps)

    def __mul__(self, other: "RadicalScale") -> "RadicalScale":
        exps = dict(self.exps)
        for p, e in other.exps.items():
            exps[p] = exps.get(p, Fraction(0)) + e
        return RadicalScale(self.coeff * other.coeff, exps)

    def __truediv__(self, other: "RadicalScale") -> "RadicalScale":
        exps = dict(self.exps)
        for p, e in other.exps.items():
            exps[p] = exps.get(p, Fraction(0)) - e
        return RadicalScale(self.coeff / other.coeff, exps)

    def __pow__(self, n) -> "RadicalScale":
        n = Fraction(n)
        exps = {p: e * n for p, e in self.exps.items()}
        coeff_exps = {p: Fraction(e) * n for p, e in factor_positive_rational(self.coeff).items()}
        for p, e in coeff_exps.items():
            exps[p] = exps.get(p, Fraction(0)) + e
        return RadicalScale(1, exps)

    def __eq__(self, other):
        if not isinstance(other, RadicalScale):
            return NotImplemented
        return self.coeff == other.coeff and self.exps == other.exps

    def __hash__(self):
        return hash((self.coeff, tuple(sorted(self.exps.items()))))

    def is_one(self) -> bool:
        return self.coeff == 1 and not self.exps

    def eval_f64(self) -> float:
        value = float(self.coeff)
        for p, e in self.exps.items():
            value *= p ** float(e)
        return value

    def __repr__(self):
        return f"RadicalScale({self.to_string()!r})"

    def to_string(self) -> str:
        parts = [f"q={self.coeff}"]
        for p in sorted(self.exps):
            parts.append(f"{p}^{self.exps[p]}")
        return ";".join(parts)

    @staticmethod
    def parse(text: str) -> "RadicalScale":
        parts = text.split(";")
        if not parts or not parts[0].startswith("q="):
            raise ExactError(f"malformed RadicalScale string: {text!r}")
        coeff = Fraction(parts[0][2:])
        exps: dict[int, Fraction] = {}
        for part in parts[1:]:
            base_s, exp_s = part.split("^")
            exps[int(base_s)] = Fraction(exp_s)
        return RadicalScale(coeff, exps)


def scale_log(s: RadicalScale) -> LogConstant:
    """log of a radical scale: log(coeff) + sum(e_p * l_p)."""
    out = log_of_rational(s.coeff)
    for p, e in sorted(s.exps.items()):
        out = out + LogConstant.gen(p) * e
    return out


def scale_ratio_as_rational(s1: RadicalScale, s2: RadicalScale) -> Optional[Fraction]:
    """s1/s2 as an exact rational, or None when the ratio is irrational."""
    ratio = s1 / s2
    if ratio.exps:
        return None
    return ratio.coeff
