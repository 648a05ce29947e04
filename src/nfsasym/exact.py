"""Exact coefficient arithmetic: rationals, the ring Q[log 2, log 3], and the
multiplicative group of radical-monomial scales.

Conventions
-----------
* Rationals are ``fractions.Fraction`` (arbitrary precision, canonical
  gcd-reduced form with positive denominator).
* ``LogConstant`` is a polynomial over Q in the generators l2 = log 2 and
  l3 = log 3, stored as integer numerators ``num`` {(i, j): n} over one
  positive denominator ``den``, for the sum of (n / den) * l2^i * l3^j.  No
  stored numerator is zero and gcd(den, *numerators) == 1, so equal values
  have equal (den, num) and equal renderings.  Arithmetic runs on Python
  integers with one gcd per result; ``terms``, the map {(i, j): Fraction},
  is derived on demand for rendering and enclosures.  The series product
  reads ``num`` and ``den`` directly.  The units are the nonzero rationals:
  dividing by any other value, or taking the log of a rational with a prime
  factor other than 2 and 3, raises ``ExactError``.
* ``RadicalScale`` is a positive constant of the form q * prod(p**e_p) with
  q a positive rational and rational exponents e_p.  Canonical form keeps
  every stored exponent in (0, 1): integer parts are folded into q.

A nonzero constant that evaluates below 1e-12 in floating point triggers
``NearZeroWarning`` so that potential modeling artifacts surface instead of
hiding in round-off.  ``LogConstant.enclose`` bounds a value by rationals,
for decisions that must not rest on floating point.
"""

from __future__ import annotations

import math
import warnings
from fractions import Fraction
from functools import lru_cache
from typing import Optional

RATIONAL_TYPES = (int, Fraction)

NEAR_ZERO_EVAL = 1e-12


class ExactError(ValueError):
    pass


class NearZeroWarning(UserWarning):
    """A syntactically nonzero constant evaluated numerically below 1e-12."""


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
# Polynomials over Q in l2, l3.
#
# A monomial l2^i * l3^j is the pair (i, j); (0, 0) is the constant monomial.
# A LogConstant holds a dict mapping monomials to nonzero integer numerators
# and one positive denominator.  Numerator dicts are never mutated after
# construction, so values may share them.
# ---------------------------------------------------------------------------

Monomial = tuple[int, int]

_CONST: Monomial = (0, 0)
_GENERATORS: dict[int, Monomial] = {2: (1, 0), 3: (0, 1)}


_new = object.__new__


def _reduced(num: dict, den: int) -> "LogConstant":
    """The LogConstant num / den, for numerators with no zero entry and
    den > 0, with their common content divided out."""
    out = _new(LogConstant)
    g = math.gcd(den, *num.values())
    if g == 1:
        out.num, out.den = num, den
    else:
        out.num, out.den = {m: n // g for m, n in num.items()}, den // g
    return out


class LogConstant:
    """Element of Q[l2, l3] with l2 = log 2 and l3 = log 3."""

    __slots__ = ("num", "den")

    def __init__(self, terms: dict | None = None):
        """The value sum(c * l2^i * l3^j) of a map {(i, j): c} of rationals."""
        qs = [(m, Fraction(c)) for m, c in (terms or {}).items()]
        den = math.lcm(*(q.denominator for _, q in qs))
        num = {m: q.numerator * (den // q.denominator) for m, q in qs if q}
        g = math.gcd(den, *num.values())
        self.num = {m: n // g for m, n in num.items()}
        self.den = den // g

    @property
    def terms(self) -> dict[Monomial, Fraction]:
        """The map {(i, j): coefficient of l2^i * l3^j}, built on each call."""
        den = self.den
        return {m: Fraction(n, den) for m, n in self.num.items()}

    # -- constructors -------------------------------------------------------

    @staticmethod
    def from_fraction(q) -> "LogConstant":
        if not isinstance(q, int):
            q = Fraction(q)
        if not q:
            return _LC_ZERO
        return _reduced({_CONST: q.numerator}, q.denominator)

    @staticmethod
    def zero() -> "LogConstant":
        return _LC_ZERO

    @staticmethod
    def one() -> "LogConstant":
        return _LC_ONE

    @staticmethod
    def gen(p: int) -> "LogConstant":
        """The generator l_p = log p, for p = 2 or 3."""
        mono = _GENERATORS.get(p)
        if mono is None:
            raise ExactError(f"log {p} is outside Q[l2, l3]")
        return _reduced({mono: 1}, 1)

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_rational(self) -> bool:
        return not self.num or (len(self.num) == 1 and _CONST in self.num)

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ExactError(f"{self} is not rational")
        return Fraction(self.num.get(_CONST, 0), self.den)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LogConstant):
            return other
        if isinstance(other, RATIONAL_TYPES):
            return LogConstant.from_fraction(other)
        return NotImplemented

    def __add__(self, other):
        if not isinstance(other, LogConstant):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not b:
            return self
        if not a:
            return other
        da, db = self.den, other.den
        if da == db:
            out = dict(a)
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g
            da *= fa
            out = {m: n * fa for m, n in a.items()}
            b = {m: n * fb for m, n in b.items()}
        for m, n in b.items():
            s = out.get(m, 0) + n
            if s:
                out[m] = s
            else:
                del out[m]
        return _reduced(out, da)

    __radd__ = __add__

    def __neg__(self):
        out = _new(LogConstant)
        out.num, out.den = {m: -n for m, n in self.num.items()}, self.den
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, LogConstant):
            other = self._coerce(other)
            if other is NotImplemented:
                return NotImplemented
        a, b = self.num, other.num
        if not a or not b:
            return _LC_ZERO
        if len(a) == 1 and _CONST in a:
            a, b = b, a
        if len(b) == 1 and _CONST in b:
            c = b[_CONST]
            return _reduced({m: c * n for m, n in a.items()}, self.den * other.den)
        out: dict = {}
        for (i1, j1), n1 in a.items():
            for (i2, j2), n2 in b.items():
                m = (i1 + i2, j1 + j2)
                out[m] = out.get(m, 0) + n1 * n2
        return _reduced({m: n for m, n in out.items() if n}, self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "LogConstant":
        """The inverse of a unit, i.e. of a nonzero rational value."""
        if not self.num:
            raise ZeroDivisionError("inverse of zero LogConstant")
        if not self.is_rational():
            raise ExactError(f"{self} is not a unit of Q[l2, l3]")
        n = self.num[_CONST]
        out = _new(LogConstant)
        out.num, out.den = ({_CONST: self.den}, n) if n > 0 else ({_CONST: -self.den}, -n)
        return out

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
            n >>= 1
            if n:
                base = base * base
        return out

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        # a rational value hashes as its Fraction, which it compares equal to
        if self.is_rational():
            return hash(self.as_fraction())
        return hash((self.den, frozenset(self.num.items())))

    # -- evaluation and rendering -------------------------------------------

    def eval_f64(self) -> float:
        # summed in display order, so equal values give equal floats however
        # their maps were built; n / den is correctly rounded, as is the
        # float of the reduced Fraction
        value = 0.0
        num, den = self.num, self.den
        for i, j in sorted(num, key=_mono_display_key):
            value += num[i, j] / den * _LOG2_F64 ** i * _LOG3_F64 ** j
        if num and abs(value) < NEAR_ZERO_EVAL:
            warnings.warn(
                f"nonzero exact constant evaluates to {value!r} (< {NEAR_ZERO_EVAL})",
                NearZeroWarning,
                stacklevel=2,
            )
        return value

    def enclose(self, bits: int) -> tuple[Fraction, Fraction]:
        """Rationals lo <= value <= hi from enclosures of log 2 and log 3 of
        width about 2**-bits.  Both logs are positive, so every monomial is
        increasing in each of them and takes its bounds at the interval ends."""
        (lo2, hi2), (lo3, hi3) = _log_enclosures(bits)
        lo = hi = Fraction(0)
        for (i, j), c in self.terms.items():
            low, high = c * lo2 ** i * lo3 ** j, c * hi2 ** i * hi3 ** j
            if c < 0:
                low, high = high, low
            lo += low
            hi += high
        return lo, hi

    def __repr__(self):
        return f"LogConstant({self})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        """Canonical rendering, e.g. ``(-2)*l2 + (1/6)*l3 + (-2)``."""
        if not self.num:
            return "0"
        terms = self.terms
        parts = []
        for m in sorted(terms, key=_mono_display_key):
            cs = f"({terms[m]})"
            parts.append(cs if m == _CONST else f"{cs}*{_mono_to_string(m)}")
        return " + ".join(parts)

    def to_compact_string(self) -> str:
        """Sign-folded rendering for series and tables, e.g.
        ``-2*l2 + (1/6)*l3 - 2``."""
        if self.is_rational():
            q = self.as_fraction()
            return str(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
        terms = self.terms
        text = ""
        for m in sorted(terms, key=_mono_display_key):
            q = terms[m]
            mag = abs(q)
            if m == _CONST:
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
        """Inverse of to_string; rejects generators other than l2, l3 and
        exponents below 1."""
        text = text.strip()
        if text == "0":
            return _LC_ZERO
        if ") / (" in text:
            raise ExactError(f"quotient {text!r} is outside Q[l2, l3]")
        entries = []  # (monomial, numerator, denominator)
        for chunk in text.split(" + "):
            chunk = chunk.strip()
            if not chunk:
                continue
            coeff_s, _, mono_s = chunk.partition("*")
            i = j = 0
            for factor in mono_s.split("*") if mono_s else ():
                gen_s, _, exp_s = factor.partition("^")
                mono = _GENERATORS.get(int(gen_s[1:]))
                if mono is None:
                    raise ExactError(f"generator {gen_s!r} is outside Q[l2, l3]")
                e = int(exp_s) if exp_s else 1
                if e < 1:
                    raise ExactError(f"exponent of {factor!r} is below 1")
                i, j = i + mono[0] * e, j + mono[1] * e
            n_s, _, d_s = coeff_s.strip("()").partition("/")
            d = int(d_s) if d_s else 1
            if d <= 0:
                raise ExactError(f"coefficient {coeff_s!r} has no positive denominator")
            entries.append(((i, j), int(n_s), d))
        den = math.lcm(*(d for _, _, d in entries))
        num: dict = {}
        for m, n, d in entries:
            num[m] = num.get(m, 0) + n * (den // d)
        return _reduced({m: n for m, n in num.items() if n}, den)


def _mono_to_string(m: Monomial) -> str:
    parts = []
    for name, e in zip(("l2", "l3"), m):
        if e:
            parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def _mono_display_key(m: Monomial) -> tuple:
    # higher degree first; within a degree, ascending in the power of l2 with
    # the pure l3 power last (l2*l3^2, l2^2*l3, l2^3, l3^3); constant last
    i, j = m
    return (-(i + j), i == 0, i)


_LC_ZERO = _reduced({}, 1)
_LC_ONE = _reduced({_CONST: 1}, 1)
_LOG2_F64 = math.log(2)
_LOG3_F64 = math.log(3)


def _atanh_enclosure(m: int, bits: int) -> tuple[Fraction, Fraction]:
    # atanh(1/m) = sum 1/((2k+1) m^(2k+1)) for m >= 2, summed in integers in
    # units of 2**-w: every term is floored, so each loses less than a unit,
    # and once m^(2k+1) exceeds 2**w the remaining terms add up to less than
    # 2**-w / ((2k+1)(1 - 1/m^2)) <= (4/3) 2**-w, two units
    w = bits + 16
    total, power, k = 0, (1 << w) // m, 0
    while power:
        total += power // (2 * k + 1)
        power //= m * m
        k += 1
    return Fraction(total, 1 << w), Fraction(total + k + 2, 1 << w)


@lru_cache(maxsize=None)
def _log_enclosures(bits: int) -> tuple[tuple[Fraction, Fraction], ...]:
    # log 2 = 2 atanh(1/3) and log 3 = log 2 + 2 atanh(1/5)
    lo_a, hi_a = _atanh_enclosure(3, bits)
    lo_b, hi_b = _atanh_enclosure(5, bits)
    return (2 * lo_a, 2 * hi_a), (2 * (lo_a + lo_b), 2 * (hi_a + hi_b))


# ---------------------------------------------------------------------------
# Operations of the coefficient ring
# ---------------------------------------------------------------------------

def log_of_rational(q) -> LogConstant:
    """log q as an exact element a*l2 + b*l3 for q = 2**a * 3**b > 0."""
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

    def __eq__(self, other):
        if not isinstance(other, RadicalScale):
            return NotImplemented
        return self.coeff == other.coeff and self.exps == other.exps

    def __hash__(self):
        return hash((self.coeff, tuple(sorted(self.exps.items()))))

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
