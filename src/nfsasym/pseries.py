"""Truncated bivariate power series in X and Y with half-integer exponents.

A series is a finite term map over a coefficient ring together with a
truncation bound: "order n" means every term of total degree <= n is exact
and nothing is claimed beyond.  Exponents live in (1/2)*Z>=0 and are stored
doubled (so X itself is the key (2, 0) and X^(1/2) is (1, 0)), which keeps
half-integer bookkeeping exact.  Binary operations return the tightest order
guaranteed by their inputs (min of the operand orders; monomial shifts lift
the order by the shift degree).

The coefficient ring is duck-typed: coefficients must implement +, -, *,
equality and truth testing, and the ring adapter supplies constants,
coercion from Fraction/LogConstant, inversion, and log of a constant term.
The same engine therefore runs over Q(log 2, log 3, ...) and over the
unknown-coefficient ring used by the optimization layer.

The Delta operator implemented here is the derivation with

    Delta 1 = 0,   Delta X = Y*(Y - X),   Delta Y = -Y**2,

extended by the product rule; it encodes d/d(eta) of T(X(eta), Y(eta)) up to
a 1/eta factor.  Its Neumann inverse sum((-Delta)**k) is finite at any fixed
truncation because Delta strictly raises total degree.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .exact import LogConstant, log_of_rational

ExpPair = tuple[int, int]  # doubled exponents


class SeriesError(ValueError):
    pass


class SingularSeriesError(SeriesError):
    pass


class UnsupportedConstantError(SeriesError):
    pass


class CoefficientRing:
    """Adapter over LogConstant coefficients (see nfsopt for the unknown ring)."""

    def __init__(self):
        self.zero = LogConstant.zero()
        self.one = LogConstant.one()

    def from_fraction(self, q) -> LogConstant:
        return LogConstant.from_fraction(q)

    def from_logconst(self, c: LogConstant) -> LogConstant:
        return c

    def inverse(self, c: LogConstant) -> LogConstant:
        return c.inverse()

    def log_constant(self, c: LogConstant) -> LogConstant:
        if not isinstance(c, LogConstant) or not c.is_rational():
            raise UnsupportedConstantError(f"cannot take log of constant term {c}")
        q = c.as_fraction()
        if q <= 0:
            raise UnsupportedConstantError(f"log of non-positive constant term {q}")
        return log_of_rational(q)

    def eval_f64(self, c: LogConstant) -> float:
        return c.eval_f64()


LOG_RING = CoefficientRing()


def _doubled(order) -> int:
    d = Fraction(order) * 2
    if d.denominator != 1:
        raise SeriesError(f"order must be a half-integer, got {order}")
    if d < 0:
        raise SeriesError(f"order must be >= 0, got {order}")
    return int(d)


def _grlex_key(e: ExpPair) -> tuple[int, int]:
    # graded order, X-heavy monomials first within a degree
    return (e[0] + e[1], -e[0])


class TruncatedBiSeries:
    __slots__ = ("ring", "order2", "terms")

    def __init__(self, ring, order, terms: dict[ExpPair, object] | None = None, *, _doubled_order=None):
        self.ring = ring
        self.order2 = _doubled_order if _doubled_order is not None else _doubled(order)
        clean: dict[ExpPair, object] = {}
        for (dx, dy), c in (terms or {}).items():
            if dx + dy > self.order2:
                raise SeriesError(f"term X^{Fraction(dx, 2)} Y^{Fraction(dy, 2)} beyond order {self.order}")
            if c:
                clean[(dx, dy)] = c
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def _make(cls, ring, order2: int, terms: dict[ExpPair, object]) -> "TruncatedBiSeries":
        return cls(ring, None, terms, _doubled_order=order2)

    def _one_like(self) -> "TruncatedBiSeries":
        return TruncatedBiSeries._make(self.ring, self.order2, {(0, 0): self.ring.one})

    def _zero_like(self) -> "TruncatedBiSeries":
        return TruncatedBiSeries._make(self.ring, self.order2, {})

    @classmethod
    def constant(cls, ring, value, order) -> "TruncatedBiSeries":
        value = _coerce_coeff(ring, value)
        return cls(ring, order, {(0, 0): value} if value else {})

    @classmethod
    def zero(cls, ring, order) -> "TruncatedBiSeries":
        return cls(ring, order, {})

    @classmethod
    def one(cls, ring, order) -> "TruncatedBiSeries":
        return cls(ring, order, {(0, 0): ring.one})

    @classmethod
    def x(cls, ring, order) -> "TruncatedBiSeries":
        return cls(ring, order, {(2, 0): ring.one})

    @classmethod
    def y(cls, ring, order) -> "TruncatedBiSeries":
        return cls(ring, order, {(0, 2): ring.one})

    @classmethod
    def monomial(cls, ring, exp_x, exp_y, order, coeff=None) -> "TruncatedBiSeries":
        dx, dy = _doubled(exp_x), _doubled(exp_y)
        c = ring.one if coeff is None else _coerce_coeff(ring, coeff)
        return cls(ring, order, {(dx, dy): c} if c else {})

    # -- basic structure ------------------------------------------------------

    @property
    def order(self):
        return self.order2 // 2 if self.order2 % 2 == 0 else Fraction(self.order2, 2)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp_x, exp_y):
        return self.terms.get((_doubled(exp_x), _doubled(exp_y)), self.ring.zero)

    def constant_term(self):
        return self.terms.get((0, 0), self.ring.zero)

    def has_integer_exponents(self) -> bool:
        return all(dx % 2 == 0 and dy % 2 == 0 for dx, dy in self.terms)

    def sorted_exponents(self) -> list[ExpPair]:
        return sorted(self.terms, key=_grlex_key)

    def __eq__(self, other):
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        if self.order2 != other.order2 or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def __hash__(self):
        return hash((self.order2, frozenset(self.terms)))

    # -- ring operations -------------------------------------------------------

    def truncate(self, order) -> "TruncatedBiSeries":
        d = _doubled(order)
        return TruncatedBiSeries(
            self.ring, None,
            {e: c for e, c in self.terms.items() if e[0] + e[1] <= d},
            _doubled_order=d,
        )

    def with_order(self, order) -> "TruncatedBiSeries":
        """Re-declare the truncation bound; raising it asserts the caller
        knows the series is exact there (polynomials, monomial shifts)."""
        d = _doubled(order)
        return TruncatedBiSeries(self.ring, None, dict(self.terms), _doubled_order=d)

    def __add__(self, other):
        other = self._coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        order2 = min(self.order2, other.order2)
        terms = {e: c for e, c in self.terms.items() if e[0] + e[1] <= order2}
        for e, c in other.terms.items():
            if e[0] + e[1] > order2:
                continue
            s = terms.get(e)
            s = c if s is None else s + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return TruncatedBiSeries(self.ring, None, terms, _doubled_order=order2)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedBiSeries(
            self.ring, None, {e: -c for e, c in self.terms.items()}, _doubled_order=self.order2
        )

    def __sub__(self, other):
        other = self._coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        order2 = min(self.order2, other.order2)
        terms: dict[ExpPair, object] = {}
        if len(self.terms) > len(other.terms):
            a, b = other, self
        else:
            a, b = self, other
        for (ax, ay), ac in a.terms.items():
            rem = order2 - ax - ay
            for (bx, by), bc in b.terms.items():
                if bx + by > rem:
                    continue
                e = (ax + bx, ay + by)
                p = ac * bc
                s = terms.get(e)
                s = p if s is None else s + p
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return TruncatedBiSeries(self.ring, None, terms, _doubled_order=order2)

    __rmul__ = __mul__

    def scale(self, coeff) -> "TruncatedBiSeries":
        c = _coerce_coeff(self.ring, coeff)
        if not c:
            return TruncatedBiSeries(self.ring, None, {}, _doubled_order=self.order2)
        return TruncatedBiSeries(
            self.ring, None, {e: c * v for e, v in self.terms.items()}, _doubled_order=self.order2
        )

    def shift(self, exp_x, exp_y) -> "TruncatedBiSeries":
        """Multiply by the monomial X^exp_x Y^exp_y; exactness lifts with it."""
        dx, dy = _doubled(exp_x), _doubled(exp_y)
        return TruncatedBiSeries(
            self.ring, None,
            {(ex + dx, ey + dy): c for (ex, ey), c in self.terms.items()},
            _doubled_order=self.order2 + dx + dy,
        )

    def divide_by_y(self) -> "TruncatedBiSeries":
        """Exact division by Y; every term must carry Y at least once."""
        terms = {}
        for (dx, dy), c in self.terms.items():
            if dy < 2:
                raise SeriesError("series is not divisible by Y")
            terms[(dx, dy - 2)] = c
        return TruncatedBiSeries(self.ring, None, terms, _doubled_order=max(self.order2 - 2, 0))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise SeriesError("series powers must be non-negative integers")
        out = self._one_like()
        base = self
        while n:
            if n & 1:
                out = out * base
            n >>= 1
            if n:
                base = base * base
        return out

    def _coerce_series(self, other):
        if isinstance(other, TruncatedBiSeries):
            return other
        if isinstance(other, (int, Fraction)):
            c = self.ring.from_fraction(other)
            return TruncatedBiSeries._make(self.ring, self.order2, {(0, 0): c} if c else {})
        return NotImplemented

    # -- transcendental operations ---------------------------------------------

    def inverse(self) -> "TruncatedBiSeries":
        c = self.constant_term()
        if not c:
            raise SingularSeriesError("inverse of a series with zero constant term")
        c_inv = self.ring.inverse(c)
        u = self.scale(c_inv) - self._one_like()
        # geometric series in -u, finite because u has positive valuation
        acc = self._one_like()
        power = acc
        while True:
            power = power * (-u)
            if power.is_zero():
                break
            acc = acc + power
        return acc.scale(c_inv)

    def log(self) -> "TruncatedBiSeries":
        """log of the series; the constant term must have an exact positive log."""
        c = self.constant_term()
        if not c:
            raise SingularSeriesError("log of a series with zero constant term")
        log_c = self.ring.log_constant(c)
        u = self.scale(self.ring.inverse(c)) - self._one_like()
        acc = TruncatedBiSeries._make(
            self.ring, self.order2, {(0, 0): log_c} if log_c else {}
        )
        power = self._one_like()
        k = 0
        while True:
            k += 1
            power = power * u
            if power.is_zero():
                break
            acc = acc + power.scale(Fraction(-1 if k % 2 == 0 else 1, k))
        return acc

    def exp(self) -> "TruncatedBiSeries":
        if self.constant_term():
            raise SeriesError("exp requires a zero constant term")
        acc = self._one_like()
        power = acc
        k = 0
        fact = 1
        while True:
            k += 1
            fact *= k
            power = power * self
            if power.is_zero():
                break
            acc = acc + power.scale(Fraction(1, fact))
        return acc

    def compose(self, xs: "TruncatedBiSeries", ys: "TruncatedBiSeries") -> "TruncatedBiSeries":
        """Substitute (xs, ys) for (X, Y); both must have zero constant term
        and self must have integer exponents.  Evaluated as a Horner scheme
        in the Y substitute with cached powers of the X substitute."""
        if xs.constant_term() or ys.constant_term():
            raise SeriesError("composition requires zero constant terms")
        order2 = min(xs.order2, ys.order2)
        ring = xs.ring
        rows: dict[int, dict[int, object]] = {}
        for (dx, dy), c in self.terms.items():
            if dx % 2 or dy % 2:
                raise SeriesError("composition requires integer exponents")
            rows.setdefault(dy // 2, {})[dx // 2] = c
        if not rows:
            return TruncatedBiSeries._make(ring, order2, {})
        max_i = max((max(r) for r in rows.values()), default=0)
        half_order = Fraction(order2, 2)
        xs = xs.truncate(half_order)
        ys = ys.truncate(half_order)
        xpow = [TruncatedBiSeries._make(ring, order2, {(0, 0): ring.one})]
        for _ in range(max_i):
            xpow.append(xpow[-1] * xs)

        def row_series(j: int) -> TruncatedBiSeries:
            acc = TruncatedBiSeries._make(ring, order2, {})
            for i, c in rows[j].items():
                acc = acc + xpow[i].scale(c)
            return acc

        max_j = max(rows)
        out = row_series(max_j)
        for j in range(max_j - 1, -1, -1):
            out = out * ys
            if j in rows:
                out = out + row_series(j)
        return out

    # -- evaluation and rendering ------------------------------------------------

    def eval_f64(self, x: float, y: float) -> float:
        total = 0.0
        for (dx, dy), c in sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True):
            total += self.ring.eval_f64(c) * (x ** (dx / 2.0)) * (y ** (dy / 2.0))
        return total

    def map_coefficients(self, ring, fn: Callable) -> "TruncatedBiSeries":
        return TruncatedBiSeries(
            ring, None, {e: fn(c) for e, c in self.terms.items()}, _doubled_order=self.order2
        )

    def __repr__(self):
        return f"TruncatedBiSeries(order={self.order}, {self})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in self.sorted_exponents():
            coeff = self.terms[e]
            mono = _exp_to_string(e)
            cs = _coeff_to_string(coeff)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts)


def _coerce_coeff(ring, value):
    if isinstance(value, (int, Fraction)):
        return ring.from_fraction(value)
    if isinstance(value, LogConstant):
        return ring.from_logconst(value)
    return value


def _exp_to_string(e: ExpPair) -> str:
    dx, dy = e
    parts = []
    for name, d in (("X", dx), ("Y", dy)):
        if d == 0:
            continue
        if d == 2:
            parts.append(name)
        elif d % 2 == 0:
            parts.append(f"{name}^{d // 2}")
        else:
            parts.append(f"{name}^({Fraction(d, 2)})")
    return "*".join(parts)


def _coeff_to_string(coeff) -> str:
    if isinstance(coeff, LogConstant):
        return _compact_logconst(coeff)
    return str(coeff)


def _compact_logconst(c: LogConstant) -> str:
    """Sign-folded rendering used in series output: -2*l2 + (1/6)*l3 - 2."""
    if c.is_rational():
        q = c.as_fraction()
        return str(q) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"
    if not (len(c.den) == 1 and () in c.den and c.den[()] == 1):
        return c.to_string()
    from .exact import _mono_display_key, _mono_to_string  # rendering helpers

    parts = []
    for m in sorted(c.num, key=_mono_display_key):
        q = c.num[m]
        sign = "-" if q < 0 else "+"
        mag = abs(q)
        mag_s = str(mag) if mag.denominator == 1 else f"({mag})"
        if m:
            body = _mono_to_string(m) if mag == 1 else f"{mag_s}*{_mono_to_string(m)}"
        else:
            body = mag_s.strip("()") if mag.denominator == 1 else f"{mag}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    text = f"-{first_body}" if first_sign == "-" else first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


# ---------------------------------------------------------------------------
# The Delta derivation
# ---------------------------------------------------------------------------

def delta(t: TruncatedBiSeries) -> TruncatedBiSeries:
    """The derivation with Delta X = Y(Y-X), Delta Y = -Y^2 on monomials:

        Delta(X^a Y^b) = a X^(a-1) Y^(b+2) - (a+b) X^a Y^(b+1).

    Only integer exponents are admitted; the image always carries a factor Y.
    """
    if not t.has_integer_exponents():
        raise SeriesError("Delta is defined on integer-exponent series only")
    ring = t.ring
    terms: dict[ExpPair, object] = {}

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
    return TruncatedBiSeries(ring, None, terms, _doubled_order=t.order2)


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
