"""Truncated bivariate power series in X and Y with half-integer exponents.

A series is a finite term map together with a truncation bound: "order n"
means every term of total degree <= n is exact and nothing is claimed
beyond.  Exponents live in (1/2)*Z>=0 and are stored doubled (so X itself is
the key (2, 0) and X^(1/2) is (1, 0)), which keeps half-integer bookkeeping
exact.  Binary operations return the tightest order guaranteed by their
inputs (min of the operand orders; monomial shifts lift the order by the
shift degree), and truncate never raises an order.

A series may also carry a bound on its Y exponent (y_bounded): it then keeps
no term whose Y exponent exceeds the bound, and a binary operation keeps the
tighter bound of its operands.  The terms beyond any bound form an ideal of
the series ring, so dropping them is a ring homomorphism: it commutes with
every operation here (+, -, *, scale, shift, truncate, inverse, log, and
compose into a bounded substitute).  A bounded result is therefore the
unbounded one with the same terms dropped.  Without a bound no operation
pays any per-term check.

Coefficients carry their own arithmetic, except in the series product.  The
series needs from them:

* +, -, * (also with int and Fraction operands), == and truth testing;
* inverse(), for the constant term of inverse and log, which must be a
  unit (a nonzero rational for LogConstant);
* is_rational() and as_fraction(), for the constant term of log, which must
  be a LogConstant with a positive rational value so that its log is exact;
* eval_f64(), for numeric evaluation.

The constants the engine creates (one, rational scalars, log of a constant
term) are always LogConstant, elements of Q[log 2, log 3], so a coefficient
type must accept LogConstant operands on either side.  The
unknown-coefficient polynomials and the first-order jets of the
optimization layer do, which lets one series mix them with plain
constants; they implement the arithmetic and inverse() only, which is all
the constraint expansion asks of them.

The series product is a Kronecker substitution (Harvey, "Faster polynomial
multiplication via multipoint Kronecker substitution", JSC 2009): it packs
each coefficient into one Python integer, multiplies the integers once per
pair of terms and unpacks once per product term, so it never calls a
coefficient's *.  It reads a LogConstant through its integer numerators
`num` {(i, j): n} over its denominator `den`, and builds each product
coefficient from integers, with no rational per monomial.  Any other
coefficient type must be a polynomial over LogConstant in unknown monomials:

* `terms`, its map {unknown monomial: nonzero LogConstant}, with () the
  monomial 1;
* `mono_mul(m1, m2)`, callable on the type, the product of two monomials
  other than (); it may raise to refuse a shape, or return None to drop the
  product (the jets drop every one), and is called for every such pair of
  monomials of every pair of terms within the order;
* `_make(terms)`, callable on the type, the value with a given map of
  nonzero LogConstant.

A product term has that type when one of the operand terms behind it had it,
and is a LogConstant otherwise.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exact import LogConstant, _reduced, log_of_rational

ExpPair = tuple[int, int]  # doubled exponents

_ZERO = LogConstant.zero()
_ONE = LogConstant.one()


class SeriesError(ValueError):
    pass


class SingularSeriesError(SeriesError):
    pass


class UnsupportedConstantError(SeriesError):
    pass


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
    __slots__ = ("order2", "terms", "ymax2", "_f64")

    def __init__(self, order, terms: dict[ExpPair, object] | None = None, *,
                 _doubled_order=None, _ymax2=None):
        self.order2 = _doubled_order if _doubled_order is not None else _doubled(order)
        clean: dict[ExpPair, object] = {}
        for (dx, dy), c in (terms or {}).items():
            if dx + dy > self.order2:
                raise SeriesError(f"term X^{Fraction(dx, 2)} Y^{Fraction(dy, 2)} beyond order {self.order}")
            if c:
                clean[(dx, dy)] = c
        if _ymax2 is not None:
            clean = {e: c for e, c in clean.items() if e[1] <= _ymax2}
        self.terms = clean
        self.ymax2 = _ymax2  # doubled Y-exponent bound, None when unbounded
        self._f64 = None  # [(float coefficient, x exponent, y exponent)], built by eval_f64

    # -- constructors --------------------------------------------------------

    @classmethod
    def _make(cls, order2: int, terms: dict[ExpPair, object], ymax2=None) -> "TruncatedBiSeries":
        return cls(None, terms, _doubled_order=order2, _ymax2=ymax2)

    def _one_like(self) -> "TruncatedBiSeries":
        return TruncatedBiSeries._make(self.order2, {(0, 0): _ONE}, self.ymax2)

    def _zero_like(self) -> "TruncatedBiSeries":
        return TruncatedBiSeries._make(self.order2, {}, self.ymax2)

    @classmethod
    def constant(cls, value, order) -> "TruncatedBiSeries":
        value = _coerce_coeff(value)
        return cls(order, {(0, 0): value} if value else {})

    @classmethod
    def zero(cls, order) -> "TruncatedBiSeries":
        return cls(order, {})

    @classmethod
    def one(cls, order) -> "TruncatedBiSeries":
        return cls(order, {(0, 0): _ONE})

    @classmethod
    def x(cls, order) -> "TruncatedBiSeries":
        return cls(order, {(2, 0): _ONE})

    @classmethod
    def y(cls, order) -> "TruncatedBiSeries":
        return cls(order, {(0, 2): _ONE})

    @classmethod
    def monomial(cls, exp_x, exp_y, order, coeff=None) -> "TruncatedBiSeries":
        dx, dy = _doubled(exp_x), _doubled(exp_y)
        c = _ONE if coeff is None else _coerce_coeff(coeff)
        return cls(order, {(dx, dy): c} if c else {})

    # -- basic structure ------------------------------------------------------

    @property
    def order(self):
        return self.order2 // 2 if self.order2 % 2 == 0 else Fraction(self.order2, 2)

    def y_bounded(self, y_max) -> "TruncatedBiSeries":
        """The series with every term of Y exponent above `y_max` dropped, and
        the bound kept for every result computed from it."""
        return TruncatedBiSeries._make(self.order2, self.terms, _tighter(self.ymax2, _doubled(y_max)))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, exp_x, exp_y):
        return self.terms.get((_doubled(exp_x), _doubled(exp_y)), _ZERO)

    def constant_term(self):
        return self.terms.get((0, 0), _ZERO)

    def has_integer_exponents(self) -> bool:
        return all(dx % 2 == 0 and dy % 2 == 0 for dx, dy in self.terms)

    def sorted_exponents(self) -> list[ExpPair]:
        return sorted(self.terms, key=_grlex_key)

    def __eq__(self, other):
        if not isinstance(other, TruncatedBiSeries):
            return NotImplemented
        if (self.order2, self.ymax2) != (other.order2, other.ymax2) or set(self.terms) != set(other.terms):
            return False
        return all(self.terms[e] == other.terms[e] for e in self.terms)

    def __hash__(self):
        return hash((self.order2, frozenset(self.terms)))

    # -- arithmetic ------------------------------------------------------------

    def truncate(self, order) -> "TruncatedBiSeries":
        """Drop every term beyond `order`, which must not exceed the series'
        own order: nothing past that is known, so truncation cannot claim it."""
        d = _doubled(order)
        if d > self.order2:
            raise SeriesError(f"cannot truncate an order-{self.order} series at higher order {order}")
        return TruncatedBiSeries._make(
            d, {e: c for e, c in self.terms.items() if e[0] + e[1] <= d}, self.ymax2)

    def with_order(self, order) -> "TruncatedBiSeries":
        """Re-declare the truncation bound; raising it asserts the caller
        knows the series is exact there (polynomials, monomial shifts)."""
        return TruncatedBiSeries._make(_doubled(order), dict(self.terms), self.ymax2)

    def __add__(self, other):
        other = self._coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        order2 = min(self.order2, other.order2)
        ymax2 = _tighter(self.ymax2, other.ymax2)
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
        return TruncatedBiSeries._make(order2, terms, ymax2)

    __radd__ = __add__

    def __neg__(self):
        return TruncatedBiSeries._make(self.order2, {e: -c for e, c in self.terms.items()}, self.ymax2)

    def __sub__(self, other):
        other = self._coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """The product by Kronecker substitution: each (term, unknown monomial)
        coefficient is packed into one integer (see _pack), so a pair of terms
        costs one integer product per pair of unknown monomials."""
        other = self._coerce_series(other)
        if other is NotImplemented:
            return NotImplemented
        order2 = min(self.order2, other.order2)
        ymax2 = _tighter(self.ymax2, other.ymax2)
        a, b = self.terms, other.terms
        if ymax2 is not None:
            # a term beyond the bound only reaches terms beyond it
            a = {e: c for e, c in a.items() if e[1] <= ymax2}
            b = {e: c for e, c in b.items() if e[1] <= ymax2}
        if not a or not b:
            return TruncatedBiSeries._make(order2, {}, ymax2)
        den_a, top_a, jmax_a, count_a = _scan(a)
        den_b, top_b, jmax_b, count_b = _scan(b)
        # l2^i l3^j sits in slot i*r + j.  A slot of the product sums at most
        # min(count_a, count_b) products of a numerator of a and one of b (an
        # entry of one operand meets at most one of the other in it), and one
        # more bit holds the sign, so no slot overflows into the next
        r = jmax_a + jmax_b + 1
        width = top_a.bit_length() + top_b.bit_length() + min(count_a, count_b).bit_length() + 1
        rows_a = _pack(a, den_a, r, width)
        rows_b = _pack(b, den_b, r, width)
        acc: dict[ExpPair, dict] = {}   # exponent -> {unknown monomial: packed sum}
        kinds: dict[ExpPair, type] = {}  # exponent -> coefficient type, where not LogConstant
        for deg_a, (ax, ay), kind_a, packed_a in rows_a:
            rem = order2 - deg_a
            for deg_b, (bx, by), kind_b, packed_b in rows_b:
                if deg_b > rem:
                    break
                e = (ax + bx, ay + by)
                kind = kind_a or kind_b
                if kind:
                    kinds[e] = kind
                out = acc.get(e)
                if out is None:
                    out = acc[e] = {}
                for ma, va in packed_a.items():
                    for mb, vb in packed_b.items():
                        m = kind.mono_mul(ma, mb) if ma and mb else ma or mb
                        if m is not None:
                            out[m] = out.get(m, 0) + va * vb
        den = den_a * den_b
        terms: dict[ExpPair, object] = {}
        for e, out in acc.items():
            coeffs = {}
            for m, v in out.items():
                if v:
                    coeffs[m] = _unpack(v, den, r, width)
            if coeffs:
                kind = kinds.get(e)
                terms[e] = coeffs[()] if kind is None else kind._make(coeffs)
        return TruncatedBiSeries._make(order2, terms, ymax2)

    __rmul__ = __mul__

    def scale(self, coeff) -> "TruncatedBiSeries":
        c = _coerce_coeff(coeff)
        if not c:
            return self._zero_like()
        return TruncatedBiSeries._make(self.order2, {e: c * v for e, v in self.terms.items()}, self.ymax2)

    def shift(self, exp_x, exp_y) -> "TruncatedBiSeries":
        """Multiply by the monomial X^exp_x Y^exp_y; exactness lifts with it."""
        dx, dy = _doubled(exp_x), _doubled(exp_y)
        return TruncatedBiSeries._make(
            self.order2 + dx + dy, {(ex + dx, ey + dy): c for (ex, ey), c in self.terms.items()},
            self.ymax2,
        )

    def _coerce_series(self, other):
        if isinstance(other, TruncatedBiSeries):
            return other
        if isinstance(other, (int, Fraction)):
            c = LogConstant.from_fraction(other)
            return TruncatedBiSeries._make(self.order2, {(0, 0): c} if c else {})
        return NotImplemented

    # -- transcendental operations ---------------------------------------------

    def inverse(self) -> "TruncatedBiSeries":
        return self._inverse_from(*self._unit_powers("inverse"))

    def log(self) -> "TruncatedBiSeries":
        """log of the series; the constant term must have an exact positive log."""
        return self._log_from(*self._unit_powers("log"))

    def inverse_and_log(self) -> tuple["TruncatedBiSeries", "TruncatedBiSeries"]:
        """(inverse(), log()) from one run of the powers both sum."""
        c, powers = self._unit_powers("log")
        return self._inverse_from(c, powers), self._log_from(c, powers)

    def _unit_powers(self, op: str) -> tuple:
        """(c, [u, u^2, ...]) with c the constant term and u = self/c - 1, up
        to the last nonzero power; finite because u has positive valuation.
        The constant term must be a unit, and for op == "log" it must have
        an exact log."""
        c = self.constant_term()
        if not c:
            raise SingularSeriesError(f"{op} of a series with zero constant term")
        if op == "log":
            _log_of_constant(c)
        u = self.scale(c.inverse()) - self._one_like()
        powers = [u] if u.terms else []
        # u^k has valuation >= k * low, so it vanishes once that passes the order
        low = min((e[0] + e[1] for e in u.terms), default=0)
        while powers and (len(powers) + 1) * low <= u.order2:
            power = powers[-1] * u
            if power.is_zero():
                break
            powers.append(power)
        return c, powers

    def _inverse_from(self, c, powers: list) -> "TruncatedBiSeries":
        # 1/(c (1 + u)) = c^-1 sum (-u)^k
        acc = self._one_like()
        for k, power in enumerate(powers, 1):
            acc = acc - power if k % 2 else acc + power
        return acc.scale(c.inverse())

    def _log_from(self, c, powers: list) -> "TruncatedBiSeries":
        # log(c (1 + u)) = log c + sum (-1)^(k+1) u^k / k
        log_c = _log_of_constant(c)
        acc = TruncatedBiSeries._make(self.order2, {(0, 0): log_c} if log_c else {}, self.ymax2)
        for k, power in enumerate(powers, 1):
            acc = acc + power.scale(Fraction(1 if k % 2 else -1, k))
        return acc

    def compose(self, xs: "TruncatedBiSeries", ys: "TruncatedBiSeries") -> "TruncatedBiSeries":
        """Substitute (xs, ys) for (X, Y); both must have zero constant term
        and self must have integer exponents and no Y bound (its Y terms are
        substituted, so it must know all of them).  The result keeps the
        tighter Y bound of xs and ys.  Evaluated as a Horner scheme in the Y
        substitute with cached powers of the X substitute."""
        if xs.constant_term() or ys.constant_term():
            raise SeriesError("composition requires zero constant terms")
        if self.ymax2 is not None:
            raise SeriesError("cannot compose a Y-bounded series")
        order2 = min(xs.order2, ys.order2)
        ymax2 = _tighter(xs.ymax2, ys.ymax2)
        rows: dict[int, dict[int, object]] = {}
        for (dx, dy), c in self.terms.items():
            if dx % 2 or dy % 2:
                raise SeriesError("composition requires integer exponents")
            rows.setdefault(dy // 2, {})[dx // 2] = c
        if not rows:
            return TruncatedBiSeries._make(order2, {}, ymax2)
        max_i = max((max(r) for r in rows.values()), default=0)
        half_order = Fraction(order2, 2)
        xs = xs.truncate(half_order)
        ys = ys.truncate(half_order)
        xpow = [TruncatedBiSeries._make(order2, {(0, 0): _ONE}, ymax2)]
        for _ in range(max_i):
            xpow.append(xpow[-1] * xs)

        def row_series(j: int) -> TruncatedBiSeries:
            acc = TruncatedBiSeries._make(order2, {}, ymax2)
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
        # the float coefficients are computed once per series, highest degree first
        if self._f64 is None:
            self._f64 = [(c.eval_f64(), dx / 2.0, dy / 2.0) for (dx, dy), c in
                         sorted(self.terms.items(), key=lambda kv: _grlex_key(kv[0]), reverse=True)]
        total = 0.0
        for c, ex, ey in self._f64:
            total += c * (x ** ex) * (y ** ey)
        return total

    def __repr__(self):
        bound = "" if self.ymax2 is None else f", y_max={Fraction(self.ymax2, 2)}"
        return f"TruncatedBiSeries(order={self.order}{bound}, {self})"

    def __str__(self):
        return self.to_string()

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in self.sorted_exponents():
            coeff = self.terms[e]
            mono = _exp_to_string(e)
            cs = coeff.to_compact_string() if isinstance(coeff, LogConstant) else str(coeff)
            if not mono:
                parts.append(cs)
            elif cs == "1":
                parts.append(mono)
            elif cs == "-1":
                parts.append(f"-{mono}")
            else:
                parts.append(f"({cs})*{mono}")
        return " + ".join(parts)


def _tighter(a, b):
    # the tighter of two doubled Y bounds, None meaning unbounded
    if a is None:
        return b
    return a if b is None else min(a, b)


def _unknown_terms(c):
    # a coefficient as {unknown monomial: LogConstant}
    return {(): c} if isinstance(c, LogConstant) else c.terms


def _scan(terms: dict) -> tuple[int, int, int, int]:
    """One pass over a product operand: the lcm of its denominators, its
    largest |numerator| over that lcm, its largest l3 power and its number
    of (term, unknown monomial, l-monomial) entries."""
    den = 1
    top_n, top_d = 0, 1  # the largest |coefficient| as top_n / top_d
    jmax = 0
    count = 0
    for c in terms.values():
        for lc in _unknown_terms(c).values():
            num, d = lc.num, lc.den
            count += len(num)
            if den % d:
                den = math.lcm(den, d)
            n = max(max(num.values()), -min(num.values()))
            if n * top_d > top_n * d:
                top_n, top_d = n, d
            j = max(j for _, j in num)
            if j > jmax:
                jmax = j
    return den, top_n * (den // top_d), jmax, count


def _pack(terms: dict, den: int, r: int, width: int) -> list:
    """(degree, exponent, coefficient type or None, {unknown monomial: packed
    integer}) per term, by ascending degree.  The packed integer of
    sum q_ij l2^i l3^j is sum (q_ij * den) 2^(width * (i*r + j)), each slot
    a signed integer, so one integer product multiplies two coefficients."""
    rows = []
    for e, c in terms.items():
        packed = {}
        for m, lc in _unknown_terms(c).items():
            v = 0
            for (i, j), n in lc.num.items():
                v += n << (width * (i * r + j))
            # the slots are signed, so scaling the packed integer scales each
            packed[m] = v * (den // lc.den)
        rows.append((e[0] + e[1], e, None if isinstance(c, LogConstant) else type(c), packed))
    rows.sort(key=lambda row: row[0])
    return rows


def _unpack(v: int, den: int, r: int, width: int) -> LogConstant:
    """The LogConstant of a nonzero packed integer over `den`."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    num = {}
    k = 0
    while v:
        s = v & mask
        if s >= half:
            s -= mask + 1
        if s:
            num[divmod(k, r)] = s
        v = (v - s) >> width
        k += 1
    return _reduced(num, den)


def _coerce_coeff(value):
    if isinstance(value, (int, Fraction)):
        return LogConstant.from_fraction(value)
    return value


def _log_of_constant(c) -> LogConstant:
    """The exact log of a positive rational constant term."""
    if not isinstance(c, LogConstant) or not c.is_rational():
        raise UnsupportedConstantError(f"cannot take log of constant term {c}")
    q = c.as_fraction()
    if q <= 0:
        raise UnsupportedConstantError(f"log of non-positive constant term {q}")
    return log_of_rational(q)


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
