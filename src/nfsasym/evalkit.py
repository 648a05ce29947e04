"""Floating-point evaluation layer: truncations of the complexity exponent
correction, the full complexity formula, the introductory divergence demo,
and the data series behind the three figures.

All large-size evaluation is parametrized by nu = log N (or by loglog N for
the extreme grids); N itself is never materialized, since the interesting
ranges run up to exp(exp(40)).  xi_i(nu) denotes A^(i)(X(nu), Y(nu)) - 1
for the proven expansion A, and

    log C = (64/9)^(1/3) * nu^(1/3) * (log nu)^(2/3) * A^(i)(X(nu), Y(nu)).

The demo functions of the introduction are

    g0(N) = exp((log N)^(1/3) (loglog N)^(2/3)),
    g(N)  = exp((log N)^(1/3) (loglog N)^(2/3) / (1 + 20/loglog N)),

whose divergence at cryptographic sizes motivates the whole exercise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dickman import q_truncation, xy_of
from .nfsopt import CandidateExpansion
from .pseries import TruncatedBiSeries

LOG2 = math.log(2.0)
CBRT_64_9 = (64.0 / 9.0) ** (1.0 / 3.0)


class EvalError(ValueError):
    pass


class DegreeUnavailableError(EvalError):
    def __init__(self, need: int, have: int):
        super().__init__(
            f"truncation degree {need} exceeds the proven expansion degree {have};"
            " run compute_proven_expansion first"
        )
        self.need = need
        self.have = have


def xy_from_loglognu(t: float) -> tuple[float, float]:
    """(X(nu), Y(nu)) for loglog(nu) = t; usable far beyond float range of nu."""
    if not 0.0 < t < math.inf:
        raise EvalError(f"loglog nu must be finite and positive, got {t}")
    return t * math.exp(-t), math.exp(-t)


@dataclass(frozen=True)
class XiTruncation:
    """The degree-i truncation xi_i, as the polynomial A^(i) - 1."""
    degree: int
    poly: TruncatedBiSeries

    def eval(self, nu: float) -> float:
        x, y = xy_of(nu)
        return self.poly.eval_f64(x, y)

    def eval_loglog(self, t: float) -> float:
        x, y = xy_from_loglognu(t)
        return self.poly.eval_f64(x, y)


def xi_truncation(cand: CandidateExpansion, i: int) -> XiTruncation:
    if i < 0:
        raise EvalError("truncation degree must be >= 0")
    if i > cand.degA:
        raise DegreeUnavailableError(i, cand.degA)
    poly = cand.A.truncate(i) - TruncatedBiSeries.one(i)
    return XiTruncation(i, poly)


def xi_eval(cand: CandidateExpansion, i: int, nu: float) -> float:
    """A^(i)(X(nu), Y(nu)) - 1; needs nu > e^e so that X, Y lie in (0, 1)."""
    if not math.exp(math.e) < nu < math.inf:
        raise EvalError(f"xi evaluation needs finite nu > e^e, got {nu}")
    return xi_truncation(cand, i).eval(nu)


def xi_eval_loglog(cand: CandidateExpansion, i: int, loglognu: float) -> float:
    """xi_i parametrized by loglog(nu), for sizes where nu overflows."""
    if not 1.0 < loglognu < math.inf:
        raise EvalError(f"xi evaluation needs finite loglog nu > 1, got {loglognu}")
    return xi_truncation(cand, i).eval_loglog(loglognu)


def complexity_log(cand: CandidateExpansion, nu: float, i: int) -> float:
    """log C(N) for nu = log N under the degree-i truncation."""
    if not math.exp(math.e) < nu < math.inf:
        raise EvalError(f"complexity evaluation needs finite nu > e^e, got {nu}")
    xi = xi_eval(cand, i, nu)
    return CBRT_64_9 * nu ** (1.0 / 3.0) * math.log(nu) ** (2.0 / 3.0) * (1.0 + xi)


@dataclass(frozen=True)
class GDemo:
    bits: float
    g0_log2: float
    g_log2: float


def g_demo(bits: float) -> GDemo:
    """log2 of g0(N) and g(N) at N = 2^bits."""
    if not 1.0 < bits < math.inf:
        raise EvalError(f"g_demo needs finite bits > 1, got {bits}")
    nu = bits * LOG2
    lognu = math.log(nu)
    base = nu ** (1.0 / 3.0) * lognu ** (2.0 / 3.0)
    return GDemo(bits, base / LOG2, base / (1.0 + 20.0 / lognu) / LOG2)


# ---------------------------------------------------------------------------
# Figure data
# ---------------------------------------------------------------------------

FIGURE_IDS = ("zonecrypto", "convergence", "logrho")


@dataclass(frozen=True)
class FigureSeries:
    figure_id: str
    rows: tuple  # (abscissa, curve id, value), grouped by curve, abscissa increasing

    def curve(self, curve_id: str) -> list[tuple[float, float]]:
        return [(a, v) for a, c, v in self.rows if c == curve_id]


def _log_grid(lo: float, hi: float, points: int) -> list[float]:
    if points < 2 or not hi > lo > 0:
        raise EvalError("bad grid specification")
    step = (math.log(hi) - math.log(lo)) / (points - 1)
    return [math.exp(math.log(lo) + k * step) for k in range(points)]


def figure_data(
    cand: CandidateExpansion | None,
    figure_id: str,
    i_max: int,
    points: int = 512,
) -> FigureSeries:
    """Deterministic data rows behind the three figures.

    zonecrypto: xi_i over the cryptographic range N up to 2^20000, abscissa
    loglog N.  convergence: xi_i for nu up to e^(e^40), abscissa loglog nu.
    logrho: Q^(i)(X(u), Y(u)) on a log grid of u, abscissa log u.
    The first curve is i = 1 for logrho and i = 0 for the others, and
    i_max below it is an error.
    """
    if figure_id not in FIGURE_IDS:
        raise EvalError(f"unknown figure id {figure_id!r}; expected one of {FIGURE_IDS}")
    first = 1 if figure_id == "logrho" else 0
    if i_max < first:
        raise EvalError(f"figure {figure_id} needs i_max >= {first}, got {i_max}")
    rows: list[tuple[float, str, float]] = []
    if figure_id == "zonecrypto":
        if cand is None:
            raise EvalError("zonecrypto needs a proven expansion")
        trunc = [xi_truncation(cand, i) for i in range(i_max + 1)]
        for bits in _log_grid(64.0, 20000.0, points):
            nu = bits * LOG2
            abscissa = math.log(math.log(nu))
            for i, t in enumerate(trunc):
                rows.append((abscissa, f"xi_{i}", t.eval(nu)))
    elif figure_id == "convergence":
        if cand is None:
            raise EvalError("convergence needs a proven expansion")
        trunc = [xi_truncation(cand, i) for i in range(i_max + 1)]
        for loglognu in _log_grid(2.0, 40.0, points):
            for i, t in enumerate(trunc):
                rows.append((loglognu, f"xi_{i}", t.eval_loglog(loglognu)))
    else:
        qs = [q_truncation(i) for i in range(1, i_max + 1)]
        for logu in _log_grid(1.5, 12.0, points):
            u = math.exp(logu)
            x, y = xy_of(u)
            for i, q in enumerate(qs, start=1):
                rows.append((logu, f"Q_{i}", q.eval_f64(x, y)))
    return FigureSeries(figure_id, tuple(rows))


def rows_to_csv(series: FigureSeries) -> str:
    lines = ["abscissa,curve,value"]
    for a, c, v in series.rows:
        lines.append(f"{a!r},{c},{v!r}")
    return "\n".join(lines) + "\n"


def rows_to_svg(series: FigureSeries) -> str:
    """Minimal self-contained polyline plot, one colored path per curve."""
    width, height = 800, 500
    curves: dict[str, list[tuple[float, float]]] = {}
    for a, c, v in series.rows:
        curves.setdefault(c, []).append((a, v))
    xs = [a for pts in curves.values() for a, _ in pts]
    ys = [v for pts in curves.values() for _, v in pts]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 40.0

    def sx(x):
        return pad + (x - x0) / (x1 - x0) * (width - 2 * pad)

    def sy(y):
        return height - pad - (y - y0) / (y1 - y0) * (height - 2 * pad)

    palette = ["#1f77b4", "#ff7f0e", "#2ca02c", "#d62728", "#9467bd",
               "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{pad}" y="20" font-size="14">{series.figure_id}</text>',
    ]
    for idx, (cid, pts) in enumerate(sorted(curves.items())):
        color = palette[idx % len(palette)]
        coords = " ".join(f"{sx(a):.2f},{sy(v):.2f}" for a, v in pts)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>'
        )
        parts.append(
            f'<text x="{width - pad + 4:.0f}" y="{sy(pts[-1][1]):.2f}"'
            f' font-size="11" fill="{color}">{cid}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
