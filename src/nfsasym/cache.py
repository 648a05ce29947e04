"""Expansion cache: JSON files ``expansion_deg{d}.json``, written atomically,
holding the exact A, B, D coefficient maps plus a proof-log summary.  Every
load re-verifies the constraint-vanishing invariant, so a tampered or stale
file fails loudly; ``load_proven`` verifies only the file it picks.
"""

from __future__ import annotations

import json
import os
import time
from fractions import Fraction
from pathlib import Path
from typing import Optional

from .exact import LogConstant
from .nfsopt import CandidateExpansion, ExpansionResult, NfsoptError, ProofLog, constraint_residual
from .pseries import TruncatedBiSeries

ENGINE_VERSION = "nfsasym-0.1.0"
CACHE_DIR_ENV = "NFSASY_CACHE_DIR"


class CacheError(ValueError):
    pass


class CacheVerificationError(CacheError):
    pass


def cache_dir() -> Path:
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override)
    return Path.home() / ".cache" / "nfsasym"


def cache_path(degree: int) -> Path:
    return cache_dir() / f"expansion_deg{degree}.json"


def _series_to_json(series: TruncatedBiSeries) -> dict:
    return {
        "order2": series.order2,
        "terms": {f"{dx},{dy}": c.to_string() for (dx, dy), c in sorted(series.terms.items())},
    }


def _series_from_json(data: dict) -> TruncatedBiSeries:
    terms = {}
    for key, text in data["terms"].items():
        dx, dy = (int(part) for part in key.split(","))
        terms[(dx, dy)] = LogConstant.parse(text)
    return TruncatedBiSeries._make(int(data["order2"]), terms)


def _proof_summary(log: ProofLog) -> list[dict]:
    return [
        {
            "target": [str(s.target[0]), str(s.target[1])],
            "pattern": s.pattern,
            "kappa_b": s.kappa_b.to_string() if s.kappa_b is not None else None,
            "kappa_d": s.kappa_d.to_string() if s.kappa_d is not None else None,
            "kappa_a": s.kappa_a.to_string(),
            "pinned_by": s.pinned_by,
        }
        for s in log.steps
    ]


def save_expansion(result: ExpansionResult) -> Path:
    """Write the proven expansion atomically; CacheError if it cannot be written."""
    cand = result.candidate
    path = cache_path(cand.degA)
    payload = {
        "engine": ENGINE_VERSION,
        "degree": cand.degA,
        "deg_b": cand.degB,
        "deg_d": str(Fraction(cand.degD)),
        "status": cand.status,
        "A": _series_to_json(cand.A),
        "B": _series_to_json(cand.B),
        "D": _series_to_json(cand.D),
        "proof_log": _proof_summary(result.proof_log),
        "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")  # outside the cache glob
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        try:
            tmp.write_text(json.dumps(payload, indent=1))
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
    except OSError as exc:
        raise CacheError(f"cannot write expansion cache {path}: {exc}") from exc
    return path


def load_expansion(path: Path) -> CandidateExpansion:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise CacheError(f"cannot read expansion cache {path}: {exc}") from exc
    engine = payload.get("engine") if isinstance(payload, dict) else None
    if engine != ENGINE_VERSION:
        raise CacheError(f"cache {path} written by {engine!r}, expected {ENGINE_VERSION!r}")
    try:
        cand = CandidateExpansion(
            A=_series_from_json(payload["A"]),
            B=_series_from_json(payload["B"]),
            D=_series_from_json(payload["D"]),
            degA=int(payload["degree"]),
            degB=int(payload["deg_b"]),
            degD=Fraction(payload["deg_d"]),
            status=str(payload["status"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        # ValueError covers ExactError: a coefficient outside Q[l2, l3]
        raise CacheError(f"malformed expansion cache {path}: {exc!r}") from exc
    verify_expansion(cand, source=str(path))
    return cand


def load_proven(min_degree: int) -> Optional[CandidateExpansion]:
    """The cached expansion of the smallest degree >= min_degree that loads
    and re-verifies, or None.  Files are tried in ascending order of the
    degree in their name, and only until one passes; a file that fails, or
    whose payload degree disagrees with its name, is skipped."""
    named = []
    for path in cache_dir().glob("expansion_deg*.json"):
        digits = path.stem.removeprefix("expansion_deg")
        if digits.isdecimal() and int(digits) >= min_degree:
            named.append((int(digits), path))
    for degree, path in sorted(named):
        try:
            cand = load_expansion(path)
        except CacheError:
            continue
        if cand.degA == degree:
            return cand
    return None


def verify_expansion(cand: CandidateExpansion, source: str = "cache") -> None:
    """Re-derive the constraint and demand every coefficient through the
    cached degree vanishes; rejects any tampered coefficient, also one on
    which the constraint cannot be rebuilt at all."""
    try:
        residual = constraint_residual(cand, order=cand.degA)
    except (ValueError, ZeroDivisionError, NfsoptError) as exc:
        # ValueError covers SeriesError, AsymError and ExactError
        raise CacheVerificationError(f"{source}: constraint cannot be rebuilt: {exc!r}") from exc
    if not residual.is_zero():
        bad = residual.sorted_exponents()[0]
        raise CacheVerificationError(
            f"{source}: constraint residual is nonzero at X^{Fraction(bad[0], 2)}"
            f" Y^{Fraction(bad[1], 2)}: {residual.terms[bad]}"
        )
