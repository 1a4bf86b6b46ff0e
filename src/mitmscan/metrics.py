"""Quantitative measures over scan results.

Undefined quantities (empty denominators, degenerate groups) are reported as
None, never silently zero.
"""

from __future__ import annotations

import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .flowledger import FlowLedger

log = logging.getLogger(__name__)

# One three-month sampling slot, in days.
SLOT_DAYS = 91


# -- detection and coverage rates ----------------------------------------------


@dataclass(frozen=True)
class DetectionSets:
    a_det: frozenset[str]
    a_gt: frozenset[str]
    s_det: frozenset[tuple[str, str]]
    s_gt: frozenset[tuple[str, str]]


@dataclass(frozen=True)
class CoverageSets:
    e_auto: frozenset[tuple[str, str]]
    e_manual: frozenset[tuple[str, str]]
    s_auto: frozenset[tuple[str, str]]
    s_manual: frozenset[tuple[str, str]]


def _rate(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def detection_rates(d: DetectionSets) -> dict[str, float | None]:
    return {
        "R_app": _rate(len(d.a_det & d.a_gt), len(d.a_gt)),
        "R_app_novel": _rate(len(d.a_det - d.a_gt), len(d.a_det)),
        "R_TLS": _rate(len(d.s_det & d.s_gt), len(d.s_gt)),
        "R_TLS_novel": _rate(len(d.s_det - d.s_gt), len(d.s_det)),
    }


def coverage_rates(c: CoverageSets) -> dict[str, float | None]:
    return {
        "C_UI": _rate(len(c.e_auto & c.e_manual), len(c.e_manual)),
        "C_UI_novel": _rate(len(c.e_auto - c.e_manual), len(c.e_auto)),
        "C_TLS": _rate(len(c.s_auto & c.s_manual), len(c.s_manual)),
        "C_TLS_novel": _rate(len(c.s_auto - c.s_manual), len(c.s_auto)),
    }


# -- prevalence ------------------------------------------------------------------


def prevalence(ledger: FlowLedger) -> dict:
    """Vulnerable fraction per entity class plus the per-app flow-ratio spread.

    Each app's ratio is taken over its unique (app, fqdn) pairs. Skipped
    flows never count toward denominators; the conclusive base is
    vulnerable + secure + inconclusive.
    """
    records = [r for r in ledger.records() if r.outcome != "skipped"]
    apps = {r.app_id for r in records}
    fqdns = {r.fqdn for r in records}
    app_fqdns = {(r.app_id, r.fqdn) for r in records}
    vulnerable = [r for r in records if r.outcome == "vulnerable"]
    v_apps = {r.app_id for r in vulnerable}
    v_fqdns = {r.fqdn for r in vulnerable}
    v_app_fqdns = {(r.app_id, r.fqdn) for r in vulnerable}

    hosts_tested = Counter(app for app, _ in app_fqdns)
    hosts_vulnerable = Counter(app for app, _ in v_app_fqdns)
    ratios = [hosts_vulnerable[app] / hosts_tested[app] for app in sorted(hosts_tested)]

    return {
        "fractions": {
            "apps": _rate(len(v_apps), len(apps)),
            "flows": _rate(len(vulnerable), len(records)),
            "fqdns": _rate(len(v_fqdns), len(fqdns)),
            "app_fqdns": _rate(len(v_app_fqdns), len(app_fqdns)),
        },
        "per_app_ratio": {
            "values": ratios,
            "median": _median(ratios),
            "mean": sum(ratios) / len(ratios) if ratios else None,
            "share_above_half": (
                sum(1 for r in ratios if r > 0.5) / len(ratios) if ratios else None
            ),
        },
    }


def _median(values: list[float]) -> float | None:
    if not values:
        return None
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


# -- distribution comparison ------------------------------------------------------


def jsd(p: list[float], q: list[float]) -> float:
    """Jensen-Shannon divergence, base 2, over a shared category support."""
    if len(p) != len(q):
        raise ValueError("distributions must share the same support")
    if not p:
        raise ValueError("empty distributions")
    if any(v < 0 for v in p + q):
        raise ValueError("probabilities must be non-negative")
    p = _normalized(p)
    q = _normalized(q)

    def kl(a: list[float], b: list[float]) -> float:
        total = 0.0
        for ai, bi in zip(a, b):
            if ai > 0:
                total += ai * math.log2(ai / bi)
        return total

    m = [(pi + qi) / 2 for pi, qi in zip(p, q)]
    # rounding can push identical distributions a hair below zero
    return max(0.0, 0.5 * kl(p, m) + 0.5 * kl(q, m))


def _normalized(dist: list[float]) -> list[float]:
    total = sum(dist)
    if total == 0:
        raise ValueError("distribution sums to zero")
    if abs(total - 1.0) > 1e-9:
        log.warning("normalizing distribution with mass %.6f", total)
        return [v / total for v in dist]
    return list(dist)


def point_biserial(binary: list[int], metric: list[float]) -> float | None:
    """Point-biserial correlation; None when either group or the metric is degenerate."""
    if len(binary) != len(metric):
        raise ValueError("inputs must have equal length")
    n = len(binary)
    if n < 2:
        raise ValueError("need at least two observations")
    if any(b not in (0, 1) for b in binary):
        raise ValueError("binary input must be 0/1")
    group1 = [m for b, m in zip(binary, metric) if b == 1]
    group0 = [m for b, m in zip(binary, metric) if b == 0]
    if not group1 or not group0:
        return None
    mean = sum(metric) / n
    s_n = math.sqrt(sum((m - mean) ** 2 for m in metric) / n)
    if s_n == 0:
        return None
    m1 = sum(group1) / len(group1)
    m0 = sum(group0) / len(group0)
    return (m1 - m0) / s_n * math.sqrt(len(group1) * len(group0) / n**2)


# -- longitudinal evolution --------------------------------------------------------


@dataclass(frozen=True)
class VersionTimeline:
    app_id: str
    samples: tuple[tuple[str, bool], ...]  # (ISO slot start date, vulnerable)

    def __post_init__(self):
        if not self.samples:
            raise ValueError("timeline needs at least one sample")
        dates = [s[0] for s in self.samples]
        if dates != sorted(dates) or len(set(dates)) != len(dates):
            raise ValueError("slots must be chronological and non-overlapping")


@dataclass
class LongitudinalStats:
    vulnerable_span_days: int
    app_lifespan_days: int
    span_ratio: float
    ratio_exceeds_lifespan: bool
    remediation_delay_days: int | None
    reintroduction_events: int


def _ordinal(date: str) -> int:
    import datetime

    return datetime.date.fromisoformat(date).toordinal()


def longitudinal(tl: VersionTimeline) -> LongitudinalStats:
    """Span, lifespan, remediation and reintroduction stats for one app.

    Each vulnerable slot contributes a full slot length to the span. Lifespan
    is the distance between the first and last slot start, so the span ratio
    can exceed 1; such cases are flagged, not clamped. A single-slot timeline
    has lifespan 0 and ratio 1.0 or 0.0 by its vulnerable flag.
    """
    flags = [v for _, v in tl.samples]
    dates = [d for d, _ in tl.samples]
    span = SLOT_DAYS * sum(flags)
    lifespan = _ordinal(dates[-1]) - _ordinal(dates[0])

    if lifespan == 0:
        ratio = 1.0 if flags[0] else 0.0
    else:
        ratio = span / lifespan
    exceeds = ratio > 1.0
    if exceeds:
        log.info("%s: vulnerable span exceeds lifespan (ratio %.3f)", tl.app_id, ratio)

    remediation = None
    if True in flags:
        first_vuln = flags.index(True)
        for i in range(first_vuln + 1, len(flags)):
            if not flags[i]:
                remediation = _ordinal(dates[i]) - _ordinal(dates[first_vuln])
                break

    reintroductions = 0
    seen_fix = False
    for prev, cur in zip(flags, flags[1:]):
        if prev and not cur:
            seen_fix = True
        elif not prev and cur and seen_fix:
            reintroductions += 1

    return LongitudinalStats(
        vulnerable_span_days=span,
        app_lifespan_days=lifespan,
        span_ratio=ratio,
        ratio_exceeds_lifespan=exceeds,
        remediation_delay_days=remediation,
        reintroduction_events=reintroductions,
    )


def load_timelines(path: str | Path) -> list[VersionTimeline]:
    """Read timelines from JSONL rows of {app_id, slot_start, vulnerable}."""
    rows: dict[str, list[tuple[str, bool]]] = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        entry = json.loads(line)
        rows.setdefault(entry["app_id"], []).append(
            (entry["slot_start"], bool(entry["vulnerable"]))
        )
    return [
        VersionTimeline(app_id, tuple(sorted(samples)))
        for app_id, samples in sorted(rows.items())
    ]


# -- empirical CDF -------------------------------------------------------------------


def cdf(values: list[float]) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF as (x, F(x)) points."""
    if not values:
        return []
    n = len(values)
    ordered = sorted(values)
    points = []
    seen = 0
    for i, x in enumerate(ordered):
        seen += 1
        if i + 1 == n or ordered[i + 1] != x:
            points.append((x, seen / n))
    return points


def write_cdf_csv(points: list[tuple[float, float]], path: str | Path) -> None:
    lines = ["x,F"] + [f"{x},{f}" for x, f in points]
    Path(path).write_text("\n".join(lines) + "\n")
