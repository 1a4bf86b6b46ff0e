"""Quantitative measures over scan results.

Undefined quantities (empty denominators) are reported as None, never
silently zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from .flowledger import FlowRecord


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


def entities(records: list[FlowRecord]) -> dict[str, int]:
    """How many distinct apps, flows, hosts and (app, host) pairs ``records`` hold."""
    return {
        "apps": len({r.app_id for r in records}),
        "flows": len(records),
        "fqdns": len({r.fqdn for r in records}),
        "app_fqdns": len({(r.app_id, r.fqdn) for r in records}),
    }


def prevalence(records: list[FlowRecord]) -> dict:
    """Vulnerable fraction per entity class plus the per-app flow-ratio spread.

    Each app's ratio is taken over its unique (app, fqdn) pairs. Skipped
    flows never count toward denominators; the conclusive base is
    vulnerable + secure + inconclusive.
    """
    records = [r for r in records if r.outcome != "skipped"]
    vulnerable = [r for r in records if r.outcome == "vulnerable"]
    tested, found = entities(records), entities(vulnerable)

    hosts_tested = Counter(app for app, _ in {(r.app_id, r.fqdn) for r in records})
    hosts_vulnerable = Counter(app for app, _ in {(r.app_id, r.fqdn) for r in vulnerable})
    ratios = [hosts_vulnerable[app] / hosts_tested[app] for app in sorted(hosts_tested)]

    return {
        "fractions": {k: _rate(found[k], tested[k]) for k in tested},
        "per_app_ratio": {
            "values": ratios,
            "median": median(ratios) if ratios else None,
            "mean": sum(ratios) / len(ratios) if ratios else None,
            "share_above_half": (
                sum(1 for r in ratios if r > 0.5) / len(ratios) if ratios else None
            ),
        },
    }


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
