"""Quantitative measures over scan results.

Undefined quantities (empty denominators) are reported as None, never
silently zero.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from .flowledger import FlowLedger


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
