"""Quantitative measures over scan results.

Undefined quantities (empty denominators) are reported as None, never
silently zero.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from statistics import median

from .flowledger import FlowRecord


# -- detection and coverage rates ----------------------------------------------


def rate(num: int, den: int) -> float | None:
    """``num / den``, or None when ``den`` is 0."""
    return None if den == 0 else num / den


def detection_rates(*, a_det: set, a_gt: set, s_det: set, s_gt: set) -> dict[str, float | None]:
    """Recall of the true apps and sites, and the share of detections that are novel."""
    return {
        "R_app": rate(len(a_det & a_gt), len(a_gt)),
        "R_app_novel": rate(len(a_det - a_gt), len(a_det)),
        "R_TLS": rate(len(s_det & s_gt), len(s_gt)),
        "R_TLS_novel": rate(len(s_det - s_gt), len(s_det)),
    }


def coverage_rates(
    *, e_auto: set, e_manual: set, s_auto: set, s_manual: set
) -> dict[str, float | None]:
    """Share of the manually reached UI elements and sites reached too, and the novel share."""
    return {
        "C_UI": rate(len(e_auto & e_manual), len(e_manual)),
        "C_UI_novel": rate(len(e_auto - e_manual), len(e_auto)),
        "C_TLS": rate(len(s_auto & s_manual), len(s_manual)),
        "C_TLS_novel": rate(len(s_auto - s_manual), len(s_auto)),
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
        "fractions": {k: rate(found[k], tested[k]) for k in tested},
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
