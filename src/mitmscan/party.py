"""Attribute vulnerable code locations to app developers or library providers."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

PARTY_DEVELOPER = "app_developer"
PARTY_THIRD_PARTY = "third_party"


@dataclass(frozen=True)
class PackageAnnotation:
    prefix: str
    is_third_party: bool
    library_name: str | None = None
    provider: str | None = None

    def __post_init__(self):
        if not self.prefix:
            raise ValueError("prefix must be non-empty")
        if self.is_third_party and not (self.library_name and self.provider):
            raise ValueError(
                f"third-party prefix {self.prefix!r} needs library_name and provider"
            )


@dataclass(frozen=True)
class CodeSnippetRef:
    """One located snippet: where it lives and what it affected."""

    snippet_id: str
    app_id: str
    code_location: str  # dotted: pkg.sub.Class.method
    fqdns: frozenset[str] = frozenset()

    @property
    def package(self) -> str:
        parts = self.code_location.split(".")
        return ".".join(parts[:-2]) if len(parts) > 2 else ""


@dataclass
class PartyAttribution:
    snippet_id: str
    party: str
    library_name: str | None = None
    provider: str | None = None
    matched_prefix: str | None = None


@dataclass
class PartyReport:
    parties: dict[str, dict] = field(default_factory=dict)
    attributions: list[PartyAttribution] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {"parties": self.parties}


def load_annotations(path: str | Path | None = None) -> list[PackageAnnotation]:
    """Load the annotation list; ambiguous prefixes fail fast."""
    if path is None:
        text = (
            resources.files("mitmscan").joinpath("data/annotations.json").read_text()
        )
    else:
        text = Path(path).read_text()
    annotations = [PackageAnnotation(**entry) for entry in json.loads(text)]
    seen: dict[str, bool] = {}
    for ann in annotations:
        if ann.prefix in seen and seen[ann.prefix] != ann.is_third_party:
            raise ValueError(f"prefix {ann.prefix!r} annotated both ways")
        seen[ann.prefix] = ann.is_third_party
    if len({a.prefix for a in annotations}) != len(annotations):
        raise ValueError("duplicate annotation prefixes")
    return annotations


def _best_annotation(
    package: str, annotations: list[PackageAnnotation]
) -> PackageAnnotation | None:
    best = None
    for ann in annotations:
        if package == ann.prefix or package.startswith(ann.prefix + "."):
            if best is None or len(ann.prefix) > len(best.prefix):
                best = ann
    return best


def attribute(
    snippets: list[CodeSnippetRef], annotations: list[PackageAnnotation]
) -> PartyReport:
    """Assign every snippet to exactly one party; longest annotated prefix wins."""
    report = PartyReport()
    per_party: dict[str, dict[str, set]] = {
        PARTY_DEVELOPER: {"snippets": set(), "apps": set(), "fqdns": set()},
        PARTY_THIRD_PARTY: {"snippets": set(), "apps": set(), "fqdns": set()},
    }
    for snippet in snippets:
        ann = _best_annotation(snippet.package, annotations)
        if ann is not None and ann.is_third_party:
            party = PARTY_THIRD_PARTY
            attribution = PartyAttribution(
                snippet.snippet_id, party, ann.library_name, ann.provider, ann.prefix
            )
        else:
            # Unannotated or explicitly first-party: the app developer owns it.
            party = PARTY_DEVELOPER
            attribution = PartyAttribution(
                snippet.snippet_id,
                party,
                matched_prefix=ann.prefix if ann else None,
            )
        report.attributions.append(attribution)
        per_party[party]["snippets"].add(snippet.snippet_id)
        per_party[party]["apps"].add(snippet.app_id)
        per_party[party]["fqdns"] |= snippet.fqdns

    totals = {
        "snippets": len({s.snippet_id for s in snippets}),
        "apps": len({s.app_id for s in snippets}),
        "fqdns": len({f for s in snippets for f in s.fqdns}),
    }
    for party, sets in per_party.items():
        entry = {}
        for dim in ("snippets", "apps", "fqdns"):
            count = len(sets[dim])
            entry[dim] = count
            entry[f"{dim}_pct"] = (
                100.0 * count / totals[dim] if totals[dim] else None
            )
        report.parties[party] = entry
    return report
