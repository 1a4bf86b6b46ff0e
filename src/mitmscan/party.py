"""Attribute vulnerable code locations to app developers or library providers."""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .locator import ValidationEvent
from .metrics import rate

PARTY_DEVELOPER = "app_developer"
PARTY_THIRD_PARTY = "third_party"


@dataclass(frozen=True)
class PackageAnnotation:
    prefix: str
    is_third_party: bool
    library_name: str | None = None
    provider: str | None = None

    def __post_init__(self):
        # attribute() joins prefix to strings and branches on is_third_party.
        if not (
            type(self.prefix) is str
            and type(self.is_third_party) is bool
            and all(v is None or type(v) is str for v in (self.library_name, self.provider))
        ):
            raise ValueError(f"annotation {self.prefix!r} has a field of the wrong type")
        if not self.prefix:
            raise ValueError("prefix must be non-empty")
        if self.is_third_party and not (self.library_name and self.provider):
            raise ValueError(
                f"third-party prefix {self.prefix!r} needs library_name and provider"
            )


def load_annotations(path: str | Path | None = None) -> list[PackageAnnotation]:
    """Load the annotation list; ambiguous prefixes fail fast."""
    if path is None:
        text = (
            resources.files("mitmscan").joinpath("data/annotations.json").read_text()
        )
    else:
        text = Path(path).read_text()
    annotations = [PackageAnnotation(**entry) for entry in json.loads(text)]
    if len({a.prefix for a in annotations}) != len(annotations):
        raise ValueError("duplicate annotation prefixes")
    return annotations


def attribute(
    events: list[ValidationEvent], annotations: list[PackageAnnotation]
) -> dict[str, dict]:
    """The ``parties`` split of ``report.json``: accepting code locations by party.

    A code location with at least one accepted event is one snippet. The app
    of its first accepted event owns it, and its hosts are the
    ``hostname_param`` or ``cert_cn`` of its accepted events. The longest
    annotated prefix of its package decides its party; an unannotated or
    first-party package belongs to the app developer. Each party counts its
    snippets, apps and hosts, each also as a percentage of all of them (None
    when there are none).
    """
    # code location -> (app of its first accepted event, hosts it accepted)
    snippets: dict[str, tuple[str, set[str]]] = {}
    for event in events:
        if event.verdict != "accepted":
            continue
        _, hosts = snippets.setdefault(event.code_location, (event.app_id, set()))
        if host := event.hostname_param or event.cert_cn:
            hosts.add(host)

    per_party: dict[str, dict[str, set]] = {
        party: {"snippets": set(), "apps": set(), "fqdns": set()}
        for party in (PARTY_DEVELOPER, PARTY_THIRD_PARTY)
    }
    for location, (app_id, hosts) in snippets.items():
        package = ".".join(location.split(".")[:-2])  # drop Class.method
        best = max(
            (a for a in annotations
             if package == a.prefix or package.startswith(a.prefix + ".")),
            key=lambda a: len(a.prefix),
            default=None,
        )
        sets = per_party[PARTY_THIRD_PARTY if best and best.is_third_party else PARTY_DEVELOPER]
        sets["snippets"].add(location)
        sets["apps"].add(app_id)
        sets["fqdns"] |= hosts

    parties = {}
    for party, sets in per_party.items():
        entry = {}
        for dim, values in sets.items():
            total = len(per_party[PARTY_DEVELOPER][dim] | per_party[PARTY_THIRD_PARTY][dim])
            entry[dim] = len(values)
            entry[f"{dim}_pct"] = rate(100.0 * len(values), total)
        parties[party] = entry
    return parties
