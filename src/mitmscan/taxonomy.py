"""Label taxonomy for certificate validation code, with invariant repair."""

from __future__ import annotations

import logging

log = logging.getLogger(__name__)

TRUST_LABELS = ("T0", "T1", "T2-A", "T2-B", "T2-C", "T2-D", "T2-E", "T2-F", "TU")
HOSTNAME_LABELS = ("H0", "H1", "H2-A", "H2-B", "HU")
WEBVIEW_LABELS = ("W0", "W1", "W2-A", "W2-B", "W2-C", "WU")

# Labels legal for each validation interface kind.
FAMILY_BY_KIND = {
    "trust_manager": TRUST_LABELS,
    "hostname_verifier": HOSTNAME_LABELS,
    "webview_client": WEBVIEW_LABELS,
}

SECURE_LABELS = {"T0", "H0", "W0"}
UNKNOWN_LABELS = {"TU", "HU", "WU"}

# At most one of these core trust flaws can describe a single method body.
EXCLUSIVE_TRUST_FLAWS = ("T2-A", "T2-B", "T2-C", "T2-D")

MAX_LABELS = 3


class LabelError(ValueError):
    """A label set violates the taxonomy invariants and cannot be repaired."""


def validate_labels(labels: set[str], interface_kind: str) -> None:
    """Raise :class:`LabelError` on any invariant violation."""
    family = FAMILY_BY_KIND.get(interface_kind)
    if family is None:
        raise LabelError(f"unknown interface kind: {interface_kind}")
    if not labels:
        raise LabelError("label set must be non-empty")
    bad = labels - set(family)
    if bad:
        raise LabelError(f"labels {sorted(bad)} not legal for {interface_kind}")
    if len(labels) > MAX_LABELS:
        raise LabelError(f"label set exceeds {MAX_LABELS} labels: {sorted(labels)}")
    if len(labels) > 1 and labels & (SECURE_LABELS | UNKNOWN_LABELS):
        raise LabelError(f"secure/unknown labels must stand alone: {sorted(labels)}")
    exclusive = labels & set(EXCLUSIVE_TRUST_FLAWS)
    if len(exclusive) > 1:
        raise LabelError(f"mutually exclusive flaws together: {sorted(exclusive)}")


def repair_labels(labels: list[str], interface_kind: str) -> set[str]:
    """Deterministically coerce a raw label list into a valid set.

    Keeps the first-listed label on every conflict and logs what was dropped.
    Unknown or out-of-family labels are discarded; an empty result maps to the
    family's unknown label.
    """
    family = FAMILY_BY_KIND.get(interface_kind)
    if family is None:
        raise LabelError(f"unknown interface kind: {interface_kind}")
    kept: list[str] = []
    for label in labels:
        if label not in family:
            log.info("dropping out-of-family label %r for %s", label, interface_kind)
            continue
        if label in kept:
            continue
        if kept and (label in SECURE_LABELS or label in UNKNOWN_LABELS):
            log.info("dropping %r: secure/unknown must stand alone", label)
            continue
        if kept and (kept[0] in SECURE_LABELS or kept[0] in UNKNOWN_LABELS):
            log.info("dropping %r after standalone %r", label, kept[0])
            continue
        if label in EXCLUSIVE_TRUST_FLAWS and any(
            k in EXCLUSIVE_TRUST_FLAWS for k in kept
        ):
            log.info("dropping %r: conflicts with earlier exclusive flaw", label)
            continue
        if len(kept) >= MAX_LABELS:
            log.info("dropping %r: label budget reached", label)
            continue
        kept.append(label)
    if not kept:
        unknown = {"trust_manager": "TU", "hostname_verifier": "HU", "webview_client": "WU"}
        kept = [unknown[interface_kind]]
    result = set(kept)
    validate_labels(result, interface_kind)
    return result
