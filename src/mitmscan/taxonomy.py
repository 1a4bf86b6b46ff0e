"""Label taxonomy for certificate validation code: one table of interface kinds,
labels and prompt descriptions, and the label-set invariants with their repair.
"""

from __future__ import annotations

import logging

log = logging.getLogger(__name__)

_UNKNOWN = "Unknown, unable to determine, or not classifiable above"

# Interface kind -> (focus method, (label, prompt description) pairs). Each
# family lists its secure label first and its unknown label last.
TAXONOMY = {
    "trust_manager": ("checkServerTrusted", (
        ("T0", "Secure TrustManager"),
        ("T1", "Empty TrustManager"),
        ("T2-A", "Only checked validity period"),
        ("T2-B", "Only checked if the parameters were empty or null"),
        ("T2-C", "Only checked the certificate's subject"),
        ("T2-D", "Verified signature but not certificate chain"),
        ("T2-E", "Ignored certificate validation exception"),
        ("T2-F", "Verified certificates only under limited conditions"),
        ("TU", _UNKNOWN),
    )),
    "hostname_verifier": ("verify", (
        ("H0", "Secure HostnameVerifier"),
        ("H1", "HostnameVerifier that always returns true"),
        ("H2-A", "Incorrect use of the hostname parameter for validation"),
        ("H2-B", "Flawed matching of the certificate subject"),
        ("HU", _UNKNOWN),
    )),
    "webview_client": ("onReceivedSslError", (
        ("W0", "Secure WebViewClient SSL error handling"),
        ("W1", "Unconditionally proceeds on SSL errors"),
        ("W2-A", "Lets the user decide whether to proceed"),
        ("W2-B", "Ignored specific error types"),
        ("W2-C", "Ignored errors when the app is in a specific state"),
        ("WU", _UNKNOWN),
    )),
}

INTERFACE_KINDS = tuple(TAXONOMY)
FOCUS_METHODS = {kind: method for kind, (method, _) in TAXONOMY.items()}
# Labels legal for each validation interface kind.
FAMILY_BY_KIND = {
    kind: tuple(label for label, _ in entries) for kind, (_, entries) in TAXONOMY.items()
}
UNKNOWN_BY_KIND = {kind: family[-1] for kind, family in FAMILY_BY_KIND.items()}
SECURE_LABELS = {family[0] for family in FAMILY_BY_KIND.values()}
UNKNOWN_LABELS = set(UNKNOWN_BY_KIND.values())

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

    Keeps, in input order, each label that :func:`validate_labels` accepts
    together with the labels already kept, and logs why each other label was
    dropped. An empty result maps to the family's unknown label.
    """
    unknown = UNKNOWN_BY_KIND.get(interface_kind)
    if unknown is None:
        raise LabelError(f"unknown interface kind: {interface_kind}")
    kept: set[str] = set()
    for label in labels:
        try:
            validate_labels(kept | {label}, interface_kind)
        except LabelError as exc:
            log.info("dropping %r: %s", label, exc)
            continue
        kept.add(label)
    return kept or {unknown}
