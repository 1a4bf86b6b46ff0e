"""Client validation behaviors expressed in taxonomy coordinates.

Each behavior code is one executable predicate over the certificate chain a
client is presented with. The same predicates drive the synthetic clients and
the ground-truth outcome oracle, so live interception results can be checked
against a pure function.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass, field

from cryptography import x509
from cryptography.x509.oid import NameOID

from . import certforge
from .certforge import (
    TrustStore,
    cert_dns_names,
    cert_san_names,
    verify_chain,
    verify_signature,
)
from .locator import match_cert_names
from .taxonomy import FAMILY_BY_KIND

# A behavior code is its taxonomy label without the hyphen (H2-A -> H2A); the
# unknown label names no behavior.
TRUST_BEHAVIORS, HOSTNAME_BEHAVIORS, WEBVIEW_BEHAVIORS = (
    tuple(label.replace("-", "") for label in FAMILY_BY_KIND[kind][:-1])
    for kind in ("trust_manager", "hostname_verifier", "webview_client")
)
PINNING_MODES = ("none", "pin_leaf", "pin_root")


def _list_of(kind: type):
    return lambda value: isinstance(value, list) and all(isinstance(v, kind) for v in value)


# Each condition_params key: the check on its value, the behavior codes or
# pinning modes that read it, and whether those need it.
PARAMS = {
    "trusted_issuers": (_list_of(str), ("T2F",), True),
    "expected_subject": (lambda value: isinstance(value, str), ("T2C",), False),
    "hostname_allowlist": (_list_of(str), ("H2A",), True),
    "match_mode": (lambda value: value in ("suffix", "substring"), ("H2B",), True),
    "user_accepts": (lambda value: isinstance(value, bool), ("W2A",), False),
    "ignored_error_codes": (_list_of(int), ("W2B",), True),
    "insecure_state": (lambda value: isinstance(value, bool), ("W2C",), True),
    "pinned_fingerprints": (_list_of(str), ("pin_leaf", "pin_root"), True),
}

# SSL error codes surfaced to webview-channel profiles, mirroring the Android
# SslError constants: 3 = untrusted authority, 2 = hostname mismatch.
ERROR_UNTRUSTED = 3
ERROR_MISMATCH = 2


@dataclass(frozen=True)
class ClientProfile:
    trust_behavior: str = "T0"
    hostname_behavior: str = "H0"
    webview_behavior: str = "W0"
    pinning: str = "none"
    condition_params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.trust_behavior not in TRUST_BEHAVIORS:
            raise ValueError(f"bad trust_behavior: {self.trust_behavior}")
        if self.hostname_behavior not in HOSTNAME_BEHAVIORS:
            raise ValueError(f"bad hostname_behavior: {self.hostname_behavior}")
        if self.webview_behavior not in WEBVIEW_BEHAVIORS:
            raise ValueError(f"bad webview_behavior: {self.webview_behavior}")
        if self.pinning not in PINNING_MODES:
            raise ValueError(f"bad pinning: {self.pinning}")
        if not isinstance(self.condition_params, dict):
            raise ValueError("condition_params must be a dict")
        params = self.condition_params
        codes = {self.trust_behavior, self.hostname_behavior, self.webview_behavior, self.pinning}
        if unknown := sorted(params.keys() - PARAMS.keys()):
            raise ValueError(f"unknown condition_params: {unknown}")
        if foreign := sorted(key for key in params if codes.isdisjoint(PARAMS[key][1])):
            raise ValueError(f"condition_params no behavior of this profile reads: {foreign}")
        if bad := sorted(key for key, value in params.items() if not PARAMS[key][0](value)):
            raise ValueError(f"condition_params of the wrong type: {bad}")
        if missing := sorted(key for key, (_, owners, required) in PARAMS.items()
                             if required and key not in params and not codes.isdisjoint(owners)):
            raise ValueError(f"condition_params missing: {missing}")


def _issuer_cn(cert: x509.Certificate) -> str:
    attrs = cert.issuer.get_attributes_for_oid(NameOID.COMMON_NAME)
    return str(attrs[0].value) if attrs else ""


def trust_accepts(
    profile: ClientProfile,
    chain: list[x509.Certificate],
    store: TrustStore,
    now: datetime.datetime,
) -> bool:
    behavior = profile.trust_behavior
    if not chain:
        return False
    leaf = chain[0]
    if behavior == "T0":
        return verify_chain(chain, store, now)
    if behavior == "T1":
        # Empty check body: everything passes.
        return True
    if behavior == "T2A":
        # checkValidity() only.
        return leaf.not_valid_before_utc <= now <= leaf.not_valid_after_utc
    if behavior == "T2B":
        # Null/length guard only.
        return len(chain) > 0
    if behavior == "T2C":
        # Subject-string inspection only: CN/SAN must name the requested host,
        # which the caller resolves via hostname matching below. Here the
        # subject check is against the expected CN recorded at call time.
        expected = profile.condition_params.get("expected_subject")
        names = cert_dns_names(leaf)
        if expected is not None:
            return expected.lower() in names
        return bool(names)
    if behavior == "T2D":
        # Pairwise signature walk, never anchored to a trust store.
        for i, cert in enumerate(chain):
            issuer = chain[i + 1] if i + 1 < len(chain) else cert
            if not verify_signature(cert, issuer):
                return False
        return True
    if behavior == "T2E":
        # Proper validation attempted, its exception swallowed.
        return True
    if behavior == "T2F":
        trusted = {s.lower() for s in profile.condition_params["trusted_issuers"]}
        if _issuer_cn(leaf).lower() in trusted:
            return True
        return verify_chain(chain, store, now)
    raise AssertionError(behavior)


def hostname_accepts(
    profile: ClientProfile, leaf: x509.Certificate, requested_fqdn: str
) -> bool:
    behavior = profile.hostname_behavior
    if behavior == "H0":
        return match_cert_names(requested_fqdn, cert_san_names(leaf))
    if behavior == "H1":
        return True
    if behavior == "H2A":
        # Checks the hostname parameter against a literal allowlist; the
        # certificate is never consulted.
        allowlist = {s.lower() for s in profile.condition_params["hostname_allowlist"]}
        return requested_fqdn.lower() in allowlist
    if behavior == "H2B":
        # Flawed subject matching. "suffix": containment without label
        # counting, so over-broad wildcards and parent-domain certs pass.
        # "substring": indexOf-style check in either direction.
        mode = profile.condition_params["match_mode"]
        fqdn = requested_fqdn.lower()
        for name in cert_dns_names(leaf):
            if name.startswith("*."):
                name = name[2:]
            if mode == "substring":
                if name in fqdn or fqdn in name:
                    return True
            elif fqdn == name or fqdn.endswith("." + name):
                return True
        return False
    raise AssertionError(behavior)


def induced_ssl_error(
    chain: list[x509.Certificate],
    requested_fqdn: str,
    store: TrustStore,
    now: datetime.datetime,
) -> int | None:
    """The SslError code a platform webview would raise, or None if the page loads."""
    if not verify_chain(chain, store, now):
        return ERROR_UNTRUSTED
    if not match_cert_names(requested_fqdn, cert_san_names(chain[0])):
        return ERROR_MISMATCH
    return None


def webview_proceeds(profile: ClientProfile, error_code: int | None) -> bool:
    if error_code is None:
        # No SSL error surfaced; the page loads without a callback.
        return True
    behavior = profile.webview_behavior
    if behavior == "W0":
        return False
    if behavior == "W1":
        return True
    if behavior == "W2A":
        # Dialog-gated; the simulated user choice is part of the profile.
        return bool(profile.condition_params.get("user_accepts", False))
    if behavior == "W2B":
        return error_code in set(profile.condition_params["ignored_error_codes"])
    if behavior == "W2C":
        return bool(profile.condition_params["insecure_state"])
    raise AssertionError(behavior)


def pinning_accepts(profile: ClientProfile, chain: list[x509.Certificate]) -> bool:
    """Whether ``chain`` holds the certificate a pin_leaf or pin_root profile pins."""
    if not chain:
        return False
    pinned = chain[0] if profile.pinning == "pin_leaf" else chain[-1]
    return certforge.fingerprint(pinned) in profile.condition_params["pinned_fingerprints"]


def client_accepts(
    profile: ClientProfile,
    chain: list[x509.Certificate],
    requested_fqdn: str,
    channel: str,
    store: TrustStore,
    now: datetime.datetime,
) -> bool:
    """Full client decision for one presented chain on one flow."""
    if profile.pinning != "none" and not pinning_accepts(profile, chain):
        return False
    if channel == "webview":
        error = induced_ssl_error(chain, requested_fqdn, store, now)
        return webview_proceeds(profile, error)
    return trust_accepts(profile, chain, store, now) and hostname_accepts(
        profile, chain[0] if chain else None, requested_fqdn
    )
