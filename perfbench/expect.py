"""Expected client decisions per behaviour code, kept apart from the program.

The three interception tests present fixed kinds of forged chain:

- T1: a leaf naming the requested host, issued by a root clients do not trust;
- T2: a leaf naming ``attacker.invalid``, issued by a root clients trust;
- T3: a leaf naming the requested host, issued by a user-installed root that
  clients trust.

Every leaf is in date at the scan clock. From those facts and the behaviour
codes alone this module says whether a client accepts the chain; it does not
call the program's oracle (``profiles.client_accepts``) or its truth table.
"""

from __future__ import annotations

import itertools

TESTS = ("T1", "T2", "T3")
CHANNELS = ("native", "webview")
ATTACKER_NAME = "attacker.invalid"

# test -> (issuing root name, root trusted by clients, leaf names; None = the host)
FORGED = {
    "T1": ("attacker-untrusted", False, None),
    "T2": ("lab-trusted", True, ATTACKER_NAME),
    "T3": ("installed-root", True, None),
}

ERROR_UNTRUSTED = 3
ERROR_MISMATCH = 2


def _names(test: str, fqdn: str) -> list[str]:
    name = FORGED[test][2]
    return [name or fqdn]


def name_matches(fqdn: str, names: list[str]) -> bool:
    fqdn = fqdn.lower()
    for name in names:
        name = name.lower()
        if name == fqdn:
            return True
        if name.startswith("*.") and fqdn.split(".", 1)[-1] == name[2:] and "." in fqdn:
            return True
    return False


def _trust(code: str, params: dict, test: str, fqdn: str) -> bool:
    issuer, trusted, _ = FORGED[test]
    if code == "T0":
        return trusted
    if code in ("T1", "T2A", "T2B", "T2D", "T2E"):
        # T2A: the leaf is in date; T2D: the leaf is signed by the root it names.
        return True
    if code == "T2C":
        expected = params.get("expected_subject")
        return expected is None or expected.lower() in _names(test, fqdn)
    if code == "T2F":
        return issuer in {s.lower() for s in params["trusted_issuers"]} or trusted
    raise ValueError(f"unknown trust behaviour {code}")


def _hostname(code: str, params: dict, test: str, fqdn: str) -> bool:
    names = _names(test, fqdn)
    if code == "H0":
        return name_matches(fqdn, names)
    if code == "H1":
        return True
    if code == "H2A":
        return fqdn.lower() in {s.lower() for s in params["hostname_allowlist"]}
    if code == "H2B":
        host = fqdn.lower()
        for name in names:
            name = name.removeprefix("*.")
            if params["match_mode"] == "substring":
                if name in host or host in name:
                    return True
            elif host == name or host.endswith("." + name):
                return True
        return False
    raise ValueError(f"unknown hostname behaviour {code}")


def _webview(code: str, params: dict, test: str, fqdn: str) -> bool:
    _, trusted, _ = FORGED[test]
    if not trusted:
        error = ERROR_UNTRUSTED
    elif not name_matches(fqdn, _names(test, fqdn)):
        error = ERROR_MISMATCH
    else:
        return True  # no SSL error: the page loads whatever the handler does
    if code == "W0":
        return False
    if code == "W1":
        return True
    if code == "W2A":
        return bool(params.get("user_accepts", False))
    if code == "W2B":
        return error in set(params["ignored_error_codes"])
    if code == "W2C":
        return bool(params["insecure_state"])
    raise ValueError(f"unknown webview behaviour {code}")


def accepts(
    profile: dict, test: str, fqdn: str, channel: str, root_fingerprints: dict[str, str]
) -> bool:
    """Whether a client with ``profile`` accepts the chain ``test`` forges for ``fqdn``.

    ``root_fingerprints`` maps root names to fingerprints, so that a
    ``pin_root`` pin can be resolved to the root it names. A forged leaf is
    never the pinned leaf.
    """
    params = profile.get("condition_params", {})
    pins = set(params.get("pinned_fingerprints", []))
    if profile["pinning"] == "pin_leaf":
        return False
    if profile["pinning"] == "pin_root" and root_fingerprints.get(FORGED[test][0]) not in pins:
        return False
    if channel == "webview":
        return _webview(profile["webview_behavior"], params, test, fqdn)
    return _trust(profile["trust_behavior"], params, test, fqdn) and _hostname(
        profile["hostname_behavior"], params, test, fqdn
    )


def signature(profile: dict, fqdn: str) -> tuple[bool, ...]:
    """Accept/reject per (channel, test) for one host, native T1..T3 first."""
    return tuple(accepts(profile, t, fqdn, c, {}) for c in CHANNELS for t in TESTS)


SECURE_PROFILE = {
    "trust_behavior": "T0",
    "hostname_behavior": "H0",
    "webview_behavior": "W0",
    "pinning": "none",
    "condition_params": {},
}


def is_secure_profile(profile: dict) -> bool:
    return all(profile[k] == v for k, v in SECURE_PROFILE.items() if k != "condition_params")


def profile_space(fqdns: list[str], pin: str) -> list[dict]:
    """Every profile in TRUST x HOSTNAME x WEBVIEW x PINNING, with parameter variants.

    Parameters name hosts only through ``fqdns`` (all of an app's hosts, or
    none of them), so one profile decides alike for every host of the app.
    ``pin`` is a fingerprint that names no chain the scan serves.
    """
    trust = [("T0", {}), ("T1", {}), ("T2A", {}), ("T2B", {}), ("T2C", {}),
             ("T2D", {}), ("T2E", {}),
             ("T2F", {"trusted_issuers": ["attacker-untrusted"]}),
             ("T2F", {"trusted_issuers": ["corp-issuing-ca"]})]
    hostname = [("H0", {}), ("H1", {}),
                ("H2A", {"hostname_allowlist": sorted(fqdns)}),
                ("H2A", {"hostname_allowlist": ["intranet.invalid"]}),
                ("H2B", {"match_mode": "suffix"}),
                ("H2B", {"match_mode": "substring"})]
    webview = [("W0", {}), ("W1", {}),
               ("W2A", {"user_accepts": True}), ("W2A", {"user_accepts": False}),
               ("W2B", {"ignored_error_codes": [ERROR_UNTRUSTED]}),
               ("W2B", {"ignored_error_codes": [ERROR_MISMATCH]}),
               ("W2B", {"ignored_error_codes": [5]}),
               ("W2C", {"insecure_state": True}), ("W2C", {"insecure_state": False})]
    pinning = [("none", {}), ("pin_leaf", {"pinned_fingerprints": [pin]}),
               ("pin_root", {"pinned_fingerprints": [pin]})]
    space = []
    for (t, tp), (h, hp), (w, wp), (p, pp) in itertools.product(trust, hostname, webview, pinning):
        space.append({
            "trust_behavior": t,
            "hostname_behavior": h,
            "webview_behavior": w,
            "pinning": p,
            "condition_params": {**tp, **hp, **wp, **pp},
        })
    return space
