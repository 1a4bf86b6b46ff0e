import datetime
from dataclasses import asdict

import pytest

from mitmscan.certforge import DEFAULT_NOW, CertConfig, fingerprint, issue_leaf, make_root
from mitmscan.engine import forge_for
from mitmscan.flowledger import CHANNELS, TESTS
from mitmscan.profiles import (
    ERROR_MISMATCH,
    ERROR_UNTRUSTED,
    ClientProfile,
    client_accepts,
    hostname_accepts,
    induced_ssl_error,
    trust_accepts,
    webview_proceeds,
)

CFG = CertConfig(seed=9)
NOW = DEFAULT_NOW
TRUSTED = make_root("trusted-ca", CFG)
UNTRUSTED = make_root("rogue-ca", CFG)
STORE = (TRUSTED,)

GOOD = issue_leaf(TRUSTED, "api.example.com", ["api.example.com"], 30, CFG)
WRONG_NAME = issue_leaf(TRUSTED, "attacker.invalid", ["attacker.invalid"], 30, CFG)
ROGUE = issue_leaf(UNTRUSTED, "api.example.com", ["api.example.com"], 30, CFG)

GOOD_CHAIN = [GOOD.cert, TRUSTED.self_signed_cert]
WRONG_CHAIN = [WRONG_NAME.cert, TRUSTED.self_signed_cert]
ROGUE_CHAIN = [ROGUE.cert, UNTRUSTED.self_signed_cert]


def test_profile_validation():
    with pytest.raises(ValueError):
        ClientProfile(trust_behavior="T9")
    with pytest.raises(ValueError):
        ClientProfile(hostname_behavior="H2A")  # missing allowlist param
    p = ClientProfile(hostname_behavior="H2A", condition_params={"hostname_allowlist": []})
    assert ClientProfile(**asdict(p)) == p


@pytest.mark.parametrize("params", [
    {"condition_params": []},
    {"hostname_behavior": "H2A", "condition_params": {"hostname_allowlist": "a.example.com"}},
    {"trust_behavior": "T2F", "condition_params": {"trusted_issuers": [1]}},
    {"pinning": "pin_leaf", "condition_params": {"pinned_fingerprints": None}},
    {"webview_behavior": "W2B", "condition_params": {"ignored_error_codes": 3}},
    {"webview_behavior": "W2B", "condition_params": {"ignored_error_codes": ["3"]}},
    {"webview_behavior": "W2B", "condition_params": {"ignored_error_codes": [True]}},
    {"hostname_behavior": "H2B", "condition_params": {"match_mode": "prefix"}},
    {"webview_behavior": "W2C", "condition_params": {"insecure_state": 1}},
    {"webview_behavior": "W2A", "condition_params": {"user_accepts": "yes"}},
    {"trust_behavior": "T2C", "condition_params": {"expected_subject": ["a.example.com"]}},
])
def test_condition_params_of_the_wrong_type_are_refused(params):
    """Each key is given to a profile that reads it, so only its value's type is at fault."""
    with pytest.raises(ValueError, match="must be a dict|of the wrong type"):
        ClientProfile(**params)


@pytest.mark.parametrize("params, problem", [
    ({"trust_behavior": "T2C", "condition_params": {"expected_subjct": "a.example.com"}},
     r"unknown condition_params: \['expected_subjct'\]"),
    ({"condition_params": {"user_accepts": True}}, r"reads: \['user_accepts'\]"),
    ({"trust_behavior": "T2F", "condition_params": {"trusted_issuers": [], "match_mode": "suffix"}},
     r"reads: \['match_mode'\]"),
    ({"pinning": "pin_leaf"}, r"missing: \['pinned_fingerprints'\]"),
    ({"pinning": "pin_root", "condition_params": {"pinned_fingerprint": ["00" * 32]}},
     r"unknown condition_params: \['pinned_fingerprint'\]"),
], ids=["unknown-key", "foreign-key", "key-of-another-behavior", "pin-leaf-no-pins",
        "pin-root-typo"])
def test_condition_params_the_profile_does_not_read_are_refused(params, problem):
    with pytest.raises(ValueError, match=problem):
        ClientProfile(**params)


def test_trust_predicates():
    t0 = ClientProfile()
    assert trust_accepts(t0, GOOD_CHAIN, STORE, NOW)
    assert not trust_accepts(t0, ROGUE_CHAIN, STORE, NOW)

    t1 = ClientProfile(trust_behavior="T1")
    assert trust_accepts(t1, ROGUE_CHAIN, STORE, NOW)

    t2a = ClientProfile(trust_behavior="T2A")
    assert trust_accepts(t2a, ROGUE_CHAIN, STORE, NOW)
    assert not trust_accepts(t2a, ROGUE_CHAIN, STORE, NOW + datetime.timedelta(days=60))

    t2d = ClientProfile(trust_behavior="T2D")
    assert trust_accepts(t2d, ROGUE_CHAIN, STORE, NOW)
    # broken pairing: leaf not signed by the supplied issuer
    assert not trust_accepts(t2d, [ROGUE.cert, TRUSTED.self_signed_cert], STORE, NOW)

    t2f = ClientProfile(
        trust_behavior="T2F", condition_params={"trusted_issuers": ["rogue-ca"]}
    )
    assert trust_accepts(t2f, ROGUE_CHAIN, STORE, NOW)


def test_hostname_predicates():
    h0 = ClientProfile()
    assert hostname_accepts(h0, GOOD.cert, "api.example.com")
    assert not hostname_accepts(h0, WRONG_NAME.cert, "api.example.com")

    h1 = ClientProfile(hostname_behavior="H1")
    assert hostname_accepts(h1, WRONG_NAME.cert, "api.example.com")

    h2a = ClientProfile(
        hostname_behavior="H2A",
        condition_params={"hostname_allowlist": ["api.example.com"]},
    )
    assert hostname_accepts(h2a, WRONG_NAME.cert, "api.example.com")
    assert not hostname_accepts(h2a, GOOD.cert, "other.example.com")

    h2b = ClientProfile(hostname_behavior="H2B", condition_params={"match_mode": "substring"})
    # indexOf-style containment accepts the cert name embedded in a longer host
    assert hostname_accepts(h2b, GOOD.cert, "api.example.com.evil.org")
    assert not hostname_accepts(h2b, GOOD.cert, "totally.other.org")
    wild = issue_leaf(TRUSTED, "*.example.com", ["*.example.com"], 30, CFG)
    # substring matching lets the bare parent domain through
    assert hostname_accepts(h2b, wild.cert, "example.com")


def test_webview_error_codes_and_proceed():
    assert induced_ssl_error(ROGUE_CHAIN, "api.example.com", STORE, NOW) == ERROR_UNTRUSTED
    assert induced_ssl_error(WRONG_CHAIN, "api.example.com", STORE, NOW) == ERROR_MISMATCH
    assert induced_ssl_error(GOOD_CHAIN, "api.example.com", STORE, NOW) is None

    w0 = ClientProfile()
    w1 = ClientProfile(webview_behavior="W1")
    w2b = ClientProfile(webview_behavior="W2B", condition_params={"ignored_error_codes": [3, 5]})
    assert not webview_proceeds(w0, ERROR_UNTRUSTED)
    assert webview_proceeds(w0, None)
    assert webview_proceeds(w1, ERROR_UNTRUSTED)
    assert webview_proceeds(w2b, ERROR_UNTRUSTED)
    assert not webview_proceeds(w2b, ERROR_MISMATCH)


def test_pinning_blocks_everything_else():
    pinned = ClientProfile(
        trust_behavior="T1",
        hostname_behavior="H1",
        pinning="pin_leaf",
        condition_params={"pinned_fingerprints": [fingerprint(GOOD.cert)]},
    )
    assert client_accepts(pinned, GOOD_CHAIN, "api.example.com", "native", STORE, NOW)
    assert not client_accepts(pinned, ROGUE_CHAIN, "api.example.com", "native", STORE, NOW)
    assert not client_accepts(pinned, ROGUE_CHAIN, "api.example.com", "webview", STORE, NOW)

    pin_root = ClientProfile(
        pinning="pin_root",
        condition_params={"pinned_fingerprints": [fingerprint(TRUSTED.self_signed_cert)]},
    )
    assert client_accepts(pin_root, GOOD_CHAIN, "api.example.com", "native", STORE, NOW)
    assert not client_accepts(pin_root, ROGUE_CHAIN, "api.example.com", "native", STORE, NOW)


def test_secure_profile_verdicts():
    secure = ClientProfile()
    assert client_accepts(secure, GOOD_CHAIN, "api.example.com", "native", STORE, NOW)
    assert not client_accepts(secure, WRONG_CHAIN, "api.example.com", "native", STORE, NOW)
    # RFC 6125: when a SAN is present the CN is not a name the host may match.
    leaf = issue_leaf(TRUSTED, "a.example.com", ["b.example.com"], 90, CFG)
    chain = [leaf.cert, TRUSTED.self_signed_cert]
    for channel in ("native", "webview"):
        assert not client_accepts(secure, chain, "a.example.com", channel, STORE, NOW)
        assert client_accepts(secure, chain, "b.example.com", channel, STORE, NOW)


@pytest.mark.parametrize("fqdn", ["svc.example.com", "a.svc.example.com", "example.com"])
@pytest.mark.parametrize("pin_root", [False, True], ids=["pin-names-no-chain", "pin-lab-root"])
def test_client_accepts_agrees_with_the_independent_table(
    material, expect, root_fingerprints, pin_root, fqdn
):
    """client_accepts and perfbench's expectation table decide alike on every
    profile of the benchmark's space, under each test and channel, for a host,
    its subdomain and its parent."""
    pin = material.lab_trusted_root.fingerprint if pin_root else "0" * 64
    chains = {}
    for test in TESTS:
        leaf = forge_for(test, fqdn, material)
        chains[test] = [leaf.cert, leaf.issuer.self_signed_cert]
    disagreements = []
    space = expect.profile_space([fqdn], pin)
    for data in space:
        profile = ClientProfile(**data)
        for test, chain in chains.items():
            for channel in CHANNELS:
                want = expect.accepts(data, test, fqdn, channel, root_fingerprints)
                got = client_accepts(
                    profile, chain, fqdn, channel, material.client_store, DEFAULT_NOW
                )
                if got != want:
                    disagreements.append((data, test, channel, got))
    assert len(space) == 1458
    assert disagreements == []
