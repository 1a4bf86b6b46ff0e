import datetime

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.certforge import (
    CertConfig,
    CertSetupError,
    InvalidSanError,
    TrustStore,
    cert_dns_names,
    cert_pem,
    fingerprint,
    is_valid_san,
    issue_leaf,
    make_root,
    verify_chain,
    verify_signature,
)

UTC = datetime.timezone.utc


def test_root_generation_is_deterministic():
    a = make_root("ca", config=CertConfig(seed=3))
    b = make_root("ca", config=CertConfig(seed=3))
    assert cert_pem(a.self_signed_cert) == cert_pem(b.self_signed_cert)


def test_different_seeds_differ():
    a = make_root("ca", config=CertConfig(seed=3))
    b = make_root("ca", config=CertConfig(seed=4))
    assert a.fingerprint != b.fingerprint


def test_leaf_determinism_and_names():
    cfg = CertConfig(seed=1)
    ca = make_root("ca", config=cfg)
    l1 = issue_leaf(ca, "a.example.com", ["a.example.com", "*.b.example.com"], 30, cfg)
    l2 = issue_leaf(ca, "a.example.com", ["a.example.com", "*.b.example.com"], 30, cfg)
    assert cert_pem(l1.cert) == cert_pem(l2.cert)
    assert cert_dns_names(l1.cert) == ["a.example.com", "a.example.com", "*.b.example.com"]


def test_empty_root_name_rejected():
    with pytest.raises(CertSetupError):
        make_root("")


@pytest.mark.parametrize(
    "san,ok",
    [
        ("example.com", True),
        ("*.example.com", True),
        ("a-b.example.com", True),
        ("*.*.example.com", False),
        ("a..example.com", False),
        ("-bad.example.com", False),
        ("Example.com", False),
        ("example.com.", False),
        ("café.example.com", False),  # a U-label; certificates carry A-labels
        ("*", False),
        ("", False),
    ],
)
def test_san_validation(san, ok):
    assert is_valid_san(san) is ok


def test_issue_leaf_rejects_bad_sans():
    ca = make_root("ca")
    with pytest.raises(InvalidSanError):
        issue_leaf(ca, "x", ["*.*.example.com"], 30)
    with pytest.raises(InvalidSanError):
        issue_leaf(ca, "x", [], 30)
    with pytest.raises(ValueError):
        issue_leaf(ca, "x", ["example.com"], 0)


def test_signature_verification():
    ca = make_root("ca")
    other = make_root("other")
    leaf = issue_leaf(ca, "example.com", ["example.com"], 30)
    assert verify_signature(leaf.cert, ca.self_signed_cert)
    assert not verify_signature(leaf.cert, other.self_signed_cert)


def test_trust_store_membership_by_fingerprint():
    ca = make_root("ca")
    clone = make_root("ca")  # same seed, same bytes
    store = TrustStore([ca])
    assert [root.fingerprint for root in TrustStore([ca, clone])] == [clone.fingerprint]
    assert store.find_issuer(issue_leaf(ca, "x.example.com", ["x.example.com"], 7).cert) is ca


def test_verify_chain_time_window():
    cfg = CertConfig(seed=2)
    ca = make_root("ca", config=cfg)
    store = TrustStore([ca])
    leaf = issue_leaf(ca, "example.com", ["example.com"], 10, cfg)
    assert verify_chain([leaf.cert], store, cfg.now)
    assert not verify_chain([leaf.cert], store, cfg.now + datetime.timedelta(days=11))
    assert not verify_chain([leaf.cert], store, cfg.now - datetime.timedelta(days=2))
    assert not verify_chain([leaf.cert], TrustStore(), cfg.now)


def test_fingerprint_shape():
    ca = make_root("ca")
    fp = fingerprint(ca.self_signed_cert)
    assert len(fp) == 64 and fp == fp.lower()
    assert int(fp, 16) >= 0


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(0, 1000),
    in_store=st.booleans(),
    day_offset=st.integers(-30, 30),
)
def test_verify_chain_iff_issuer_and_window(seed, in_store, day_offset):
    cfg = CertConfig(seed=seed)
    ca = make_root("prop-ca", config=cfg)
    decoy = make_root("decoy", config=cfg)
    store = TrustStore([ca] if in_store else [decoy])
    leaf = issue_leaf(ca, "p.example.com", ["p.example.com"], 14, cfg)
    now = cfg.now + datetime.timedelta(days=day_offset)
    in_window = leaf.cert.not_valid_before_utc <= now <= leaf.cert.not_valid_after_utc
    assert verify_chain([leaf.cert], store, now) == (in_store and in_window)
