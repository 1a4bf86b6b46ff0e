from fractions import Fraction

import pytest

from mitmscan.flowledger import FlowRecord
from mitmscan.locator import (
    Attribution,
    FailureAnalysis,
    ValidationEvent,
    correlate,
    coverage,
    load_events,
    match_cert_names,
    save_events,
)


def flow(app, fqdn, ts, outcome="vulnerable", channel="native"):
    return FlowRecord(
        app_id=app,
        fqdn=fqdn,
        ts_wall="2025-04-01T00:00:00+00:00",
        ts_mono=ts,
        channel=channel,
        test_applied="T1",
        outcome=outcome,
    )


def tm_event(eid, app, loc, names, verdict="accepted", mitm=False, ts=0.0):
    return ValidationEvent(
        event_id=eid,
        app_id=app,
        code_location=loc,
        interface_kind="trust_manager",
        verdict=verdict,
        mitm_active=mitm,
        ts=ts,
        cert_cn=names[0],
        cert_sans=names[1:] or None,
    )


def test_event_validation():
    with pytest.raises(ValueError):
        ValidationEvent("e", "a", "loc", "hostname_verifier", "accepted", False, 0.0)
    with pytest.raises(ValueError):
        ValidationEvent("e", "a", "loc", "trust_manager", "accepted", False, 0.0)
    with pytest.raises(ValueError):
        tm_event("e", "a", "loc", ["x.com"], verdict="maybe")


def test_event_round_trip(tmp_path):
    events = [
        tm_event("e1", "app", "pkg.A.checkServerTrusted", ["*.example.com"]),
        ValidationEvent(
            "e2", "app", "pkg.B.verify", "hostname_verifier", "rejected", True, 1.0,
            hostname_param="a.example.com",
        ),
    ]
    path = tmp_path / "events.jsonl"
    save_events(events, path)
    assert load_events(path) == events


@pytest.mark.parametrize(
    "fqdn,names,ok",
    [
        ("a.example.com", ["a.example.com"], True),
        ("A.Example.COM", ["a.example.com."], True),
        ("a.example.com", ["*.example.com"], True),
        ("example.com", ["*.example.com"], False),
        ("a.b.example.com", ["*.example.com"], False),
        ("a.example.com", ["b.example.com"], False),
        ("a.example.com", [], False),
    ],
)
def test_match_cert_names(fqdn, names, ok):
    assert match_cert_names(fqdn, names) is ok


def test_attribution_requires_flows():
    with pytest.raises(ValueError):
        Attribution(code_location="x", matched_flows=set(), match_mode="cert_name")


def wildcard_scenario():
    """One app, insecure path for a.example.com, secure path for b.example.com,
    both behind one wildcard certificate."""
    vuln = [flow("app1", "a.example.com", 0)]
    events = [
        tm_event("ea", "app1", "pkg.CodeA.checkServerTrusted", ["*.example.com"],
                 verdict="accepted", mitm=True, ts=0.0),
        tm_event("eb", "app1", "pkg.CodeB.checkServerTrusted", ["*.example.com"],
                 verdict="rejected", mitm=True, ts=0.0),
    ]
    return events, vuln


def test_passive_matching_hits_both_locations():
    events, vuln = wildcard_scenario()
    passive = [
        ValidationEvent(
            e.event_id, e.app_id, e.code_location, e.interface_kind, e.verdict,
            False, e.ts, cert_cn=e.cert_cn, cert_sans=e.cert_sans,
        )
        for e in events
    ]
    attributions, unmatched = correlate(passive, vuln)
    assert {a.code_location for a in attributions} == {
        "pkg.CodeA.checkServerTrusted",
        "pkg.CodeB.checkServerTrusted",
    }
    assert not unmatched


def test_active_matching_isolates_accepting_path():
    events, vuln = wildcard_scenario()
    attributions, unmatched = correlate(events, vuln)
    assert [a.code_location for a in attributions] == ["pkg.CodeA.checkServerTrusted"]
    assert attributions[0].match_mode == "active_mitm"
    assert not unmatched


def test_direct_hostname_matching():
    vuln = [flow("app1", "a.example.com", 0)]
    event = ValidationEvent(
        "e", "app1", "pkg.V.verify", "hostname_verifier", "accepted", False, 0.0,
        hostname_param="A.example.com.",
    )
    attributions, unmatched = correlate([event], vuln)
    assert attributions[0].match_mode == "direct_hostname"
    assert not unmatched


def test_flows_link_only_to_events_of_their_channel():
    native = flow("app1", "a.example.com", 0)
    webview = flow("app1", "a.example.com", 1, channel="webview")
    events = [
        tm_event("en", "app1", "pkg.Trust.checkServerTrusted", ["a.example.com"], mitm=True),
        ValidationEvent(
            "ew", "app1", "pkg.Web.onReceivedSslError", "webview_client", "accepted", True,
            0.0, hostname_param="a.example.com",
        ),
    ]
    attributions, unmatched = correlate(events, [native, webview])
    assert {a.code_location: a.matched_flows for a in attributions} == {
        "pkg.Trust.checkServerTrusted": {native.identity},
        "pkg.Web.onReceivedSslError": {webview.identity},
    }
    assert not unmatched


def test_time_window_filter():
    vuln = [flow("app1", "a.example.com", 0)]
    event = tm_event("e", "app1", "pkg.A.checkServerTrusted", ["a.example.com"], ts=100.0)
    attributions, unmatched = correlate(
        [event], vuln, window_seconds=5.0, flow_times={vuln[0].identity: 0.0}
    )
    assert not attributions and unmatched == vuln


def test_coverage_exact_fractions():
    vuln = [flow("app1", "a.example.com", 0), flow("app2", "c.example.com", 1)]
    events, _ = wildcard_scenario()
    attributions, _ = correlate(events, vuln)
    cov = coverage(attributions, vuln, ["app1", "app2"])
    assert cov.fqdn_cov == Fraction(1, 2)
    assert cov.flow_cov == Fraction(1, 2)
    assert cov.app_all == Fraction(1, 2)
    assert cov.app_one == Fraction(1, 2)


def test_coverage_undefined_on_empty():
    cov = coverage([], [], [])
    assert cov.fqdn_cov is None and cov.flow_cov is None
    assert cov.app_all is None and cov.app_one is None
    assert cov.as_dict() == {
        "fqdn_cov": None, "flow_cov": None, "app_all": None, "app_one": None
    }


def test_failure_analysis_counts():
    tags = {
        ("a", "x.com", 0): "untriggered_path",
        ("a", "y.com", 1): "native_code",
        ("b", "z.com", 2): "native_code",
    }
    analysis = FailureAnalysis.from_tags(tags)
    assert analysis.causes == {"untriggered_path": 1, "native_code": 2}
    with pytest.raises(ValueError):
        FailureAnalysis.from_tags({("a", "x", 0): "gremlins"})
