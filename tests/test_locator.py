import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.flowledger import FlowRecord, normalize_fqdn
from mitmscan.locator import (
    Attribution,
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
        ("a.example", ["*.example"], False),  # a wildcard needs a dot in its suffix
        ("a.example.com.", ["a.example.com"], False),  # the host's trailing dot is kept
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


def test_coverage_exact_fractions():
    vuln = [flow("app1", "a.example.com", 0), flow("app2", "c.example.com", 1)]
    events, _ = wildcard_scenario()
    attributions, _ = correlate(events, vuln)
    assert coverage(attributions, vuln) == {
        "fqdn_cov": 0.5, "flow_cov": 0.5, "app_all": 0.5, "app_one": 0.5
    }


def test_coverage_undefined_on_empty():
    assert coverage([], []) == {
        "fqdn_cov": None, "flow_cov": None, "app_all": None, "app_one": None
    }


APPS = ("app1", "app2", "app3")
HOSTS = ("a.example.com", "b.example.com", "example.com", "a.b.example.com", "c.other.org")
# Names an event may carry: the hosts, wildcards, and a host in another spelling.
NAMES = HOSTS + ("*.example.com", "*.b.example.com", "A.Example.COM.")


def make_event(i, app, kind, names, cls, verdict, mitm):
    if kind == "trust_manager":
        fields = {"cert_cn": names[0], "cert_sans": names[1:] or None}
    else:
        fields = {"hostname_param": names[0]}
    return ValidationEvent(
        f"e{i}", app, f"{app}.pkg.{cls}.check", kind, verdict, mitm, float(i), **fields
    )


events_and_flows = st.tuples(
    st.lists(
        st.tuples(
            st.sampled_from(APPS),
            st.sampled_from(("trust_manager", "hostname_verifier", "webview_client")),
            st.lists(st.sampled_from(NAMES), min_size=1, max_size=3),
            st.sampled_from("ABC"),
            st.sampled_from(("accepted", "rejected")),
            st.booleans(),
        ),
        max_size=20,
    ),
    st.lists(
        st.tuples(
            st.sampled_from(APPS),
            st.sampled_from(HOSTS),
            st.sampled_from(("native", "webview")),
        ),
        max_size=10,
    ),
)


def nested_loop_correlate(events, flows):
    """Every flow against every event; the channel and app rules spelled out here."""
    by_location = {}
    unmatched = []
    for f in flows:
        linked = []
        for e in events:
            channel = "webview" if e.interface_kind == "webview_client" else "native"
            if e.app_id != f.app_id or channel != f.channel:
                continue
            if e.hostname_param is not None:
                if normalize_fqdn(e.hostname_param) == f.fqdn:
                    linked.append((e, "direct_hostname"))
            elif match_cert_names(f.fqdn, e.cert_names()):
                linked.append((e, "cert_name"))
        if not linked:
            unmatched.append(f)
            continue
        active = [(e, "active_mitm") for e, _ in linked
                  if e.mitm_active and e.verdict == "accepted"]
        for e, mode in active or linked:
            entry = by_location.setdefault(e.code_location, [set(), mode])
            entry[0].add(f.identity)
            if mode == "active_mitm":
                entry[1] = mode
    return by_location, unmatched


@settings(max_examples=100, deadline=None)
@given(events_and_flows)
def test_correlate_matches_nested_loop(case):
    events = [make_event(i, *row) for i, row in enumerate(case[0])]
    flows = [
        flow(app, fqdn, ts, channel=channel) for ts, (app, fqdn, channel) in enumerate(case[1])
    ]
    attributions, unmatched = correlate(events, flows)
    expected, expected_unmatched = nested_loop_correlate(events, flows)
    assert {a.code_location: [a.matched_flows, a.match_mode] for a in attributions} == expected
    assert [a.code_location for a in attributions] == list(expected)
    assert unmatched == expected_unmatched
    # App isolation: a location of one app never holds another app's flow.
    for a in attributions:
        assert {app for app, _, _ in a.matched_flows} == {a.code_location.split(".")[0]}
