import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.locator import ValidationEvent
from mitmscan.party import (
    PARTY_DEVELOPER,
    PARTY_THIRD_PARTY,
    PackageAnnotation,
    attribute,
    load_annotations,
)


def event(app, loc, host="h.example.com", verdict="accepted"):
    """A trust-manager event of ``app`` at ``loc`` for a certificate named ``host``."""
    return ValidationEvent(
        event_id=f"{app}-{loc}-{host}",
        app_id=app,
        code_location=loc,
        interface_kind="trust_manager",
        verdict=verdict,
        mitm_active=True,
        ts=0.0,
        cert_cn=host,
    )


def test_annotation_invariant():
    with pytest.raises(ValueError):
        PackageAnnotation(prefix="com.x", is_third_party=True)
    PackageAnnotation(prefix="com.x", is_third_party=True, library_name="X", provider="XCo")
    with pytest.raises(ValueError):
        PackageAnnotation(prefix="", is_third_party=False)


def test_builtin_annotations_load():
    annotations = load_annotations()
    prefixes = {a.prefix for a in annotations}
    assert "cn.jiguang" in prefixes


def test_ambiguous_annotations_rejected(tmp_path):
    path = tmp_path / "ann.json"
    path.write_text(
        '[{"prefix": "com.x", "is_third_party": false},'
        ' {"prefix": "com.x", "is_third_party": true,'
        '  "library_name": "X", "provider": "XCo"}]'
    )
    with pytest.raises(ValueError):
        load_annotations(path)


def test_package_extraction():
    """A location's package is all but its last two labels, class and method."""
    annotations = [PackageAnnotation("com.sdk", True, "SDK", "SdkCo")]
    for loc, party in [
        ("com.sdk.T.m", PARTY_THIRD_PARTY),
        ("com.sdk.net.T.m", PARTY_THIRD_PARTY),
        ("com.sdk.m", PARTY_DEVELOPER),  # package "com"
        ("Cls.method", PARTY_DEVELOPER),  # no package
    ]:
        parties = attribute([event("app1", loc)], annotations)
        assert parties[party]["snippets"] == 1, loc


def test_attribute_examples():
    annotations = load_annotations()
    events = [
        event("app1", "cn.jiguang.net.HttpsTrustManager.checkServerTrusted", "a.com"),
        event("app1", "com.myapp.Util.verify", "b.com"),
    ]
    parties = attribute(events, annotations)
    # every snippet lands in exactly one party
    assert parties[PARTY_THIRD_PARTY]["snippets"] == 1
    assert parties[PARTY_DEVELOPER]["snippets"] == 1
    # one app hosts both parties: app percentages may jointly exceed 100
    assert parties[PARTY_THIRD_PARTY]["apps_pct"] == 100.0
    assert parties[PARTY_DEVELOPER]["apps_pct"] == 100.0


def test_longest_prefix_wins():
    annotations = [
        PackageAnnotation("com.lib", False),
        PackageAnnotation("com.lib.insecure", True, "Bad SDK", "BadCo"),
    ]
    parties = attribute([event("app1", "com.lib.insecure.T.m")], annotations)
    assert parties[PARTY_THIRD_PARTY]["snippets"] == 1
    assert parties[PARTY_DEVELOPER]["snippets"] == 0


@settings(max_examples=50, deadline=None)
@given(st.permutations(range(4)))
def test_longest_prefix_order_independent(order):
    annotations = [
        PackageAnnotation("com", False),
        PackageAnnotation("com.a", True, "A", "ACo"),
        PackageAnnotation("com.a.b", False),
        PackageAnnotation("com.a.b.c", True, "C", "CCo"),
    ]
    shuffled = [annotations[i] for i in order]
    # each location's app names the party it must land in
    events = [
        event(PARTY_THIRD_PARTY, "com.a.b.c.d.T.m"),
        event(PARTY_DEVELOPER, "com.a.b.T.m"),
        event(PARTY_THIRD_PARTY, "com.a.T.m"),
    ]
    parties = attribute(events, shuffled)
    assert parties[PARTY_THIRD_PARTY]["snippets"] == 2
    assert parties[PARTY_THIRD_PARTY]["apps"] == 1
    assert parties[PARTY_DEVELOPER]["snippets"] == 1
    assert parties[PARTY_DEVELOPER]["apps"] == 1


def test_report_counts_match_brute_force():
    annotations = [PackageAnnotation("com.sdk", True, "SDK", "SdkCo")]
    events = [
        event("app1", "com.sdk.T.m", "x.com"),
        event("app1", "com.sdk.T.m", "y.com"),
        # a location belongs to the app of its first accepted event
        event("app2", "com.sdk.U.m", "x.com", verdict="rejected"),
        event("app1", "com.sdk.U.m", "x.com"),
        event("app2", "com.sdk.U.m", "w.com"),
        event("app2", "com.own.V.m", "z.com"),
        # a rejected event makes no snippet and names no host
        event("app3", "com.own.W.m", "q.com", verdict="rejected"),
    ]
    parties = attribute(events, annotations)
    third = parties[PARTY_THIRD_PARTY]
    dev = parties[PARTY_DEVELOPER]
    assert third["snippets"] == 2 and dev["snippets"] == 1
    assert third["apps"] == 1 and dev["apps"] == 1
    assert third["fqdns"] == 3 and dev["fqdns"] == 1
    assert third["snippets_pct"] == pytest.approx(100 * 2 / 3)
    assert third["apps_pct"] == pytest.approx(100 * 1 / 2)
    assert third["fqdns_pct"] == pytest.approx(100 * 3 / 4)


def test_empty_inputs_yield_undefined_percentages():
    parties = attribute([], [])
    assert parties[PARTY_DEVELOPER] == {
        "snippets": 0, "snippets_pct": None,
        "apps": 0, "apps_pct": None,
        "fqdns": 0, "fqdns_pct": None,
    }
    assert attribute([event("app1", "com.own.V.m", verdict="rejected")], []) == parties
