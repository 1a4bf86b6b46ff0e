import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.party import (
    PARTY_DEVELOPER,
    PARTY_THIRD_PARTY,
    CodeSnippetRef,
    PackageAnnotation,
    attribute,
    load_annotations,
)


def ref(sid, app, loc, fqdns=()):
    return CodeSnippetRef(sid, app, loc, frozenset(fqdns))


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
    assert ref("s", "a", "cn.jiguang.net.HttpsTrustManager.checkServerTrusted").package == "cn.jiguang.net"
    assert ref("s", "a", "Cls.method").package == ""


def test_attribute_examples():
    annotations = load_annotations()
    snippets = [
        ref("s1", "app1", "cn.jiguang.net.HttpsTrustManager.checkServerTrusted", ["a.com"]),
        ref("s2", "app1", "com.myapp.Util.verify", ["b.com"]),
    ]
    report = attribute(snippets, annotations)
    by_id = {a.snippet_id: a for a in report.attributions}
    assert by_id["s1"].party == PARTY_THIRD_PARTY
    assert by_id["s1"].library_name == "JPush" and by_id["s1"].provider == "Aurora"
    assert by_id["s2"].party == PARTY_DEVELOPER
    # every snippet lands in exactly one party
    assert report.parties[PARTY_THIRD_PARTY]["snippets"] + report.parties[PARTY_DEVELOPER]["snippets"] == 2
    # one app hosts both parties: app percentages may jointly exceed 100
    assert report.parties[PARTY_THIRD_PARTY]["apps_pct"] == 100.0
    assert report.parties[PARTY_DEVELOPER]["apps_pct"] == 100.0


def test_longest_prefix_wins():
    annotations = [
        PackageAnnotation("com.lib", False),
        PackageAnnotation("com.lib.insecure", True, "Bad SDK", "BadCo"),
    ]
    snippets = [ref("s1", "app1", "com.lib.insecure.T.m")]
    report = attribute(snippets, annotations)
    assert report.attributions[0].party == PARTY_THIRD_PARTY
    assert report.attributions[0].matched_prefix == "com.lib.insecure"


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
    snippets = [
        ref("s1", "app1", "com.a.b.c.d.T.m"),
        ref("s2", "app1", "com.a.b.T.m"),
        ref("s3", "app1", "com.a.T.m"),
    ]
    report = attribute(snippets, shuffled)
    parties = {a.snippet_id: a.party for a in report.attributions}
    assert parties == {
        "s1": PARTY_THIRD_PARTY,
        "s2": PARTY_DEVELOPER,
        "s3": PARTY_THIRD_PARTY,
    }


def test_report_counts_match_brute_force():
    annotations = [PackageAnnotation("com.sdk", True, "SDK", "SdkCo")]
    snippets = [
        ref("s1", "app1", "com.sdk.T.m", ["x.com", "y.com"]),
        ref("s2", "app2", "com.sdk.U.m", ["x.com"]),
        ref("s3", "app2", "com.own.V.m", ["z.com"]),
    ]
    report = attribute(snippets, annotations)
    third = report.parties[PARTY_THIRD_PARTY]
    dev = report.parties[PARTY_DEVELOPER]
    assert third["snippets"] == 2 and dev["snippets"] == 1
    assert third["apps"] == 2 and dev["apps"] == 1
    assert third["fqdns"] == 2 and dev["fqdns"] == 1
    assert third["snippets_pct"] == pytest.approx(100 * 2 / 3)
    assert third["fqdns_pct"] == pytest.approx(100 * 2 / 3)


def test_empty_inputs_yield_undefined_percentages():
    report = attribute([], [])
    assert report.parties[PARTY_DEVELOPER]["snippets_pct"] is None
