import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.flowledger import FlowRecord
from mitmscan.metrics import (
    cdf,
    coverage_rates,
    detection_rates,
    entities,
    prevalence,
    write_cdf_csv,
)


def flows(rows):
    """One T1 record per (app, fqdn, outcome) row, numbered in order."""
    return [
        FlowRecord(app_id=app, fqdn=fqdn, ts_wall="2025-04-01T00:00:00+00:00", ts_mono=i,
                   test_applied="T1", outcome=outcome)
        for i, (app, fqdn, outcome) in enumerate(rows)
    ]


def test_detection_rates_examples():
    rates = detection_rates(a_det=set("ab"), a_gt=set("ac"), s_det=set(), s_gt=set())
    assert rates["R_app"] == 0.5 and rates["R_app_novel"] == 0.5
    assert rates["R_TLS"] is None and rates["R_TLS_novel"] is None

    rates = detection_rates(a_det=set("ab"), a_gt=set("ab"), s_det=set(), s_gt=set())
    assert rates["R_app"] == 1.0 and rates["R_app_novel"] == 0.0


def test_coverage_rates_examples():
    e = {("a", "s1"), ("a", "s2")}
    rates = coverage_rates(e_auto=e, e_manual=e, s_auto=e, s_manual=e)
    assert rates["C_UI"] == 1.0 and rates["C_UI_novel"] == 0.0

    other = {("b", "s9")}
    rates = coverage_rates(e_auto=e, e_manual=other, s_auto=e, s_manual=other)
    assert rates["C_UI"] == 0.0 and rates["C_UI_novel"] == 1.0


def test_prevalence_basic():
    rows = [
        ("app1", "a.com", "vulnerable"),
        ("app1", "b.com", "secure"),
        ("app2", "a.com", "secure"),
        ("app3", "c.com", "secure"),
        ("app4", "d.com", "skipped"),
    ]
    stats = prevalence(flows(rows))
    assert stats["fractions"]["apps"] == pytest.approx(1 / 3)
    assert stats["fractions"]["flows"] == pytest.approx(1 / 4)
    # app1 ratio over unique (app, fqdn) pairs: 1 of 2
    assert stats["per_app_ratio"]["values"] == [0.5, 0.0, 0.0]
    assert stats["per_app_ratio"]["share_above_half"] == 0.0


def test_prevalence_dedups_hosts():
    # app hits same fqdn three times, vulnerable once
    rows = [("app", "a.com", "vulnerable"), ("app", "a.com", "secure"), ("app", "a.com", "secure")]
    assert prevalence(flows(rows))["per_app_ratio"]["values"] == [1.0]


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xy")), max_size=30))
def test_entities_match_brute_force(pairs):
    counts = entities(flows([(f"app.{a}", f"{h}.example.com", "secure") for a, h in pairs]))
    assert counts == {
        "apps": len({a for a, _ in pairs}),
        "flows": len(pairs),
        "fqdns": len({h for _, h in pairs}),
        "app_fqdns": len(set(pairs)),
    }


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["app1", "app2", "app3", "app4"]),
            st.sampled_from(["a.com", "b.com", "c.org"]),
            st.sampled_from(["vulnerable", "secure", "inconclusive", "skipped"]),
        ),
        max_size=30,
    )
)
def test_prevalence_matches_recount(rows):
    stats = prevalence(flows(rows))

    tested = [(a, f, o) for a, f, o in rows if o != "skipped"]
    vulnerable = [(a, f) for a, f, o in tested if o == "vulnerable"]

    def share(part, whole):
        return len(set(part)) / len(set(whole)) if whole else None

    assert stats["fractions"] == {
        "apps": share([a for a, _ in vulnerable], [a for a, _, _ in tested]),
        "flows": len(vulnerable) / len(tested) if tested else None,
        "fqdns": share([f for _, f in vulnerable], [f for _, f, _ in tested]),
        "app_fqdns": share(vulnerable, [(a, f) for a, f, _ in tested]),
    }
    ratios = []
    for app in sorted({a for a, _, _ in tested}):
        hosts = {f for a, f, _ in tested if a == app}
        vulnerable_hosts = {f for a, f in vulnerable if a == app}
        ratios.append(len(vulnerable_hosts) / len(hosts))
    spread = stats["per_app_ratio"]
    assert spread["values"] == ratios
    if ratios:
        assert spread["mean"] == pytest.approx(sum(ratios) / len(ratios))
        assert spread["share_above_half"] == sum(r > 0.5 for r in ratios) / len(ratios)
    else:
        assert spread["mean"] is spread["median"] is spread["share_above_half"] is None


def test_cdf_examples(tmp_path):
    assert cdf([]) == []
    assert cdf([1, 1, 2]) == [(1, 2 / 3), (2, 1.0)]
    assert cdf([2, 1, 1]) == cdf([1, 1, 2])
    path = tmp_path / "points.csv"
    write_cdf_csv(cdf([1.0, 2.0]), path)
    assert path.read_text().splitlines()[0] == "x,F"


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-100, 100), min_size=1, max_size=30))
def test_cdf_matches_rank_counting(values):
    points = cdf(values)
    n = len(values)
    for x, f in points:
        assert f == pytest.approx(sum(1 for v in values if v <= x) / n, abs=1e-12)
    assert points[-1][1] == pytest.approx(1.0, abs=1e-12)
    xs = [x for x, _ in points]
    assert xs == sorted(set(xs))
