import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.flowledger import FlowLedger
from mitmscan.metrics import (
    CoverageSets,
    DetectionSets,
    cdf,
    coverage_rates,
    detection_rates,
    prevalence,
    write_cdf_csv,
)


def flow(app, fqdn, outcome):
    return dict(
        app_id=app, fqdn=fqdn, ts_wall="2025-04-01T00:00:00+00:00",
        test_applied="T1", outcome=outcome,
    )


def test_detection_rates_examples():
    d = DetectionSets(
        a_det=frozenset("ab"), a_gt=frozenset("ac"),
        s_det=frozenset(), s_gt=frozenset(),
    )
    rates = detection_rates(d)
    assert rates["R_app"] == 0.5 and rates["R_app_novel"] == 0.5
    assert rates["R_TLS"] is None and rates["R_TLS_novel"] is None

    same = DetectionSets(frozenset("ab"), frozenset("ab"), frozenset(), frozenset())
    rates = detection_rates(same)
    assert rates["R_app"] == 1.0 and rates["R_app_novel"] == 0.0


def test_coverage_rates_examples():
    e = frozenset({("a", "s1"), ("a", "s2")})
    same = CoverageSets(e, e, e, e)
    rates = coverage_rates(same)
    assert rates["C_UI"] == 1.0 and rates["C_UI_novel"] == 0.0

    disjoint = CoverageSets(e, frozenset({("b", "s9")}), e, frozenset({("b", "s9")}))
    rates = coverage_rates(disjoint)
    assert rates["C_UI"] == 0.0 and rates["C_UI_novel"] == 1.0


def test_prevalence_basic():
    ledger = FlowLedger()
    rows = [
        ("app1", "a.com", "vulnerable"),
        ("app1", "b.com", "secure"),
        ("app2", "a.com", "secure"),
        ("app3", "c.com", "secure"),
        ("app4", "d.com", "skipped"),
    ]
    for app, fqdn, outcome in rows:
        ledger.record_flow(**flow(app, fqdn, outcome))
    stats = prevalence(ledger)
    assert stats["fractions"]["apps"] == pytest.approx(1 / 3)
    assert stats["fractions"]["flows"] == pytest.approx(1 / 4)
    # app1 ratio over unique (app, fqdn) pairs: 1 of 2
    assert stats["per_app_ratio"]["values"] == [0.5, 0.0, 0.0]
    assert stats["per_app_ratio"]["share_above_half"] == 0.0


def test_prevalence_dedups_hosts():
    ledger = FlowLedger()
    # app hits same fqdn three times, vulnerable once
    ledger.record_flow(**flow("app", "a.com", "vulnerable"))
    ledger.record_flow(**flow("app", "a.com", "secure"))
    ledger.record_flow(**flow("app", "a.com", "secure"))
    assert prevalence(ledger)["per_app_ratio"]["values"] == [1.0]


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
    ledger = FlowLedger()
    for app, fqdn, outcome in rows:
        ledger.record_flow(**flow(app, fqdn, outcome))
    stats = prevalence(ledger)

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
