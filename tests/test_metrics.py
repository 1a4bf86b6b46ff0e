import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.distance import jensenshannon
from scipy.stats import pearsonr

from mitmscan.flowledger import FlowLedger, FlowRecord
from mitmscan.metrics import (
    SLOT_DAYS,
    CoverageSets,
    DetectionSets,
    VersionTimeline,
    cdf,
    coverage_rates,
    detection_rates,
    jsd,
    load_timelines,
    longitudinal,
    point_biserial,
    prevalence,
    write_cdf_csv,
)


def flow(app, fqdn, ts, outcome):
    return FlowRecord(
        app_id=app, fqdn=fqdn, ts_wall="2025-04-01T00:00:00+00:00", ts_mono=ts,
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
    for i, (app, fqdn, outcome) in enumerate(rows):
        ledger.record_flow(flow(app, fqdn, i, outcome))
    stats = prevalence(ledger)
    assert stats["fractions"]["apps"] == pytest.approx(1 / 3)
    assert stats["fractions"]["flows"] == pytest.approx(1 / 4)
    # app1 ratio over unique (app, fqdn) pairs: 1 of 2
    assert stats["per_app_ratio"]["values"] == [0.5, 0.0, 0.0]
    assert stats["per_app_ratio"]["share_above_half"] == 0.0


def test_prevalence_dedups_hosts():
    ledger = FlowLedger()
    # app hits same fqdn three times, vulnerable once
    ledger.record_flow(flow("app", "a.com", 0, "vulnerable"))
    ledger.record_flow(flow("app", "a.com", 1, "secure"))
    ledger.record_flow(flow("app", "a.com", 2, "secure"))
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
    for i, (app, fqdn, outcome) in enumerate(rows):
        ledger.record_flow(flow(app, fqdn, i, outcome))
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


def test_jsd_anchors():
    p = [0.25, 0.25, 0.5]
    assert jsd(p, p) == pytest.approx(0.0, abs=1e-12)
    assert jsd([1, 0, 0, 0], [0, 0.2, 0.3, 0.5]) == pytest.approx(1.0, abs=1e-12)


def test_jsd_normalizes_with_warning(caplog):
    import logging

    with caplog.at_level(logging.WARNING, logger="mitmscan.metrics"):
        value = jsd([2.0, 2.0], [1.0, 1.0])
    assert value == pytest.approx(0.0, abs=1e-12)
    assert any("normalizing" in r.message for r in caplog.records)


def test_jsd_input_validation():
    with pytest.raises(ValueError):
        jsd([0.5], [0.5, 0.5])
    with pytest.raises(ValueError):
        jsd([], [])
    with pytest.raises(ValueError):
        jsd([-0.1, 1.1], [0.5, 0.5])
    with pytest.raises(ValueError):
        jsd([0.0, 0.0], [1.0, 0.0])


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(0.01, 10), min_size=2, max_size=8),
    st.data(),
)
def test_jsd_matches_scipy_and_symmetry(p, data):
    q = data.draw(st.lists(st.floats(0.01, 10), min_size=len(p), max_size=len(p)))
    ours = jsd(p, q)
    theirs = jensenshannon(p, q, base=2) ** 2
    if math.isnan(theirs):  # scipy hits sqrt of a tiny negative when p == q
        theirs = 0.0
    assert ours == pytest.approx(theirs, abs=1e-12)
    assert jsd(p, q) == pytest.approx(jsd(q, p), abs=1e-12)
    assert 0 <= ours <= 1 + 1e-12


def test_point_biserial_matches_scipy():
    binary = [0, 1, 0, 1, 1, 0, 1]
    metric = [1.0, 4.0, 2.0, 5.0, 7.0, 1.5, 6.0]
    ours = point_biserial(binary, metric)
    theirs = pearsonr(binary, metric).statistic
    assert ours == pytest.approx(theirs, abs=1e-12)


def test_point_biserial_degenerate():
    assert point_biserial([1, 1, 1], [1.0, 2.0, 3.0]) is None
    assert point_biserial([0, 1, 0], [2.0, 2.0, 2.0]) is None
    with pytest.raises(ValueError):
        point_biserial([0, 1], [1.0])
    with pytest.raises(ValueError):
        point_biserial([0, 2], [1.0, 2.0])
    with pytest.raises(ValueError):
        point_biserial([1], [1.0])


def test_timeline_validation():
    with pytest.raises(ValueError):
        VersionTimeline("app", ())
    with pytest.raises(ValueError):
        VersionTimeline("app", (("2024-06-01", True), ("2024-03-01", False)))


def test_longitudinal_all_vulnerable():
    tl = VersionTimeline("app", (("2024-01-01", True), ("2024-04-01", True)))
    stats = longitudinal(tl)
    assert stats.vulnerable_span_days == 2 * SLOT_DAYS
    assert stats.app_lifespan_days == 91
    assert stats.span_ratio == 2 * SLOT_DAYS / 91
    assert stats.ratio_exceeds_lifespan
    assert stats.remediation_delay_days is None
    assert stats.reintroduction_events == 0


def test_longitudinal_remediation_and_reintroduction():
    tl = VersionTimeline(
        "app",
        (
            ("2024-01-01", True),
            ("2024-04-01", True),
            ("2024-07-01", False),
            ("2024-10-01", True),
        ),
    )
    stats = longitudinal(tl)
    assert stats.reintroduction_events == 1
    # first fix observed at the third slot
    import datetime

    expected_delay = (datetime.date(2024, 7, 1) - datetime.date(2024, 1, 1)).days
    assert stats.remediation_delay_days == expected_delay


def test_longitudinal_single_slot():
    vulnerable = longitudinal(VersionTimeline("app", (("2024-01-01", True),)))
    assert vulnerable.app_lifespan_days == 0
    assert vulnerable.span_ratio == 1.0
    clean = longitudinal(VersionTimeline("app", (("2024-01-01", False),)))
    assert clean.span_ratio == 0.0


def test_load_timelines(tmp_path):
    path = tmp_path / "timelines.jsonl"
    path.write_text(
        '{"app_id": "a", "slot_start": "2024-04-01", "vulnerable": true}\n'
        '{"app_id": "a", "slot_start": "2024-01-01", "vulnerable": false}\n'
    )
    (tl,) = load_timelines(path)
    assert tl.samples == (("2024-01-01", False), ("2024-04-01", True))


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
