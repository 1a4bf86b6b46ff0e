import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.engine import MitmEngine
from mitmscan.flowledger import (
    POLICIES,
    POLICY_ALIASES,
    POLICY_ALWAYS,
    POLICY_ONCE,
    POLICY_UNTIL_VULNERABLE,
    TESTS,
    FlowLedger,
    FlowRecord,
    normalize_fqdn,
    parse_json_line,
    read_ledger,
)


def fields(app="app.one", fqdn="a.example.com", **kw):
    """A flow's fields, all but the ``ts_mono`` the ledger sets."""
    return dict(
        app_id=app,
        fqdn=fqdn,
        ts_wall="2025-04-01T00:00:00+00:00",
        test_applied="T1",
        outcome="secure",
    ) | kw


def make_flow(ts_mono=0, **kw):
    return FlowRecord(ts_mono=ts_mono, **fields(**kw))


def test_normalize_fqdn():
    assert normalize_fqdn("API.Example.COM.") == "api.example.com"
    assert normalize_fqdn(" a.b ") == "a.b"


def test_dedup_key_normalizes(ledger_file):
    path, read = ledger_file
    ledger = FlowLedger(path)
    ledger.record_flow(**fields(fqdn="A.Example.com."))
    assert read()[0].fqdn == "a.example.com"
    assert ledger.decide_retest("app.one", "A.EXAMPLE.com.", POLICY_ONCE, "T1") == "skip"


def test_flow_record_validation():
    with pytest.raises(ValueError):
        make_flow(transport="SCTP")
    with pytest.raises(ValueError):
        make_flow(outcome="weird")
    for test in (None, "T4"):
        with pytest.raises(ValueError):
            make_flow(test_applied=test)
    with pytest.raises(ValueError):
        make_flow(channel="browser")


def test_json_round_trip():
    flow = make_flow(tls_version="TLS1.3", channel="webview", outcome="vulnerable")
    again = FlowRecord(**json.loads(flow.to_json()))
    assert again == flow
    assert json.loads(flow.to_json())["fqdn"] == "a.example.com"


def test_duplicate_identity_rejected(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text(make_flow(ts_mono=0).to_json() + "\n" + make_flow(ts_mono=1).to_json() + "\n")
    assert len(read_ledger(path)) == 2  # same key, new timestamp is fine
    path.write_text(make_flow(ts_mono=0).to_json() + "\n" + make_flow(ts_mono=0).to_json() + "\n")
    with pytest.raises(ValueError, match="repeated flow identity"):
        read_ledger(path)


def test_persistence_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = FlowLedger(path)
    ledger.record_flow(**fields())
    ledger.record_flow(**fields(outcome="vulnerable"))
    records = read_ledger(path)
    assert [r.outcome for r in records] == ["secure", "vulnerable"]
    assert [r.ts_mono for r in records] == [0, 1]


def test_ledger_file_starts_empty(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text(make_flow(ts_mono=0).to_json() + "\n")
    ledger = FlowLedger(path)
    assert path.read_bytes() == b""
    ledger.record_flow(**fields(outcome="vulnerable"))
    assert read_ledger(path) == [make_flow(ts_mono=0, outcome="vulnerable")]


def test_torn_last_line_is_left_out_and_left_in_place(tmp_path, caplog):
    path = tmp_path / "ledger.jsonl"
    ledger = FlowLedger(path)
    ledger.record_flow(**fields())
    ledger.record_flow(**fields())
    torn = make_flow(ts_mono=2).to_json()
    path.write_bytes(path.read_bytes() + torn[: len(torn) // 2].encode())
    before = path.read_bytes()

    with caplog.at_level("WARNING", logger="mitmscan.flowledger"):
        assert read_ledger(path) == [make_flow(ts_mono=0), make_flow(ts_mono=1)]
    assert "torn" in caplog.text
    assert path.read_bytes() == before


def test_unterminated_whole_last_line_is_kept(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text(make_flow(ts_mono=0).to_json())
    assert read_ledger(path) == [make_flow(ts_mono=0)]
    assert path.read_text() == make_flow(ts_mono=0).to_json()


def test_policy_aliases():
    assert POLICY_ALIASES["always"] == POLICY_ALWAYS
    assert POLICY_ALIASES["skip"] == POLICY_ONCE
    assert POLICY_ALIASES["skip-if-vulnerable"] == POLICY_UNTIL_VULNERABLE


def test_decide_retest_p1_always_tests():
    ledger = FlowLedger()
    key = ("app.one", "a.example.com")
    for i in range(3):
        assert ledger.decide_retest(*key, POLICY_ALWAYS, "T1") == "test"
        ledger.record_flow(**fields(outcome="vulnerable"))


def test_decide_retest_p2_once():
    ledger = FlowLedger()
    key = ("app.one", "a.example.com")
    assert ledger.decide_retest(*key, POLICY_ONCE, "T1") == "test"
    ledger.record_flow(**fields(outcome="secure"))
    assert ledger.decide_retest(*key, POLICY_ONCE, "T1") == "skip"
    # other tests and keys are independent
    assert ledger.decide_retest(*key, POLICY_ONCE, "T2") == "test"
    assert ledger.decide_retest("app.one", "b.example.com", POLICY_ONCE, "T1") == "test"


def test_decide_retest_p3_until_vulnerable():
    ledger = FlowLedger()
    key = ("app.one", "a.example.com")
    assert ledger.decide_retest(*key, POLICY_UNTIL_VULNERABLE, "T1") == "test"
    ledger.record_flow(**fields(outcome="secure"))
    assert ledger.decide_retest(*key, POLICY_UNTIL_VULNERABLE, "T1") == "test"
    ledger.record_flow(**fields(outcome="vulnerable"))
    assert ledger.decide_retest(*key, POLICY_UNTIL_VULNERABLE, "T1") == "skip"


def test_decide_retest_rejects_unknowns(material):
    # decide_retest trusts its policy and test: the engine that calls it checks both when it is made.
    with pytest.raises(ValueError, match="unknown policy"):
        MitmEngine(material, "T1", "bogus", FlowLedger())
    with pytest.raises(ValueError, match="unknown test"):
        MitmEngine(material, "T9", POLICY_ALWAYS, FlowLedger())


APPS = ("app.a", "app.b")
# One host in several spellings, which the ledger must treat as one.
HOSTS = ("a.example.com", "A.Example.COM", "a.example.com.", "b.example.com", "B.EXAMPLE.COM.")


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(APPS),
            st.sampled_from(HOSTS),
            st.sampled_from(TESTS),
            st.sampled_from(POLICIES),
            st.sampled_from(("vulnerable", "secure", "inconclusive")),
        ),
        max_size=40,
    )
)
def test_read_ledger_returns_the_live_records(steps):
    """The file holds each flow as recorded, and each decision matches a recount of the
    flows before it: P2 skips a tested (app, host, test), P3 a vulnerable one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        live = FlowLedger(path)
        written = []
        for app, host, test, policy, outcome in steps:
            before = [r.outcome for r in written
                      if (r.app_id, r.fqdn, r.test_applied) == (app, normalize_fqdn(host), test)]
            skip = {
                POLICY_ONCE: any(o != "skipped" for o in before),
                POLICY_UNTIL_VULNERABLE: "vulnerable" in before,
            }.get(policy, False)
            assert live.decide_retest(app, host, policy, test) == ("skip" if skip else "test")
            if skip:
                outcome = "skipped"
            flow = fields(app=app, fqdn=host, test_applied=test, outcome=outcome)
            live.record_flow(**flow)
            written.append(FlowRecord(ts_mono=len(written), **flow))
        assert read_ledger(path) == written


@pytest.mark.parametrize(
    "line",
    [
        '{"a": 1}',
        ' {"a": 1} ',
        '\t{"a": [1, "x"]}\r',
        '{"a": 1} x',
        '{"a": 1}{"b": 2}',
        '\x0c{"a": 1}',
        '{"a": 1}\x0c',
        "",
        " ",
        "NaN",
        "\ufeff{}",
        '{"a": 1',
        '"text"',
    ],
)
def test_parse_json_line_agrees_with_json_loads(line):
    try:
        expected = json.loads(line)
    except json.JSONDecodeError:
        with pytest.raises(json.JSONDecodeError):
            parse_json_line(line)
    else:
        assert repr(parse_json_line(line)) == repr(expected)  # NaN equals nothing, itself included
