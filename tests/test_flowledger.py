import itertools
import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan.flowledger import (
    POLICIES,
    POLICY_ALIASES,
    POLICY_ALWAYS,
    POLICY_ONCE,
    POLICY_UNTIL_VULNERABLE,
    TESTS,
    DuplicateFlowError,
    FlowLedger,
    FlowRecord,
    normalize_fqdn,
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


def test_dedup_key_normalizes():
    ledger = FlowLedger()
    ledger.record_flow(**fields(fqdn="A.Example.com."))
    assert ledger.records()[0].fqdn == "a.example.com"
    assert ledger.decide_retest("app.one", "A.EXAMPLE.com.", POLICY_ONCE, "T1") == "skip"


def test_flow_record_validation():
    with pytest.raises(ValueError):
        make_flow(transport="SCTP")
    with pytest.raises(ValueError):
        make_flow(outcome="weird")
    with pytest.raises(ValueError):
        make_flow(outcome="skipped", test_applied=None)
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
    FlowLedger(path)  # same key, new timestamp is fine
    path.write_text(make_flow(ts_mono=0).to_json() + "\n" + make_flow(ts_mono=0).to_json() + "\n")
    with pytest.raises(DuplicateFlowError):
        FlowLedger(path)


def test_persistence_round_trip(tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = FlowLedger(path)
    ledger.record_flow(**fields())
    ledger.record_flow(**fields(outcome="vulnerable"))
    reloaded = FlowLedger(path)
    assert [r.outcome for r in reloaded.records()] == ["secure", "vulnerable"]
    assert [r.ts_mono for r in reloaded.records()] == [0, 1]


def test_torn_last_line_is_dropped_and_cut(tmp_path, caplog):
    path = tmp_path / "ledger.jsonl"
    ledger = FlowLedger(path)
    ledger.record_flow(**fields())
    ledger.record_flow(**fields())
    whole = path.read_bytes()
    torn = make_flow(ts_mono=2).to_json()
    path.write_bytes(whole + torn[: len(torn) // 2].encode())

    with caplog.at_level("WARNING", logger="mitmscan.flowledger"):
        reloaded = FlowLedger(path)
    assert "torn" in caplog.text
    assert path.read_bytes() == whole
    assert len(reloaded.records()) == 2
    reloaded.record_flow(**fields(outcome="vulnerable"))
    again = FlowLedger(path)
    assert [r.ts_mono for r in again.records()] == [0, 1, 2]
    assert again.records()[2].outcome == "vulnerable"


def test_unterminated_whole_last_line_is_kept(tmp_path):
    path = tmp_path / "ledger.jsonl"
    path.write_text(make_flow(ts_mono=0).to_json())
    ledger = FlowLedger(path)
    assert len(ledger.records()) == 1
    ledger.record_flow(**fields())
    assert [r.ts_mono for r in FlowLedger(path).records()] == [0, 1]


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


def test_decide_retest_rejects_unknowns():
    ledger = FlowLedger()
    key = ("app.one", "a.example.com")
    with pytest.raises(ValueError):
        ledger.decide_retest(*key, "bogus", "T1")
    with pytest.raises(ValueError):
        ledger.decide_retest(*key, POLICY_ALWAYS, "T9")


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
def test_reloaded_ledger_decides_as_the_live_one(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        live = FlowLedger(path)
        for app, host, test, policy, outcome in steps:
            if live.decide_retest(app, host, policy, test) == "skip":
                outcome = "skipped"
            live.record_flow(**fields(app=app, fqdn=host, test_applied=test, outcome=outcome))
        reloaded = FlowLedger(path)
    for key in itertools.product(APPS, HOSTS, POLICIES, TESTS):
        assert reloaded.decide_retest(*key) == live.decide_retest(*key)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ab"), st.sampled_from("xy")), max_size=30))
def test_unique_entities_matches_brute_force(pairs):
    ledger = FlowLedger()
    for app, host in pairs:
        ledger.record_flow(**fields(app=f"app.{app}", fqdn=f"{host}.example.com"))
    ent = ledger.unique_entities()
    assert ent["flows"] == len(pairs)
    assert ent["apps"] == len({a for a, _ in pairs})
    assert ent["fqdns"] == len({h for _, h in pairs})
    assert ent["app_fqdns"] == len(set(pairs))


def _simulate(policy, n_flows, seed):
    """Drive decide/record with random keys; vulnerable pops up randomly."""
    rng = random.Random(seed)
    ledger = FlowLedger()
    for _ in range(n_flows):
        app, host = f"app.{rng.randint(0, 3)}", f"h{rng.randint(0, 3)}.example.com"
        test = rng.choice(("T1", "T2", "T3"))
        decision = ledger.decide_retest(app, host, policy, test)
        if decision == "skip":
            outcome = "skipped"
        else:
            outcome = "vulnerable" if rng.random() < 0.3 else "secure"
        ledger.record_flow(**fields(app=app, fqdn=host, test_applied=test, outcome=outcome))
    return ledger


def _outcome_strings(ledger):
    seqs = {}
    for rec in ledger.records():
        letter = {"vulnerable": "v", "secure": "s", "skipped": "k"}[rec.outcome]
        seqs.setdefault((rec.app_id, rec.fqdn, rec.test_applied), []).append(letter)
    return {k: "".join(v) for k, v in seqs.items()}


def test_policy_trace_invariants_200_flows():
    import re

    p1 = _simulate(POLICY_ALWAYS, 200, seed=11)
    assert all(r.outcome != "skipped" for r in p1.records())

    p2 = _simulate(POLICY_ONCE, 200, seed=12)
    for seq in _outcome_strings(p2).values():
        assert len(seq) - seq.count("k") <= 1

    p3 = _simulate(POLICY_UNTIL_VULNERABLE, 200, seed=13)
    for seq in _outcome_strings(p3).values():
        assert re.fullmatch(r"s*(vk*)?", seq), seq
