"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import datetime
import filecmp
import random
import re
import time
from fractions import Fraction
from pathlib import Path

from mitmscan import cli, metrics
from mitmscan.appsim import EchoServer, RoutingTable, ScanConfig, execute_session
from mitmscan.certforge import CertConfig, TrustStore, issue_leaf, make_root, verify_chain
from mitmscan.classifier import classify_rule, load_corpus
from mitmscan.engine import MitmEngine
from mitmscan.fleet import demo_fleet, expected_truth_table
from mitmscan.flowledger import (
    POLICY_ALWAYS,
    POLICY_ONCE,
    POLICY_UNTIL_VULNERABLE,
    DedupKey,
    FlowLedger,
    FlowRecord,
)
from mitmscan.locator import ValidationEvent, correlate, coverage
from mitmscan.taxonomy import validate_labels

CORPUS_DIR = Path(__file__).resolve().parents[1] / "src" / "mitmscan" / "data" / "corpus"

CANONICAL_SNIPPETS = {
    "TrustAllReturn.java": {"T1"},
    "ValidityOnlyTrust.java": {"T2-A"},
    "NullGuardTrust.java": {"T2-B"},
    "SelfVerifyLoopTrust.java": {"T2-D"},
    "LiteralHostVerifier.java": {"H2-A"},
    "PrimaryErrorWebClient.java": {"W2-B"},
    "ConfigGateWebClient.java": {"W2-C"},
    "DelegatingVerifier.java": {"H0"},
    "MainApplication.java": {"H1"},
}


def _report(capsys, name, ok, detail=""):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def test_truth_table_conformance(material, capsys):
    started = time.monotonic()
    apps = demo_fleet(material)
    expected = expected_truth_table(apps, material)
    now = material.config.now
    mismatches = []
    total = 0
    for test in ("T1", "T2", "T3"):
        ledger = FlowLedger()
        with MitmEngine(material, test, POLICY_ALWAYS, ledger, grace_seconds=0.5) as engine:
            for app in apps:
                routing = RoutingTable(set(app.fqdns()))
                script = [a.label for a in app.screens["home"].actions]
                config = ScanConfig(
                    strategy="scripted", n_steps=len(script), policy=POLICY_ALWAYS, seed=7
                )
                execute_session(
                    app, config, routing, engine.address, None,
                    material.client_store, now, script=script,
                )
        for rec in ledger.records():
            total += 1
            want = expected[(rec.app_id, rec.fqdn, test, rec.channel)]
            if rec.outcome != want:
                mismatches.append((rec.app_id, test, rec.channel, rec.outcome, want))
    elapsed = time.monotonic() - started
    ok = not mismatches and elapsed < 180 and total >= 120
    _report(
        capsys,
        "truth-table conformance (20 profiles x T1/T2/T3)",
        ok,
        f"{total - len(mismatches)}/{total} flows agree, {elapsed:.1f}s",
    )


def test_retest_policy_ledgers(capsys):
    def simulate(policy, seed):
        rng = random.Random(seed)
        ledger = FlowLedger()
        for i in range(200):
            key = DedupKey(f"app.{rng.randint(0, 4)}", f"h{rng.randint(0, 4)}.example.com")
            test = rng.choice(("T1", "T2", "T3"))
            decision = ledger.decide_retest(key, policy, test)
            outcome = (
                "skipped" if decision == "skip"
                else ("vulnerable" if rng.random() < 0.3 else "secure")
            )
            ledger.record_flow(FlowRecord(
                app_id=key.app_id, fqdn=key.fqdn, ts_wall="2025-04-01T00:00:00+00:00",
                ts_mono=i, test_applied=test, outcome=outcome,
            ))
        return ledger

    def sequences(ledger):
        seqs = {}
        for rec in ledger.records():
            letter = {"vulnerable": "v", "secure": "s", "skipped": "k"}[rec.outcome]
            seqs.setdefault((DedupKey(rec.app_id, rec.fqdn), rec.test_applied), []).append(letter)
        return ["".join(v) for v in seqs.values()]

    p1_ok = all("k" not in s for s in sequences(simulate(POLICY_ALWAYS, 101)))
    p2_ok = all(
        len(s) - s.count("k") <= 1 for s in sequences(simulate(POLICY_ONCE, 102))
    )
    p3_ok = all(
        re.fullmatch(r"s*(vk*)?", s) for s in sequences(simulate(POLICY_UNTIL_VULNERABLE, 103))
    )
    _report(
        capsys,
        "retest-policy ledger invariants (200-flow traces, P1/P2/P3)",
        p1_ok and p2_ok and p3_ok,
        f"P1={p1_ok} P2={p2_ok} P3={p3_ok}",
    )


def test_routing_isolation(material, capsys):
    apps = demo_fleet(material)
    violations = 0
    with EchoServer() as echo:
        for trial in range(10):
            rng = random.Random(trial)
            allowed_apps = rng.sample(apps, k=rng.randint(1, 6))
            allowed_ids = {a.app_id for a in allowed_apps}
            allowed_hosts = {f for a in allowed_apps for f in a.fqdns()}
            routing = RoutingTable(allowed_hosts)
            ledger = FlowLedger()
            with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
                for app in rng.sample(apps, k=10):
                    script = [a.label for a in app.screens["home"].actions]
                    config = ScanConfig(
                        strategy="scripted", n_steps=len(script),
                        policy=POLICY_ALWAYS, seed=trial,
                    )
                    execute_session(
                        app, config, routing, engine.address, echo.address,
                        material.client_store, material.config.now, script=script,
                    )
                violations += len(engine.observed_app_ids - allowed_ids)
    _report(
        capsys,
        "routing isolation over 10 randomized fleets",
        violations == 0,
        f"{violations} non-allowlisted app ids at listener",
    )


def test_classifier_fidelity(capsys):
    corpus = dict(load_corpus(CORPUS_DIR))
    by_id = {s.snippet_id: (s, t) for s, t in corpus.items()}
    canonical_exact = 0
    for name, want in CANONICAL_SNIPPETS.items():
        snippet, truth = by_id[name]
        assert truth == want
        if classify_rule(snippet) == want:
            canonical_exact += 1
    exact = 0
    invariants_ok = True
    for snippet, truth in corpus.items():
        pred = classify_rule(snippet)
        try:
            validate_labels(pred, snippet.interface_kind)
        except Exception:
            invariants_ok = False
        if pred == truth:
            exact += 1
    rate = exact / len(corpus)
    ok = canonical_exact == 9 and rate >= 0.95 and invariants_ok and len(corpus) >= 40
    _report(
        capsys,
        "classifier fidelity (9 canonical snippets + extended corpus)",
        ok,
        f"canonical {canonical_exact}/9, corpus {exact}/{len(corpus)} ({rate:.0%})",
    )


def test_wildcard_correlation_and_coverage(capsys):
    vuln = [
        FlowRecord(app_id="app1", fqdn="a.example.com", ts_wall="2025-04-01T00:00:00+00:00",
                   ts_mono=0, test_applied="T1", outcome="vulnerable"),
        FlowRecord(app_id="app2", fqdn="c.example.com", ts_wall="2025-04-01T00:00:00+00:00",
                   ts_mono=1, test_applied="T1", outcome="vulnerable"),
    ]

    def event(eid, loc, verdict, mitm):
        return ValidationEvent(
            event_id=eid, app_id="app1", code_location=loc, interface_kind="trust_manager",
            verdict=verdict, mitm_active=mitm, ts=0.0,
            cert_cn="*.example.com",
        )

    passive_events = [
        event("ea", "pkg.CodeA.checkServerTrusted", "accepted", False),
        event("eb", "pkg.CodeB.checkServerTrusted", "accepted", False),
    ]
    passive_attr, _ = correlate(passive_events, vuln[:1])
    passive_ok = {a.code_location for a in passive_attr} == {
        "pkg.CodeA.checkServerTrusted", "pkg.CodeB.checkServerTrusted",
    }

    active_events = [
        event("ea", "pkg.CodeA.checkServerTrusted", "accepted", True),
        event("eb", "pkg.CodeB.checkServerTrusted", "rejected", True),
    ]
    active_attr, _ = correlate(active_events, vuln[:1])
    active_ok = [a.code_location for a in active_attr] == ["pkg.CodeA.checkServerTrusted"]

    cov = coverage(active_attr, vuln, ["app1", "app2"])
    cov_ok = (
        cov.fqdn_cov == Fraction(1, 2)
        and cov.flow_cov == Fraction(1, 2)
        and cov.app_all == Fraction(1, 2)
        and cov.app_one == Fraction(1, 2)
    )
    _report(
        capsys,
        "wildcard correlation: passive both, active Code A only, exact coverage",
        passive_ok and active_ok and cov_ok,
        f"passive={passive_ok} active={active_ok} coverage={cov_ok}",
    )


def test_metrics_oracle_equivalence(capsys):
    rng = random.Random(2024)
    tol = 1e-12
    failures = 0
    for case in range(1000):
        # detection / coverage rates vs brute-force set arithmetic
        universe_apps = [f"app{i}" for i in range(6)]
        universe_pairs = [(a, f"h{j}.com") for a in universe_apps for j in range(3)]
        a_det = frozenset(rng.sample(universe_apps, rng.randint(0, 6)))
        a_gt = frozenset(rng.sample(universe_apps, rng.randint(0, 6)))
        s_det = frozenset(rng.sample(universe_pairs, rng.randint(0, 8)))
        s_gt = frozenset(rng.sample(universe_pairs, rng.randint(0, 8)))
        rates = metrics.detection_rates(metrics.DetectionSets(a_det, a_gt, s_det, s_gt))
        want_r_app = len(a_det & a_gt) / len(a_gt) if a_gt else None
        want_novel = len(a_det - a_gt) / len(a_det) if a_det else None
        if rates["R_app"] != want_r_app or rates["R_app_novel"] != want_novel:
            failures += 1
        cov = metrics.coverage_rates(metrics.CoverageSets(s_det, s_gt, s_det, s_gt))
        want_cui = len(s_det & s_gt) / len(s_gt) if s_gt else None
        if cov["C_UI"] != want_cui:
            failures += 1

        # prevalence vs recount
        ledger = FlowLedger()
        rows = []
        for i in range(rng.randint(1, 12)):
            row = (
                f"app{rng.randint(0, 2)}",
                f"h{rng.randint(0, 2)}.com",
                rng.choice(("vulnerable", "secure", "inconclusive", "skipped")),
            )
            rows.append(row)
            ledger.record_flow(FlowRecord(
                app_id=row[0], fqdn=row[1], ts_wall="2025-04-01T00:00:00+00:00",
                ts_mono=i, test_applied="T1", outcome=row[2],
            ))
        stats = metrics.prevalence(ledger)
        live = [r for r in rows if r[2] != "skipped"]
        if live:
            apps = {r[0] for r in live}
            vuln_apps = {r[0] for r in live if r[2] == "vulnerable"}
            if abs(stats["fractions"]["apps"] - len(vuln_apps) / len(apps)) > tol:
                failures += 1
        elif stats["fractions"]["apps"] is not None:
            failures += 1

    _report(
        capsys,
        "metrics oracle equivalence (1000 randomized cases, tol 1e-12)",
        failures == 0,
        f"{failures} failures",
    )


def test_end_to_end_determinism(tmp_path, capsys):
    outputs = []
    for run in ("one", "two"):
        scan_out = tmp_path / f"scan_{run}"
        report_out = tmp_path / f"report_{run}"
        assert cli.main([
            "scan", "--out", str(scan_out), "--seed", "7", "--freeze-time",
            "--strategy", "scripted", "--policy", "always", "--grace", "0.5",
        ]) == 0
        assert cli.main([
            "report", "--scan", str(scan_out), "--out", str(report_out), "--freeze-time",
        ]) == 0
        outputs.append((scan_out, report_out))

    (scan1, rep1), (scan2, rep2) = outputs
    identical = True
    for d1, d2 in ((scan1, scan2), (rep1, rep2)):
        names = sorted(p.name for p in d1.iterdir())
        if names != sorted(p.name for p in d2.iterdir()):
            identical = False
            continue
        match, mismatch, errors = filecmp.cmpfiles(d1, d2, names, shallow=False)
        if mismatch or errors:
            identical = False
    _report(
        capsys,
        "end-to-end determinism (--seed 7 --freeze-time, byte-identical)",
        identical,
    )


def test_certificate_properties(capsys):
    rng = random.Random(77)
    failures = 0
    for case in range(100):
        cfg = CertConfig(seed=rng.randint(0, 10_000))
        ca = make_root(f"ca-{case}", config=cfg)
        decoy = make_root(f"decoy-{case}", config=cfg)
        in_store = rng.random() < 0.5
        store = TrustStore([ca] if in_store else [decoy])
        leaf = issue_leaf(ca, "p.example.com", ["p.example.com"], rng.randint(1, 60), cfg)
        now = cfg.now + datetime.timedelta(days=rng.randint(-40, 80))
        in_window = leaf.cert.not_valid_before_utc <= now <= leaf.cert.not_valid_after_utc
        if verify_chain([leaf.cert], store, now) != (in_store and in_window):
            failures += 1
    _report(
        capsys,
        "certificate verification iff issuer in store and time valid (100 cases)",
        failures == 0,
        f"{failures} failures",
    )
