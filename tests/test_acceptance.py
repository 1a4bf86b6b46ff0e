"""End-to-end acceptance checks. Each test prints one PASS/FAIL line."""

import datetime
import filecmp
import hashlib
import random
import re
import time
from dataclasses import asdict
from pathlib import Path

from mitmscan import cli, metrics
from mitmscan.appsim import ScanConfig
from mitmscan.certforge import DEFAULT_NOW, CertConfig, issue_leaf, make_root, verify_chain
from mitmscan.classifier import classify_rule, load_corpus
from mitmscan.fleet import demo_fleet
from mitmscan.flowledger import (
    POLICY_ALWAYS,
    POLICY_ONCE,
    POLICY_UNTIL_VULNERABLE,
    TESTS,
    FlowLedger,
    FlowRecord,
    read_ledger,
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


def test_truth_table_conformance(material, expect, root_fingerprints, tmp_path, capsys):
    """Every ledger record holds the outcome perfbench's table, written apart from the
    program's oracle, predicts for its app's profile."""
    started = time.monotonic()
    apps = demo_fleet(material)
    profiles = {app.app_id: asdict(app.profile) for app in apps}
    config = ScanConfig(strategy="scripted", policy=POLICY_ALWAYS, seed=7)
    cli.run_scan(config, apps, None, tmp_path, material, freeze_time=True)
    mismatches = []
    total = 0
    for test in TESTS:
        for rec in read_ledger(tmp_path / f"ledger_{test}.jsonl"):
            total += 1
            accepts = expect.accepts(
                profiles[rec.app_id], test, rec.fqdn, rec.channel, root_fingerprints
            )
            want = "vulnerable" if accepts else "secure"
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


def test_retest_policy_ledgers(tmp_path, capsys):
    def simulate(policy, seed):
        rng = random.Random(seed)
        path = tmp_path / f"{policy}.jsonl"
        ledger = FlowLedger(path)
        for _ in range(200):
            app, host = f"app.{rng.randint(0, 4)}", f"h{rng.randint(0, 4)}.example.com"
            test = rng.choice(("T1", "T2", "T3"))
            decision = ledger.decide_retest(app, host, policy, test)
            outcome = (
                "skipped" if decision == "skip"
                else ("vulnerable" if rng.random() < 0.3 else "secure")
            )
            ledger.record_flow(
                app_id=app, fqdn=host, ts_wall="2025-04-01T00:00:00+00:00",
                test_applied=test, outcome=outcome,
            )
        return read_ledger(path)

    def sequences(records):
        seqs = {}
        for rec in records:
            letter = {"vulnerable": "v", "secure": "s", "skipped": "k"}[rec.outcome]
            seqs.setdefault((rec.app_id, rec.fqdn, rec.test_applied), []).append(letter)
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


def test_routing_isolation(material, tmp_path, capsys):
    """Only allowlisted hosts reach the engines, whatever the case of the allowlist."""
    apps = demo_fleet(material)
    leaked = missed = 0
    for trial in range(10):
        rng = random.Random(trial)
        allowed_apps = rng.sample(apps, k=rng.randint(1, 6))
        allowed_ids = {a.app_id for a in allowed_apps}
        hosts = sorted({f for a in allowed_apps for f in a.fqdns()})
        allowlist = [h.upper() if i % 2 else h for i, h in enumerate(hosts)]
        scanned = rng.sample(apps, k=10)
        out = tmp_path / str(trial)
        config = ScanConfig(strategy="scripted", policy=POLICY_ALWAYS, seed=trial)
        cli.run_scan(config, scanned, allowlist, out, material, freeze_time=True)
        want = {(a.app_id, f) for a in scanned if a.app_id in allowed_ids for f in a.fqdns()}
        for test in TESTS:
            records = read_ledger(out / f"ledger_{test}.jsonl")
            leaked += sum(1 for r in records if r.app_id not in allowed_ids)
            missed += len(want - {(r.app_id, r.fqdn) for r in records})
    _report(
        capsys,
        "routing isolation over 10 randomized fleets",
        leaked == 0 and missed == 0,
        f"{leaked} ledger records of non-allowlisted apps, {missed} allowlisted hosts unreached",
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

    cov_ok = coverage(active_attr, vuln) == {
        "fqdn_cov": 0.5, "flow_cov": 0.5, "app_all": 0.5, "app_one": 0.5
    }
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
        rates = metrics.detection_rates(a_det=a_det, a_gt=a_gt, s_det=s_det, s_gt=s_gt)
        want_r_app = len(a_det & a_gt) / len(a_gt) if a_gt else None
        want_novel = len(a_det - a_gt) / len(a_det) if a_det else None
        if rates["R_app"] != want_r_app or rates["R_app_novel"] != want_novel:
            failures += 1
        cov = metrics.coverage_rates(e_auto=s_det, e_manual=s_gt, s_auto=s_det, s_manual=s_gt)
        want_cui = len(s_det & s_gt) / len(s_gt) if s_gt else None
        if cov["C_UI"] != want_cui:
            failures += 1

        # prevalence vs recount
        rows = [
            (
                f"app{rng.randint(0, 2)}",
                f"h{rng.randint(0, 2)}.com",
                rng.choice(("vulnerable", "secure", "inconclusive", "skipped")),
            )
            for _ in range(rng.randint(1, 12))
        ]
        stats = metrics.prevalence([
            FlowRecord(app_id=app, fqdn=fqdn, ts_wall="2025-04-01T00:00:00+00:00", ts_mono=i,
                       test_applied="T1", outcome=outcome)
            for i, (app, fqdn, outcome) in enumerate(rows)
        ])
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


# sha256 of each file the --seed 7 --freeze-time scan and its report write. A
# change that alters these bytes on purpose updates the digests and says why.
FROZEN_SHA256 = {
    "scan/scan_report.json": "e76b49093a9f1e20df12cdb953761386af91bbe6ffdb3b8072d35e64b7254889",
    "scan/ledger_T1.jsonl": "b028194a3b5c298e248af0c1f9ce17b0076b1bd0581888a18bce26af761fef60",
    "scan/ledger_T2.jsonl": "4cb194031d6ddbcb52aa15960d880cba6268a43eaad98100cba7723376dc466b",
    "scan/ledger_T3.jsonl": "d159a4551898511fe3a8ab6e987db975653c10cfa009de57fee787c3086c9288",
    "scan/events.jsonl": "1d61905a158742aa4b71a83f32a00f8aa9c61d4c69b6d2d47ef960650b4fa7ac",
    "scan/fleet.json": "7e848aafac32fd4df89906e087be63f57f9db0b84a3aa0d143698bf078904201",
    "report/report.json": "5594e730e7c9842e0e562c765e110ab1fb2070bd626a53e88db1ae671650c4c2",
    "report/cdf_per_app_ratio.csv": "f5e27fc0c25963cbd5e3888aa0382f2eaa7942c6c59f4788be114fc25105d762",
}


def test_end_to_end_determinism(tmp_path, capsys):
    outputs = []
    for run in ("one", "two"):
        scan_out = tmp_path / run / "scan"
        report_out = tmp_path / run / "report"
        assert cli.main([
            "scan", "--out", str(scan_out), "--seed", "7", "--freeze-time",
            "--strategy", "scripted", "--policy", "always",
        ]) == 0
        assert cli.main([
            "report", "--scan", str(scan_out), "--out", str(report_out), "--freeze-time",
        ]) == 0
        outputs.append((scan_out, report_out))

    (scan1, rep1), (scan2, rep2) = outputs
    first = tmp_path / "one"
    changed = sorted(
        name for name, digest in FROZEN_SHA256.items()
        if not (first / name).is_file()
        or hashlib.sha256((first / name).read_bytes()).hexdigest() != digest
    )
    identical = not changed
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
        f"sha256 changed: {', '.join(changed)}" if changed else "",
    )


def test_certificate_properties(capsys):
    rng = random.Random(77)
    failures = 0
    for case in range(100):
        cfg = CertConfig(seed=rng.randint(0, 10_000))
        ca = make_root(f"ca-{case}", config=cfg)
        decoy = make_root(f"decoy-{case}", config=cfg)
        in_store = rng.random() < 0.5
        store = (ca,) if in_store else (decoy,)
        leaf = issue_leaf(ca, "p.example.com", ["p.example.com"], rng.randint(1, 60), cfg)
        now = DEFAULT_NOW + datetime.timedelta(days=rng.randint(-40, 80))
        in_window = leaf.cert.not_valid_before_utc <= now <= leaf.cert.not_valid_after_utc
        if verify_chain([leaf.cert], store, now) != (in_store and in_window):
            failures += 1
    _report(
        capsys,
        "certificate verification iff issuer in store and time valid (100 cases)",
        failures == 0,
        f"{failures} failures",
    )
