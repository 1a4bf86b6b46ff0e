import dataclasses
import json
import logging
import os
import shutil
import socket
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

import pytest

from mitmscan import appsim, cli
from mitmscan.appsim import Action, FlowSpec, ScanConfig, SyntheticApp
from mitmscan.cli import EXIT_OK, EXIT_USAGE, main
from mitmscan.engine import MitmMaterial, forge_for
from mitmscan.fleet import demo_fleet
from mitmscan.flowledger import POLICY_ALWAYS, POLICY_UNTIL_VULNERABLE, TESTS, read_ledger
from mitmscan.locator import load_events
from mitmscan.profiles import ClientProfile

CORPUS = str(Path(__file__).resolve().parents[1] / "src" / "mitmscan" / "data" / "corpus")


SCAN = ["scan", "--seed", "7", "--freeze-time", "--strategy", "scripted", "--policy", "always"]


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    assert main(SCAN + ["--out", str(out)]) == EXIT_OK
    return out


def _files(directory):
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_scan_outputs(scan_dir):
    for name in ("ledger_T1.jsonl", "ledger_T2.jsonl", "ledger_T3.jsonl",
                 "events.jsonl", "fleet.json", "scan_report.json"):
        assert (scan_dir / name).exists()
    report = json.loads((scan_dir / "scan_report.json").read_text())
    assert report["generated_at"] == "2025-04-01T00:00:00+00:00"
    assert report["elapsed_seconds"] == 0.0
    assert len(report["apps"]) == 20


def test_scan_report_vulnerables_exist_in_ledger(scan_dir):
    report = json.loads((scan_dir / "scan_report.json").read_text())
    for test in ("T1", "T2", "T3"):
        ledger_rows = [
            json.loads(line)
            for line in (scan_dir / f"ledger_{test}.jsonl").read_text().splitlines()
        ]
        vulnerable = {
            (r["app_id"], r["fqdn"], r["channel"])
            for r in ledger_rows
            if r["outcome"] == "vulnerable"
        }
        for app_id, stats in report["apps"].items():
            for entry in stats["vulnerable"].get(test, []):
                assert (app_id, entry["fqdn"], entry["channel"]) in vulnerable


def test_scan_report_entities_match_recount(scan_dir):
    report = json.loads((scan_dir / "scan_report.json").read_text())
    for test in TESTS:
        rows = [json.loads(line)
                for line in (scan_dir / f"ledger_{test}.jsonl").read_text().splitlines()]
        assert report["entities"][test] == {
            "apps": len({r["app_id"] for r in rows}),
            "flows": len(rows),
            "fqdns": len({r["fqdn"] for r in rows}),
            "app_fqdns": len({(r["app_id"], r["fqdn"]) for r in rows}),
        }, test


def test_rescan_into_the_same_dir_writes_the_same_bytes(scan_dir, tmp_path):
    out = tmp_path / "scan"
    shutil.copytree(scan_dir, out)
    assert main(SCAN + ["--out", str(out)]) == EXIT_OK
    assert _files(out) == _files(scan_dir)


def test_trailing_dot_host_is_tested_under_its_normal_name(tmp_path):
    fleet_path = tmp_path / "fleet.json"
    fleet_path.write_text(json.dumps([{
        "app_id": "com.dot.app",
        "fqdns": ["A.Example.COM.", "b.example.com"],
        "profile": asdict(ClientProfile(trust_behavior="T1", hostname_behavior="H1")),
    }]))
    out = tmp_path / "out"
    assert main(["scan", "--fleet", str(fleet_path), "--strategy", "scripted", "--policy",
                 "always", "--freeze-time", "--out", str(out)]) == EXIT_OK
    report = json.loads((out / "scan_report.json").read_text())
    assert report["config"]["allowlist"] == ["a.example.com", "b.example.com"]
    for test in ("T1", "T2", "T3"):
        outcomes = {}
        for rec in read_ledger(out / f"ledger_{test}.jsonl"):
            outcomes.setdefault(rec.fqdn, {})[rec.channel] = rec.outcome
        assert set(outcomes["a.example.com"]) == {"native", "webview"}
        assert outcomes["a.example.com"] == outcomes["b.example.com"], test


def test_invalid_config_exits_2(tmp_path, capsys):
    # a setting out of its range, or an allowlist host no flow can request,
    # is refused before --out is made
    for i, flags in enumerate((["--steps", "0"], ["--wait", "-1"], ["--wait", "nan"],
                               ["--wait", "inf"], ["--time-budget", "-1"],
                               ["--time-budget", "0"], ["--allowlist", "bad_host", "*.x.com"])):
        out = tmp_path / f"out{i}"
        assert main(["scan", *flags, "--out", str(out)]) == EXIT_USAGE, flags
        assert not out.exists()
    # settings come from flags only: a config file is an unknown flag
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--config", str(tmp_path / "conf.json")])
    assert exc.value.code == EXIT_USAGE
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    # a bad --fleet is refused before --out is made: an app with no host, a
    # host that the engine would drop, hosts that are no list of names, an
    # app id that is no string, condition_params of the wrong type, a
    # condition_params key no behavior of the app reads, a pinning mode
    # without its pins, or one app id named twice
    def entry(**fields):
        return {"app_id": "com.bad.app", "fqdns": ["a.example.com"],
                "profile": asdict(ClientProfile()), **fields}

    def profile(**fields):
        return {**asdict(ClientProfile()), **fields}

    bad_fleets = []
    for name, entries in [
        ("no_hosts", [entry(fqdns=[])]),
        ("bad_host", [entry(fqdns=["bad_host.example"])]),
        ("wildcard", [entry(fqdns=["*.wild.example"])]),
        ("hosts_str", [entry(fqdns="abc")]),
        ("app_id_int", [entry(app_id=5)]),
        ("params_list", [entry(profile=profile(
            trust_behavior="T2C", hostname_behavior="H1", condition_params=[]))]),
        ("error_codes_int", [entry(profile=profile(
            webview_behavior="W2B", condition_params={"ignored_error_codes": 3}))]),
        ("allowlist_str", [entry(profile=profile(
            hostname_behavior="H2A", condition_params={"hostname_allowlist": "a.example.com"}))]),
        ("subject_typo", [entry(profile=profile(
            trust_behavior="T2C", condition_params={"expected_subjct": "a.example.com"}))]),
        ("foreign_key", [entry(profile=profile(condition_params={"user_accepts": True}))]),
        ("pin_root_typo", [entry(profile=profile(
            pinning="pin_root", condition_params={"pinned_fingerprint": ["00" * 32]}))]),
        ("pin_leaf_no_pins", [entry(profile=profile(pinning="pin_leaf"))]),
        ("app_id_twice", [entry(app_id="x", fqdns=["a.example.com"]),
                          entry(app_id="x", fqdns=["b.example.com"], profile=profile(
                              trust_behavior="T1", hostname_behavior="H1"))]),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(entries))
        bad_fleets.append(path)
    for fleet in (tmp_path / "missing_fleet.json", notjson, *bad_fleets):
        out = tmp_path / f"out_{fleet.stem}"
        assert main(["scan", "--fleet", str(fleet), "--out", str(out)]) == EXIT_USAGE
        assert not out.exists()
    assert "internal error" not in capsys.readouterr().err


def test_a_flow_of_an_app_outside_the_fleet_does_not_stop_the_scan(
    material, tmp_path, monkeypatch, caplog
):
    """A local client that names an app the fleet lacks gets its flows tested and
    recorded; the scan still runs all three tests and writes every file."""
    execute_session = appsim.execute_session

    def with_a_stranger(app, config, mitm_hosts, engine_addr, store, llm=None):
        if app.app_id == "com.fleet.t1":
            stranger = dataclasses.replace(app, app_id="evil.local")
            appsim.perform_flow(stranger, FlowSpec("t1.example.com"), engine_addr, store)
        return execute_session(app, config, mitm_hosts, engine_addr, store, llm=llm)

    monkeypatch.setattr(appsim, "execute_session", with_a_stranger)
    config = ScanConfig(strategy="scripted", policy=POLICY_ALWAYS, seed=7)
    with caplog.at_level(logging.WARNING, logger="mitmscan.cli"):
        cli.run_scan(config, demo_fleet(material), None, tmp_path, material, freeze_time=True)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "events.jsonl", "fleet.json", "ledger_T1.jsonl", "ledger_T2.jsonl", "ledger_T3.jsonl",
        "scan_report.json"]
    strangers = {test: [r.outcome for r in read_ledger(tmp_path / f"ledger_{test}.jsonl")
                        if r.app_id == "evil.local"] for test in TESTS}
    assert strangers == {"T1": ["vulnerable"], "T2": ["vulnerable"], "T3": ["vulnerable"]}
    assert sum('"evil.local"' in line
               for line in (tmp_path / "events.jsonl").read_text().splitlines()) == 3
    report = json.loads((tmp_path / "scan_report.json").read_text())
    assert "evil.local" not in report["apps"] and len(report["apps"]) == 20
    assert all(report["entities"][test]["apps"] == 21 for test in TESTS)
    warnings = [r.getMessage() for r in caplog.records if r.name == "mitmscan.cli"]
    assert warnings == ["ledgers hold flows of apps outside the fleet: ['evil.local']"]


def test_an_inconclusive_flow_writes_no_event(material, tmp_path, monkeypatch):
    """A client that reads ``test`` and closes says nothing of what its validation
    code decided: its flow is recorded inconclusive, and only the vulnerable and
    secure flows each write one event."""
    execute_session = appsim.execute_session

    def with_a_quitter(app, config, mitm_hosts, engine_addr, store, llm=None):
        if app.app_id == "com.fleet.t1":
            with socket.create_connection(engine_addr, timeout=5) as sock:
                preamble = {"app_id": app.app_id, "fqdn": "t1.example.com", "channel": "native"}
                sock.sendall(json.dumps(preamble).encode() + b"\n")
                assert sock.recv(5, socket.MSG_WAITALL) == b"test\n"
        return execute_session(app, config, mitm_hosts, engine_addr, store, llm=llm)

    monkeypatch.setattr(appsim, "execute_session", with_a_quitter)
    config = ScanConfig(strategy="scripted", policy=POLICY_ALWAYS, seed=7)
    cli.run_scan(config, demo_fleet(material), None, tmp_path, material, freeze_time=True)
    decided = set()
    for test in TESTS:
        records = read_ledger(tmp_path / f"ledger_{test}.jsonl")
        assert [r.outcome for r in records].count("inconclusive") == 1, test
        decided |= {f"ev-{test}-{r.ts_mono}" for r in records
                    if r.outcome in ("vulnerable", "secure")}
    event_ids = [e.event_id for e in load_events(tmp_path / "events.jsonl")]
    assert sorted(event_ids) == sorted(decided)


def test_hosts_sharing_a_first_label_are_each_scanned(tmp_path):
    """Each host's action has its own label, so the walk takes both."""
    fleet_path = tmp_path / "fleet.json"
    fleet_path.write_text(json.dumps([{
        "app_id": "com.two.api",
        "fqdns": ["api.a.example.com", "api.b.example.com"],
        "profile": asdict(ClientProfile()),
    }]))
    out = tmp_path / "out"
    assert main(["scan", "--fleet", str(fleet_path), "--strategy", "scripted", "--policy",
                 "always", "--freeze-time", "--out", str(out)]) == EXIT_OK
    for test in TESTS:
        hosts = sorted(rec.fqdn for rec in read_ledger(out / f"ledger_{test}.jsonl"))
        assert hosts == ["api.a.example.com"] * 2 + ["api.b.example.com"] * 2, test


def test_every_flow_of_a_host_too_long_for_a_cn_lands_once(tmp_path):
    """A host over the 64 characters a leaf's CN may hold is named in its SAN only,
    so each test records each of its flows once, as it does for a short host."""
    long_host = "api." + "a" * 60 + ".example"
    assert len(long_host) == 72
    fleet_path = tmp_path / "fleet.json"
    fleet_path.write_text(json.dumps([{
        "app_id": "com.long.host",
        "fqdns": [long_host, "b.example.com"],
        "profile": asdict(ClientProfile()),
    }]))
    out = tmp_path / "out"
    assert main(["scan", "--fleet", str(fleet_path), "--strategy", "scripted", "--policy",
                 "always", "--freeze-time", "--out", str(out)]) == EXIT_OK
    for test in TESTS:
        records = read_ledger(out / f"ledger_{test}.jsonl")
        outcomes = {(r.fqdn, r.channel): r.outcome for r in records}
        assert len(records) == len(outcomes) == 4, test
        for channel in ("native", "webview"):
            assert outcomes[long_host, channel] == outcomes["b.example.com", channel], test
        assert "inconclusive" not in outcomes.values(), test


def _deep_app():
    """Hosts up to two screens below the start screen, and a goto back to it.

    Every action requests its own host, so the ledger shows which were taken.
    """
    def action(label, goto=None):
        return Action(label=label, flows=(FlowSpec(f"{label}.example.com"),), goto=goto)

    screens = {
        "home": (action("h"), action("to-a", "A"), action("to-c", "C")),
        "A": (action("a"), action("to-b", "B")),
        "B": (action("b"), action("to-home", "home")),
        "C": (action("c"),),
    }
    return SyntheticApp(app_id="com.deep.app", profile=ClientProfile(), screens=screens,
                        start_screen="home")


def test_scripted_walk_takes_every_action_once(material, tmp_path):
    app = _deep_app()
    hosts = sorted(app.fqdns())
    # the walk ends by itself after 8 actions and 4 backs, under its cap of 20 steps
    walks = {}
    for strategy in ("scripted", "random"):
        config = ScanConfig(strategy=strategy, n_steps=20, policy=POLICY_ALWAYS, seed=7)
        out = tmp_path / strategy
        cli.run_scan(config, [app], None, out, material, freeze_time=True)
        walks[strategy] = [
            sorted(rec.fqdn for rec in read_ledger(out / f"ledger_{test}.jsonl"))
            for test in TESTS
        ]
    assert walks["scripted"] == [hosts] * len(TESTS)
    report = json.loads((tmp_path / "scripted" / "scan_report.json").read_text())
    assert report["apps"]["com.deep.app"]["steps"] == 12 * len(TESTS)
    assert all(set(hosts) - set(walk) for walk in walks["random"])


def test_skip_if_vulnerable_scan_skips_only_after_a_vulnerable_flow(context_loads, tmp_path):
    """Each skipped flow follows a vulnerable one of its (app, host, test), and the
    scan loads one server context per forged leaf it served, none for a skip."""
    material = MitmMaterial.generate()
    config = ScanConfig(strategy="scripted", policy=POLICY_UNTIL_VULNERABLE, seed=7)
    cli.run_scan(config, demo_fleet(material), None, tmp_path, material, freeze_time=True)
    served, skipped = set(), 0
    for test in TESTS:
        vulnerable = set()
        for rec in read_ledger(tmp_path / f"ledger_{test}.jsonl"):
            key = (rec.app_id, rec.fqdn)
            if rec.outcome == "skipped":
                assert key in vulnerable, (test, rec)
                assert rec.tls_version == "unknown"
                skipped += 1
                continue
            assert rec.outcome in ("vulnerable", "secure"), (test, rec)
            served.add(forge_for(test, rec.fqdn, material))
            if rec.outcome == "vulnerable":
                vulnerable.add(key)
    assert skipped > 0
    assert len(context_loads) == len(served)


def test_empty_allowlist_yields_zero_flows(tmp_path):
    out = tmp_path / "out"
    assert main(["scan", "--allowlist", "--out", str(out), "--strategy",
                 "scripted", "--freeze-time"]) == EXIT_OK
    for test in ("T1", "T2", "T3"):
        assert (out / f"ledger_{test}.jsonl").read_text() == ""


def test_allowlist_flag_scans_only_its_hosts(tmp_path):
    out = tmp_path / "out"
    assert main(["scan", "--allowlist", "T1.Example.COM", "--out", str(out), "--strategy",
                 "scripted", "--freeze-time"]) == EXIT_OK
    report = json.loads((out / "scan_report.json").read_text())
    assert report["config"]["allowlist"] == ["T1.Example.COM"]
    for test in TESTS:
        records = read_ledger(out / f"ledger_{test}.jsonl")
        assert {(r.app_id, r.fqdn) for r in records} == {("com.fleet.t1", "t1.example.com")}
        assert len(records) == 2  # its native and its webview flow


def test_external_llm_scan_without_config_exits_2(tmp_path, monkeypatch):
    monkeypatch.delenv("MITMSCAN_LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("MITMSCAN_LLM_MODEL", raising=False)
    out = tmp_path / "out"
    assert main(["scan", "--strategy", "external_llm", "--out", str(out)]) == EXIT_USAGE
    assert not out.exists()


def test_external_llm_backend_drives_scan(tmp_path, monkeypatch, caplog):
    prompts = []

    def backend(prompt):
        prompts.append(prompt)
        labels = prompt.split("Available actions: ", 1)[1].split(".\n", 1)[0].split(", ")
        return f"Thoughts: take the first one.\nAction: {labels[0]}"

    monkeypatch.setattr(cli, "_llm_backend_from_env", lambda: backend)
    fleet_path = tmp_path / "fleet.json"
    fleet_path.write_text(json.dumps([{
        "app_id": "com.llm.app",
        "fqdns": ["a.example.com", "b.example.com"],
        "profile": asdict(ClientProfile()),
    }]))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        assert main(["scan", "--fleet", str(fleet_path), "--strategy", "external_llm",
                     "--steps", "2", "--freeze-time",
                     "--out", str(out)]) == EXIT_OK
    assert len(prompts) == 6  # 2 steps x 3 tests
    assert "choosing randomly" not in caplog.text
    for test in ("T1", "T2", "T3"):
        rows = [json.loads(line) for line in (out / f"ledger_{test}.jsonl").read_text().splitlines()]
        assert [r["fqdn"] for r in rows] == ["a.example.com"] * 4


def test_locate_command(scan_dir, tmp_path):
    out = tmp_path / "new" / "locate.json"  # locate makes the directory of its --out
    code = main(
        [
            "locate",
            "--events", str(scan_dir / "events.jsonl"),
            "--ledger", str(scan_dir / "ledger_T1.jsonl"),
            "--out", str(out),
        ]
    )
    assert code == EXIT_OK
    report = json.loads(out.read_text())
    assert report["attributions"]
    assert report["coverage"]["flow_cov"] == 1.0
    assert main(["locate", "--events", "nope.jsonl", "--ledger", "x"]) == EXIT_USAGE


def test_classify_command(tmp_path):
    out = tmp_path / "new" / "classify.json"  # classify makes the directory of its --out
    assert main(["classify", "--corpus", CORPUS, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["backend"] == "rule"
    assert report["evaluation"]["All Categories"]["f1"] == 1.0
    assert main(["classify", "--corpus", str(tmp_path)]) == EXIT_USAGE


def test_malformed_corpus_exits_2(tmp_path, capsys):
    manifest = json.loads((Path(CORPUS) / "manifest.json").read_text())
    first = sorted(manifest)[0]
    no_labels = {**manifest, first: {k: v for k, v in manifest[first].items() if k != "labels"}}
    cases = {
        "no_labels": json.dumps(no_labels),
        "missing_snippet": json.dumps({**manifest, "Missing.java": manifest[first]}),
        "not_json": "{oops",
        "not_an_object": "[]",
        "labels_object": json.dumps({**manifest, first: {**manifest[first], "labels": {"H2-A": 1}}}),
        "labels_string": json.dumps({**manifest, first: {**manifest[first], "labels": "T1"}}),
        "focus_class_list": json.dumps(
            {**manifest, first: {**manifest[first], "focus_class": ["a.B"]}}),
        "focus_class_number": json.dumps(
            {**manifest, first: {**manifest[first], "focus_class": 5}}),
    }
    for name, text in cases.items():
        corpus = tmp_path / name
        shutil.copytree(CORPUS, corpus)
        (corpus / "manifest.json").write_text(text)
        out = tmp_path / f"{name}.json"
        assert main(["classify", "--corpus", str(corpus), "--out", str(out)]) == EXIT_USAGE, name
        assert not out.exists()
    assert "internal error" not in capsys.readouterr().err


def test_classify_llm_without_config_exits_2(tmp_path, monkeypatch):
    monkeypatch.delenv("MITMSCAN_LLM_ENDPOINT", raising=False)
    monkeypatch.delenv("MITMSCAN_LLM_MODEL", raising=False)
    assert main(["classify", "--corpus", CORPUS, "--backend", "llm",
                 "--out", str(tmp_path / "x.json")]) == EXIT_USAGE


def test_report_command(scan_dir, tmp_path):
    out = tmp_path / "rep"
    assert main(["report", "--scan", str(scan_dir), "--out", str(out), "--freeze-time"]) == EXIT_OK
    report = json.loads((out / "report.json").read_text())
    assert set(report["prevalence"]) == {"T1", "T2", "T3"}
    assert (out / "cdf_per_app_ratio.csv").exists()
    assert report["party_attribution"] is not None
    assert main(["report", "--scan", str(tmp_path / "missing"), "--out", str(out)]) == EXIT_USAGE


def test_report_on_a_scan_without_events_exits_2(scan_dir, tmp_path, capsys):
    scan = tmp_path / "scan"
    shutil.copytree(scan_dir, scan)
    (scan / "events.jsonl").unlink()
    out = tmp_path / "rep"
    assert main(["report", "--scan", str(scan), "--out", str(out)]) == EXIT_USAGE
    assert "events" in capsys.readouterr().err
    assert not out.exists()


def test_report_with_missing_classification_exits_2(scan_dir, tmp_path):
    args = ["report", "--scan", str(scan_dir), "--out", str(tmp_path / "rep")]
    missing = str(tmp_path / "missing.json")
    assert main(args + ["--classification", missing]) == EXIT_USAGE
    classification = tmp_path / "classify.json"
    classification.write_text("{oops")
    assert main(args + ["--classification", str(classification)]) == EXIT_USAGE
    assert not (tmp_path / "rep").exists()
    assert main(["classify", "--corpus", CORPUS, "--out", str(classification)]) == EXIT_OK
    assert main(args + ["--classification", str(classification)]) == EXIT_OK
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["classification"] == json.loads(classification.read_text())


def test_report_with_bad_annotations_exits_2(scan_dir, tmp_path, capsys):
    args = ["report", "--scan", str(scan_dir), "--out", str(tmp_path / "rep")]
    assert main(args + ["--annotations", str(tmp_path / "missing.json")]) == EXIT_USAGE
    no_library = tmp_path / "no_library.json"
    no_library.write_text('[{"prefix": "com.sdk", "is_third_party": true, "provider": "SdkCo"}]')
    assert main(args + ["--annotations", str(no_library)]) == EXIT_USAGE
    both_ways = tmp_path / "both_ways.json"
    both_ways.write_text('[{"prefix": "com.x", "is_third_party": false},'
                         ' {"prefix": "com.x", "is_third_party": true,'
                         '  "library_name": "X", "provider": "XCo"}]')
    assert main(args + ["--annotations", str(both_ways)]) == EXIT_USAGE
    wrong_types = [
        {"prefix": 5, "is_third_party": False},
        {"prefix": "com.x", "is_third_party": "false"},
        {"prefix": "com.x", "is_third_party": True, "library_name": ["X"], "provider": "XCo"},
        {"prefix": "com.x", "is_third_party": True, "library_name": "X", "provider": 1},
    ]
    for i, entry in enumerate(wrong_types):
        path = tmp_path / f"wrong_type_{i}.json"
        path.write_text(json.dumps([entry]))
        assert main(args + ["--annotations", str(path)]) == EXIT_USAGE, entry
    assert "internal error" not in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def _locate_and_report(scan, out):
    """Exit codes of ``locate`` on each ledger of ``scan``, then of ``report`` on it."""
    codes = [
        main(["locate", "--events", str(scan / "events.jsonl"),
              "--ledger", str(scan / f"ledger_{test}.jsonl"),
              "--out", str(out / f"locate_{test}.json")])
        for test in ("T1", "T2", "T3")
    ]
    return codes + [main(["report", "--scan", str(scan), "--out", str(out / "rep")])]


def test_locate_and_report_leave_the_scan_dir_as_it_was(scan_dir, tmp_path):
    scan = tmp_path / "scan"
    shutil.copytree(scan_dir, scan)
    torn = scan / "ledger_T1.jsonl"
    torn.write_bytes(torn.read_bytes() + b'{"app_id": "com.fleet.t')
    before = _files(scan)
    assert _locate_and_report(scan, tmp_path) == [EXIT_OK] * 4
    assert _files(scan) == before


def test_malformed_scan_inputs_exit_2(scan_dir, tmp_path, capsys):
    """A bad ledger fails its own locate and the report; bad events fail all four."""
    lines = (scan_dir / "ledger_T1.jsonl").read_text().splitlines(keepends=True)
    bad_channel = json.dumps({**json.loads(lines[1]), "channel": "browser"}) + "\n"
    fqdn_int = json.dumps({**json.loads(lines[1]), "fqdn": 5}) + "\n"
    events = (scan_dir / "events.jsonl").read_text()
    host_int = json.dumps(_event("com.x", "X.check", "accepted", hostname_param=5)) + "\n"
    active_str = json.dumps({**_event("com.x", "X.check", "accepted", cert_cn="x.example.com"),
                             "mitm_active": "false"}) + "\n"
    ledger_fails = [EXIT_USAGE, EXIT_OK, EXIT_OK, EXIT_USAGE]
    cases = [
        ("ledger_T1.jsonl", lines[0] + "{oops\n" + "".join(lines[1:]), ledger_fails),
        ("ledger_T1.jsonl", lines[0] + bad_channel + "".join(lines[2:]), ledger_fails),
        ("ledger_T1.jsonl", lines[0] + '{"app_id": "x"}\n' + "".join(lines[1:]), ledger_fails),
        ("ledger_T1.jsonl", "".join(lines) + lines[0], ledger_fails),
        ("ledger_T1.jsonl", lines[0] + fqdn_int + "".join(lines[2:]), ledger_fails),
        ("events.jsonl", "{oops\n" + events, [EXIT_USAGE] * 4),
        ("events.jsonl", host_int + events, [EXIT_USAGE] * 4),
        ("events.jsonl", active_str + events, [EXIT_USAGE] * 4),
    ]
    for i, (name, text, codes) in enumerate(cases):
        scan = tmp_path / f"scan{i}"
        shutil.copytree(scan_dir, scan)
        (scan / name).write_text(text)
        assert _locate_and_report(scan, tmp_path) == codes, (name, i)
    assert not (tmp_path / "rep").exists()  # report reads every input before it writes
    assert "internal error" not in capsys.readouterr().err


def _event(app_id, code_location, verdict, **names):
    kind = "webview_client" if "hostname_param" in names else "trust_manager"
    return {"event_id": f"{app_id}-{code_location}", "app_id": app_id,
            "code_location": code_location, "interface_kind": kind, "verdict": verdict,
            "mitm_active": True, "ts": 0.0, "hostname_param": None, "cert_cn": None,
            "cert_sans": None, **names}


def test_report_party_split_of_hand_written_events(tmp_path):
    """A location is one snippet, owned by the app that first accepted there."""
    jpush = "cn.jiguang.net.HttpsTrustManager.checkServerTrusted"
    events = [
        _event("com.app1", jpush, "accepted", cert_cn="push.example.com"),
        _event("com.app4", jpush, "accepted", cert_cn="api.app4.example.com"),
        _event("com.app2", "com.app2.net.Trust.checkServerTrusted", "accepted",
               cert_cn="api.app2.example.com", cert_sans=["cdn.app2.example.com"]),
        _event("com.app3", "com.app3.net.Strict.checkServerTrusted", "rejected",
               cert_cn="strict.app3.example.com"),
        _event("com.app1", "com.app1.web.Client.onReceivedSslError", "accepted",
               hostname_param="web.app1.example.com"),
    ]
    scan = tmp_path / "scan"
    scan.mkdir()
    for test in ("T1", "T2", "T3"):
        (scan / f"ledger_{test}.jsonl").touch()
    (scan / "events.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))
    out = tmp_path / "rep"
    assert main(["report", "--scan", str(scan), "--out", str(out), "--freeze-time"]) == EXIT_OK
    parties = json.loads((out / "report.json").read_text())["party_attribution"]["parties"]
    # Three snippets: the JPush location, owned by com.app1 (not com.app4),
    # with hosts push.example.com and api.app4.example.com; com.app2's own
    # location with api.app2.example.com (its SAN counts for nothing);
    # com.app1's webview client with web.app1.example.com. com.app3's
    # location accepted nothing. So all: 3 snippets, 2 apps, 4 hosts.
    assert parties == {
        "third_party": {"snippets": 1, "snippets_pct": 100.0 * 1 / 3,
                        "apps": 1, "apps_pct": 50.0,
                        "fqdns": 2, "fqdns_pct": 50.0},
        "app_developer": {"snippets": 2, "snippets_pct": 100.0 * 2 / 3,
                          "apps": 2, "apps_pct": 100.0,
                          "fqdns": 2, "fqdns_pct": 50.0},
    }


def test_report_prevalence_matches_recount(scan_dir, tmp_path):
    out = tmp_path / "rep2"
    main(["report", "--scan", str(scan_dir), "--out", str(out), "--freeze-time"])
    report = json.loads((out / "report.json").read_text())
    rows = [
        json.loads(line)
        for line in (scan_dir / "ledger_T1.jsonl").read_text().splitlines()
        if json.loads(line)["outcome"] != "skipped"
    ]
    apps = {r["app_id"] for r in rows}
    vuln_apps = {r["app_id"] for r in rows if r["outcome"] == "vulnerable"}
    assert report["prevalence"]["T1"]["fractions"]["apps"] == pytest.approx(
        len(vuln_apps) / len(apps)
    )


def _fresh_python(code: str) -> str:
    """What ``code`` prints in a fresh interpreter that imports this source tree."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout


def test_import_loads_no_llm_backend_module():
    """Only the LLM backends need HTTP and threads; importing the CLI loads neither."""
    modules = ["urllib.request", "http.client", "email.message", "concurrent.futures"]
    code = (
        "import sys, mitmscan.cli; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    assert _fresh_python(code).strip() == "[]"


def test_offline_commands_load_no_cryptography(scan_dir, tmp_path):
    """locate, report and classify forge and check no certificate, so a process that
    runs them never loads cryptography, even after the imports a scan's set-up makes."""
    argvs = [
        ["locate", "--events", str(scan_dir / "events.jsonl"),
         "--ledger", str(scan_dir / "ledger_T1.jsonl"), "--out", str(tmp_path / "locate.json")],
        ["report", "--scan", str(scan_dir), "--out", str(tmp_path / "report"), "--freeze-time"],
        ["classify", "--corpus", CORPUS, "--out", str(tmp_path / "classify.json")],
    ]
    code = (
        "import sys\n"
        "from mitmscan import cli, fleet, party\n"
        "from mitmscan.certforge import CertConfig\n"
        "from mitmscan.engine import MitmMaterial\n"
        f"codes = [cli.main(argv) for argv in {argvs!r}]\n"
        "print(codes, [m for m in sys.modules if m.partition('.')[0] == 'cryptography'])"
    )
    assert _fresh_python(code).splitlines()[-1] == "[0, 0, 0] []"  # after the commands' own lines
