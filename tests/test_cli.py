import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mitmscan import cli
from mitmscan.cli import EXIT_OK, EXIT_USAGE, main
from mitmscan.profiles import ClientProfile

CORPUS = str(Path(__file__).resolve().parents[1] / "src" / "mitmscan" / "data" / "corpus")


@pytest.fixture(scope="module")
def scan_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("scan")
    code = main(
        [
            "scan",
            "--out", str(out),
            "--seed", "7",
            "--freeze-time",
            "--strategy", "scripted",
            "--policy", "always",
            "--grace", "0.5",
        ]
    )
    assert code == EXIT_OK
    return out


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


def test_invalid_config_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n_steps": 0}')
    assert main(["scan", "--config", str(bad), "--out", str(tmp_path / "o")]) == EXIT_USAGE
    assert main(["scan", "--config", str(tmp_path / "missing.json")]) == EXIT_USAGE
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{oops")
    assert main(["scan", "--config", str(notjson)]) == EXIT_USAGE


def test_empty_allowlist_yields_zero_flows(tmp_path):
    conf = tmp_path / "conf.json"
    conf.write_text('{"allowlist": []}')
    out = tmp_path / "out"
    assert main(["scan", "--config", str(conf), "--out", str(out), "--strategy",
                 "scripted", "--freeze-time"]) == EXIT_OK
    for test in ("T1", "T2", "T3"):
        assert (out / f"ledger_{test}.jsonl").read_text() == ""


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
        "profile": ClientProfile().as_dict(),
    }]))
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING):
        assert main(["scan", "--fleet", str(fleet_path), "--strategy", "external_llm",
                     "--steps", "2", "--grace", "0.2", "--freeze-time",
                     "--out", str(out)]) == EXIT_OK
    assert len(prompts) == 6  # 2 steps x 3 tests
    assert "choosing randomly" not in caplog.text
    for test in ("T1", "T2", "T3"):
        rows = [json.loads(line) for line in (out / f"ledger_{test}.jsonl").read_text().splitlines()]
        assert [r["fqdn"] for r in rows] == ["a.example.com"] * 4


def test_locate_command(scan_dir, tmp_path):
    out = tmp_path / "locate.json"
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
    out = tmp_path / "classify.json"
    assert main(["classify", "--corpus", CORPUS, "--out", str(out)]) == EXIT_OK
    report = json.loads(out.read_text())
    assert report["backend"] == "rule"
    assert report["evaluation"]["All Categories"]["f1"] == 1.0
    assert main(["classify", "--corpus", str(tmp_path)]) == EXIT_USAGE


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


def test_report_with_missing_classification_exits_2(scan_dir, tmp_path):
    args = ["report", "--scan", str(scan_dir), "--out", str(tmp_path / "rep")]
    missing = str(tmp_path / "missing.json")
    assert main(args + ["--classification", missing]) == EXIT_USAGE
    classification = tmp_path / "classify.json"
    assert main(["classify", "--corpus", CORPUS, "--out", str(classification)]) == EXIT_OK
    assert main(args + ["--classification", str(classification)]) == EXIT_OK
    report = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert report["classification"] == json.loads(classification.read_text())


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


def test_import_loads_no_llm_backend_module():
    """Only the LLM backends need HTTP and threads; importing the CLI loads neither."""
    modules = ["urllib.request", "http.client", "email.message", "concurrent.futures"]
    code = (
        "import sys, mitmscan.cli; "
        f"print([m for m in {modules!r} if m in sys.modules])"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
