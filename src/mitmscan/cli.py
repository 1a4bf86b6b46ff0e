"""Command line pipeline: scan, locate, classify, report."""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import appsim, classifier, fleet, locator, metrics, party
from .certforge import CertConfig, cert_dns_names
from .engine import MitmEngine, MitmMaterial, forge_for, wall_clock
from .flowledger import (
    POLICY_ALIASES,
    TESTS,
    FlowLedger,
    is_requestable,
    normalize_fqdn,
    read_ledger,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2


class ConfigError(Exception):
    """Invalid configuration or missing inputs; maps to exit code 2."""


def _read(load, path, what: str):
    """``load(path)``; a file that is missing or malformed is a ConfigError."""
    try:
        return load(path)
    except (OSError, ValueError, TypeError, KeyError) as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc


def _load_json(path):
    return json.loads(Path(path).read_text())


def _write_json(path: Path, data) -> None:
    """Write ``data`` to ``path`` as indented, key-sorted JSON, making its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


# -- scan ----------------------------------------------------------------------


def _scan_config(args) -> appsim.ScanConfig:
    """The ScanConfig of the scan flags; a flag left out keeps its field's default."""
    given = {
        "n_steps": args.steps,
        "t_wait": args.wait,
        "t_max": args.time_budget,
        "strategy": args.strategy,
        "policy": POLICY_ALIASES.get(args.policy),
        "seed": args.seed,
    }
    try:
        return appsim.ScanConfig(**{k: v for k, v in given.items() if v is not None})
    except ValueError as exc:
        raise ConfigError(f"invalid scan config: {exc}") from exc


def _event_for_flow(rec, material) -> locator.ValidationEvent:
    """Self-reported validation event mirroring what instrumentation would log."""
    common = dict(event_id=f"ev-{rec.test_applied}-{rec.ts_mono}", app_id=rec.app_id,
                  verdict="accepted" if rec.outcome == "vulnerable" else "rejected",
                  mitm_active=True, ts=float(rec.ts_mono))
    if rec.channel == "webview":
        return locator.ValidationEvent(
            code_location=f"{rec.app_id}.web.Client.onReceivedSslError",
            interface_kind="webview_client", hostname_param=rec.fqdn, **common,
        )
    names = cert_dns_names(forge_for(rec.test_applied, rec.fqdn, material).cert)
    return locator.ValidationEvent(
        code_location=f"{rec.app_id}.tls.Validator.checkServerTrusted",
        interface_kind="trust_manager", cert_cn=names[0], cert_sans=names[1:] or None, **common,
    )


def run_scan(
    config: appsim.ScanConfig,
    apps: list[appsim.SyntheticApp],
    allowlist: list[str] | None,
    out: Path,
    material: MitmMaterial,
    freeze_time: bool,
    llm=None,
) -> None:
    """Scan ``apps`` under T1, T2 and T3, and write the scan's files to ``out``.

    Only hosts in ``allowlist`` (default: every host of the fleet) reach the
    engines; a host no flow can request is a ConfigError. ``out`` gets one
    ledger per test, and ``events.jsonl``, ``fleet.json`` and
    ``scan_report.json`` built from the ledgers as ``read_ledger`` reads
    them, each written anew. A record of an app outside ``apps`` counts
    everywhere but in the per-app stats, and one warning names its app.
    """
    started = time.monotonic()
    if allowlist is None:
        allowlist = sorted({f for app in apps for f in app.fqdns()})
    bad_hosts = [h for h in allowlist if not is_requestable(h)]
    if bad_hosts:
        raise ConfigError(f"--allowlist hosts no flow can request: {bad_hosts}")
    mitm_hosts = {normalize_fqdn(h) for h in allowlist}
    out.mkdir(parents=True, exist_ok=True)
    per_app: dict[str, dict] = {
        app.app_id: {"steps": 0, "flows": 0, "partial": False, "vulnerable": {}}
        for app in apps
    }
    events: list[locator.ValidationEvent] = []
    entity_summaries = {}
    foreign: set[str] = set()
    for test in TESTS:
        ledger_path = out / f"ledger_{test}.jsonl"
        ledger = FlowLedger(ledger_path)
        with MitmEngine(material, test, config.policy, ledger, freeze_time=freeze_time) as engine:
            for app in apps:
                session = appsim.execute_session(
                    app, config, mitm_hosts, engine.address, material.client_store, llm=llm
                )
                stats = per_app[app.app_id]
                stats["steps"] += session.steps_taken
                stats["flows"] += len(session.flows)
                stats["partial"] = stats["partial"] or session.partial
        records = read_ledger(ledger_path)
        for rec in records:
            if rec.outcome != "skipped":
                events.append(_event_for_flow(rec, material))
            if rec.app_id not in per_app:
                foreign.add(rec.app_id)
            elif rec.outcome == "vulnerable":
                vuln = per_app[rec.app_id]["vulnerable"].setdefault(test, [])
                entry = {"fqdn": rec.fqdn, "channel": rec.channel}
                if entry not in vuln:
                    vuln.append(entry)
        entity_summaries[test] = metrics.entities(records)
    if foreign:
        log.warning("ledgers hold flows of apps outside the fleet: %s", sorted(foreign))

    locator.save_events(events, out / "events.jsonl")
    fleet.save_fleet(apps, out / "fleet.json")
    report = {
        "generated_at": wall_clock(freeze_time),
        "config": {**vars(config), "allowlist": allowlist},
        "apps": per_app,
        "entities": entity_summaries,
        "elapsed_seconds": 0.0 if freeze_time else round(time.monotonic() - started, 3),
    }
    _write_json(out / "scan_report.json", report)


def cmd_scan(args) -> int:
    config = _scan_config(args)
    llm = _llm_backend_from_env() if config.strategy == "external_llm" else None
    material = MitmMaterial.generate(CertConfig(seed=config.seed))
    if args.fleet:
        apps = _read(fleet.load_fleet, args.fleet, "fleet")
    else:
        apps = fleet.demo_fleet(material)
    run_scan(config, apps, args.allowlist, Path(args.out), material, args.freeze_time, llm)
    print(f"scan complete: {len(apps)} apps, reports in {args.out}")
    return EXIT_OK


# -- locate --------------------------------------------------------------------


def cmd_locate(args) -> int:
    events = _read(locator.load_events, args.events, "events")
    records = _read(read_ledger, args.ledger, "ledger")
    vulnerable = [r for r in records if r.outcome == "vulnerable"]
    attributions, unmatched = locator.correlate(events, vulnerable)
    report = {
        "attributions": [
            {
                "code_location": a.code_location,
                "match_mode": a.match_mode,
                "matched_flows": sorted(list(f) for f in a.matched_flows),
            }
            for a in sorted(attributions, key=lambda a: a.code_location)
        ],
        "unmatched_flows": sorted([list(f.identity) for f in unmatched]),
        "coverage": locator.coverage(attributions, vulnerable),
    }
    _write_json(Path(args.out), report)
    print(f"located {len(attributions)} code locations, {len(unmatched)} unmatched flows")
    return EXIT_OK


# -- classify --------------------------------------------------------------------


def _llm_backend_from_env():
    import urllib.request  # loads http.client and email; only this backend needs them

    endpoint = os.environ.get("MITMSCAN_LLM_ENDPOINT")
    model = os.environ.get("MITMSCAN_LLM_MODEL")
    if not endpoint or not model:
        raise ConfigError(
            "the llm backend needs MITMSCAN_LLM_ENDPOINT and MITMSCAN_LLM_MODEL"
        )
    api_key = os.environ.get("MITMSCAN_LLM_API_KEY", "")

    def backend(prompt: str) -> str:
        payload = json.dumps({"model": model, "prompt": prompt}).encode()
        req = urllib.request.Request(
            endpoint,
            data=payload,
            headers={
                "Content-Type": "application/json",
                "Authorization": f"Bearer {api_key}",
            },
        )
        with urllib.request.urlopen(req, timeout=60) as resp:
            return json.loads(resp.read())["completion"]

    return backend


def cmd_classify(args) -> int:
    corpus = classifier.dedup_by_class(_read(classifier.load_corpus, args.corpus, "corpus"))
    if args.backend == "llm":
        backend = _llm_backend_from_env()
        predictions = classifier.classify_llm_batch(
            [s for s, _ in corpus], backend, variant=args.variant
        )
    else:
        predictions = {s.snippet_id: classifier.classify_rule(s) for s, _ in corpus}
    truth = {s.snippet_id: labels for s, labels in corpus}
    evaluation = classifier.evaluate(predictions, truth)
    report = {
        "backend": args.backend,
        "predictions": {sid: sorted(labels) for sid, labels in sorted(predictions.items())},
        "evaluation": evaluation,
    }
    _write_json(Path(args.out), report)
    exact = sum(1 for sid in truth if predictions[sid] == truth[sid])
    print(f"classified {len(truth)} snippets, {exact} exact matches")
    return EXIT_OK


# -- report ----------------------------------------------------------------------


def cmd_report(args) -> int:
    scan_dir = Path(args.scan)
    prevalence_by_test = {
        test: metrics.prevalence(_read(read_ledger, scan_dir / f"ledger_{test}.jsonl", "ledger"))
        for test in TESTS
    }
    annotations = _read(party.load_annotations, args.annotations, "annotations")
    events = _read(locator.load_events, scan_dir / "events.jsonl", "events")

    report = {
        "generated_at": wall_clock(args.freeze_time),
        "prevalence": prevalence_by_test,
        "party_attribution": {"parties": party.attribute(events, annotations)},
        "cdf_files": ["cdf_per_app_ratio.csv"],
    }
    if args.classification:
        report["classification"] = _read(_load_json, args.classification, "classification")
    out = Path(args.out)
    _write_json(out / "report.json", report)
    ratios = [r for stats in prevalence_by_test.values() for r in stats["per_app_ratio"]["values"]]
    metrics.write_cdf_csv(metrics.cdf(ratios), out / "cdf_per_app_ratio.csv")
    print(f"report written to {out / 'report.json'}")
    return EXIT_OK


# -- entry point -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mitmscan",
        description="TLS interception vulnerability scanner for synthetic app fleets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="run the three interception tests over a fleet")
    scan.add_argument("--fleet", help="fleet definition JSON (default: built-in demo fleet)")
    scan.add_argument("--out", default="scan_out", help="output directory")
    scan.add_argument("--steps", type=int, help="exploration steps per app (N_steps)")
    scan.add_argument("--wait", type=float, help="settle seconds between actions (T_wait)")
    scan.add_argument("--time-budget", type=float, help="session time budget (T_max)")
    scan.add_argument("--strategy", choices=appsim.STRATEGIES)
    scan.add_argument("--policy", choices=sorted(POLICY_ALIASES))
    scan.add_argument("--seed", type=int)
    scan.add_argument("--allowlist", nargs="*", metavar="HOST",
                      help="hosts to intercept (default: every host of the fleet)")
    scan.add_argument("--freeze-time", action="store_true", help="pin report timestamps")
    scan.set_defaults(func=cmd_scan)

    locate = sub.add_parser("locate", help="correlate validation events with vulnerable flows")
    locate.add_argument("--events", required=True)
    locate.add_argument("--ledger", required=True)
    locate.add_argument("--out", default="locate_report.json")
    locate.set_defaults(func=cmd_locate)

    cls = sub.add_parser("classify", help="label validation code snippets")
    cls.add_argument("--corpus", required=True, help="snippet directory with manifest.json")
    cls.add_argument("--backend", choices=("rule", "llm"), default="rule")
    cls.add_argument("--variant", choices=("P1", "P2"), default="P2")
    cls.add_argument("--out", default="classify_report.json")
    cls.set_defaults(func=cmd_classify)

    rep = sub.add_parser("report", help="consolidate metrics and attribution")
    rep.add_argument("--scan", required=True, help="scan output directory")
    rep.add_argument("--classification", help="classify report to embed")
    rep.add_argument("--annotations", help="package annotation JSON (default: built-in)")
    rep.add_argument("--out", default="report_out")
    rep.add_argument("--freeze-time", action="store_true")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.WARNING)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # pragma: no cover - defensive catch-all
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
