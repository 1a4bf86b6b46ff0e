"""Checks of a workload's outputs against computations made apart from the program.

No check compares against a saved copy of earlier output. Each returns
error messages; an empty list means the outputs are correct. ``Counts``
carries the operations of one pass: flows intercepted, vulnerable flows
attributed and snippets classified, and how many attributions failed.
"""

from __future__ import annotations

import csv
import filecmp
import json
import socket
import ssl
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from cryptography.hazmat.primitives.serialization import Encoding

from expect import TESTS, name_matches, accepts, is_secure_profile

MAX_MESSAGES = 20
# OpenSSL's X509_V_FLAG_NO_CHECK_TIME: the lab chains are dated 2025.
NO_CHECK_TIME = 0x200000


@dataclass
class Counts:
    flows: int = 0
    vulnerable: int = 0
    snippets: int = 0
    wrong_channel: int = 0

    @property
    def attempted(self) -> int:
        return self.flows + self.vulnerable + self.snippets


class Errors(list):
    def add(self, message: str) -> None:
        if len(self) < MAX_MESSAGES:
            self.append(message)
        elif len(self) == MAX_MESSAGES:
            self.append("... further errors not shown")


def read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text().splitlines() if line.strip()]


def identical_outputs(first: Path, last: Path, errors: Errors) -> None:
    """Two passes with one seed write byte-identical files."""
    names_first = sorted(p.relative_to(first) for p in first.rglob("*") if p.is_file())
    names_last = sorted(p.relative_to(last) for p in last.rglob("*") if p.is_file())
    if names_first != names_last:
        errors.add(f"passes wrote different files: {names_first} vs {names_last}")
        return
    for name in names_first:
        if not filecmp.cmp(first / name, last / name, shallow=False):
            errors.add(f"{name} differs between {first.name} and {last.name}")


# -- scans ------------------------------------------------------------------


def scan_location(app_id: str, channel: str) -> str:
    """Where the scanned apps report their validation events."""
    if channel == "native":
        return f"{app_id}.tls.Validator.checkServerTrusted"
    return f"{app_id}.web.Client.onReceivedSslError"


def check_scan(
    records: dict[str, list[dict]],
    clients: list[list],
    apps: dict[str, dict],
    policy: str,
    root_fingerprints: dict[str, str],
    ssl_verdict: dict[tuple[str, str], bool],
    errors: Errors,
) -> None:
    """Ledgers against the clients' own decisions, the expectation table and OpenSSL."""
    if len(clients) % len(TESTS):
        errors.add(f"{len(clients)} client flows do not split over {len(TESTS)} tests")
        return
    size = len(clients) // len(TESTS)
    for i, test in enumerate(TESTS):
        made = clients[i * size:(i + 1) * size]
        ledger = records[test]
        if [(c[0], c[1], c[2]) for c in made] != [(r["app_id"], r["fqdn"], r["channel"]) for r in ledger]:
            errors.add(f"{test}: the ledger does not hold each client flow exactly once, in order")
            continue
        if len({(r["app_id"], r["fqdn"], r["ts_mono"]) for r in ledger}) != len(ledger):
            errors.add(f"{test}: duplicate flow identities")
        vulnerable_seen: set[tuple[str, str]] = set()
        hosts_seen: dict[str, set] = {a: set() for a in apps}
        for client, rec in zip(made, ledger):
            app_id, fqdn, channel, accepted, error = client
            key = (app_id, fqdn)
            hosts_seen[app_id].add(fqdn)
            where = f"{test} {app_id} {fqdn} {channel} #{rec['ts_mono']}"
            if error is not None:
                errors.add(f"{where}: client error {error}")
                continue
            if rec["test_applied"] != test:
                errors.add(f"{where}: recorded under {rec['test_applied']}")
            if rec["outcome"] == "skipped":
                if policy != "skip-if-vulnerable" or key not in vulnerable_seen:
                    errors.add(f"{where}: skipped without an earlier vulnerable flow")
                continue
            if key in vulnerable_seen and policy == "skip-if-vulnerable":
                errors.add(f"{where}: tested again after it was recorded vulnerable")
            if rec["outcome"] not in ("vulnerable", "secure"):
                errors.add(f"{where}: outcome {rec['outcome']}")
                continue
            vulnerable = rec["outcome"] == "vulnerable"
            if vulnerable:
                vulnerable_seen.add(key)
            if vulnerable != accepted:
                errors.add(f"{where}: outcome {rec['outcome']} but the client accepted={accepted}")
            profile = apps[app_id]["profile"]
            if vulnerable != accepts(profile, test, fqdn, channel, root_fingerprints):
                errors.add(f"{where}: outcome {rec['outcome']} disagrees with the expectation table")
            if is_secure_profile(profile) and vulnerable != ssl_verdict[(test, fqdn)]:
                errors.add(f"{where}: outcome {rec['outcome']} disagrees with OpenSSL")
        for app_id, seen in hosts_seen.items():
            if seen != set(apps[app_id]["fqdns"]):
                errors.add(f"{test} {app_id}: hosts reached {sorted(seen)} of {apps[app_id]['fqdns']}")


def ssl_verdicts(material, fqdns: list[str]) -> dict[tuple[str, str], bool]:
    """What an OpenSSL client (CERT_REQUIRED, check_hostname) decides per test and host.

    Each chain is the one a live engine serves in the handshake.
    """
    from mitmscan.engine import MitmEngine
    from mitmscan.flowledger import FlowLedger

    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.load_verify_locations(cadata="".join(
        root.self_signed_cert.public_bytes(Encoding.PEM).decode() for root in material.client_store
    ))
    ctx.verify_flags |= NO_CHECK_TIME
    verdicts = {}
    for test in TESTS:
        with MitmEngine(material, test, "P1_always", FlowLedger(), grace_seconds=0.2) as engine:
            for fqdn in fqdns:
                with socket.create_connection(engine.address, timeout=10) as raw:
                    preamble = {"app_id": "openssl.check", "fqdn": fqdn, "channel": "native"}
                    raw.sendall(json.dumps(preamble).encode() + b"\n")
                    reply = b""
                    while not reply.endswith(b"\n"):
                        chunk = raw.recv(65536)
                        if not chunk:
                            raise RuntimeError("engine closed before the handshake")
                        reply += chunk
                    try:
                        with ctx.wrap_socket(raw, server_hostname=fqdn):
                            verdicts[(test, fqdn)] = True
                    except ssl.SSLCertVerificationError:
                        verdicts[(test, fqdn)] = False
    return verdicts


# -- locate -------------------------------------------------------------------


def _links(event: dict, fqdn: str) -> bool:
    if event["hostname_param"] is not None:
        return event["hostname_param"].lower().rstrip(".") == fqdn
    return name_matches(fqdn, [event["cert_cn"] or "", *(event["cert_sans"] or [])])


def _kind_channel(event: dict) -> str:
    return "webview" if event["interface_kind"] == "webview_client" else "native"


def check_locate(
    records: dict[str, list[dict]],
    events: list[dict],
    reports: dict[str, dict],
    location,
    counts: Counts,
    errors: Errors,
) -> None:
    """Attributions and coverage against each flow's true code location.

    ``location(app_id, channel)`` is where that app's validation code on that
    channel logs events, or None when it logs none; a vulnerable flow's true
    attribution is that location. Attribution links a flow to the events of
    its app that name its host, and prefers accepting events seen under
    active interception. ``locator.correlate`` links events of both channels,
    so a flow also picks up the other channel's location when that location
    accepted a forged chain for the same host. A flow attributed that way is
    counted as a failed attribution; any other departure from the truth is
    an error.
    """
    by_app: dict[str, list[dict]] = {}
    for event in events:
        by_app.setdefault(event["app_id"], []).append(event)

    def choose(linked: list[dict]) -> set[str]:
        active = [e for e in linked if e["mitm_active"] and e["verdict"] == "accepted"]
        return {e["code_location"] for e in (active or linked)}

    for test in TESTS:
        report = reports[test]
        vulnerable = [r for r in records[test] if r["outcome"] == "vulnerable"]
        counts.vulnerable += len(vulnerable)
        got: dict[tuple, set[str]] = {}
        for attribution in report["attributions"]:
            for flow in attribution["matched_flows"]:
                got.setdefault(tuple(flow), set()).add(attribution["code_location"])
        truth: dict[tuple, set[str]] = {}
        for rec in vulnerable:
            ident = (rec["app_id"], rec["fqdn"], rec["ts_mono"])
            own = location(rec["app_id"], rec["channel"])
            truth[ident] = {own} if own else set()
            linked = [e for e in by_app.get(rec["app_id"], []) if _links(e, rec["fqdn"])]
            same_channel = choose([e for e in linked if _kind_channel(e) == rec["channel"]])
            if same_channel != truth[ident]:
                errors.add(f"{test} {ident}: the inputs attribute it to {sorted(same_channel)}, "
                           f"not to its own location {own}")
            attributed = got.get(ident, set())
            if attributed == truth[ident]:
                continue
            if attributed == choose(linked):
                counts.wrong_channel += 1
            else:
                errors.add(f"{test} {ident} {rec['channel']}: attributed to "
                           f"{sorted(attributed)}, expected {sorted(truth[ident])}")
        if set(got) - set(truth):
            errors.add(f"{test}: attributions name flows that are not vulnerable")
        unmatched = {tuple(f) for f in report["unmatched_flows"]}
        if unmatched != {i for i in truth if not got.get(i)}:
            errors.add(f"{test}: the unmatched flows are not the flows left unattributed")
        expected_cov = _coverage(vulnerable, truth, {r["app_id"] for r in records[test]})
        if report["coverage"] != expected_cov:
            errors.add(f"{test}: coverage {report['coverage']}, expected {expected_cov}")


def _coverage(vulnerable: list[dict], truth: dict, apps: set[str]) -> dict:
    def ratio(num, den):
        return None if den == 0 else float(Fraction(num, den))

    located = {i for i, locs in truth.items() if locs}
    pairs = {(r["app_id"], r["fqdn"]) for r in vulnerable}
    located_pairs = {(a, f) for a, f, _ in located}
    by_app: dict[str, list[bool]] = {}
    for r in vulnerable:
        if r["app_id"] in apps:
            by_app.setdefault(r["app_id"], []).append((r["app_id"], r["fqdn"], r["ts_mono"]) in located)
    return {
        "fqdn_cov": ratio(len(located_pairs), len(pairs)),
        "flow_cov": ratio(len(located), len(vulnerable)),
        "app_all": ratio(sum(all(v) for v in by_app.values()), len(by_app)),
        "app_one": ratio(sum(any(v) for v in by_app.values()), len(by_app)),
    }


# -- report -------------------------------------------------------------------


def _rate(num: int, den: int) -> float | None:
    return None if den == 0 else num / den


def check_report(
    records: dict[str, list[dict]],
    events: list[dict],
    annotations: list[dict],
    report_dir: Path,
    errors: Errors,
) -> None:
    """Prevalence, the per-app ratio CDF and the party split, from their definitions."""
    report = json.loads((report_dir / "report.json").read_text())
    all_ratios = []
    for test in TESTS:
        tested = [r for r in records[test] if r["outcome"] != "skipped"]
        vuln = [r for r in tested if r["outcome"] == "vulnerable"]
        pairs = {(r["app_id"], r["fqdn"]) for r in tested}
        vuln_pairs = {(r["app_id"], r["fqdn"]) for r in vuln}
        fractions = {
            "apps": _rate(len({a for a, _ in vuln_pairs}), len({a for a, _ in pairs})),
            "flows": _rate(len(vuln), len(tested)),
            "fqdns": _rate(len({f for _, f in vuln_pairs}), len({f for _, f in pairs})),
            "app_fqdns": _rate(len(vuln_pairs), len(pairs)),
        }
        hosts: dict[str, list[int]] = {}
        for app, fqdn in pairs:
            hosts.setdefault(app, [0, 0])[1] += 1
        for app, fqdn in vuln_pairs:
            hosts[app][0] += 1
        ratios = [hosts[a][0] / hosts[a][1] for a in sorted(hosts)]
        all_ratios.extend(ratios)
        got = report["prevalence"][test]
        if got["fractions"] != fractions:
            errors.add(f"{test}: prevalence {got['fractions']}, expected {fractions}")
        if got["per_app_ratio"]["values"] != ratios:
            errors.add(f"{test}: per-app ratios differ from the ledger's")

    with (report_dir / "cdf_per_app_ratio.csv").open() as fh:
        points = [(float(row["x"]), float(row["F"])) for row in csv.DictReader(fh)]
    xs, fs = [p[0] for p in points], [p[1] for p in points]
    if not points or fs[-1] != 1.0:
        errors.add("the CDF does not end at 1.0")
    if any(b < a for a, b in zip(fs, fs[1:])) or any(b <= a for a, b in zip(xs, xs[1:])):
        errors.add("the CDF is not non-decreasing")
    n = len(all_ratios)
    if xs != sorted(set(all_ratios)) or any(
        abs(f - sum(v <= x for v in all_ratios) / n) > 1e-12 for x, f in points
    ):
        errors.add("the CDF does not match the per-app ratios")

    expected_party = _party_split(events, annotations)
    if report["party_attribution"]["parties"] != expected_party:
        errors.add(f"party split {report['party_attribution']['parties']}, expected {expected_party}")


def _party_split(events: list[dict], annotations: list[dict]) -> dict:
    """Accepting code locations split by the longest annotated package prefix."""
    refs: dict[str, tuple[str, set]] = {}
    for e in events:
        if e["verdict"] != "accepted":
            continue
        fqdn = e["hostname_param"] or e["cert_cn"] or ""
        app, fqdns = refs.setdefault(e["code_location"], (e["app_id"], set()))
        if fqdn:
            fqdns.add(fqdn)
    parties = {"app_developer": ([], set(), set()), "third_party": ([], set(), set())}
    for loc, (app, fqdns) in refs.items():
        package = ".".join(loc.split(".")[:-2])
        best = max(
            (a for a in annotations if package == a["prefix"] or package.startswith(a["prefix"] + ".")),
            key=lambda a: len(a["prefix"]),
            default=None,
        )
        side = parties["third_party" if best and best["is_third_party"] else "app_developer"]
        side[0].append(loc)
        side[1].add(app)
        side[2].update(fqdns)
    totals = (len(refs), len({a for a, _ in refs.values()}), len(set().union(*(f for _, f in refs.values()))))
    split = {}
    for name, sets in parties.items():
        entry = {}
        for dim, values, total in zip(("snippets", "apps", "fqdns"), sets, totals):
            entry[dim] = len(values)
            entry[f"{dim}_pct"] = 100.0 * len(values) / total if total else None
        split[name] = entry
    return split


# -- classify -----------------------------------------------------------------


def check_classify(classify_path: Path, corpus: Path, originals: dict | None, counts: Counts,
                   errors: Errors) -> None:
    """Every prediction equals the manifest; every renamed copy gets its original's labels."""
    predictions = json.loads(classify_path.read_text())["predictions"]
    manifest = json.loads((corpus / "manifest.json").read_text())
    counts.snippets += len(predictions)
    if set(predictions) != set(manifest):
        errors.add(f"classified {len(predictions)} snippets of {len(manifest)}")
        return
    for sid, meta in manifest.items():
        if predictions[sid] != sorted(meta["labels"]):
            errors.add(f"{sid}: predicted {predictions[sid]}, manifest says {sorted(meta['labels'])}")
    for sid, (original, labels) in (originals or {}).items():
        if predictions[sid] != predictions[original] or predictions[sid] != labels:
            errors.add(f"{sid}: predicted {predictions[sid]}, its original {original} has {labels}")

