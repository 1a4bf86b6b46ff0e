"""Seeded inputs for the ``revisit`` and ``analyze`` workloads.

Both generators fix the make-up of their inputs: how many apps, hosts, flows
and events there are, and which accept/reject pattern (signature) each app
has. The seed chooses everything else: app ids, host names, the profile
that realises each signature (sampled over the whole behaviour product),
which code locations lie in a library (how many is fixed), wildcard names
and the order of apps.
Because the make-up is fixed, every seed gives the same number of
operations and the same number of wrong-channel attributions (see README).
"""

from __future__ import annotations

import functools
import hashlib
import json
import random
from pathlib import Path

from expect import (
    ATTACKER_NAME,
    CHANNELS,
    SECURE_PROFILE,
    TESTS,
    accepts,
    profile_space,
    signature,
)

WORDS = ("maps", "pay", "chat", "news", "shop", "ride", "bank", "fit", "cloud",
         "photo", "mail", "game", "music", "note", "trip", "food")
LABELS = ("api", "cdn", "auth", "img", "push", "stats", "m", "ws")

# Signatures: accept per (channel, test), native T1..T3 then webview T1..T3.
ALL = (1, 1, 1, 1, 1, 1)
TRUST_FLAW = (1, 0, 1, 0, 0, 1)
HOST_FLAW = (0, 1, 1, 0, 0, 1)
WEB_FLAW = (0, 0, 1, 1, 1, 1)
PINNED = (0, 0, 0, 0, 0, 0)
W2B_UNTRUSTED = (0, 0, 1, 1, 0, 1)
NATIVE_FLAWS = (1, 1, 1, 0, 0, 1)
NATIVE_REJECTS = (0, 0, 0, 0, 0, 1)
W2B_MISMATCH = (0, 0, 1, 0, 1, 1)
SECURE = (0, 0, 1, 0, 0, 1)

# revisit: (signature, hosts) per app; the first app has the plain secure profile.
REVISIT_DESIGN = (
    (SECURE, 2), (ALL, 1), (TRUST_FLAW, 3), (HOST_FLAW, 2), (WEB_FLAW, 2),
    (PINNED, 1), (W2B_UNTRUSTED, 3), (NATIVE_FLAWS, 2), (NATIVE_REJECTS, 1),
    (W2B_MISMATCH, 2),
)
REVISIT_STEPS = 5

# analyze: (signature, hosts, events logged, passive wildcard events, apps per
# cycle). Apps that log no validation events stand for code the
# instrumentation missed (native code, untriggered paths): their vulnerable
# flows stay unmatched. The mix follows the paper's two traffic figures:
# 22.42% of the apps are vulnerable (11 of the 49 apps of a cycle, 22.45%,
# accept a T1 or T2 chain), and 41% of the vulnerabilities lie in third-party
# libraries (THIRD_PARTY_SHARE of the accepting code locations). Every
# signature keeps at least one row, so that every check sees it.
ANALYZE_DESIGN = (
    (ALL, 1, True, 1, 1), (TRUST_FLAW, 2, True, 0, 1), (TRUST_FLAW, 1, False, 0, 1),
    (HOST_FLAW, 1, True, 1, 1), (HOST_FLAW, 1, True, 0, 1), (WEB_FLAW, 1, True, 0, 1),
    (WEB_FLAW, 1, True, 1, 1), (W2B_UNTRUSTED, 1, True, 1, 1), (NATIVE_FLAWS, 1, False, 0, 1),
    (NATIVE_FLAWS, 1, True, 0, 1), (W2B_MISMATCH, 1, True, 0, 1),
    (SECURE, 1, True, 0, 20), (SECURE, 1, True, 1, 6), (SECURE, 1, False, 0, 4),
    (PINNED, 1, True, 0, 4), (NATIVE_REJECTS, 2, True, 0, 4),
)
ANALYZE_CYCLES = 14
THIRD_PARTY_SHARE = 0.41
CORPUS_COPIES = 40


def _pin(rng: random.Random) -> str:
    return hashlib.sha256(rng.randbytes(16)).hexdigest()


_PLACEHOLDER_HOSTS = ["host.placeholder.example"]


@functools.cache
def _profiles_by_signature() -> dict[tuple, list[dict]]:
    classes: dict[tuple, list[dict]] = {}
    for profile in profile_space(_PLACEHOLDER_HOSTS, "0" * 64):
        key = tuple(int(b) for b in signature(profile, _PLACEHOLDER_HOSTS[0]))
        classes.setdefault(key, []).append(profile)
    return classes


def _sample_profile(rng: random.Random, sig: tuple, fqdns: list[str]) -> dict:
    """A profile drawn uniformly from those with signature ``sig``, for hosts ``fqdns``."""
    profile = json.loads(json.dumps(rng.choice(_profiles_by_signature()[sig])))
    params = profile["condition_params"]
    if params.get("hostname_allowlist") == _PLACEHOLDER_HOSTS:
        params["hostname_allowlist"] = sorted(fqdns)
    if "pinned_fingerprints" in params:
        params["pinned_fingerprints"] = [_pin(rng)]
    return profile


def _hosts(rng: random.Random, domain: str, n: int) -> list[str]:
    return [f"{label}.{domain}" for label in rng.sample(LABELS, n)]


def _walk_covers(scan_seed: int, app_id: str, n_hosts: int, steps: int) -> bool:
    # The scanner seeds each app's random walk with f"{seed}:{app_id}" and picks
    # uniformly among the start screen's actions, one action per host.
    rng = random.Random(f"{scan_seed}:{app_id}")
    return len({rng.randrange(n_hosts) for _ in range(steps)}) == n_hosts


def revisit_fleet(seed: int, out: Path) -> None:
    """Write ``fleet.json`` for the revisit scan."""
    rng = random.Random(f"revisit:{seed}")
    apps = []
    for i, (sig, n_hosts) in enumerate(REVISIT_DESIGN):
        domain = f"{rng.choice(WORDS)}{rng.randrange(10**4)}.example"
        fqdns = _hosts(rng, domain, n_hosts)
        profile = json.loads(json.dumps(SECURE_PROFILE)) if i == 0 else (
            _sample_profile(rng, sig, fqdns)
        )
        # Draw ids until the walk reaches every host, so that every host is
        # tested under every test and the operation counts do not vary.
        while True:
            app_id = f"com.{domain.split('.')[0]}.r{rng.randrange(10**6)}"
            if _walk_covers(seed, app_id, n_hosts, REVISIT_STEPS):
                break
        apps.append({"app_id": app_id, "profile": profile, "fqdns": fqdns})
    rng.shuffle(apps)
    out.mkdir(parents=True, exist_ok=True)
    (out / "fleet.json").write_text(json.dumps(apps, indent=2, sort_keys=True) + "\n")


# -- analyze ----------------------------------------------------------------


def _location(rng: random.Random, app: dict, third_party: list[str], kind: str,
              third: bool) -> str:
    method = "checkServerTrusted" if kind == "native" else "onReceivedSslError"
    cls = "net.TrustCheck" if kind == "native" else "web.SslClient"
    token = app["app_id"].split(".")[1]  # unique per app
    if third:
        # A library class, renamed per app build, so no two apps share it.
        return f"{rng.choice(third_party)}.internal.{token}.{cls}.{method}"
    if rng.randrange(2):
        return f"{app['app_id']}.{cls}.{method}"  # unannotated: the developer's own code
    return f"com.example.app.{token}.{cls}.{method}"


def _p3_records(native_ok: bool, web_ok: bool) -> list[tuple[str, str]]:
    """(channel, outcome) of one visit under skip-if-vulnerable, first visit."""
    if native_ok:
        return [("native", "vulnerable"), ("webview", "skipped")]
    return [("native", "secure"), ("webview", "vulnerable" if web_ok else "secure")]


def analyze_inputs(seed: int, src: Path, out: Path) -> dict:
    """Write a scan directory and a snippet corpus; return the ground truth."""
    rng = random.Random(f"analyze:{seed}")
    scan = out / "scan"
    scan.mkdir(parents=True)
    annotations = json.loads((src / "mitmscan" / "data" / "annotations.json").read_text())
    third_party = sorted(a["prefix"] for a in annotations if a["is_third_party"])

    rows = [row[:4] for row in ANALYZE_DESIGN for _ in range(row[4])] * ANALYZE_CYCLES
    apps = []
    for i, (sig, n_hosts, logged, passive) in enumerate(rows):
        word = rng.choice(WORDS)
        app_id = f"com.{word}{i}.a{rng.randrange(10**6)}"
        domain = f"{word}{i}-{rng.randrange(10**4)}.example"
        fqdns = _hosts(rng, domain, n_hosts)
        apps.append({
            "app_id": app_id,
            "domain": domain,
            "fqdns": fqdns,
            "profile": _sample_profile(rng, sig, fqdns),
            "logged": logged,
            "passive": passive,
            "wildcard": rng.random() < 0.3,
            "passive_loc": f"{rng.choice(third_party)}.tls.PinningTrust.checkServerTrusted",
        })
    rng.shuffle(apps)
    by_id = {a["app_id"]: a for a in apps}

    records = {t: [] for t in TESTS}
    for test in TESTS:
        ledger = records[test]
        for app in apps:
            for fqdn in app["fqdns"]:
                native_ok = accepts(app["profile"], test, fqdn, "native", {})
                web_ok = accepts(app["profile"], test, fqdn, "webview", {})
                for channel, outcome in _p3_records(native_ok, web_ok):
                    ledger.append({
                        "app_id": app["app_id"], "channel": channel, "fqdn": fqdn,
                        "outcome": outcome, "sni_less": False, "test_applied": test,
                        "tls_version": "TLS1.3", "transport": "TCP",
                        "ts_mono": len(ledger), "ts_wall": "2025-04-01T00:00:00+00:00",
                    })

    # THIRD_PARTY_SHARE of the code locations that accept a forged chain are
    # a library's, counted apart among those that accept a T1 or T2 chain and
    # those that accept only the T3 chain (a root the client trusts).
    accepting: dict[tuple[str, str], bool] = {}
    for test in TESTS:
        for rec in records[test]:
            if rec["outcome"] == "vulnerable" and by_id[rec["app_id"]]["logged"]:
                key = (rec["app_id"], rec["channel"])
                accepting[key] = accepting.get(key, False) or test != "T3"
    third = set()
    for forged in (True, False):
        pool = [key for key, flag in accepting.items() if flag == forged]
        rng.shuffle(pool)
        third.update(pool[:round(THIRD_PARTY_SHARE * len(pool))])
    for app in apps:
        for kind in CHANNELS:
            app[f"{kind}_loc"] = _location(rng, app, third_party, kind,
                                           (app["app_id"], kind) in third)

    events = [_active_event(by_id[rec["app_id"]], rec)
              for test in TESTS for rec in records[test]
              if rec["outcome"] != "skipped" and by_id[rec["app_id"]]["logged"]]
    for app in apps:
        # A library's pinning check that sees the wildcard chain and rejects it.
        for k in range(app["passive"]):
            name = f"*.{app['domain']}"
            events.append({
                "app_id": app["app_id"], "cert_cn": name, "cert_sans": [name],
                "code_location": app["passive_loc"], "event_id": f"pv-{app['app_id']}-{k}",
                "hostname_param": None, "interface_kind": "trust_manager",
                "mitm_active": False, "ts": float(k), "verdict": "rejected",
            })

    for test in TESTS:
        with (scan / f"ledger_{test}.jsonl").open("w") as fh:
            for rec in records[test]:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
    with (scan / "events.jsonl").open("w") as fh:
        for event in events:
            fh.write(json.dumps(event, sort_keys=True) + "\n")
    fleet = [{"app_id": a["app_id"], "profile": a["profile"], "fqdns": a["fqdns"]} for a in apps]
    (scan / "fleet.json").write_text(json.dumps(fleet, indent=2, sort_keys=True) + "\n")

    corpus_truth = _write_corpus(rng, src / "mitmscan" / "data" / "corpus", out / "corpus")
    return {
        "apps": {a["app_id"]: a for a in apps},
        "annotations": annotations,
        "corpus": corpus_truth,
    }


def _active_event(app: dict, rec: dict) -> dict:
    event = {
        "app_id": rec["app_id"], "event_id": f"ev-{rec['test_applied']}-{rec['ts_mono']}",
        "mitm_active": True, "ts": float(rec["ts_mono"]),
        "verdict": "accepted" if rec["outcome"] == "vulnerable" else "rejected",
        "hostname_param": None, "cert_cn": None, "cert_sans": None,
    }
    if rec["channel"] == "webview":
        event.update(code_location=app["webview_loc"], interface_kind="webview_client",
                     hostname_param=rec["fqdn"])
        return event
    if rec["test_applied"] == "T2":
        name = ATTACKER_NAME
    elif app["wildcard"]:
        name = f"*.{app['domain']}"
    else:
        name = rec["fqdn"]
    event.update(code_location=app["native_loc"], interface_kind="trust_manager",
                 cert_cn=name, cert_sans=[name])
    return event


def _write_corpus(rng: random.Random, bundled: Path, out: Path) -> dict:
    """Copy every bundled snippet CORPUS_COPIES times, each under its own class name.

    Returns {snippet_id: (original snippet_id, labels)}.
    """
    manifest = json.loads((bundled / "manifest.json").read_text())
    out.mkdir(parents=True)
    new_manifest = {}
    truth = {}
    for filename, meta in sorted(manifest.items()):
        source = (bundled / filename).read_text()
        stem = filename.removesuffix(".java")
        new_manifest[filename] = meta
        (out / filename).write_text(source)
        truth[filename] = (filename, sorted(meta["labels"]))
        for _ in range(CORPUS_COPIES):
            new_stem = f"C{rng.randrange(16**8):08x}{stem}"
            new_name = f"{new_stem}.java"
            if new_name in new_manifest:
                raise RuntimeError("duplicate snippet name")  # vanishingly rare
            (out / new_name).write_text(source.replace(stem, new_stem))
            new_manifest[new_name] = {**meta, "focus_class": meta["focus_class"].replace(stem, new_stem)}
            truth[new_name] = (filename, sorted(meta["labels"]))
    (out / "manifest.json").write_text(json.dumps(new_manifest, indent=2, sort_keys=True) + "\n")
    return truth
