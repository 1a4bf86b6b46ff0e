"""Reference fleet of synthetic apps spanning the full behavior taxonomy."""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

from .appsim import Action, FlowSpec, Screen, SyntheticApp
from .certforge import fingerprint
from .engine import MitmMaterial
from .profiles import HOSTNAME_BEHAVIORS, TRUST_BEHAVIORS, WEBVIEW_BEHAVIORS, ClientProfile


def _app(app_id: str, fqdns: list[str], profile: ClientProfile) -> SyntheticApp:
    actions = [
        Action(
            label=f"open-{fqdn}",
            flows=(FlowSpec(fqdn, "native"), FlowSpec(fqdn, "webview")),
        )
        for fqdn in fqdns
    ]
    return SyntheticApp(
        app_id=app_id,
        profile=profile,
        screens={"home": Screen(name="home", actions=tuple(actions))},
        start_screen="home",
    )


def demo_fleet(material: MitmMaterial) -> list[SyntheticApp]:
    """Twenty apps: four secure baselines, one app per flawed behavior code, two pinning apps.

    The flawed app for code ``C`` is ``com.fleet.<c>`` on host ``<c>.example.com``.
    Trust-flaw apps carry a permissive hostname verifier so the trust decision
    alone drives the outcome; hostname-flaw and webview-flaw apps keep correct
    platform trust. Pinning apps are otherwise fully secure.
    """
    secure = ClientProfile()
    apps = [
        _app("com.fleet.secure1", ["secure1.example.com"], secure),
        _app("com.fleet.secure2", ["api.secure2.example.com"], secure),
        _app("com.fleet.secure3", ["secure3.example.com", "cdn.secure3.example.com"], secure),
        _app("com.fleet.secure4", ["secure4.example.org"], secure),
    ]
    for field, codes in (("trust_behavior", TRUST_BEHAVIORS),
                         ("hostname_behavior", HOSTNAME_BEHAVIORS),
                         ("webview_behavior", WEBVIEW_BEHAVIORS)):
        for code in codes[1:]:  # each family's first code is its secure one
            host = f"{code.lower()}.example.com"
            params = {
                "T2C": {"expected_subject": host},
                "T2F": {"trusted_issuers": ["attacker-untrusted"]},
                "H2A": {"hostname_allowlist": [host]},
                "H2B": {"match_mode": "substring"},
                "W2A": {"user_accepts": True},
                "W2B": {"ignored_error_codes": [3, 5]},
                "W2C": {"insecure_state": True},
            }.get(code, {})
            hostname = "H1" if field == "trust_behavior" else "H0"
            profile = ClientProfile(**{"hostname_behavior": hostname, field: code},
                                    condition_params=params)
            apps.append(_app(f"com.fleet.{code.lower()}", [host], profile))
    pin_leaf_fp = fingerprint(material.leaf_for(material.lab_trusted_root, "pinleaf.example.com").cert)
    pin_root_fp = material.lab_trusted_root.fingerprint
    apps += [
        _app("com.fleet.pinleaf", ["pinleaf.example.com"], ClientProfile(
            pinning="pin_leaf", condition_params={"pinned_fingerprints": [pin_leaf_fp]})),
        _app("com.fleet.pinroot", ["pinroot.example.com"], ClientProfile(
            pinning="pin_root", condition_params={"pinned_fingerprints": [pin_root_fp]})),
    ]
    return apps


def save_fleet(apps: list[SyntheticApp], path: str | Path) -> None:
    data = []
    for app in apps:
        data.append(
            {
                "app_id": app.app_id,
                "profile": asdict(app.profile),
                "fqdns": app.fqdns(),
            }
        )
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_fleet(path: str | Path) -> list[SyntheticApp]:
    apps, app_ids = [], set()
    for entry in json.loads(Path(path).read_text()):
        if not (isinstance(entry, dict) and isinstance(entry.get("app_id"), str)
                and isinstance(entry.get("fqdns"), list)
                and all(isinstance(fqdn, str) for fqdn in entry["fqdns"])):
            raise ValueError("a fleet entry needs a string app_id and a list of string fqdns")
        if entry["app_id"] in app_ids:
            raise ValueError(f"app_id {entry['app_id']!r} is named twice")
        app_ids.add(entry["app_id"])
        apps.append(_app(entry["app_id"], entry["fqdns"], ClientProfile(**entry["profile"])))
    return apps
