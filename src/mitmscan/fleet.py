"""Reference fleet of synthetic apps spanning the full behavior taxonomy."""

from __future__ import annotations

import datetime
import json
from pathlib import Path

from .appsim import Action, FlowSpec, Screen, SyntheticApp
from .certforge import fingerprint
from .engine import MitmMaterial, forge_for, legit_for
from .flowledger import TESTS
from .profiles import ClientProfile, client_accepts


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
    """Twenty apps: four secure baselines plus one app per flawed behavior.

    Trust-flaw apps carry a permissive hostname verifier so the trust decision
    alone drives the outcome; hostname-flaw and webview-flaw apps keep correct
    platform trust. Pinning apps are otherwise fully secure.
    """
    pin_leaf_fp = fingerprint(legit_for("pinleaf.example.com", material).cert)
    pin_root_fp = material.lab_trusted_root.fingerprint

    secure = ClientProfile()
    apps = [
        _app("com.fleet.secure1", ["secure1.example.com"], secure),
        _app("com.fleet.secure2", ["api.secure2.example.com"], secure),
        _app("com.fleet.secure3", ["secure3.example.com", "cdn.secure3.example.com"], secure),
        _app("com.fleet.secure4", ["secure4.example.org"], secure),
        _app(
            "com.fleet.t1",
            ["t1.example.com"],
            ClientProfile(trust_behavior="T1", hostname_behavior="H1"),
        ),
        _app(
            "com.fleet.t2a",
            ["t2a.example.com"],
            ClientProfile(trust_behavior="T2A", hostname_behavior="H1"),
        ),
        _app(
            "com.fleet.t2b",
            ["t2b.example.com"],
            ClientProfile(trust_behavior="T2B", hostname_behavior="H1"),
        ),
        _app(
            "com.fleet.t2c",
            ["t2c.example.com"],
            ClientProfile(
                trust_behavior="T2C",
                hostname_behavior="H1",
                condition_params={"expected_subject": "t2c.example.com"},
            ),
        ),
        _app(
            "com.fleet.t2d",
            ["t2d.example.com"],
            ClientProfile(trust_behavior="T2D", hostname_behavior="H1"),
        ),
        _app(
            "com.fleet.t2e",
            ["t2e.example.com"],
            ClientProfile(trust_behavior="T2E", hostname_behavior="H1"),
        ),
        _app(
            "com.fleet.t2f",
            ["t2f.example.com"],
            ClientProfile(
                trust_behavior="T2F",
                hostname_behavior="H1",
                condition_params={"trusted_issuers": ["attacker-untrusted"]},
            ),
        ),
        _app(
            "com.fleet.h1",
            ["h1.example.com"],
            ClientProfile(hostname_behavior="H1"),
        ),
        _app(
            "com.fleet.h2a",
            ["h2a.example.com"],
            ClientProfile(
                hostname_behavior="H2A",
                condition_params={"hostname_allowlist": ["h2a.example.com"]},
            ),
        ),
        _app(
            "com.fleet.h2b",
            ["h2b.example.com"],
            ClientProfile(
                hostname_behavior="H2B",
                condition_params={"match_mode": "substring"},
            ),
        ),
        _app(
            "com.fleet.w1",
            ["w1.example.com"],
            ClientProfile(webview_behavior="W1"),
        ),
        _app(
            "com.fleet.w2a",
            ["w2a.example.com"],
            ClientProfile(
                webview_behavior="W2A",
                condition_params={"user_accepts": True},
            ),
        ),
        _app(
            "com.fleet.w2b",
            ["w2b.example.com"],
            ClientProfile(
                webview_behavior="W2B",
                condition_params={"ignored_error_codes": [3, 5]},
            ),
        ),
        _app(
            "com.fleet.w2c",
            ["w2c.example.com"],
            ClientProfile(
                webview_behavior="W2C",
                condition_params={"insecure_state": True},
            ),
        ),
        _app(
            "com.fleet.pinleaf",
            ["pinleaf.example.com"],
            ClientProfile(
                pinning="pin_leaf",
                condition_params={"pinned_fingerprints": [pin_leaf_fp]},
            ),
        ),
        _app(
            "com.fleet.pinroot",
            ["pinroot.example.com"],
            ClientProfile(
                pinning="pin_root",
                condition_params={"pinned_fingerprints": [pin_root_fp]},
            ),
        ),
    ]
    return apps


def expected_truth_table(
    apps: list[SyntheticApp],
    material: MitmMaterial,
    now: datetime.datetime | None = None,
) -> dict[tuple[str, str, str, str], str]:
    """(app_id, fqdn, test, channel) -> expected outcome under interception."""
    now = now or material.config.now
    table = {}
    for app in apps:
        for fqdn in app.fqdns():
            for test in TESTS:
                leaf = forge_for(test, fqdn, material)
                chain = [leaf.cert, leaf.issuer.self_signed_cert]
                for channel in ("native", "webview"):
                    ok = client_accepts(
                        app.profile, chain, fqdn, channel, material.client_store, now
                    )
                    table[(app.app_id, fqdn, test, channel)] = (
                        "vulnerable" if ok else "secure"
                    )
    return table


def save_fleet(apps: list[SyntheticApp], path: str | Path) -> None:
    data = []
    for app in apps:
        data.append(
            {
                "app_id": app.app_id,
                "profile": app.profile.as_dict(),
                "fqdns": app.fqdns(),
            }
        )
    Path(path).write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def load_fleet(path: str | Path) -> list[SyntheticApp]:
    apps = []
    for entry in json.loads(Path(path).read_text()):
        if not (isinstance(entry, dict) and isinstance(entry.get("app_id"), str)
                and isinstance(entry.get("fqdns"), list)
                and all(isinstance(fqdn, str) for fqdn in entry["fqdns"])):
            raise ValueError("a fleet entry needs a string app_id and a list of string fqdns")
        apps.append(
            _app(entry["app_id"], entry["fqdns"], ClientProfile.from_dict(entry["profile"]))
        )
    return apps
