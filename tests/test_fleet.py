import importlib
from dataclasses import asdict
from pathlib import Path

from mitmscan.fleet import demo_fleet, load_fleet
from mitmscan.profiles import HOSTNAME_BEHAVIORS, TRUST_BEHAVIORS, WEBVIEW_BEHAVIORS, ClientProfile

FLAWED = [code for family in (TRUST_BEHAVIORS, HOSTNAME_BEHAVIORS, WEBVIEW_BEHAVIORS)
          for code in family[1:]]


def test_demo_fleet_has_one_app_per_flawed_behavior_code(material, expect, root_fingerprints):
    apps = demo_fleet(material)
    assert [app.app_id for app in apps] == (
        [f"com.fleet.secure{i}" for i in range(1, 5)]
        + [f"com.fleet.{code.lower()}" for code in FLAWED]
        + ["com.fleet.pinleaf", "com.fleet.pinroot"]
    )
    secure, flawed, pinning = apps[:4], apps[4:-2], apps[-2:]
    assert all(app.profile == ClientProfile() for app in secure)
    for app, code in zip(flawed, FLAWED):
        profile = app.profile
        assert app.fqdns() == [f"{code.lower()}.example.com"]
        # a trust flaw sits behind an H1 verifier; every other code is the one flaw
        expected = {"T": (code, "H1", "W0"), "H": ("T0", code, "W0"), "W": ("T0", "H0", code)}
        assert (profile.trust_behavior, profile.hostname_behavior,
                profile.webview_behavior) == expected[code[0]], code
        assert profile.pinning == "none"
    assert [app.profile.pinning for app in pinning] == ["pin_leaf", "pin_root"]
    assert all(asdict(app.profile) == {**asdict(ClientProfile()), "pinning": app.profile.pinning,
                                       "condition_params": app.profile.condition_params}
               for app in pinning)
    # under the forged chains of T1 and T2 only a flawed app can be vulnerable
    accepting = {app.app_id for app in apps for fqdn in app.fqdns()
                 for test in ("T1", "T2") for channel in ("native", "webview")
                 if expect.accepts(asdict(app.profile), test, fqdn, channel, root_fingerprints)}
    assert not accepting - {app.app_id for app in flawed}


def test_the_benchmark_revisit_fleet_loads(tmp_path, monkeypatch):
    """perfbench's generated fleet holds only condition_params its profiles read."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    gen = importlib.import_module("gen")
    gen.revisit_fleet(1901, tmp_path)
    assert len(load_fleet(tmp_path / "fleet.json")) == len(gen.REVISIT_DESIGN)
