import gc
import random
import socket
import threading
import time

import pytest

from mitmscan import appsim
from mitmscan.appsim import (
    Action,
    FlowSpec,
    ScanConfig,
    SyntheticApp,
    build_action_prompt,
    execute_session,
    next_action,
    parse_action_reply,
    perform_flow,
)
from mitmscan.engine import Listener, MitmEngine, forge_for
from mitmscan.flowledger import POLICY_ALWAYS, FlowLedger
from mitmscan.profiles import ClientProfile


def two_screen_app():
    home = (
        Action(label="refresh", flows=(FlowSpec("a.example.com", "native"),)),
        Action(label="settings", goto="settings"),
    )
    settings = (Action(label="sync", flows=(FlowSpec("b.example.com", "webview"),)),)
    return SyntheticApp(
        app_id="com.demo.app",
        profile=ClientProfile(),
        screens={"home": home, "settings": settings},
        start_screen="home",
    )


def test_scan_config_validation():
    with pytest.raises(ValueError):
        ScanConfig(n_steps=0)
    with pytest.raises(ValueError):
        ScanConfig(n_steps=-1, t_max=1.0)  # a time budget does not stand in for steps
    for t_wait in (-1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ScanConfig(t_wait=t_wait)
    for t_max in (0, -1.0):
        with pytest.raises(ValueError):
            ScanConfig(t_max=t_max)
    with pytest.raises(ValueError):
        ScanConfig(strategy="chaotic")


def test_app_graph_validation():
    bad_screens = [
        (Action(label="go", goto="nowhere"),),
        (Action(label="open"), Action(label="open")),  # labels are unique per screen
        (Action(label="back"),),  # reserved for going back
    ]
    for actions in bad_screens:
        with pytest.raises(ValueError):
            SyntheticApp(
                app_id="x",
                profile=ClientProfile(),
                screens={"home": actions},
                start_screen="home",
            )
    assert two_screen_app().fqdns() == ["a.example.com", "b.example.com"]


def test_next_action_random_is_seeded():
    app = two_screen_app()
    rng1, rng2 = random.Random(5), random.Random(5)
    picks1 = [next_action(app, "home", rng1, "random", [], set()).label for _ in range(10)]
    picks2 = [next_action(app, "home", rng2, "random", [], set()).label for _ in range(10)]
    assert picks1 == picks2


def test_next_action_scripted():
    """The screen's first action not yet taken, in screen order; then back; then None."""
    app = two_screen_app()

    def label(screen, history, taken):
        action = next_action(app, screen, random.Random(0), "scripted", history, taken)
        return None if action is None else action.label

    assert label("home", [], set()) == "refresh"
    assert label("home", [], {("home", "refresh")}) == "settings"
    assert label("settings", ["home"], {("home", "refresh"), ("home", "settings")}) == "sync"
    # a pair names its screen: "sync" taken on another screen is not taken here
    assert label("settings", ["home"], {("other", "sync")}) == "sync"
    everything = {("home", "refresh"), ("home", "settings"), ("settings", "sync")}
    assert label("settings", ["home"], everything) == "back"
    assert label("home", ["settings"], everything) == "back"
    assert label("home", [], everything) is None


def test_back_action_only_off_start():
    """``back`` is offered exactly when the history holds a screen, start screen or not."""
    app = two_screen_app()

    def labels(screen, history):
        return {
            next_action(app, screen, random.Random(i), "random", history, set()).label
            for i in range(30)
        }

    assert labels("home", []) == {"refresh", "settings"}
    assert labels("home", ["settings"]) == {"refresh", "settings", "back"}
    assert labels("settings", ["home"]) == {"sync", "back"}


def test_llm_strategy_parsing_and_fallback():
    app = two_screen_app()
    screen, actions = "home", list(app.screens["home"])
    prompt = build_action_prompt(app, screen, actions)
    assert "refresh" in prompt and "Action:" in prompt

    good = next_action(
        app, screen, random.Random(0), "external_llm", [], set(),
        llm=lambda p: "Thoughts: go look\nAction: settings",
    )
    assert good.label == "settings"

    fallback = next_action(
        app, screen, random.Random(0), "external_llm", [], set(), llm=lambda p: "gibberish"
    )
    assert fallback.label in {"refresh", "settings"}

    erroring = next_action(
        app, screen, random.Random(0), "external_llm", [], set(),
        llm=lambda p: (_ for _ in ()).throw(RuntimeError("down")),
    )
    assert erroring.label in {"refresh", "settings"}

    assert parse_action_reply("Action: refresh", actions).label == "refresh"
    assert parse_action_reply("no action line", actions) is None


def test_execute_session_routes_and_counts(material, ledger_file):
    app = two_screen_app()
    config = ScanConfig(strategy="scripted", n_steps=10, policy=POLICY_ALWAYS)
    path, read = ledger_file
    with MitmEngine(material, "T1", POLICY_ALWAYS, FlowLedger(path), grace_seconds=0.3) as engine:
        session = execute_session(
            app,
            config,
            {"a.example.com"},
            engine.address,
            material.client_store,
        )
    assert [(f.route, f.accepted, f.error) for f in session.flows] == [
        ("MITM", False, None),
        ("DIRECT", None, None),  # counted, not intercepted
    ]
    # refresh, settings, sync, back; then the walk is done, well before its step cap
    assert session.steps_taken == 4
    assert not session.partial
    # only the MITM-routed flow reached the ledger
    assert [r.fqdn for r in read()] == ["a.example.com"]


def test_back_returns_to_the_screen_before(material):
    """home -a-> A -b-> B, back: on A again, where ``x`` (only on A) is taken next."""
    screens = {
        "home": (Action(label="a", goto="A"),),
        "A": (
            Action(label="b", goto="B"),
            Action(label="x", flows=(FlowSpec("x.example.com"),)),
        ),
        "B": (Action(label="c", flows=(FlowSpec("c.example.com"),)),),
    }
    app = SyntheticApp(app_id="com.deep.app", profile=ClientProfile(), screens=screens,
                       start_screen="home")
    session = execute_session(
        app,
        ScanConfig(strategy="scripted", n_steps=20, policy=POLICY_ALWAYS),
        set(),
        ("127.0.0.1", 1),
        material.client_store,
    )
    # a, b, c, back (to A), x, back (to home); a back to home would never reach x
    assert [f.fqdn for f in session.flows] == ["c.example.com", "x.example.com"]
    assert session.steps_taken == 6
    assert not session.partial


def test_time_budget_marks_partial(material):
    app = two_screen_app()
    # the budget runs out in the settle wait after the first action
    config = ScanConfig(strategy="random", n_steps=50, t_max=0.2, t_wait=0.25, policy=POLICY_ALWAYS)
    session = execute_session(
        app,
        config,
        set(),
        ("127.0.0.1", 1),
        material.client_store,
    )
    assert session.partial
    assert session.steps_taken == 1


def _flow_against_reply(material, *parts):
    """perform_flow against a stub engine that answers the preamble with ``parts``,
    sent apart and followed by the end of its writes, and the first byte the
    client sent after its preamble (b"" if none)."""
    sent = []

    def answer(conn):
        conn.makefile("rb").readline()
        for i, part in enumerate(parts):
            if i:
                time.sleep(0.05)  # so the client reads each part apart
            conn.sendall(part)
        try:
            conn.shutdown(socket.SHUT_WR)
            sent.append(conn.recv(1))
        except OSError:  # the client left with bytes of the reply unread
            sent.append(b"")

    stub = Listener(answer)
    address = stub.start()
    try:
        result = perform_flow(
            two_screen_app(), FlowSpec("a.example.com"), address,
            material.client_store,
        )
    finally:
        stub.stop()
    return result, sent


def test_flow_goes_on_to_the_handshake_only_on_test(material):
    _, sent = _flow_against_reply(material, b"test\n")
    assert sent == [b"\x16"]  # a TLS handshake record: the ClientHello
    result, sent = _flow_against_reply(material, b"skip\n")
    assert (result.route, result.accepted, result.error) == ("MITM", None, None)
    assert sent == [b""]


def test_flow_joins_a_reply_split_across_sends(material):
    _, sent = _flow_against_reply(material, b"te", b"st\n")
    assert sent == [b"\x16"]


@pytest.mark.parametrize(
    "parts",
    [(b'{"action": "test"}\n',), (b"tes",), (), (b"testing\n",)],
    ids=["json-envelope", "cut-short", "closed-at-once", "unknown-action"],
)
def test_flow_with_any_other_reply_is_an_error(material, parts):
    result, sent = _flow_against_reply(material, *parts)
    assert result.accepted is None
    assert "is no test or skip line" in result.error
    assert sent == [b""]  # no ClientHello


@pytest.mark.parametrize("trust_behavior", ["T0", "T1"], ids=["rejecting", "accepting"])
def test_flow_stalled_after_the_handshake_closes_its_socket(material, monkeypatch, trust_behavior):
    """A flow whose engine completes the handshake and then neither reads nor closes
    is a flow error once its wait runs out, and leaves no socket to the finalizer."""
    monkeypatch.setattr(appsim, "FLOW_TIMEOUT_SECONDS", 0.3)
    ctx = material.serve(forge_for("T1", "a.example.com", material))
    done = threading.Event()

    def stall(conn):
        preamble = b""
        while not preamble.endswith(b"\n"):
            preamble += conn.recv(4096)
        conn.sendall(b"test\n")
        with ctx.wrap_socket(conn, server_side=True):
            done.wait(5)

    stub = Listener(stall)
    address = stub.start()
    app = two_screen_app()
    app.profile = ClientProfile(trust_behavior=trust_behavior, hostname_behavior="H1")
    try:
        result = perform_flow(
            app, FlowSpec("a.example.com"), address, material.client_store,
        )
        gc.collect()  # a socket left open would warn here, and the warning is an error
    finally:
        done.set()
        stub.stop()
    assert result.accepted is None
    assert "timed out" in result.error
