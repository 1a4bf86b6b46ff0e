import json
import random
import socket
import threading
import time

import pytest

from mitmscan.appsim import (
    MAX_REPLY_BYTES,
    Action,
    FlowSpec,
    ScanConfig,
    Screen,
    SyntheticApp,
    build_action_prompt,
    execute_session,
    next_action,
    parse_action_reply,
    _read_line,
    _reply_action,
    perform_flow,
)
from mitmscan.engine import Listener, MitmEngine
from mitmscan.flowledger import POLICY_ALWAYS, FlowLedger
from mitmscan.profiles import ClientProfile


def two_screen_app():
    home = Screen(
        name="home",
        actions=(
            Action(label="refresh", flows=(FlowSpec("a.example.com", "native"),)),
            Action(label="settings", goto="settings"),
        ),
    )
    settings = Screen(
        name="settings",
        actions=(Action(label="sync", flows=(FlowSpec("b.example.com", "webview"),)),),
    )
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
    with pytest.raises(ValueError):
        ScanConfig(t_wait=-1)
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
                screens={"home": Screen(name="home", actions=actions)},
                start_screen="home",
            )
    assert two_screen_app().fqdns() == ["a.example.com", "b.example.com"]


def test_next_action_random_is_seeded():
    app = two_screen_app()
    rng1, rng2 = random.Random(5), random.Random(5)
    home = app.screens["home"]
    picks1 = [next_action(app, home, rng1, "random", [], set()).label for _ in range(10)]
    picks2 = [next_action(app, home, rng2, "random", [], set()).label for _ in range(10)]
    assert picks1 == picks2


def test_next_action_scripted():
    """The screen's first action not yet taken, in screen order; then back; then None."""
    app = two_screen_app()
    home, settings = app.screens["home"], app.screens["settings"]

    def label(screen, history, taken):
        action = next_action(app, screen, random.Random(0), "scripted", history, taken)
        return None if action is None else action.label

    assert label(home, [], set()) == "refresh"
    assert label(home, [], {("home", "refresh")}) == "settings"
    assert label(settings, ["home"], {("home", "refresh"), ("home", "settings")}) == "sync"
    # a pair names its screen: "sync" taken on another screen is not taken here
    assert label(settings, ["home"], {("other", "sync")}) == "sync"
    everything = {("home", "refresh"), ("home", "settings"), ("settings", "sync")}
    assert label(settings, ["home"], everything) == "back"
    assert label(home, ["settings"], everything) == "back"
    assert label(home, [], everything) is None


def test_back_action_only_off_start():
    """``back`` is offered exactly when the history holds a screen, start screen or not."""
    app = two_screen_app()

    def labels(screen, history):
        return {
            next_action(app, app.screens[screen], random.Random(i), "random", history, set()).label
            for i in range(30)
        }

    assert labels("home", []) == {"refresh", "settings"}
    assert labels("home", ["settings"]) == {"refresh", "settings", "back"}
    assert labels("settings", ["home"]) == {"sync", "back"}


def test_llm_strategy_parsing_and_fallback():
    app = two_screen_app()
    screen = app.screens["home"]
    prompt = build_action_prompt(app, screen, list(screen.actions))
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

    assert parse_action_reply("Action: refresh", list(screen.actions)).label == "refresh"
    assert parse_action_reply("no action line", list(screen.actions)) is None


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
            material.config.now,
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
        "home": Screen(name="home", actions=(Action(label="a", goto="A"),)),
        "A": Screen(name="A", actions=(
            Action(label="b", goto="B"),
            Action(label="x", flows=(FlowSpec("x.example.com"),)),
        )),
        "B": Screen(name="B", actions=(Action(label="c", flows=(FlowSpec("c.example.com"),)),)),
    }
    app = SyntheticApp(app_id="com.deep.app", profile=ClientProfile(), screens=screens,
                       start_screen="home")
    session = execute_session(
        app,
        ScanConfig(strategy="scripted", n_steps=20, policy=POLICY_ALWAYS),
        set(),
        ("127.0.0.1", 1),
        material.client_store,
        material.config.now,
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
        material.config.now,
    )
    assert session.partial
    assert session.steps_taken == 1


def test_read_line_joins_a_reply_split_across_sends():
    client, server = socket.socketpair()
    with client, server:
        client.settimeout(5)

        def send_in_two():
            server.sendall(b'{"action": ')
            time.sleep(0.05)
            server.sendall(b'"test"}\n')

        sender = threading.Thread(target=send_in_two)
        sender.start()
        assert _read_line(client) == b'{"action": "test"}\n'
        sender.join(timeout=5)
        assert not sender.is_alive()


def test_read_line_refuses_a_reply_cut_short():
    client, server = socket.socketpair()
    with client, server:
        client.settimeout(5)
        server.sendall(b'{"action": "te')
        server.close()
        with pytest.raises(ConnectionError):
            _read_line(client)


def test_read_line_refuses_a_reply_over_its_limit():
    client, server = socket.socketpair()
    with client, server:
        client.settimeout(5)
        sender = threading.Thread(
            target=server.sendall, args=(b"x" * MAX_REPLY_BYTES + b"x\n",)
        )
        sender.start()
        with pytest.raises(ValueError, match=f"over {MAX_REPLY_BYTES} bytes"):
            _read_line(client)
        sender.join(timeout=5)
        assert not sender.is_alive()


def test_flow_with_an_oversized_reply_is_an_error(material):
    def oversized_reply(conn):
        conn.makefile("rb").readline()
        try:
            conn.sendall(json.dumps({"action": "x" * MAX_REPLY_BYTES}).encode() + b"\n")
        except OSError:
            pass  # the client hangs up once it has read past its limit

    stub = Listener(oversized_reply, timeout=5.0)
    address = stub.start()
    try:
        result = perform_flow(
            two_screen_app(),
            FlowSpec("a.example.com"),
            address,
            material.client_store,
            material.config.now,
        )
    finally:
        stub.stop()
    assert result.accepted is None
    assert f"over {MAX_REPLY_BYTES} bytes" in result.error


BAD_REPLIES = [b"not json\n", b'["skip"]\n', b'{"skip": true}\n', b'{"action": "retest"}\n']
BAD_REPLY_IDS = ["not-json", "not-an-object", "no-action", "unknown-action"]


@pytest.mark.parametrize(
    "reply, action", [(b'{"action": "test"}\n', "test"), (b'{"action": "skip"}\n', "skip")],
    ids=["test", "skip"],
)
def test_reply_names_test_or_skip(reply, action):
    client, server = socket.socketpair()
    with client, server:
        client.settimeout(5)
        server.sendall(reply)
        assert _reply_action(_read_line(client)) == action


@pytest.mark.parametrize("reply", BAD_REPLIES, ids=BAD_REPLY_IDS)
def test_any_other_reply_is_refused(reply):
    client, server = socket.socketpair()
    with client, server:
        client.settimeout(5)
        server.sendall(reply)
        with pytest.raises(ValueError, match="engine reply .* is no test or skip action"):
            _reply_action(_read_line(client))


def _flow_against_reply(material, reply):
    """perform_flow against a stub engine that answers the preamble with ``reply``,
    and the first byte the client sent after its preamble (b"" if none)."""
    sent = []

    def answer(conn):
        conn.makefile("rb").readline()
        conn.sendall(reply)
        sent.append(conn.recv(1))

    stub = Listener(answer, timeout=5.0)
    address = stub.start()
    try:
        result = perform_flow(
            two_screen_app(), FlowSpec("a.example.com"), address,
            material.client_store, material.config.now,
        )
    finally:
        stub.stop()
    return result, sent


def test_flow_goes_on_to_the_handshake_only_on_test(material):
    _, sent = _flow_against_reply(material, b'{"action": "test"}\n')
    assert sent == [b"\x16"]  # a TLS handshake record: the ClientHello
    result, sent = _flow_against_reply(material, b'{"action": "skip"}\n')
    assert (result.route, result.accepted, result.error) == ("MITM", None, None)
    assert sent == [b""]


@pytest.mark.parametrize("reply", BAD_REPLIES, ids=BAD_REPLY_IDS)
def test_flow_with_any_other_reply_is_an_error(material, reply):
    result, sent = _flow_against_reply(material, reply)
    assert result.accepted is None
    assert "is no test or skip action" in result.error
    assert sent == [b""]  # no ClientHello
