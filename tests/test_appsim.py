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
        ScanConfig(n_steps=-1)  # unbounded needs a time budget
    with pytest.raises(ValueError):
        ScanConfig(t_wait=-1)
    with pytest.raises(ValueError):
        ScanConfig(strategy="chaotic")
    with pytest.raises(ValueError):
        ScanConfig(policy="sometimes")
    ScanConfig(n_steps=-1, t_max=1.0)  # valid unbounded form


def test_app_graph_validation():
    with pytest.raises(ValueError):
        SyntheticApp(
            app_id="x",
            profile=ClientProfile(),
            screens={"home": Screen(name="home", actions=(Action(label="go", goto="nowhere"),))},
            start_screen="home",
        )
    assert two_screen_app().fqdns() == ["a.example.com", "b.example.com"]


def test_next_action_random_is_seeded():
    app = two_screen_app()
    rng1, rng2 = random.Random(5), random.Random(5)
    picks1 = [next_action(app, app.screens["home"], rng1, "random").label for _ in range(10)]
    picks2 = [next_action(app, app.screens["home"], rng2, "random").label for _ in range(10)]
    assert picks1 == picks2


def test_next_action_scripted():
    app = two_screen_app()
    action = next_action(app, app.screens["home"], random.Random(0), "scripted", ["settings"], 0)
    assert action.label == "settings"
    with pytest.raises(ValueError):
        next_action(app, app.screens["home"], random.Random(0), "scripted", ["missing"], 0)


def test_back_action_only_off_start():
    app = two_screen_app()
    home_labels = {
        next_action(app, app.screens["home"], random.Random(i), "random").label for i in range(30)
    }
    assert "back" not in home_labels
    settings_labels = {
        next_action(app, app.screens["settings"], random.Random(i), "random").label
        for i in range(30)
    }
    assert "back" in settings_labels


def test_llm_strategy_parsing_and_fallback():
    app = two_screen_app()
    screen = app.screens["home"]
    prompt = build_action_prompt(app, screen, list(screen.actions))
    assert "refresh" in prompt and "Action:" in prompt

    good = next_action(
        app, screen, random.Random(0), "external_llm",
        llm=lambda p: "Thoughts: go look\nAction: settings",
    )
    assert good.label == "settings"

    fallback = next_action(
        app, screen, random.Random(0), "external_llm", llm=lambda p: "gibberish"
    )
    assert fallback.label in {"refresh", "settings"}

    erroring = next_action(
        app, screen, random.Random(0), "external_llm",
        llm=lambda p: (_ for _ in ()).throw(RuntimeError("down")),
    )
    assert erroring.label in {"refresh", "settings"}

    assert parse_action_reply("Action: refresh", list(screen.actions)).label == "refresh"
    assert parse_action_reply("no action line", list(screen.actions)) is None


def test_execute_session_routes_and_counts(material):
    app = two_screen_app()
    config = ScanConfig(strategy="scripted", n_steps=3, policy=POLICY_ALWAYS)
    ledger = FlowLedger()
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        session = execute_session(
            app,
            config,
            {"a.example.com"},
            engine.address,
            material.client_store,
            material.config.now,
            script=["refresh", "settings", "sync"],
        )
    assert [(f.route, f.accepted, f.error) for f in session.flows] == [
        ("MITM", False, None),
        ("DIRECT", None, None),  # counted, not intercepted
    ]
    assert session.steps_taken == 3
    assert not session.partial
    # only the MITM-routed flow reached the ledger
    assert [r.fqdn for r in ledger.records()] == ["a.example.com"]


def test_time_budget_marks_partial(material):
    app = two_screen_app()
    config = ScanConfig(strategy="random", n_steps=50, t_max=0.0, policy=POLICY_ALWAYS)
    session = execute_session(
        app,
        config,
        set(),
        ("127.0.0.1", 1),
        material.client_store,
        material.config.now,
    )
    assert session.partial
    assert session.steps_taken == 0


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
            timeout=5.0,
        )
    finally:
        stub.stop()
    assert result.accepted is None
    assert f"over {MAX_REPLY_BYTES} bytes" in result.error
