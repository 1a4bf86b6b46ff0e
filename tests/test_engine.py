import gc
import json
import logging
import socket
import ssl
import statistics
import struct
import sys
import threading
import time
import weakref

import pytest

from mitmscan import appsim
from mitmscan.appsim import Action, FlowSpec, Screen, SyntheticApp, perform_flow
from mitmscan.certforge import cert_dns_names, verify_chain
from mitmscan.engine import (
    ATTACKER_NAME,
    MAX_PREAMBLE_BYTES,
    Listener,
    MitmEngine,
    MitmMaterial,
    forge_for,
    legit_for,
)
from mitmscan.fleet import expected_truth_table
from mitmscan.flowledger import (
    CHANNELS,
    POLICIES,
    POLICY_ALWAYS,
    POLICY_ONCE,
    POLICY_UNTIL_VULNERABLE,
    TESTS,
    FlowLedger,
)
from mitmscan.profiles import ClientProfile


def test_forge_t1_untrusted_root(material):
    leaf = forge_for("T1", "api.example.com", material)
    assert cert_dns_names(leaf.cert) == ["api.example.com", "api.example.com"]
    assert leaf.issuer is material.untrusted_root
    assert not verify_chain([leaf.cert], material.client_store, material.config.now)


def test_forge_t2_wrong_name_valid_chain(material):
    leaf = forge_for("T2", "api.example.com", material)
    assert cert_dns_names(leaf.cert) == [ATTACKER_NAME, ATTACKER_NAME]
    assert verify_chain([leaf.cert], material.client_store, material.config.now)


def test_forge_t3_installed_root(material):
    leaf = forge_for("T3", "api.example.com", material)
    assert leaf.issuer is material.installed_root
    assert verify_chain([leaf.cert], material.client_store, material.config.now)


def test_forge_unknown_test(material):
    with pytest.raises(ValueError):
        forge_for("T4", "api.example.com", material)


def _one_screen_app(app_id, fqdn, profile, channel="native"):
    screen = Screen(name="home", actions=(Action(label="go", flows=(FlowSpec(fqdn, channel),)),))
    return SyntheticApp(app_id=app_id, profile=profile, screens={"home": screen}, start_screen="home")


def _run_one(material, test, profile, channel="native", policy=POLICY_ALWAYS):
    app = _one_screen_app("com.test.app", "svc.example.com", profile, channel)
    ledger = FlowLedger()
    with MitmEngine(material, test, policy, ledger, grace_seconds=0.3) as engine:
        result = perform_flow(
            app,
            FlowSpec("svc.example.com", channel),
            engine.address,
            material.client_store,
            material.config.now,
        )
    return ledger.records(), result


def test_truth_table_oracle(material):
    apps = [
        _one_screen_app("com.test.secure", "a.example.com", ClientProfile()),
        _one_screen_app(
            "com.test.trusting",
            "a.example.com",
            ClientProfile(trust_behavior="T1", hostname_behavior="H1"),
        ),
    ]
    table = expected_truth_table(apps, material)
    assert table[("com.test.secure", "a.example.com", "T1", "native")] == "secure"
    assert table[("com.test.trusting", "a.example.com", "T1", "native")] == "vulnerable"


def test_engine_vulnerable_flow(material):
    records, result = _run_one(
        material, "T1", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    assert result.accepted is True
    assert [r.outcome for r in records] == ["vulnerable"]
    assert records[0].tls_version in ("TLS1.2", "TLS1.3")
    assert records[0].test_applied == "T1"


def test_engine_secure_flow(material):
    records, result = _run_one(material, "T1", ClientProfile())
    assert result.accepted is False
    assert [r.outcome for r in records] == ["secure"]


def test_engine_skip_policy(material):
    app = _one_screen_app(
        "com.test.app", "svc.example.com", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    ledger = FlowLedger()
    with MitmEngine(material, "T1", POLICY_ONCE, ledger, grace_seconds=0.3) as engine:
        for _ in range(2):
            perform_flow(
                app,
                FlowSpec("svc.example.com", "native"),
                engine.address,
                material.client_store,
                material.config.now,
            )
    assert [r.outcome for r in ledger.records()] == ["vulnerable", "skipped"]
    # the skipped connection was served the legitimate chain
    legit = legit_for("svc.example.com", material)
    assert cert_dns_names(legit.cert) == ["svc.example.com", "svc.example.com"]


def test_engine_inconclusive_on_early_abort(material):
    ledger = FlowLedger()
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        sock = socket.create_connection(engine.address, timeout=5)
        sock.sendall(
            json.dumps({"app_id": "com.test.app", "fqdn": "svc.example.com", "channel": "native"}).encode()
            + b"\n"
        )
        sock.recv(1)  # preamble reply starts flowing
        sock.close()  # abort before any TLS handshake
        deadline = time.monotonic() + 5
        while not ledger.records() and time.monotonic() < deadline:
            time.sleep(0.02)
    assert [r.outcome for r in ledger.records()] == ["inconclusive"]


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "close"])
def test_client_gone_after_reply_is_inconclusive_and_leaves_no_socket(material, reset):
    """A client that leaves right after the preamble reply never saw a certificate."""
    ledger = FlowLedger()
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        for _ in range(20):
            sock = _after_reply(engine.address, "com.test.app")
            if reset:  # close() then sends a reset instead of a FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
    gc.collect()
    assert [r.outcome for r in ledger.records()] == ["inconclusive"] * 20


def test_client_decides_on_the_chain_the_handshake_served(material, monkeypatch):
    """A correct client judges the chain it was served, not the one the engine
    picked: a T1 engine made to serve the legitimate leaf gets accepted."""
    serve = MitmMaterial.serve

    def serve_legit(self, leaf):
        return serve(self, legit_for("svc.example.com", self))

    monkeypatch.setattr(MitmMaterial, "serve", serve_legit)
    records, result = _run_one(material, "T1", ClientProfile())
    assert result.error is None
    assert result.accepted is True
    assert [r.outcome for r in records] == ["vulnerable"]


def test_engine_t3_records_vulnerable_flow(material):
    records, _ = _run_one(
        material, "T3", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    assert records[0].outcome == "vulnerable"


def _count_context_loads(monkeypatch) -> list[str]:
    """Every ``load_cert_chain`` call from here on, by the file it loads."""
    loads = []
    load = ssl.SSLContext.load_cert_chain

    def counting(ctx, certfile, *args, **kwargs):
        loads.append(certfile)
        return load(ctx, certfile, *args, **kwargs)

    monkeypatch.setattr(ssl.SSLContext, "load_cert_chain", counting)
    return loads


def test_t2_engine_builds_one_context_for_every_host(monkeypatch):
    """T2 serves the same leaf whatever the host, so it needs one SSLContext."""
    material = MitmMaterial.generate()  # the session fixture keeps its contexts
    loads = _count_context_loads(monkeypatch)
    profile = ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    ledger = FlowLedger()
    with MitmEngine(material, "T2", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        for fqdn in ("a.example.com", "b.example.com"):
            perform_flow(
                _one_screen_app("com.test.app", fqdn, profile),
                FlowSpec(fqdn, "native"),
                engine.address,
                material.client_store,
                material.config.now,
            )
    assert len(loads) == 1
    assert [r.outcome for r in ledger.records()] == ["vulnerable", "vulnerable"]


def test_engines_share_the_context_of_a_leaf(monkeypatch):
    """The T1-T3 engines of a scan all serve a skipped host's legitimate leaf
    from one SSLContext, loaded once."""
    material = MitmMaterial.generate()
    loads = _count_context_loads(monkeypatch)
    app = _one_screen_app("com.test.app", "svc.example.com", ClientProfile())
    outcomes = []
    for test in TESTS:
        ledger = FlowLedger()
        # Tested once before, so the once-per-host policy skips the host.
        ledger.record_flow(
            app_id="com.test.app", fqdn="svc.example.com", ts_wall="", test_applied=test, outcome="secure"
        )
        with MitmEngine(material, test, POLICY_ONCE, ledger, grace_seconds=0.3) as engine:
            result = perform_flow(
                app,
                FlowSpec("svc.example.com", "native"),
                engine.address,
                material.client_store,
                material.config.now,
            )
        assert result.error is None
        outcomes.append(ledger.records()[-1].outcome)
    assert outcomes == ["skipped"] * 3
    assert len(loads) == 1


def test_engine_issues_no_session_ticket(material, monkeypatch):
    """No client resumes a session, so the engine makes and sends no ticket."""
    sessions = []

    class RecordingSocket(ssl.SSLSocket):
        def close(self):
            sessions.append(self.session)
            super().close()

    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    ctx.verify_mode = ssl.CERT_NONE
    ctx.sslsocket_class = RecordingSocket
    monkeypatch.setattr(appsim, "_client_context", lambda: ctx)
    records, result = _run_one(
        material, "T1", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    assert result.accepted is True
    assert [r.outcome for r in records] == ["vulnerable"]
    assert [s.has_ticket for s in sessions] == [False]


def test_accepting_flows_wait_for_no_delayed_ack(material):
    """The request after Finished goes out at once, not after a ~40 ms delayed ACK."""
    profile = ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    app = _one_screen_app("com.test.app", "svc.example.com", profile)
    durations = []
    with MitmEngine(material, "T1", POLICY_ALWAYS, FlowLedger(), grace_seconds=0.3) as engine:
        for _ in range(15):
            started = time.perf_counter()
            result = perform_flow(
                app,
                FlowSpec("svc.example.com", "native"),
                engine.address,
                material.client_store,
                material.config.now,
            )
            durations.append(time.perf_counter() - started)
            assert result.accepted is True
    assert statistics.median(durations) < 0.030


def test_stop_returns_at_once_without_clients(material):
    engine = MitmEngine(material, "T1", POLICY_ALWAYS, FlowLedger(), grace_seconds=0.3)
    engine.start()
    started = time.monotonic()
    engine.stop()
    assert time.monotonic() - started < 0.2


@pytest.mark.parametrize(
    "profile, outcome",
    [
        (ClientProfile(trust_behavior="T1", hostname_behavior="H1"), "vulnerable"),
        (ClientProfile(), "secure"),
    ],
)
def test_stop_waits_for_every_flow_record(material, profile, outcome):
    """Flows a client finished right before stop() are all in the ledger, in order."""
    fqdns = [f"svc{i}.example.com" for i in range(8)]
    app = _one_screen_app("com.test.app", fqdns[0], profile)
    ledger = FlowLedger()
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        for fqdn in fqdns:
            perform_flow(
                app,
                FlowSpec(fqdn, "native"),
                engine.address,
                material.client_store,
                material.config.now,
            )
    records = ledger.records()
    assert [r.fqdn for r in records] == fqdns
    assert {r.outcome for r in records} == {outcome}


def test_listener_stop_waits_for_handlers_in_flight():
    started, finished = threading.Event(), []

    def handle(conn):
        conn.recv(1)
        started.set()
        time.sleep(0.1)
        finished.append(conn)

    listener = Listener(handle, timeout=5.0)
    with socket.create_connection(listener.start(), timeout=5) as sock:
        sock.sendall(b"x")
        assert started.wait(timeout=5)
        listener.stop()
        assert len(finished) == 1
        assert not listener._handlers


def test_listener_keeps_no_connection_after_its_handler_ends():
    refs = []

    def handle(conn):
        refs.append(weakref.ref(conn))
        conn.recv(1)

    listener = Listener(handle, timeout=5.0)
    address = listener.start()
    try:
        for _ in range(3):
            with socket.create_connection(address, timeout=5) as sock:
                sock.sendall(b"x")
        deadline = time.monotonic() + 5
        while (len(refs) < 3 or listener._handlers) and time.monotonic() < deadline:
            time.sleep(0.01)
        gc.collect()
        assert len(refs) == 3
        assert not listener._handlers
        assert all(ref() is None for ref in refs)
    finally:
        listener.stop()


def _preamble(**fields) -> bytes:
    return json.dumps({"app_id": "com.test.app", "fqdn": "svc.example.com", **fields}).encode() + b"\n"


def _after_reply(address, app_id) -> socket.socket:
    """A connection whose preamble for ``app_id`` the engine has answered."""
    sock = socket.create_connection(address, timeout=5)
    sock.sendall(_preamble(app_id=app_id))
    reply = b""
    while not reply.endswith(b"\n"):
        chunk = sock.recv(4096)
        assert chunk
        reply += chunk
    return sock


@pytest.mark.parametrize(
    "preamble, problem",
    [
        (b"x" * (MAX_PREAMBLE_BYTES + 1), "unterminated or over"),
        (b"not json\n", "not a JSON object"),
        (b"[1]\n", "not a JSON object"),
        (_preamble(fqdn=5), "without a string app_id and fqdn"),
        (_preamble(channel="bogus"), "with unknown channel 'bogus'"),
        (_preamble(fqdn="a..example.com"), "host 'a..example.com', which no flow can request"),
        (_preamble(fqdn="café.example.com"), "host 'café.example.com', which no flow can"),
        (_preamble(fqdn="*.example.com"), "host '*.example.com', which no flow can request"),
    ],
    ids=["oversized", "not-json", "not-an-object", "fqdn-not-a-string", "unknown-channel",
         "empty-label", "non-ascii-host", "wildcard-host"],
)
def test_malformed_preamble_is_dropped_and_logged(material, caplog, preamble, problem):
    """A bad preamble gets no reply and no record, one warning and no traceback."""
    ledger = FlowLedger()
    app = _one_screen_app("com.test.app", "svc.example.com", ClientProfile())
    with caplog.at_level(logging.WARNING, logger="mitmscan.engine"):
        with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
            with socket.create_connection(engine.address, timeout=5) as sock:
                sock.sendall(preamble)
                try:
                    assert sock.recv(1) == b""
                except ConnectionResetError:
                    pass
            # the engine still serves the next flow
            result = perform_flow(
                app,
                FlowSpec("svc.example.com", "native"),
                engine.address,
                material.client_store,
                material.config.now,
            )
    assert result.accepted is False
    assert [r.outcome for r in ledger.records()] == ["secure"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("dropping connection: preamble ")
    assert problem in warnings[0]
    assert not any(r.exc_info for r in caplog.records)


@pytest.mark.parametrize("test", ["T1", "T3"])
def test_mixed_case_host_is_forged_for_the_name_the_ledger_records(material, test):
    app = _one_screen_app(
        "com.test.app", "API.Example.com", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    ledger = FlowLedger()
    with MitmEngine(material, test, POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        result = perform_flow(
            app,
            FlowSpec("API.Example.com", "native"),
            engine.address,
            material.client_store,
            material.config.now,
        )
    assert result.error is None
    assert [(r.fqdn, r.outcome) for r in ledger.records()] == [("api.example.com", "vulnerable")]


def test_hostile_clients_hold_up_no_honest_flow(material):
    """Clients that idle, send garbage or reset delay no flow that starts after them."""
    profile = ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    honest = _one_screen_app("com.test.honest", "svc.example.com", profile)
    ledger = FlowLedger()
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=1.0) as engine:
        with _after_reply(engine.address, "com.test.reset") as reset:
            reset.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        idle_before_preamble = socket.create_connection(engine.address, timeout=5)
        malformed = socket.create_connection(engine.address, timeout=5)
        malformed.sendall(b"not json\n")
        idle_after_handshake = appsim._client_context().wrap_socket(
            _after_reply(engine.address, "com.test.idle"), server_hostname="svc.example.com"
        )
        try:
            time.sleep(0.25)
            started = time.perf_counter()
            result = perform_flow(
                honest,
                FlowSpec("svc.example.com", "native"),
                engine.address,
                material.client_store,
                material.config.now,
            )
            elapsed = time.perf_counter() - started
        finally:
            for sock in (idle_after_handshake, idle_before_preamble, malformed):
                sock.close()
    assert result.accepted is True
    assert elapsed < 0.1
    records = ledger.records()
    assert [r.outcome for r in records if r.app_id == honest.app_id] == ["vulnerable"]
    app_ids = [r.app_id for r in records]
    assert len(app_ids) == len(set(app_ids))
    assert set(app_ids) <= {honest.app_id, "com.test.idle", "com.test.reset"}


@pytest.mark.parametrize(
    "policy, profile, first",
    [
        (POLICY_ONCE, ClientProfile(), "secure"),
        (
            POLICY_UNTIL_VULNERABLE,
            ClientProfile(trust_behavior="T1", hostname_behavior="H1", webview_behavior="W1"),
            "vulnerable",
        ),
    ],
    ids=["reject-once", "accept-until-vulnerable"],
)
def test_next_flow_decides_on_the_flow_before(material, policy, profile, first):
    """A sequential client's second flow to a host is skipped on its first's outcome."""
    ledger = FlowLedger()
    apps = [_one_screen_app(f"com.test.app{i}", "svc.example.com", profile) for i in range(100)]
    with MitmEngine(material, "T1", policy, ledger, grace_seconds=0.3) as engine:
        for app in apps:
            for channel in CHANNELS:
                perform_flow(
                    app,
                    FlowSpec("svc.example.com", channel),
                    engine.address,
                    material.client_store,
                    material.config.now,
                )
    assert [(r.app_id, r.channel, r.outcome) for r in ledger.records()] == [
        (app.app_id, channel, outcome)
        for app in apps
        for channel, outcome in zip(CHANNELS, (first, "skipped"))
    ]


def test_concurrent_flows_land_once_each_in_file_order(material, tmp_path):
    path = tmp_path / "ledger.jsonl"
    ledger = FlowLedger(path)
    profiles = (ClientProfile(trust_behavior="T1", hostname_behavior="H1"), ClientProfile())
    apps = [
        _one_screen_app(f"com.test.app{i}", "svc.example.com", profiles[i % 2]) for i in range(8)
    ]
    ready = threading.Barrier(len(apps))
    results = {}

    def run(app):
        ready.wait(timeout=10)
        results[app.app_id] = perform_flow(
            app,
            FlowSpec("svc.example.com", "native"),
            engine.address,
            material.client_store,
            material.config.now,
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost update would show
    try:
        with MitmEngine(material, "T1", POLICY_UNTIL_VULNERABLE, ledger, grace_seconds=0.3) as engine:
            threads = [threading.Thread(target=run, args=(app,)) for app in apps]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [results[app.app_id].accepted for app in apps] == [True, False] * 4
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert [line["ts_mono"] for line in lines] == list(range(8))
    assert sorted(line["app_id"] for line in lines) == sorted(app.app_id for app in apps)
    reloaded = FlowLedger(path)
    for app in apps:
        for policy in POLICIES:
            for test in TESTS:
                key = (app.app_id, "svc.example.com", policy, test)
                assert reloaded.decide_retest(*key) == ledger.decide_retest(*key)
