import gc
import json
import logging
import socket
import ssl
import statistics
import struct
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
    parse_chain_pem,
)
from mitmscan.fleet import expected_truth_table
from mitmscan.flowledger import POLICY_ALWAYS, POLICY_ONCE, TESTS, FlowLedger, FlowRecord
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


@pytest.mark.filterwarnings("error::ResourceWarning")
@pytest.mark.filterwarnings("error::pytest.PytestUnraisableExceptionWarning")
@pytest.mark.parametrize("reset", [True, False], ids=["reset", "close"])
def test_client_gone_after_reply_is_inconclusive_and_leaves_no_socket(material, reset):
    """A client that leaves right after the preamble reply never saw a certificate."""
    preamble = json.dumps(
        {"app_id": "com.test.app", "fqdn": "svc.example.com", "channel": "native"}
    ).encode() + b"\n"
    ledger = FlowLedger()
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        for _ in range(20):
            sock = socket.create_connection(engine.address, timeout=5)
            sock.sendall(preamble)
            reply = b""
            while not reply.endswith(b"\n"):
                chunk = sock.recv(4096)
                assert chunk
                reply += chunk
            if reset:  # close() then sends a reset instead of a FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
    gc.collect()
    assert [r.outcome for r in ledger.records()] == ["inconclusive"] * 20


def test_preamble_chain_matches_presented(material):
    """The chain echoed in the preamble is the chain served in the handshake."""
    ledger = FlowLedger()
    with MitmEngine(material, "T2", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        sock = socket.create_connection(engine.address, timeout=5)
        sock.sendall(
            json.dumps({"app_id": "com.test.app", "fqdn": "svc.example.com", "channel": "native"}).encode()
            + b"\n"
        )
        buf = b""
        while not buf.endswith(b"\n"):
            buf += sock.recv(1)
        reply = json.loads(buf)
        chain = parse_chain_pem(reply["chain_pem"])
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        ctx.check_hostname = False
        ctx.verify_mode = ssl.CERT_NONE
        tls = ctx.wrap_socket(sock, server_hostname="svc.example.com")
        presented = tls.getpeercert(binary_form=True)
        from cryptography.hazmat.primitives import serialization

        assert chain[0].public_bytes(serialization.Encoding.DER) == presented
        tls.close()


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
            FlowRecord("com.test.app", "svc.example.com", "", 0, test_applied=test, outcome="secure")
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


def test_oversized_preamble_is_dropped_and_logged(material, caplog):
    ledger = FlowLedger()
    app = _one_screen_app("com.test.app", "svc.example.com", ClientProfile())
    with caplog.at_level(logging.WARNING, logger="mitmscan.engine"):
        with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
            with socket.create_connection(engine.address, timeout=5) as sock:
                sock.sendall(b"x" * (MAX_PREAMBLE_BYTES + 1))
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
    assert "preamble unterminated or over" in caplog.text
