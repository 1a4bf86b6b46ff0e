import contextlib
import gc
import importlib
import json
import logging
import logging.handlers
import os
import socket
import ssl
import statistics
import struct
import sys
import tempfile
import threading
import time
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mitmscan import appsim
from mitmscan.appsim import Action, FlowSpec, SyntheticApp, perform_flow
from mitmscan.certforge import DEFAULT_NOW, cert_dns_names, verify_chain
from mitmscan.engine import (
    ATTACKER_NAME,
    MAX_PREAMBLE_BYTES,
    Listener,
    MitmEngine,
    MitmMaterial,
    _read_preamble,
    forge_for,
)
from mitmscan.flowledger import (
    CHANNELS,
    POLICY_ALWAYS,
    POLICY_ONCE,
    POLICY_UNTIL_VULNERABLE,
    TESTS,
    FlowLedger,
    read_ledger,
)
from mitmscan.profiles import ClientProfile


def test_forge_t1_untrusted_root(material):
    leaf = forge_for("T1", "api.example.com", material)
    assert cert_dns_names(leaf.cert) == ["api.example.com", "api.example.com"]
    assert leaf.issuer is material.untrusted_root
    assert not verify_chain([leaf.cert], material.client_store, DEFAULT_NOW)


def test_forge_t2_wrong_name_valid_chain(material):
    leaf = forge_for("T2", "api.example.com", material)
    assert cert_dns_names(leaf.cert) == [ATTACKER_NAME, ATTACKER_NAME]
    assert verify_chain([leaf.cert], material.client_store, DEFAULT_NOW)


def test_forge_t3_installed_root(material):
    leaf = forge_for("T3", "api.example.com", material)
    assert leaf.issuer is material.installed_root
    assert verify_chain([leaf.cert], material.client_store, DEFAULT_NOW)


def test_forge_unknown_test(material):
    # forge_for trusts its test: the engine that calls it rejects an unknown one when it is made.
    with pytest.raises(ValueError, match="unknown test"):
        MitmEngine(material, "T4", POLICY_ALWAYS, FlowLedger())


def _one_screen_app(app_id, fqdn, profile, channel="native"):
    home = (Action(label="go", flows=(FlowSpec(fqdn, channel),)),)
    return SyntheticApp(app_id=app_id, profile=profile, screens={"home": home}, start_screen="home")


def _run_one(ledger_file, material, test, profile, channel="native", policy=POLICY_ALWAYS):
    path, read = ledger_file
    app = _one_screen_app("com.test.app", "svc.example.com", profile, channel)
    with MitmEngine(material, test, policy, FlowLedger(path), grace_seconds=0.3) as engine:
        result = perform_flow(
            app,
            FlowSpec("svc.example.com", channel),
            engine.address,
            material.client_store,
        )
    return read(), result


def test_engine_vulnerable_flow(material, ledger_file):
    records, result = _run_one(
        ledger_file, material, "T1", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    assert result.accepted is True
    assert [r.outcome for r in records] == ["vulnerable"]
    assert records[0].tls_version in ("TLS1.2", "TLS1.3")
    assert records[0].test_applied == "T1"


def test_engine_secure_flow(material, ledger_file):
    records, result = _run_one(ledger_file, material, "T1", ClientProfile())
    assert result.accepted is False
    assert [r.outcome for r in records] == ["secure"]


def test_engine_skip_policy(material, ledger_file):
    app = _one_screen_app(
        "com.test.app", "svc.example.com", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    path, read = ledger_file
    ledger = FlowLedger(path)
    with MitmEngine(material, "T1", POLICY_ONCE, ledger, grace_seconds=0.3) as engine:
        for _ in range(2):
            perform_flow(
                app,
                FlowSpec("svc.example.com", "native"),
                engine.address,
                material.client_store,
            )
    assert [r.outcome for r in read()] == ["vulnerable", "skipped"]


def test_engine_inconclusive_on_early_abort(material, ledger_file):
    path, read = ledger_file
    ledger = FlowLedger(path)
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        sock = socket.create_connection(engine.address, timeout=5)
        sock.sendall(
            json.dumps({"app_id": "com.test.app", "fqdn": "svc.example.com", "channel": "native"}).encode()
            + b"\n"
        )
        sock.recv(1)  # preamble reply starts flowing
        sock.close()  # abort before any TLS handshake
        deadline = time.monotonic() + 5
        while not read() and time.monotonic() < deadline:
            time.sleep(0.02)
    assert [r.outcome for r in read()] == ["inconclusive"]


@pytest.mark.parametrize("reset", [True, False], ids=["reset", "close"])
def test_client_gone_after_reply_is_inconclusive_and_leaves_no_socket(
    material, reset, ledger_file
):
    """A client that leaves right after the preamble reply never saw a certificate."""
    path, read = ledger_file
    ledger = FlowLedger(path)
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        for _ in range(20):
            sock = _after_reply(engine.address, "com.test.app")
            if reset:  # close() then sends a reset instead of a FIN
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()
    gc.collect()
    assert [r.outcome for r in read()] == ["inconclusive"] * 20


def test_client_decides_on_the_chain_the_handshake_served(material, monkeypatch, ledger_file):
    """A correct client judges the chain it was served, not the one the engine
    picked: a T1 engine made to serve the legitimate leaf gets accepted."""
    serve = MitmMaterial.serve

    def serve_legit(self, leaf):
        return serve(self, self.leaf_for(self.lab_trusted_root, "svc.example.com"))

    monkeypatch.setattr(MitmMaterial, "serve", serve_legit)
    records, result = _run_one(ledger_file, material, "T1", ClientProfile())
    assert result.error is None
    assert result.accepted is True
    assert [r.outcome for r in records] == ["vulnerable"]


def test_a_leaf_that_cannot_be_served_records_its_flow_inconclusive(
    material, monkeypatch, caplog, ledger_file
):
    """A serve that fails, say in its temp file or in load_cert_chain, loses no flow."""
    serve = MitmMaterial.serve

    def serve_or_fail(self, leaf):
        if "broken.example.com" in cert_dns_names(leaf.cert):
            raise OSError("no space left on device")
        return serve(self, leaf)

    monkeypatch.setattr(MitmMaterial, "serve", serve_or_fail)
    profile = ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    path, read = ledger_file
    with caplog.at_level(logging.WARNING, logger="mitmscan.engine"):
        with MitmEngine(material, "T1", POLICY_ALWAYS, FlowLedger(path), grace_seconds=0.3) as engine:
            results = [
                perform_flow(
                    _one_screen_app("com.test.app", fqdn, profile),
                    FlowSpec(fqdn, "native"),
                    engine.address,
                    material.client_store,
                )
                for fqdn in ("broken.example.com", "svc.example.com")
            ]
    assert [(r.fqdn, r.outcome) for r in read()] == [
        ("broken.example.com", "inconclusive"), ("svc.example.com", "vulnerable")
    ]
    assert results[0].accepted is None and results[0].error is not None
    assert results[1].accepted is True
    assert "connection handler error" not in caplog.text


def test_engine_t3_records_vulnerable_flow(material, ledger_file):
    records, _ = _run_one(
        ledger_file, material, "T3", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    assert records[0].outcome == "vulnerable"


def test_t2_engine_builds_one_context_for_every_host(context_loads, ledger_file):
    """T2 serves the same leaf whatever the host, so it needs one SSLContext."""
    material = MitmMaterial.generate()  # the session fixture keeps its contexts
    profile = ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    path, read = ledger_file
    ledger = FlowLedger(path)
    with MitmEngine(material, "T2", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        for fqdn in ("a.example.com", "b.example.com"):
            perform_flow(
                _one_screen_app("com.test.app", fqdn, profile),
                FlowSpec(fqdn, "native"),
                engine.address,
                material.client_store,
            )
    assert len(context_loads) == 1
    assert [r.outcome for r in read()] == ["vulnerable", "vulnerable"]


def test_skipped_flows_are_recorded_and_not_intercepted(monkeypatch, context_loads, ledger_file):
    """A flow the once-per-host policy skips gets no leaf, context or handshake:
    each engine records it skipped, with no TLS version, and its client sees no verdict.
    A raw client reads exactly the line ``skip`` and then the engine's close."""
    material = MitmMaterial.generate()
    wraps, leaves = [], []
    monkeypatch.setattr(appsim, "_client_context", lambda: wraps.append(1))
    monkeypatch.setattr("mitmscan.engine.issue_leaf", lambda *args: leaves.append(args))
    app = _one_screen_app("com.test.app", "svc.example.com", ClientProfile())
    path, read = ledger_file
    for test in TESTS:
        ledger = FlowLedger(path)
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
            )
            with socket.create_connection(engine.address, timeout=5) as sock:
                sock.sendall(_preamble())
                assert _read_to_eof(sock) == b"skip\n"
        assert (result.route, result.accepted, result.error) == ("MITM", None, None)
        assert [(r.outcome, r.tls_version) for r in read()[1:]] == [("skipped", "unknown")] * 2
    assert leaves == []
    assert context_loads == []
    assert wraps == []


def test_engine_issues_no_session_ticket(material, monkeypatch, ledger_file):
    """No client resumes a session, so the engine makes and sends no ticket."""
    sessions = []

    class RecordingSocket(ssl.SSLSocket):
        def shutdown(self, how):
            sessions.append(self.session)  # shutdown() drops the TLS state, session included
            super().shutdown(how)

    ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
    ctx.check_hostname = False
    ctx.verify_mode = ssl.CERT_NONE
    ctx.sslsocket_class = RecordingSocket
    monkeypatch.setattr(appsim, "_client_context", lambda: ctx)
    records, result = _run_one(
        ledger_file, material, "T1", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    assert result.accepted is True
    assert [r.outcome for r in records] == ["vulnerable"]
    assert [s.has_ticket for s in sessions] == [False]


def test_benchmark_openssl_client_decides_on_the_live_engine(material, monkeypatch):
    """perfbench's OpenSSL client (CERT_REQUIRED, check_hostname) still speaks the wire:
    it rejects the T1 and T2 chains and accepts the T3 one."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    checks = importlib.import_module("checks")
    verdicts = checks.ssl_verdicts(material, ["svc.example.com"])
    assert verdicts == {
        ("T1", "svc.example.com"): False,
        ("T2", "svc.example.com"): False,
        ("T3", "svc.example.com"): True,
    }


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
def test_stop_waits_for_every_flow_record(material, profile, outcome, ledger_file):
    """Flows a client finished right before stop() are all in the ledger, in order."""
    fqdns = [f"svc{i}.example.com" for i in range(8)]
    app = _one_screen_app("com.test.app", fqdns[0], profile)
    path, read = ledger_file
    ledger = FlowLedger(path)
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        for fqdn in fqdns:
            perform_flow(
                app,
                FlowSpec(fqdn, "native"),
                engine.address,
                material.client_store,
            )
    records = read()
    assert [r.fqdn for r in records] == fqdns
    assert {r.outcome for r in records} == {outcome}


def test_listener_stop_waits_for_handlers_in_flight():
    started, finished, workers = threading.Event(), [], []

    def handle(conn):
        workers.append(threading.current_thread())
        conn.recv(1)
        started.set()
        time.sleep(0.1)
        finished.append(conn)

    before = set(threading.enumerate())
    listener = Listener(handle)
    with socket.create_connection(listener.start(), timeout=5) as sock:
        sock.sendall(b"x")
        assert started.wait(timeout=5)
        listener.stop()
        assert len(finished) == 1
        assert not any(worker.is_alive() for worker in workers)
        assert set(threading.enumerate()) <= before  # no listener thread is left


def test_listener_keeps_no_connection_after_its_handler_ends():
    """A worker back in accept() holds nothing of the connection it served."""
    refs, finished = [], []

    def handle(conn):
        refs.append(weakref.ref(conn))
        conn.recv(1)
        finished.append(True)

    listener = Listener(handle)
    address = listener.start()
    try:
        for _ in range(3):
            with socket.create_connection(address, timeout=5) as sock:
                sock.sendall(b"x")
        deadline = time.monotonic() + 5
        while (len(finished) < 3 or any(ref() for ref in refs)) and time.monotonic() < deadline:
            time.sleep(0.01)
            gc.collect()
        assert len(finished) == 3
        assert all(ref() is None for ref in refs)
    finally:
        listener.stop()


def _read_to_eof(sock: socket.socket) -> bytes:
    data = b""
    while chunk := sock.recv(4096):
        data += chunk
    return data


def test_listener_serves_sequential_connections_on_two_workers():
    """A worker waits in accept() while the other serves, and neither is replaced.
    It hands each connection over with no timeout: the handler sets the one it needs."""
    workers, timeouts = set(), set()

    def handle(conn):
        workers.add(threading.current_thread())
        timeouts.add(conn.gettimeout())
        conn.sendall(b"x")

    listener = Listener(handle)
    address = listener.start()
    try:
        for _ in range(50):
            with socket.create_connection(address, timeout=5) as sock:
                assert _read_to_eof(sock) == b"x"
    finally:
        listener.stop()
    assert len(workers) <= 2
    assert timeouts == {None}


def test_listener_grows_to_serve_overlapping_connections_at_once():
    """Connections that overlap are served side by side, by one worker each and one spare."""
    n = 8
    together = threading.Barrier(n, timeout=5)
    workers = set()

    def handle(conn):
        workers.add(threading.current_thread())
        conn.recv(1)
        together.wait()  # breaks unless all n connections are being served at once
        conn.sendall(b"ok")

    before = set(threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a lost count would show
    listener = Listener(handle)
    address = listener.start()
    try:
        socks = [socket.create_connection(address, timeout=5) for _ in range(n)]
        try:
            for sock in socks:
                sock.sendall(b"x")
            replies = [_read_to_eof(sock) for sock in socks]
        finally:
            for sock in socks:
                sock.close()
        started = set(threading.enumerate()) - before
    finally:
        listener.stop()
        sys.setswitchinterval(interval)
    assert replies == [b"ok"] * n
    assert len(workers) == n
    assert len(started) <= n + 1


def test_listener_keeps_serving_after_a_handler_error(caplog):
    workers = []

    def handle(conn):
        workers.append(threading.current_thread())
        if conn.recv(1) == b"!":
            raise RuntimeError("handler failed")
        conn.sendall(b"ok")

    listener = Listener(handle)
    address = listener.start()
    try:
        with caplog.at_level(logging.WARNING, logger="mitmscan.engine"):
            for request, reply in ((b"!", b""), (b"x", b"ok"), (b"!", b""), (b"x", b"ok")):
                with socket.create_connection(address, timeout=5) as sock:
                    sock.sendall(request)
                    assert _read_to_eof(sock) == reply
    finally:
        listener.stop()
    assert len(set(workers)) <= 2
    assert caplog.text.count("connection handler error: handler failed") == 2


def test_listener_serves_the_connection_when_no_worker_can_start(monkeypatch, caplog):
    served = []

    def handle(conn):
        served.append(conn.recv(1))

    listener = Listener(handle)
    address = listener.start()

    def refuse(thread):
        raise RuntimeError("can't start new thread")

    try:
        monkeypatch.setattr(threading.Thread, "start", refuse)
        with caplog.at_level(logging.WARNING, logger="mitmscan.engine"):
            with socket.create_connection(address, timeout=5) as sock:
                sock.sendall(b"x")
                assert _read_to_eof(sock) == b""
    finally:
        monkeypatch.undo()
        listener.stop()
    assert served == [b"x"]
    assert "could not start a listener worker" in caplog.text


def _preamble(**fields) -> bytes:
    preamble = {"app_id": "com.test.app", "fqdn": "svc.example.com", "channel": "native", **fields}
    return json.dumps(preamble).encode() + b"\n"


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
        (b'{"app_id": "com.test.app", "fqdn": "svc.example.com"}\n', "with unknown channel None"),
        (_preamble(fqdn="a..example.com"), "host 'a..example.com', which no flow can request"),
        (_preamble(fqdn="café.example.com"), "host 'café.example.com', which no flow can"),
        (_preamble(fqdn="*.example.com"), "host '*.example.com', which no flow can request"),
    ],
    ids=["oversized", "not-json", "not-an-object", "fqdn-not-a-string", "unknown-channel",
         "missing-channel", "empty-label", "non-ascii-host", "wildcard-host"],
)
def test_malformed_preamble_is_dropped_and_logged(material, caplog, preamble, problem, ledger_file):
    """A bad preamble gets no reply and no record, one warning and no traceback."""
    path, read = ledger_file
    ledger = FlowLedger(path)
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
            )
    assert result.accepted is False
    assert [r.outcome for r in read()] == ["secure"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("dropping connection: preamble ")
    assert problem in warnings[0]
    assert not any(r.exc_info for r in caplog.records)


def test_dripped_preamble_is_dropped_at_the_deadline(caplog):
    """A preamble still unterminated at the connection's deadline is dropped, however
    steadily its bytes arrive."""
    engine_side, client = socket.socketpair()
    engine_side.settimeout(1.0)
    stopped = threading.Event()

    def drip():
        for byte in _preamble():
            if stopped.wait(0.3):
                return
            client.sendall(bytes([byte]))

    dripper = threading.Thread(target=drip)
    dripper.start()
    try:
        with caplog.at_level(logging.WARNING, logger="mitmscan.engine"):
            started = time.monotonic()
            assert _read_preamble(engine_side, started + engine_side.gettimeout()) is None
            elapsed = time.monotonic() - started
    finally:
        stopped.set()
        dripper.join()
        engine_side.close()
        client.close()
    assert elapsed < 1.5
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert warnings[0].startswith("dropping connection: preamble unterminated or over")
    assert not any(r.exc_info for r in caplog.records)


def test_every_read_of_a_connection_waits_no_longer_than_its_deadline(material, ledger_file):
    """The engine bounds each read by the time its connection has left, on a socket
    the listener handed over with no timeout."""
    timeouts = []

    class Watched(socket.socket):
        def recv(self, *args):
            timeouts.append(self.gettimeout())
            return super().recv(*args)

    engine_side, client = socket.socketpair()
    engine_side = Watched(fileno=engine_side.detach())
    path, read = ledger_file
    engine = MitmEngine(material, "T1", POLICY_ALWAYS, FlowLedger(path), grace_seconds=0.3)
    with engine_side, client:
        assert engine_side.gettimeout() is None
        client.sendall(_preamble())
        client.shutdown(socket.SHUT_WR)  # gone before its ClientHello
        engine._handle_connection(engine_side)
    assert [r.outcome for r in read()] == ["inconclusive"]
    assert len(timeouts) >= 2  # the preamble and the wait for a ClientHello
    assert all(timeout is not None and 0 < timeout <= 5.0 for timeout in timeouts)


def _handshake(address) -> ssl.SSLSocket:
    """A client TLS socket whose handshake with the engine is done."""
    return appsim._client_context().wrap_socket(
        _after_reply(address, "com.test.app"), server_hostname="svc.example.com"
    )


def _send_ping(address):
    with _handshake(address) as tls:
        tls.sendall(b"ping")
        assert _read_to_eof(tls) == b""  # the engine records the flow and closes


def _close_after_handshake(address):
    _handshake(address).close()


def _reject_chain(version):
    def client(address):
        ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)  # CERT_REQUIRED, and trusts no root
        ctx.maximum_version = version
        with _after_reply(address, "com.test.app") as sock:
            with pytest.raises(ssl.SSLCertVerificationError):
                ctx.wrap_socket(sock, server_hostname="svc.example.com")
    return client


def _idle_past_grace(address):
    with _handshake(address) as tls:
        assert _read_to_eof(tls) == b""


def _reset_after_reply(address):
    # After the reply, not straight after the preamble: a reset that beats the
    # engine's first read discards the preamble unread, and then no flow exists.
    sock = _after_reply(address, "com.test.app")
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
    sock.close()


def _send_after_reply(payload):
    def client(address):
        with _after_reply(address, "com.test.app") as sock:
            sock.sendall(payload)
            with contextlib.suppress(ConnectionResetError):  # the engine left bytes unread
                _read_to_eof(sock)
    return client


def _client_hello(version: bytes) -> bytes:
    """A ClientHello record offering ``version`` and one cipher suite, with no extensions."""
    body = version + bytes(32) + b"\x00" + b"\x00\x02\x00\x2f" + b"\x01\x00"
    handshake = b"\x01" + len(body).to_bytes(3, "big") + body
    return b"\x16\x03\x01" + len(handshake).to_bytes(2, "big") + handshake


@pytest.mark.parametrize(
    "client, outcome",
    [
        (_send_ping, "vulnerable"),
        (_close_after_handshake, "secure"),
        (_reject_chain(ssl.TLSVersion.TLSv1_2), "secure"),
        (_reject_chain(ssl.TLSVersion.TLSv1_3), "secure"),
        (_idle_past_grace, "inconclusive"),
        (_reset_after_reply, "inconclusive"),
        (_send_after_reply(b"GET / HTTP/1.1\r\nHost: svc.example.com\r\n\r\n"), "inconclusive"),
        (_send_after_reply(_client_hello(b"\x03\x02")), "inconclusive"),
    ],
    ids=["ping", "close", "reject-tls1.2", "reject-tls1.3", "idle", "reset-after-reply",
         "http-request", "tls1.1-only"],
)
def test_each_client_leaves_one_record_with_the_verdict_it_gave(
    material, caplog, client, outcome, ledger_file
):
    """Data is vulnerable, an alert or a clean close is secure, and anything else
    shows nothing about the chain."""
    path, read = ledger_file
    with caplog.at_level(logging.WARNING, logger="mitmscan.engine"):
        with MitmEngine(material, "T1", POLICY_ALWAYS, FlowLedger(path), grace_seconds=0.3) as engine:
            client(engine.address)
    assert [r.outcome for r in read()] == [outcome]
    assert not any(r.exc_info for r in caplog.records)


def test_client_hello_sent_with_the_preamble_is_left_for_the_handshake(material, ledger_file):
    """A ClientHello in the same segment as the preamble is not read away with it,
    exactly the line ``test`` comes before the handshake, and the engine's close
    ends the flow after the request."""
    path, read = ledger_file
    ledger = FlowLedger(path)
    incoming, outgoing = ssl.MemoryBIO(), ssl.MemoryBIO()
    tls = appsim._client_context().wrap_bio(incoming, outgoing, server_hostname="svc.example.com")
    with pytest.raises(ssl.SSLWantReadError):
        tls.do_handshake()
    with MitmEngine(material, "T1", POLICY_ALWAYS, ledger, grace_seconds=1.0) as engine:
        started = time.perf_counter()
        with socket.create_connection(engine.address, timeout=2) as sock:
            sock.sendall(_preamble() + outgoing.read())
            stream = b""
            while b"\n" not in stream:
                stream += sock.recv(4096)
            reply, _, handshake = stream.partition(b"\n")
            incoming.write(handshake)
            while True:
                try:
                    tls.do_handshake()
                    break
                except ssl.SSLWantReadError:
                    sock.sendall(outgoing.read())
                    incoming.write(sock.recv(4096))
            tls.write(b"ping")
            sock.sendall(outgoing.read())
            assert _read_to_eof(sock) == b""  # the engine records the flow and closes
        elapsed = time.perf_counter() - started
    assert reply == b"test"
    assert [r.outcome for r in read()] == ["vulnerable"]
    assert elapsed < 1.0


@pytest.mark.parametrize("test", ["T1", "T3"])
def test_mixed_case_host_is_forged_for_the_name_the_ledger_records(material, test, ledger_file):
    app = _one_screen_app(
        "com.test.app", "API.Example.com", ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    )
    path, read = ledger_file
    ledger = FlowLedger(path)
    with MitmEngine(material, test, POLICY_ALWAYS, ledger, grace_seconds=0.3) as engine:
        result = perform_flow(
            app,
            FlowSpec("API.Example.com", "native"),
            engine.address,
            material.client_store,
        )
    assert result.error is None
    assert [(r.fqdn, r.outcome) for r in read()] == [("api.example.com", "vulnerable")]


def test_hostile_clients_hold_up_no_honest_flow(material, ledger_file):
    """Clients that idle, send garbage or reset delay no flow that starts after them."""
    profile = ClientProfile(trust_behavior="T1", hostname_behavior="H1")
    honest = _one_screen_app("com.test.honest", "svc.example.com", profile)
    path, read = ledger_file
    ledger = FlowLedger(path)
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
            )
            elapsed = time.perf_counter() - started
        finally:
            for sock in (idle_after_handshake, idle_before_preamble, malformed):
                sock.close()
    assert result.accepted is True
    assert elapsed < 0.1
    records = read()
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
def test_next_flow_decides_on_the_flow_before(material, policy, profile, first, ledger_file):
    """A sequential client's second flow to a host is skipped on its first's outcome."""
    path, read = ledger_file
    ledger = FlowLedger(path)
    apps = [_one_screen_app(f"com.test.app{i}", "svc.example.com", profile) for i in range(100)]
    with MitmEngine(material, "T1", policy, ledger, grace_seconds=0.3) as engine:
        for app in apps:
            for channel in CHANNELS:
                perform_flow(
                    app,
                    FlowSpec("svc.example.com", channel),
                    engine.address,
                    material.client_store,
                )
    assert [(r.app_id, r.channel, r.outcome) for r in read()] == [
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
    outcomes = {r.app_id: r.outcome for r in read_ledger(path)}
    assert [outcomes[app.app_id] for app in apps] == ["vulnerable", "secure"] * 4



_BAD_HOSTS = ("a..example.com", "*.example.com", "café.example.com", "-a.example.com", "")


@st.composite
def _wire_clients(draw):
    """Up to 8 connections, each as (bytes sent, cut points, valid); a valid one's app id
    is ``com.fuzz.c<index>``."""
    clients = []
    for i in range(draw(st.integers(1, 8))):
        app_id = f"com.fuzz.c{i}"
        kind = draw(st.sampled_from(
            ["valid", "unterminated", "not-json", "not-an-object", "bad-host", "unknown-channel"]
        ))
        if kind == "valid":
            channel = draw(st.sampled_from(CHANNELS))
            data = _preamble(app_id=app_id, channel=channel) + draw(st.binary(max_size=32))
        elif kind == "unterminated":
            line = _preamble(app_id=app_id)
            data = line[: draw(st.integers(1, len(line) - 1))]
        elif kind == "not-json":
            data = b"not json " + draw(st.binary(max_size=16)).replace(b"\n", b"") + b"\n"
        elif kind == "not-an-object":
            value = draw(st.one_of(st.none(), st.integers(), st.text(max_size=8),
                                   st.lists(st.integers(), max_size=3)))
            data = json.dumps(value).encode() + b"\n"
        elif kind == "bad-host":
            data = _preamble(app_id=app_id, fqdn=draw(st.sampled_from(_BAD_HOSTS)))
        else:
            data = _preamble(app_id=app_id, channel=draw(st.text(max_size=8).filter(
                lambda c: c not in CHANNELS)))
        cuts = sorted(draw(st.lists(st.integers(0, len(data)), max_size=4)))
        clients.append((data, cuts, kind == "valid"))
    return clients


def _send_in_splits(address, data: bytes, cuts: list[int]) -> None:
    """Send ``data`` cut at ``cuts``, then shut the write side and read to the engine's close."""
    try:
        with socket.create_connection(address, timeout=5) as sock:
            for start, end in zip([0, *cuts], [*cuts, len(data)]):
                if end > start:
                    sock.sendall(data[start:end])
            sock.shutdown(socket.SHUT_WR)
            _read_to_eof(sock)
    except OSError:
        pass  # an engine that closes with bytes of ours unread sends a reset


@settings(max_examples=40, deadline=None)
@given(clients=_wire_clients())
def test_every_connection_is_recorded_or_dropped_once(material, clients):
    """One record per valid preamble, one warning per invalid one, no traceback, and
    nothing of the engine left after ``stop()``, however the bytes are split."""
    threads_before = set(threading.enumerate())
    fds_before = set(os.listdir("/proc/self/fd"))
    handler = logging.handlers.BufferingHandler(capacity=10_000)
    engine_log = logging.getLogger("mitmscan.engine")
    engine_log.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "ledger.jsonl"
            with MitmEngine(material, "T1", POLICY_ALWAYS, FlowLedger(path), grace_seconds=0.3) as engine:
                for data, cuts, _ in clients:
                    _send_in_splits(engine.address, data, cuts)
            recorded = sorted(r.app_id for r in read_ledger(path))
    finally:
        engine_log.removeHandler(handler)
    assert recorded == sorted(f"com.fuzz.c{i}" for i, (*_, valid) in enumerate(clients) if valid)
    messages = [r.getMessage() for r in handler.buffer]
    dropped = [m for m in messages if m.startswith("dropping connection: preamble ")]
    assert len(dropped) == sum(not valid for *_, valid in clients)
    assert not any("connection handler error" in m for m in messages)
    assert not any(r.exc_info for r in handler.buffer)
    assert set(threading.enumerate()) <= threads_before
    assert set(os.listdir("/proc/self/fd")) <= fds_before
