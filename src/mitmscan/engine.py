"""TLS interception engine: terminate flows with forged chains, classify outcomes.

Connections arrive over localhost TCP with a one-line JSON preamble carrying
the forwarder metadata (app id, destination FQDN, channel); it stands in for
the per-app VPN forwarder. A preamble over ``MAX_PREAMBLE_BYTES``,
unterminated or malformed drops the connection with one warning and no
reply. Otherwise the engine answers with a one-line JSON reply,
``{"action": "test" | "skip"}``, then runs a real TLS handshake over the
same socket, and clients decide on the chain that handshake served. Clients
read the reply and use none of it: it stays only because the benchmark's
OpenSSL check, ``perfbench/checks.ssl_verdicts``, waits for a line before
its handshake, and it goes when that check stops.

The engine records a flow before it echoes the client's data or closes the
connection, so a finished flow is in the ledger by the time its client sees
the flow end, and a client's next flow decides on it. No lock is held across
a handshake or a wait: one idle or broken client holds up no other.
"""

from __future__ import annotations

import datetime
import json
import logging
import socket
import ssl
import tempfile
import threading
from dataclasses import dataclass, field

from .certforge import (
    DEFAULT_NOW,
    CertConfig,
    LeafCertificate,
    RootAuthority,
    TrustStore,
    issue_leaf,
    key_pem,
    make_root,
)
from .flowledger import CHANNELS, TESTS, FlowLedger, is_requestable, normalize_fqdn

log = logging.getLogger(__name__)

ATTACKER_NAME = "attacker.invalid"
FROZEN_WALL_TS = DEFAULT_NOW.isoformat()
MAX_PREAMBLE_BYTES = 4096


def wall_clock(frozen: bool) -> str:
    """The wall time to write: ``FROZEN_WALL_TS`` under --freeze-time, else now (UTC)."""
    if frozen:
        return FROZEN_WALL_TS
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


@dataclass
class MitmMaterial:
    """Roots and stores needed by the three test categories."""

    untrusted_root: RootAuthority
    lab_trusted_root: RootAuthority
    installed_root: RootAuthority
    client_store: TrustStore
    config: CertConfig = field(default_factory=CertConfig)
    # (issuing root name, leaf name) -> leaf, and leaf -> the server context
    # presenting it, which every engine of a scan shares. Both are
    # deterministic, so a race between handler threads at worst builds one twice.
    _leaves: dict[tuple[str, str], LeafCertificate] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )
    _served: dict[LeafCertificate, ssl.SSLContext] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @classmethod
    def generate(cls, config: CertConfig | None = None) -> "MitmMaterial":
        config = config or CertConfig()
        untrusted = make_root("attacker-untrusted", config)
        lab = make_root("lab-trusted", config)
        installed = make_root("installed-root", config)
        return cls(
            untrusted_root=untrusted,
            lab_trusted_root=lab,
            installed_root=installed,
            client_store=TrustStore([lab, installed]),
            config=config,
        )

    def leaf_for(self, root: RootAuthority, name: str) -> LeafCertificate:
        """The 90-day leaf ``root`` issues for ``name``, signed once per material."""
        key = (root.name, name)
        leaf = self._leaves.get(key)
        if leaf is None:
            leaf = self._leaves[key] = issue_leaf(root, name, [name], 90, self.config)
        return leaf

    def serve(self, leaf: LeafCertificate) -> ssl.SSLContext:
        """The server context presenting ``leaf`` and its issuer, built on first serve."""
        ctx = self._served.get(leaf)
        if ctx is None:
            ctx = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
            ctx.num_tickets = 0  # no client resumes a session
            with tempfile.NamedTemporaryFile(suffix=".pem") as pem:  # removed on close
                pem.write(leaf.chain_pem() + key_pem(leaf.key_pair))
                pem.flush()
                ctx.load_cert_chain(pem.name)
            self._served[leaf] = ctx
        return ctx


def forge_for(test: str, target_fqdn: str, material: MitmMaterial) -> LeafCertificate:
    """The forged leaf a given test presents for a target destination."""
    if test not in TESTS:
        raise ValueError(f"unknown test kind: {test}")
    if test == "T1":
        return material.leaf_for(material.untrusted_root, target_fqdn)
    if test == "T2":
        return material.leaf_for(material.lab_trusted_root, ATTACKER_NAME)
    return material.leaf_for(material.installed_root, target_fqdn)


def legit_for(target_fqdn: str, material: MitmMaterial) -> LeafCertificate:
    """A correct-name, trusted-chain leaf, presented when a test is skipped."""
    return material.leaf_for(material.lab_trusted_root, target_fqdn)


def _read_preamble(sock: socket.socket) -> tuple[str, str, str] | None:
    """The preamble's (app id, normalized host, channel), or None to drop the flow.

    The host is normalized here, so a leaf is forged for the name the ledger
    records.
    """
    line = sock.makefile("rb").readline(MAX_PREAMBLE_BYTES)
    if not line:
        return None
    if not line.endswith(b"\n"):
        problem = f"unterminated or over {MAX_PREAMBLE_BYTES} bytes"
    else:
        try:
            meta = json.loads(line)
        except ValueError:
            meta = None
        if not isinstance(meta, dict):
            problem = "not a JSON object"
        elif not isinstance(meta.get("app_id"), str) or not isinstance(meta.get("fqdn"), str):
            problem = "without a string app_id and fqdn"
        elif meta.get("channel", "native") not in CHANNELS:
            problem = f"with unknown channel {meta['channel']!r}"
        elif not is_requestable(meta["fqdn"]):
            problem = f"with host {meta['fqdn']!r}, which no flow can request"
        else:
            return meta["app_id"], normalize_fqdn(meta["fqdn"]), meta.get("channel", "native")
    log.warning("dropping connection: preamble %s", problem)
    return None


class Listener:
    """A TCP listener: a blocking accept loop, one handler thread per connection.

    ``stop()`` shuts the listening socket down, which wakes the blocked
    ``accept()`` at once, then joins the accept thread and every handler
    still running, so whatever a handler was doing when its client returned
    has finished when ``stop()`` returns. Each accepted connection gets
    ``timeout``, which bounds every socket wait of its handler.
    """

    def __init__(self, handle, timeout: float, host: str = "127.0.0.1", port: int = 0):
        self._handle = handle
        self._timeout = timeout
        self._sock = socket.create_server((host, port))
        self._handlers: set[threading.Thread] = set()
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._thread = threading.Thread(target=self._accept_loop, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> tuple[str, int]:
        self._thread.start()
        return self.address

    def stop(self) -> None:
        self._stopping.set()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass  # some platforms refuse shutdown() on a listening socket
        self._sock.close()
        self._thread.join()
        with self._lock:
            handlers = list(self._handlers)
        for thread in handlers:
            thread.join()

    def _accept_loop(self) -> None:
        while True:
            try:
                conn, _ = self._sock.accept()
            except OSError:
                if self._stopping.is_set():
                    return
                # Linux reports some network errors of a pending connection here.
                log.warning("accept failed", exc_info=True)
                continue
            conn.settimeout(self._timeout)
            # Small writes go out at once: without this, Nagle holds a reply
            # until a delayed ACK, about 40 ms, arrives for the last one.
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            thread = threading.Thread(target=self._serve, args=(conn,), daemon=True)
            with self._lock:
                self._handlers.add(thread)
            thread.start()
            # Hold nothing of this connection while blocked in the next accept().
            del conn, thread

    def _serve(self, conn: socket.socket) -> None:
        try:
            self._handle(conn)
        except Exception as exc:
            log.warning("connection handler error: %s", exc, exc_info=True)
        finally:
            conn.close()
            with self._lock:
                self._handlers.discard(threading.current_thread())


class MitmEngine:
    """One engine instance runs one MitM test kind against incoming flows.

    A flow is in the ledger when its client sees it end: the echo of its
    request, or the engine closing the connection. ``stop()`` returns as
    soon as no connection is in flight. It waits for every handler still
    running, so the flows of clients that left without waiting for the end
    are in the ledger when it returns too. Each wait is bounded by the
    connection timeout, ``max(4 x grace, 5 s)``, which every socket
    operation of a handler gets.
    """

    def __init__(
        self,
        material: MitmMaterial,
        test: str,
        policy: str,
        ledger: FlowLedger,
        grace_seconds: float,
        freeze_time: bool = False,
    ):
        if test not in TESTS:
            raise ValueError(f"unknown test kind: {test}")
        self.material = material
        self.test = test
        self.policy = policy
        self.ledger = ledger
        self.grace_seconds = grace_seconds
        self.freeze_time = freeze_time
        self._listener: Listener | None = None

    # -- lifecycle ---------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        timeout = max(self.grace_seconds * 4, 5.0)
        try:
            self._listener = Listener(self._handle_connection, timeout, host, port)
        except OSError as exc:
            raise RuntimeError(f"listener bind failed: {exc}") from exc
        return self._listener.start()

    @property
    def address(self) -> tuple[str, int]:
        assert self._listener is not None, "engine not started"
        return self._listener.address

    def stop(self) -> None:
        if self._listener:
            self._listener.stop()
            self._listener = None

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    # -- per-connection flow -----------------------------------------------

    def _handle_connection(self, sock: socket.socket) -> None:
        preamble = _read_preamble(sock)
        if preamble is None:
            return
        app_id, fqdn, channel = preamble
        decision = self.ledger.decide_retest(app_id, fqdn, self.policy, self.test)
        forged = decision == "test"
        leaf = (
            forge_for(self.test, fqdn, self.material)
            if forged
            else legit_for(fqdn, self.material)
        )
        ctx = self.material.serve(leaf)
        sock.sendall(json.dumps({"action": decision}).encode() + b"\n")

        def record(outcome: str, tls_version: str = "unknown") -> None:
            self.ledger.record_flow(
                app_id=app_id,
                fqdn=fqdn,
                ts_wall=wall_clock(self.freeze_time),
                tls_version=tls_version,
                channel=channel,
                test_applied=self.test,
                outcome=outcome if forged else "skipped",
            )

        self._run_tls(sock, ctx, record)

    def _run_tls(self, sock: socket.socket, ctx: ssl.SSLContext, record) -> None:
        """Serve ``ctx`` and ``record`` the outcome before the client can see the flow end."""
        # A client gone before its ClientHello never saw a certificate. Wrapping
        # its socket anyway can leak it: when the peer has reset, the
        # not-connected probe in SSLSocket._create raises without closing the
        # socket it took over.
        try:
            hello = sock.recv(1, socket.MSG_PEEK)
        except OSError as exc:
            log.debug("transport failure before the ClientHello: %s", exc)
            hello = b""
        if not hello:
            return record("inconclusive")
        try:
            tls = ctx.wrap_socket(sock, server_side=True)
        except ssl.SSLError as exc:
            # The certificate flight was already sent; an alert here is the
            # client rejecting it.
            log.debug("post-certificate alert from client: %s", exc)
            return record("secure")
        except OSError as exc:
            log.debug("pre-certificate transport failure: %s", exc)
            return record("inconclusive")

        with tls:
            version = {"TLSv1.2": "TLS1.2", "TLSv1.3": "TLS1.3"}.get(
                tls.version() or "", "unknown"
            )
            tls.settimeout(self.grace_seconds)
            try:
                data = tls.recv(4096)
            except socket.timeout:
                # Connection idles open with no application data: no evidence.
                return record("inconclusive", version)
            except OSError:
                data = b""
            # Data means the client accepted the chain. A clean close right
            # after the handshake means it aborted on the certificate it saw.
            record("vulnerable" if data else "secure", version)
            if data:
                try:
                    tls.sendall(data)  # echo, so clients can run request/response
                except OSError:
                    pass
